import dataclasses
import json

import numpy as np
import pytest

from unn_csi import cli
from unn_csi.channel import Scatterer, Scene, UserTrack
from unn_csi.decoder import DecoderSpec, ParamSet, SeedRule, spec_to_json
from unn_csi.fitting import fit_batch


def make_spec(input_dims, widths, flags, seed=42, a=0.5):
    return DecoderSpec(input_dims=input_dims, widths=widths, upsample_flags=flags, seed_rule=SeedRule(seed, a))


def save_spec(spec: DecoderSpec, path) -> None:
    """Write `spec` as a decoder spec file in its canonical JSON form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec_to_json(spec))
        fh.write("\n")


def scene_to_dict(scene: Scene) -> dict:
    """The scene file document (docs/artifacts.md) that describes `scene`."""
    return {
        "carrier_hz": scene.carrier_hz,
        "bandwidth_hz": scene.bandwidth_hz,
        "n_sub": scene.n_sub,
        "n_sp": scene.n_sp,
        "snapshot_dt_s": scene.snapshot_dt_s,
        "bs": {
            "position_m": list(scene.bs_position),
            "ura_rows": scene.ura_rows,
            "ura_cols": scene.ura_cols,
            "element_spacing_wl": scene.element_spacing_wl,
        },
        "scatterers": [
            {"position_m": list(s.position), "gain_re": s.gain.real, "gain_im": s.gain.imag}
            for s in scene.scatterers
        ],
        "ues": [
            {
                "id": u.ue_id,
                "start_m": list(u.start),
                "velocity_mps": list(u.velocity),
                "los": u.los,
            }
            for u in scene.ues
        ],
    }


def save_scene(scene: Scene, path) -> None:
    """Write `scene` as a scene file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2)
        fh.write("\n")


@pytest.fixture
def recorded_fit_batch(monkeypatch):
    """Every cli.fit_batch call as (inits, reports), in call order."""
    calls = []

    def recording(spec, z0, targets, config, inits=None):
        reports = fit_batch(spec, z0, targets, config, inits)
        calls.append((inits, reports))
        return reports

    monkeypatch.setattr(cli, "fit_batch", recording)
    return calls


@pytest.fixture
def tiny_spec():
    """Small 3-way decoder used across the fitting tests."""
    return make_spec((2, 3), (3, 4, 4, 4, 2), ((True, True), (True, True)))


@pytest.fixture
def micro_scene():
    """Two UEs 2 m apart sharing four scatterers; 8x8 tensor, 2x1 array."""
    scatterers = tuple(
        Scatterer((x, y, 4.0), complex(g_re, g_im))
        for x, y, g_re, g_im in [
            (-8.0, 10.0, 0.3, 0.1),
            (8.0, 14.0, -0.2, 0.25),
            (-8.0, 20.0, 0.15, -0.3),
            (8.0, 24.0, 0.28, 0.05),
        ]
    )
    ues = (
        UserTrack(1, (-1.0, 25.0, 1.5), (0.0, -0.1, 0.0)),
        UserTrack(2, (1.0, 25.0, 1.5), (0.0, -0.12, 0.0)),
    )
    return Scene(
        bs_position=(0.0, 0.0, 10.0),
        ura_rows=2,
        ura_cols=1,
        element_spacing_wl=0.5,
        scatterers=scatterers,
        ues=ues,
        carrier_hz=2.6e9,
        bandwidth_hz=1.0e7,
        n_sub=8,
        n_sp=8,
        snapshot_dt_s=0.05,
    )


@pytest.fixture
def rect_scene(micro_scene):
    """micro_scene with 8 subcarriers but 4 snapshots: the one-UE layout
    (n_sub, n_sp) and the group layout (n_sp, n_sub, M) differ only here."""
    return dataclasses.replace(micro_scene, n_sp=4)


def gradcheck_point(spec, seed, gap=0.5):
    """Evaluation point with a certified margin from every ReLU kink.

    Finite differences are only a valid derivative oracle on a smooth piece of
    the loss, so the point is constructed accordingly: the seed tensor is
    strictly positive, inner kernel columns carry a fixed sign each (negative
    columns give provably dead filters, positive ones provably active), and
    each batch-norm beta is placed after a dry forward pass so that every
    layer output stays at least `gap` above zero. Upsampling rows are convex
    combinations, so positivity survives interpolation.
    """
    from unn_csi.decoder import generate_seed
    from unn_csi.tensors import make_upsampler, mode_product

    rng = np.random.default_rng(seed)
    n_layers = spec.n_layers
    params = ParamSet()
    for l in range(n_layers):
        k_in, k_out = spec.widths[l], spec.widths[l + 1]
        if l == n_layers - 1:
            params.kernels.append(rng.uniform(-1, 1, (k_in, k_out)) * (0.6 / k_in))
        else:
            mag = rng.uniform(0.4, 1.0, (k_in, k_out))
            signs = np.where(np.arange(k_out) % 3 == 2, -1.0, 1.0)
            params.kernels.append(mag * signs[None, :])
            params.gammas.append(rng.uniform(0.5, 1.5, k_out))
            params.betas.append(np.zeros(k_out))
    z0 = np.abs(generate_seed(spec.seed_rule, spec.seed_dims)) + 0.2

    # dry float64 forward pass with the textbook (unfolded) batch norm
    z = z0.copy()
    for l in range(n_layers - 1):
        u = (z.reshape(-1, z.shape[-1]) @ params.kernels[l]).reshape(z.shape[:-1] + (spec.widths[l + 1],))
        flags = spec.upsample_flags[l] if l < spec.inner_count else ()
        for ax, on in enumerate(flags):
            if on:  # doubles the extent it reads
                u = mode_product(u, make_upsampler(u.shape[ax]), ax)
        r = np.maximum(u, 0)
        flat = r.reshape(-1, r.shape[-1])
        centred = flat - flat.mean(0)
        xhat_max = np.abs(centred / np.sqrt(flat.var(0) + 1e-5)).max(axis=0)
        params.betas[l] = params.gammas[l] * xhat_max + gap + rng.uniform(0.0, 0.3, r.shape[-1])
        xhat = centred * (1.0 / np.sqrt(flat.var(0) + 1e-5))
        z = (xhat * params.gammas[l] + params.betas[l]).reshape(r.shape)
    return params, z0
