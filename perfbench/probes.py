"""Isolated calls at each scale's real shapes, untraced: the decoder forward
pass, forward+backward, batch norm, upsampling, and the Adam loop left over
when forward+backward is taken out of a short fit's ms per iteration."""

from __future__ import annotations

import statistics
from importlib import resources
from time import perf_counter

import numpy as np

from unn_csi import decoder, fitting, tensors

# scale -> (spec file, repeats of each isolated call, short-fit iteration pair)
SCALES = {
    "desk": ("specs/single_ue_desk.json", 30, (20, 220)),
    "full": ("specs/single_ue_full.json", 7, (3, 23)),
    "full_group": ("specs/group_full_a.json", 5, (2, 10)),
}
FIT_REPEATS = 3


def _median_ms(fn, repeats) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def probe(spec_file, repeats, fit_iters) -> dict:
    spec = decoder.load_spec(str(resources.files("unn_csi").joinpath(spec_file)))
    f32 = np.float32
    z0 = decoder.generate_seed(spec.seed_rule, spec.seed_dims).astype(f32)
    params = decoder.init_params(spec, 1)
    target = np.random.default_rng(0).uniform(-0.9, 0.9, spec.output_dims).astype(f32)
    _, cache = decoder.forward(spec, params, z0, return_cache=True)

    bn_inputs = [np.maximum(c["u"], 0) for c in cache if c["kind"] == "bn"]
    upsample_inputs = []  # (tensor, operator, axis) at each enabled upsampling
    for l, row in enumerate(spec.upsample_flags):
        shape = list(cache[l]["z_in"].shape[:-1]) + [spec.widths[l + 1]]
        for ax, on in enumerate(row):
            if on:
                op = tensors.make_upsampler(shape[ax]).astype(f32)
                upsample_inputs.append((np.ones(shape, f32), op, ax))
                shape[ax] *= 2

    def fwd_bwd():
        fitting.gradient(spec, params, z0, target, dtype=f32)

    out = {
        "forward_ms": _median_ms(lambda: decoder.forward(spec, params, z0), repeats),
        "fwd_bwd_ms": _median_ms(fwd_bwd, repeats),
        "batch_norm_ms": sum(
            _median_ms(lambda r=r, l=l: decoder.batch_norm(r, params.gammas[l], params.betas[l]), repeats)
            for l, r in enumerate(bn_inputs)
        ),
        "upsample_ms": sum(
            _median_ms(lambda x=x, op=op, ax=ax: tensors.mode_product(x, op, ax), repeats)
            for x, op, ax in upsample_inputs
        ),
    }

    def fit_ms(n):
        return _median_ms(lambda: fitting.fit(spec, z0, target, fitting.FitConfig(iterations=n)), 1)

    short, long_ = fit_iters
    adam_ms = []
    for _ in range(FIT_REPEATS):
        # measured back to back so that drifts in host speed cancel; the
        # difference of two fit lengths cancels init, seed and final-loss cost
        t_short, t_long, t_grad = fit_ms(short), fit_ms(long_), _median_ms(fwd_bwd, 1)
        adam_ms.append((t_long - t_short) / (long_ - short) - t_grad)
    out["adam_loop_ms"] = statistics.median(adam_ms)
    return out


def run_all() -> dict:
    metrics = {}
    for scale, (spec_file, repeats, fit_iters) in SCALES.items():
        for name, value in probe(spec_file, repeats, fit_iters).items():
            metrics[f"probe.{scale}.{name}"] = value
    return metrics
