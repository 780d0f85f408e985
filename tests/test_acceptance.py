"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Desk-scale cases use the
packaged street-canyon scene (16x16 tensor, 2x2 array) and the packaged desk
decoder; full-scale checks are count/shape arithmetic only, so the whole
suite stays within a few minutes on a laptop.
"""

from contextlib import contextmanager
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from unn_csi import cli
from unn_csi.baselines import mmse_genie, mmse_raw, nmse, nmse_linear
from unn_csi.channel import add_noise, load_scene, postprocess, preprocess, stack_users, synthesize
from unn_csi.codec import CodecError, decode, encode, payload_bytes, recreate
from unn_csi.decoder import forward, load_spec, param_count
from unn_csi.fitting import FitConfig, fit
from unn_csi.transfer import weight_distance

from conftest import gradcheck_point, make_spec
from test_fitting import GRADCHECK_CONFIGS, central_difference_check


def _package_path(rel):
    return str(resources.files("unn_csi").joinpath(rel))


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="module")
def desk():
    scene = load_scene(_package_path("scenes/street_canyon_desk.json"))
    spec = load_spec(_package_path("specs/single_ue_desk.json"))
    return scene, spec


DESK_FIT = FitConfig(iterations=3000, learning_rate=2e-3, trace_every=500, init_seed=1)


def _fit_estimate(scene, spec, ue, snr_db, seed, config=DESK_FIT):
    truth = synthesize(scene, ue)
    meas = add_noise(truth, snr_db, seed)
    target = preprocess(meas)
    report = fit(spec, None, target, config)
    est = postprocess(forward(spec, report.params), target.snapshot_norms, target.scale)
    return truth, meas, est, report


def test_criterion_1_parameter_count_exactness():
    with criterion(1, "parameter counts 25728/25728/29952 and ratios 17.45/5.82/6.77 %"):
        single = load_spec(_package_path("specs/single_ue_full.json"))
        group_a = load_spec(_package_path("specs/group_full_a.json"))
        group_b = load_spec(_package_path("specs/group_full_b.json"))

        assert param_count(single) == 25728
        ratio = param_count(single) / (64 * 64 * 36)
        assert abs(100 * ratio - 17.45) <= 0.01

        assert param_count(group_a) == 25728
        assert abs(100 * param_count(group_a) / (64 * 64 * 3 * 36) - 5.82) <= 0.01
        assert param_count(group_b) == 29952
        assert abs(100 * param_count(group_b) / (64 * 64 * 3 * 36) - 6.77) <= 0.01


def test_criterion_2_gradient_correctness():
    with criterion(2, "reverse-mode gradients match central differences (h=1e-3, rel < 1e-4)"):
        assert len(GRADCHECK_CONFIGS) >= 6
        for name, spec in sorted(GRADCHECK_CONFIGS.items()):
            params, z0 = gradcheck_point(spec, seed=1)
            rng = np.random.default_rng(77)
            target = rng.uniform(-0.8, 0.8, spec.output_dims)
            worst = central_difference_check(spec, params, z0, target, h=1e-3)
            assert worst < 1e-4, f"{name}: {worst:.2e}"


def test_criterion_3_noise_impedance(desk):
    with criterion(3, "desk recreation gains >= 3 dB at SNR 0 and >= 0 dB at SNR 20"):
        scene, spec = desk
        seeds = [0, 1, 2]
        for snr_db, required_gain in ((0.0, 3.0), (20.0, 0.0)):
            meas_ratios, est_ratios = [], []
            for seed in seeds:
                truth, meas, est, _ = _fit_estimate(scene, spec, 3, snr_db, seed)
                meas_ratios.append(nmse_linear(meas, truth))
                est_ratios.append(nmse_linear(est, truth))
            meas_db = 10 * np.log10(np.mean(meas_ratios))
            est_db = 10 * np.log10(np.mean(est_ratios))
            assert est_db <= meas_db - required_gain, (
                f"SNR {snr_db}: estimate {est_db:.2f} dB vs measurement {meas_db:.2f} dB"
            )


def test_criterion_4_transfer_learning_inequality(desk):
    with criterion(4, "warm-started weights stay closer (>= 8/10) and transfer NMSE not worse"):
        scene, spec = desk
        snr_db, iters = 5.0, 1000
        truth3, truth4 = synthesize(scene, 3), synthesize(scene, 4)
        wins = 0
        tl_ratios, rnd_ratios = [], []
        for trial in range(10):
            t3 = preprocess(add_noise(truth3, snr_db, 100 + trial))
            t4 = preprocess(add_noise(truth4, snr_db, 1100 + trial))
            cfg = FitConfig(iters, 2e-3, trace_every=500, init_seed=1 + trial)
            base = fit(spec, None, t3, cfg)
            tl = fit(spec, None, t4, cfg, init=base.params)
            rnd = fit(spec, None, t4, replace(cfg, init_seed=501 + trial))
            d_tl = weight_distance(base.params, tl.params).total
            d_rnd = weight_distance(base.params, rnd.params).total
            wins += d_tl < d_rnd
            est_tl = postprocess(forward(spec, tl.params), t4.snapshot_norms, t4.scale)
            est_rnd = postprocess(forward(spec, rnd.params), t4.snapshot_norms, t4.scale)
            tl_ratios.append(nmse_linear(est_tl, truth4))
            rnd_ratios.append(nmse_linear(est_rnd, truth4))
        assert wins >= 8, f"inequality held in only {wins}/10 trials"
        assert np.mean(tl_ratios) <= np.mean(rnd_ratios), (
            f"mean transfer NMSE {10 * np.log10(np.mean(tl_ratios)):.2f} dB vs "
            f"random-init {10 * np.log10(np.mean(rnd_ratios)):.2f} dB"
        )


def test_criterion_5_multiuser_parameter_invariance(desk):
    with criterion(5, "group size leaves the parameter count unchanged; joint fit within 6 dB"):
        scene, spec = desk

        def group_spec(m):
            return make_spec(
                (2, 2, m),
                spec.widths,
                tuple(tuple(row) + (False,) for row in spec.upsample_flags),
                seed=spec.seed_rule.seed,
                a=spec.seed_rule.half_range,
            )

        counts = {m: param_count(group_spec(m)) for m in (1, 2, 3, 4)}
        assert len(set(counts.values())) == 1

        ues = [2, 3, 4]
        snr_db = 20.0
        truths = {u: synthesize(scene, u) for u in ues}
        targets = {u: preprocess(add_noise(truths[u], snr_db, 50 + u)) for u in ues}
        singles = {}
        for u in ues:
            report = fit(spec, None, targets[u], DESK_FIT)
            est = postprocess(
                forward(spec, report.params), targets[u].snapshot_norms, targets[u].scale
            )
            singles[u] = nmse(est, truths[u])
        group = stack_users(targets[u] for u in ues)
        report = fit(group_spec(3), None, group, DESK_FIT)
        estimates = recreate(group_spec(3), report.params, group.snapshot_norms, group.scale)
        assert len(estimates) == len(ues)
        for u, est in zip(ues, estimates):
            joint = nmse(est, truths[u])
            assert joint <= singles[u] + 6.0, f"UE {u}: joint {joint:.2f} dB vs single {singles[u]:.2f} dB"


def test_criterion_6_codec_round_trip(desk):
    with criterion(6, "report regenerates the estimate bit-exactly; size and corruption checks"):
        scene, spec = desk
        truth = synthesize(scene, 3)
        target = preprocess(add_noise(truth, 20.0, 0))
        report = fit(spec, None, target, replace(DESK_FIT, iterations=300))
        tx_out = forward(spec, report.params)

        blob = encode(spec, report.params, target.snapshot_norms, target.scale)
        assert blob[6] == 0  # the fit is not rounded to float16
        assert 3 * param_count(spec) < payload_bytes(blob) < 4 * param_count(spec)

        spec_rx, params_rx, norms_rx, scale_rx = decode(blob)
        rx_out = forward(spec_rx, params_rx)
        assert np.array_equal(rx_out, tx_out)
        tx_est = postprocess(tx_out, target.snapshot_norms, target.scale)
        rx_est = postprocess(rx_out, norms_rx, scale_rx)
        assert np.array_equal(rx_est.data, tx_est.data)

        corrupted = bytearray(blob)
        corrupted[-7] ^= 0x10
        with pytest.raises(CodecError):
            decode(bytes(corrupted))


def test_criterion_7_baseline_calibration(desk):
    with criterion(7, "raw estimator tracks -SNR within 1 dB; genie never worse"):
        scene, _ = desk
        truth = synthesize(scene, 3)
        for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
            raw_ratios, genie_ratios = [], []
            for seed in range(5):
                meas = add_noise(truth, snr_db, seed)
                raw_ratios.append(nmse_linear(mmse_raw(meas), truth))
                genie_ratios.append(nmse_linear(mmse_genie(meas, truth, snr_db), truth))
            raw_db = 10 * np.log10(np.mean(raw_ratios))
            genie_db = 10 * np.log10(np.mean(genie_ratios))
            assert abs(raw_db - (-snr_db)) <= 1.0
            assert genie_db <= raw_db + 1e-9


def test_criterion_8_determinism(desk, tmp_path):
    with criterion(8, "identical configs and seeds reproduce results.csv byte-identically"):
        config = {
            "scene": _package_path("scenes/street_canyon_desk.json"),
            "decoder_spec": _package_path("specs/single_ue_desk.json"),
            "fit": {"iterations": 300, "learning_rate": 2e-3, "trace_every": 100, "init_seed": 1},
            "snr_db": [10.0],
            "ues": [3],
            "seeds": [0],
            "mode": "single",
        }
        outputs = []
        for run_dir in ("first", "second"):
            cfg = cli.config_from_dict(dict(config, out=str(tmp_path / run_dir)))
            assert cli.run(cfg) == 0
            outputs.append((tmp_path / run_dir / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]
