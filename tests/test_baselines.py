import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unn_csi
from unn_csi.baselines import (
    mmse_genie,
    mmse_raw,
    nmse,
    nmse_linear,
    records_to_curves,
    sweep,
)
from unn_csi.channel import ChannelTensor, add_noise, noise_variance, synthesize


class TestNmse:
    def test_exact_reconstruction_hits_floor(self, micro_scene):
        truth = synthesize(micro_scene, 1)
        assert nmse(truth, truth) == -300.0

    def test_zero_estimate_is_zero_db(self, micro_scene):
        truth = synthesize(micro_scene, 1)
        zero = ChannelTensor(np.zeros_like(truth.data), role="estimated")
        assert nmse(zero, truth) == pytest.approx(0.0, abs=1e-12)

    def test_calibrated_noise_tracks_snr(self, micro_scene):
        truth = synthesize(micro_scene, 1)
        ratios = [nmse_linear(add_noise(truth, 20.0, s), truth) for s in range(10)]
        assert 10 * np.log10(np.mean(ratios)) == pytest.approx(-20.0, abs=0.3)

    def test_zero_truth_rejected(self):
        z = ChannelTensor(np.zeros((2, 2), dtype=complex), role="estimated")
        with pytest.raises(ValueError):
            nmse(z, z)

    def test_shape_mismatch_rejected(self, micro_scene):
        truth = synthesize(micro_scene, 1)
        with pytest.raises(ValueError):
            nmse(np.zeros((2, 2), dtype=complex), truth)


class TestMmseRaw:
    def test_identity_pass_through(self, micro_scene):
        truth = synthesize(micro_scene, 1)
        meas = add_noise(truth, 10.0, 0)
        est = mmse_raw(meas)
        assert np.array_equal(est.data, meas.data)
        assert est.role == "estimated"

    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    def test_nmse_tracks_minus_snr(self, micro_scene, snr_db):
        truth = synthesize(micro_scene, 1)
        ratios = [nmse_linear(mmse_raw(add_noise(truth, snr_db, s)), truth) for s in range(8)]
        assert 10 * np.log10(np.mean(ratios)) == pytest.approx(-snr_db, abs=0.4)

    def test_requires_measured_role(self, micro_scene):
        with pytest.raises(ValueError):
            mmse_raw(synthesize(micro_scene, 1))


class TestMmseGenie:
    def test_vanishing_noise_gives_identity_filter(self, micro_scene):
        truth = synthesize(micro_scene, 1)
        meas = add_noise(truth, 200.0, 0)  # sigma^2 ~ 1e-20 x signal
        est = mmse_genie(meas, truth, 200.0)
        assert np.allclose(est.data, meas.data, rtol=1e-6)

    def test_white_covariance_scalar_filter(self):
        # truth with exactly identity sample covariance: orthonormal antenna
        # vectors cycling through the basis
        n_ant, n = 4, 64
        data = np.zeros((n, 1, n_ant), dtype=complex)
        for i in range(n):
            data[i, 0, i % n_ant] = np.sqrt(n_ant) / np.sqrt(n_ant)  # unit fibers
        truth = ChannelTensor(data * np.sqrt(n_ant), role="ground-truth")
        snr_db = 3.0
        sigma2 = noise_variance(float(np.sum(np.abs(truth.data) ** 2)), truth.data.size, snr_db)
        meas = add_noise(truth, snr_db, 5)
        est = mmse_genie(meas, truth, snr_db)
        # R = I implies est = meas / (1 + sigma2)
        assert np.allclose(est.data, meas.data / (1.0 + sigma2), rtol=1e-10)

    def test_scalar_wiener_improvement(self):
        # for R = I the expected improvement over the raw estimator is
        # 10 log10(1 + sigma^2); check by Monte Carlo
        n_ant, n = 4, 256
        data = np.zeros((n, 1, n_ant), dtype=complex)
        for i in range(n):
            data[i, 0, i % n_ant] = np.sqrt(n_ant)  # unit power per entry, R = I
        truth = ChannelTensor(data, role="ground-truth")
        snr_db = 0.0
        sigma2 = noise_variance(float(np.sum(np.abs(truth.data) ** 2)), truth.data.size, snr_db)
        raw_r, genie_r = [], []
        for seed in range(20):
            meas = add_noise(truth, snr_db, seed)
            raw_r.append(nmse_linear(meas, truth))
            genie_r.append(nmse_linear(mmse_genie(meas, truth, snr_db), truth))
        improvement = 10 * np.log10(np.mean(raw_r) / np.mean(genie_r))
        assert improvement == pytest.approx(10 * np.log10(1 + sigma2), abs=0.35)

    def test_rank_one_channel_beats_raw(self, micro_scene):
        # strongly structured truth: one dominant antenna direction
        n_sub, n_sp = 16, 8
        rng = np.random.default_rng(2)
        u = np.array([1.0, 0.5 + 0.5j])
        amp = rng.standard_normal((n_sub, n_sp)) + 1j * rng.standard_normal((n_sub, n_sp))
        truth = ChannelTensor(amp[:, :, None] * u[None, None, :], role="ground-truth")
        worse = 0
        for seed in range(6):
            meas = add_noise(truth, 0.0, seed)
            if nmse_linear(mmse_genie(meas, truth, 0.0), truth) >= nmse_linear(meas, truth):
                worse += 1
        assert worse == 0


class TestSweep:
    ESTIMATORS = {
        "mmse_raw": lambda meas, truth, snr_db: mmse_raw(meas),
        "mmse_genie": mmse_genie,
    }

    def ratios(self, scene, ue_ids, snrs_db, seeds):
        """The measurement's and each estimator's linear NMSE ratio per cell,
        in (UE, SNR, seed) order."""
        meas_ratios, scored = [], {name: [] for name in self.ESTIMATORS}
        for ue in ue_ids:
            truth = synthesize(scene, ue)
            for snr_db in snrs_db:
                for seed in seeds:
                    meas = add_noise(truth, snr_db, seed)
                    meas_ratios.append(nmse_linear(meas, truth))
                    for name, estimate in self.ESTIMATORS.items():
                        scored[name].append(nmse_linear(estimate(meas, truth, snr_db), truth))
        return meas_ratios, scored

    def run(self, scene, ue_ids, snrs_db, seeds):
        return sweep(ue_ids, snrs_db, len(seeds), *self.ratios(scene, ue_ids, snrs_db, seeds))

    def test_single_cell_produces_one_record_per_estimator(self, micro_scene):
        records = self.run(micro_scene, [1], [10.0], [0])
        assert [r.estimator for r in records] == ["mmse_raw", "mmse_genie"]
        raw = next(r for r in records if r.estimator == "mmse_raw")
        assert raw.gain_db == pytest.approx(0.0, abs=1e-12)

    def test_records_follow_the_grid_and_estimator_order(self, micro_scene):
        records = self.run(micro_scene, [1, 2], [0.0, 10.0], [0, 1])
        assert [(r.ue_id, r.snr_db, r.estimator) for r in records] == [
            (ue, snr, name) for ue in (1, 2) for snr in (0.0, 10.0) for name in ("mmse_raw", "mmse_genie")
        ]
        assert {r.seed_count for r in records} == {2}

    def test_genie_never_worse_than_raw(self, micro_scene):
        records = self.run(micro_scene, [1, 2], [0.0, 10.0, 20.0], [0, 1, 2])
        by_key = {(r.estimator, r.ue_id, r.snr_db): r.nmse_db for r in records}
        for ue in (1, 2):
            for snr in (0.0, 10.0, 20.0):
                assert by_key[("mmse_genie", ue, snr)] <= by_key[("mmse_raw", ue, snr)] + 1e-9

    def test_raw_arm_is_the_measurement_ratio(self, micro_scene):
        # mmse_raw copies the measurement, so its ratio is the measurement's
        # bit for bit, and its records gain exactly nothing
        meas_ratios, scored = self.ratios(micro_scene, [1, 2], [0.0, 10.0], [0, 1])
        assert scored["mmse_raw"] == meas_ratios
        records = sweep([1, 2], [0.0, 10.0], 2, meas_ratios, scored)
        assert {r.gain_db for r in records if r.estimator == "mmse_raw"} == {0.0}

    def test_short_ratio_list_names_its_estimator(self, micro_scene):
        grid = ([1, 2], [0.0, 10.0], [0, 1])
        meas_ratios, scored = self.ratios(micro_scene, *grid)
        scored["mmse_genie"] = scored["mmse_genie"][:-1]
        with pytest.raises(ValueError, match="mmse_genie: 7 NMSE ratios for 8 cells"):
            sweep(grid[0], grid[1], 2, meas_ratios, scored)
        with pytest.raises(ValueError, match="measurement: 7 NMSE ratios for 8 cells"):
            sweep(grid[0], grid[1], 2, meas_ratios[:-1], {})

    def test_curves(self, micro_scene):
        records = self.run(micro_scene, [1], [0.0, 10.0], [0])
        assert len(records) == 4
        curves = records_to_curves(records)
        assert [p[0] for p in curves["mmse_raw"]["1"]] == [0.0, 10.0]


class TestFullScaleCalibration:
    def test_raw_nmse_within_0p3_db_at_full_size(self):
        from importlib import resources
        from unn_csi.channel import load_scene, synthesize

        scene = load_scene(str(resources.files("unn_csi").joinpath("scenes/street_canyon.json")))
        truth = synthesize(scene, 1)
        assert truth.data.shape == (64, 64, 36)
        for snr_db in (0.0, 20.0):
            meas = mmse_raw(add_noise(truth, snr_db, seed=0))
            assert nmse(meas, truth) == pytest.approx(-snr_db, abs=0.3)


# prints the sha256 of mmse_genie's estimate for street_canyon UEs 1 and 4 at
# 0 and 20 dB, noise seed 0
GENIE_DIGEST = """
import hashlib
from importlib import resources
from unn_csi.baselines import mmse_genie
from unn_csi.channel import add_noise, load_scene, synthesize
scene = load_scene(str(resources.files("unn_csi").joinpath("scenes/street_canyon.json")))
for ue in (1, 4):
    truth = synthesize(scene, ue)
    for snr_db in (0.0, 20.0):
        est = mmse_genie(add_noise(truth, snr_db, 0), truth, snr_db)
        print(hashlib.sha256(est.data.tobytes()).hexdigest())
"""


def test_full_scale_genie_bytes_do_not_depend_on_the_blas_thread_count():
    # sweep mode scores mmse_genie in the cell runner, so with --workers it
    # runs in one-BLAS-thread pool workers and serially on the default count
    env = dict(os.environ, PYTHONPATH=str(Path(unn_csi.__file__).parents[1]))
    digests = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run(
            [sys.executable, "-c", GENIE_DIGEST], env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout)
    assert len(digests[0]) == 4 * 65 and digests[0] == digests[1]
