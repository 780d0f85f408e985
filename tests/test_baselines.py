import numpy as np
import pytest

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
    def estimators(self):
        return {
            "mmse_raw": lambda cells: [mmse_raw(meas) for meas, _, _ in cells],
            "mmse_genie": lambda cells: [mmse_genie(*cell) for cell in cells],
        }

    def test_single_cell_produces_one_record_per_estimator(self, micro_scene):
        records = sweep(micro_scene, self.estimators(), [1], [10.0], [0])
        assert len(records) == 2
        assert {r.estimator for r in records} == {"mmse_raw", "mmse_genie"}
        raw = next(r for r in records if r.estimator == "mmse_raw")
        assert raw.gain_db == pytest.approx(0.0, abs=1e-12)

    def test_reproducible_given_seed_list(self, micro_scene):
        a = sweep(micro_scene, self.estimators(), [1, 2], [0.0, 10.0], [0, 1])
        b = sweep(micro_scene, self.estimators(), [1, 2], [0.0, 10.0], [0, 1])
        assert a == b

    def test_genie_never_worse_than_raw(self, micro_scene):
        records = sweep(micro_scene, self.estimators(), [1, 2], [0.0, 10.0, 20.0], [0, 1, 2])
        by_key = {(r.estimator, r.ue_id, r.snr_db): r.nmse_db for r in records}
        for ue in (1, 2):
            for snr in (0.0, 10.0, 20.0):
                assert by_key[("mmse_genie", ue, snr)] <= by_key[("mmse_raw", ue, snr)] + 1e-9

    def test_precomputed_ratios_score_like_an_estimator(self, micro_scene):
        # mmse_raw's per-cell ratios, handed in as scored elsewhere, give
        # mmse_raw's records under the new name, after the estimators'
        grid = ([1, 2], [0.0, 10.0], [0, 1])
        truths = {ue: synthesize(micro_scene, ue) for ue in grid[0]}
        raw = [
            nmse_linear(add_noise(truths[ue], snr, seed), truths[ue])
            for ue in grid[0] for snr in grid[1] for seed in grid[2]
        ]
        records = sweep(micro_scene, self.estimators(), *grid, ratios={"copy": raw})
        assert [r.estimator for r in records[:3]] == ["mmse_raw", "mmse_genie", "copy"]
        by_name = {}
        for r in records:
            by_name.setdefault(r.estimator, []).append((r.ue_id, r.snr_db, r.nmse_db, r.gain_db))
        assert by_name["copy"] == by_name["mmse_raw"]
        with pytest.raises(ValueError, match="copy: 7 NMSE ratios for 8 cells"):
            sweep(micro_scene, self.estimators(), *grid, ratios={"copy": raw[:-1]})

    def test_curves(self, micro_scene):
        records = sweep(micro_scene, self.estimators(), [1], [0.0, 10.0], [0])
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
