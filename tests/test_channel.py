from importlib import resources

import numpy as np
import pytest

from unn_csi.channel import (
    ChannelTensor,
    Scatterer,
    Scene,
    UserTrack,
    add_noise,
    load_scene,
    postprocess,
    preprocess,
    scene_from_dict,
    split_users,
    stack_users,
    synthesize,
)
from unn_csi.baselines import nmse_linear

from conftest import save_scene, scene_to_dict
from oracles import formula_postprocess, loop_synthesize, two_path_channel

SPEED_OF_LIGHT = 299_792_458.0


def single_path_scene(n_ant=(1, 1), velocity=(0.0, 0.0, 0.0), n_sub=8, n_sp=4):
    return Scene(
        bs_position=(0.0, 0.0, 10.0),
        ura_rows=n_ant[0],
        ura_cols=n_ant[1],
        element_spacing_wl=0.5,
        scatterers=(),
        ues=(UserTrack(1, (30.0, 0.0, 1.5), velocity),),
        carrier_hz=2.6e9,
        bandwidth_hz=2.0e7,
        n_sub=n_sub,
        n_sp=n_sp,
        snapshot_dt_s=0.05,
    )


class TestSynthesize:
    def test_single_los_path_closed_form(self):
        scene = single_path_scene()
        h = synthesize(scene, 1).data
        # constant over snapshots (zero velocity)
        assert np.allclose(h, h[:, :1, :], rtol=0, atol=0)
        # rank one over (subcarrier, snapshot)
        mat = h[:, :, 0]
        s = np.linalg.svd(mat, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]
        # per-subcarrier phase slope equals 2 pi df tau
        d = np.linalg.norm(np.array([30.0, 0.0, 1.5]) - np.array([0.0, 0.0, 10.0]))
        tau = d / SPEED_OF_LIGHT
        df = scene.bandwidth_hz / scene.n_sub
        slopes = np.angle(h[1:, 0, 0] / h[:-1, 0, 0])
        assert np.allclose(np.abs(slopes), 2 * np.pi * df * tau, rtol=1e-9)
        # free-space amplitude
        assert np.allclose(np.abs(h), 1.0 / (4 * np.pi * d), rtol=1e-9)

    def test_broadside_ue_gives_equal_phases_across_array(self):
        scene = single_path_scene(n_ant=(3, 3))
        # UE on the array normal (x axis through the BS position)
        scene = Scene(**{**scene.__dict__, "ues": (UserTrack(1, (40.0, 0.0, 10.0), (0.0, 0.0, 0.0)),)})
        h = synthesize(scene, 1).data
        phases = np.angle(h[0, 0, :])
        assert np.allclose(phases, phases[0], atol=1e-12)

    def test_two_equal_gain_opposite_doppler_paths(self):
        # mirror-symmetric scatterers about the UE start, BS on the mirror
        # plane: equal gains, opposite Doppler shifts by construction
        scene = Scene(
            bs_position=(0.0, 0.0, 8.0),
            ura_rows=1,
            ura_cols=1,
            element_spacing_wl=0.5,
            scatterers=(
                Scatterer((12.0, 20.0, 5.0), 0.4 + 0.0j),
                Scatterer((-12.0, 20.0, 5.0), 0.4 + 0.0j),
            ),
            ues=(UserTrack(1, (0.0, 24.0, 1.5), (0.5, 0.0, 0.0), los=False),),
            carrier_hz=2.6e9,
            bandwidth_hz=2.0e7,
            n_sub=8,
            n_sp=16,
            snapshot_dt_s=0.05,
        )
        h = synthesize(scene, 1).data
        want = two_path_channel(scene, 1)
        assert np.allclose(h, want, rtol=1e-10, atol=1e-16)
        # phases align at t=0; with zero delay-phase on subcarrier 0 the
        # envelope is exactly |2 g cos(2 pi nu t dt)| there
        lam = SPEED_OF_LIGHT / scene.carrier_hz
        s = np.array([12.0, 20.0, 5.0])
        ue = np.array([0.0, 24.0, 1.5])
        nu = -np.dot((ue - s) / np.linalg.norm(ue - s), [0.5, 0.0, 0.0]) / lam
        t = np.arange(scene.n_sp) * scene.snapshot_dt_s
        envelope = np.abs(h[0, :, 0])
        expect = envelope[0] * np.abs(np.cos(2 * np.pi * nu * t))
        assert np.allclose(envelope, expect, rtol=5e-3)

    def test_deterministic(self, micro_scene):
        a = synthesize(micro_scene, 1).data
        b = synthesize(micro_scene, 1).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["street_canyon", "street_canyon_desk"])
    def test_matches_the_per_path_loop(self, name):
        # one matrix product in place of a sequential sum over paths: only the
        # rounding differs, so every UE agrees to 1e-12 of the tensor's peak
        # (entries where paths cancel carry no relative accuracy in either)
        scene = load_scene(str(resources.files("unn_csi").joinpath(f"scenes/{name}.json")))
        for ue_id in scene.ue_ids:
            want = loop_synthesize(scene, ue_id)
            got = synthesize(scene, ue_id).data
            assert got.dtype == np.complex128 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize(
        "start, scatterer, message",
        [
            ((0.0, 0.0, 10.0), (5.0, 5.0, 5.0), "degenerate geometry: UE coincides with the BS"),
            ((5.0, 5.0, 5.0), (5.0, 5.0, 5.0), "degenerate geometry: UE coincides with a scatterer"),
            ((30.0, 0.0, 1.5), (0.0, 0.0, 10.0), "degenerate geometry: scatterer coincides with the BS"),
        ],
    )
    def test_degenerate_geometry_messages(self, start, scatterer, message):
        scene = single_path_scene()
        bad = Scene(
            **{
                **scene.__dict__,
                "ues": (UserTrack(1, start, (0.0, 0.0, 0.0)),),
                "scatterers": (Scatterer(scatterer, 0.5 + 0.0j),),
            }
        )
        with pytest.raises(ValueError) as err:
            synthesize(bad, 1)
        assert str(err.value) == message

    def test_degenerate_geometry_rejected(self):
        scene = single_path_scene()
        bad = Scene(**{**scene.__dict__, "ues": (UserTrack(1, (0.0, 0.0, 10.0), (0.0, 0.0, 0.0)),)})
        with pytest.raises(ValueError, match="UE coincides with the BS"):
            synthesize(bad, 1)

    def test_moving_into_a_scatterer_rejected(self):
        # the check covers every snapshot, not only the first
        scene = single_path_scene(velocity=(0.0, 0.0, 1.0), n_sp=4)
        bad = Scene(**{**scene.__dict__, "scatterers": (Scatterer((30.0, 0.0, 1.6), 0.5 + 0.0j),)})
        with pytest.raises(ValueError, match="UE coincides with a scatterer"):
            synthesize(bad, 1)

    def test_unknown_ue(self, micro_scene):
        with pytest.raises(KeyError):
            synthesize(micro_scene, 99)


class TestAddNoise:
    def test_infinite_snr_is_identity(self, micro_scene):
        truth = synthesize(micro_scene, 1)
        meas = add_noise(truth, np.inf, seed=0)
        assert np.array_equal(meas.data, truth.data)
        assert meas.role == "measured"

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_nan_and_minus_infinite_snr_rejected(self, micro_scene, snr_db):
        # -inf dB is infinite noise, not none
        with pytest.raises(ValueError, match="is not an SNR in dB"):
            add_noise(synthesize(micro_scene, 1), snr_db, seed=0)

    @pytest.mark.parametrize("snr_db", [1e308, -1e308, -3100])
    def test_snr_without_a_normal_linear_ratio_rejected(self, micro_scene, snr_db):
        # 10^(snr/10) overflows, underflows to 0, or is subnormal
        with pytest.raises(ValueError, match="is not an SNR in dB"):
            add_noise(synthesize(micro_scene, 1), snr_db, seed=0)

    @pytest.mark.parametrize("snr_db", [0.0, 20.0])
    def test_monte_carlo_snr_calibration(self, snr_db):
        scene = Scene(
            bs_position=(0.0, 0.0, 10.0),
            ura_rows=2,
            ura_cols=2,
            element_spacing_wl=0.5,
            scatterers=(Scatterer((-8.0, 10.0, 4.0), 0.3 + 0.1j),),
            ues=(UserTrack(1, (5.0, 20.0, 1.5), (0.0, -0.1, 0.0)),),
            carrier_hz=2.6e9,
            bandwidth_hz=2.0e7,
            n_sub=16,
            n_sp=16,
            snapshot_dt_s=0.05,
        )
        truth = synthesize(scene, 1)
        ratios = [nmse_linear(add_noise(truth, snr_db, seed), truth) for seed in range(10)]
        avg_db = 10 * np.log10(np.mean(ratios))
        assert abs(avg_db - (-snr_db)) < 0.3

    def test_law_of_large_numbers_at_full_size(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((64, 64, 36)) + 1j * rng.standard_normal((64, 64, 36))
        truth = ChannelTensor(data, role="ground-truth")
        meas = add_noise(truth, 10.0, seed=3)
        measured_db = 10 * np.log10(nmse_linear(meas, truth))
        assert abs(measured_db - (-10.0)) < 0.1

    def test_deterministic_given_seed(self, micro_scene):
        truth = synthesize(micro_scene, 1)
        assert np.array_equal(add_noise(truth, 5.0, 9).data, add_noise(truth, 5.0, 9).data)

    def test_requires_ground_truth_role(self, micro_scene):
        truth = synthesize(micro_scene, 1)
        meas = add_noise(truth, 5.0, 1)
        with pytest.raises(ValueError):
            add_noise(meas, 5.0, 2)


class TestPreprocess:
    def test_all_ones_hand_example(self):
        data = np.ones((2, 1, 2), dtype=complex) * (1 + 1j)
        t = preprocess(ChannelTensor(data))
        # snapshot Frobenius norm: sqrt(4 * |1+j|^2) = 2 sqrt(2); every
        # normalized part is 1 / (2 sqrt(2)), so the scale 0.9 / peak is
        # 0.9 * 2 sqrt(2) and every target entry is 0.9
        norm = 2.0 * np.sqrt(2.0)
        assert np.allclose(t.snapshot_norms, [norm])
        assert np.isclose(t.scale, 0.9 * norm)
        assert t.data.shape == (2, 1, 4)
        assert np.allclose(t.data[..., :2], 0.9)  # real halves
        assert np.allclose(t.data[..., 2:], 0.9)  # imaginary halves

    def test_round_trip_exact_in_float64(self, micro_scene):
        truth = synthesize(micro_scene, 1)
        t = preprocess(truth)
        back = postprocess(t.data, t.snapshot_norms, t.scale)
        assert np.allclose(back.data, truth.data, rtol=0, atol=1e-15 * np.abs(truth.data).max())

    def test_default_scale_gives_peak_0p9(self, micro_scene):
        t = preprocess(synthesize(micro_scene, 1))
        assert np.isclose(np.abs(t.data).max(), 0.9, rtol=0, atol=1e-12)

    def test_matches_the_complex_formula(self):
        # norms and peak come from the real view; the complex-arithmetic
        # form agrees to rounding
        scene = load_scene(str(resources.files("unn_csi").joinpath("scenes/street_canyon.json")))
        h = add_noise(synthesize(scene, 2), 10.0, 5)
        t = preprocess(h)
        norms = np.sqrt(np.sum(np.abs(h.data) ** 2, axis=(0, 2)))
        np.testing.assert_allclose(t.snapshot_norms, norms, rtol=1e-14)
        normalized = h.data / norms[None, :, None]
        scale = 0.9 / max(np.abs(normalized.real).max(), np.abs(normalized.imag).max())
        assert t.scale == pytest.approx(scale, rel=1e-14)
        want = np.concatenate([normalized.real, normalized.imag], axis=2) * scale
        np.testing.assert_allclose(t.data, want, rtol=0, atol=1e-15)

    def test_zero_norm_snapshot_rejected(self):
        data = np.ones((2, 2, 2), dtype=complex)
        data[:, 1, :] = 0.0
        with pytest.raises(ValueError):
            preprocess(ChannelTensor(data))

    def test_max_entry_below_one(self, micro_scene):
        t = preprocess(synthesize(micro_scene, 2))
        assert np.abs(t.data).max() < 1.0


class TestPostprocess:
    def test_zero_tensor(self):
        out = postprocess(np.zeros((3, 2, 4)), np.ones(2), 1.0)
        assert np.array_equal(out.data, np.zeros((3, 2, 2), dtype=complex))

    def test_plain_merge_with_unit_metadata(self):
        arr = np.zeros((1, 1, 4))
        arr[0, 0] = [1.0, 2.0, 3.0, 4.0]
        out = postprocess(arr, np.ones(1), 1.0)
        assert np.array_equal(out.data[0, 0], [1 + 3j, 2 + 4j])

    def test_odd_last_extent_rejected(self):
        with pytest.raises(ValueError):
            postprocess(np.zeros((2, 2, 3)), np.ones(2), 1.0)

    @pytest.mark.parametrize("shape", [(16, 16, 8), (64, 64, 72)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_of_the_complex_formula(self, shape, dtype):
        # scaling the halves into the parts of the result is a + 1j*b, bit for bit
        rng = np.random.default_rng(3)
        data = rng.uniform(-1.0, 1.0, shape).astype(dtype)
        norms = rng.uniform(0.1, 10.0, shape[1])
        got = postprocess(data, norms, 0.7).data
        want = formula_postprocess(data, norms, 0.7)
        assert got.dtype == want.dtype == np.complex128
        assert got.tobytes() == want.tobytes()

    def test_float32_round_trip_tolerance(self, micro_scene):
        truth = synthesize(micro_scene, 1)
        t = preprocess(truth)
        back = postprocess(t.data.astype(np.float32), t.snapshot_norms, t.scale)
        err = np.abs(back.data - truth.data).max() / np.abs(truth.data).max()
        assert err < 1e-6


@pytest.fixture
def two_targets(micro_scene):
    return [preprocess(add_noise(synthesize(micro_scene, u), 20.0, 60 + u)) for u in (1, 2)]


class TestStackUsers:
    def test_identical_members_give_equal_slices(self, two_targets):
        group = stack_users([two_targets[0]] * 2)
        assert np.array_equal(group.data[:, :, 0, :], group.data[:, :, 1, :])

    def test_mode_order_swaps_subcarrier_and_snapshot(self, rect_scene):
        # n_sub = 8, n_sp = 4: unequal extents expose a wrong transpose
        targets = [preprocess(synthesize(rect_scene, u)) for u in (1, 2)]
        group = stack_users(targets)
        assert group.data.shape == (4, 8, 2, 4)
        assert np.array_equal(group.data[:, :, 1, :], targets[1].data.transpose(1, 0, 2))
        assert group.snapshot_norms.shape == (2, 4)
        assert np.array_equal(group.snapshot_norms[1], targets[1].snapshot_norms)
        assert group.scale.tolist() == [t.scale for t in targets]

    def test_split_round_trip(self, two_targets):
        group = stack_users(two_targets)
        back = split_users(group.data, group.snapshot_norms, group.scale)
        assert len(back) == 2
        for original, split in zip(two_targets, back):
            expected = postprocess(original.data, original.snapshot_norms, original.scale)
            assert split.data.tobytes() == expected.data.tobytes()

    @pytest.mark.parametrize("shape", [(16, 16, 3, 8), (64, 64, 3, 72)])
    def test_split_bits_of_the_complex_formula(self, shape):
        rng = np.random.default_rng(4)
        out = rng.uniform(-1.0, 1.0, shape).astype(np.float32)  # (n_sp, n_sub, M, 2*n_ant)
        norms = rng.uniform(0.1, 10.0, (shape[2], shape[0]))
        scales = rng.uniform(0.5, 5.0, shape[2])
        for m, est in enumerate(split_users(out, norms, scales)):
            want = formula_postprocess(out[:, :, m, :].transpose(1, 0, 2), norms[m], float(scales[m]))
            assert est.data.tobytes() == want.tobytes()

    def test_dim_mismatch_rejected(self, two_targets, rect_scene):
        short = preprocess(synthesize(rect_scene, 1))
        with pytest.raises(ValueError):
            stack_users([two_targets[0], short])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            stack_users([])


class TestChannelTensorInvariants:
    def test_measured_requires_snr(self):
        with pytest.raises(ValueError):
            ChannelTensor(np.ones((2, 2), dtype=complex), role="measured")

    def test_non_finite_rejected(self):
        data = np.ones((2, 2), dtype=complex)
        data[0, 0] = np.nan
        with pytest.raises(ValueError):
            ChannelTensor(data)

    @pytest.mark.parametrize(
        "dtype, bad, view",
        [(np.complex128, complex(0.0, np.nan), lambda a: a[:, ::2]), (np.complex64, complex(0.0, np.inf), np.transpose)],
    )
    def test_non_finite_imaginary_part_of_a_strided_array_rejected(self, dtype, bad, view):
        data = view(np.ones((4, 4), dtype=dtype))
        data[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ChannelTensor(data)

    def test_real_data_rejected(self):
        with pytest.raises(ValueError):
            ChannelTensor(np.ones((2, 2)))


class TestSceneFiles:
    def test_round_trip(self, micro_scene, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(micro_scene, path)
        again = load_scene(path)
        assert again == micro_scene

    def test_dict_round_trip(self, micro_scene):
        assert scene_from_dict(scene_to_dict(micro_scene)) == micro_scene

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d.pop("bs"), "'bs'"),
            (lambda d: d.pop("n_sub"), "'n_sub'"),
            (lambda d: d.update(n_sp="8"), "'n_sp'"),
            (lambda d: d.update(n_sp=8.0), "'n_sp'"),
            (lambda d: d.update(carrier_hz=None), "'carrier_hz'"),
            (lambda d: d.update(carrier_hz=float("nan")), "'carrier_hz'"),
            (lambda d: d["bs"].update(element_spacing_wl=10**400), "'bs.element_spacing_wl'"),
            (lambda d: d["bs"].pop("ura_rows"), "'bs.ura_rows'"),
            (lambda d: d["bs"].update(position_m=[0.0, 10.0]), "'bs.position_m'"),
            (lambda d: d.update(scatterers={}), "'scatterers'"),
            (lambda d: d["scatterers"][1].pop("gain_im"), r"'scatterers\[1\].gain_im'"),
            (lambda d: d["ues"][1].update(id="2"), r"'ues\[1\].id'"),
            (lambda d: d["ues"][0].update(start_m="abc"), r"'ues\[0\].start_m'"),
            (lambda d: d["ues"][0].update(los=1), r"'ues\[0\].los'"),
            (lambda d: d.update(ues=[7]), "'ues'"),
        ],
    )
    def test_missing_or_mistyped_field_is_named(self, micro_scene, edit, field):
        doc = scene_to_dict(micro_scene)
        edit(doc)
        with pytest.raises(ValueError, match=field):
            scene_from_dict(doc)

    def test_must_be_an_object(self):
        with pytest.raises(ValueError, match="object"):
            scene_from_dict([1, 2])

    def test_packaged_scenes_load(self):
        from importlib import resources

        for name in ("street_canyon.json", "street_canyon_desk.json"):
            scene = load_scene(str(resources.files("unn_csi").joinpath(f"scenes/{name}")))
            assert len(scene.ues) == 7
            assert len(scene.scatterers) == 20
            assert scene.ue_ids == [1, 2, 3, 4, 5, 6, 7]
            # velocities linearly spaced between 0.08 and 0.14 m/s
            speeds = [np.linalg.norm(ue.velocity) for ue in scene.ues]
            assert np.isclose(speeds[0], 0.08) and np.isclose(speeds[-1], 0.14)
            diffs = np.diff(speeds)
            assert np.allclose(diffs, diffs[0], atol=1e-9)

    def test_full_scene_parameters(self):
        from importlib import resources

        scene = load_scene(str(resources.files("unn_csi").joinpath("scenes/street_canyon.json")))
        assert scene.carrier_hz == 2.6e9
        assert scene.n_sub == 64 and scene.n_sp == 64
        assert scene.n_ant == 36
