import numpy as np
import pytest

from unn_csi.channel import add_noise, preprocess, synthesize
from unn_csi.decoder import generate_seed, param_count
from unn_csi.fitting import FitConfig, fit
from unn_csi.multiuser import build_group, fit_group, split_group

from conftest import make_spec


def group_spec(m, widths=(8, 8, 8, 8, 4), seed=21):
    return make_spec(
        (2, 2, m), widths, 2, 1, ((True, True, False), (True, True, False)), seed=seed, a=0.15
    )


@pytest.fixture
def two_targets(micro_scene):
    truths = {u: synthesize(micro_scene, u) for u in (1, 2)}
    targets = {u: preprocess(add_noise(truths[u], 20.0, 60 + u)) for u in (1, 2)}
    return truths, targets


class TestBuildGroup:
    def test_identical_members_give_equal_slices(self, two_targets):
        _, targets = two_targets
        group = build_group([targets[1], targets[1]], [1, 1])
        assert np.array_equal(group.data[:, :, 0, :], group.data[:, :, 1, :])

    def test_mode_order_swaps_subcarrier_and_snapshot(self, two_targets):
        _, targets = two_targets
        group = build_group([targets[1], targets[2]], [1, 2])
        n_sub, n_sp, width = targets[1].data.shape
        assert group.data.shape == (n_sp, n_sub, 2, width)
        assert np.array_equal(group.data[:, :, 1, :], targets[2].data.transpose(1, 0, 2))

    def test_split_round_trip(self, two_targets):
        _, targets = two_targets
        group = build_group([targets[1], targets[2]], [1, 2])
        back = split_group(group)
        for original, split in zip([targets[1], targets[2]], back):
            assert np.array_equal(split.data, original.data)
            assert np.array_equal(split.snapshot_norms, original.snapshot_norms)
            assert split.scale == original.scale

    def test_dim_mismatch_rejected(self, two_targets):
        _, targets = two_targets
        short = preprocess(
            add_noise(synthesize_micro_half(), 20.0, 3)
        )
        with pytest.raises(ValueError):
            build_group([targets[1], short], [1, 2])


def synthesize_micro_half():
    from unn_csi.channel import Scene, UserTrack, Scatterer

    return synthesize(
        Scene(
            bs_position=(0.0, 0.0, 10.0),
            ura_rows=2,
            ura_cols=1,
            element_spacing_wl=0.5,
            scatterers=(Scatterer((-8.0, 10.0, 4.0), 0.3 + 0.1j),),
            ues=(UserTrack(1, (-1.0, 25.0, 1.5), (0.0, -0.1, 0.0)),),
            carrier_hz=2.6e9,
            bandwidth_hz=1.0e7,
            n_sub=4,
            n_sp=4,
            snapshot_dt_s=0.05,
        ),
        1,
    )


class TestParamInvariance:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_param_count_independent_of_group_size(self, m):
        assert param_count(group_spec(m)) == param_count(group_spec(1))

    def test_shared_kernels_across_users(self):
        # pointwise kernels carry no user-mode extent at all
        spec3 = group_spec(3)
        assert spec3.output_dims == (8, 8, 3, 4)
        assert param_count(spec3) == 8 * 8 * 3 + 8 * 4 + 2 * (8 + 8 + 8)


class TestFitGroup:
    def test_copies_of_one_ue_get_equal_nmse(self, two_targets):
        truths, targets = two_targets
        m = 3
        spec = group_spec(m)
        group = build_group([targets[1]] * m, [101, 102, 103])
        # user-symmetric seed: identical slices along the user mode make the
        # whole fit permutation-invariant across users
        z_slice = generate_seed(spec.seed_rule, (2, 2, 1, spec.widths[0]))
        z0 = np.concatenate([z_slice] * m, axis=2)
        config = FitConfig(iterations=200, learning_rate=2e-3, trace_every=100, init_seed=2)
        _, errors = fit_group(spec, group, config, truths={101: truths[1], 102: truths[1], 103: truths[1]}, z0=z0)
        vals = list(errors.values())
        assert max(vals) - min(vals) < 1e-6

    def test_m1_group_matches_single_ue_fit_bit_exactly(self, two_targets):
        truths, targets = two_targets
        spec4 = group_spec(1, seed=33)
        group = build_group([targets[1]], [1])
        config = FitConfig(iterations=120, learning_rate=2e-3, trace_every=40, init_seed=7)
        report4, _ = fit_group(spec4, group, config, truths={})

        # same data with the user mode squeezed out, run through the 3-way path
        spec3 = make_spec((2, 2), spec4.widths, 2, 1, ((True, True), (True, True)), seed=33, a=0.15)
        z0_4 = generate_seed(spec4.seed_rule, spec4.seed_dims)
        report3 = fit(spec3, z0_4.reshape(2, 2, spec4.widths[0]), group.data[:, :, 0, :], config)
        assert report3.trace == report4.trace
        for a, b in zip(report3.params.arrays(), report4.params.arrays()):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_spec_group_shape_mismatch_rejected(self, two_targets):
        _, targets = two_targets
        group = build_group([targets[1], targets[2]], [1, 2])
        config = FitConfig(iterations=5, trace_every=1)
        with pytest.raises(ValueError):
            fit_group(group_spec(3), group, config)

    def test_three_way_spec_rejected(self, two_targets):
        _, targets = two_targets
        group = build_group([targets[1], targets[2]], [1, 2])
        spec3 = make_spec((2, 2), (8, 8, 8, 8, 4), 2, 1, ((True, True), (True, True)))
        with pytest.raises(ValueError):
            fit_group(spec3, group, FitConfig(iterations=5, trace_every=1))

    def test_joint_fit_reports_per_ue_nmse(self, two_targets):
        truths, targets = two_targets
        spec = group_spec(2)
        group = build_group([targets[1], targets[2]], [1, 2])
        config = FitConfig(iterations=400, learning_rate=2e-3, trace_every=100, init_seed=2)
        report, errors = fit_group(spec, group, config, truths=truths)
        assert set(errors) == {1, 2}
        assert all(np.isfinite(v) for v in errors.values())
        assert report.final_mse < report.trace[0][1]


@pytest.mark.slow
class TestJointVersusTransfer:
    def test_joint_fit_not_better_than_transfer_at_equal_budget(self):
        # shared 4-way parameters trade per-user accuracy for report size, so
        # at the same per-user iteration budget the joint fit should land at
        # or above (worse than) the transfer-learning NMSE
        from importlib import resources

        from unn_csi.channel import load_scene
        from unn_csi.decoder import load_spec
        from unn_csi.transfer import TransferPlan, TransferStep, run_transfer

        scene = load_scene(str(resources.files("unn_csi").joinpath("scenes/street_canyon_desk.json")))
        spec = load_spec(str(resources.files("unn_csi").joinpath("specs/single_ue_desk.json")))
        gspec = load_spec(str(resources.files("unn_csi").joinpath("specs/group_desk.json")))
        ues = [2, 3, 4]
        gaps = []
        for seed_base in (0, 10, 20):
            truths = {u: synthesize(scene, u) for u in ues}
            targets = {u: preprocess(add_noise(truths[u], 20.0, seed_base + u)) for u in ues}
            cfg = FitConfig(1500, 2e-3, trace_every=500, init_seed=1 + seed_base)
            plan = TransferPlan(base=3, chain=(TransferStep(2, 3), TransferStep(4, 3)))
            results = run_transfer(plan, spec, targets, truths, cfg)
            tl_mean = np.mean([results[u].nmse_db for u in ues])
            group = build_group([targets[u] for u in ues], ues)
            _, joint = fit_group(gspec, group, cfg, truths=truths)
            gaps.append(np.mean([joint[u] for u in ues]) - tl_mean)
        # non-strict ordering: comparable means within a dB
        assert np.mean(gaps) >= -1.0
