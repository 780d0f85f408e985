import json
import sys
import threading
from importlib import resources

import numpy as np
import pytest

from unn_csi import decoder
from unn_csi.decoder import (
    ParamSet,
    SeedRule,
    batch_norm,
    compression_ratio,
    forward,
    generate_seed,
    init_params,
    load_spec,
    param_count,
    params_from_vector,
    params_to_vector,
    spec_from_json,
    spec_to_json,
    splitmix64,
)

from conftest import make_spec
from oracles import loop_forward, splitmix64_reference


FULL_SINGLE = make_spec((4, 4), (64,) * 6 + (72,), 4, 1, ((True, True),) * 4, seed=1, a=0.15)
FULL_GROUP_A = make_spec((4, 4, 3), (64,) * 6 + (72,), 4, 1, ((True, True, False),) * 4, seed=1, a=0.15)
FULL_GROUP_B = make_spec((4, 4, 3), (64,) * 7 + (72,), 4, 2, ((True, True, False),) * 4, seed=1, a=0.15)

# float32 batch-norm tolerance on O(1) outputs: a few hundred float32 ulps
F32_BN_TOL = 1e-5
# the same for 12,288-position columns (group_full_a's last layers). Their
# float32 sums add 3x as many rows as 64x64 positions do, and the rounding
# grows with them: the parent code and the einsum means both read 0.3-2.6e-5
# on seeds 0-5 of the tests below, so this is 2x the worst seen
F32_BN_TOL_LONG = 5e-5


def offset_filters(rng, shape):
    """Float32 filters with a large common offset and a small spread, where
    E[x**2] - mu**2 loses every significant digit of the variance."""
    return (1e3 + rng.uniform(0.0, 1e-2, shape)).astype(np.float32)


class TestSplitMix:
    def test_matches_reference_implementation(self):
        for seed in (0, 1, 1234567, 2**64 - 1):
            got = splitmix64(seed, 8).tolist()
            assert got == splitmix64_reference(seed, 8)

    def test_stream_extension_is_consistent(self):
        assert splitmix64(99, 16)[:4].tolist() == splitmix64(99, 4).tolist()


class TestGenerateSeed:
    def test_zero_half_range(self):
        z = generate_seed(SeedRule(5, 0.0), (3, 3, 2))
        assert np.array_equal(z, np.zeros((3, 3, 2)))

    def test_reference_bounds_and_statistics(self):
        z = generate_seed(SeedRule(20260810, 0.15), (4, 4, 64))
        assert z.size == 1024
        assert z.min() >= -0.15
        assert z.max() <= 0.15
        assert abs(z.mean()) < 0.02

    def test_deterministic(self):
        rule = SeedRule(77, 0.3)
        assert np.array_equal(generate_seed(rule, (2, 2, 4)), generate_seed(rule, (2, 2, 4)))

    def test_row_major_fill(self):
        rule = SeedRule(13, 1.0)
        flat = generate_seed(rule, (24,))
        assert np.array_equal(generate_seed(rule, (2, 3, 4)), flat.reshape(2, 3, 4))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            generate_seed(SeedRule(1, 0.1), (0, 2))

    @pytest.mark.parametrize("half_range", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_half_range(self, half_range):
        with pytest.raises(ValueError, match="half_range"):
            SeedRule(1, half_range)


class TestBatchNorm:
    def test_constant_slice_is_zeroed(self):
        x = np.full((4, 5, 3), 2.5)
        y = batch_norm(x, np.ones(3), np.zeros(3))
        assert np.array_equal(y, np.zeros_like(x))

    def test_two_point_hand_example(self):
        eps = 1e-5
        x = np.array([[-1.0], [1.0]])  # mean 0, population variance 1
        y = batch_norm(x, np.array([2.0]), np.array([3.0]), eps=eps)
        want = np.array([[3.0 - 2.0 / np.sqrt(1 + eps)], [3.0 + 2.0 / np.sqrt(1 + eps)]])
        assert np.allclose(y, want, rtol=0, atol=1e-12)
        assert np.allclose(y, [[1.0], [5.0]], atol=1e-4)

    def test_output_moments_match_affine_pair(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 7, 4)) * 3.0 + 1.0
        gamma = np.array([0.5, 1.0, 2.0, 1.5])
        beta = np.array([-1.0, 0.0, 2.0, 0.25])
        y = batch_norm(x, gamma, beta)
        flat = y.reshape(-1, 4)
        assert np.allclose(flat.mean(axis=0), beta, atol=1e-5)
        assert np.allclose(flat.var(axis=0), gamma**2, rtol=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            batch_norm(np.zeros((2, 3)), np.ones(2), np.zeros(2))

    def test_float32_large_offset_small_spread(self, shape=(64, 64, 8), seed=5, tol=F32_BN_TOL):
        k = shape[-1]
        rng = np.random.default_rng(seed)
        x = offset_filters(rng, shape)
        gamma = rng.uniform(0.5, 1.5, k)
        beta = rng.uniform(-0.5, 0.5, k)
        want = batch_norm(x.astype(np.float64), gamma, beta)
        got = batch_norm(x, gamma.astype(np.float32), beta.astype(np.float32))
        assert got.dtype == np.float32
        assert np.abs(got - want).max() < tol
        # the data is hard enough: the one-pass variance misses by far
        flat = x.reshape(-1, k)
        mu = flat.mean(axis=0)
        with np.errstate(invalid="ignore"):
            one_pass = (flat - mu) / np.sqrt((flat * flat).mean(axis=0) - mu * mu + np.float32(1e-5))
        err = np.abs(one_pass * gamma + beta - want.reshape(-1, k))
        assert not np.all(err < tol)

    def test_float32_large_offset_small_spread_below_the_row_product_bound(self):
        # 16x16 positions x 8 filters take their column reductions as BLAS
        # row products, 64x64 x 8 by einsum
        self.test_float32_large_offset_small_spread(shape=(16, 16, 8))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_large_offset_small_spread_above_the_blas_mean_bound(self, seed):
        # group_full_a's 64x64x3 positions x 64 filters: einsum takes the means
        self.test_float32_large_offset_small_spread((64, 64, 3, 64), seed, F32_BN_TOL_LONG)


class TestForward:
    def test_zero_kernels_give_zero_output(self, tiny_spec):
        params = init_params(tiny_spec, 1)
        for w in params.kernels:
            w[:] = 0.0
        y = forward(tiny_spec, params)
        assert np.array_equal(y, np.zeros(tiny_spec.output_dims, dtype=np.float32))

    def test_full_scale_spec_output_dims(self):
        assert FULL_SINGLE.output_dims == (64, 64, 72)
        assert FULL_SINGLE.seed_dims == (4, 4, 64)

    @pytest.mark.parametrize(
        "spec",
        [
            make_spec((2, 2), (2, 2, 2, 2), 2, 0, ((True, True), (True, False)), seed=3),
            make_spec((2, 3), (3, 4, 4, 2), 1, 1, ((False, True),), seed=4),
            make_spec((2, 2, 2), (2, 3, 3, 2), 1, 1, ((True, False, True),), seed=5),
        ],
    )
    def test_matches_loop_oracle(self, spec):
        params = init_params(spec, 11, dtype=np.float64)
        rng = np.random.default_rng(2)
        for g, b in zip(params.gammas, params.betas):
            g[:] = rng.uniform(0.5, 1.5, g.shape)
            b[:] = rng.uniform(-0.5, 0.5, b.shape)
        z0 = generate_seed(spec.seed_rule, spec.seed_dims)
        got32 = forward(spec, params, z0, dtype=np.float32)
        want = loop_forward(spec, params, z0)
        assert got32.shape == want.shape
        assert np.allclose(got32, want, atol=1e-5)
        got64 = forward(spec, params, z0, dtype=np.float64)
        assert np.allclose(got64, want, rtol=1e-10, atol=1e-12)

    def test_float32_folded_batch_norm_large_offset_small_spread(
        self, dims=(64, 64), k=8, seed=6, tol=F32_BN_TOL
    ):
        # identity first kernel: the batch norm sees the offset filters as
        # they are and is folded into the output kernel
        rng = np.random.default_rng(seed)
        spec = make_spec(dims, (k, k, 4), 1, 0, ((False,) * len(dims),))
        z0 = offset_filters(rng, spec.seed_dims)
        params = ParamSet(
            [np.eye(k), rng.uniform(-0.5, 0.5, (k, 4))],
            [rng.uniform(0.5, 1.5, k)],
            [rng.uniform(-0.5, 0.5, k)],
        )
        want = forward(spec, params, z0.astype(np.float64), dtype=np.float64)
        got = forward(spec, params, z0, dtype=np.float32)
        assert np.abs(got - want).max() < tol

    def test_float32_folded_batch_norm_large_offset_small_spread_below_the_row_product_bound(self):
        self.test_float32_folded_batch_norm_large_offset_small_spread(dims=(16, 16))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_folded_batch_norm_large_offset_small_spread_above_the_blas_mean_bound(self, seed):
        self.test_float32_folded_batch_norm_large_offset_small_spread((64, 64, 3), 64, seed, F32_BN_TOL_LONG)

    def test_output_in_open_tanh_range(self, tiny_spec):
        y = forward(tiny_spec, init_params(tiny_spec, 2))
        assert np.all(y > -1.0) and np.all(y < 1.0)

    @pytest.mark.parametrize(
        "input_dims,flags",
        [
            ((2, 2), ((True, True), (True, True))),
            ((3, 2), ((True, False), (False, True))),
            ((2, 2, 3), ((True, True, False), (False, True, False))),
        ],
    )
    def test_output_extents_follow_spec(self, input_dims, flags):
        widths = (2,) + (3,) * len(flags) + (3, 2)
        spec = make_spec(input_dims, widths, len(flags), 1, flags, seed=9)
        y = forward(spec, init_params(spec, 1))
        assert y.shape == spec.output_dims

    def test_bit_identical_across_calls(self, tiny_spec):
        params = init_params(tiny_spec, 5)
        a = forward(tiny_spec, params)
        b = forward(tiny_spec, params)
        assert np.array_equal(a, b)

    def test_cache_arrays_are_fresh_per_call(self, tiny_spec):
        # each call binds a workspace of its own: no output or activation is shared
        params = init_params(tiny_spec, 5)

        def activations():
            y, cache = forward(tiny_spec, params, return_cache=True)
            return [y] + [c["u"] for c in cache[:-1]] + [c["z_in"] for c in cache[1:]]

        first, second = activations(), activations()
        for a in first:
            for b in second:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.kernels.pop(), "layer count"),
            (lambda p: p.kernels.__setitem__(1, p.kernels[1][:-1]), "kernel 1 has shape"),
            (lambda p: p.gammas.__setitem__(0, p.gammas[0][:-1]), "batch-norm pair 0"),
            (lambda p: p.betas.__setitem__(1, p.betas[1][None]), "batch-norm pair 1"),
        ],
        ids=["missing-layer", "kernel-shape", "gamma", "beta"],
    )
    def test_rejects_mismatched_params(self, tiny_spec, edit, message):
        params = init_params(tiny_spec, 1)
        edit(params)
        with pytest.raises(ValueError, match=message):
            forward(tiny_spec, params)

    def test_rejects_wrong_seed_shape(self, tiny_spec):
        params = init_params(tiny_spec, 1)
        with pytest.raises(ValueError):
            forward(tiny_spec, params, z0=np.zeros((9, 9, 3)))


def packaged_spec(name):
    return load_spec(str(resources.files("unn_csi").joinpath(f"specs/{name}.json")))


def fresh_forward(spec, params):
    """The forward pass on a workspace built for this call alone."""
    return decoder._forward(decoder._Workspace(spec, decoder._seed(spec, None, np.float32), params))


class TestForwardReuse:
    @pytest.mark.parametrize("name", ["single_ue_desk", "group_desk"])
    def test_reused_workspace_matches_a_fresh_one(self, name):
        spec = packaged_spec(name)
        first_params, second_params = init_params(spec, 1), init_params(spec, 2)
        first = forward(spec, first_params)
        first_kept = first.copy()
        spare = decoder._spare[1]
        second = forward(spec, second_params)
        assert decoder._spare[1] is spare  # the second call ran on the first one's workspace
        assert np.array_equal(first, fresh_forward(spec, first_params))
        assert np.array_equal(second, fresh_forward(spec, second_params))
        assert not np.array_equal(first, second)
        assert np.array_equal(first, first_kept)  # the second call left the first output alone

    def test_alternating_specs_match_fresh_passes(self):
        specs = [packaged_spec("single_ue_desk"), packaged_spec("group_desk")]
        for i in range(4):
            spec, params = specs[i % 2], init_params(specs[i % 2], i)
            assert np.array_equal(forward(spec, params), fresh_forward(spec, params))
            assert decoder._spare[0][0] == spec

    def test_concurrent_calls_match_serial_ones(self):
        spec = packaged_spec("single_ue_desk")
        param_sets = [init_params(spec, seed) for seed in range(5)]
        want = [forward(spec, params) for params in param_sets]
        got = {t: [] for t in range(4)}

        def calls(t):
            for i in range(50):
                j = (t + i) % len(param_sets)
                got[t].append((j, forward(spec, param_sets[j])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=calls, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for t in range(4):
            assert len(got[t]) == 50
            for j, y in got[t]:
                assert np.array_equal(y, want[j])

    def test_large_spec_leaves_the_slot_alone(self):
        desk = packaged_spec("single_ue_desk")
        forward(desk, init_params(desk, 1))
        before = decoder._spare
        full = packaged_spec("single_ue_full")
        params = init_params(full, 1)
        y = forward(full, params)
        assert decoder._spare is before
        assert np.array_equal(y, fresh_forward(full, params))


class TestParamCount:
    def test_full_scale_single_ue(self):
        assert param_count(FULL_SINGLE) == 25728

    def test_full_scale_group_specs(self):
        assert param_count(FULL_GROUP_A) == 25728
        assert param_count(FULL_GROUP_B) == 29952

    def test_single_layer_with_bn(self):
        spec = make_spec((2,), (1, 1, 1), 1, 0, ((False,),))
        assert param_count(spec) == 1 * 1 + 2 * 1 + 1 * 1  # two kernels + one BN pair

    def test_minimal_bn_pair_arithmetic(self):
        # one BN'd kernel of 1x1 plus gamma and beta
        spec = make_spec((2,), (1, 1, 1), 1, 0, ((False,),))
        kernels = sum(spec.widths[l] * spec.widths[l + 1] for l in range(2))
        assert param_count(spec) - kernels == 2

    def test_full_scale_compression_ratios(self):
        assert abs(compression_ratio(FULL_SINGLE) - 0.1745) < 1e-4
        assert abs(compression_ratio(FULL_GROUP_A) - 0.0582) < 1e-4
        assert abs(compression_ratio(FULL_GROUP_B) - 0.0677) < 1e-4


class TestSpecValidation:
    def test_widths_length_enforced(self):
        with pytest.raises(ValueError):
            make_spec((2, 2), (2, 2, 2), 2, 1, ((True, True), (True, True)))

    def test_flag_rows_enforced(self):
        with pytest.raises(ValueError):
            make_spec((2, 2), (2, 2, 2, 2), 2, 0, ((True, True),))

    def test_flag_width_enforced(self):
        with pytest.raises(ValueError):
            make_spec((2, 2), (2, 2, 2), 1, 0, ((True,),))

    def test_json_round_trip(self, tiny_spec):
        again = spec_from_json(spec_to_json(tiny_spec))
        assert again == tiny_spec
        # canonical form: stable under re-serialization
        assert spec_to_json(again) == spec_to_json(tiny_spec)
        json.loads(spec_to_json(tiny_spec))


    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d.pop("widths"), "'widths'"),
            (lambda d: d.update(widths=16), "'widths'"),
            (lambda d: d.update(input_dims=["a", 2]), "'input_dims'"),
            (lambda d: d.update(inner_count=None), "'inner_count'"),
            (lambda d: d.update(inner_count=2.5), "'inner_count'"),
            (lambda d: d.pop("preoutput_count"), "'preoutput_count'"),
            (lambda d: d.update(upsample_flags="TT"), "'upsample_flags'"),
            (lambda d: d.update(upsample_flags=[True, True]), "'upsample_flags'"),
            (lambda d: d.update(upsample_flags=[[1, 1], [1, 1]]), "'upsample_flags'"),
            (lambda d: d.update(seed_rule=7), "'seed_rule'"),
            (lambda d: d["seed_rule"].pop("seed"), "'seed_rule.seed'"),
            (lambda d: d["seed_rule"].update(half_range="wide"), "'seed_rule.half_range'"),
            (lambda d: d["seed_rule"].update(half_range=float("inf")), "'seed_rule.half_range'"),
        ],
    )
    def test_json_missing_or_mistyped_field_is_named(self, tiny_spec, edit, field):
        doc = json.loads(spec_to_json(tiny_spec))
        edit(doc)
        with pytest.raises(ValueError, match=field):
            spec_from_json(json.dumps(doc))

    def test_json_must_be_an_object(self):
        with pytest.raises(ValueError, match="object"):
            spec_from_json("[1, 2]")


class TestParamVector:
    def test_round_trip(self, tiny_spec):
        params = init_params(tiny_spec, 8)
        vec = params_to_vector(params)
        assert vec.size == param_count(tiny_spec)
        again = params_from_vector(tiny_spec, vec)
        for a, b in zip(params.arrays(), again.arrays()):
            assert np.array_equal(a, b)

    def test_canonical_order_is_layer_ascending(self, tiny_spec):
        params = init_params(tiny_spec, 8)
        vec = params_to_vector(params)
        k0, k1 = tiny_spec.widths[0], tiny_spec.widths[1]
        assert np.array_equal(vec[: k0 * k1], params.kernels[0].ravel())
        assert np.array_equal(vec[k0 * k1 : k0 * k1 + k1], params.gammas[0])

    def test_wrong_length_rejected(self, tiny_spec):
        with pytest.raises(ValueError):
            params_from_vector(tiny_spec, np.zeros(3))


class TestSeedSensitivity:
    def test_foreign_seed_tensor_breaks_the_fit(self):
        # fitted weights only decode against the seed tensor they were fitted
        # with; a different seed number must degrade the training-target NMSE
        # by at least 10 dB
        from importlib import resources

        from unn_csi.channel import add_noise, load_scene, preprocess, synthesize
        from unn_csi.decoder import load_spec
        from unn_csi.fitting import FitConfig, fit

        scene = load_scene(str(resources.files("unn_csi").joinpath("scenes/street_canyon_desk.json")))
        spec = load_spec(str(resources.files("unn_csi").joinpath("specs/single_ue_desk.json")))
        target = preprocess(add_noise(synthesize(scene, 3), 20.0, 0))
        report = fit(spec, None, target, FitConfig(1000, 2e-3, trace_every=500, init_seed=1))

        fitted = forward(spec, report.params)
        foreign = forward(
            spec, report.params, generate_seed(SeedRule(999, spec.seed_rule.half_range), spec.seed_dims)
        )
        t = target.data.astype(np.float32)

        def target_nmse_db(y):
            return 10 * np.log10(float(np.sum((y - t) ** 2)) / float(np.sum(t**2)))

        assert target_nmse_db(foreign) - target_nmse_db(fitted) >= 10.0
