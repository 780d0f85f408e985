import json
import sys
import threading
from dataclasses import replace
from importlib import resources
from math import prod

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
    param_views,
    params_to_vector,
    spec_from_json,
    spec_to_json,
    splitmix64,
)

from conftest import make_spec
from oracles import loop_forward, loop_upsampler, splitmix64_reference


FULL_SINGLE = make_spec((4, 4), (64,) * 6 + (72,), ((True, True),) * 4, seed=1, a=0.15)
FULL_GROUP_A = make_spec((4, 4, 3), (64,) * 6 + (72,), ((True, True, False),) * 4, seed=1, a=0.15)
FULL_GROUP_B = make_spec((4, 4, 3), (64,) * 7 + (72,), ((True, True, False),) * 4, seed=1, a=0.15)

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
    @pytest.mark.parametrize("half_range", [0.0, -0.0])
    def test_zero_half_range(self, half_range):
        # the seed tensor would be all zeros, so every fit would see one input
        with pytest.raises(ValueError, match="^half_range must be finite and > 0$"):
            SeedRule(5, half_range)

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
            make_spec((2, 2), (2, 2, 2, 2), ((True, True), (True, False)), seed=3),
            make_spec((2, 3), (3, 4, 4, 2), ((False, True),), seed=4),
            make_spec((2, 2, 2), (2, 3, 3, 2), ((True, False, True),), seed=5),
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
        spec = make_spec(dims, (k, k, 4), ((False,) * len(dims),))
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
        spec = make_spec(input_dims, widths, flags, seed=9)
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
    F32 = np.dtype(np.float32)

    @pytest.fixture(autouse=True)
    def no_kept_workspaces(self):
        decoder._kept.cache_clear()
        yield
        decoder._kept.cache_clear()

    @pytest.fixture
    def builds(self, monkeypatch):
        """A list that gets one entry per _Workspace built from here on."""
        built = []

        class Counted(decoder._Workspace):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(decoder, "_Workspace", Counted)
        return built

    @pytest.mark.parametrize("name", ["single_ue_desk", "group_desk"])
    def test_reused_workspace_matches_a_fresh_one(self, name):
        spec = packaged_spec(name)
        first_params, second_params = init_params(spec, 1), init_params(spec, 2)
        first = forward(spec, first_params)
        first_kept = first.copy()
        (kept,) = decoder._kept(spec, self.F32)
        second = forward(spec, second_params)
        assert decoder._kept(spec, self.F32) == [kept]  # the second call ran on the first one's workspace
        assert np.array_equal(first, fresh_forward(spec, first_params))
        assert np.array_equal(second, fresh_forward(spec, second_params))
        assert not np.array_equal(first, second)
        assert np.array_equal(first, first_kept)  # the second call left the first output alone

    def test_alternating_specs_build_one_workspace_each(self, builds):
        specs = [packaged_spec("single_ue_desk"), packaged_spec("group_desk")]
        calls = [(specs[i % 2], init_params(specs[i % 2], i)) for i in range(8)]
        want = [fresh_forward(spec, params) for spec, params in calls]
        builds.clear()
        for (spec, params), y in zip(calls, want):
            assert np.array_equal(forward(spec, params), y)
        assert len(builds) == 2

    def test_the_least_recently_used_spec_goes_first(self, builds):
        # seed-rule variants of the desk spec: one kept workspace each
        desk = packaged_spec("single_ue_desk")
        specs = [replace(desk, seed_rule=SeedRule(i, 0.15)) for i in range(decoder._KEPT_SPECS + 1)]
        params = init_params(desk, 1)
        want = [fresh_forward(spec, params) for spec in specs]
        builds.clear()

        def built(order):
            """The workspaces built over a forward of each spec in `order`."""
            before = len(builds)
            for i in order:
                assert np.array_equal(forward(specs[i], params), want[i])
            return len(builds) - before

        assert built(range(decoder._KEPT_SPECS)) == decoder._KEPT_SPECS
        assert built([0]) == 0
        assert built([decoder._KEPT_SPECS]) == 1  # drops specs[1], the least recently used
        assert built([0, *range(2, decoder._KEPT_SPECS + 1)]) == 0
        assert built([1]) == 1

    def test_concurrent_calls_match_serial_ones(self):
        specs = [packaged_spec("single_ue_desk"), packaged_spec("group_desk")]
        calls = [(specs[seed % 2], init_params(specs[seed % 2], seed)) for seed in range(6)]
        want = [fresh_forward(spec, params) for spec, params in calls]
        got = {t: [] for t in range(4)}

        def run(t):
            for i in range(50):
                j = (t + i) % len(calls)
                got[t].append((j, forward(*calls[j])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
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

    def test_the_output_is_copied_before_the_workspace_goes_back(self, monkeypatch):
        # a call on the same spec as soon as the workspace is back must not
        # reach the output the first call returns
        spec = packaged_spec("single_ue_desk")
        params, other = init_params(spec, 1), init_params(spec, 2)
        want, other_want = fresh_forward(spec, params), fresh_forward(spec, other)
        nested = []

        class Hooked(list):
            armed = False

            def append(self, ws):
                super().append(ws)
                if self.armed:  # once: the nested call runs on ws and puts it back
                    self.armed = False
                    nested.append(forward(spec, other))

        kept = Hooked()
        monkeypatch.setattr(decoder, "_kept", lambda s, dtype: kept)
        forward(spec, params)  # leaves a workspace for the next call to run on
        kept.armed = True
        assert np.array_equal(forward(spec, params), want)
        assert len(nested) == 1 and np.array_equal(nested[0], other_want)

    def test_large_spec_keeps_nothing(self):
        desk = packaged_spec("single_ue_desk")
        forward(desk, init_params(desk, 1))
        (before,) = decoder._kept(desk, self.F32)
        full = packaged_spec("single_ue_full")
        params = init_params(full, 1)
        y = forward(full, params)
        assert decoder._kept(full, self.F32) == []
        assert decoder._kept(desk, self.F32) == [before]
        assert np.array_equal(y, fresh_forward(full, params))


def _packaged_upsamplings():
    """(pre, n, post) of every upsampling of the packaged specs: the
    entries before its axis, its source extent and the entries after it."""
    found = set()
    for path in resources.files("unn_csi").joinpath("specs").iterdir():
        for plan, shapes in decoder._step_shapes(load_spec(str(path))):
            for (ax, n), shape in zip(plan, shapes):
                found.add((prod(shape[:ax]), n, prod(shape[ax + 1 :])))
    return sorted(found)


class TestBandedUpsampling:
    """An upsampling runs as the steps of its band plan: each output entry
    is the dense product's sum of the same taps in the same order, with the
    zero-weight terms left out. Whether BLAS then rounds it as the dense
    product does depends on the shape."""

    PACKAGED = _packaged_upsamplings()
    # (pre, post) pairs of packaged specs, and row lengths at which float32
    # forward products differ from the dense ones from n = 32 on
    SHAPES = [(1, 64), (32, 192), (64, 64), (1, 6144), (2, 6), (3, 7), (1, 8), (5, 24), (2, 200), (1, 1)]

    @staticmethod
    def banded(n, dtype, transposed, x):
        """The upsampler of source extent n (its transpose if `transposed`)
        and its product with x, (pre, rows, post), by the band steps, into
        a destination filled with NaN first; also the entries the steps'
        destinations hold between them."""
        op = loop_upsampler(n).astype(dtype)
        op = op.T if transposed else op
        out = np.full((x.shape[0], op.shape[0], x.shape[2]), np.nan, dtype)
        steps = decoder._upsampling_steps(n, np.dtype(dtype), transposed, x, out)
        for step_op, src, dst in steps:
            np.matmul(step_op, src, out=dst)
        return op, out, sum(dst.size for _, _, dst in steps)

    def test_packaged_specs_upsample_at_every_extent_checked(self):
        assert {n for _, n, _ in self.PACKAGED} == {2, 4, 8, 16, 32}
        assert {(pre, post) for pre, _, post in self.PACKAGED} >= set(self.SHAPES[:4])

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_packaged_shapes_give_the_dense_bytes(self, dtype, transposed):
        rng = np.random.default_rng(91)
        for pre, n, post in self.PACKAGED:
            x = rng.standard_normal((pre, 2 * n if transposed else n, post)).astype(dtype)
            op, got, written = self.banded(n, dtype, transposed, x)
            assert written == got.size
            assert got.tobytes() == np.matmul(op, x).tobytes(), (pre, n, post)

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_entry_is_written_once_within_four_taps_of_the_dense_product(self, dtype, transposed):
        rng = np.random.default_rng(92)
        eps = np.finfo(dtype).eps
        for n in range(1, 71):
            for pre, post in self.SHAPES:
                x = rng.standard_normal((pre, 2 * n if transposed else n, post)).astype(dtype)
                op, got, written = self.banded(n, dtype, transposed, x)
                assert written == got.size and not np.isnan(got).any(), (n, pre, post)
                # a sum of at most four taps, in each of the two products
                bound = 4 * eps * np.matmul(np.abs(op), np.abs(x))
                assert (np.abs(got - np.matmul(op, x)) <= bound).all(), (n, pre, post)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_operators_too_short_to_band_are_one_dense_block(self, n):
        # every upsampler of the desk specs: their passes keep the dense matmul
        for transposed in (False, True):
            ((op, first, lo, count, step),) = decoder._bands(n, np.dtype(np.float32), transposed)
            want = loop_upsampler(n).astype(np.float32)
            assert np.array_equal(op, want.T if transposed else want)
            assert (first, lo, count, step) == (0, 0, 1, 0)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_interior_blocks_run_as_one_stacked_step(self, transposed):
        plan = decoder._bands(32, np.dtype(np.float32), transposed)
        assert [count for *_, count, _ in plan] == [1, 6, 1]
        x = np.zeros((1, 64 if transposed else 32, 64), np.float32)
        out = np.empty((1, 32 if transposed else 64, 64), np.float32)
        _, src, _ = decoder._upsampling_steps(32, np.dtype(np.float32), transposed, x, out)[1]
        assert np.shares_memory(src, x) and not src.flags.writeable


class TestTiledBroadcast:
    """A row broadcast over the wide view of :func:`decoder._tile` gives the
    plain broadcast's bytes and writes every entry, whatever the matrix."""

    ROWS = sorted(
        {1, 3, 5, 63, 65, 127, 129, 255, 767, 1099}
        | {2**j for j in range(1, 11)}
        | {3 * 2**j for j in range(9)}
    )
    FILTERS = [1, 8, 16, 64, 72]

    @staticmethod
    def broadcasts(m, row, block):
        """The three forms the passes use, each over the wide views of `m`:
        subtract in place, multiply into another array (NaN-filled first)
        and add in place."""
        wide, tile = decoder._tile(m, block)
        subtracted, multiplied, added = m.copy(), np.full_like(m, np.nan), m.copy()
        view = decoder._tile(subtracted, block)[0]
        view -= decoder._tiled(row, tile)
        np.multiply(wide, decoder._tiled(row, tile), out=decoder._tile(multiplied, block)[0])
        view = decoder._tile(added, block)[0]
        view += decoder._tiled(row, tile)
        return subtracted, multiplied, added

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_tiled_broadcasts_give_the_plain_bytes(self, lead, dtype):
        rng = np.random.default_rng(94)
        for n in self.ROWS:
            for k in self.FILTERS:
                m = rng.standard_normal(lead + (n, k)).astype(dtype)
                row = rng.standard_normal(lead + (1, k)).astype(dtype)
                block = np.full(lead + (decoder._TILE_ROWS * k,), np.nan, dtype)
                got = self.broadcasts(m, row, block)
                for form, g, want in zip(("subtract", "multiply", "add"), got, (m - row, m * row, m + row)):
                    assert g.tobytes() == want.tobytes(), (form, n, k)

    @pytest.mark.parametrize(
        "n, k, alone, batched",
        [
            (48, 16, None, None),  # below _TILE_MIN_ROWS
            (65, 16, None, None),  # odd
            (64, 16, None, 8),  # a matrix alone needs twice _TILE_MIN_ROWS
            (128, 16, 8, 8),
            (192, 16, 8, 8),
            (256, 16, 16, 16),
            (768, 8, 16, 16),
            (1024, 16, 32, 32),
            (256, 64, 16, 16),  # 16,384 entries: single_ue_full's third layer
            (1024, 64, 128, 128),  # above _ROW_PRODUCT_ENTRIES
            (12288, 64, 128, 128),
            (24, 1024, 8, 8),  # above it, with fewer rows than _TILE_MIN_ROWS
        ],
    )
    def test_tile_height_follows_the_matrix_size_and_the_batch(self, n, k, alone, batched):
        for lead, rows in (((), alone), ((3,), batched)):
            block = np.empty(lead + (decoder._TILE_ROWS * k,), np.float32)
            m = np.zeros(lead + (n, k), np.float32)
            wide, tile = decoder._tile(m, block)
            if rows is None:
                assert tile is None and wide is m
            else:
                assert tile[0].shape == lead + (rows, k) and wide.shape == lead + (n // rows, rows * k)
                assert np.shares_memory(wide, m) and np.shares_memory(tile[1], block)


class TestParamCount:
    def test_full_scale_single_ue(self):
        assert param_count(FULL_SINGLE) == 25728

    def test_full_scale_group_specs(self):
        assert param_count(FULL_GROUP_A) == 25728
        assert param_count(FULL_GROUP_B) == 29952

    def test_single_layer_with_bn(self):
        spec = make_spec((2,), (1, 1, 1), ((False,),))
        assert param_count(spec) == 1 * 1 + 2 * 1 + 1 * 1  # two kernels + one BN pair

    def test_minimal_bn_pair_arithmetic(self):
        # one BN'd kernel of 1x1 plus gamma and beta
        spec = make_spec((2,), (1, 1, 1), ((False,),))
        kernels = sum(spec.widths[l] * spec.widths[l + 1] for l in range(2))
        assert param_count(spec) - kernels == 2

    def test_full_scale_compression_ratios(self):
        assert abs(compression_ratio(FULL_SINGLE) - 0.1745) < 1e-4
        assert abs(compression_ratio(FULL_GROUP_A) - 0.0582) < 1e-4
        assert abs(compression_ratio(FULL_GROUP_B) - 0.0677) < 1e-4


class TestSpecValidation:
    def test_widths_length_enforced(self):
        with pytest.raises(ValueError):
            make_spec((2, 2), (2, 2, 2), ((True, True), (True, True)))

    def test_flag_rows_enforced(self):
        # the flag rows are the inner layers, and a decoder needs one
        with pytest.raises(ValueError, match="need at least one inner layer"):
            make_spec((2, 2), (2, 2, 2, 2), ())

    @pytest.mark.parametrize(
        "widths, flags, inner, preoutput",
        [
            ((2, 2, 2), ((True, True),), 1, 0),
            ((2, 2, 2, 2), ((True, True),), 1, 1),
            ((2,) * 6, ((True, True),) * 3, 3, 1),
        ],
    )
    def test_layer_counts_follow_the_lists(self, widths, flags, inner, preoutput):
        spec = make_spec((2, 2), widths, flags)
        assert (spec.inner_count, spec.n_layers) == (inner, inner + preoutput + 1)
        assert len(init_params(spec, 1).gammas) == inner + preoutput

    def test_flag_width_enforced(self):
        with pytest.raises(ValueError):
            make_spec((2, 2), (2, 2, 2), ((True,),))

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

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d.update(inner_count=2), "inner_count"),
            (lambda d: d.update(preoutput_count=1), "preoutput_count"),
            (lambda d: d.update(Widths=[1]), "Widths"),
            (lambda d: d["seed_rule"].update(halfrange=0.5), "seed_rule.halfrange"),
        ],
    )
    def test_json_unknown_field_is_named(self, tiny_spec, edit, field):
        # spec files and report headers share this rule
        doc = json.loads(spec_to_json(tiny_spec))
        edit(doc)
        with pytest.raises(ValueError, match=f"^decoder spec: unknown field '{field}'$"):
            spec_from_json(json.dumps(doc))

    def test_json_repeated_key_is_named(self, tiny_spec):
        # Python's JSON parser keeps the last of two values, so the first
        # seed was dropped without a word
        text = spec_to_json(tiny_spec)
        assert text.count('"seed":') == 1
        with pytest.raises(ValueError, match="^decoder spec: repeated field 'seed'$"):
            spec_from_json(text.replace('"seed":', '"seed":12,"seed":'))

    def test_json_nested_too_deep(self):
        with pytest.raises(ValueError, match="^decoder spec: JSON nested too deep$"):
            spec_from_json("[" * 100_000 + "]" * 100_000)

    def test_json_must_be_an_object(self):
        with pytest.raises(ValueError, match="object"):
            spec_from_json("[1, 2]")


class TestParamVector:
    def test_round_trip(self, tiny_spec):
        params = init_params(tiny_spec, 8)
        vec = params_to_vector(params)
        assert vec.size == param_count(tiny_spec)
        again = param_views(tiny_spec, vec.copy())
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
            param_views(tiny_spec, np.zeros(3))


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
