import gc
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import unn_csi
from unn_csi import fitting
from unn_csi.decoder import (
    _forward,
    _seed,
    _step_shapes,
    _Workspace,
    forward,
    generate_seed,
    init_params,
    load_spec,
    param_count,
    param_views,
    params_to_vector,
)
from unn_csi.channel import add_noise, load_scene, preprocess, synthesize
from unn_csi.codec import encode
from unn_csi.tensors import make_upsampler, mode_product
from unn_csi.fitting import (
    FitConfig,
    FitDivergedError,
    _loss_and_grad,
    batch_size,
    fit,
    fit_batch,
    gradient,
    loss,
)

from conftest import gradcheck_point, make_spec
from oracles import inplace_loss_and_grad, loop_forward, loop_mse

GRADCHECK_CONFIGS = {
    "3way-ups-all": make_spec((2, 3), (3, 4, 4, 4, 2), ((True, True), (True, True)), seed=42),
    "3way-ups-partial": make_spec((2, 3), (3, 4, 4, 4, 2), ((True, False), (False, True)), seed=43),
    "3way-no-ups": make_spec((3, 3), (3, 4, 4, 2), ((False, False),), seed=44),
    "3way-2preout": make_spec((2, 2), (3, 4, 4, 4, 4, 2), ((True, True),), seed=45),
    "4way-ups-TTF": make_spec((2, 2, 3), (3, 4, 4, 4, 2), ((True, True, False),) * 2, seed=46),
    "4way-ups-TFT": make_spec((2, 3, 2), (3, 4, 4, 2), ((True, False, True),), seed=47),
    "4way-all-on": make_spec((2, 2, 2), (2, 3, 3, 3, 2), ((True, True, True),) * 2, seed=48),
    # its matrices straddle the size bound of the BLAS row-product
    # reductions: layer 0's ReLU output (64x64 positions x 3) sits below it,
    # layer 1's ReLU output and the output layer's gradient (64x64 x 5)
    # above; the other configs put every output gradient below it
    "3way-straddle": make_spec((32, 32), (2, 3, 5, 5), ((True, True),), seed=49),
}

# 64x64x3 positions x 48 filters (589,824 entries) in both batch-norm layers:
# above 2^19 entries per matrix, where einsum takes the column means, and
# above the row-product bound everywhere but layer 0's kernel product; too
# large for a central-difference check of every coordinate
ABOVE_BLAS_MEAN = make_spec((32, 32, 3), (2, 48, 48, 2), ((True, True, False),), seed=50)


def central_difference_check(spec, params, z0, target, h=1e-3, loss_fn=None, sample=None):
    """Worst per-coordinate relative error between reverse-mode gradients and
    64-bit central finite differences of the loss, over every coordinate,
    or over `sample` random ones of each parameter array."""
    if loss_fn is None:
        loss_fn = lambda: loss(spec, params, z0, target, dtype=np.float64)
    grads = gradient(spec, params, z0, target, dtype=np.float64)
    rng = np.random.default_rng(80)
    worst = 0.0
    for arr, garr in zip(params.arrays(), grads.arrays()):
        flat = arr.ravel()
        gflat = np.asarray(garr).ravel()
        for i in range(flat.size) if sample is None else rng.choice(flat.size, sample, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8))
    return worst


class TestLoss:
    def test_zero_at_exact_target(self, tiny_spec):
        params = init_params(tiny_spec, 1, dtype=np.float64)
        target = forward(tiny_spec, params, dtype=np.float64)
        assert loss(tiny_spec, params, None, target, dtype=np.float64) == 0.0

    def test_constant_half_target(self, tiny_spec):
        params = init_params(tiny_spec, 1)
        for w in params.kernels:
            w[:] = 0.0
        target = np.full(tiny_spec.output_dims, 0.5, dtype=np.float32)
        assert loss(tiny_spec, params, None, target) == pytest.approx(0.25, abs=1e-9)

    def test_matches_loop_oracle(self, tiny_spec):
        params = init_params(tiny_spec, 3, dtype=np.float64)
        z0 = generate_seed(tiny_spec.seed_rule, tiny_spec.seed_dims)
        rng = np.random.default_rng(0)
        target = rng.uniform(-0.5, 0.5, tiny_spec.output_dims)
        got = loss(tiny_spec, params, z0, target, dtype=np.float64)
        want = loop_mse(loop_forward(tiny_spec, params, z0), target)
        assert abs(got - want) < 1e-7 * max(want, 1e-12)

    def test_loss_equals_mse_of_forward(self, tiny_spec):
        params = init_params(tiny_spec, 4)
        rng = np.random.default_rng(1)
        target = rng.uniform(-0.5, 0.5, tiny_spec.output_dims).astype(np.float32)
        got = loss(tiny_spec, params, None, target)
        y = forward(tiny_spec, params)
        assert got == float(np.mean((y - target) ** 2, dtype=np.float64))

    def test_shape_mismatch(self, tiny_spec):
        with pytest.raises(ValueError):
            loss(tiny_spec, init_params(tiny_spec, 1), None, np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("fn", [loss, gradient])
    def test_shape_checked_before_forward(self, tiny_spec, fn):
        # no parameters: a forward pass would fail with another error
        with pytest.raises(ValueError, match=r"target \(2, 2, 2\) does not match decoder output \(8, 12, 2\)"):
            fn(tiny_spec, None, None, np.zeros((2, 2, 2)))


class TestGradient:
    def test_zero_gradient_at_optimum(self, tiny_spec):
        params = init_params(tiny_spec, 1, dtype=np.float64)
        target = forward(tiny_spec, params, dtype=np.float64)
        grads = gradient(tiny_spec, params, None, target)
        for g in grads.arrays():
            assert np.array_equal(np.asarray(g), np.zeros_like(g))

    @pytest.mark.parametrize("name", sorted(GRADCHECK_CONFIGS))
    def test_matches_central_differences(self, name):
        spec = GRADCHECK_CONFIGS[name]
        params, z0 = gradcheck_point(spec, seed=1)
        rng = np.random.default_rng(77)
        target = rng.uniform(-0.8, 0.8, spec.output_dims)
        worst = central_difference_check(spec, params, z0, target, h=1e-3)
        assert worst < 1e-4, f"{name}: worst relative error {worst:.2e}"

    def test_matches_oracle_finite_differences_at_random_point(self):
        # independent straight-loop forward differentiated numerically at a
        # random (mixed-sign) point; small h keeps clear of ReLU kinks
        spec = make_spec((2, 2), (2, 2, 1), ((False, True),), seed=5)
        z0 = generate_seed(spec.seed_rule, spec.seed_dims)
        params = init_params(spec, 9, dtype=np.float64)
        rng = np.random.default_rng(3)
        target = rng.uniform(-0.5, 0.5, spec.output_dims)

        def oracle_loss():
            return loop_mse(loop_forward(spec, params, z0), target)

        worst = central_difference_check(spec, params, z0, target, h=1e-6, loss_fn=oracle_loss)
        assert worst < 1e-6

    def test_matches_central_differences_above_the_blas_mean_bound(self):
        spec = ABOVE_BLAS_MEAN
        params, z0 = gradcheck_point(spec, seed=1)
        target = np.random.default_rng(77).uniform(-0.8, 0.8, spec.output_dims)
        worst = central_difference_check(spec, params, z0, target, h=1e-3, sample=3)
        assert worst < 1e-4, f"worst relative error {worst:.2e}"

    @pytest.mark.parametrize("name", ["single_ue_desk", "group_desk"])
    def test_float32_matches_float64_at_shipped_desk_shapes(self, name):
        # real extents exercise the batched upsampling matmuls and the 4-way
        # layout; tolerance is float32 rounding grown over the layer stack
        spec = load_spec(str(resources.files("unn_csi").joinpath(f"specs/{name}.json")))
        params = init_params(spec, 1)
        z0 = generate_seed(spec.seed_rule, spec.seed_dims)
        target = np.random.default_rng(4).uniform(-0.9, 0.9, spec.output_dims)
        g32 = gradient(spec, params, z0, target, dtype=np.float32)
        g64 = gradient(spec, params, z0, target, dtype=np.float64)
        for a32, a64 in zip(g32.arrays(), g64.arrays()):
            assert a32.dtype == np.float32
            assert np.abs(a32 - a64).max() <= 1e-4 * np.abs(a64).max()

    def test_dead_kernel_column_gets_zero_gradient(self):
        spec = make_spec((2, 3), (3, 4, 4, 2), ((True, True),), seed=6)
        params = init_params(spec, 2, dtype=np.float64)
        z0 = np.abs(generate_seed(spec.seed_rule, spec.seed_dims)) + 0.1
        params.kernels[0][:, 1] = -1.0  # all pre-activations of filter 1 negative
        rng = np.random.default_rng(4)
        target = rng.uniform(-0.5, 0.5, spec.output_dims)
        grads = gradient(spec, params, z0, target)
        assert np.array_equal(grads.kernels[0][:, 1], np.zeros(3))
        assert grads.gammas[0][1] == 0.0


class TestFit:
    def test_single_step_bounded_by_learning_rate(self, tiny_spec):
        lr = 5e-3
        cfg = FitConfig(iterations=1, learning_rate=lr, trace_every=1, init_seed=1)
        init = init_params(tiny_spec, 1)
        rng = np.random.default_rng(5)
        target = rng.uniform(-0.5, 0.5, tiny_spec.output_dims).astype(np.float32)
        report = fit(tiny_spec, None, target, cfg, init=init)
        # analytic Adam bound is |step| < lr; the slack absorbs float32
        # rounding of the parameter subtraction
        for before, after in zip(init.arrays(), report.params.arrays()):
            assert np.abs(np.asarray(after) - np.asarray(before)).max() <= lr * (1 + 1e-4)

    def test_deterministic(self, tiny_spec):
        rng = np.random.default_rng(6)
        target = rng.uniform(-0.5, 0.5, tiny_spec.output_dims).astype(np.float32)
        cfg = FitConfig(iterations=50, learning_rate=5e-3, trace_every=10, init_seed=3)
        a = fit(tiny_spec, None, target, cfg)
        b = fit(tiny_spec, None, target, cfg)
        assert a.trace == b.trace
        for wa, wb in zip(a.params.arrays(), b.params.arrays()):
            assert np.array_equal(np.asarray(wa), np.asarray(wb))

    def test_trace_ends_with_final_mse(self, tiny_spec):
        rng = np.random.default_rng(7)
        target = rng.uniform(-0.5, 0.5, tiny_spec.output_dims).astype(np.float32)
        cfg = FitConfig(iterations=30, learning_rate=5e-3, trace_every=7, init_seed=1)
        report = fit(tiny_spec, None, target, cfg)
        assert report.trace[-1] == (30, report.final_mse)
        assert all(np.isfinite(m) for _, m in report.trace)
        assert report.trace[0][0] == 0

    def test_loss_decreases_on_noiseless_target(self, tiny_spec):
        params = init_params(tiny_spec, 99, dtype=np.float32)
        target = forward(tiny_spec, params)
        cfg = FitConfig(iterations=300, learning_rate=5e-3, trace_every=100, init_seed=1)
        report = fit(tiny_spec, None, target, cfg)
        assert report.final_mse < report.trace[0][1] * 0.1

    def test_divergence_guard(self, tiny_spec):
        # tanh and batch norm bound the loss, so blow-up shows as non-finite
        # values once float32 overflows; the guard must abort, not loop on
        rng = np.random.default_rng(8)
        target = rng.uniform(-0.5, 0.5, tiny_spec.output_dims).astype(np.float32)
        cfg = FitConfig(iterations=100, learning_rate=1e18, trace_every=50, init_seed=1)
        with np.errstate(all="ignore"), pytest.raises(FitDivergedError):
            fit(tiny_spec, None, target, cfg)

    def test_explicit_init_is_copied(self, tiny_spec):
        init = init_params(tiny_spec, 1)
        snapshot = [np.asarray(a).copy() for a in init.arrays()]
        rng = np.random.default_rng(9)
        target = rng.uniform(-0.5, 0.5, tiny_spec.output_dims).astype(np.float32)
        fit(tiny_spec, None, target, FitConfig(iterations=5, trace_every=1), init=init)
        for a, s in zip(init.arrays(), snapshot):
            assert np.array_equal(np.asarray(a), s)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(iterations=0)
        with pytest.raises(ValueError):
            FitConfig(iterations=1, learning_rate=0.0)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("learning_rate", float("nan"), "learning rate must be positive and finite, got nan"),
            ("learning_rate", float("inf"), "learning rate must be positive and finite, got inf"),
            ("learning_rate", float("-inf"), "learning rate must be positive and finite"),
            # SeedRule's range: a wider seed was masked to 64 bits and aliased another one
            ("init_seed", 2**64, r"init_seed must be in 0\.\.2\*\*64-1, got 18446744073709551616"),
            ("init_seed", -1, r"init_seed must be in 0\.\.2\*\*64-1, got -1"),
        ],
    )
    def test_config_rejects_out_of_range_values(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            FitConfig(**{"iterations": 10, name: value})

    def test_config_accepts_the_widest_seed(self):
        assert FitConfig(iterations=1, init_seed=2**64 - 1).init_seed == 2**64 - 1

    @pytest.mark.parametrize(
        "name, value",
        [("iterations", 2.5), ("iterations", True), ("trace_every", "10"), ("init_seed", 1.0),
         ("learning_rate", "2e-3")],
    )
    def test_config_field_types(self, name, value):
        with pytest.raises(TypeError, match=f"^{name}: expected"):
            FitConfig(**{"iterations": 10, name: value})

    # (16, 16, 3, 8): a three-user group target
    @pytest.mark.parametrize("shape", [(16, 16, 1), (16, 16, 4), (8, 16, 8), (16, 16, 3, 8)])
    def test_target_shape_checked_before_first_step(self, shape):
        # with 10**9 iterations the test only returns if no step runs
        spec = load_spec(str(resources.files("unn_csi").joinpath("specs/single_ue_desk.json")))
        with pytest.raises(ValueError) as err:
            fit(spec, None, np.zeros(shape, np.float32), FitConfig(iterations=10**9))
        assert str(err.value) == f"target {shape} does not match decoder output (16, 16, 8)"

    def test_swapped_target_rejected(self, rect_scene):
        from unn_csi.channel import preprocess, synthesize

        target = preprocess(synthesize(rect_scene, 1))
        assert target.data.shape == (8, 4, 4)
        spec = make_spec((1, 2), (3, 4, 4, 4, 4), ((True, True),) * 2)
        with pytest.raises(ValueError, match=r"target \(8, 4, 4\) does not match decoder output \(4, 8, 4\)"):
            fit(spec, None, target, FitConfig(iterations=10**9))


class TestWorkspace:
    """A fit writes every large intermediate into one workspace; reusing it
    must not change a single bit."""

    @pytest.mark.parametrize("name", sorted(GRADCHECK_CONFIGS))
    def test_reused_workspace_repeats_the_gradient(self, name):
        # the reverse pass overwrites the cached ReLU input with the
        # batch-norm correction; the next pass must not see it
        spec = GRADCHECK_CONFIGS[name]
        params = init_params(spec, 3, dtype=np.float64)
        z0 = _seed(spec, None, np.float64)
        target = np.random.default_rng(78).uniform(-0.8, 0.8, spec.output_dims)
        want = params_to_vector(gradient(spec, params, z0, target))
        vec = np.empty(param_count(spec))
        grads = param_views(spec, vec)
        ws = _Workspace(spec, z0, params, target, grads)
        for _ in range(3):
            vec[:] = np.nan
            _loss_and_grad(ws)
            assert np.array_equal(params_to_vector(grads), want)

    def test_interleaved_fits_match_fits_alone(self, tiny_spec):
        other = GRADCHECK_CONFIGS["4way-all-on"]
        rng = np.random.default_rng(10)
        t_tiny = rng.uniform(-0.5, 0.5, tiny_spec.output_dims).astype(np.float32)
        t_other = rng.uniform(-0.5, 0.5, other.output_dims).astype(np.float32)
        cfg = FitConfig(iterations=40, learning_rate=5e-3, trace_every=10, init_seed=2)

        def fingerprint(report):
            return params_to_vector(report.params).tobytes(), report.trace

        alone_tiny = fingerprint(fit(tiny_spec, None, t_tiny, cfg))
        alone_other = fingerprint(fit(other, None, t_other, cfg))
        first = fingerprint(fit(other, None, t_other, cfg))
        forward(tiny_spec, init_params(tiny_spec, 4))
        second = fingerprint(fit(tiny_spec, None, t_tiny, cfg))
        forward(other, init_params(other, 4))
        third = fingerprint(fit(other, None, t_other, cfg))
        assert first == third == alone_other
        assert second == alone_tiny

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("name", sorted(GRADCHECK_CONFIGS))
    def test_bound_upsamplings_match_mode_product(self, name, batch):
        # a pass runs each bound (operator, source, destination) step as one
        # matmul; on any input it must give mode_product's bits
        spec = GRADCHECK_CONFIGS[name]
        lead = () if batch is None else (batch,)
        rng = np.random.default_rng(81)
        params = param_views(spec, rng.uniform(-1, 1, lead + (param_count(spec),)))
        grads = param_views(spec, np.empty(lead + (param_count(spec),)))
        z0 = _seed(spec, None, np.float64)
        if batch:
            z0 = z0[None]
        ws = _Workspace(spec, z0, params, np.zeros(lead + spec.output_dims), grads)
        transposed = {entry[0]: entry[1] for entry in ws.rev}
        transposed[0] = ws.rev0[0]
        steps = [shapes for _, shapes in _step_shapes(spec, lead)]
        for l, (plan, _) in enumerate(_step_shapes(spec)[: spec.inner_count]):
            forward_steps, reverse_steps = ws.fwd[l][5], transposed[l][::-1]
            assert len(forward_steps) == len(reverse_steps) == len(plan)
            for i, (ax, n) in enumerate(plan):
                for shape, m, (op, src, dst) in (
                    (steps[l][i], make_upsampler(n), forward_steps[i]),
                    (steps[l][i + 1], make_upsampler(n).T, reverse_steps[i]),
                ):
                    a = rng.standard_normal(shape)
                    assert not np.shares_memory(src, dst)
                    src.reshape(a.shape)[...] = a
                    np.matmul(op, src, out=dst)
                    want = mode_product(a, m, ax + len(lead))
                    assert np.array_equal(dst.reshape(want.shape), want)

    def test_finished_fit_frees_its_workspace_without_the_collector(self):
        # a reference cycle through a workspace would leave it to the cyclic
        # collector: each new fit would then fault its working set in afresh
        spec = load_spec(str(resources.files("unn_csi").joinpath("specs/single_ue_full.json")))
        target = np.random.default_rng(0).uniform(-0.9, 0.9, spec.output_dims).astype(np.float32)
        cfg = FitConfig(iterations=2)
        fit(spec, None, target, cfg)  # fills the upsampler cache
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = fit(spec, None, target, cfg)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert report.iterations == 2
        assert held < target.nbytes

    def test_steady_state_pass_allocates_less_than_one_output(self):
        # at full scale every intermediate is MB-sized; after the first pass
        # none of them is allocated again
        spec = load_spec(str(resources.files("unn_csi").joinpath("specs/single_ue_full.json")))
        f32 = np.float32
        params = init_params(spec, 1)
        z0 = _seed(spec, None, f32)
        target = np.random.default_rng(0).uniform(-0.9, 0.9, spec.output_dims).astype(f32)
        grads = param_views(spec, np.empty(param_count(spec), f32))
        ws = _Workspace(spec, z0, params, target, grads)
        _loss_and_grad(ws)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _loss_and_grad(ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert target.nbytes == 1152 * 1024
        assert peak - base < target.nbytes


def _desk(kind, name):
    return str(resources.files("unn_csi").joinpath(f"{kind}/{name}.json"))


def _bound_pass(spec, batch, dtype, seed):
    """A workspace bound for the reverse pass of `spec` at random parameters
    (gammas and betas off 1 and 0) and targets, with a leading batch axis of
    `batch` unless that is None, and its gradient block, all NaN."""
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    block = np.stack([params_to_vector(init_params(spec, s, dtype)) for s in range(3, 3 + (batch or 1))])
    block = block.reshape(lead + block.shape[-1:])
    params = param_views(spec, block)
    for g, b in zip(params.gammas, params.betas):
        g[...] = rng.uniform(0.5, 1.5, g.shape)
        b[...] = rng.uniform(-0.5, 0.5, b.shape)
    targets = rng.uniform(-0.8, 0.8, lead + spec.output_dims).astype(dtype)
    z0 = _seed(spec, None, dtype)
    grads = np.full_like(block, np.nan)
    return _Workspace(spec, z0 if batch is None else z0[None], params, targets, param_views(spec, grads)), grads


class TestReversePass:
    """The reverse pass writes only to arrays this thread wrote last: the
    batch-norm correction goes into the dead ReLU input, never over the
    centred ReLU output d that the weight-gradient product reads."""

    @pytest.mark.parametrize("batch", [None, 2])
    @pytest.mark.parametrize("name", ["single_ue_desk", "above_blas_mean"])
    def test_cached_centred_relu_outputs_are_only_read(self, name, batch):
        spec = ABOVE_BLAS_MEAN if name == "above_blas_mean" else load_spec(_desk("specs", name))
        ws, _ = _bound_pass(spec, batch, np.float32, 85)
        _forward(ws)
        centred = [layer[7] for layer in ws.fwd[:-1]]
        want = [d.copy() for d in centred]
        _loss_and_grad(ws)
        for d, copy in zip(centred, want):
            assert d.tobytes() == copy.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name, batch", [("single_ue_full", None), ("above_blas_mean", 2), ("single_ue_desk", 3)])
    def test_gradient_bytes_match_the_in_place_correction(self, name, batch, dtype):
        spec = ABOVE_BLAS_MEAN if name == "above_blas_mean" else load_spec(_desk("specs", name))
        ws, grads = _bound_pass(spec, batch, dtype, 86)
        ref_ws, ref_grads = _bound_pass(spec, batch, dtype, 86)
        mse = _loss_and_grad(ws)
        ref_mse = inplace_loss_and_grad(ref_ws)
        assert np.isfinite(ref_grads).all()
        assert grads.tobytes() == ref_grads.tobytes()
        assert np.asarray(mse).tobytes() == np.asarray(ref_mse).tobytes()


BATCH_CONFIG = FitConfig(iterations=40, learning_rate=2e-3, trace_every=15, init_seed=5)


def fingerprint(spec, report, target):
    """What a single-mode cell writes from its fit: the fitted parameter
    bytes, the loss trace and the .csir report."""
    blob = encode(spec, report.params, target.snapshot_norms, target.scale)
    return params_to_vector(report.params).tobytes(), report.trace, blob


@pytest.fixture(scope="module")
def desk_cells():
    """Eight desk-scale targets and what each one's fit gives alone."""
    scene = load_scene(_desk("scenes", "street_canyon_desk"))
    spec = load_spec(_desk("specs", "single_ue_desk"))
    cells = [(1, 0, 0), (2, 10, 1), (3, 5, 2), (4, 20, 3), (5, 0, 4), (6, 10, 5), (7, 15, 6), (1, 20, 7)]
    targets = [preprocess(add_noise(synthesize(scene, ue), snr, seed)) for ue, snr, seed in cells]
    alone = [fingerprint(spec, fit(spec, None, t, BATCH_CONFIG), t) for t in targets]
    return spec, targets, alone


class TestBatch:
    """B fits of one spec run as one array program; what a fit gives must not
    depend on B, on its position in the batch or on its neighbours."""

    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_cell_bytes_do_not_depend_on_batch_or_position(self, desk_cells, batch):
        spec, targets, alone = desk_cells
        for start in range(len(targets)):  # every cell at every position
            order = [(start + j) % len(targets) for j in range(batch)]
            reports = fit_batch(spec, None, [targets[i] for i in order], BATCH_CONFIG)
            assert [fingerprint(spec, r, targets[i]) for r, i in zip(reports, order)] == [alone[i] for i in order]

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_diverged_neighbour_leaves_the_others_unchanged(self, desk_cells, position):
        spec, targets, alone = desk_cells
        poisoned = np.array(targets[position].data)
        poisoned[3, 5, 1] = np.nan
        batch = list(targets[:5])
        batch[position] = poisoned
        reports = fit_batch(spec, None, batch, BATCH_CONFIG)
        assert isinstance(reports[position], FitDivergedError)
        assert str(reports[position]) == "loss nan at iteration 0 (initial nan)"
        for i, report in enumerate(reports):
            if i != position:
                assert fingerprint(spec, report, targets[i]) == alone[i]

    def test_final_loss_is_the_loss_of_the_single_forward(self, desk_cells):
        # a fit's last forward pass runs stacked; loss and codec.recreate
        # run one decoder unstacked, and must see the same output
        spec, targets, _ = desk_cells
        for target, report in zip(targets, fit_batch(spec, None, targets[:3], BATCH_CONFIG)):
            assert report.final_mse == loss(spec, report.params, None, target)

    def test_long_single_filter_columns_keep_their_bits(self):
        # 12,288 positions of one filter: numpy's einsum over a stack of two
        # such columns sums the second one differently from the column alone
        spec = make_spec((64, 64, 3), (1, 1, 2), ((False, False, False),), seed=12)
        rng = np.random.default_rng(13)
        targets = list(rng.uniform(-0.5, 0.5, (2,) + spec.output_dims).astype(np.float32))
        cfg = FitConfig(iterations=3, trace_every=1, init_seed=2)
        for target, report in zip(targets, fit_batch(spec, None, targets, cfg)):
            alone = fit(spec, None, target, cfg)
            assert report.trace == alone.trace
            assert params_to_vector(report.params).tobytes() == params_to_vector(alone.params).tobytes()

    def test_matrices_either_side_of_the_row_product_bound_keep_their_bits(self):
        spec = GRADCHECK_CONFIGS["3way-straddle"]
        rng = np.random.default_rng(14)
        targets = list(rng.uniform(-0.5, 0.5, (3,) + spec.output_dims).astype(np.float32))
        cfg = FitConfig(iterations=4, trace_every=1, init_seed=3)
        for target, report in zip(targets, fit_batch(spec, None, targets, cfg)):
            alone = fit(spec, None, target, cfg)
            assert report.trace == alone.trace
            assert params_to_vector(report.params).tobytes() == params_to_vector(alone.params).tobytes()

    @pytest.mark.parametrize("name", sorted(GRADCHECK_CONFIGS))
    def test_float64_gradient_slices_match_single_gradients(self, name):
        spec = GRADCHECK_CONFIGS[name]
        rng = np.random.default_rng(79)
        params = [init_params(spec, seed, dtype=np.float64) for seed in (3, 4)]
        for p in params:
            for g, b in zip(p.gammas, p.betas):
                g[:] = rng.uniform(0.5, 1.5, g.shape)
                b[:] = rng.uniform(-0.5, 0.5, b.shape)
        targets = rng.uniform(-0.8, 0.8, (2,) + spec.output_dims)
        z0 = _seed(spec, None, np.float64)
        block = np.stack([params_to_vector(p) for p in params])
        grads = np.full_like(block, np.nan)
        ws = _Workspace(spec, z0[None], param_views(spec, block), targets, param_views(spec, grads))
        _loss_and_grad(ws)
        for b in range(2):
            assert np.array_equal(grads[b], params_to_vector(gradient(spec, params[b], z0, targets[b])))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_slices_above_the_blas_mean_bound_match_single_gradients(self, dtype):
        spec = ABOVE_BLAS_MEAN
        rng = np.random.default_rng(84)
        block = np.stack([params_to_vector(init_params(spec, seed, dtype)) for seed in (5, 6)])
        targets = rng.uniform(-0.8, 0.8, (2,) + spec.output_dims).astype(dtype)
        z0 = _seed(spec, None, dtype)
        grads = np.full_like(block, np.nan)
        ws = _Workspace(spec, z0[None], param_views(spec, block), targets, param_views(spec, grads))
        _loss_and_grad(ws)
        for b in range(2):
            alone = gradient(spec, param_views(spec, block[b]), z0, targets[b], dtype=dtype)
            assert grads[b].tobytes() == params_to_vector(alone).tobytes()

    def test_inits_are_per_target(self, tiny_spec):
        rng = np.random.default_rng(11)
        targets = rng.uniform(-0.5, 0.5, (2,) + tiny_spec.output_dims).astype(np.float32)
        cfg = FitConfig(iterations=20, trace_every=5)
        warm = init_params(tiny_spec, 8)
        reports = fit_batch(tiny_spec, None, list(targets), cfg, [None, warm])
        want = [fit(tiny_spec, None, targets[0], cfg), fit(tiny_spec, None, targets[1], cfg, init=warm)]
        for got, ref in zip(reports, want):
            assert params_to_vector(got.params).tobytes() == params_to_vector(ref.params).tobytes()
        with pytest.raises(ValueError, match="1 inits for 2 targets"):
            fit_batch(tiny_spec, None, list(targets), cfg, [warm])

    def test_targets_past_batch_size_run_as_one_program(self, monkeypatch):
        # fit_batch fits what it is given as one batch; cutting by
        # batch_size is its caller's work
        scene = load_scene(_desk("scenes", "street_canyon_desk"))
        spec = load_spec(_desk("specs", "single_ue_desk"))
        cells = [(ue, snr) for ue in range(1, 8) for snr in (0, 10, 20)][: batch_size(spec) + 1]
        targets = [preprocess(add_noise(synthesize(scene, ue), snr, ue)) for ue, snr in cells]
        cfg = FitConfig(iterations=3, trace_every=1, init_seed=5)
        alone = [fit(spec, None, t, cfg) for t in targets]
        builds = []

        def counted(*args, **kwargs):
            builds.append(args)
            return _Workspace(*args, **kwargs)

        monkeypatch.setattr(fitting, "_Workspace", counted)
        reports = fit_batch(spec, None, targets, cfg)
        assert len(builds) == 1 and len(reports) == len(targets) == 20
        for report, ref in zip(reports, alone):
            assert report.trace == ref.trace
            assert params_to_vector(report.params).tobytes() == params_to_vector(ref.params).tobytes()

    def test_every_target_checked_before_the_first_step(self, tiny_spec):
        good = np.zeros(tiny_spec.output_dims, np.float32)
        with pytest.raises(ValueError, match=r"target \(2, 2, 2\) does not match"):
            fit_batch(tiny_spec, None, [good, np.zeros((2, 2, 2))], FitConfig(iterations=10**9))


@pytest.mark.slow
class TestDeskConvergence:
    def test_noiseless_desk_fit_reaches_threshold(self):
        # 16x16 spatial, 4 antennas, hidden width 32, L=5, 3000 iterations:
        # the pinned convergence bar is 1e-3 of the target mean square
        from unn_csi.channel import load_scene, preprocess, synthesize
        from importlib import resources

        scene = load_scene(str(resources.files("unn_csi").joinpath("scenes/street_canyon_desk.json")))
        spec = make_spec((2, 2), (32,) * 5 + (8,), ((True, True),) * 3, seed=20260810, a=0.15)
        target = preprocess(synthesize(scene, 3))
        cfg = FitConfig(iterations=3000, learning_rate=2e-3, trace_every=500, init_seed=1)
        report = fit(spec, None, target, cfg)
        assert report.final_mse <= 1e-3 * float(np.mean(target.data**2))


# prints the sha256 of the parameters a few iterations of the spec named by
# argv[1] give
FULL_FIT_DIGEST = """
import hashlib, sys
from importlib import resources
import numpy as np
from unn_csi.decoder import load_spec, params_to_vector
from unn_csi.fitting import FitConfig, fit
spec = load_spec(resources.files("unn_csi").joinpath(f"specs/{sys.argv[1]}.json"))
target = np.random.default_rng(15).uniform(-0.5, 0.5, spec.output_dims).astype(np.float32)
report = fit(spec, None, target, FitConfig(iterations=3, init_seed=4))
print(hashlib.sha256(params_to_vector(report.params).tobytes()).hexdigest())
"""


def test_full_scale_bytes_do_not_depend_on_the_blas_thread_count():
    # a worker of a --workers pool runs one BLAS thread and a serial run the
    # default count: their cells must agree. Desk shapes sit below
    # OpenBLAS's threading threshold, so only a full-scale fit can differ;
    # group_full_a's means are the one-thread einsum, its other products BLAS.
    env = dict(os.environ, PYTHONPATH=str(Path(unn_csi.__file__).parents[1]))
    for name in ("single_ue_full", "group_full_a"):
        digests = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            run = subprocess.run(
                [sys.executable, "-c", FULL_FIT_DIGEST, name],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert len(digests[0]) == 65 and digests[0] == digests[1], name
