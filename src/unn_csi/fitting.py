"""Fitting a decoder to one measured channel: loss, exact reverse-mode
gradients for the closed operator set, and the Adam iteration loop.

There is no training set and no minibatching: the single preprocessed
measurement is the whole objective of a fit, and the optimizer runs a fixed
number of iterations. Gradients are derived by hand for the operator chain
(channel-mode product, fixed upsampling, ReLU, batch norm, TanH, MSE), which
keeps the loop dependency-free and bit-reproducible.

The reverse pass works on the folded form of :func:`unn_csi.decoder.forward`.
For a layer after a batch norm, with d the centred ReLU output (N positions),
inv = 1 / sqrt(var + eps), a = gamma * inv, the folded kernel
W_f = diag(a) W, and g the loss gradient at the layer's kernel output
(after reversing its upsampling), one matmul M = d^T g and the column sums
s of g give

    g_W     = diag(a) M + beta s^T
    g_beta  = W s
    g_gamma = inv * rowsum(W * M)

and the gradient at the ReLU output is

    g_r = g W_f^T - (d * (a * inv * g_gamma / N) + a * g_beta / N),

masked by the support of the ReLU output (u > 0). No normalized tensor and
no gradient with respect to it are ever built.

The reverse pass writes only to arrays that this thread wrote last. With
OpenBLAS's two threads, the product M = d^T g reads d on both cores, and a
write to d right after it waits for each of its cache lines to come back
from the other core: scaling d in place into the correction took
0.21-0.41 instead of 0.08 ms in each of single_ue_full's last two layers,
and 0.86-1.14 instead of 0.26-0.53 ms in group_full_a's, against one BLAS
thread. So d is only read. The mask u > 0 goes into one bool buffer of the
workspace, after which u, the ReLU input, is dead and takes the correction
in brackets; the column sums s are taken before M, while g is still this
thread's alone. The operations and their order are those of the in-place
form, so the bits are too.

The column reductions and row broadcasts depend on matrix size, never on
the batch; the table in the :mod:`unn_csi.decoder` docstring gives each
one's path and the measurements behind its bounds. Up to 16,384 entries per
matrix (every matrix of the desk specs and the first two layers of the
full ones), the column sums s are the row product ones @ g, like batch
norm's mean of squares (1/N) @ (r * r) in the forward pass: on a stack,
one numpy call that makes the same BLAS call per matrix as for the matrix
alone, and faster than numpy's reduction over the leading axis. Larger
matrices take einsum one matrix at a time, which adds the rows in order as
``g.sum`` would, in about half its time, and the correction of d by the
two filter rows runs over wide views of d and u, 128 rows to an inner
loop.

``fit_batch`` runs B independent fits of one spec, one target each, as one
array program, whatever B is, and ``fit`` is its batch of one. Kernels,
gammas, betas, targets, gradients and Adam moments carry a leading batch
axis: every parameter, gradient and moment lives in one contiguous (B, P)
block whose per-layer arrays are views, so an Adam step is a handful of
block operations. Every product is a stacked matmul, one BLAS call per
sample; each sample keeps its own batch-norm statistics, and the MSE, the
divergence check and the trace are per sample. A batch of one runs the same
code without the batch axis, which makes the same calls with less
bookkeeping. So a fit's bits depend neither on B nor on its place in the
batch. A fit that diverges gets its own FitDivergedError and starts again
from zero parameters and moments, which keeps its slice finite; the others
run to the end unchanged.

A batch allocates the arrays of its forward and reverse passes once and
reuses them in every iteration, its final loss included. This workspace
holds the forward cache (each batch-norm layer's ReLU input and output),
two flat scratch vectors, each the size of the largest activation, which
every other intermediate takes turns writing into, and the bool ReLU mask
of the largest ReLU input. So each sample costs the forward cache plus two
activations plus the mask, in float32: 0.11 MB for ``single_ue_desk``,
0.34 MB for ``group_desk``, 7.5 MB for ``single_ue_full`` and 22.5 MB for
``group_full_a``. Once it is built, an
iteration allocates nothing of activation size, and at full scale no longer
faults its working set back in every step.

The workspace also binds the iteration: every operand that stays fixed for
the batch is worked out once, when it is built. That covers each layer's
input-matrix view, each upsampling's operator with its (pre, n, post)
source and destination views, forward and transposed, the ReLU and
centring views, the 1/N and ones rows of the column reductions, and the
gradient views. An iteration then makes only its numpy calls, with no
reshapes, lookups or checks between them. At desk scale, where dispatch
bounds an iteration, that takes 13-29 % off one batch's forward and
reverse pass. ``gradient`` binds a workspace for its one call, and so does
:func:`unn_csi.decoder.forward` with the cache, with a given seed tensor, or
at full scale; a desk-sized ``forward`` runs on the workspace it kept from
its last call (see the :mod:`unn_csi.decoder` docstring). ``loss`` runs that
forward.

The batch size is worked out, not configured, and the cell runner of
:mod:`unn_csi.cli` cuts its fits by it: :func:`batch_size` takes as many
samples as fit their workspaces (their float32 arrays, without the mask and
the tile area) into ``BATCH_BYTES`` (2 MiB), and at least one. That is 19
for ``single_ue_desk`` and 6 for ``group_desk``, where a
fit iteration is bound by numpy call dispatch and stacking B=8 fits cuts
the time per fit iteration two- to threefold; at full scale, where the
arithmetic dominates and stacking wins nothing, it is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._fields import INT, NUMBER

from .decoder import (
    DecoderSpec,
    ParamSet,
    _column_sums,
    _each,
    _forward,
    _seed,
    _tiled,
    _U64,
    _Workspace,
    _workspace_nbytes,
    check_params,
    forward,
    init_params,
    param_count,
    param_views,
    params_to_vector,
)

__all__ = [
    "FitConfig",
    "FitReport",
    "FitDivergedError",
    "loss",
    "gradient",
    "batch_size",
    "fit",
    "fit_batch",
]

DIVERGENCE_FACTOR = 1e6
# the most workspace one batch of fits may take (see batch_size)
BATCH_BYTES = 2 << 20
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class FitDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite or explodes."""


@dataclass(frozen=True)
class FitConfig:
    iterations: int
    learning_rate: float = 5e-3
    trace_every: int = 100
    init_seed: int = 1

    def __post_init__(self):
        for name, check in (
            ("iterations", INT), ("learning_rate", NUMBER), ("trace_every", INT), ("init_seed", INT)
        ):
            try:
                check(getattr(self, name))
            except TypeError as exc:
                raise TypeError(f"{name}: {exc}") from None
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate!r}")
        if not 0 <= self.init_seed <= _U64:
            raise ValueError(f"init_seed must be in 0..2**64-1, got {self.init_seed}")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


@dataclass
class FitReport:
    trace: list = field(default_factory=list)  # (iteration, mse) pairs
    params: ParamSet | None = None
    final_mse: float = np.nan

    @property
    def iterations(self) -> int:
        return self.trace[-1][0] if self.trace else 0


def _target(spec: DecoderSpec, target, dtype=None) -> np.ndarray:
    """`target` (an array, or an object with a `.data` array) as an array,
    converted to `dtype` unless that is None; ValueError unless its shape is
    spec.output_dims."""
    t = np.asarray(getattr(target, "data", target), dtype=dtype)
    if t.shape != spec.output_dims:
        raise ValueError(f"target {t.shape} does not match decoder output {spec.output_dims}")
    return t


def _mse(y, t, out=None) -> float:
    """Mean of the squared difference y - t, accumulated in float64; the
    difference is written into `out` when given."""
    d = np.subtract(y, t, out=out)
    d *= d
    return float(np.mean(d, dtype=np.float64))


def loss(spec: DecoderSpec, params: ParamSet, z0, target, dtype=np.float32) -> float:
    """Mean over all entries of the squared difference between the decoder
    output and the target tensor."""
    t = _target(spec, target, dtype)
    return _mse(forward(spec, params, z0, dtype=dtype), t)


def _loss_and_grad(ws: _Workspace):
    """MSE at the parameters bound in the workspace `ws`, of one decoder or
    per sample of a batch; writes the gradient into its gradient arrays.

    `ws` binds the seed tensor, the parameters, the targets and the
    gradient arrays, all of one dtype; for a batch of B, every one of them
    carries a leading batch axis (the seed's of extent 1 or B). The forward
    and reverse passes write every large intermediate into the arrays of
    `ws`, and each cached array is overwritten once the reverse pass is
    done with it. Returns the MSE, or the B MSEs, in float64.
    """
    folded = []
    y = _forward(ws, folded)
    t, g, row, column, lead, size = ws.loss
    np.subtract(y, t, out=g)
    # a row times a column is numpy's dot, the one np.vdot makes
    mse = np.matmul(row, column).reshape(lead).astype(np.float64) / size
    y *= y
    np.subtract(1.0, y, out=y)
    g *= y
    g *= 2.0 / size

    for (
        l, ups_t, xt, g, g_w, w, gamma, beta, g_gamma_out, g_beta_out, ones, n, g_prev, x_wide, tile, u, u_wide,
        mask,
    ) in ws.rev:
        for op, src, dst in ups_t:
            np.matmul(op, src, out=dst)
        # x_wide is the centred ReLU output d of layer l-1, whose batch norm
        # is folded into this layer's kernel; the BLAS threads of xt @ g read
        # it, so the pass only reads it too (see the module docstring)
        inv = folded[l - 1][1]
        a = gamma * inv
        s = (ones @ g)[..., 0, :] if ones is not None else _each(_column_sums, g)
        m = xt @ g
        g_w[...] = a[..., None] * m + beta * s[..., None, :]
        g_beta = (w @ s[..., None])[..., 0]
        g_gamma = inv * np.einsum("...ij,...ij->...i", w, m)
        g_beta_out[...] = g_beta
        g_gamma_out[...] = g_gamma
        np.matmul(g, folded[l][0].swapaxes(-1, -2), out=g_prev)
        # u, layer l-1's ReLU input, is dead once its mask is taken: the
        # correction d * c1 + c2 goes there
        np.greater(u, 0, out=mask)
        c1 = (a * inv * g_gamma / n)[..., None, :]
        np.multiply(x_wide, c1 if tile is None else _tiled(c1, tile), out=u_wide)
        c2 = (a * g_beta / n)[..., None, :]
        u_wide += c2 if tile is None else _tiled(c2, tile)
        g_prev -= u
        g_prev *= mask
    ups_t, xt, g, g_w = ws.rev0
    for op, src, dst in ups_t:
        np.matmul(op, src, out=dst)
    np.matmul(xt, g, out=g_w)
    return mse


def gradient(spec: DecoderSpec, params: ParamSet, z0, target, dtype=np.float64) -> ParamSet:
    """Exact reverse-mode derivative of :func:`loss` with respect to every
    kernel entry and every batch-norm gamma/beta. Defaults to float64 so it
    can be checked against finite differences."""
    t = _target(spec, target, dtype)
    check_params(spec, params)
    grads = param_views(spec, np.empty(param_count(spec), dtype=dtype))
    _loss_and_grad(_Workspace(spec, _seed(spec, z0, dtype), params, t, grads))
    return grads


def batch_size(spec: DecoderSpec) -> int:
    """How many fits of `spec` run as one batch: as many as keep the batch's
    float32 workspace within BATCH_BYTES, and at least one."""
    return max(1, BATCH_BYTES // _workspace_nbytes(spec, np.float32))


def fit(
    spec: DecoderSpec,
    z0,
    target,
    config: FitConfig,
    init: ParamSet | None = None,
) -> FitReport:
    """Run exactly `config.iterations` float32 Adam steps and return the
    fitted parameters plus the loss trace.

    `z0=None` regenerates the seed tensor from spec.seed_rule; `init=None`
    draws the starting parameters from config.init_seed. Deterministic given
    both seeds. Raises ValueError before the first step unless the target's
    shape is spec.output_dims and the seed tensor's is spec.seed_dims, and
    FitDivergedError if the loss turns non-finite or exceeds 1e6 times its
    initial value. The batch of one of :func:`fit_batch`.
    """
    (report,) = fit_batch(spec, z0, [target], config, None if init is None else [init])
    if isinstance(report, FitDivergedError):
        raise report
    return report


def fit_batch(spec: DecoderSpec, z0, targets, config: FitConfig, inits=None) -> list:
    """Fit one decoder of `spec` to each of `targets`, all on the seed
    tensor `z0`, with :func:`fit`'s steps; `inits` is None or one ParamSet
    (None: draw it from config.init_seed) per target.

    The fits run as one array program, however many there are; callers
    cut by :func:`batch_size`. Returns one entry per target, in order: its
    FitReport, or the FitDivergedError of a fit whose loss turned
    non-finite or exceeded 1e6 times its initial value. The other fits run
    on unchanged, and a fit's result does not depend on which batch it runs
    in or where. Raises ValueError before the first step unless every
    target's shape is spec.output_dims, the seed tensor's is
    spec.seed_dims and every init matches the spec.
    """
    for target in targets:
        _target(spec, target)
    x = _seed(spec, z0, np.float32)[None]
    inits = [None] * len(targets) if inits is None else list(inits)
    if len(inits) != len(targets):
        raise ValueError(f"{len(inits)} inits for {len(targets)} targets")
    if None in inits:
        drawn = init_params(spec, config.init_seed, np.float32)
        inits = [drawn if p is None else p for p in inits]
    for p in inits:
        check_params(spec, p)
    batch = len(targets)
    if not batch:
        return []
    t = np.empty((batch,) + spec.output_dims, np.float32)
    for row, target in zip(t, targets):
        row[...] = getattr(target, "data", target)
    theta = np.stack([params_to_vector(p) for p in inits]).astype(t.dtype)
    grad = np.empty_like(theta)
    # a batch of one runs without the batch axis: the same calls, fewer of them
    rows = slice(None) if batch > 1 else 0
    params = param_views(spec, theta[rows])
    ws = _Workspace(spec, x[rows], params, t[rows], param_views(spec, grad[rows]))
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    b1, b2 = ADAM_BETAS
    lr = config.learning_rate

    traces = [[] for _ in range(batch)]
    errors = [None] * batch
    for it in range(config.iterations):
        mse = np.reshape(_loss_and_grad(ws), batch)
        if it == 0:
            initial = mse
            # finite even for a non-finite initial loss, so that the test
            # below fails for every loss that is NaN, infinite or exploded
            limit = np.minimum(
                DIVERGENCE_FACTOR * np.maximum(initial, np.finfo(np.float32).tiny), np.finfo(np.float64).max
            )
        ok = mse <= limit
        if not ok.all():
            for b in np.flatnonzero(~ok):
                if errors[b] is None:
                    errors[b] = FitDivergedError(f"loss {mse[b]} at iteration {it} (initial {initial[b]})")
            # a diverged fit starts again from zero, which keeps its slice
            # of the batch finite; what it gives then is discarded
            theta[~ok] = grad[~ok] = m[~ok] = v[~ok] = 0.0
        if it % config.trace_every == 0:
            for trace, value in zip(traces, mse.tolist()):
                trace.append((it, value))
        step = it + 1
        bc1 = 1.0 - b1**step
        bc2 = 1.0 - b2**step
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * (grad * grad)
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    y = _forward(ws).reshape(t.shape)
    diff = ws.loss[1].reshape(t.shape)  # the output gradient's array, free again
    reports = []
    for b, error in enumerate(errors):
        if error is None:
            final = _mse(y[b], t[b], diff[b])
            if np.isfinite(final):
                traces[b].append((config.iterations, final))
                reports.append(FitReport(traces[b], param_views(spec, theta[b]), final))
                continue
            error = FitDivergedError(f"final loss {final} after {config.iterations} iterations")
        reports.append(error)
    return reports
