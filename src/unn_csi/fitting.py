"""Fitting a decoder to one measured channel: loss, exact reverse-mode
gradients for the closed operator set, and the Adam iteration loop.

There is no training set and no minibatching: the single preprocessed
measurement is the whole objective, and the optimizer runs a fixed number of
iterations. Gradients are derived by hand for the operator chain
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

``fit`` keeps every parameter, gradient and Adam moment in one contiguous
vector; the per-layer arrays are views into it, so an Adam step is a handful
of vector operations.

``fit`` also allocates the arrays of its forward and reverse passes once and
reuses them in every iteration, its final loss included. This workspace
holds the forward cache (each batch-norm layer's ReLU input and output) and
two flat scratch vectors, each the size of the largest activation, which
every other intermediate takes turns writing into. So it costs the forward
cache plus two activations: 6.9 MB for ``single_ue_full`` and 20.7 MB for
``group_full_a`` in float32. Once it is built, an iteration allocates
nothing of activation size, and at full scale no longer faults its working
set back in every step. ``gradient`` builds a workspace per call; ``loss``
and :func:`unn_csi.decoder.forward` allocate each intermediate, as before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._fields import INT, NUMBER
from .decoder import (
    DecoderSpec,
    ParamSet,
    _forward,
    _seed,
    _upsampler,
    _Workspace,
    check_params,
    forward,
    init_params,
    param_count,
    param_views,
    params_to_vector,
)
from .tensors import mode_product

__all__ = [
    "FitConfig",
    "FitReport",
    "FitDivergedError",
    "loss",
    "gradient",
    "fit",
]

DIVERGENCE_FACTOR = 1e6
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
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


@dataclass
class FitReport:
    trace: list = field(default_factory=list)  # (iteration, mse) pairs
    params: ParamSet | None = None
    final_mse: float = np.nan
    elapsed_s: float = 0.0

    @property
    def iterations(self) -> int:
        return self.trace[-1][0] if self.trace else 0


def _target(spec: DecoderSpec, target, dtype) -> np.ndarray:
    """`target` (an array, or an object with a `.data` array) as a `dtype`
    array; ValueError unless its shape is spec.output_dims."""
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


def _loss_and_grad(spec, params, z0, t, grads, ws):
    """MSE at `params`; writes its gradient into the arrays of `grads`.

    `z0` is a checked seed tensor of t's dtype, and `ws` a workspace of
    the same dtype. The forward and reverse passes write every large
    intermediate into the arrays of `ws`, and each cached array is
    overwritten once the reverse pass is done with it.
    """
    cache = []
    y = _forward(spec, params, z0, cache, ws)
    outs = iter(ws.rev)
    g = np.subtract(y, t, out=next(outs))
    mse = float(np.vdot(g, g)) / g.size
    y *= y
    np.subtract(1.0, y, out=y)
    g *= y
    g *= 2.0 / g.size

    dtype = t.dtype
    for l in reversed(range(spec.n_layers)):
        c = cache[l]
        if l < spec.inner_count:
            for ax, n in reversed(ws.schedule[l]):
                g = mode_product(g, _upsampler(n, dtype).T, ax, out=next(outs))
        x = c["z_in"].reshape(-1, c["z_in"].shape[-1])
        g = g.reshape(-1, g.shape[-1])
        if l == 0:
            np.matmul(x.T, g, out=grads.kernels[0])
            break
        # x is the centred ReLU output d of layer l-1, whose batch norm is
        # folded into this layer's kernel
        w = np.asarray(params.kernels[l], dtype=dtype)
        gamma = np.asarray(params.gammas[l - 1], dtype=dtype)
        beta = np.asarray(params.betas[l - 1], dtype=dtype)
        inv = cache[l - 1]["inv"]
        a = gamma * inv
        m = x.T @ g
        s = g.sum(axis=0)
        grads.kernels[l][...] = a[:, None] * m + beta[:, None] * s
        g_beta = w @ s
        g_gamma = inv * np.einsum("ij,ij->i", w, m)
        grads.betas[l - 1][...] = g_beta
        grads.gammas[l - 1][...] = g_gamma
        n = x.shape[0]
        g = np.matmul(g, c["w"].T, out=next(outs))
        x *= a * inv * g_gamma / n
        x += a * g_beta / n
        g -= x
        u = cache[l - 1]["u"]  # overwritten with the 0/1 ReLU mask
        g *= np.greater(u, 0, out=u).reshape(g.shape)
        g = g.reshape(u.shape)
    return mse


def gradient(spec: DecoderSpec, params: ParamSet, z0, target, dtype=np.float64) -> ParamSet:
    """Exact reverse-mode derivative of :func:`loss` with respect to every
    kernel entry and every batch-norm gamma/beta. Defaults to float64 so it
    can be checked against finite differences."""
    t = _target(spec, target, dtype)
    check_params(spec, params)
    grads = param_views(spec, np.empty(param_count(spec), dtype=dtype))
    _loss_and_grad(spec, params, _seed(spec, z0, dtype), t, grads, _Workspace(spec, dtype))
    return grads


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
    initial value.
    """
    start = time.perf_counter()
    dtype = np.float32
    t = _target(spec, target, dtype)
    z0 = _seed(spec, z0, dtype)
    if init is None:
        init = init_params(spec, config.init_seed, dtype)
    check_params(spec, init)
    ws = _Workspace(spec, dtype)

    theta = params_to_vector(init).astype(dtype)
    params = param_views(spec, theta)
    grad = np.empty_like(theta)
    grads = param_views(spec, grad)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    b1, b2 = ADAM_BETAS
    lr = config.learning_rate

    trace = []
    initial = None
    for it in range(config.iterations):
        mse = _loss_and_grad(spec, params, z0, t, grads, ws)
        if initial is None:
            initial = mse
        if not np.isfinite(mse) or mse > DIVERGENCE_FACTOR * max(initial, np.finfo(np.float32).tiny):
            raise FitDivergedError(f"loss {mse} at iteration {it} (initial {initial})")
        if it % config.trace_every == 0:
            trace.append((it, mse))
        step = it + 1
        bc1 = 1.0 - b1**step
        bc2 = 1.0 - b2**step
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * (grad * grad)
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    final = _mse(_forward(spec, params, z0, ws=ws), t, ws.rev[0])
    if not np.isfinite(final):
        raise FitDivergedError(f"final loss {final} after {config.iterations} iterations")
    trace.append((config.iterations, final))
    return FitReport(trace=trace, params=params, final_mse=final, elapsed_s=time.perf_counter() - start)
