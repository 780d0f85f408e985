"""Fitting a decoder to one measured channel: loss, exact reverse-mode
gradients for the closed operator set, and the Adam iteration loop.

There is no training set and no minibatching: the single preprocessed
measurement is the whole objective, and the optimizer runs a fixed number of
iterations. Gradients are derived by hand for the operator chain
(channel-mode product, fixed upsampling, ReLU, batch norm, TanH, MSE), which
keeps the loop dependency-free and bit-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .decoder import (
    DecoderSpec,
    ParamSet,
    _upsampler,
    check_params,
    forward,
    generate_seed,
    init_params,
    upsample_schedule,
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


class FitDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite or explodes."""


@dataclass(frozen=True)
class FitConfig:
    iterations: int
    learning_rate: float = 5e-3
    betas: tuple = (0.9, 0.999)
    adam_eps: float = 1e-8
    trace_every: int = 100
    init_seed: int = 1

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        b1, b2 = self.betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ValueError("Adam betas must lie in [0, 1)")
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


def _target_data(target):
    return getattr(target, "data", target)


def loss(spec: DecoderSpec, params: ParamSet, z0, target, dtype=np.float32) -> float:
    """Mean over all entries of the squared difference between the decoder
    output and the target tensor."""
    t = np.asarray(_target_data(target), dtype=dtype)
    y = forward(spec, params, z0, dtype=dtype)
    if y.shape != t.shape:
        raise ValueError(f"decoder output {y.shape} does not match target {t.shape}")
    d = y - t
    return float(np.mean(d * d, dtype=np.float64))


def _loss_and_grad(spec, params, z0, t, dtype, schedule):
    y, cache = forward(spec, params, z0, dtype=dtype, return_cache=True)
    diff = y - t
    mse = float(np.mean(diff * diff, dtype=np.float64))
    g = diff * np.asarray(2.0 / diff.size, dtype=dtype)

    L = spec.n_layers
    g_kernels = [None] * L
    g_gammas = [None] * (L - 1)
    g_betas = [None] * (L - 1)
    for l in reversed(range(L)):
        c = cache[l]
        if c["kind"] == "out":
            y_l = c["y"]
            du = g * (1.0 - y_l * y_l)
        else:
            k_out = spec.widths[l + 1]
            gf = g.reshape(-1, k_out)
            xhat, inv = c["xhat"], c["inv"]
            gx = gf * xhat
            g_betas[l] = gf.sum(axis=0)
            g_gammas[l] = gx.sum(axis=0)
            gamma = np.asarray(params.gammas[l], dtype=dtype)
            dflat = (gamma * inv) * (gf - gf.mean(axis=0) - xhat * gx.mean(axis=0))
            du = dflat.reshape(c["u"].shape) * (c["u"] > 0)
            if l < spec.inner_count:
                for ax, n in reversed(schedule[l]):
                    du = mode_product(du, _upsampler(n, dtype).T, ax)
        z_in = c["z_in"]
        zf = z_in.reshape(-1, z_in.shape[-1])
        df = du.reshape(-1, du.shape[-1])
        g_kernels[l] = zf.T @ df
        if l > 0:
            w = np.asarray(params.kernels[l], dtype=dtype)
            g = (df @ w.T).reshape(z_in.shape)
    return mse, ParamSet(g_kernels, g_gammas, g_betas)


def gradient(spec: DecoderSpec, params: ParamSet, z0, target, dtype=np.float64) -> ParamSet:
    """Exact reverse-mode derivative of :func:`loss` with respect to every
    kernel entry and every batch-norm gamma/beta. Defaults to float64 so it
    can be checked against finite differences."""
    check_params(spec, params)
    t = np.asarray(_target_data(target), dtype=dtype)
    _, grads = _loss_and_grad(spec, params, z0, t, dtype, upsample_schedule(spec))
    return grads


def fit(
    spec: DecoderSpec,
    z0,
    target,
    config: FitConfig,
    init: ParamSet | None = None,
    dtype=np.float32,
) -> FitReport:
    """Run exactly `config.iterations` Adam steps and return the fitted
    parameters plus the loss trace.

    `z0=None` regenerates the seed tensor from spec.seed_rule; `init=None`
    draws the starting parameters from config.init_seed. Deterministic given
    both seeds. Raises FitDivergedError if the loss turns non-finite or
    exceeds 1e6 times its initial value.
    """
    start = time.perf_counter()
    t = np.asarray(_target_data(target), dtype=dtype)
    if z0 is None:
        z0 = generate_seed(spec.seed_rule, spec.seed_dims)
    z0 = np.ascontiguousarray(z0, dtype=dtype)

    params = init.copy().astype(dtype) if init is not None else init_params(spec, config.init_seed, dtype)
    check_params(spec, params)
    schedule = upsample_schedule(spec)

    arrays = params.arrays()
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    b1, b2 = config.betas
    lr, eps = config.learning_rate, config.adam_eps

    trace = []
    initial = None
    for it in range(config.iterations):
        mse, grads = _loss_and_grad(spec, params, z0, t, dtype, schedule)
        if initial is None:
            initial = mse
        if not np.isfinite(mse) or mse > DIVERGENCE_FACTOR * max(initial, np.finfo(np.float32).tiny):
            raise FitDivergedError(f"loss {mse} at iteration {it} (initial {initial})")
        if it % config.trace_every == 0:
            trace.append((it, mse))
        step = it + 1
        bc1 = 1.0 - b1**step
        bc2 = 1.0 - b2**step
        for a, g, mi, vi in zip(arrays, grads.arrays(), m, v):
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * (g * g)
            a -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)

    final = loss(spec, params, z0, t, dtype=dtype)
    if not np.isfinite(final):
        raise FitDivergedError(f"final loss {final} after {config.iterations} iterations")
    trace.append((config.iterations, final))
    return FitReport(trace=trace, params=params, final_mse=final, elapsed_s=time.perf_counter() - start)
