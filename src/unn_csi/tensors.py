"""Dense tensor kernels used throughout the decoder stack.

The decoder is built from exactly two tensor primitives: mode products and
fixed one-dimensional linear upsampling operators. Both operate on plain
numpy arrays (row-major layout, last index fastest); modes are 0-indexed
axes.
"""

from __future__ import annotations

from math import prod

import numpy as np

__all__ = ["mode_product", "make_upsampler"]


def mode_product(tensor: np.ndarray, matrix: np.ndarray, mode: int, out=None) -> np.ndarray:
    """Mode-`mode` product: multiply `matrix` onto every mode-`mode` fiber.

    `matrix` has shape ``(J, M_mode)``; the result replaces extent ``M_mode``
    by ``J``: ``result[..., j, ...] = sum_m matrix[j, m] * tensor[..., m, ...]``.
    The result is C-contiguous. `out`, if given, is a C-contiguous array with
    as many entries as the result; the product is written into it, and the
    returned array is a view of it in the result's shape.
    """
    a = np.asarray(tensor)
    u = np.asarray(matrix)
    if not 0 <= mode < a.ndim:
        raise ValueError(f"mode {mode} is out of range for a {a.ndim}-way tensor")
    if u.ndim != 2:
        raise ValueError("mode_product expects a 2-D matrix")
    if u.shape[1] != a.shape[mode]:
        raise ValueError(
            f"matrix columns ({u.shape[1]}) must match tensor extent "
            f"{a.shape[mode]} at mode {mode}"
        )
    src, dst = _mode_views(a, u.shape[0], mode, out)
    out = np.matmul(u, src, out=dst)
    return out.reshape(a.shape[:mode] + (u.shape[0],) + a.shape[mode + 1 :])


def _mode_views(tensor: np.ndarray, rows: int, mode: int, out=None):
    """The (pre, n, post) views a mode-`mode` product by a `rows`-row matrix
    multiplies and writes: of `tensor`, and of `out` (None stays None).

    On these views one batched matmul puts the new extent where the old one
    was, so the result is C-contiguous without an axis move. The decoder
    binds them once per workspace and then calls the matmul alone.
    """
    pre = prod(tensor.shape[:mode])
    src = tensor.reshape(pre, tensor.shape[mode], -1)
    return src, None if out is None else out.reshape(pre, rows, -1)


def make_upsampler(n: int) -> np.ndarray:
    """The fixed ``2n x n`` linear-interpolation operator used by inner layers.

    Output position ``p`` samples the source at the half-pixel coordinate
    ``s = (p + 0.5) / 2 - 0.5`` clamped to ``[0, n - 1]``, with weights
    ``(1 - frac(s), frac(s))`` on ``floor(s)`` and ``floor(s) + 1``. Every row
    sums to one and has at most two nonzeros; all weights are exact dyadic
    fractions, so the operator is bit-reproducible.
    """
    if n < 1:
        raise ValueError("upsampler source length must be >= 1")
    op = np.zeros((2 * n, n))
    for p in range(2 * n):
        s = (p + 0.5) / 2.0 - 0.5
        s = min(max(s, 0.0), float(n - 1))
        lo = int(np.floor(s))
        frac = s - lo
        op[p, lo] += 1.0 - frac
        if frac > 0.0:
            op[p, lo + 1] += frac
    return op
