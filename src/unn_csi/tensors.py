"""Dense tensor kernels used throughout the decoder stack.

The decoder is built from exactly three tensor primitives: mode unfoldings,
mode products, and fixed one-dimensional linear upsampling operators. All of
them operate on plain numpy arrays (row-major layout, last index fastest);
modes are 0-indexed axes.
"""

from __future__ import annotations

from math import prod

import numpy as np

__all__ = ["unfold", "fold", "mode_product", "make_upsampler"]


def _check_mode(ndim: int, mode: int) -> None:
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} is out of range for a {ndim}-way tensor")


def _cyclic_order(ndim: int, mode: int) -> list[int]:
    # the unfolded mode first, remaining axes in cyclic order mode+1, ..., mode-1
    return [(mode + i) % ndim for i in range(ndim)]


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-`mode` unfolding of a tensor.

    Returns the matrix of shape ``(M_mode, prod(other extents))`` whose columns
    are the mode-`mode` fibers. Columns enumerate the remaining indices in the
    cyclic order ``mode+1, ..., D-1, 0, ..., mode-1`` with the last of those
    indices varying fastest.
    """
    a = np.asarray(tensor)
    _check_mode(a.ndim, mode)
    return np.transpose(a, _cyclic_order(a.ndim, mode)).reshape(a.shape[mode], -1)


def fold(matrix: np.ndarray, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of extents `shape`."""
    shape = tuple(int(s) for s in shape)
    _check_mode(len(shape), mode)
    m = np.asarray(matrix)
    order = _cyclic_order(len(shape), mode)
    if m.shape[0] != shape[mode] or m.size != int(np.prod(shape)):
        raise ValueError(f"matrix of shape {m.shape} does not fold into {shape} at mode {mode}")
    permuted = m.reshape([shape[ax] for ax in order])
    return np.transpose(permuted, np.argsort(order))


def mode_product(tensor: np.ndarray, matrix: np.ndarray, mode: int, out=None) -> np.ndarray:
    """Mode-`mode` product: multiply `matrix` onto every mode-`mode` fiber.

    `matrix` has shape ``(J, M_mode)``; the result replaces extent ``M_mode``
    by ``J``. Equivalent to ``fold(matrix @ unfold(tensor, mode), mode, ...)``.
    The result is C-contiguous. `out`, if given, is a C-contiguous array with
    as many entries as the result; the product is written into it, and the
    returned array is a view of it in the result's shape.
    """
    a = np.asarray(tensor)
    u = np.asarray(matrix)
    _check_mode(a.ndim, mode)
    if u.ndim != 2:
        raise ValueError("mode_product expects a 2-D matrix")
    if u.shape[1] != a.shape[mode]:
        raise ValueError(
            f"matrix columns ({u.shape[1]}) must match tensor extent "
            f"{a.shape[mode]} at mode {mode}"
        )
    # on a (pre, n, post) view one batched matmul puts the new extent where
    # the old one was, so the result is C-contiguous without an axis move
    pre = prod(a.shape[:mode])
    if out is not None:
        out = out.reshape(pre, u.shape[0], -1)
    out = np.matmul(u, a.reshape(pre, a.shape[mode], -1), out=out)
    return out.reshape(a.shape[:mode] + (u.shape[0],) + a.shape[mode + 1 :])


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
