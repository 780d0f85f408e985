"""The under-parameterized decoder: architecture spec, parameters, forward pass.

A spec's canonical JSON form (:func:`spec_to_json`) is both a spec file and
the header of a CSI report, and :func:`spec_from_json` reads both.

A decoder stacks three layer types. Inner layers apply a 1x1(x1) convolution
(a channel-mode product), double selected spatial modes with fixed linear
upsampling operators, then ReLU and per-filter batch normalization.
Pre-output layers do the same without upsampling. The output layer applies the
channel-mode product followed by TanH, so every output entry lies in (-1, 1).

The same code serves 3-way tensors (subcarrier x snapshot x channel) and 4-way
tensors (snapshot x subcarrier x user x channel); the spec just carries one
more spatial mode. Kernels are pointwise, so the parameter count does not
grow with the number of users.

The forward pass never builds a batch-normalized tensor. Batch norm is a
per-filter affine map, so it folds into the next layer's kernel W. With
ReLU output r, its centred form d = r - mu, a = gamma / sqrt(var + eps):

    BN(r) @ W = d @ (diag(a) W) + beta @ W

and the bias beta @ W commutes with upsampling, because every upsampler row
sums to one; it is added before upsampling, on the smaller tensor. Each
layer therefore computes only mu and var of its ReLU output and hands d to
the next kernel. The variance is two-pass (mean of d**2, never
E[r**2] - mu**2): ReLU outputs can sit far from zero with a small spread,
and the one-pass form then cancels to noise or a negative value in float32.
The first-pass mean of a float32 column is itself only accurate to the
rounding of its running sum, so d is centred once more by its own mean
(the corrected two-pass algorithm). :func:`batch_norm` uses the same
statistics.

There is one forward pass, :func:`_forward`, and it runs on a bound
workspace (:class:`_Workspace`). Building the workspace allocates every
activation array once. It also works out each operand that stays fixed
while the pass runs: the matrix views of each layer, each upsampling's
operator with its (pre, n, post) views, and the 1/N rows of batch norm.
So a pass makes only its numpy calls. A fit builds one workspace per batch
and reuses it every iteration. :func:`forward` with the cache or a given
seed tensor builds one for its single call. Without either, when every
matrix has at most _ROW_PRODUCT_ENTRIES entries (every desk spec), it
keeps its workspace, seed tensor included, for its spec and dtype, and
the next such call on an equal spec and dtype binds its parameters there:
a base station regenerating a stream of reports, single-UE and group
interleaved, builds that state once per spec. Workspaces are kept for the
last _KEPT_SPECS (spec, dtype) pairs used, the least recently used going
first. Larger specs build one per call: building is about 4 % of a
full-scale forward, and a kept workspace would hold about 2 MB. Without
the cache, a workspace holds just two scratch vectors and the output.

The workspace also fixes how each column reduction and row broadcast runs,
by the entries of its positions x filters matrix:

=============  ================  ===============  ==============  ===========
entries        batch-norm means  mean of squares  gradient sums   broadcasts
=============  ================  ===============  ==============  ===========
up to 16,384   (1/N) @ r         (1/N) @ (r * r)  ones @ g        row by row
up to 2^19     (1/N) @ r         einsum           einsum          wide view
above 2^19     einsum / N        einsum           einsum          wide view
=============  ================  ===============  ==============  ===========

Measured in float32 on a 2-core Xeon (2 MiB L2 per core), numpy 2.4.6 and
OpenBLAS 0.3.31 with its default two threads:

- Up to 16,384 entries (every desk matrix) a row product is one BLAS call
  per matrix, for a whole batch too, and beats numpy's reduction over the
  leading axis. Above it, the r * r and ones-row temporaries cost more
  than the dispatch they save: moving the larger matrices onto row
  products read +3-6 % and +2-4 % per full-scale iteration.
- einsum("ij->j") adds the rows in order, as g.sum(axis=-2) does, so it
  gives the same bits for more than one filter, in about half the time:
  0.31 instead of 0.55-0.65 ms at 12,288 x 72.
- A broadcast over a wide view (:func:`_tile`) runs one inner loop per
  128 rows instead of one per row, with the same bits: subtracting a row
  from 12,288 x 64 took 0.21 instead of 0.31-0.39 ms. It serves the bias
  add, both centring subtractions and the reverse pass's batch-norm
  correction.
- Above 2^19 entries (2 MiB, the 12,288 x 64 layers of group_full_a)
  OpenBLAS splits the one-row product (1/N) @ r over both cores, and the
  subtraction after it slows down too: it writes to lines of r that the
  other core has just read, and each must come back from that core first.
  The reverse pass of :mod:`unn_csi.fitting` keeps to the same rule. In a group_full_a iteration, the
  centring means and subtractions took 1.0 + 3.4-3.7 ms that way,
  0.9 + 1.5-1.7 ms with one BLAS thread, and 1.5 + 1.6-1.7 ms with einsum,
  which keeps off the BLAS threads. single_ue_full's 4,096 x 64 matrices
  keep the row product, 3x faster than einsum there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import cycle
from math import inf, prod, sqrt

import numpy as np

from ._fields import BOOL, FINITE, INT, OBJECT, check_keys, list_of, parse, read_field
from .tensors import _mode_views, make_upsampler

__all__ = [
    "SeedRule",
    "DecoderSpec",
    "ParamSet",
    "splitmix64",
    "uniform_stream",
    "generate_seed",
    "init_params",
    "batch_norm",
    "forward",
    "param_count",
    "compression_ratio",
    "spec_to_json",
    "spec_from_json",
]

BN_EPS = 1e-5
# the largest matrix, in entries, whose column reductions run as one BLAS row
# product (64 KiB of float32): every matrix of the desk specs. Above it the
# r * r and ones-row temporaries cost more than the dispatch they save, and
# row broadcasts run over wide views (see _tile).
_ROW_PRODUCT_ENTRIES = 1 << 14
# the largest matrix whose column means are the BLAS row product (1/N) @ r
# (2 MiB of float32, one core's L2 here); above it einsum takes them, on one
# core (see the module docstring)
_BLAS_MEAN_ENTRIES = 1 << 19
# the most rows a row broadcast is tiled over (see _tile): 128 x 64 float32
# is 32 KiB, within one core's L1 here
_TILE_ROWS = 128

_U64 = 0xFFFFFFFFFFFFFFFF
_SM64_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the SplitMix64 generator as uint64.

    Pure integer arithmetic mod 2**64, so the stream is bit-exact on every
    platform. Used for the decoder seed tensor and for parameter init.
    """
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _U64) + idx * _SM64_GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _SM64_MIX1
    z = (z ^ (z >> np.uint64(27))) * _SM64_MIX2
    return z ^ (z >> np.uint64(31))


def uniform_stream(seed: int, count: int) -> np.ndarray:
    """Deterministic doubles in [0, 1): the top 53 bits of each SplitMix64 word."""
    return (splitmix64(seed, count) >> np.uint64(11)) * (2.0**-53)


@dataclass(frozen=True)
class SeedRule:
    """How to regenerate the fixed random input tensor: PRNG seed and the
    half-range `a` of the uniform distribution U(-a, +a)."""

    seed: int
    half_range: float

    def __post_init__(self):
        if not 0 <= self.seed <= _U64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 < self.half_range < inf:  # zero would make the seed tensor all zeros
            raise ValueError("half_range must be finite and > 0")


@dataclass(frozen=True)
class DecoderSpec:
    """Architecture description. The layer counts follow from the lists:
    one inner (upsampling) layer per flag row, one output layer, and a
    pre-output layer for each further width.

    input_dims      spatial extents of the seed tensor (2 entries for the
                    single-user decoder, 3 for the multi-user decoder)
    widths          filter counts k_0..k_L (k_0 = seed depth, k_L = output width)
    upsample_flags  per inner layer, one bool per spatial mode
    seed_rule       rule for the fixed random input
    """

    input_dims: tuple
    widths: tuple
    upsample_flags: tuple
    seed_rule: SeedRule

    def __post_init__(self):
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        object.__setattr__(self, "widths", tuple(int(k) for k in self.widths))
        object.__setattr__(
            self, "upsample_flags", tuple(tuple(bool(f) for f in row) for row in self.upsample_flags)
        )
        if self.inner_count < 1:
            raise ValueError("need at least one inner layer")
        if len(self.widths) < self.inner_count + 2:  # k_0, one per inner layer, the output's
            raise ValueError(f"widths must list k_0..k_L, {self.inner_count + 2} or more: {len(self.widths)}")
        if any(k < 1 for k in self.widths):
            raise ValueError("filter widths must be positive")
        if any(d < 1 for d in self.input_dims):
            raise ValueError("seed extents must be positive")
        if any(len(row) != len(self.input_dims) for row in self.upsample_flags):
            raise ValueError("each flag row needs one entry per spatial mode")

    @property
    def inner_count(self) -> int:
        return len(self.upsample_flags)

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def n_spatial(self) -> int:
        return len(self.input_dims)

    @property
    def output_width(self) -> int:
        return self.widths[-1]

    @property
    def output_dims(self) -> tuple:
        dims = list(self.input_dims)
        for row in self.upsample_flags:
            for ax, on in enumerate(row):
                if on:
                    dims[ax] *= 2
        return tuple(dims) + (self.output_width,)

    @property
    def seed_dims(self) -> tuple:
        return self.input_dims + (self.widths[0],)


@dataclass
class ParamSet:
    """All trainable scalars of a decoder.

    kernels[l] is the (k_l, k_{l+1}) matrix of the 1x1(x1) convolution of
    layer l+1; gammas/betas hold the batch-norm affine pairs of every layer
    except the output layer.
    """

    kernels: list = field(default_factory=list)
    gammas: list = field(default_factory=list)
    betas: list = field(default_factory=list)

    def arrays(self) -> list:
        """Canonical flat view: layer-ascending, kernel then gamma then beta."""
        out = []
        for l, w in enumerate(self.kernels):
            out.append(w)
            if l < len(self.gammas):
                out.append(self.gammas[l])
                out.append(self.betas[l])
        return out


def check_params(spec: DecoderSpec, params: ParamSet) -> None:
    """Raise ValueError unless `params` matches the layer widths of `spec`."""
    L = spec.n_layers
    if len(params.kernels) != L or len(params.gammas) != L - 1 or len(params.betas) != L - 1:
        raise ValueError("parameter set does not match the layer count of the spec")
    for l in range(L):
        want = (spec.widths[l], spec.widths[l + 1])
        if tuple(params.kernels[l].shape) != want:
            raise ValueError(f"kernel {l} has shape {params.kernels[l].shape}, expected {want}")
        if l < L - 1:
            if params.gammas[l].shape != (spec.widths[l + 1],) or params.betas[l].shape != (
                spec.widths[l + 1],
            ):
                raise ValueError(f"batch-norm pair {l} does not match width {spec.widths[l + 1]}")


def generate_seed(rule: SeedRule, dims) -> np.ndarray:
    """The fixed random input tensor for `dims`, filled in row-major order with
    (2u - 1) * a for u drawn from the SplitMix64 uniform stream. Bit-exact."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError("seed extents must be positive")
    u = uniform_stream(rule.seed, prod(dims))
    return ((2.0 * u - 1.0) * rule.half_range).reshape(dims)


def init_params(spec: DecoderSpec, seed: int, dtype=np.float32) -> ParamSet:
    """Random starting point for a fit: kernel entries U(-s, s) with
    s = sqrt(1 / k_{l-1}), gamma = 1, beta = 0. One SplitMix64 stream drawn in
    canonical (layer-ascending, row-major) order keeps this reproducible."""
    total = sum(spec.widths[l] * spec.widths[l + 1] for l in range(spec.n_layers))
    u = uniform_stream(seed, total)
    params = ParamSet()
    pos = 0
    for l in range(spec.n_layers):
        k_in, k_out = spec.widths[l], spec.widths[l + 1]
        s = sqrt(1.0 / k_in)
        block = (2.0 * u[pos : pos + k_in * k_out] - 1.0) * s
        pos += k_in * k_out
        params.kernels.append(block.reshape(k_in, k_out).astype(dtype))
        if l < spec.n_layers - 1:
            params.gammas.append(np.ones(k_out, dtype=dtype))
            params.betas.append(np.zeros(k_out, dtype=dtype))
    return params


def param_count(spec: DecoderSpec) -> int:
    """Trainable scalar count: all kernel entries plus one (gamma, beta) pair
    per filter of every batch-normalized layer."""
    kernels = sum(spec.widths[l] * spec.widths[l + 1] for l in range(spec.n_layers))
    bn = sum(2 * spec.widths[l + 1] for l in range(spec.n_layers - 1))
    return kernels + bn


def compression_ratio(spec: DecoderSpec) -> float:
    """Parameter count over the number of complex channel coefficients the
    decoder reproduces (output spatial extents times output_width / 2)."""
    coeffs = prod(spec.output_dims[:-1]) * (spec.output_width // 2)
    return param_count(spec) / coeffs


def batch_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = BN_EPS) -> np.ndarray:
    """Per-filter normalization over all spatial positions of the single sample.

    Filters live on the last mode; mean and population variance are taken over
    everything else, with the same statistics as :func:`forward`.
    """
    x = np.asarray(x)
    if x.shape[-1] != len(gamma) or x.shape[-1] != len(beta):
        raise ValueError("gamma/beta length must equal the filter count (last extent)")
    d = x.reshape(-1, x.shape[-1]).copy()
    inv = _centre(d, *_centring(d, np.empty(_TILE_ROWS * d.shape[-1], d.dtype), eps))
    return (d * (np.asarray(gamma) * inv) + np.asarray(beta)).reshape(x.shape)


def _row_product_fits(m) -> bool:
    """Whether the column reductions of each matrix of `m` (a matrix, or a
    stack of them) run as one BLAS row product: true up to
    _ROW_PRODUCT_ENTRIES entries per matrix, whatever the stack's extent."""
    return m.shape[-2] * m.shape[-1] <= _ROW_PRODUCT_ENTRIES


def _tile(m, block) -> tuple:
    """(wide, tile): how a row is broadcast over each matrix of `m` (a
    matrix, or a stack of them) in place.

    Numpy runs `m op row` as one inner loop per row of m, k entries long.
    Above _ROW_PRODUCT_ENTRIES entries per matrix, `wide` is m seen as rows
    of R of its rows each, R the largest power of two up to _TILE_ROWS that
    divides its row count, and `tile` the (R x k, 1 x Rk) pair of views of
    the flat `block` that :func:`_tiled` repeats a row into: one inner loop
    per R rows, over the same entries with the same operands, so the same
    bits. Smaller matrices, those with an odd row count, and every matrix
    of a workspace without a tile area (`block` None) give (m, None).
    """
    if block is None:
        return m, None
    n, k = m.shape[-2:]
    rep = min(n & -n, _TILE_ROWS)
    if n * k <= _ROW_PRODUCT_ENTRIES or rep == 1:
        return m, None
    lead = m.shape[:-2]
    part = block[..., : rep * k]
    return m.reshape(lead + (n // rep, rep * k)), (part.reshape(lead + (rep, k)), part[..., None, :])


def _tiled(row, tile):
    """`row` (one per matrix) repeated into `tile` (see :func:`_tile`), as
    the operand of a broadcast over the wide view bound with it."""
    rows, wide = tile
    rows[...] = row
    return wide


def _each(reduce, m):
    """`reduce` of each matrix of `m` (a matrix, or a stack of them), one
    matrix at a time: einsum over a stack can split a long column
    differently from einsum over the matrix alone."""
    return reduce(m) if m.ndim == 2 else np.array([reduce(x) for x in m])


def _column_sums(m):
    """Sums the rows of `m` in order, like m.sum(axis=0) for k > 1, in
    about half its time, on one core."""
    return np.einsum("ij->j", m)


def _column_squares(m):
    return np.einsum("ij,ij->j", m, m)


def _centring(m, block, eps=BN_EPS) -> tuple:
    """The operands :func:`_centre` takes after the matrices shaped like
    `m`: the 1/N weight row (None above _BLAS_MEAN_ENTRIES, where einsum
    takes the means), whether :func:`_row_product_fits` them, eps in their
    dtype, and m's wide view and tile in `block` (:func:`_tile`)."""
    n, k = m.shape[-2:]
    weights = np.full((1, n), 1.0 / n, dtype=m.dtype) if n * k <= _BLAS_MEAN_ENTRIES else None
    return (weights, _row_product_fits(m), np.asarray(eps, dtype=m.dtype)) + _tile(m, block)


def _centre(r, weights, row_product, eps, wide, tile):
    """Centre the columns of `r` (positions x filters, or a stack of such
    matrices) in place and return 1 / sqrt(var + eps), one row of
    statistics per matrix; the other operands come from :func:`_centring`.

    The second mean removes the rounding error of the first one, which in
    float32 grows with the column length and the offset of the data; the
    variance is then the plain mean of squares of the centred values. The
    module docstring's table gives the reduction each matrix size takes.
    Each matrix of a stack gets the bits it gets alone.
    """
    if row_product:
        r -= weights @ r
        r -= weights @ r
        var = (weights @ (r * r))[..., 0, :]
    else:
        n = r.shape[-2]
        for _ in range(2):
            mean = weights @ r if weights is not None else (_each(_column_sums, r) / n)[..., None, :]
            wide -= mean if tile is None else _tiled(mean, tile)
        var = _each(_column_squares, r) / n
    return 1.0 / np.sqrt(var + eps)


@lru_cache(maxsize=None)
def _upsampler(n: int, dtype) -> np.ndarray:
    return make_upsampler(n).astype(dtype)


def _seed(spec: DecoderSpec, z0, dtype) -> np.ndarray:
    """`z0` (regenerated from spec.seed_rule when None) as a contiguous
    `dtype` array; ValueError unless its shape is spec.seed_dims."""
    if z0 is None:
        z0 = generate_seed(spec.seed_rule, spec.seed_dims)
    x = np.ascontiguousarray(z0, dtype=dtype)
    if x.shape != spec.seed_dims:
        raise ValueError(f"seed tensor has shape {x.shape}, spec wants {spec.seed_dims}")
    return x


def _step_shapes(spec: DecoderSpec, lead: tuple = ()) -> list:
    """Per layer, (plan, shapes): the (axis, source extent) pair of each of
    its upsamplings, and the tensor shape of each result before the ReLU,
    the kernel product and then each upsampling; `lead` is the batch axis,
    if any."""
    dims = list(spec.input_dims)
    layout = []
    for l in range(spec.n_layers):
        k = spec.widths[l + 1]
        plan, shapes = [], [lead + tuple(dims) + (k,)]
        for ax, on in enumerate(spec.upsample_flags[l] if l < spec.inner_count else ()):
            if on:
                plan.append((ax, dims[ax]))
                dims[ax] *= 2
                shapes.append(lead + tuple(dims) + (k,))
        layout.append((plan, shapes))
    return layout


def _workspace_nbytes(spec: DecoderSpec, dtype) -> int:
    """The bytes of the `dtype` arrays of the :class:`_Workspace` of one fit
    of `spec`: two scratch vectors the size of the largest activation, plus
    the ReLU input and output of every batch-norm layer. It leaves out the
    tile area and the bool ReLU mask (a quarter of the largest ReLU input
    in float32), so that batch sizes stay 19 for single_ue_desk and 6 for
    group_desk."""
    steps = [shapes for _, shapes in _step_shapes(spec)]
    size = max(prod(s) for shapes in steps for s in shapes)
    return (2 * size + 2 * sum(prod(shapes[-1]) for shapes in steps[:-1])) * np.dtype(dtype).itemsize


class _Workspace:
    """The passes of one decoder, or of a batch of decoders, bound to their
    arrays. Each array a pass writes is made once, so that no iteration
    allocates, and at full scale faults in, its working set; each operand
    that stays fixed is worked out once, so that an iteration makes only
    its numpy calls.

    `x` is a checked seed tensor and `params` the parameter arrays, in x's
    dtype or converted to it once here; for a batch of B they carry a
    leading batch axis (x of extent 1 or B). They are bound, not copied: a
    fit writes its parameters in place between passes. With the stacked
    targets `t` and the gradient arrays `grads`, the reverse pass of
    :func:`unn_csi.fitting._loss_and_grad` is bound too.

    fwd     per layer, (w, gamma, beta_row, x, v, ups, u, r, centring,
            v_wide, tile): the kernel; the previous layer's gamma and beta
            (as a row), None for layer 0; the input matrix (positions x
            filters) and the kernel product; per upsampling, (operator,
            source, destination), the (pre, n, post) views of
            :func:`tensors.mode_product`; the ReLU input and output as
            matrices, the operands of :func:`_centre`, and the kernel
            product's wide view and tile for the bias add (:func:`_tile`).
            For the output layer, u is the output tensor, which TanH
            overwrites, and r and centring are None.
    tensors per layer, the input and the ReLU input (the output, for the
            output layer) in tensor layout: the cache of :func:`forward`
    loss    (t, g, row, column, lead, size): the targets, the output
            gradient g, g as one row and one column per sample, the batch
            axis and the entries per sample
    rev     per layer from the last to layer 1, (l, ups_t, xt, g, g_w, w,
            gamma, beta_col, g_gamma, g_beta, ones, n, g_prev, x_wide,
            tile, u_prev, u_wide, mask): the transposed upsamplings, the
            transposed input matrix, the gradient at the kernel output, the
            layer's gradient arrays, the ones row of its column sums (None
            where einsum sums them), its position count, where g W_f^T
            goes, the wide view and tile of layer l-1's centred ReLU output
            (the input matrix, which the pass only reads), layer l-1's ReLU
            input with its wide view, which take the batch-norm correction,
            and where u_prev's 0/1 ReLU mask goes
    rev0    (ups_t, xt, g, g_w) for layer 0, which ends the reverse pass

    Only u and r, the forward cache, get arrays of their own, and only for
    a reverse pass or `cache`; a reverse pass also gets one bool buffer the
    size of the largest u, which each layer's mask takes in turn. A forward
    pass alone lets the ReLU overwrite
    u, and writes its output, which the caller keeps, into an array of its
    own. Every other step writes into one of two flat scratch vectors, each
    the size of the largest activation they hold, taking turns so that no
    step reads the vector it writes. Every row broadcast over a wide view
    tiles its row into one shared area after them, in the same allocation,
    of _TILE_ROWS rows of the widest layer per sample; a workspace whose
    matrices all have at most _ROW_PRODUCT_ENTRIES entries has none.
    Nothing bound refers back to the
    workspace, so a finished one is freed at once, not by the cyclic
    collector.
    """

    def __init__(self, spec: DecoderSpec, x, params: ParamSet, t=None, grads=None, cache=False):
        dtype = x.dtype
        lead = np.shape(params.kernels[0])[:-2]  # () or (B,)
        layout = _step_shapes(spec, lead)
        keep = cache or grads is not None
        size = max(prod(s) for _, shapes in (layout if keep else layout[:-1]) for s in shapes)
        # the output layer does not upsample: its one shape is its largest
        wide = max(size, prod(layout[-1][1][-1])) > prod(lead) * _ROW_PRODUCT_ENTRIES
        tile_area = prod(lead) * _TILE_ROWS * max(spec.widths) if wide else 0
        # both scratch vectors and the tile of every row broadcast, one allocation
        block = np.empty(2 * size + tile_area, dtype)
        turns = cycle((block[:size], block[size : 2 * size]))
        tiles = block[2 * size :].reshape(lead + (-1,)) if wide else None

        def take(shape):
            """A view of `shape` in the scratch vector the last one is not in."""
            return next(turns)[: prod(shape)].reshape(shape)

        L = spec.n_layers
        z, x_mat = x, x.reshape(x.shape[: x.ndim - spec.n_spatial - 1] + (-1, x.shape[-1]))
        self.tiled = wide
        self.fwd, self.tensors = [], []
        for l, (plan, shapes) in enumerate(layout):
            k = spec.widths[l + 1]
            w, gamma, beta_row = _layer_params(params, l, dtype)
            outs = [take(s) for s in shapes[:-1]]
            own = keep if l < L - 1 else not keep
            outs.append(np.empty(shapes[-1], dtype) if own else take(shapes[-1]))
            u, ups = outs[0], []
            for (ax, n), out in zip(plan, outs[1:]):
                op = _upsampler(n, dtype)
                ups.append((op, *_mode_views(u, 2 * n, ax + len(lead), out)))
                u = out
            v = outs[0].reshape(lead + (-1, k))
            self.tensors.append((z, u))
            if l == L - 1:
                self.fwd.append((w, gamma, beta_row, x_mat, v, ups, u, None, None, *_tile(v, tiles)))
                break
            r = np.empty_like(u) if keep else u
            u_mat, r_mat = u.reshape(lead + (-1, k)), r.reshape(lead + (-1, k))
            centring = _centring(r_mat, tiles)
            self.fwd.append((w, gamma, beta_row, x_mat, v, ups, u_mat, r_mat, centring, *_tile(v, tiles)))
            z, x_mat = r, r_mat
        if grads is None:
            return

        y = self.tensors[-1][1]
        g = take(y.shape)  # the output gradient, in the vector y is not in
        size = prod(spec.output_dims)
        self.loss = (t, g, g.reshape(lead + (1, size)), g.reshape(lead + (size, 1)), lead, size)
        self.rev = []
        # the ReLU masks of the reverse pass, one layer at a time
        mask = np.empty(max(self.fwd[l][6].size for l in range(L - 1)), bool)
        for l in reversed(range(L)):
            w, gamma, _, x_mat, v = self.fwd[l][:5]
            plan, shapes = layout[l]
            ups_t = []
            for (ax, n), shape in zip(reversed(plan), reversed(shapes[:-1])):
                out = take(shape)
                ups_t.append((_upsampler(n, dtype).T, *_mode_views(g, n, ax + len(lead), out)))
                g = out
            g = g.reshape(v.shape)
            xt = x_mat.swapaxes(-1, -2)
            if l == 0:
                self.rev0 = (ups_t, xt, g, grads.kernels[0])
                break
            beta_col = np.asarray(params.betas[l - 1], dtype=dtype)[..., None]
            ones = np.ones((1, g.shape[-2]), dtype) if _row_product_fits(g) else None
            g_prev = take(x_mat.shape)
            u_prev = self.fwd[l - 1][6]
            self.rev.append((
                l, ups_t, xt, g, grads.kernels[l], w, gamma, beta_col, grads.gammas[l - 1],
                grads.betas[l - 1], ones, x_mat.shape[-2], g_prev, *_tile(x_mat, tiles), u_prev,
                _tile(u_prev, tiles)[0], mask[: u_prev.size].reshape(u_prev.shape),
            ))
            g = g_prev.reshape(self.tensors[l - 1][1].shape)

    def bind(self, params: ParamSet) -> None:
        """Bind `params` in place of the parameters of this forward-only
        workspace, converted as :meth:`__init__` converts them."""
        dtype = self.fwd[0][3].dtype
        self.fwd = [_layer_params(params, l, dtype) + layer[3:] for l, layer in enumerate(self.fwd)]


def _layer_params(params: ParamSet, l: int, dtype) -> tuple:
    """(w, gamma, beta_row) of layer l as a :class:`_Workspace` binds them:
    its kernel, and the previous layer's gamma and beta (as a row), or None
    for layer 0, in `dtype`."""
    w = np.asarray(params.kernels[l], dtype=dtype)
    if l == 0:
        return w, None, None
    gamma = np.asarray(params.gammas[l - 1], dtype=dtype)
    return w, gamma, np.asarray(params.betas[l - 1], dtype=dtype)[..., None, :]


# the most (spec, dtype) pairs forward() keeps a workspace for (see _kept)
_KEPT_SPECS = 8


@lru_cache(maxsize=_KEPT_SPECS)
def _kept(spec: DecoderSpec, dtype) -> list:
    """The free list of forward-only workspaces of (spec, dtype) that
    :func:`forward` without z0 or cache runs on, none with a tile area: one
    at most, unless concurrent calls each put theirs back. A call pops its
    workspace, so that a concurrent call builds its own. A kept workspace
    keeps the last call's float32 parameter arrays referenced until the
    next call binds its own: unbinding them after each call read about
    14 us slower per call on a 2-core host."""
    return []


def forward(spec: DecoderSpec, params: ParamSet, z0=None, dtype=np.float32, return_cache=False):
    """Run the decoder; returns the output tensor of extents spec.output_dims.

    z0 defaults to the tensor regenerated from spec.seed_rule. All arithmetic
    happens in `dtype` (float32 by default; float64 for verification). With
    return_cache=True also returns, per layer, a dict of its `kind` ("bn",
    or "out" for the output layer) and these arrays in tensor layout:

    z_in  the input the layer's kernel is applied to: the seed tensor for
          layer 0, else the centred ReLU output d of the previous layer
    u     kernel output after bias and upsampling, the ReLU input ("bn")

    The arrays a call returns are its own. A call with the cache or a
    given z0 binds a workspace of its own. Without either, a desk-sized
    spec, whose matrices all have at most _ROW_PRODUCT_ENTRIES entries,
    runs on the workspace kept for its spec and dtype, if an earlier such
    call left one (see the module docstring). That kept workspace still
    refers to the last such call's parameter arrays (bound, not copied,
    when they are already in `dtype`) until the next such call on the spec
    binds its own, or the workspace is dropped. Without the cache, the
    workspace is two scratch vectors the size of the largest hidden
    activation, plus the output.
    """
    check_params(spec, params)
    if z0 is None and not return_cache:
        return _forward_reusing(spec, params, np.dtype(dtype))
    ws = _Workspace(spec, _seed(spec, z0, dtype), params, cache=return_cache)
    y = _forward(ws)
    if not return_cache:
        return y
    cache = [{"kind": "bn", "z_in": z_in, "u": u} for z_in, u in ws.tensors[:-1]]
    return y, cache + [{"kind": "out", "z_in": ws.tensors[-1][0]}]


def _forward_reusing(spec: DecoderSpec, params: ParamSet, dtype) -> np.ndarray:
    """:func:`forward` of `params` on the regenerated seed tensor, on the
    kept workspace of (spec, dtype) if there is one. A workspace without a
    tile area is kept afterwards, and the caller gets a copy of its output,
    taken before the workspace goes back: the next pass on it overwrites
    the output."""
    kept = _kept(spec, dtype)
    try:
        ws = kept.pop()
    except IndexError:
        ws = _Workspace(spec, _seed(spec, None, dtype), params)
    else:
        ws.bind(params)
    y = _forward(ws)
    if ws.tiled:
        return y
    y = y.copy()
    if not kept:
        kept.append(ws)
    return y


def _forward(ws: _Workspace, folded=None) -> np.ndarray:
    """The layers of :func:`forward` on the arrays bound in `ws`, for one
    decoder or for a batch of them; returns the output tensor bound in
    `ws`. Appends each layer's folded kernel and 1 / sqrt(var + eps) (the
    previous layer's, for the output layer) to `folded` unless it is None.

    Every product is a matmul, stacked over a batch, which makes one BLAS
    call per sample, and every other step works per sample. So a sample's
    bits do not depend on B, on its place in the batch, or on whether it
    runs in a batch at all.
    """
    inv = None
    for w, gamma, beta_row, x, v, ups, u, r, centring, v_wide, tile in ws.fwd:
        if gamma is not None:  # fold the previous layer's batch norm into this kernel
            bias = beta_row @ w
            w = (gamma * inv)[..., None] * w
        np.matmul(x, w, out=v)
        if gamma is not None:
            v_wide += bias if tile is None else _tiled(bias, tile)
        for op, src, dst in ups:
            np.matmul(op, src, out=dst)
        if r is None:
            y = np.tanh(u, out=u)
        else:
            np.maximum(u, 0, out=r)
            inv = _centre(r, *centring)
        if folded is not None:
            folded.append((w, inv))
    return y


def spec_to_json(spec: DecoderSpec) -> str:
    """Canonical JSON form (sorted keys, no whitespace) of a DecoderSpec:
    a spec file's content, and a report's header."""
    doc = {
        "input_dims": list(spec.input_dims),
        "widths": list(spec.widths),
        "upsample_flags": [list(row) for row in spec.upsample_flags],
        "seed_rule": {"seed": spec.seed_rule.seed, "half_range": spec.seed_rule.half_range},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


_SPEC = "decoder spec"
_spec_field = partial(read_field, _SPEC)


def spec_from_json(text: str) -> DecoderSpec:
    """Parse a spec file or report header, the inverse of
    :func:`spec_to_json`. JSON nested too deep, a key other than the four
    fields and the seed rule's two, or a missing or mistyped field raises
    ValueError naming the field."""
    doc = check_keys(_SPEC, parse(_SPEC, text), ("input_dims", "widths", "upsample_flags", "seed_rule"))
    rule = check_keys(_SPEC, _spec_field(doc, "seed_rule", OBJECT), ("seed", "half_range"), "seed_rule.")
    return DecoderSpec(
        input_dims=_spec_field(doc, "input_dims", list_of(INT)),
        widths=_spec_field(doc, "widths", list_of(INT)),
        upsample_flags=_spec_field(doc, "upsample_flags", list_of(list_of(BOOL))),
        seed_rule=SeedRule(
            _spec_field(rule, "seed", INT, "seed_rule."),
            float(_spec_field(rule, "half_range", FINITE, "seed_rule.")),
        ),
    )


def load_spec(path) -> DecoderSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(fh.read())


def params_to_vector(params: ParamSet) -> np.ndarray:
    """All scalars in canonical order (layer-ascending; kernel row-major, then
    gamma, then beta) as one flat array."""
    return np.concatenate([np.asarray(a).ravel() for a in params.arrays()])


def param_views(spec: DecoderSpec, vec: np.ndarray) -> ParamSet:
    """ParamSet whose arrays are views into the flat vector `vec`, laid out in
    the canonical order of :func:`params_to_vector`; writing an array writes
    `vec`. A (B, P) block of B such vectors gives arrays with a leading batch
    axis, one sample per row."""
    if vec.shape[-1] != param_count(spec):
        raise ValueError(f"vector has {vec.shape[-1]} entries, spec needs {param_count(spec)}")
    lead = vec.shape[:-1]
    params = ParamSet()
    pos = 0
    for l in range(spec.n_layers):
        k_in, k_out = spec.widths[l], spec.widths[l + 1]
        params.kernels.append(vec[..., pos : pos + k_in * k_out].reshape(lead + (k_in, k_out)))
        pos += k_in * k_out
        if l < spec.n_layers - 1:
            params.gammas.append(vec[..., pos : pos + k_out])
            params.betas.append(vec[..., pos + k_out : pos + 2 * k_out])
            pos += 2 * k_out
    return params
