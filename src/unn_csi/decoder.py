"""The under-parameterized decoder: architecture spec, parameters, forward pass.

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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from math import prod, sqrt

import numpy as np

from ._fields import BOOL, INT, NUMBER, OBJECT, list_of, read_field
from .tensors import make_upsampler, mode_product

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
# r * r and ones-row temporaries cost more than the dispatch they save.
_ROW_PRODUCT_ENTRIES = 1 << 14

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
        if self.half_range < 0:
            raise ValueError("half_range must be >= 0")


@dataclass(frozen=True)
class DecoderSpec:
    """Architecture description.

    input_dims      spatial extents of the seed tensor (2 entries for the
                    single-user decoder, 3 for the multi-user decoder)
    widths          filter counts k_0..k_L (k_0 = seed depth, k_L = output width)
    inner_count     number of upsampling layers
    preoutput_count number of non-upsampling BN layers before the output
    upsample_flags  per inner layer, one bool per spatial mode
    seed_rule       rule for the fixed random input
    """

    input_dims: tuple
    widths: tuple
    inner_count: int
    preoutput_count: int
    upsample_flags: tuple
    seed_rule: SeedRule

    def __post_init__(self):
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        object.__setattr__(self, "widths", tuple(int(k) for k in self.widths))
        object.__setattr__(
            self, "upsample_flags", tuple(tuple(bool(f) for f in row) for row in self.upsample_flags)
        )
        if self.inner_count < 1 or self.preoutput_count < 0:
            raise ValueError("need at least one inner layer")
        if len(self.widths) != self.n_layers + 1:
            raise ValueError(
                f"widths must list k_0..k_L ({self.n_layers + 1} values), got {len(self.widths)}"
            )
        if any(k < 1 for k in self.widths):
            raise ValueError("filter widths must be positive")
        if any(d < 1 for d in self.input_dims):
            raise ValueError("seed extents must be positive")
        if len(self.upsample_flags) != self.inner_count:
            raise ValueError("need one upsample flag row per inner layer")
        if any(len(row) != len(self.input_dims) for row in self.upsample_flags):
            raise ValueError("each flag row needs one entry per spatial mode")

    @property
    def n_layers(self) -> int:
        return self.inner_count + self.preoutput_count + 1

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
    d, inv = _centre(x.reshape(-1, x.shape[-1]).copy(), eps)
    return (d * (np.asarray(gamma) * inv) + np.asarray(beta)).reshape(x.shape)


def _row_product_fits(m) -> bool:
    """Whether the column reductions of each matrix of `m` (a matrix, or a
    stack of them) run as one BLAS row product: true up to
    _ROW_PRODUCT_ENTRIES entries per matrix, whatever the stack's extent."""
    return m.shape[-2] * m.shape[-1] <= _ROW_PRODUCT_ENTRIES


def _centre(r, eps=BN_EPS):
    """Centre the columns of `r` (positions x filters, or a stack of such
    matrices) in place and return (r, 1 / sqrt(var + eps)), one row of
    statistics per matrix.

    The second mean removes the rounding error of the first one, which in
    float32 grows with the column length and the offset of the data; the
    variance is then the plain mean of squares of the centred values. Means
    are row products with 1/N weights: BLAS runs them several times faster
    than numpy's reduction over the leading axis, and on a stack it makes
    the same call per matrix. A matrix small enough for
    :func:`_row_product_fits` takes its mean of squares the same way,
    (1/N) @ (r * r): one call for a whole stack. A larger one sums its
    squares by einsum, without the r * r temporary, one matrix at a time:
    einsum over a stack can split a long column differently from einsum
    over the matrix alone. So each matrix of a stack gets the bits it gets
    alone.
    """
    n = r.shape[-2]
    weights = np.full((1, n), 1.0 / n, dtype=r.dtype)
    r -= weights @ r
    r -= weights @ r
    if _row_product_fits(r):
        var = (weights @ (r * r))[..., 0, :]
    elif r.ndim == 2:
        var = np.einsum("ij,ij->j", r, r) / n
    else:
        var = np.array([np.einsum("ij,ij->j", m, m) for m in r]) / n
    return r, 1.0 / np.sqrt(var + np.asarray(eps, dtype=r.dtype))


_UPSAMPLER_CACHE: dict = {}


def _upsampler(n: int, dtype) -> np.ndarray:
    key = (n, dtype)
    op = _UPSAMPLER_CACHE.get(key)
    if op is None:
        op = make_upsampler(n).astype(dtype)
        _UPSAMPLER_CACHE[key] = op
    return op


def upsample_schedule(spec: DecoderSpec) -> list:
    """Per inner layer, the (axis, source extent) pairs of enabled upsamplings."""
    extents = list(spec.input_dims)
    schedule = []
    for row in spec.upsample_flags:
        steps = []
        for ax, on in enumerate(row):
            if on:
                steps.append((ax, extents[ax]))
                extents[ax] *= 2
        schedule.append(steps)
    return schedule


def _seed(spec: DecoderSpec, z0, dtype) -> np.ndarray:
    """`z0` (regenerated from spec.seed_rule when None) as a contiguous
    `dtype` array; ValueError unless its shape is spec.seed_dims."""
    if z0 is None:
        z0 = generate_seed(spec.seed_rule, spec.seed_dims)
    x = np.ascontiguousarray(z0, dtype=dtype)
    if x.shape != spec.seed_dims:
        raise ValueError(f"seed tensor has shape {x.shape}, spec wants {spec.seed_dims}")
    return x


class _Workspace:
    """The arrays the forward and reverse passes of one fit, or of a batch
    of `batch` fits, write into, made once so that no iteration allocates,
    and at full scale faults in, its working set. For a batch, every array
    has a leading batch axis.

    fwd[l]  what layer l writes, in order: the kernel product and each
            upsampling, the last of which is the ReLU input u, then the
            ReLU output r; the output layer's TanH overwrites its product
    rev     what the reverse pass writes, in order: the output gradient,
            then per layer, last to first, each transposed upsampling and
            g W_f^T
    nbytes  the bytes all of it takes

    Only u and r, the forward cache, get arrays of their own. Every other
    step writes into one of two flat scratch vectors the size of the largest
    activation, taking turns so that no step reads the vector it writes.
    """

    def __init__(self, spec: DecoderSpec, dtype, batch: int | None = None):
        self.schedule = schedule = upsample_schedule(spec)
        lead = () if batch is None else (batch,)
        steps = []  # per layer, the tensor shape of each result before the ReLU
        dims = list(lead + spec.input_dims)
        for l in range(spec.n_layers):
            k = spec.widths[l + 1]
            shapes = [tuple(dims) + (k,)]
            for ax, _ in schedule[l] if l < spec.inner_count else ():
                dims[ax + len(lead)] *= 2
                shapes.append(tuple(dims) + (k,))
            steps.append(shapes)
        size = max(prod(s) for shapes in steps for s in shapes)
        scratch = (np.empty(size, dtype), np.empty(size, dtype))
        self.nbytes = (2 * size + 2 * sum(prod(shapes[-1]) for shapes in steps[:-1])) * scratch[0].itemsize

        def alternate(shapes, first):
            """Views of `shapes`, taking turns between the scratch vectors."""
            return [scratch[(first + i) % 2][: prod(s)].reshape(s) for i, s in enumerate(shapes)]

        self.fwd = []
        for l, shapes in enumerate(steps):
            outs = alternate(shapes, 0)
            if l == spec.n_layers - 1:
                outs.append(outs[-1])
            else:
                outs[-1:] = [np.empty(shapes[-1], dtype), np.empty(shapes[-1], dtype)]
            outs[0] = outs[0].reshape(lead + (-1, shapes[0][-1]))
            self.fwd.append(outs)

        order = [steps[-1][-1]]  # the output gradient, in the vector the TanH output is not in
        for l in reversed(range(spec.n_layers)):
            order += reversed(steps[l][:-1])
            if l > 0:
                order.append(lead + (prod(steps[l][0][len(lead) : -1]), spec.widths[l]))
        self.rev = alternate(order, 1)


def forward(spec: DecoderSpec, params: ParamSet, z0=None, dtype=np.float32, return_cache=False):
    """Run the decoder; returns the output tensor of extents spec.output_dims.

    z0 defaults to the tensor regenerated from spec.seed_rule. All arithmetic
    happens in `dtype` (float32 by default; float64 for verification). With
    return_cache=True also returns, per layer, the intermediates the reverse
    pass in :mod:`unn_csi.fitting` needs, in tensor layout:

    z_in  the input the layer's kernel is applied to: the seed tensor for
          layer 0, else the centred ReLU output d of the previous layer
    w     the kernel actually applied (the folded diag(a) W after layer 0)
    u     kernel output after bias and upsampling, the ReLU input ("bn")
    inv   per filter 1 / sqrt(var + eps) of the ReLU output ("bn")
    y     the TanH output (the last layer, kind "out")
    """
    check_params(spec, params)
    x = _seed(spec, z0, dtype)
    cache = [] if return_cache else None
    y = _forward(spec, params, x, cache)
    if return_cache:
        return y, cache
    return y


def _forward(spec: DecoderSpec, params: ParamSet, x: np.ndarray, cache=None, ws=None) -> np.ndarray:
    """The layers of :func:`forward` on a checked seed tensor `x`, in its
    dtype, for one decoder or for a batch of them: for a batch of B, every
    array of `params` carries a leading batch axis, and so does `x`, of
    extent 1 (one seed for every sample) or B. Appends each layer's
    intermediates to `cache` unless it is None. Each large intermediate is
    written into the arrays of the workspace `ws`, or allocated when there
    is none.

    Every product is a matmul, stacked over a batch, which makes one BLAS
    call per sample, and every other step works per sample. So a sample's
    bits do not depend on B, on its place in the batch, or on whether it
    runs in a batch at all.
    """
    dtype = x.dtype
    lead = x.shape[: x.ndim - spec.n_spatial - 1]  # () or (1,) or (B,)
    schedule = upsample_schedule(spec) if ws is None else ws.schedule
    L = spec.n_layers
    for l in range(L):
        outs = iter(ws.fwd[l]) if ws is not None else repeat(None)
        w = np.asarray(params.kernels[l], dtype=dtype)
        if l > 0:  # fold the previous layer's batch norm into this kernel
            gamma = np.asarray(params.gammas[l - 1], dtype=dtype)
            bias = np.asarray(params.betas[l - 1], dtype=dtype)[..., None, :] @ w
            w = (gamma * inv)[..., None] * w
        v = np.matmul(x.reshape(lead + (-1, x.shape[-1])), w, out=next(outs))
        if l > 0:
            v += bias
        u = v.reshape(v.shape[:-2] + x.shape[len(lead) : -1] + (w.shape[-1],))
        if l < spec.inner_count:
            for ax, n in schedule[l]:
                u = mode_product(u, _upsampler(n, dtype), ax + len(lead), out=next(outs))
        if l == L - 1:
            y = np.tanh(u, out=next(outs))
            if cache is not None:
                cache.append({"kind": "out", "z_in": x, "w": w, "y": y})
        else:
            r = np.maximum(u, 0, out=next(outs))
            d, inv = _centre(r.reshape(v.shape[:-2] + (-1, u.shape[-1])))
            if cache is not None:
                cache.append({"kind": "bn", "z_in": x, "w": w, "u": u, "inv": inv})
            x = d.reshape(u.shape)
            lead = v.shape[:-2]
    return y


def spec_to_json(spec: DecoderSpec) -> str:
    """Canonical JSON form (sorted keys, no whitespace) of a DecoderSpec."""
    doc = {
        "input_dims": list(spec.input_dims),
        "widths": list(spec.widths),
        "inner_count": spec.inner_count,
        "preoutput_count": spec.preoutput_count,
        "upsample_flags": [list(row) for row in spec.upsample_flags],
        "seed_rule": {"seed": spec.seed_rule.seed, "half_range": spec.seed_rule.half_range},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


_spec_field = partial(read_field, "decoder spec")


def spec_from_json(text: str) -> DecoderSpec:
    """Parse the canonical JSON form. A missing or mistyped field raises
    ValueError naming the field."""
    doc = json.loads(text)
    rule = _spec_field(doc, "seed_rule", OBJECT)
    return DecoderSpec(
        input_dims=_spec_field(doc, "input_dims", list_of(INT)),
        widths=_spec_field(doc, "widths", list_of(INT)),
        inner_count=_spec_field(doc, "inner_count", INT),
        preoutput_count=_spec_field(doc, "preoutput_count", INT),
        upsample_flags=_spec_field(doc, "upsample_flags", list_of(list_of(BOOL))),
        seed_rule=SeedRule(
            _spec_field(rule, "seed", INT, "seed_rule."),
            float(_spec_field(rule, "half_range", NUMBER, "seed_rule.")),
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


def params_from_vector(spec: DecoderSpec, vec: np.ndarray, dtype=np.float32) -> ParamSet:
    """Parameters copied out of a canonical flat vector (see :func:`param_views`)."""
    return param_views(spec, np.array(vec, dtype=dtype))
