"""The over-the-air CSI report: a fitted decoder serialized to bytes.

A report carries only what the receiving side cannot work out itself: the
canonical decoder spec JSON (including the seed rule) as its header, then
the per-snapshot norms and scale factor of the preprocessing as
little-endian float64 and every trainable scalar in canonical order, as
little-endian float16 when that is lossless (dtype tag 1) and float32
otherwise (tag 0). :func:`round_to_float16` makes a fitted set lossless at
2 bytes a weight. The weights travel as byte planes: every plane but the
most significant raw, and that one, the sign and exponent bits, as one
raw-DEFLATE Huffman-only stream running to the end of the report.
Encoding is deterministic for a given zlib build, so any two encoders on
one zlib produce identical bytes from identical inputs; decode is the exact
inverse, and refuses every report version but the one encode writes.
Decode parses each distinct header once: it keeps the spec and section
layout of the last _MEMO_SIZE headers that parsed, dropping the least
recently used. See docs/csir-format.md for the byte layout.
"""

from __future__ import annotations

import math
import struct
import zlib
from functools import lru_cache

import numpy as np

from .channel import postprocess, split_users
from .decoder import (
    DecoderSpec,
    ParamSet,
    check_params,
    forward,
    param_count,
    param_views,
    params_to_vector,
    spec_from_json,
    spec_to_json,
)

__all__ = ["CodecError", "encode", "decode", "recreate", "payload_bytes", "round_to_float16"]

REPORT_MAGIC = b"CSIR"
REPORT_VERSION = 5  # the one version encode writes and decode reads
_DTYPE_F32, _DTYPE_F16 = 0, 1  # payload dtype tags: the weights as float32, or as float16
_WEIGHT_DTYPES = {_DTYPE_F32: np.dtype("<f4"), _DTYPE_F16: np.dtype("<f2")}
_F16_OVERFLOW = 65520.0  # the least magnitude float16 rounds to infinity
# the distinct headers whose spec and section layout decode keeps, so that
# a base station parses each header once: a header is kept once it parses,
# as the canonical JSON of a spec, and the least recently used goes first
_MEMO_SIZE = 64


class CodecError(ValueError):
    """Malformed or corrupted CSI report."""


def payload_bytes(blob) -> int:
    """The bytes of weights the report `blob`, any bytes-like object,
    carries: its raw byte planes and its coded plane, the section behind the
    norms and scale. Reads the frame and header only, CodecError on those as
    :func:`decode` raises it; it checks neither the CRC nor the sections, so
    the count is that of a report only if :func:`decode` takes it."""
    blob = memoryview(blob).cast("B")  # len counts bytes, whatever the buffer's items
    crc_at = _frame(blob)[1]
    header = bytes(blob[11:crc_at])
    n_head = _layout(header)[4]
    return len(blob) - crc_at - 4 - 8 * n_head


def round_to_float16(params: ParamSet) -> bool:
    """Round every weight of `params` to its nearest float16 value, in place,
    so that :func:`encode` carries the set at 2 bytes a weight. Returns
    False, leaving `params` alone, if a weight would overflow float16."""
    arrays = params.arrays()
    if any(max(a.max(), -a.min()) >= _F16_OVERFLOW for a in arrays):
        return False
    for a in arrays:
        a[...] = a.astype(np.float16)
    return True


def _crc(blob: bytes, crc_at: int) -> int:
    """The CRC-32 a report carries at offset `crc_at`: over every byte but
    the CRC field itself."""
    return zlib.crc32(blob[crc_at + 4 :], zlib.crc32(blob[:crc_at]))


def _shapes(spec: DecoderSpec) -> dict:
    """The shapes of the norms and the scale that undo the preprocessing of
    `spec`'s output: (n_sp,) and one number for a single-user spec,
    (M, n_sp) and M numbers for a group, n_sp snapshots and M users."""
    dims = spec.output_dims
    if spec.n_spatial == 2:  # (n_sub, n_sp, 2 n_ant)
        return {"norms": (dims[1],), "scale": ()}
    if spec.n_spatial != 3:
        raise ValueError(f"a report's decoder has 2 or 3 spatial modes, not {spec.n_spatial}")
    return {"norms": (dims[2], dims[0]), "scale": (dims[2],)}  # (n_sp, n_sub, M, 2 n_ant)


def _positive(arr: np.ndarray) -> bool:
    """Whether every entry of the non-empty `arr` is finite and > 0: two
    reductions, which a NaN entry turns into NaN and so fails."""
    return bool(arr.min() > 0 and arr.max() < math.inf)


def _checked(arr: np.ndarray, shape) -> np.ndarray:
    """`arr`; ValueError unless its shape is `shape` and every entry is
    finite and > 0."""
    if arr.shape != shape:
        raise ValueError(f"shape {arr.shape}, the spec needs {shape}")
    if not _positive(arr):
        raise ValueError("every entry must be finite and > 0")
    return arr


def _weights(params: ParamSet) -> tuple:
    """(dtype tag, bytes) of the canonical weight vector: little-endian
    float16 if every weight is a float16 value, float32 otherwise, as byte
    planes (see :func:`_planes`); ValueError naming the array (kind and
    layer, layer 1 first) of the first weight that is not finite as float32,
    a float64 beyond the float32 range included."""
    with np.errstate(over="ignore"):  # such a weight casts to inf, refused below
        vec = params_to_vector(params).astype("<f4")
    finite = np.isfinite(vec)
    if not finite.all():
        ends = np.cumsum([np.size(a) for a in params.arrays()])
        k = int(np.searchsorted(ends, np.argmin(finite), side="right"))  # kernel, gamma, beta per layer
        kind = ("kernel", "gamma", "beta")[k % 3]
        raise ValueError(f"layer {k // 3 + 1} {kind} has a weight not finite as float32")
    half = _as_float16(vec)
    return (_DTYPE_F32, _planes(vec)) if half is None else (_DTYPE_F16, _planes(half))


def _planes(vec: np.ndarray) -> bytes:
    """The little-endian `vec` as byte planes, plane k holding byte k of
    every weight: all but the most significant plane raw, least significant
    first, then that plane as one raw-DEFLATE Huffman-only stream."""
    planes = vec.view(np.uint8).reshape(vec.size, vec.itemsize).T
    coder = zlib.compressobj(9, zlib.DEFLATED, -15, 9, zlib.Z_HUFFMAN_ONLY)
    return planes[:-1].tobytes() + coder.compress(planes[-1].tobytes()) + coder.flush()


def _as_float16(vec: np.ndarray):
    """The float32 `vec` as little-endian float16 if every entry is a
    float16 value, else None."""
    with np.errstate(over="ignore"):  # a weight beyond the float16 range casts to inf: not equal
        # the first weight settles most float32 sets before the float16 copy is made
        if np.float16(vec[0]) != vec[0]:
            return None
        half = vec.astype("<f2")
    return half if (half == vec).all() else None


def encode(spec: DecoderSpec, params: ParamSet, snapshot_norms, scale) -> bytes:
    """Serialize a fitted decoder into the (version 5) report byte stream,
    the weights as float16 (dtype tag 1) exactly when every one of them is a
    float16 value, as float32 (tag 0) otherwise.

    Raises ValueError unless `spec` has 2 or 3 spatial modes, naming the
    field unless `snapshot_norms` and `scale` have the shapes of `spec` (see
    docs/csir-format.md) and every entry is finite and > 0, and naming the
    array unless every weight is finite as float32."""
    check_params(spec, params)
    head = []
    for (name, shape), value in zip(_shapes(spec).items(), (snapshot_norms, scale)):
        try:
            arr = _checked(np.asarray(value, dtype=float), shape)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name}: {exc}") from None
        head.append(arr.astype("<f8").tobytes())
    header = spec_to_json(spec).encode("utf-8")
    dtype_tag, weights = _weights(params)
    payload = b"".join(head) + weights
    frame = REPORT_MAGIC + struct.pack("<HBI", REPORT_VERSION, dtype_tag, len(header)) + header
    blob = bytearray().join([frame, bytes(4), payload])  # a zero CRC, set below
    struct.pack_into("<I", blob, len(frame), _crc(blob, len(frame)))
    return bytes(blob)


@lru_cache(maxsize=_MEMO_SIZE)
def _layout(header: bytes) -> tuple:
    """What decode derives from a report's header: (spec, norms shape,
    scale shape, norm count, float64 count, weight count, cuts), the cuts
    (kernel (slice, shape) pairs, gamma slices, beta slices) placing each
    array in the weight vector as :func:`~unn_csi.decoder.param_views`
    does. CodecError unless the header is the canonical JSON of a spec
    :func:`encode` takes."""
    try:  # UTF-8 first: json.loads would also take UTF-16 and UTF-32 bytes
        spec = spec_from_json(header.decode("utf-8"))
        shapes = _shapes(spec)
    except ValueError as exc:  # bad UTF-8 or JSON, or not a report's spec
        raise CodecError(f"malformed header: {exc}") from exc
    if header != spec_to_json(spec).encode("utf-8"):
        raise CodecError("malformed header: not the canonical JSON of its spec")
    n_norms = math.prod(shapes["norms"])
    n_head = n_norms + math.prod(shapes["scale"])
    n_weights = param_count(spec)
    where = param_views(spec, np.arange(n_weights))  # each entry holds its own offset

    def cut(a):
        return slice(int(a.flat[0]), int(a.flat[-1]) + 1)

    cuts = [(cut(k), k.shape) for k in where.kernels], [cut(g) for g in where.gammas], [cut(b) for b in where.betas]
    return spec, shapes["norms"], shapes["scale"], n_norms, n_head, n_weights, cuts


def _frame(blob: memoryview) -> tuple:
    """(dtype tag, CRC offset) of the report `blob`, a byte view; CodecError
    on a bad magic, any other version, a dtype tag other than 0 and 1, or a
    header length that overruns `blob`."""
    if len(blob) < 11 or blob[:4] != REPORT_MAGIC:
        raise CodecError("not a CSI report (bad magic)")
    version, dtype_tag, header_len = struct.unpack_from("<HBI", blob, 4)
    if version != REPORT_VERSION:
        raise CodecError(f"unknown report version {version}")
    if dtype_tag not in _WEIGHT_DTYPES:
        raise CodecError(f"unknown payload dtype tag {dtype_tag}")
    crc_at = 11 + header_len
    if crc_at + 4 > len(blob):
        raise CodecError(f"header length {header_len} overruns the {len(blob)}-byte report")
    return dtype_tag, crc_at


def _inflate(stream, n: int) -> bytes:
    """The `n` bytes the raw-DEFLATE `stream` holds, inflating no more than
    `n`; CodecError unless it is one complete stream of exactly `n` bytes
    that ends where `stream` does."""
    inflater = zlib.decompressobj(-15)
    try:
        plane = inflater.decompress(stream, n)
    except zlib.error as exc:
        raise CodecError(f"malformed coded weight plane: {exc}") from None
    if inflater.unconsumed_tail:
        raise CodecError(f"coded weight plane inflates to more than {n} bytes")
    if not inflater.eof:
        raise CodecError("coded weight plane is cut short")
    if len(plane) != n:
        raise CodecError(f"coded weight plane inflates to {len(plane)} bytes, spec needs {n}")
    if inflater.unused_data:
        raise CodecError(f"trailing bytes after the coded weight plane: {len(inflater.unused_data)}")
    return plane


def decode(blob):
    """Exact inverse of :func:`encode`; reads version 5 only, with float32
    or float16 weights, from any bytes-like `blob`.

    Returns (spec, params, snapshot_norms, scale), the weights as float32
    views of one vector. Reports with equal headers return one shared spec
    object while their header is kept (see _MEMO_SIZE).
    Raises CodecError on a bad magic, any other version, a dtype tag other
    than 0 and 1, a header length that overruns the blob,
    checksum mismatch, a header that is not a spec file's JSON (see
    :func:`~unn_csi.decoder.spec_from_json`), a spec :func:`encode` refuses,
    a header that is not the spec's canonical JSON,
    a section too short for the raw byte planes the spec and tag give,
    norms and a scale that :func:`encode` would refuse for the spec,
    a coded plane that is not one complete raw-DEFLATE stream inflating to
    one byte per weight and ending the report (inflating no more than
    that), a weight that is NaN or infinite, or float32 weights that are
    all float16 values. The coded plane is not re-deflated to compare
    bytes: any stream that passes these checks is taken, so a report
    whose plane another deflater wrote (stored blocks, say) decodes to
    the weights it carries, and re-encodes to encode's bytes, not its own.
    """
    blob = memoryview(blob).cast("B")  # slices of it copy nothing
    dtype_tag, crc_at = _frame(blob)
    if _crc(blob, crc_at) != struct.unpack_from("<I", blob, crc_at)[0]:
        raise CodecError("checksum mismatch")
    header = bytes(blob[11:crc_at])
    spec, norms_shape, scale_shape, n_norms, n_head, n_weights, (kernels, gammas, betas) = _layout(header)
    dtype = _WEIGHT_DTYPES[dtype_tag]
    raw_at = crc_at + 4 + 8 * n_head
    coded_at = raw_at + (dtype.itemsize - 1) * n_weights
    if coded_at > len(blob):
        have, need = len(blob) - crc_at - 4, coded_at - crc_at - 4
        raise CodecError(f"payload holds {have} bytes, spec needs at least {need}")
    head = np.frombuffer(blob, "<f8", n_head, crc_at + 4).astype(float)  # an aligned copy
    if not _positive(head):  # one test for both fields; name the first at fault
        name = "scale" if _positive(head[:n_norms]) else "norms"
        raise CodecError(f"malformed field {name!r}: every entry must be finite and > 0")
    norms, scale = head[:n_norms].reshape(norms_shape), head[n_norms:].reshape(scale_shape)
    if scale.ndim == 0:
        scale = float(scale)
    planes = np.empty((n_weights, dtype.itemsize), np.uint8)  # weight i's bytes in row i
    planes[:, -1] = np.frombuffer(_inflate(blob[coded_at:], n_weights), np.uint8)
    raw = np.frombuffer(blob[raw_at:coded_at], np.uint8).reshape(-1, n_weights)
    for k, plane in enumerate(raw):  # a plane at a time: 3x faster than one 2-D strided copy
        planes[:, k] = plane
    vec = planes.view(dtype).reshape(n_weights).astype(np.float32, copy=False)
    if not np.isfinite(vec).all():
        raise CodecError("payload holds a NaN or infinite weight")
    if dtype_tag == _DTYPE_F32 and _as_float16(vec) is not None:
        raise CodecError("float32 payload of float16 values, which encode writes under dtype tag 1")
    params = ParamSet(
        [vec[at].reshape(shape) for at, shape in kernels], [vec[at] for at in gammas], [vec[at] for at in betas]
    )
    return spec, params, norms, scale


def recreate(spec: DecoderSpec, params: ParamSet, snapshot_norms, scale) -> list:
    """Regenerate the estimated channels a report describes: one decoder
    forward pass, then the inverse preprocessing per user.

    Takes exactly what :func:`decode` returns, so the receiving side is
    ``recreate(*decode(blob))``. A single-user spec (2 spatial modes) gives
    one ChannelTensor; a 4-way group spec gives one per user, in the order of
    the rows of `snapshot_norms` and entries of `scale`
    (:func:`~unn_csi.channel.split_users`). The seed tensor is regenerated
    from spec.seed_rule, the seed rule a report carries.
    """
    out = forward(spec, params)
    if spec.n_spatial == 2:
        return [postprocess(out, snapshot_norms, scale)]
    return split_users(out, snapshot_norms, scale)
