"""The over-the-air CSI report: a fitted decoder serialized to bytes.

A report carries everything the receiving side needs to regenerate the
estimated channel: the canonical decoder spec JSON (including the seed rule)
as its header, then a binary section of the per-snapshot norms and scale
factor of the preprocessing as little-endian float64 and every trainable
scalar as little-endian float32 in canonical order. Encoding is
deterministic, so any two encoders produce identical bytes from identical
inputs; decode is the exact inverse, and refuses every report version but
the one encode writes. See docs/csir-format.md for the byte layout.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .channel import postprocess, split_users
from .decoder import (
    DecoderSpec,
    ParamSet,
    _spec_from_doc,
    _spec_to_doc,
    check_params,
    forward,
    param_count,
    params_from_vector,
    params_to_vector,
)

__all__ = ["CodecError", "encode", "decode", "recreate", "payload_bytes"]

REPORT_MAGIC = b"CSIR"
REPORT_VERSION = 3  # the one version encode writes and decode reads
_DTYPE_F32 = 0  # dtype field reserved for future quantized payloads


class CodecError(ValueError):
    """Malformed or corrupted CSI report."""


def payload_bytes(spec: DecoderSpec) -> int:
    """The bytes of a report's weights: 4 per trainable scalar."""
    return 4 * param_count(spec)


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


def _weights(params: ParamSet) -> np.ndarray:
    """The canonical weight vector as little-endian float32; ValueError
    naming the array (kind and layer, layer 1 first) of the first weight
    that is not finite after the cast, a float64 beyond the float32 range
    included."""
    with np.errstate(over="ignore"):  # such a weight casts to inf, refused below
        vec = params_to_vector(params).astype("<f4")
    finite = np.isfinite(vec)
    if not finite.all():
        ends = np.cumsum([np.size(a) for a in params.arrays()])
        k = int(np.searchsorted(ends, np.argmin(finite), side="right"))  # kernel, gamma, beta per layer
        kind = ("kernel", "gamma", "beta")[k % 3]
        raise ValueError(f"layer {k // 3 + 1} {kind} has a weight not finite as float32")
    return vec


def encode(spec: DecoderSpec, params: ParamSet, snapshot_norms, scale) -> bytes:
    """Serialize a fitted decoder into the (version 3) report byte stream.

    Raises ValueError naming the field unless `snapshot_norms` and `scale`
    have the shapes of `spec` (see docs/csir-format.md) and every entry is
    finite and > 0, and naming the array unless every weight is finite as
    float32."""
    check_params(spec, params)
    head = []
    for (name, shape), value in zip(_shapes(spec).items(), (snapshot_norms, scale)):
        try:
            arr = _checked(np.asarray(value, dtype=float), shape)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name}: {exc}") from None
        head.append(arr.astype("<f8").tobytes())
    header = {"spec": _spec_to_doc(spec)}
    header_blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = b"".join(head) + _weights(params).tobytes()
    blob = bytearray().join(
        [
            REPORT_MAGIC,
            struct.pack("<HB", REPORT_VERSION, _DTYPE_F32),
            struct.pack("<I", len(header_blob)),
            header_blob,
            struct.pack("<II", 0, len(payload)),
            payload,
        ]
    )
    crc_at = 11 + len(header_blob)
    struct.pack_into("<I", blob, crc_at, _crc(blob, crc_at))
    return bytes(blob)


def decode(blob: bytes):
    """Exact inverse of :func:`encode`; reads version 3 only.

    Returns (spec, params, snapshot_norms, scale). Raises CodecError on a bad
    magic, any other version, a length field that does not match the blob,
    checksum mismatch, any malformed header or spec (a header holds `spec`
    alone), a payload whose length the spec does not give, norms and a scale
    that :func:`encode` would refuse for the spec, or a weight that is NaN
    or infinite.
    """
    if len(blob) < 11 or blob[:4] != REPORT_MAGIC:
        raise CodecError("not a CSI report (bad magic)")
    version, dtype_tag = struct.unpack_from("<HB", blob, 4)
    if version != REPORT_VERSION:
        raise CodecError(f"unknown report version {version}")
    if dtype_tag != _DTYPE_F32:
        raise CodecError(f"unknown payload dtype tag {dtype_tag}")
    (header_len,) = struct.unpack_from("<I", blob, 7)
    header_end = 11 + header_len
    if header_end + 8 > len(blob):
        raise CodecError(f"header length {header_len} overruns the {len(blob)}-byte report")
    crc, payload_len = struct.unpack_from("<II", blob, header_end)
    if header_end + 8 + payload_len != len(blob):
        raise CodecError(f"payload length {payload_len} does not match the {len(blob)}-byte report")
    if _crc(blob, header_end) != crc:
        raise CodecError("checksum mismatch")
    try:
        header = json.loads(blob[11:header_end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or JSON nested too deep
        raise CodecError(f"malformed header: {exc}") from exc

    if not isinstance(header, dict):
        raise CodecError("malformed header: not a JSON object")
    extra = sorted(header.keys() - {"spec"})
    if extra:
        raise CodecError(f"malformed header: keys {extra} besides 'spec'")
    try:
        spec = _spec_from_doc(header["spec"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CodecError(f"malformed header field 'spec': {exc!r}") from exc
    shapes = _shapes(spec)
    n_norms = math.prod(shapes["norms"])
    n_head = n_norms + math.prod(shapes["scale"])
    want = 8 * n_head + payload_bytes(spec)
    if payload_len != want:
        raise CodecError(f"payload holds {payload_len} bytes, spec needs {want}")
    payload = blob[header_end + 8 :]
    head = np.frombuffer(payload, dtype="<f8", count=n_head).astype(float)
    if not _positive(head):  # one test for both fields; name the first at fault
        name = "scale" if _positive(head[:n_norms]) else "norms"
        raise CodecError(f"malformed field {name!r}: every entry must be finite and > 0")
    norms, scale = head[:n_norms].reshape(shapes["norms"]), head[n_norms:].reshape(shapes["scale"])
    if scale.ndim == 0:
        scale = float(scale)
    vec = np.frombuffer(payload, dtype="<f4", offset=8 * n_head)
    if not np.isfinite(vec).all():
        raise CodecError("payload holds a NaN or infinite weight")
    params = params_from_vector(spec, vec, dtype=np.float32)
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
