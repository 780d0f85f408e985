"""The over-the-air CSI report: a fitted decoder serialized to bytes.

A report carries everything the receiving side needs to regenerate the
estimated channel: the canonical decoder spec JSON (including the seed rule),
the per-snapshot norms and scale factor of the preprocessing, and every
trainable scalar as little-endian float32 in canonical order. Encoding is
deterministic, so any two encoders produce identical bytes from identical
inputs; decode is the exact inverse. See docs/csir-format.md for the byte
layout.
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
    check_params,
    forward,
    param_count,
    params_from_vector,
    params_to_vector,
    spec_to_json,
)

__all__ = ["CodecError", "encode", "decode", "recreate", "payload_bytes"]

REPORT_MAGIC = b"CSIR"
REPORT_VERSION = 2  # v1 (payload-only CRC) still decodes
_DTYPE_F32 = 0  # dtype field reserved for future quantized payloads


class CodecError(ValueError):
    """Malformed or corrupted CSI report."""


def payload_bytes(spec: DecoderSpec) -> int:
    return 4 * param_count(spec)


def _crc(version: int, blob: bytes, crc_at: int, payload: bytes) -> int:
    """The CRC-32 a report of `version` carries at offset `crc_at`: v1 over
    the payload alone, v2 over every byte but the CRC field itself."""
    if version == 1:
        return zlib.crc32(payload)
    return zlib.crc32(blob[crc_at + 4 :], zlib.crc32(blob[:crc_at]))


def _shapes(spec: DecoderSpec) -> dict:
    """The shapes of the norms and the scale that undo the preprocessing of
    `spec`'s output: (n_sp,) and one number for a single-user spec,
    (M, n_sp) and M numbers for a group, n_sp snapshots and M users."""
    dims = spec.output_dims
    if spec.n_spatial == 2:  # (n_sub, n_sp, 2 n_ant)
        return {"norms": (dims[1],), "scale": ()}
    return {"norms": (dims[2], dims[0]), "scale": (dims[2],)}  # (n_sp, n_sub, M, 2 n_ant)


def _positive(value, shape) -> np.ndarray:
    """`value`, a header field's JSON value, as a float array; ValueError
    unless its shape is `shape` and every entry is a JSON number (not a
    string or a bool, which numpy would convert), finite and > 0."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"shape {arr.shape}, the spec needs {shape}")
    flat = [value] if arr.ndim == 0 else value if arr.ndim == 1 else [x for row in value for x in row]
    if not all(type(x) in (int, float) and 0 < x < math.inf for x in flat):
        raise ValueError("every entry must be a number, finite and > 0")
    return arr


def encode(spec: DecoderSpec, params: ParamSet, snapshot_norms, scale) -> bytes:
    """Serialize a fitted decoder into the (v2) report byte stream.

    Raises ValueError naming the field unless `snapshot_norms` and `scale`
    have the shapes of `spec` (see docs/csir-format.md) and every entry is
    finite and > 0."""
    check_params(spec, params)
    header = {"spec": json.loads(spec_to_json(spec))}
    shapes = _shapes(spec)
    for name, value in (("norms", snapshot_norms), ("scale", scale)):
        try:
            header[name] = np.asarray(value, dtype=float).tolist()
            _positive(header[name], shapes[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    header_blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = params_to_vector(params).astype("<f4").tobytes()
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
    struct.pack_into("<I", blob, crc_at, _crc(REPORT_VERSION, blob, crc_at, payload))
    return bytes(blob)


def decode(blob: bytes):
    """Exact inverse of :func:`encode`; also reads v1 reports.

    Returns (spec, params, snapshot_norms, scale). Raises CodecError on a bad
    magic, unknown version, a length field that does not match the blob,
    checksum mismatch, any malformed header or spec, or norms and a scale
    that :func:`encode` would refuse for the spec.
    """
    if len(blob) < 11 or blob[:4] != REPORT_MAGIC:
        raise CodecError("not a CSI report (bad magic)")
    version, dtype_tag = struct.unpack_from("<HB", blob, 4)
    if version not in (1, REPORT_VERSION):
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
    payload = blob[header_end + 8 :]
    if _crc(version, blob, header_end, payload) != crc:
        raise CodecError("checksum mismatch")
    try:
        header = json.loads(blob[11:header_end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or JSON nested too deep
        raise CodecError(f"malformed header: {exc}") from exc

    if not isinstance(header, dict):
        raise CodecError("malformed header: not a JSON object")
    spec = _header_field(header, "spec", _spec_from_doc)
    shapes = _shapes(spec)
    norms = _header_field(header, "norms", lambda v: _positive(v, shapes["norms"]))
    scale = _header_field(header, "scale", lambda v: _positive(v, shapes["scale"]))
    if scale.ndim == 0:
        scale = float(scale)
    if payload_len != payload_bytes(spec):
        raise CodecError(
            f"payload holds {payload_len} bytes, spec needs {payload_bytes(spec)}"
        )
    vec = np.frombuffer(payload, dtype="<f4")
    params = params_from_vector(spec, vec, dtype=np.float32)
    return spec, params, norms, scale


def _header_field(header: dict, name: str, convert):
    try:
        return convert(header[name])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CodecError(f"malformed header field {name!r}: {exc!r}") from exc


def recreate(spec: DecoderSpec, params: ParamSet, snapshot_norms, scale, z0=None) -> list:
    """Regenerate the estimated channels a report describes: one decoder
    forward pass, then the inverse preprocessing per user.

    Takes exactly what :func:`decode` returns, so the receiving side is
    ``recreate(*decode(blob))``. A single-user spec (2 spatial modes) gives
    one ChannelTensor; a 4-way group spec gives one per user, in the order of
    the rows of `snapshot_norms` and entries of `scale`
    (:func:`~unn_csi.channel.split_users`). `z0` must be the seed tensor the
    parameters were fitted with (None regenerates it from spec.seed_rule).
    """
    out = forward(spec, params, z0)
    if spec.n_spatial == 2:
        return [postprocess(out, snapshot_norms, scale)]
    return split_users(out, snapshot_norms, scale)
