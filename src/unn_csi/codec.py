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
import struct
import zlib

import numpy as np

from .channel import postprocess, split_users
from .decoder import (
    DecoderSpec,
    ParamSet,
    check_params,
    forward,
    param_count,
    params_from_vector,
    params_to_vector,
    spec_from_json,
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


def encode(spec: DecoderSpec, params: ParamSet, snapshot_norms, scale) -> bytes:
    """Serialize a fitted decoder into the (v2) report byte stream."""
    check_params(spec, params)
    header = {
        "spec": json.loads(spec_to_json(spec)),
        "norms": np.asarray(snapshot_norms, dtype=float).tolist(),
        "scale": np.asarray(scale, dtype=float).tolist(),
    }
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
    checksum mismatch, or any malformed header or spec.
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
    except ValueError as exc:  # bad UTF-8 or JSON
        raise CodecError(f"malformed header: {exc}") from exc

    if not isinstance(header, dict):
        raise CodecError("malformed header: not a JSON object")
    spec = _header_field(header, "spec", lambda doc: spec_from_json(json.dumps(doc)))
    norms = _header_field(header, "norms", lambda v: np.asarray(v, dtype=float))
    scale = _header_field(
        header, "scale", lambda v: np.asarray(v, dtype=float) if isinstance(v, list) else float(v)
    )
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
    except (KeyError, TypeError, ValueError) as exc:
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
