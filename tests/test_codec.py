import json
import re
import struct
import sys
import threading
import zlib
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unn_csi import codec
from unn_csi.channel import add_noise, postprocess, preprocess, stack_users, synthesize
from unn_csi.codec import CodecError, _shapes, decode, encode, payload_bytes, recreate, round_to_float16
from unn_csi.decoder import (
    SeedRule,
    forward,
    init_params,
    load_spec,
    param_count,
    param_views,
    params_to_vector,
    spec_from_json,
    spec_to_json,
)
from unn_csi.fitting import FitConfig, fit
from unn_csi.baselines import nmse

from conftest import make_spec

FULL_SINGLE = make_spec((4, 4), (64,) * 6 + (72,), ((True, True),) * 4, seed=1, a=0.15)


@pytest.fixture
def small_spec():
    return make_spec((2, 2), (8, 8, 8, 8, 4), ((True, True), (True, True)), seed=11, a=0.15)


def seal(blob) -> bytes:
    """`blob` with its CRC recomputed over every byte but the CRC field, so
    that an edited report reaches the checks behind the checksum."""
    out = bytearray(blob)
    crc_at = 11 + struct.unpack_from("<I", out, 7)[0]
    struct.pack_into("<I", out, crc_at, zlib.crc32(bytes(out[crc_at + 4 :]), zlib.crc32(bytes(out[:crc_at]))))
    return bytes(out)


def with_header(blob, text: bytes) -> bytes:
    """`blob` with its header replaced by `text` and the header length field
    set to match; the CRC is left as it was (see :func:`seal`)."""
    header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
    return blob[:7] + struct.pack("<I", len(text)) + text + blob[header_end:]


def edit_header(blob, edit) -> bytes:
    """`blob` with `edit` applied to its parsed header (see :func:`with_header`)."""
    header = json.loads(blob[11 : 11 + struct.unpack_from("<I", blob, 7)[0]])
    edit(header)
    return with_header(blob, json.dumps(header).encode())


def edit_section(blob, at, values, dtype) -> bytes:
    """`blob` with `values` written as `dtype` from byte `at` of the
    section behind the CRC field, resealed: the norms and scale are float64
    from byte 0, the weights (float32 under dtype tag 0) behind them."""
    out = bytearray(blob)
    start = 15 + struct.unpack_from("<I", blob, 7)[0] + at
    raw = np.asarray(values, dtype=dtype).tobytes()
    out[start : start + len(raw)] = raw
    return seal(out)


def huffman(plane: bytes, level=9, strategy=zlib.Z_HUFFMAN_ONLY) -> bytes:
    """`plane` as one raw-DEFLATE stream: Huffman-only, as encode writes
    it, unless `level` and `strategy` say otherwise."""
    coder = zlib.compressobj(level, zlib.DEFLATED, -15, 9, strategy)
    return coder.compress(plane) + coder.flush()


def weight_section(vec) -> bytes:
    """The little-endian float16 or float32 weights `vec` as a report
    carries them: byte k of every weight, for each k but the most
    significant, then the most significant bytes as one Huffman stream."""
    raw, w = np.asarray(vec).tobytes(), np.asarray(vec).itemsize
    return b"".join(raw[k::w] for k in range(w - 1)) + huffman(raw[w - 1 :: w])


def section_offsets(blob) -> tuple:
    """(weights, coded plane) offsets in `blob`, from its header and tag:
    the weights sit behind the norms and scale, and the coded plane behind
    the raw planes."""
    header_len = struct.unpack_from("<I", blob, 7)[0]
    spec = spec_from_json(bytes(blob[11 : 11 + header_len]).decode())
    weights_at = 15 + header_len + 8 * sum(int(np.prod(s)) for s in _shapes(spec).values())
    return weights_at, weights_at + (3 if blob[6] == 0 else 1) * param_count(spec)


def weights_of(blob) -> np.ndarray:
    """The weights `blob` carries, read from its planes by zlib alone."""
    weights_at, coded_at = section_offsets(blob)
    dtype = np.dtype("<f4" if blob[6] == 0 else "<f2")
    planes = bytes(blob[weights_at:coded_at]) + zlib.decompress(blob[coded_at:], -15)
    return np.frombuffer(planes, np.uint8).reshape(dtype.itemsize, -1).T.copy().view(dtype).ravel()


def with_weights(blob, vec) -> bytes:
    """`blob` carrying the weights `vec` (little-endian float16 or float32,
    which sets the dtype tag) in place of its own, resealed: weights encode
    may refuse to write."""
    vec = np.asarray(vec)
    out = bytearray(blob[: section_offsets(blob)[0]]) + weight_section(vec)
    out[6] = 1 if vec.itemsize == 2 else 0
    return seal(out)


def with_coded_plane(blob, stream) -> bytes:
    """`blob` with `stream` in place of its coded plane, resealed."""
    return seal(blob[: section_offsets(blob)[1]] + stream)


def zero_params(spec):
    p = init_params(spec, 0)
    for w in p.kernels:
        w[:] = 0.0
    for g in p.gammas:
        g[:] = 0.0
    for b in p.betas:
        b[:] = 0.0
    return p


FORMAT_DOC = (Path(__file__).resolve().parents[1] / "docs" / "csir-format.md").read_text(encoding="utf-8")


def documented_sizes(columns: int) -> dict:
    """{spec: numbers} from the rows of docs/csir-format.md's size tables
    that hold `columns` numbers after the spec's name."""
    row = r"^\| `(\w+)` \|" + r" ([\d,]+) \|" * columns + "$"
    rows = re.findall(row, FORMAT_DOC, re.M)
    return {name: tuple(int(n.replace(",", "")) for n in numbers) for name, *numbers in rows}


# header, non-payload bytes, then report and weight bytes under tag 0 and under tag 1
DOCUMENTED_SIZES = documented_sizes(6)
PACKAGED = ["single_ue_desk", "single_ue_full", "group_desk", "group_full_a", "group_full_b"]


def packaged(name):
    return load_spec(str(resources.files("unn_csi").joinpath(f"specs/{name}.json")))


def some_preprocessing(spec):
    """Valid, distinct norms and scale for `spec`."""
    shapes = _shapes(spec)
    norms = np.linspace(0.5, 2.0, int(np.prod(shapes["norms"]))).reshape(shapes["norms"])
    scale = np.linspace(1.25, 1.75, int(np.prod(shapes["scale"]))).reshape(shapes["scale"])
    return norms, (float(scale) if scale.ndim == 0 else scale)


class TestEncode:
    def test_full_scale_payload_size(self):
        # zeros are float16 values, so the weights travel as a raw plane of
        # zero low bytes and a coded plane of zero high bytes
        params = zero_params(FULL_SINGLE)
        blob = encode(FULL_SINGLE, params, np.ones(64), 1.0)
        assert blob[6] == 1
        stream = huffman(bytes(25728))
        assert payload_bytes(blob) == 25728 + len(stream) < 2 * 25728
        assert blob[-payload_bytes(blob) :] == bytes(25728) + stream
        decode(blob)  # checksum of the all-zero payload is valid

    def test_payload_ratio_vs_raw_csi(self):
        raw = 64 * 64 * 36 * 8  # complex64 coefficients, 8 bytes each
        blob = encode(FULL_SINGLE, init_params(FULL_SINGLE, 1), np.ones(64), 1.0)
        assert blob[6] == 0 and 3 * 25728 < payload_bytes(blob) < 4 * 25728
        assert payload_bytes(blob) / raw == pytest.approx(0.0717, abs=1e-4)

    def test_deterministic_bytes(self, small_spec):
        params = init_params(small_spec, 3)
        norms = np.linspace(1.0, 2.0, 8)
        a = encode(small_spec, params, norms, 1.5)
        b = encode(small_spec, params, norms, 1.5)
        assert a == b

    @pytest.mark.parametrize("name", PACKAGED)
    def test_header_spec_is_the_canonical_spec_json(self, name):
        # the header is the spec file's content, in its canonical form
        spec = packaged(name)
        shapes = _shapes(spec)
        blob = encode(spec, zero_params(spec), np.ones(shapes["norms"]), np.ones(shapes["scale"]))
        header = blob[11 : 11 + struct.unpack_from("<I", blob, 7)[0]]
        assert header == spec_to_json(spec).encode("utf-8")

    @pytest.mark.parametrize("name", PACKAGED)
    def test_report_size(self, name):
        # 15 framing bytes, the header, 8 per norm and scale entry, then
        # the weights of decoder.init_params(spec, 1): 3 raw bytes and a
        # coded one per weight under tag 0; the sizes docs/csir-format.md gives
        header_bytes, non_payload_bytes, report_bytes, weight_bytes = DOCUMENTED_SIZES[name][:4]
        spec = packaged(name)
        blob = encode(spec, init_params(spec, 1), *some_preprocessing(spec))
        n_head = sum(int(np.prod(s)) for s in _shapes(spec).values())
        assert blob[6] == 0
        assert struct.unpack_from("<I", blob, 7)[0] == header_bytes
        assert non_payload_bytes == 15 + header_bytes + 8 * n_head
        assert payload_bytes(blob) == weight_bytes == report_bytes - non_payload_bytes
        assert len(blob) == report_bytes
        assert 3 * param_count(spec) < weight_bytes < 4 * param_count(spec)

    @pytest.mark.parametrize("name", PACKAGED)
    def test_float16_report_size(self, name):
        # the same weights rounded to float16: 1 raw byte and a coded one
        # per weight, the sizes of the table's tag 1 columns
        non_payload_bytes, _, _, report_bytes, weight_bytes = DOCUMENTED_SIZES[name][1:]
        spec = packaged(name)
        params = init_params(spec, 1)
        assert round_to_float16(params)
        blob = encode(spec, params, *some_preprocessing(spec))
        assert blob[6] == 1
        assert payload_bytes(blob) == weight_bytes == report_bytes - non_payload_bytes
        assert len(blob) == report_bytes
        assert param_count(spec) < weight_bytes < 2 * param_count(spec)

    @pytest.mark.parametrize("dims", [(4,), (2, 2, 2, 2)])
    def test_spec_without_a_report_layout_rejected(self, dims):
        # norms and scale have a layout for one user (2 spatial modes) or a
        # group (3) only; encode raised IndexError on one spatial mode
        spec = make_spec(dims, (2, 2, 2), ((False,) * len(dims),))
        with pytest.raises(ValueError, match=f"^a report's decoder has 2 or 3 spatial modes, not {len(dims)}$"):
            encode(spec, init_params(spec, 1), np.ones(4), 1.0)

    def test_mismatched_params_rejected(self, small_spec):
        other = make_spec((2, 2), (4, 4, 4, 4, 4), ((True, True), (True, True)))
        with pytest.raises(ValueError):
            encode(small_spec, init_params(other, 1), np.ones(8), 1.0)


class TestDecode:
    def test_round_trip_bit_exact(self, small_spec):
        params = init_params(small_spec, 9)
        norms = np.array([1.0, 2.5, 0.75, 3.125, 0.5, 1.25, 4.0, 2.0])
        blob = encode(small_spec, params, norms, 2.25)
        spec2, params2, norms2, scale2 = decode(blob)
        assert spec_to_json(spec2) == spec_to_json(small_spec)
        assert scale2 == 2.25
        assert np.array_equal(norms2, norms)
        for a, b in zip(params.arrays(), params2.arrays()):
            assert np.array_equal(np.asarray(a), np.asarray(b))
            assert np.asarray(b).dtype == np.float32

    def test_flipped_payload_byte_detected(self, small_spec):
        blob = bytearray(encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0))
        blob[-5] ^= 0x40
        with pytest.raises(CodecError, match="checksum"):
            decode(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(CodecError, match="magic"):
            decode(b"NOPE" + b"\x00" * 32)

    @pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 6, 255, 65535])
    def test_unknown_version(self, version):
        # every version field but 5 is refused, the retired 1 to 4 included
        blob = bytearray(desk_report())
        struct.pack_into("<H", blob, 4, version)
        with pytest.raises(CodecError, match=f"^unknown report version {version}$"):
            decode(seal(blob))

    @pytest.mark.parametrize("tag", [2, 3, 255])
    def test_unknown_dtype_tag(self, tag):
        # 0 (float32 weights) and 1 (float16) are the only tags
        blob = bytearray(desk_report())
        blob[6] = tag
        with pytest.raises(CodecError, match=f"^unknown payload dtype tag {tag}$"):
            decode(seal(blob))

    @pytest.mark.parametrize("text", ["[]", "3", '"spec"', "null", "true"])
    def test_header_not_a_json_object(self, text):
        bad = with_header(desk_report(), text.encode())
        with pytest.raises(CodecError, match="^malformed header: decoder spec must be a JSON object$"):
            decode(seal(bad))

    def test_header_repeating_a_key_is_malformed(self):
        # Python's JSON parser keeps the last of two values: this report
        # decoded to the packaged spec, and encode(*decode(blob)) was not blob
        blob = desk_report()
        header = blob[11 : 11 + struct.unpack_from("<I", blob, 7)[0]]
        assert header.startswith(b'{"input_dims":[2,2],')
        bad = seal(with_header(blob, header.replace(b'{"input_dims":', b'{"input_dims":[9,9],"input_dims":', 1)))
        with pytest.raises(CodecError, match="^malformed header: decoder spec: repeated field 'input_dims'$"):
            decode(bad)

    def test_utf16_header_is_malformed(self):
        # the header is read as UTF-8 before it is parsed: json.loads would
        # take these bytes as UTF-16 and return the spec
        blob = desk_report()
        header = blob[11 : 11 + struct.unpack_from("<I", blob, 7)[0]]
        assert json.loads(header.decode().encode("utf-16-le")) == json.loads(header)
        with pytest.raises(CodecError, match="^malformed header: "):
            decode(seal(with_header(blob, header.decode().encode("utf-16-le"))))

    def test_truncated_payload(self, small_spec):
        blob = encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0)
        with pytest.raises(CodecError):
            decode(blob[:-3])

    def test_non_utf8_header_byte(self, small_spec):
        blob = bytearray(encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0))
        blob[11] = 0xFF
        with pytest.raises(CodecError, match="checksum"):
            decode(bytes(blob))
        with pytest.raises(CodecError, match="header"):
            decode(seal(blob))

    def test_bumped_header_length(self, small_spec):
        blob = bytearray(encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0))
        (header_len,) = struct.unpack_from("<I", blob, 7)
        for bump in (1, 5, 1 << 20):
            struct.pack_into("<I", blob, 7, header_len + bump)
            with pytest.raises(CodecError):
                decode(bytes(blob))

    def test_truncated_inside_checksum(self, small_spec):
        blob = encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0)
        header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
        for cut in range(header_end, header_end + 4):
            with pytest.raises(CodecError):
                decode(blob[:cut])

    SPEC_EDITS = [
        (lambda h: h.pop("seed_rule"), "missing field 'seed_rule'"),
        (lambda h: h.update(seed_rule=[1, 2]), "'seed_rule'.*got list"),
        (lambda h: h.pop("widths"), "widths"),
        (lambda h: h.update(upsample_flags="TT"), "upsample_flags"),
        (lambda h: h["seed_rule"].pop("seed"), "seed_rule.seed"),
        (lambda h: h["seed_rule"].update(half_range=float("nan")), "seed_rule.half_range"),
        (lambda h: h["seed_rule"].update(half_range=float("inf")), "seed_rule.half_range.*finite"),
        (lambda h: h["seed_rule"].update(half_range=-0.15), "half_range must be finite and > 0"),
        (lambda h: h["seed_rule"].update(half_range=0.0), "half_range must be finite and > 0"),
        (lambda h: h["seed_rule"].update(seed=2**64), "seed must fit in 64 bits"),
        (lambda h: h["seed_rule"].update(seed=True), "seed_rule.seed.*got bool"),
        (lambda h: h.update(upsample_flags=[[1, 1], [1, 1]]), "upsample_flags.*got int"),
        (lambda h: h.update(upsample_flags=[]), "need at least one inner layer"),
        (lambda h: h["upsample_flags"][0].pop(), "one entry per spatial mode"),
        (lambda h: h["widths"].__delitem__(slice(2, None)), "widths must list"),
        (lambda h: h["widths"].__setitem__(0, 0), "widths must be positive"),
        (lambda h: h.update(input_dims=[2], upsample_flags=[[True], [True]]), "2 or 3 spatial modes, not 1"),
        (lambda h: h.update(input_dims=[2] * 4, upsample_flags=[[True] * 4] * 2), "2 or 3 spatial modes, not 4"),
    ]

    @pytest.mark.parametrize("edit, field", SPEC_EDITS)
    def test_malformed_header_fields(self, small_spec, edit, field):
        bad = edit_header(encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0), edit)
        with pytest.raises(CodecError, match=f"^malformed header: .*{field}"):
            decode(seal(bad))

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda h: h.update(spec={}), "spec"),
            (lambda h: h.update(inner_count=2), "inner_count"),
            (lambda h: h.update(preoutput_count=1), "preoutput_count"),
            (lambda h: h.update(norms=[1.0] * 8), "norms"),
            (lambda h: h.update(scale=1.0), "scale"),
            (lambda h: h.update(x=1), "x"),
            (lambda h: h["seed_rule"].update(x=1), "seed_rule.x"),
        ],
    )
    def test_header_holds_the_spec_alone(self, small_spec, edit, key):
        # the norms and scale travel in the binary section, and the layer
        # counts follow from the spec's lists
        bad = edit_header(encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0), edit)
        with pytest.raises(CodecError, match=f"^malformed header: decoder spec: unknown field '{key}'$"):
            decode(seal(bad))

    def test_trailing_bytes_rejected(self, small_spec):
        blob = encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0)
        with pytest.raises(CodecError, match="^checksum mismatch$"):
            decode(blob + b"\x00")
        with pytest.raises(CodecError, match="^trailing bytes after the coded weight plane: 1$"):
            decode(seal(blob + b"\x00"))

    @pytest.mark.parametrize("count", [1, 7, 8 * 9 + 3 * 272])
    def test_section_holds_the_raw_planes(self, small_spec, count):
        # the spec and tag size the norms, scale and raw planes: a section
        # `count` bytes shorter than those, down to an empty one
        blob = encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0)
        section_at = 15 + struct.unpack_from("<I", blob, 7)[0]
        need = section_offsets(blob)[1] - section_at
        assert blob[6] == 0 and need == 8 * 9 + 3 * 272
        with pytest.raises(CodecError, match=f"^payload holds {need - count} bytes, spec needs at least {need}$"):
            decode(seal(blob[: section_at + need - count]))

    @pytest.mark.parametrize("name", PACKAGED)
    def test_reencoding_a_decoded_report_gives_its_bytes(self, name):
        # decode returns encode's arguments, and encoding is canonical
        spec = packaged(name)
        blob = encode(spec, init_params(spec, 3), *some_preprocessing(spec))
        assert encode(*decode(blob)) == blob


    # headers of the report's own spec that encode never writes: each of
    # these decoded, and re-encoding it gave other bytes
    NON_CANONICAL = {
        "indented": lambda h: json.dumps(json.loads(h), indent=2, sort_keys=True).encode(),
        "keys-reordered": lambda h: json.dumps(dict(reversed(json.loads(h).items())), separators=(",", ":")).encode(),
        "padded": lambda h: h + b" " * 10**6,
        "half-range-spelled-0.150": lambda h: h.replace(b'"half_range":0.15,', b'"half_range":0.150,'),
    }

    @pytest.mark.parametrize("variant", NON_CANONICAL)
    def test_non_canonical_header_refused(self, variant):
        blob = desk_report()
        header = blob[11 : 11 + struct.unpack_from("<I", blob, 7)[0]]
        text = self.NON_CANONICAL[variant](header)
        assert text != header and spec_from_json(text.decode()) == DESK_SPEC
        with pytest.raises(CodecError, match="^malformed header: not the canonical JSON of its spec$"):
            decode(seal(with_header(blob, text)))

    @pytest.mark.parametrize(
        "kind",
        [
            bytearray,
            memoryview,
            lambda b: np.frombuffer(b, np.uint8),
            lambda b: np.frombuffer(b, np.uint8).reshape(1, -1),  # len() 1: it counts rows
        ],
    )
    def test_any_bytes_like_report_decodes(self, kind):
        # memoryview raised AttributeError: it has no .decode; payload_bytes
        # took len() of a buffer, which counts its items, for its bytes
        blob = desk_report(half=True)
        assert decoded(decode(kind(blob))) == decoded(decode(blob))
        assert encode(*decode(kind(blob))) == blob
        assert payload_bytes(kind(blob)) == payload_bytes(blob) == len(blob) - section_offsets(blob)[0]

    def test_report_at_an_odd_offset_decodes(self):
        # the section is copied, so its float64s sit aligned
        blob = desk_report()
        view = memoryview(b"x" + blob)[1:]
        assert decoded(decode(view)) == decoded(decode(blob))


def decoded(result) -> tuple:
    """A decode result in comparable form: the spec, the weight bytes, and
    the norms and scale with their types, shapes and bytes."""
    spec, params, norms, scale = result
    return (
        spec,
        params_to_vector(params).dtype,
        params_to_vector(params).tobytes(),
        norms.shape,
        norms.tobytes(),
        type(scale),
        np.shape(scale),
        np.asarray(scale).tobytes(),
    )


DESK_SPEC = packaged("single_ue_desk")


def desk_report(init_seed=4, norms=tuple(np.linspace(0.5, 2.0, 16)), scale=1.75, half=False) -> bytes:
    """A report of the packaged desk spec (seed rule seed 20260810): its
    weights as float32 (dtype tag 0), or rounded to float16 (tag 1) if
    `half`."""
    params = init_params(DESK_SPEC, init_seed)
    if half:
        assert round_to_float16(params)
    return encode(DESK_SPEC, params, np.array(norms), scale)


desk_reports = st.builds(
    desk_report,
    init_seed=st.integers(0, 2**31 - 1),
    norms=st.lists(st.floats(1e-6, 1e6), min_size=16, max_size=16),
    scale=st.floats(0.01, 100.0),
    half=st.booleans(),
)


class TestVersions:
    @pytest.mark.parametrize("half", [False, True], ids=["float32", "float16"])
    def test_v5_layout(self, small_spec, half):
        # the header is the spec; the section behind the CRC is the norms,
        # then the scale, as float64, then the weights' byte planes, least
        # significant first, the most significant one Huffman-coded to the
        # end; the CRC covers every byte but its own field
        params = init_params(small_spec, 2)
        if half:
            assert round_to_float16(params)
        norms = np.linspace(0.5, 2.0, 8)
        blob = encode(small_spec, params, norms, 1.5)
        header = spec_to_json(small_spec).encode()
        header_end = 11 + len(header)
        weights = params_to_vector(params).astype("<f2" if half else "<f4")
        section = norms.astype("<f8").tobytes() + struct.pack("<d", 1.5) + weight_section(weights)
        assert blob[:header_end] == b"CSIR" + struct.pack("<HBI", 5, int(half), len(header)) + header
        assert blob[header_end + 4 :] == section
        body = blob[:header_end] + blob[header_end + 4 :]
        assert struct.unpack_from("<I", blob, header_end)[0] == zlib.crc32(body)

    def test_header_seed_edit_caught(self):
        blob = desk_report()
        assert blob.count(b"20260810") == 1
        edited = blob.replace(b"20260810", b"29260810")
        with pytest.raises(CodecError, match="checksum"):
            decode(edited)

    def test_v1_header_seed_edit_refused(self):
        # version 1 carried the norms and scale as header JSON and a CRC over
        # the weights alone, so this edit passed its checksum and the receiver
        # regenerated another channel
        blob = desk_report()
        header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
        spec, params, norms, scale = decode(blob)
        header = {"norms": norms.tolist(), "scale": scale, "spec": json.loads(spec_to_json(spec))}
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        text = text.replace(b"20260810", b"29260810")
        payload = blob[header_end + 4 + 8 * 17 :]
        frame = b"CSIR" + struct.pack("<HBI", 1, 0, len(text)) + text
        v1 = frame + struct.pack("<II", zlib.crc32(payload), len(payload)) + payload
        with pytest.raises(CodecError, match="^unknown report version 1$"):
            decode(v1)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), flip=st.integers(1, 255))
    def test_every_single_byte_mutation_raises_codec_error(self, data, flip):
        blob = data.draw(desk_reports)
        at = data.draw(st.integers(0, len(blob) - 1))
        mutated = bytearray(blob)
        mutated[at] ^= flip
        with pytest.raises(CodecError):
            decode(bytes(mutated))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_truncation_raises_codec_error(self, data):
        blob = data.draw(desk_reports)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(CodecError):
            decode(blob[:cut])

    def test_all_truncations_and_low_bit_flips_of_one_report(self):
        # the exhaustive counterpart of the two properties for one report:
        # every proper prefix, and the low bit of every byte
        self.all_truncations_and_low_bit_flips(desk_report())

    def test_all_truncations_and_low_bit_flips_of_a_float16_report(self):
        self.all_truncations_and_low_bit_flips(desk_report(half=True))

    @staticmethod
    def all_truncations_and_low_bit_flips(blob):
        for n in range(len(blob)):
            with pytest.raises(CodecError):
                decode(blob[:n])
        for at in range(len(blob)):
            mutated = bytearray(blob)
            mutated[at] ^= 0x01
            with pytest.raises(CodecError):
                decode(bytes(mutated))


def flip_last_byte(blob) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 0x01])


def pad_header(blob) -> bytes:
    """`blob` with a space after its header JSON, resealed: the spec's JSON
    but not its canonical form."""
    return seal(with_header(blob, blob[11 : 11 + struct.unpack_from("<I", blob, 7)[0]] + b" "))


def float16_values_as_float32(blob) -> bytes:
    """A float32 report with its weights rounded to float16 values, still
    under dtype tag 0, resealed: a report encode never writes."""
    return with_weights(blob, weights_of(blob).astype(np.float16).astype("<f4"))


def nan_weight(blob, at=0) -> bytes:
    """`blob` with weight `at` set to NaN, its other weights and its tag
    kept, resealed."""
    weights = weights_of(blob)
    weights[at] = np.nan
    return with_weights(blob, weights)


def cut_into_raw_planes(blob) -> bytes:
    """`blob` cut one byte short of its raw planes, resealed."""
    return seal(blob[: section_offsets(blob)[1] - 1])


# decode's checks in the order of docs/csir-format.md: (its error, an edit
# of a desk report that fails that check)
CHECKS = {
    "magic": ("not a CSI report \\(bad magic\\)", lambda b: b"NOPE" + b[4:]),
    "version": ("unknown report version 4", lambda b: b[:4] + struct.pack("<H", 4) + b[6:]),
    "dtype-tag": ("unknown payload dtype tag 2", lambda b: b[:6] + b"\x02" + b[7:]),
    "header-length": ("header length .* overruns", lambda b: b[:7] + struct.pack("<I", len(b)) + b[11:]),
    "crc": ("checksum mismatch", flip_last_byte),
    "header-json": ("malformed header: 'utf-8' codec", lambda b: seal(b[:11] + b"\xff" + b[12:])),
    "spec": ("malformed header: decoder spec: unknown field 'x'", lambda b: seal(edit_header(b, lambda h: h.update(x=1)))),
    "canonical-header": ("malformed header: not the canonical JSON of its spec", pad_header),
    "section-length": ("payload holds 3975 bytes, spec needs at least 3976", cut_into_raw_planes),
    "norms-and-scale": ("malformed field 'norms'", lambda b: edit_section(b, 0, [np.nan], "<f8")),
    "coded-plane": ("coded weight plane is cut short", lambda b: seal(b[:-1])),
    "weights": ("payload holds a NaN or infinite weight", nan_weight),
    "float16-values": ("float32 payload of float16 values", float16_values_as_float32),
}


class TestCheckOrder:
    @pytest.mark.parametrize("check", CHECKS)
    def test_each_check_runs_before_the_later_ones(self, check):
        # a report failing this check and every later one raises this
        # check's error: the version is read before the CRC, the CRC before
        # the header, and the spec before the section it sizes, the one
        # length check after the header's
        names = list(CHECKS)
        blob = desk_report()
        for name in reversed(names[names.index(check) :]):
            blob = CHECKS[name][1](blob)
        with pytest.raises(CodecError, match=f"^{CHECKS[check][0]}"):
            decode(blob)


class TestCodedPlane:
    """The coded plane is inflated to at most one byte per weight, and must
    be one complete raw-DEFLATE stream of exactly that many bytes that ends
    the report; every stream that is not fails with CodecError, never
    zlib.error, under either tag."""

    @pytest.fixture(params=[False, True], ids=["float32", "float16"])
    def report(self, request):
        return desk_report(half=request.param)

    @staticmethod
    def top_plane(blob) -> bytes:
        """The most significant byte of every weight `blob` carries."""
        return zlib.decompress(blob[section_offsets(blob)[1] :], -15)

    def test_a_stream_cut_short(self, report):
        stream = report[section_offsets(report)[1] :]
        with pytest.raises(CodecError, match="^coded weight plane is cut short$"):
            decode(with_coded_plane(report, stream[: len(stream) // 2]))

    def test_a_stream_one_byte_short(self, report):
        plane = self.top_plane(report)
        with pytest.raises(CodecError, match="^coded weight plane inflates to 1279 bytes, spec needs 1280$"):
            decode(with_coded_plane(report, huffman(plane[:-1])))

    def test_a_stream_one_byte_long(self, report):
        plane = self.top_plane(report)
        with pytest.raises(CodecError, match="^coded weight plane inflates to more than 1280 bytes$"):
            decode(with_coded_plane(report, huffman(plane + plane[:1])))

    def test_a_trailing_byte(self, report):
        stream = report[section_offsets(report)[1] :]
        with pytest.raises(CodecError, match="^trailing bytes after the coded weight plane: 1$"):
            decode(with_coded_plane(report, stream + b"\x00"))

    def test_a_bomb_is_refused_without_inflating_it(self, report, monkeypatch):
        # DEFLATE codes at most 258 bytes in 2 bits: this 1 KB stream
        # inflates to 10^6 bytes, of which decode inflates 1,280
        bomb = huffman(bytes(10**6), level=9, strategy=zlib.Z_DEFAULT_STRATEGY)
        assert len(bomb) < 1100 and len(zlib.decompress(bomb, -15)) == 10**6
        inflated, real = [], zlib.decompressobj

        class Counting:
            def __init__(self, *args):
                self.inflater = real(*args)

            def decompress(self, data, max_length=0):
                out = self.inflater.decompress(data, max_length)
                inflated.append(len(out))
                return out

            def __getattr__(self, name):
                return getattr(self.inflater, name)

        monkeypatch.setattr(zlib, "decompressobj", Counting)
        with pytest.raises(CodecError, match="^coded weight plane inflates to more than 1280 bytes$"):
            decode(with_coded_plane(report, bomb))
        assert inflated == [1280]

    def test_a_stream_that_is_no_deflate_data(self, report):
        # block type 3 is reserved
        with pytest.raises(CodecError, match="^malformed coded weight plane: .*invalid block type"):
            decode(with_coded_plane(report, b"\xff" * 8))

    def test_a_stored_block_stream_decodes_to_the_same_weights(self, report):
        # decode does not re-deflate to compare bytes: another deflater's
        # stream of the right bytes is taken, and re-encodes to encode's
        stored = with_coded_plane(report, huffman(self.top_plane(report), level=0))
        assert stored != report and stored[section_offsets(stored)[1]] & 0b110 == 0  # block type 0: stored
        assert decoded(decode(stored)) == decoded(decode(report))
        assert encode(*decode(stored)) == report


GROUP_DESK_SPEC = packaged("group_desk")


def group_desk_report(init_seed=4) -> bytes:
    """A report of the packaged desk group spec, its weights rounded to
    float16 values."""
    params = init_params(GROUP_DESK_SPEC, init_seed)
    assert round_to_float16(params)
    return encode(GROUP_DESK_SPEC, params, *some_preprocessing(GROUP_DESK_SPEC))


@pytest.fixture
def empty_memo():
    """decode's header memo, emptied before and after the test; returns a
    function giving the count of headers it keeps."""
    codec._layout.cache_clear()
    yield lambda: codec._layout.cache_info().currsize
    codec._layout.cache_clear()


class TestHeaderMemo:
    """decode parses each distinct header once and keeps its spec and
    section layout; what it returns does not depend on the memo."""

    def test_equal_headers_share_one_spec(self, empty_memo):
        specs = [decode(blob)[0] for blob in (desk_report(1), desk_report(2, half=True), desk_report(3))]
        assert specs[0] is specs[1] is specs[2]
        assert empty_memo() == 1
        group = decode(group_desk_report())[0]
        assert group is decode(group_desk_report(5))[0] and group is not specs[0]

    def test_a_hit_returns_what_a_miss_returns(self, empty_memo):
        blobs = [desk_report(1), desk_report(2, half=True), group_desk_report(1), group_desk_report(2)]
        for blob in blobs:
            miss = decoded(decode(blob))
            assert decoded(decode(blob)) == miss
            codec._layout.cache_clear()
            assert decoded(decode(blob)) == miss
            assert encode(*decode(blob)) == blob

    def test_a_hit_lays_out_the_weights_as_param_views(self, empty_memo):
        # the memo keeps each array's place in the weight vector, so a hit
        # builds the ParamSet param_views would, on one float32 vector
        def address(a):
            return a.__array_interface__["data"][0]

        for blob in (desk_report(1), desk_report(2, half=True), group_desk_report(1)):
            decode(blob)
            spec, params, _, _ = decode(blob)
            assert empty_memo() == 1
            want = param_views(spec, params_to_vector(params))
            for got, ref in zip(params.arrays(), want.arrays(), strict=True):
                assert got.dtype == ref.dtype == np.float32 and got.shape == ref.shape
                assert np.array_equal(got, ref) and got.flags.c_contiguous
                assert got.base is params.kernels[0].base
                assert address(got) - address(params.kernels[0]) == address(ref) - address(want.kernels[0])
            codec._layout.cache_clear()

    FAILING = {
        "non-canonical-header": (pad_header, "malformed header: not the canonical JSON of its spec"),
        "section-length": (cut_into_raw_planes, r"payload holds \d+ bytes, spec needs at least \d+"),
        "trailing-bytes": (lambda b: seal(b + bytes(8)), "trailing bytes after the coded weight plane: 8"),
        "zero-norm": (lambda b: edit_section(b, 0, [0.0], "<f8"), "malformed field 'norms'"),
        "nan-weight": (nan_weight, "payload holds a NaN or infinite weight"),
    }

    @pytest.mark.parametrize("case", FAILING)
    def test_a_refused_report_keeps_only_a_parsed_header(self, empty_memo, case):
        # each fails a check behind the header, on a miss and on a hit. A
        # header that parses is kept whatever follows it, since the layout
        # depends on the header alone; one that does not parse keeps nothing
        edit, message = self.FAILING[case]
        good = desk_report()
        want = decoded(decode(good))
        codec._layout.cache_clear()
        bad = edit(good)
        kept = 0 if case == "non-canonical-header" else 1
        for _ in range(2):
            with pytest.raises(CodecError, match=f"^{message}"):
                decode(bad)
            assert empty_memo() == kept
        assert decoded(decode(good)) == want
        assert empty_memo() == 1
        for _ in range(2):
            with pytest.raises(CodecError, match=f"^{message}"):
                decode(bad)
            assert empty_memo() == 1

    def test_the_memo_is_bounded(self, empty_memo):
        # seed-rule variants of the desk spec: one distinct header each
        size = codec._MEMO_SIZE
        specs = [replace(DESK_SPEC, seed_rule=SeedRule(i, 0.15)) for i in range(size + 8)]
        params = rounded_desk_params()
        blobs = [encode(spec, params, *GOOD_PREPROCESSING[2]) for spec in specs]

        def decodes(some):
            """(hits, misses) of the memo over decoding `some` blobs."""
            before = codec._layout.cache_info()
            for blob, spec in some:
                assert decode(blob)[0] == spec
            after = codec._layout.cache_info()
            return after.hits - before.hits, after.misses - before.misses

        for i, pair in enumerate(zip(blobs, specs)):
            assert decodes([pair]) == (0, 1)
            assert empty_memo() == min(i + 1, size)
        # the newest headers are kept, in the order they came
        pairs = list(zip(blobs, specs))
        assert decodes(pairs[-size:]) == (size, 0)
        # the least recently used goes first: pairs[9], once pairs[8] is used again
        assert decodes(pairs[8:9]) == (1, 0)
        assert decodes(pairs[:1]) == (0, 1)
        assert decodes(pairs[8:9]) == (1, 0)
        assert decodes(pairs[9:10]) == (0, 1)
        assert empty_memo() == size

    def test_concurrent_decodes_match_a_serial_one(self, empty_memo):
        blobs = [desk_report(i, half=bool(i % 3)) if i % 2 else group_desk_report(i) for i in range(24)]
        want = [decoded(decode(blob)) for blob in blobs]
        codec._layout.cache_clear()
        start, got = threading.Barrier(4), [None] * 4

        def run(k):
            start.wait()
            order = blobs[k:] + blobs[:k]  # each thread from its own place in the stream
            got[k] = [decoded(decode(blob)) for blob in order for _ in range(2)]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the memo's check-then-add too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(4):
            assert got[k] == [w for w in want[k:] + want[:k] for _ in range(2)]
        assert empty_memo() == 2


GROUP_SPEC = make_spec((2, 2, 3), (8, 8, 8, 8, 4), ((True, True, False),) * 2, seed=11, a=0.15)

# valid (norms, scale) of a spec with 2 (DESK_SPEC) or 3 (GROUP_SPEC) spatial modes
GOOD_PREPROCESSING = {
    2: (np.linspace(0.5, 2.0, 16), 1.75),
    3: (np.linspace(0.5, 2.0, 24).reshape(3, 8), np.array([1.5, 2.0, 0.75])),
}
# (spec, norms, scale, the field at fault): DESK_SPEC has 16 snapshots, and
# GROUP_SPEC 3 users of 8 snapshots each
BAD_PREPROCESSING = {
    "three-norms-for-sixteen-snapshots": (DESK_SPEC, np.ones(3), 1.0, "norms"),
    "scalar-scale-on-a-group": (GROUP_SPEC, np.ones((3, 8)), 1.0, "scale"),
    "two-norm-rows-for-three-users": (GROUP_SPEC, np.ones((2, 8)), np.ones(3), "norms"),
    "one-element-list-scale": (DESK_SPEC, np.ones(16), [1.0], "scale"),
    "negative-scale": (DESK_SPEC, np.ones(16), -1.0, "scale"),
    "zero-norm": (DESK_SPEC, np.r_[np.ones(15), 0.0], 1.0, "norms"),
    "nan-norm": (GROUP_SPEC, np.full((3, 8), np.nan), np.ones(3), "norms"),
    "infinite-group-scale": (GROUP_SPEC, np.ones((3, 8)), [1.0, np.inf, 1.0], "scale"),
}
# (spec, index into the section's float64s, value, the field at fault)
BAD_SECTION = {
    "nan-norm": (DESK_SPEC, 3, np.nan, "norms"),
    "infinite-norm": (DESK_SPEC, 15, np.inf, "norms"),
    "zero-norm": (DESK_SPEC, 0, 0.0, "norms"),
    "negative-norm": (GROUP_SPEC, 23, -1.0, "norms"),
    "nan-scale": (DESK_SPEC, 16, np.nan, "scale"),
    "infinite-scale": (GROUP_SPEC, 25, np.inf, "scale"),
    "zero-scale": (GROUP_SPEC, 24, 0.0, "scale"),
    "negative-scale": (DESK_SPEC, 16, -1.75, "scale"),
    "minus-zero-scale": (DESK_SPEC, 16, -0.0, "scale"),
}


class TestPreprocessingFields:
    """The norms and scale of a report must undo the preprocessing of the
    spec's output: before, each case below encoded and decoded, and then
    recreate raised or returned a wrong channel."""

    @pytest.mark.parametrize("case", sorted(BAD_PREPROCESSING))
    def test_encode_refuses(self, case):
        spec, norms, scale, field = BAD_PREPROCESSING[case]
        with pytest.raises(ValueError, match=f"^{field}: "):
            encode(spec, init_params(spec, 1), norms, scale)

    # a one-element scale list and its number have the same float64 bits
    @pytest.mark.parametrize("case", sorted(set(BAD_PREPROCESSING) - {"one-element-list-scale"}))
    def test_decode_refuses(self, case):
        # the section written from values encode refuses: a bad value names
        # its field; too few float64s leave the field at fault reading
        # weight bytes as float64s, which are not all finite and > 0
        spec, norms, scale, field = BAD_PREPROCESSING[case]
        good = encode(spec, init_params(spec, 1), *GOOD_PREPROCESSING[spec.n_spatial])
        section_at, weights_at = 15 + struct.unpack_from("<I", good, 7)[0], section_offsets(good)[0]
        head = np.concatenate([np.ravel(norms), np.ravel(scale)]).astype("<f8").tobytes()
        with pytest.raises(CodecError, match=f"^malformed field '{field}': every entry must be finite and > 0$"):
            decode(seal(good[:section_at] + head + good[weights_at:]))

    @pytest.mark.parametrize("case", sorted(BAD_SECTION))
    def test_decode_refuses_section_values(self, case):
        spec, at, value, field = BAD_SECTION[case]
        good = encode(spec, init_params(spec, 1), *GOOD_PREPROCESSING[spec.n_spatial])
        with pytest.raises(CodecError, match=f"^malformed field '{field}': every entry must be finite and > 0"):
            decode(edit_section(good, 8 * at, [value], "<f8"))

    def test_deeply_nested_header_is_malformed(self):
        # the JSON parser gives up on deep nesting with RecursionError
        blob = desk_report()
        header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
        text = blob[11:header_end].replace(b'{"', b'{"x":' + b"[" * 100_000 + b"]" * 100_000 + b',"', 1)
        with pytest.raises(CodecError, match="^malformed header: decoder spec: JSON nested too deep$"):
            decode(seal(with_header(blob, text)))

    def test_valid_fields_round_trip(self):
        for spec, (norms, scale) in ((DESK_SPEC, GOOD_PREPROCESSING[2]), (GROUP_SPEC, GOOD_PREPROCESSING[3])):
            _, _, norms_rx, scale_rx = decode(encode(spec, init_params(spec, 1), norms, scale))
            assert np.array_equal(norms_rx, norms) and np.array_equal(scale_rx, scale)
            assert type(scale_rx) is (float if spec is DESK_SPEC else np.ndarray)


def rounded_desk_params(init_seed=4):
    """Desk parameters rounded to float16 values."""
    params = init_params(DESK_SPEC, init_seed)
    assert round_to_float16(params)
    return params


class TestFloat16Weights:
    """Dtype tag 1: the weights as float16, written exactly when every one
    of them is a float16 value, so that decode stays encode's inverse."""

    def test_float16_report_round_trips_bit_exactly(self):
        params = rounded_desk_params()
        norms, scale = GOOD_PREPROCESSING[2]
        blob = encode(DESK_SPEC, params, norms, scale)
        assert blob[6] == 1
        spec, params_rx, norms_rx, scale_rx = decode(blob)
        assert spec_to_json(spec) == spec_to_json(DESK_SPEC)
        assert np.array_equal(norms_rx, norms) and scale_rx == scale
        for a, b in zip(params.arrays(), params_rx.arrays()):
            assert b.dtype == np.float32 and b.tobytes() == a.tobytes()
        assert encode(spec, params_rx, norms_rx, scale_rx) == blob
        (tx,), (rx,) = recreate(DESK_SPEC, params, norms, scale), recreate(spec, params_rx, norms_rx, scale_rx)
        assert rx.data.tobytes() == tx.data.tobytes()

    def test_float16_weights_are_the_section_tail(self):
        # one raw byte plane, then the coded one, under 2 bytes a weight
        params = rounded_desk_params()
        blob = encode(DESK_SPEC, params, *GOOD_PREPROCESSING[2])
        assert blob[-payload_bytes(blob) :] == weight_section(params_to_vector(params).astype("<f2"))
        assert len(blob) == 15 + len(spec_to_json(DESK_SPEC)) + 8 * 17 + payload_bytes(blob)
        assert payload_bytes(blob) < 2 * param_count(DESK_SPEC)

    def test_rounds_in_place_on_the_fit_block(self):
        # the fit's own (batch, P) block is rounded, row by row, and nothing else
        vec = params_to_vector(init_params(DESK_SPEC, 4))
        block = np.stack([vec, vec])
        assert round_to_float16(param_views(DESK_SPEC, block[1]))
        assert block[0].tobytes() == vec.tobytes()
        assert block[1].tobytes() == vec.astype(np.float16).astype(np.float32).tobytes()
        assert not np.array_equal(block[1], vec)

    @pytest.mark.parametrize("weight", [0, 700, 1279], ids=["first", "middle", "last"])
    def test_one_inexact_weight_gives_float32(self, weight):
        vec = params_to_vector(rounded_desk_params())
        vec[weight] = np.nextafter(vec[weight], np.float32(np.inf))  # a float32 between two float16s
        blob = encode(DESK_SPEC, param_views(DESK_SPEC, vec), *GOOD_PREPROCESSING[2])
        assert blob[6] == 0
        assert params_to_vector(decode(blob)[1]).tobytes() == vec.tobytes()

    @pytest.mark.parametrize("rounded", [False, True], ids=["float32-elsewhere", "float16-elsewhere"])
    @pytest.mark.parametrize("value", [1e5, -1e5, 65520.0])
    def test_overflowing_weight_leaves_the_set_alone(self, value, rounded):
        # float16 would round the weight to infinity: the whole set stays
        # float32, and so does its report
        params = rounded_desk_params() if rounded else init_params(DESK_SPEC, 4)
        params.gammas[2][3] = value
        before = params_to_vector(params)
        assert not round_to_float16(params)
        assert params_to_vector(params).tobytes() == before.tobytes()
        blob = encode(DESK_SPEC, params, *GOOD_PREPROCESSING[2])
        assert blob[6] == 0 and params_to_vector(decode(blob)[1]).tobytes() == before.tobytes()

    def test_largest_weight_below_overflow_rounds(self):
        params = init_params(DESK_SPEC, 4)
        params.gammas[2][3] = 65519.0
        assert round_to_float16(params)
        assert params.gammas[2][3] == np.finfo(np.float16).max
        assert encode(DESK_SPEC, params, *GOOD_PREPROCESSING[2])[6] == 1

    @pytest.mark.parametrize("half", [False, True], ids=["float32-to-float16", "float16-to-float32"])
    def test_flipped_tag_is_refused(self, half):
        # read as float16, a float32 section's second raw plane is taken
        # for the coded one, and its first bits open a stored block whose
        # length fields disagree; read as float32, a float16 section is
        # shorter than three raw planes
        blob = bytearray(desk_report(half=half))
        assert blob[6] == int(half)
        blob[6] ^= 1
        have = len(blob) - 15 - len(spec_to_json(DESK_SPEC))
        with pytest.raises(CodecError, match="^checksum mismatch$"):
            decode(bytes(blob))
        short = f"^payload holds {have} bytes, spec needs at least {8 * 17 + 3 * 1280}$"
        stored = "^malformed coded weight plane: Error -3 while decompressing data: invalid stored block lengths$"
        with pytest.raises(CodecError, match=short if half else stored):
            decode(seal(blob))

    def test_float32_report_of_float16_values_refused(self):
        # encode writes such weights under tag 1: decode took this report,
        # and encode(*decode(blob)) gave a float16 report, not blob
        blob = float16_values_as_float32(desk_report())
        assert blob[6] == 0 and len(blob) > 15 + len(spec_to_json(DESK_SPEC)) + 8 * 17 + 3 * 1280
        with pytest.raises(CodecError, match="^float32 payload of float16 values, which encode writes under dtype tag 1$"):
            decode(blob)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_decode_refuses_non_finite_float16(self, value):
        blob = desk_report(half=True)
        for weight in (0, 700, param_count(DESK_SPEC) - 1):
            weights = weights_of(blob)
            weights[weight] = value
            with pytest.raises(CodecError, match="^payload holds a NaN or infinite weight$"):
                decode(with_weights(blob, weights))


def poisoned(spec, kind, layer, value, dtype=np.float32):
    """Parameters of `spec` whose `kind` array of `layer` (0-based) holds
    `value` at its last entry."""
    params = init_params(spec, 1, dtype=dtype)
    getattr(params, kind)[layer].flat[-1] = value
    return params


class TestNonFiniteWeights:
    """A NaN or infinite weight regenerates no channel: recreate raised on
    the non-finite tensor after numpy warnings, once decode had let such a
    report through."""

    @pytest.mark.parametrize(
        "kind, layer, value, dtype, named",
        [
            ("kernels", 2, np.nan, np.float32, "layer 3 kernel"),
            ("kernels", 4, np.inf, np.float32, "layer 5 kernel"),
            ("gammas", 0, np.nan, np.float32, "layer 1 gamma"),
            ("gammas", 3, np.inf, np.float32, "layer 4 gamma"),
            ("betas", 1, np.nan, np.float32, "layer 2 beta"),
            ("betas", 2, -np.inf, np.float32, "layer 3 beta"),
            ("kernels", 0, 1e39, np.float64, "layer 1 kernel"),
            ("betas", 3, -1e39, np.float64, "layer 4 beta"),
        ],
    )
    def test_encode_refuses(self, kind, layer, value, dtype, named):
        params = poisoned(DESK_SPEC, kind, layer, value, dtype)
        with pytest.raises(ValueError, match=f"^{named} has a weight not finite as float32"):
            encode(DESK_SPEC, params, *GOOD_PREPROCESSING[2])

    def test_encode_takes_the_float32_range(self):
        params = poisoned(DESK_SPEC, "kernels", 1, np.finfo(np.float32).max, np.float64)
        assert decode(encode(DESK_SPEC, params, *GOOD_PREPROCESSING[2]))[1].kernels[1].flat[-1] == np.finfo(np.float32).max

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_decode_refuses(self, value):
        blob = encode(DESK_SPEC, init_params(DESK_SPEC, 1), *GOOD_PREPROCESSING[2])
        for weight in (0, 700, param_count(DESK_SPEC) - 1):
            weights = weights_of(blob)
            weights[weight] = value
            with pytest.raises(CodecError, match="payload holds a NaN or infinite weight"):
                decode(with_weights(blob, weights))


class TestEndToEnd:
    def test_receiver_reproduces_transmitter_estimate(self, micro_scene, small_spec):
        truth = synthesize(micro_scene, 1)
        meas = add_noise(truth, 20.0, 7)
        target = preprocess(meas)
        report = fit(small_spec, None, target, FitConfig(iterations=200, learning_rate=2e-3, trace_every=50))

        tx_out = forward(small_spec, report.params)
        tx_est = postprocess(tx_out, target.snapshot_norms, target.scale)
        blob = encode(small_spec, report.params, target.snapshot_norms, target.scale)

        spec_rx, params_rx, norms_rx, scale_rx = decode(blob)
        rx_out = forward(spec_rx, params_rx)  # z0 regenerated from the header's seed rule
        rx_est = postprocess(rx_out, norms_rx, scale_rx)

        assert np.array_equal(rx_out, tx_out)
        assert np.array_equal(rx_est.data, tx_est.data)
        assert nmse(rx_est, truth) == nmse(tx_est, truth)


class TestRecreate:
    @pytest.mark.parametrize("name", PACKAGED)
    def test_packaged_spec_receiver_matches_encoder_side(self, name):
        # float64 norms and scale travel as their own bits, so the base
        # station undoes the preprocessing exactly as the user side does
        spec = packaged(name)
        params = init_params(spec, 7)
        norms, scale = some_preprocessing(spec)
        norms = norms * np.pi  # entries whose decimal spelling is long
        tx = recreate(spec, params, norms, scale)
        rx = recreate(*decode(encode(spec, params, norms, scale)))
        assert len(tx) == len(rx) == (1 if spec.n_spatial == 2 else spec.output_dims[2])
        for a, b in zip(tx, rx):
            assert b.data.tobytes() == a.data.tobytes()

    def test_single_report_receiver_matches_encoder_side(self, micro_scene, small_spec):
        target = preprocess(add_noise(synthesize(micro_scene, 1), 20.0, 7))
        params = init_params(small_spec, 4)
        tx = recreate(small_spec, params, target.snapshot_norms, target.scale)
        rx = recreate(*decode(encode(small_spec, params, target.snapshot_norms, target.scale)))
        assert len(tx) == len(rx) == 1
        assert tx[0].data.shape == (8, 8, 2)
        assert rx[0].data.tobytes() == tx[0].data.tobytes()

    def test_group_report_receiver_matches_encoder_side(self, micro_scene):
        gspec = make_spec(
            (2, 2, 2), (8, 8, 8, 8, 4), ((True, True, False),) * 2, seed=11, a=0.15
        )
        targets = [preprocess(add_noise(synthesize(micro_scene, u), 20.0, u)) for u in (1, 2)]
        target = stack_users(targets)
        params = init_params(gspec, 5)
        tx = recreate(gspec, params, target.snapshot_norms, target.scale)
        rx = recreate(*decode(encode(gspec, params, target.snapshot_norms, target.scale)))
        assert len(tx) == len(rx) == 2
        for a, b in zip(tx, rx):
            assert b.data.tobytes() == a.data.tobytes()

    def test_group_report_yields_one_tensor_per_user_in_order(self):
        # n_sp = 8, n_sub = 4, M = 3: unequal extents expose a wrong transpose
        gspec = make_spec(
            (2, 4, 3), (8, 8, 8, 8, 4), ((True, False, False),) * 2, seed=11, a=0.15
        )
        params = init_params(gspec, 5)
        norms = np.arange(1.0, 25.0).reshape(3, 8)
        scales = np.array([1.5, 2.0, 0.75])
        estimates = recreate(gspec, params, norms, scales)
        assert [e.data.shape for e in estimates] == [(4, 8, 2)] * 3
        # user m is slice m of the user mode, with subcarrier and snapshot
        # modes swapped back
        out = forward(gspec, params)
        for m, est in enumerate(estimates):
            expected = postprocess(out[:, :, m, :].transpose(1, 0, 2), norms[m], scales[m])
            assert np.array_equal(est.data, expected.data)


class TestGroupReports:
    def test_group_norm_matrix_round_trip(self, small_spec):
        # multi-user reports carry one norm row and one scale per user
        gspec = make_spec(
            (2, 2, 3), (8, 8, 8, 8, 4), ((True, True, False),) * 2, seed=11, a=0.15
        )
        params = init_params(gspec, 5)
        norms = np.arange(1.0, 25.0).reshape(3, 8)
        scales = np.array([1.5, 2.0, 0.75])
        blob = encode(gspec, params, norms, scales)
        spec2, params2, norms2, scales2 = decode(blob)
        assert np.array_equal(norms2, norms)
        assert np.array_equal(scales2, scales)
        assert spec_to_json(spec2) == spec_to_json(gspec)
