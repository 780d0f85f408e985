import json
import struct
import zlib
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unn_csi.channel import add_noise, postprocess, preprocess, stack_users, synthesize
from unn_csi.codec import CodecError, _shapes, decode, encode, payload_bytes, recreate
from unn_csi.decoder import forward, init_params, load_spec, param_count, params_to_vector, spec_to_json
from unn_csi.fitting import FitConfig, fit
from unn_csi.baselines import nmse

from conftest import make_spec

FULL_SINGLE = make_spec((4, 4), (64,) * 6 + (72,), 4, 1, ((True, True),) * 4, seed=1, a=0.15)


@pytest.fixture
def small_spec():
    return make_spec((2, 2), (8, 8, 8, 8, 4), 2, 1, ((True, True), (True, True)), seed=11, a=0.15)


def seal(blob, version=None) -> bytes:
    """`blob` with its version field set to `version` (None keeps it) and
    the CRC that version carries recomputed (v1: over the payload; v2 and
    v3: over every byte but the CRC field), so that an edited report reaches
    the checks behind the checksum."""
    out = bytearray(blob)
    if version is not None:
        struct.pack_into("<H", out, 4, version)
    crc_at = 11 + struct.unpack_from("<I", out, 7)[0]
    if struct.unpack_from("<H", out, 4)[0] == 1:
        crc = zlib.crc32(bytes(out[crc_at + 8 :]))
    else:
        crc = zlib.crc32(bytes(out[crc_at + 4 :]), zlib.crc32(bytes(out[:crc_at])))
    struct.pack_into("<I", out, crc_at, crc)
    return bytes(out)


def encode_v2(spec, params, snapshot_norms, scale) -> bytes:
    """The version-2 report of these inputs, written from the layout of
    docs/csir-format.md: the norms and scale as header JSON next to the
    spec, and the weights alone as payload."""
    header = {
        "norms": np.asarray(snapshot_norms, dtype=float).tolist(),
        "scale": np.asarray(scale, dtype=float).tolist(),
        "spec": json.loads(spec_to_json(spec)),
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = params_to_vector(params).astype("<f4").tobytes()
    frame = b"CSIR" + struct.pack("<HBI", 2, 0, len(text)) + text + struct.pack("<II", 0, len(payload))
    return seal(frame + payload)


# the report writers decode must read: this package's encoder, and version 2
WRITERS = {"v2": encode_v2, "v3": encode}
writers = pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)


def edit_header(blob, edit) -> bytes:
    """`blob` with `edit` applied to its parsed header and the header length
    field set to match; the CRC is left as it was (see :func:`seal`)."""
    header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
    header = json.loads(blob[11:header_end])
    edit(header)
    text = json.dumps(header).encode()
    return blob[:7] + struct.pack("<I", len(text)) + text + blob[header_end:]


def edit_section(blob, at, values, dtype) -> bytes:
    """`blob` with `values` written as `dtype` from byte `at` of the
    section behind the payload-length field, resealed: the v3 norms and
    scale are float64 from byte 0, its weights float32 behind them."""
    out = bytearray(blob)
    start = 19 + struct.unpack_from("<I", blob, 7)[0] + at
    raw = np.asarray(values, dtype=dtype).tobytes()
    out[start : start + len(raw)] = raw
    return seal(out)


def zero_params(spec):
    p = init_params(spec, 0)
    for w in p.kernels:
        w[:] = 0.0
    for g in p.gammas:
        g[:] = 0.0
    for b in p.betas:
        b[:] = 0.0
    return p


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
        params = zero_params(FULL_SINGLE)
        blob = encode(FULL_SINGLE, params, np.ones(64), 1.0)
        assert payload_bytes(FULL_SINGLE) == 4 * 25728 == 102912
        assert blob[-102912:] == b"\x00" * 102912
        decode(blob)  # checksum of the all-zero payload is valid

    def test_payload_ratio_vs_raw_csi(self):
        raw = 64 * 64 * 36 * 8  # complex64 coefficients, 8 bytes each
        assert payload_bytes(FULL_SINGLE) / raw == pytest.approx(0.0873, abs=1e-4)

    def test_deterministic_bytes(self, small_spec):
        params = init_params(small_spec, 3)
        norms = np.linspace(1.0, 2.0, 8)
        a = encode(small_spec, params, norms, 1.5)
        b = encode(small_spec, params, norms, 1.5)
        assert a == b

    @pytest.mark.parametrize(
        "name", ["single_ue_desk", "single_ue_full", "group_desk", "group_full_a", "group_full_b"]
    )
    def test_header_spec_is_the_canonical_spec_json(self, name):
        # a v3 header holds the spec alone
        spec = packaged(name)
        shapes = _shapes(spec)
        blob = encode(spec, zero_params(spec), np.ones(shapes["norms"]), np.ones(shapes["scale"]))
        header = blob[11 : 11 + struct.unpack_from("<I", blob, 7)[0]]
        assert header == b'{"spec":' + spec_to_json(spec).encode("utf-8") + b"}"

    @pytest.mark.parametrize(
        "name, report_bytes, header_bytes",
        [
            ("single_ue_desk", 5_471, 196),
            ("group_desk", 5_763, 216),
            ("single_ue_full", 102_912 + 751, 212),
            ("group_full_a", 102_912 + 1_817, 238),
            ("group_full_b", 119_808 + 1_820, 241),
        ],
    )
    def test_report_size(self, name, report_bytes, header_bytes):
        # 19 framing bytes, the header, 8 per norm and scale entry, 4 per weight
        spec = packaged(name)
        blob = encode(spec, init_params(spec, 1), *some_preprocessing(spec))
        n_head = sum(int(np.prod(s)) for s in _shapes(spec).values())
        assert struct.unpack_from("<I", blob, 7)[0] == header_bytes
        assert len(blob) == report_bytes == 19 + header_bytes + 8 * n_head + payload_bytes(spec)

    def test_mismatched_params_rejected(self, small_spec):
        other = make_spec((2, 2), (4, 4, 4, 4, 4), 2, 1, ((True, True), (True, True)))
        with pytest.raises(ValueError):
            encode(small_spec, init_params(other, 1), np.ones(8), 1.0)


class TestDecode:
    @writers
    def test_round_trip_bit_exact(self, small_spec, write):
        params = init_params(small_spec, 9)
        norms = np.array([1.0, 2.5, 0.75, 3.125, 0.5, 1.25, 4.0, 2.0])
        blob = write(small_spec, params, norms, 2.25)
        spec2, params2, norms2, scale2 = decode(blob)
        assert spec_to_json(spec2) == spec_to_json(small_spec)
        assert scale2 == 2.25
        assert np.array_equal(norms2, norms)
        for a, b in zip(params.arrays(), params2.arrays()):
            assert np.array_equal(np.asarray(a), np.asarray(b))
            assert np.asarray(b).dtype == np.float32

    @writers
    def test_flipped_payload_byte_detected(self, small_spec, write):
        blob = bytearray(write(small_spec, init_params(small_spec, 1), np.ones(8), 1.0))
        blob[-5] ^= 0x40
        with pytest.raises(CodecError, match="checksum"):
            decode(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(CodecError, match="magic"):
            decode(b"NOPE" + b"\x00" * 32)

    @writers
    def test_unknown_version(self, small_spec, write):
        blob = bytearray(write(small_spec, init_params(small_spec, 1), np.ones(8), 1.0))
        blob[4] = 0xFF
        with pytest.raises(CodecError, match="version"):
            decode(bytes(blob))
        for version in (0, 4):
            with pytest.raises(CodecError, match="version"):
                decode(seal(blob, version))

    @writers
    def test_truncated_payload(self, small_spec, write):
        blob = write(small_spec, init_params(small_spec, 1), np.ones(8), 1.0)
        with pytest.raises(CodecError):
            decode(blob[:-3])

    @pytest.mark.parametrize("write, versions", [(encode_v2, (1, 2)), (encode, (3,))], ids=["v2", "v3"])
    def test_non_utf8_header_byte(self, small_spec, write, versions):
        blob = bytearray(write(small_spec, init_params(small_spec, 1), np.ones(8), 1.0))
        blob[11] = 0xFF
        with pytest.raises(CodecError, match="checksum"):
            decode(bytes(blob))
        for version in versions:
            with pytest.raises(CodecError, match="header"):
                decode(seal(blob, version))

    @writers
    def test_bumped_header_length(self, small_spec, write):
        blob = bytearray(write(small_spec, init_params(small_spec, 1), np.ones(8), 1.0))
        (header_len,) = struct.unpack_from("<I", blob, 7)
        for bump in (1, 5, 1 << 20):
            struct.pack_into("<I", blob, 7, header_len + bump)
            with pytest.raises(CodecError):
                decode(bytes(blob))

    @writers
    def test_truncated_inside_checksum_and_length_field(self, small_spec, write):
        blob = write(small_spec, init_params(small_spec, 1), np.ones(8), 1.0)
        header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
        for cut in range(header_end, header_end + 8):
            with pytest.raises(CodecError):
                decode(blob[:cut])

    SPEC_EDITS = [
        (lambda h: h.pop("spec"), "spec"),
        (lambda h: h.update(spec=[1, 2]), "'spec'.*JSON object"),
        (lambda h: h.update(spec="spec"), "'spec'.*JSON object"),
        (lambda h: h["spec"].pop("seed_rule"), "'spec'.*seed_rule"),
        (lambda h: h["spec"].pop("widths"), "widths"),
        (lambda h: h["spec"].update(upsample_flags="TT"), "upsample_flags"),
        (lambda h: h["spec"]["seed_rule"].pop("seed"), "seed_rule.seed"),
        (lambda h: h["spec"]["seed_rule"].update(half_range=float("nan")), "seed_rule.half_range"),
    ]

    @pytest.mark.parametrize(
        "edit, field",
        SPEC_EDITS + [(lambda h: h.pop("norms"), "norms"), (lambda h: h.update(scale=None), "scale")],
    )
    def test_malformed_header_fields(self, small_spec, edit, field):
        bad = edit_header(encode_v2(small_spec, init_params(small_spec, 1), np.ones(8), 1.0), edit)
        for version in (1, 2):
            with pytest.raises(CodecError, match=field):
                decode(seal(bad, version))

    @pytest.mark.parametrize("edit, field", SPEC_EDITS)
    def test_malformed_v3_header_fields(self, small_spec, edit, field):
        bad = edit_header(encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0), edit)
        with pytest.raises(CodecError, match=field):
            decode(seal(bad))

    @pytest.mark.parametrize("key", ["norms", "scale", "x"])
    def test_v3_header_holds_spec_alone(self, small_spec, key):
        # a v3 reader takes the norms and scale from the binary section only
        bad = edit_header(encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0), lambda h: h.update({key: 1.0}))
        with pytest.raises(CodecError, match=f"malformed header: keys \\['{key}'\\] besides 'spec'"):
            decode(seal(bad))

    @writers
    def test_trailing_bytes_rejected(self, small_spec, write):
        blob = write(small_spec, init_params(small_spec, 1), np.ones(8), 1.0)
        for version in (1, 2) if write is encode_v2 else (3,):
            with pytest.raises(CodecError, match="payload length"):
                decode(seal(blob, version) + b"\x00")

    @pytest.mark.parametrize("count", [-1, 1, 7])
    def test_v3_section_length_follows_the_spec(self, small_spec, count):
        # a section with one float64 too few or too many, or a partial one
        blob = encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0)
        header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
        (payload_len,) = struct.unpack_from("<I", blob, header_end + 4)
        section = blob[header_end + 8 :]
        section = section[:count] if count < 0 else section + b"\x01" * count
        bad = blob[: header_end + 4] + struct.pack("<I", len(section)) + section
        with pytest.raises(CodecError, match=f"payload holds {payload_len + count} bytes, spec needs {payload_len}"):
            decode(seal(bad))

    def test_v1_v2_v3_reports_decode_equal(self, small_spec):
        params = init_params(small_spec, 2)
        norms = np.array([1.0, 2.5, 0.75, 3.125, 0.5, 1.25, 4.0, 2.0]) / 3
        v2 = encode_v2(small_spec, params, norms, 2.25)
        v1 = seal(v2, 1)
        v3 = encode(small_spec, params, norms, 2.25)
        assert struct.unpack_from("<H", v3, 4) == (3,)
        (spec, got, norms_got, scale), *others = [decode(b) for b in (v1, v2, v3)]
        for spec_o, got_o, norms_o, scale_o in others:
            assert spec_to_json(spec_o) == spec_to_json(spec)
            assert np.array_equal(norms_o, norms_got) and norms_o.dtype == norms_got.dtype
            assert scale_o == scale and type(scale_o) is type(scale)
            for a, b in zip(got.arrays(), got_o.arrays()):
                assert np.array_equal(a, b) and a.dtype == b.dtype


DESK_SPEC = packaged("single_ue_desk")


def desk_report(init_seed=4, norms=tuple(np.linspace(0.5, 2.0, 16)), scale=1.75, write=encode) -> bytes:
    """A report of the packaged desk spec (seed rule seed 20260810)."""
    return write(DESK_SPEC, init_params(DESK_SPEC, init_seed), np.array(norms), scale)


def desk_reports(write):
    return st.builds(
        desk_report,
        init_seed=st.integers(0, 2**31 - 1),
        norms=st.lists(st.floats(1e-6, 1e6), min_size=16, max_size=16),
        scale=st.floats(0.01, 100.0),
        write=st.just(write),
    )


class TestVersions:
    def test_v3_layout(self, small_spec):
        # v3 keeps v2's framing and CRC rule; its section is the norms, then
        # the scale, as float64, then the weights as float32
        params = init_params(small_spec, 2)
        norms = np.linspace(0.5, 2.0, 8)
        blob = encode(small_spec, params, norms, 1.5)
        header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
        weights = params_to_vector(params).astype("<f4").tobytes()
        section = norms.astype("<f8").tobytes() + struct.pack("<d", 1.5) + weights
        assert struct.unpack_from("<HB", blob, 4) == (3, 0)
        assert blob[header_end + 4 : header_end + 8] == struct.pack("<I", len(section))
        assert blob[header_end + 8 :] == section
        assert len(blob) == header_end + 8 + len(section)
        body = blob[:header_end] + blob[header_end + 4 :]
        assert struct.unpack_from("<I", blob, header_end)[0] == zlib.crc32(body)

    def test_v2_layout_and_length_are_v1s(self, small_spec):
        # v2 differs from v1 only in the version field and in what its CRC covers
        params = init_params(small_spec, 2)
        blob = encode_v2(small_spec, params, np.ones(8), 1.0)
        header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
        payload = params_to_vector(params).astype("<f4").tobytes()
        assert struct.unpack_from("<HB", blob, 4) == (2, 0)
        assert blob[header_end + 4 : header_end + 8] == struct.pack("<I", len(payload))
        assert blob[header_end + 8 :] == payload
        assert len(blob) == header_end + 8 + len(payload)
        body = blob[:header_end] + blob[header_end + 4 :]
        assert struct.unpack_from("<I", blob, header_end)[0] == zlib.crc32(body)

    def test_v1_report_still_decodes(self, small_spec):
        params = init_params(small_spec, 2)
        norms = np.array([1.0, 2.5, 0.75, 3.125, 0.5, 1.25, 4.0, 2.0])
        spec, got, norms_got, scale = decode(seal(encode_v2(small_spec, params, norms, 2.25), 1))
        assert spec_to_json(spec) == spec_to_json(small_spec)
        assert np.array_equal(norms_got, norms) and scale == 2.25
        for a, b in zip(params.arrays(), got.arrays()):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    @writers
    def test_header_seed_edit_caught(self, write):
        blob = desk_report(write=write)
        assert blob.count(b"20260810") == 1
        edited = blob.replace(b"20260810", b"29260810")
        with pytest.raises(CodecError, match="checksum"):
            decode(edited)
        # v1's CRC covers only the payload, which is why v2 exists
        if write is encode_v2:
            assert decode(seal(edited, 1))[0].seed_rule.seed == 29260810

    @writers
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), flip=st.integers(1, 255))
    def test_every_single_byte_mutation_raises_codec_error(self, write, data, flip):
        blob = data.draw(desk_reports(write))
        at = data.draw(st.integers(0, len(blob) - 1))
        mutated = bytearray(blob)
        mutated[at] ^= flip
        with pytest.raises(CodecError):
            decode(bytes(mutated))

    @writers
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_truncation_raises_codec_error(self, write, data):
        blob = data.draw(desk_reports(write))
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(CodecError):
            decode(blob[:cut])

    @writers
    def test_all_truncations_and_low_bit_flips_of_one_report(self, write):
        # the exhaustive counterpart of the two properties for one report:
        # every proper prefix, and the low bit of every byte
        blob = desk_report(write=write)
        for n in range(len(blob)):
            with pytest.raises(CodecError):
                decode(blob[:n])
        for at in range(len(blob)):
            mutated = bytearray(blob)
            mutated[at] ^= 0x01
            with pytest.raises(CodecError):
                decode(bytes(mutated))


GROUP_SPEC = make_spec((2, 2, 3), (8, 8, 8, 8, 4), 2, 1, ((True, True, False),) * 2, seed=11, a=0.15)

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
# (spec, index into the v3 section's float64s, value, the field at fault)
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

    @pytest.mark.parametrize("case", sorted(BAD_PREPROCESSING))
    def test_decode_refuses(self, case):
        spec, norms, scale, field = BAD_PREPROCESSING[case]
        good = encode_v2(spec, init_params(spec, 1), *GOOD_PREPROCESSING[spec.n_spatial])
        values = {"norms": np.asarray(norms).tolist(), "scale": np.asarray(scale).tolist()}
        bad = edit_header(good, lambda h: h.update(values))
        for version in (1, 2):
            with pytest.raises(CodecError, match=f"header field '{field}'"):
                decode(seal(bad, version))

    @pytest.mark.parametrize("case", sorted(BAD_SECTION))
    def test_decode_refuses_v3(self, case):
        spec, at, value, field = BAD_SECTION[case]
        good = encode(spec, init_params(spec, 1), *GOOD_PREPROCESSING[spec.n_spatial])
        with pytest.raises(CodecError, match=f"^malformed field '{field}': every entry must be finite and > 0"):
            decode(edit_section(good, 8 * at, [value], "<f8"))

    @pytest.mark.parametrize(
        "field, value",
        [("scale", True), ("norms", ["1.0"] * 16), ("scale", 10**400), ("norms", [[[[1.0]]]] * 16)],
        ids=["bool-scale", "string-norms", "overflowing-scale", "nested-norms"],
    )
    def test_decode_refuses_what_is_not_a_number(self, field, value):
        bad = edit_header(desk_report(write=encode_v2), lambda h: h.update({field: value}))
        with pytest.raises(CodecError, match=f"header field '{field}'"):
            decode(seal(bad))

    @writers
    def test_deeply_nested_header_is_malformed(self, write):
        # the JSON parser gives up on deep nesting with RecursionError
        blob = desk_report(write=write)
        header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
        text = blob[11:header_end].replace(b'{"', b'{"x":' + b"[" * 100_000 + b"]" * 100_000 + b',"', 1)
        bad = blob[:7] + struct.pack("<I", len(text)) + text + blob[header_end:]
        with pytest.raises(CodecError, match="malformed header"):
            decode(seal(bad))

    @writers
    def test_valid_fields_round_trip(self, write):
        for spec, (norms, scale) in ((DESK_SPEC, GOOD_PREPROCESSING[2]), (GROUP_SPEC, GOOD_PREPROCESSING[3])):
            _, _, norms_rx, scale_rx = decode(write(spec, init_params(spec, 1), norms, scale))
            assert np.array_equal(norms_rx, norms) and np.array_equal(scale_rx, scale)
            assert type(scale_rx) is (float if spec is DESK_SPEC else np.ndarray)


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
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_decode_refuses(self, value, version):
        norms, scale = GOOD_PREPROCESSING[2]
        params = init_params(DESK_SPEC, 1)
        if version == 3:
            blob, at = encode(DESK_SPEC, params, norms, scale), 8 * 17
        else:
            blob, at = seal(encode_v2(DESK_SPEC, params, norms, scale), version), 0
        for weight in (0, 700, param_count(DESK_SPEC) - 1):
            with pytest.raises(CodecError, match="payload holds a NaN or infinite weight"):
                decode(edit_section(blob, at + 4 * weight, [value], "<f4"))


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
    @pytest.mark.parametrize("name", ["single_ue_desk", "group_desk", "single_ue_full", "group_full_a"])
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
            (2, 2, 2), (8, 8, 8, 8, 4), 2, 1, ((True, True, False),) * 2, seed=11, a=0.15
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
            (2, 4, 3), (8, 8, 8, 8, 4), 2, 1, ((True, False, False),) * 2, seed=11, a=0.15
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
            (2, 2, 3), (8, 8, 8, 8, 4), 2, 1, ((True, True, False),) * 2, seed=11, a=0.15
        )
        params = init_params(gspec, 5)
        norms = np.arange(1.0, 25.0).reshape(3, 8)
        scales = np.array([1.5, 2.0, 0.75])
        blob = encode(gspec, params, norms, scales)
        spec2, params2, norms2, scales2 = decode(blob)
        assert np.array_equal(norms2, norms)
        assert np.array_equal(scales2, scales)
        assert spec_to_json(spec2) == spec_to_json(gspec)
