import json
import struct
import zlib
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unn_csi.channel import add_noise, postprocess, preprocess, stack_users, synthesize
from unn_csi.codec import CodecError, _shapes, decode, encode, payload_bytes, recreate
from unn_csi.decoder import forward, init_params, load_spec, params_to_vector, spec_to_json
from unn_csi.fitting import FitConfig, fit
from unn_csi.baselines import nmse

from conftest import make_spec

FULL_SINGLE = make_spec((4, 4), (64,) * 6 + (72,), 4, 1, ((True, True),) * 4, seed=1, a=0.15)


@pytest.fixture
def small_spec():
    return make_spec((2, 2), (8, 8, 8, 8, 4), 2, 1, ((True, True), (True, True)), seed=11, a=0.15)


def seal(blob, version=2) -> bytes:
    """`blob` with its version field set to `version` and the CRC that
    version carries recomputed (v1: over the payload; v2: over every byte
    but the CRC field), so that an edited report reaches the checks behind
    the checksum."""
    out = bytearray(blob)
    struct.pack_into("<H", out, 4, version)
    crc_at = 11 + struct.unpack_from("<I", out, 7)[0]
    if version == 1:
        crc = zlib.crc32(bytes(out[crc_at + 8 :]))
    else:
        crc = zlib.crc32(bytes(out[crc_at + 4 :]), zlib.crc32(bytes(out[:crc_at])))
    struct.pack_into("<I", out, crc_at, crc)
    return bytes(out)


def edit_header(blob, edit) -> bytes:
    """`blob` with `edit` applied to its parsed header and the header length
    field set to match; the CRC is left as it was (see :func:`seal`)."""
    header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
    header = json.loads(blob[11:header_end])
    edit(header)
    text = json.dumps(header).encode()
    return blob[:7] + struct.pack("<I", len(text)) + text + blob[header_end:]


def zero_params(spec):
    p = init_params(spec, 0)
    for w in p.kernels:
        w[:] = 0.0
    for g in p.gammas:
        g[:] = 0.0
    for b in p.betas:
        b[:] = 0.0
    return p


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
        # the header is dumped with sorted keys, so "spec" is its last field
        spec = load_spec(str(resources.files("unn_csi").joinpath(f"specs/{name}.json")))
        shapes = _shapes(spec)
        blob = encode(spec, zero_params(spec), np.ones(shapes["norms"]), np.ones(shapes["scale"]))
        header = blob[11 : 11 + struct.unpack_from("<I", blob, 7)[0]]
        head, _, spec_bytes = header.partition(b',"spec":')
        assert head.startswith(b'{"norms":') and spec_bytes.endswith(b"}")
        assert spec_bytes[:-1] == spec_to_json(spec).encode("utf-8")

    def test_mismatched_params_rejected(self, small_spec):
        other = make_spec((2, 2), (4, 4, 4, 4, 4), 2, 1, ((True, True), (True, True)))
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

    def test_unknown_version(self, small_spec):
        blob = bytearray(encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0))
        blob[4] = 0xFF
        with pytest.raises(CodecError, match="version"):
            decode(bytes(blob))

    def test_truncated_payload(self, small_spec):
        blob = encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0)
        with pytest.raises(CodecError):
            decode(blob[:-3])

    def test_non_utf8_header_byte(self, small_spec):
        blob = bytearray(encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0))
        blob[11] = 0xFF
        with pytest.raises(CodecError, match="checksum"):
            decode(bytes(blob))
        for version in (1, 2):
            with pytest.raises(CodecError, match="header"):
                decode(seal(blob, version))

    def test_bumped_header_length(self, small_spec):
        blob = bytearray(encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0))
        (header_len,) = struct.unpack_from("<I", blob, 7)
        for bump in (1, 5, 1 << 20):
            struct.pack_into("<I", blob, 7, header_len + bump)
            with pytest.raises(CodecError):
                decode(bytes(blob))

    def test_truncated_inside_checksum_and_length_field(self, small_spec):
        blob = encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0)
        header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
        for cut in range(header_end, header_end + 8):
            with pytest.raises(CodecError):
                decode(blob[:cut])

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda h: h.pop("spec"), "spec"),
            (lambda h: h.update(spec=[1, 2]), "'spec'.*JSON object"),
            (lambda h: h.update(spec="spec"), "'spec'.*JSON object"),
            (lambda h: h["spec"].pop("seed_rule"), "'spec'.*seed_rule"),
            (lambda h: h["spec"].pop("widths"), "widths"),
            (lambda h: h["spec"].update(upsample_flags="TT"), "upsample_flags"),
            (lambda h: h["spec"]["seed_rule"].pop("seed"), "seed_rule.seed"),
            (lambda h: h.pop("norms"), "norms"),
            (lambda h: h.update(scale=None), "scale"),
        ],
    )
    def test_malformed_header_fields(self, small_spec, edit, field):
        bad = edit_header(encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0), edit)
        for version in (1, 2):
            with pytest.raises(CodecError, match=field):
                decode(seal(bad, version))

    def test_trailing_bytes_rejected(self, small_spec):
        blob = encode(small_spec, init_params(small_spec, 1), np.ones(8), 1.0)
        for version in (1, 2):
            with pytest.raises(CodecError, match="payload length"):
                decode(seal(blob, version) + b"\x00")


DESK_SPEC = load_spec(str(resources.files("unn_csi").joinpath("specs/single_ue_desk.json")))


def desk_report(init_seed=4, norms=tuple(np.linspace(0.5, 2.0, 16)), scale=1.75) -> bytes:
    """A v2 report of the packaged desk spec (seed rule seed 20260810)."""
    return encode(DESK_SPEC, init_params(DESK_SPEC, init_seed), np.array(norms), scale)


desk_reports = st.builds(
    desk_report,
    init_seed=st.integers(0, 2**31 - 1),
    norms=st.lists(st.floats(1e-6, 1e6), min_size=16, max_size=16),
    scale=st.floats(0.01, 100.0),
)


class TestVersion2:
    def test_layout_and_length_are_v1s(self, small_spec):
        # v2 differs from v1 only in the version field and in what its CRC covers
        params = init_params(small_spec, 2)
        blob = encode(small_spec, params, np.ones(8), 1.0)
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
        spec, got, norms_got, scale = decode(seal(encode(small_spec, params, norms, 2.25), 1))
        assert spec_to_json(spec) == spec_to_json(small_spec)
        assert np.array_equal(norms_got, norms) and scale == 2.25
        for a, b in zip(params.arrays(), got.arrays()):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_header_seed_edit_caught(self):
        blob = desk_report()
        assert blob.count(b"20260810") == 1
        edited = blob.replace(b"20260810", b"29260810")
        with pytest.raises(CodecError, match="checksum"):
            decode(edited)
        # v1's CRC covers only the payload, which is why v2 exists
        assert decode(seal(edited, 1))[0].seed_rule.seed == 29260810

    @settings(max_examples=300, deadline=None)
    @given(blob=desk_reports, data=st.data(), flip=st.integers(1, 255))
    def test_every_single_byte_mutation_raises_codec_error(self, blob, data, flip):
        at = data.draw(st.integers(0, len(blob) - 1))
        mutated = bytearray(blob)
        mutated[at] ^= flip
        with pytest.raises(CodecError):
            decode(bytes(mutated))

    @settings(max_examples=300, deadline=None)
    @given(blob=desk_reports, data=st.data())
    def test_every_truncation_raises_codec_error(self, blob, data):
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(CodecError):
            decode(blob[:cut])

    def test_all_truncations_and_low_bit_flips_of_one_report(self):
        # the exhaustive counterpart of the two properties for one report:
        # every proper prefix, and the low bit of every byte
        blob = desk_report()
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
        good = encode(spec, init_params(spec, 1), *GOOD_PREPROCESSING[spec.n_spatial])
        values = {"norms": np.asarray(norms).tolist(), "scale": np.asarray(scale).tolist()}
        bad = edit_header(good, lambda h: h.update(values))
        for version in (1, 2):
            with pytest.raises(CodecError, match=f"header field '{field}'"):
                decode(seal(bad, version))

    @pytest.mark.parametrize(
        "field, value",
        [("scale", True), ("norms", ["1.0"] * 16), ("scale", 10**400), ("norms", [[[[1.0]]]] * 16)],
        ids=["bool-scale", "string-norms", "overflowing-scale", "nested-norms"],
    )
    def test_decode_refuses_what_is_not_a_number(self, field, value):
        bad = edit_header(desk_report(), lambda h: h.update({field: value}))
        with pytest.raises(CodecError, match=f"header field '{field}'"):
            decode(seal(bad))

    def test_deeply_nested_header_is_malformed(self):
        # the JSON parser gives up on deep nesting with RecursionError
        blob = desk_report()
        header_end = 11 + struct.unpack_from("<I", blob, 7)[0]
        text = blob[11:header_end].replace(b'"norms":', b'"norms":' + b"[" * 100_000 + b"]" * 100_000 + b",\"x\":")
        bad = blob[:7] + struct.pack("<I", len(text)) + text + blob[header_end:]
        with pytest.raises(CodecError, match="malformed header"):
            decode(seal(bad))

    def test_valid_fields_round_trip(self):
        for spec, (norms, scale) in ((DESK_SPEC, GOOD_PREPROCESSING[2]), (GROUP_SPEC, GOOD_PREPROCESSING[3])):
            _, _, norms_rx, scale_rx = decode(encode(spec, init_params(spec, 1), norms, scale))
            assert np.array_equal(norms_rx, norms) and np.array_equal(scale_rx, scale)
            assert type(scale_rx) is (float if spec is DESK_SPEC else np.ndarray)



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
