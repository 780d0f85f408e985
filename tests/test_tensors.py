import numpy as np
import pytest

from unn_csi.tensors import make_upsampler, mode_product

from oracles import loop_mode_product, loop_upsampler


class TestModeProduct:
    def test_identity(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 4, 5))
        for mode in range(3):
            assert np.allclose(mode_product(t, np.eye(t.shape[mode]), mode), t)

    def test_shape_arithmetic(self):
        t = np.zeros((4, 4, 64))
        u = np.zeros((8, 4))
        assert mode_product(t, u, 0).shape == (8, 4, 64)

    def test_commutes_across_modes(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 3, 3))
        u = rng.standard_normal((5, 3))
        v = rng.standard_normal((4, 3))
        ab = mode_product(mode_product(t, u, 0), v, 1)
        ba = mode_product(mode_product(t, v, 1), u, 0)
        assert np.allclose(ab, ba, rtol=1e-12, atol=1e-14)
        assert np.allclose(ab, loop_mode_product(loop_mode_product(t, u, 0), v, 1), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4, 5), (6, 6, 6), (2, 3, 4, 2)])
    def test_matches_loop_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        t = rng.standard_normal(shape)
        for mode in range(len(shape)):
            u = rng.standard_normal((shape[mode] + 1, shape[mode]))
            got = mode_product(t, u, mode)
            want = loop_mode_product(t, u, mode)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-13)
            assert got.flags.c_contiguous

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mode_product(np.zeros((3, 4)), np.zeros((2, 5)), 0)

    @pytest.mark.parametrize("mode", [2, -1])
    def test_invalid_mode(self, mode):
        with pytest.raises(ValueError, match="out of range"):
            mode_product(np.zeros((2, 2)), np.eye(2), mode)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_out_receives_the_same_bits(self, mode):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 4, 5)).astype(np.float32)
        u = rng.standard_normal((2 * t.shape[mode], t.shape[mode])).astype(np.float32)
        want = mode_product(t, u, mode)
        buf = np.full(want.size + 7, np.nan, np.float32)  # larger buffer, written at its start
        got = mode_product(t, u, mode, out=buf[: want.size])
        assert got.shape == want.shape and np.shares_memory(got, buf)
        assert np.array_equal(got, want)
        assert np.isnan(buf[want.size :]).all()


class TestUpsampler:
    def test_n1_is_constant_extension(self):
        assert np.array_equal(make_upsampler(1), np.array([[1.0], [1.0]]))

    def test_n2_half_pixel_rows(self):
        want = np.array([[1, 0], [0.75, 0.25], [0.25, 0.75], [0, 1]])
        assert np.array_equal(make_upsampler(2), want)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_rows_sum_to_one(self, n):
        op = make_upsampler(n)
        assert np.all(np.abs(op.sum(axis=1) - 1.0) <= 1e-15)

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_at_most_two_nonzeros_per_row(self, n):
        op = make_upsampler(n)
        assert np.count_nonzero(op, axis=1).max() <= 2

    def test_constant_vector_preserved(self):
        op = make_upsampler(5)
        assert np.allclose(op @ np.full(5, 3.25), np.full(10, 3.25), rtol=0, atol=0)

    def test_double_application_preserves_ramp_endpoints(self):
        ramp = np.linspace(-2.0, 3.0, 4)
        out = make_upsampler(8) @ (make_upsampler(4) @ ramp)
        assert out[0] == ramp[0]
        assert out[-1] == ramp[-1]

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_matches_loop_oracle(self, n):
        assert np.array_equal(make_upsampler(n), loop_upsampler(n))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_upsampler(0)
