"""Tensor-engine tests: brute-force convolution oracles, finite-difference
gradient checks, and tape/backward contracts."""

import re
import tracemalloc
import weakref

import numpy as np
import pytest

from sparsemim import autograd as ag
from sparsemim import sparse
from sparsemim.masking import generate_mask
from sparsemim.model import EncoderConfig, SparkConfig, SparkModel, spark_forward, spark_loss

from gradtools import backprop, mean_square


def conv2d_bruteforce(x, w, b=None, stride=1, pad=0):
    """Direct-summation cross-correlation, the independent oracle."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                iy, ix = oy * stride - pad + i, ox * stride - pad + j
                                if 0 <= iy < h and 0 <= ix < wd:
                                    acc += x[ni, ci, iy, ix] * w[co, ci, i, j]
                    out[ni, co, oy, ox] = acc + (b[co] if b is not None else 0.0)
    return out


def tconv_bruteforce(x, w, b=None, stride=2, pad=1):
    """Direct-scatter transposed convolution oracle."""
    n, cin, h, wd = x.shape
    _, cout, kh, kw = w.shape
    ho = (h - 1) * stride - 2 * pad + kh
    wo = (wd - 1) * stride - 2 * pad + kw
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for ci in range(cin):
            for y in range(h):
                for xx in range(wd):
                    for co in range(cout):
                        for i in range(kh):
                            for j in range(kw):
                                oy, ox = y * stride - pad + i, xx * stride - pad + j
                                if 0 <= oy < ho and 0 <= ox < wo:
                                    out[ni, co, oy, ox] += x[ni, ci, y, xx] * w[ci, co, i, j]
    if b is not None:
        out += b[None, :, None, None]
    return out


# im2col and its adjoint col2im: the patch-matrix lowering, kept as the
# reference that the engine's gradient forms are compared against


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """[N,C,H,W] -> [N, C*kh*kw, Ho*Wo] patch matrix (copies)."""
    n, c, h, w = x.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xp = x
    if padding:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
        xp[:, :, padding : padding + h, padding : padding + w] = x
    s0, s1, s2, s3 = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, ho, wo),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return np.ascontiguousarray(win).reshape(n, c * kh * kw, ho * wo)


def _col2im(cols: np.ndarray, xshape, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add patches back to [N,C,H,W]."""
    n, c, h, w = xshape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    cols6 = cols.reshape(n, c, kh, kw, ho, wo)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols6[:, :, i, j]
    if padding:
        return np.ascontiguousarray(xp[:, :, padding : padding + h, padding : padding + w])
    return xp


class TestConv2d:
    def test_all_ones_center(self):
        x = ag.tensor(np.ones((1, 1, 3, 3)))
        w = ag.tensor(np.ones((1, 1, 3, 3)))
        y = ag.conv2d(x, w, stride=1, padding=1)
        assert y.data[0, 0, 1, 1] == 9.0
        ref = conv2d_bruteforce(x.data, w.data, stride=1, pad=1)
        np.testing.assert_array_equal(y.data, ref)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = ag.tensor(rng.normal(size=(2, 3, 4, 4)))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        y = ag.conv2d(x, ag.tensor(w))
        np.testing.assert_array_equal(y.data, x.data)

    def test_random_vs_bruteforce(self):
        rng = np.random.default_rng(1)
        # (2, 1, 3) is the dense oracle's geometry for a 3x3 sparse downsample;
        # on 9x7 the strided grids drop the last row or column
        for stride, pad, k in [(1, 0, 3), (1, 1, 3), (2, 0, 2), (4, 0, 4), (1, 2, 5), (2, 1, 3)]:
            for h, wd in [(8, 8), (9, 7)]:
                x = rng.normal(size=(2, 3, h, wd))
                w = rng.normal(size=(4, 3, k, k))
                b = rng.normal(size=4)
                y = ag.conv2d(ag.tensor(x), ag.tensor(w), ag.tensor(b), stride=stride, padding=pad)
                ref = conv2d_bruteforce(x, w, b, stride=stride, pad=pad)
                np.testing.assert_allclose(y.data, ref, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = ag.tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        w = ag.tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = ag.tensor(rng.normal(size=3), requires_grad=True)

        def f(t):
            return mean_square(ag.conv2d(t[0], t[1], t[2], stride=1, padding=1))

        assert ag.grad_check(f, [x, w, b]) < 1e-6

    def test_one_hot_kernel_is_shift(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 1, 6, 6))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 0, 1] = 1.0  # offset (-1, 0): reads the pixel one row up
        y = ag.conv2d(ag.tensor(x), ag.tensor(w), stride=1, padding=1)
        shifted = np.zeros_like(x)
        shifted[0, 0, 1:, :] = x[0, 0, :-1, :]
        np.testing.assert_array_equal(y.data, shifted)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x1, x2 = rng.normal(size=(1, 2, 5, 5)), rng.normal(size=(1, 2, 5, 5))
        w = ag.tensor(rng.normal(size=(3, 2, 3, 3)))
        a, b = 1.7, -0.3
        lhs = ag.conv2d(ag.tensor(a * x1 + b * x2), w, stride=1, padding=1).data
        rhs = a * ag.conv2d(ag.tensor(x1), w, stride=1, padding=1).data + \
            b * ag.conv2d(ag.tensor(x2), w, stride=1, padding=1).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_shape_errors_name_dimension(self):
        x = ag.tensor(np.zeros((1, 2, 4, 4)))
        w = ag.tensor(np.zeros((3, 5, 3, 3)))
        with pytest.raises(ValueError, match="channel"):
            ag.conv2d(x, w)
        with pytest.raises(ValueError, match="even kernel"):
            ag.conv2d(x, ag.tensor(np.zeros((3, 2, 2, 2))), stride=1)
        with pytest.raises(ValueError, match="bias"):
            ag.conv2d(x, ag.tensor(np.zeros((3, 2, 3, 3))), ag.tensor(np.zeros(4)), padding=1)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        x, w = rng.normal(size=(2, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3))
        y1 = ag.conv2d(ag.tensor(x), ag.tensor(w), stride=1, padding=1).data
        y2 = ag.conv2d(ag.tensor(x.copy()), ag.tensor(w.copy()), stride=1, padding=1).data
        assert np.array_equal(y1, y2)


class TestConvGradientForms:
    """The GEMM-shaped backward against the im2col/col2im and einsum formulations."""

    @staticmethod
    def _grads(op, x, w, g, **kw):
        xt, wt = ag.tensor(x, requires_grad=True), ag.tensor(w, requires_grad=True)
        y = op(xt, wt, **kw)
        backprop(y, g)
        return xt.grad, wt.grad

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("pad_kind", ["zero", "half", "wide"])
    def test_conv2d_stride1_matches_col2im(self, k, pad_kind):
        rng = np.random.default_rng(20 + k)
        # "wide" pads past k - 1, so the gradient's full correlation crops g
        pad = {"zero": 0, "half": k // 2, "wide": k}[pad_kind]
        n, cin, cout = 2, 3, 4
        # at 70x67 every Ho*Wo is above the row-shift kernel's column block
        # and no multiple of it, so the last block is partial
        for h, wd in [(7, 6), (70, 67)]:
            x, w = rng.normal(size=(n, cin, h, wd)), rng.normal(size=(cout, cin, k, k))
            ho, wo = h + 2 * pad - k + 1, wd + 2 * pad - k + 1
            g = rng.normal(size=(n, cout, ho, wo))
            y = ag.conv2d(ag.tensor(x), ag.tensor(w), stride=1, padding=pad).data
            gx, gw = self._grads(ag.conv2d, x, w, g, stride=1, padding=pad)
            gf = g.reshape(n, cout, ho * wo)
            cols = _im2col(x, k, k, 1, pad)
            ref_y = np.einsum("ok,nkl->nol", w.reshape(cout, -1), cols).reshape(y.shape)
            ref_x = _col2im(np.einsum("ok,nol->nkl", w.reshape(cout, -1), gf), x.shape, k, k, 1, pad)
            ref_w = np.einsum("nol,nkl->ok", gf, cols).reshape(w.shape)
            assert np.abs(y - ref_y).max() < 1e-12
            assert np.abs(gx - ref_x).max() < 1e-12
            assert np.abs(gw - ref_w).max() < 1e-12
        assert ho * wo > ag._CORR_BLOCK and ho * wo % ag._CORR_BLOCK

    def test_row_shifts_match_zero_filled_lowering(self, monkeypatch):
        """_row_shifts zeroes only the pad; every other entry comes from a copy of x."""

        def zero_filled(x, kw, ph, pw):
            n, c, h, w = x.shape
            hp, wo = h + 2 * ph, w + 2 * pw - kw + 1
            xp = np.zeros((n, c, h + 2 * max(ph, 0), w + 2 * max(pw, 0)))
            xp[:, :, max(ph, 0) : max(ph, 0) + h, max(pw, 0) : max(pw, 0) + w] = x
            xp = xp[:, :, max(-ph, 0) : max(-ph, 0) + hp, max(-pw, 0) :]  # a negative pad crops
            return np.stack([xp[:, :, :, j : j + wo] for j in range(kw)], axis=2).reshape(n, c * kw, hp * wo)

        # a fresh buffer holds NaN, so an entry that is neither copied nor zeroed shows
        monkeypatch.setattr(np, "empty", lambda shape, *a, **k: np.full(shape, np.nan, *a, **k))
        rng = np.random.default_rng(40)
        cases = 0
        for h, w in [(5, 6), (3, 2), (1, 4)]:
            x = rng.normal(size=(2, 3, h, w))
            for kw in range(1, 5):
                for ph in range(-1, 4):
                    for pw in range(-1, 4):
                        if h + 2 * ph < 1 or w + 2 * pw - kw + 1 < 1:
                            continue
                        whole = zero_filled(x, kw, ph, pw)
                        assert np.array_equal(ag._row_shifts(x, kw, ph, pw), whole)
                        # every slab of rows a..b is those rows of the whole matrix
                        wo = w + 2 * pw - kw + 1
                        for a in range(h + 2 * ph):
                            for b in range(a + 1, h + 2 * ph + 1):
                                assert np.array_equal(ag._row_shifts(x, kw, ph, pw, a, b), whole[:, :, a * wo : b * wo])
                        cases += 1
        assert cases > 200

    def test_conv2d_strided_weight_grad_matches_einsum(self):
        rng = np.random.default_rng(30)
        n, cin, cout = 2, 3, 4
        # 9x7: floor division drops a row and a column; 140x133: the stride-2
        # grids are above the column block and no multiple of it
        for k, stride, pad in [(2, 2, 0), (3, 2, 1), (4, 4, 0)]:
            for h, wd in [(9, 7), (70, 67), (140, 133)]:
                x, w = rng.normal(size=(n, cin, h, wd)), rng.normal(size=(cout, cin, k, k))
                ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
                g = rng.normal(size=(n, cout, ho, wo))
                y = ag.conv2d(ag.tensor(x), ag.tensor(w), stride=stride, padding=pad).data
                gx, gw = self._grads(ag.conv2d, x, w, g, stride=stride, padding=pad)
                gf = g.reshape(n, cout, ho * wo)
                cols = _im2col(x, k, k, stride, pad)
                ref_y = np.einsum("ok,nkl->nol", w.reshape(cout, -1), cols).reshape(y.shape)
                ref_x = _col2im(np.einsum("ok,nol->nkl", w.reshape(cout, -1), gf), x.shape, k, k, stride, pad)
                ref_w = np.einsum("nol,nkl->ok", gf, cols).reshape(w.shape)
                assert np.abs(y - ref_y).max() < 1e-12
                assert np.abs(gx - ref_x).max() < 1e-12
                assert np.abs(gw - ref_w).max() < 1e-12

    def test_conv_transpose2d_matches_einsum(self):
        rng = np.random.default_rng(31)
        n, cin, cout = 2, 3, 2
        # at 70x67 the 2x2 correlation's (H+1)*(W+1) columns are above the
        # column block and no multiple of it
        for h, wd in [(4, 5), (70, 67)]:
            x, w = rng.normal(size=(n, cin, h, wd)), rng.normal(size=(cin, cout, 4, 4))
            g = rng.normal(size=(n, cout, 2 * h, 2 * wd))
            y = ag.conv_transpose2d(ag.tensor(x), ag.tensor(w)).data
            gx, gw = self._grads(ag.conv_transpose2d, x, w, g)
            xf, wm = x.reshape(n, cin, h * wd), w.reshape(cin, -1)
            gcols = _im2col(g, 4, 4, 2, 1)
            ref_y = _col2im(np.einsum("ck,ncl->nkl", wm, xf), y.shape, 4, 4, 2, 1)
            ref_x = np.einsum("ck,nkl->ncl", wm, gcols).reshape(x.shape)
            ref_w = np.einsum("ncl,nkl->ck", xf, gcols).reshape(w.shape)
            assert np.abs(y - ref_y).max() < 1e-12
            assert np.abs(gx - ref_x).max() < 1e-12
            assert np.abs(gw - ref_w).max() < 1e-12
        assert (h + 1) * (wd + 1) > ag._CORR_BLOCK and (h + 1) * (wd + 1) % ag._CORR_BLOCK

    def test_gradcheck_padding0_3x3(self):
        rng = np.random.default_rng(32)
        x = ag.tensor(rng.normal(size=(2, 2, 6, 5)), requires_grad=True)
        w = ag.tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = ag.tensor(rng.normal(size=3), requires_grad=True)

        def f(t):
            return mean_square(ag.conv2d(t[0], t[1], t[2], stride=1, padding=0))

        assert ag.grad_check(f, [x, w, b]) <= 1e-4


class TestBlockedLowering:
    """Row shifts built one block's slab at a time give the bits of the whole matrix."""

    @staticmethod
    def _run(op, x, w, g, monkeypatch, cap, **kw):
        """Forward, input and weight gradients of ``op`` with the one-pass cap at ``cap``;
        also the row ranges of every row-shift build."""
        built = []
        row_shifts = getattr(ag._row_shifts, "__wrapped__", ag._row_shifts)  # not an earlier run's spy

        def spy(x, kw, ph, pw, a=0, b=None):
            built.append((a, b))
            return row_shifts(x, kw, ph, pw, a, b)

        spy.__wrapped__ = row_shifts

        monkeypatch.setattr(ag, "_ONE_PASS_BYTES", cap)
        monkeypatch.setattr(ag, "_row_shifts", spy)
        xt, wt = ag.tensor(x, requires_grad=True), ag.tensor(w, requires_grad=True)
        y = op(xt, wt, **kw)
        backprop(y, g)
        return (y.data, xt.grad, wt.grad), built

    def _assert_same_bits(self, op, x, w, monkeypatch, **kw):
        rng = np.random.default_rng(61)
        with ag.no_grad():
            shape = op(ag.tensor(x), ag.tensor(w), **kw).shape
        g = rng.normal(size=shape)
        whole, built_whole = self._run(op, x, w, g, monkeypatch, 1 << 62, **kw)
        blocked, built_blocked = self._run(op, x, w, g, monkeypatch, 0, **kw)
        for a, b in zip(whole, blocked):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert all(b is None for _, b in built_whole)
        return built_blocked

    # 70x67 and the stride-2 grid of 140x133 give Ho*Wo above the column block,
    # no multiple of it, and block edges in mid-row (Wo does not divide 4096)
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_blocked_matches_whole(self, k, pad, stride, monkeypatch):
        rng = np.random.default_rng(60 + k)
        h, wd = (70, 67) if stride == 1 else (140, 133)
        x, w = rng.normal(size=(2, 3, h, wd)), rng.normal(size=(4, 3, k, k))
        built = self._assert_same_bits(ag.conv2d, x, w, monkeypatch, stride=stride, padding=pad)
        assert sum(b is not None for _, b in built) > 2

    def test_conv_transpose2d_blocked_matches_whole(self, monkeypatch):
        rng = np.random.default_rng(62)
        x, w = rng.normal(size=(2, 3, 70, 67)), rng.normal(size=(3, 2, 4, 4))
        built = self._assert_same_bits(ag.conv_transpose2d, x, w, monkeypatch)
        assert sum(b is not None for _, b in built) > 2

    def test_cap_is_the_largest_matrix_built_whole(self, monkeypatch):
        rng = np.random.default_rng(63)
        x, w = rng.normal(size=(2, 3, 70, 67)), rng.normal(size=(4, 3, 3, 3))
        g = rng.normal(size=(2, 4, 70, 67))
        nbytes = x.shape[0] * x.shape[1] * 3 * 72 * 67 * x.itemsize  # the forward's M: C*kw rows of Hp*Wo
        ref, _ = self._run(ag.conv2d, x, w, g, monkeypatch, 1 << 62, padding=1)
        # the forward's slabs: each block's first row to its last row read by kernel row 2, plus one
        slabs = [(s // 67, (min(s + ag._CORR_BLOCK, 70 * 67) - 1) // 67 + 3) for s in range(0, 70 * 67, ag._CORR_BLOCK)]
        for cap, forward_builds in ((nbytes, [(0, None)]), (nbytes - 1, slabs)):
            got, built = self._run(ag.conv2d, x, w, g, monkeypatch, cap, padding=1)
            assert all(np.array_equal(a, b) for a, b in zip(ref, got))
            assert built[: len(forward_builds)] == forward_builds

    def test_large_conv_allocates_less_than_its_whole_matrix(self):
        # [4,4,224,224] x [4,4,3,3], padding 1: the whole row-shift matrix is
        # 4*12*226*224 float64, 19.4 MB; forward + backward stay under it
        rng = np.random.default_rng(64)
        x = ag.tensor(rng.normal(size=(4, 4, 224, 224)), requires_grad=True)
        w = ag.tensor(rng.normal(size=(4, 4, 3, 3)), requires_grad=True)
        whole = 4 * 12 * 226 * 224 * 8
        assert whole > ag._ONE_PASS_BYTES
        tracemalloc.start()
        try:
            backprop(ag.conv2d(x, w, padding=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            ag.active_tape().clear()
        assert x.grad is not None and w.grad is not None
        assert peak < whole, f"peak {peak / 1e6:.1f} MB"


class TestConvSavedState:
    """What a recorded conv2d keeps for its backward, and its weight gradient alone."""

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (1, 1, 0), (5, 1, 2), (2, 2, 0), (3, 2, 1), (4, 4, 0)])
    def test_conv2d_saves_its_input_and_weight_only(self, k, stride, pad):
        rng = np.random.default_rng(50)
        x = ag.tensor(rng.normal(size=(2, 3, 13, 11)), requires_grad=True)
        w = ag.tensor(rng.normal(size=(4, 3, k, k)), requires_grad=True)
        y = ag.conv2d(x, w, stride=stride, padding=pad)
        saved = [c.cell_contents for c in y.tape_node.backward_fn.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        ag.active_tape().clear()
        ks = -(-k // stride)
        # the input itself, at every stride: a strided conv's backward rebuilds its space-to-depth
        inputs = [a for a in saved if a is x.data]
        if stride == 1:
            weights = [a for a in saved if a.size == w.size and np.shares_memory(a, w.data)]
        else:  # the weight's space-to-depth copy
            ws = ag._s2d(w.data, stride, 0, ks, ks)
            weights = [a for a in saved if a.shape == ws.shape and np.array_equal(a, ws)]
        assert len(inputs) == len(weights) == 1 and len(saved) == 2

    @pytest.mark.parametrize("k,stride,pad,sizes", [(4, 4, 0, [(12, 8), (283, 270)]), (3, 1, 1, [(7, 6), (70, 67)])])
    def test_weight_grad_without_input_grad_matches_einsum(self, k, stride, pad, sizes):
        # the patchify stem: its input needs no gradient, so g's row shifts are built for gw alone
        rng = np.random.default_rng(51)
        n, cin, cout = 2, 3, 4
        for h, wd in sizes:
            x, w = rng.normal(size=(n, cin, h, wd)), rng.normal(size=(cout, cin, k, k))
            ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
            g = rng.normal(size=(n, cout, ho, wo))
            xt, wt = ag.tensor(x), ag.tensor(w, requires_grad=True)
            backprop(ag.conv2d(xt, wt, stride=stride, padding=pad), g)
            ref_w = np.einsum("nol,nkl->ok", g.reshape(n, cout, ho * wo), _im2col(x, k, k, stride, pad))
            assert xt.grad is None
            assert np.abs(wt.grad - ref_w.reshape(w.shape)).max() < 1e-12
        # the last size's correlation input spans more than one column block, the last one partial
        cols = (ho + (k - 1) // stride) * (wo + (k - 1) // stride) if stride > 1 else h * wd
        assert cols > ag._CORR_BLOCK and cols % ag._CORR_BLOCK


class TestConvTranspose2d:
    def test_single_pixel(self):
        v, c = 3.0, 2.0
        y = ag.conv_transpose2d(ag.tensor(np.full((1, 1, 1, 1), v)), ag.tensor(np.full((1, 1, 4, 4), c)))
        ref = tconv_bruteforce(np.full((1, 1, 1, 1), v), np.full((1, 1, 4, 4), c))
        assert y.data.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(y.data, ref)
        # each output entry collects exactly one tap here: v * c
        np.testing.assert_array_equal(y.data, np.full((1, 1, 2, 2), v * c))

    def test_zero_input_bias_broadcast(self):
        b = np.array([0.5, -1.0])
        y = ag.conv_transpose2d(ag.tensor(np.zeros((1, 3, 2, 2))), ag.tensor(np.zeros((3, 2, 4, 4))),
                                ag.tensor(b))
        np.testing.assert_array_equal(y.data, np.broadcast_to(b[None, :, None, None], (1, 2, 4, 4)))

    def test_random_vs_bruteforce(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 3, 3))
        w = rng.normal(size=(3, 2, 4, 4))
        b = rng.normal(size=2)
        y = ag.conv_transpose2d(ag.tensor(x), ag.tensor(w), ag.tensor(b))
        np.testing.assert_allclose(y.data, tconv_bruteforce(x, w, b), atol=1e-12)

    def test_doubling_enforced(self):
        x = ag.tensor(np.zeros((1, 1, 4, 4)))
        w = ag.tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ValueError, match="doubl"):
            ag.conv_transpose2d(x, w)

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        x = ag.tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        w = ag.tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        b = ag.tensor(rng.normal(size=3), requires_grad=True)

        def f(t):
            return mean_square(ag.conv_transpose2d(t[0], t[1], t[2]))

        assert ag.grad_check(f, [x, w, b]) < 1e-6


class TestConvLowering:
    """Which private helpers each convolution runs on, and what it records."""

    @staticmethod
    def _forbid(monkeypatch, *names):
        def called(*args, **kwargs):
            raise AssertionError("forbidden helper called")

        for name in names:
            monkeypatch.setattr(ag, name, called)

    def test_conv_transpose2d_calls_no_conv2d_im2col_or_col2im(self, monkeypatch):
        # perfbench/spans.py rebinds ag.conv2d; time spent in a transposed
        # conv must not be attributed to it. im2col and col2im are no longer
        # in the engine at all.
        assert not hasattr(ag, "_im2col") and not hasattr(ag, "_col2im")
        self._forbid(monkeypatch, "conv2d")
        rng = np.random.default_rng(40)
        x = ag.tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        w = ag.tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
        b = ag.tensor(rng.normal(size=2), requires_grad=True)
        backprop(ag.conv_transpose2d(x, w, b))
        assert x.grad.shape == x.shape and w.grad.shape == w.shape and b.grad.shape == b.shape

    def test_each_conv_records_one_tape_node(self):
        rng = np.random.default_rng(42)
        x = ag.tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        tape = ag.active_tape()
        before = len(tape)
        y = ag.conv2d(x, ag.tensor(rng.normal(size=(3, 3, 3, 3)), requires_grad=True), stride=1, padding=1)
        assert len(tape) == before + 1
        y = ag.conv2d(y, ag.tensor(rng.normal(size=(3, 3, 2, 2)), requires_grad=True), stride=2)
        assert len(tape) == before + 2
        y = ag.conv2d(y, ag.tensor(rng.normal(size=(3, 3, 3, 3)), requires_grad=True), stride=2, padding=1)
        assert len(tape) == before + 3
        y = ag.conv_transpose2d(y, ag.tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True),
                                ag.tensor(np.zeros(2), requires_grad=True))
        assert len(tape) == before + 4
        backprop(y)


class TestBatchNorm:
    def test_normalizes(self):
        rng = np.random.default_rng(8)
        x = ag.tensor(rng.normal(2.0, 3.0, size=(4, 3, 5, 5)))
        y = ag.batchnorm2d(x, ag.tensor(np.ones(3)), ag.tensor(np.zeros(3)), ag.BatchNormState(3))
        assert np.abs(y.data.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(y.data.var(axis=(0, 2, 3)) - 1.0).max() < 1e-4

    def test_constant_channel(self):
        x = ag.tensor(np.full((2, 1, 3, 3), 7.0))
        y = ag.batchnorm2d(x, ag.tensor(np.ones(1)), ag.tensor(np.zeros(1)), ag.BatchNormState(1))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-8)

    def test_eval_before_training_uses_init_stats(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 2, 3, 3))
        y = ag.batchnorm2d(ag.tensor(x), ag.tensor(np.ones(2)), ag.tensor(np.zeros(2)),
                           ag.BatchNormState(2), mode="eval")
        np.testing.assert_allclose(y.data, x / np.sqrt(1.0 + 1e-5), atol=1e-12)

    def test_running_stats_update(self):
        rng = np.random.default_rng(10)
        x = rng.normal(1.0, 2.0, size=(2, 1, 4, 4))
        st = ag.BatchNormState(1)
        ag.batchnorm2d(ag.tensor(x), ag.tensor(np.ones(1)), ag.tensor(np.zeros(1)), st)
        m = x.size
        np.testing.assert_allclose(st.running_mean, 0.1 * x.mean(), atol=1e-12)
        np.testing.assert_allclose(st.running_var, 0.9 * 1.0 + 0.1 * x.var() * m / (m - 1), atol=1e-12)

    def test_gradcheck_both_modes(self):
        rng = np.random.default_rng(11)
        x = ag.tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        g = ag.tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        b = ag.tensor(rng.normal(size=3), requires_grad=True)
        st = ag.BatchNormState(3)

        def f_train(t):
            return mean_square(ag.batchnorm2d(t[0], t[1], t[2], st, "train"))

        assert ag.grad_check(f_train, [x, g, b]) < 1e-4
        st.running_mean = rng.normal(size=3)
        st.running_var = rng.uniform(0.5, 2.0, 3)

        def f_eval(t):
            return mean_square(ag.batchnorm2d(t[0], t[1], t[2], st, "eval"))

        assert ag.grad_check(f_eval, [x, g, b]) < 1e-6


def bn_reference(x, gamma, beta, state, mode, clamp, g):
    """Batch norm by per-element passes plus a separate clamp: the unfused
    composition that the fused op must equal. Returns the output, the gradients of
    ``sum(output * g)`` for x, gamma and beta, the updated running statistics, and the
    size of the terms that the x gradient sums: in train mode they nearly cancel when a
    channel holds few values (at m = 2 the gradient is O(eps)), so its rounding error is
    measured against them."""
    axes = (0,) + tuple(range(2, x.ndim))
    c = gamma.size
    m = x.size // c
    bshape = (1, c) + (1,) * (x.ndim - 2)
    gb = gamma.reshape(bshape)
    if mode == "train":
        mu = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        unbiased = var * (m / (m - 1)) if m > 1 else var
        rm = (1 - ag.BN_MOMENTUM) * state.running_mean + ag.BN_MOMENTUM * mu.reshape(c)
        rv = (1 - ag.BN_MOMENTUM) * state.running_var + ag.BN_MOMENTUM * unbiased.reshape(c)
    else:
        mu, var = state.running_mean.reshape(bshape), state.running_var.reshape(bshape)
        rm, rv = state.running_mean, state.running_var
    inv = 1.0 / np.sqrt(var + ag.BN_EPS)
    xhat = (x - mu) * inv
    z = gb * xhat + beta.reshape(bshape)
    if clamp is None:
        y, gz = z, g
    else:
        y, gz = np.clip(z, 0.0, clamp), g * ((z > 0.0) & (z < clamp))
    dxhat = gz * gb
    if mode == "train":
        s1 = dxhat.sum(axis=axes, keepdims=True)
        s2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
        gx = (inv / m) * (m * dxhat - s1 - xhat * s2)
    else:
        gx = dxhat * inv
    return y, (gx, (gz * xhat).sum(axis=axes), gz.sum(axis=axes)), (rm, rv), np.abs(dxhat * inv).max()


def identity_bn(x, clamp):
    """The fused op reduced to its clamp on a [rows, 1] tensor: eval-mode batch norm
    whose statistics and affine map are the identity ((1 - eps) + eps == 1.0 exactly)."""
    st = ag.BatchNormState(1)
    st.running_var[:] = 1.0 - ag.BN_EPS
    return ag.batchnorm_rows(x, ag.tensor(np.ones(1)), ag.tensor(np.zeros(1)), st, "eval", clamp)


class TestFusedBatchNorm:
    """batchnorm2d / batchnorm_rows with the clamp folded in: one tape node in closed form,
    equal to the multi-pass batch norm plus a separate clamp."""

    @pytest.mark.parametrize("shape", [(3, 4, 5, 6), (40, 4), (2, 4, 1, 1), (2, 4)])  # the last two: m = 2
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("clamp", [None, np.inf, 6.0])
    def test_matches_unfused_reference(self, shape, mode, clamp):
        rng = np.random.default_rng(60)
        x = rng.normal(1.0, 2.0, size=shape)
        gamma = np.array([2.5, 0.0, 4.0, -1.5])  # a zero entry; large enough that ReLU6 clips
        beta = np.array([3.0, 1.0, -0.5, 2.0])
        g = rng.normal(size=shape)
        st, st_ref = ag.BatchNormState(4), ag.BatchNormState(4)
        if mode == "eval":
            st.running_mean, st.running_var = rng.normal(size=4), rng.uniform(0.5, 2.0, 4)
            st_ref.running_mean, st_ref.running_var = st.running_mean.copy(), st.running_var.copy()
        y_ref, grads_ref, stats_ref, gx_terms = bn_reference(x, gamma, beta, st_ref, mode, clamp, g)
        tensors = [ag.tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        op = ag.batchnorm2d if len(shape) == 4 else ag.batchnorm_rows
        tape = ag.active_tape()
        before = len(tape)
        y = op(*tensors, st, mode, clamp)
        assert len(tape) == before + 1
        backprop(y, g)

        def rel(a, b, scale=0.0):
            return np.abs(a - b).max() / max(np.abs(b).max(), scale)

        assert rel(y.data, y_ref) < 1e-12
        assert rel(tensors[0].grad, grads_ref[0], gx_terms) < 1e-12
        for t, ref in zip(tensors[1:], grads_ref[1:]):
            assert rel(t.grad, ref) < 1e-12
        assert rel(st.running_mean, stats_ref[0]) < 1e-12 and rel(st.running_var, stats_ref[1]) < 1e-12
        if clamp == 6.0 and x.size > 8:  # beyond m = 2 the outputs reach both sides of both kinks
            assert (y.data == 0.0).any() and (y.data == 6.0).any()

    def test_bad_clamp_rejected(self):
        x = ag.tensor(np.ones((2, 1)))
        with pytest.raises(ValueError, match="clamp"):
            identity_bn(x, 0.0)


class TestActivations:
    """ReLU and ReLU6 as the fused op's clamp."""

    def test_values(self):
        x = ag.tensor(np.array([-1.0, 0.0, 3.0, 6.0, 7.5])[:, None])
        np.testing.assert_array_equal(identity_bn(x, None).data[:, 0], [-1.0, 0.0, 3.0, 6.0, 7.5])
        np.testing.assert_array_equal(identity_bn(x, np.inf).data[:, 0], [0.0, 0.0, 3.0, 6.0, 7.5])
        np.testing.assert_array_equal(identity_bn(x, 6.0).data[:, 0], [0.0, 0.0, 3.0, 6.0, 6.0])

    def test_gradcheck_away_from_kinks(self):
        x = ag.tensor(np.array([-2.0, -0.5, 0.5, 2.0, 5.5, 6.5, 8.0])[:, None], requires_grad=True)
        assert ag.grad_check(lambda t: mean_square(identity_bn(t[0], np.inf)), [x]) < 1e-6
        assert ag.grad_check(lambda t: mean_square(identity_bn(t[0], 6.0)), [x]) < 1e-6

    def test_kink_subgradient_zero(self):
        x = ag.tensor(np.array([0.0, 6.0])[:, None], requires_grad=True)
        backprop(identity_bn(x, 6.0))
        np.testing.assert_array_equal(x.grad[:, 0], [0.0, 0.0])
        x.zero_grad()
        backprop(identity_bn(x, np.inf))
        np.testing.assert_array_equal(x.grad[:, 0], [0.0, 1.0])


class TestElementwiseReductions:
    def test_add_zero(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 3))
        np.testing.assert_array_equal(ag.add(ag.tensor(x), ag.tensor(np.zeros((3, 3)))).data, x)

    def test_mean(self):
        # mse: the mean of the squared differences
        x = ag.tensor(np.array([1.0, 2.0, 3.0]))
        assert ag.mse(x, np.array([0.0, 4.0, 3.0])).item() == 5.0 / 3.0

    def test_masked_mean(self):
        x = ag.tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        mask = np.array([[True, False], [False, True]])
        assert ag.mse(x, np.ones((2, 2)), np.array([[False], [True]])).item() == 6.5  # broadcast: (4 + 9) / 2
        ag.backward(ag.mse(x, np.zeros((2, 2)), mask))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 4.0]])  # 2 * x / 2 on the mask, 0 off it
        assert ag.mse(x, np.zeros((2, 2)), mask).item() == 8.5  # (1 + 16) / 2
        ag.active_tape().clear()
        with pytest.raises(ValueError, match="empty selection mask"):
            ag.mse(x, np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))

    def test_gradchecks(self):
        rng = np.random.default_rng(13)
        x = ag.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        y = ag.tensor(rng.normal(size=(3, 4)), requires_grad=True)
        tgt, sel = rng.normal(size=(3, 4)), np.array([[True], [False], [True]])
        assert ag.grad_check(lambda t: mean_square(ag.add(t[0], t[1])), [x, y]) < 1e-6
        assert ag.grad_check(lambda t: ag.mse(t[0], tgt), [x]) < 1e-6
        assert ag.grad_check(lambda t: ag.mse(t[0], tgt, sel), [x]) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ag.add(ag.tensor(np.zeros(3)), ag.tensor(np.zeros(4)))
        with pytest.raises(ValueError, match="shape mismatch"):
            ag.mse(ag.tensor(np.zeros(3)), np.zeros(4))

    def test_add_broadcast_grad_sums_the_samples(self):
        rng = np.random.default_rng(15)
        x = ag.tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
        p = ag.tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        g = rng.normal(size=(3, 2, 4, 4))
        y = ag.add_broadcast(x, p)
        np.testing.assert_array_equal(y.data, x.data + p.data)
        backprop(y, g)
        np.testing.assert_array_equal(x.grad, g)
        np.testing.assert_array_equal(p.grad, g.sum(axis=0, keepdims=True))

    @pytest.mark.parametrize("shape", [(1, 3, 1, 8), (2, 3, 8, 8), (3, 8, 8), (1, 3, 8, 4)])
    def test_add_broadcast_takes_one_sample_of_the_lhs_shape(self, shape):
        x = ag.tensor(np.zeros((2, 3, 8, 8)))
        with pytest.raises(ValueError, match=re.escape(f"{shape} is not one sample of lhs (2, 3, 8, 8)")):
            ag.add_broadcast(x, ag.tensor(np.zeros(shape)))


class TestBackward:
    def test_sum_grad_ones(self):
        # the gradient of a sum is ones; add passes it on unchanged
        x = ag.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backprop(ag.add(x, ag.tensor(np.zeros((2, 3)))))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_analytic(self):
        x = ag.tensor(np.array([1.0, 2.0]), requires_grad=True)
        ag.backward(ag.mse(x, np.zeros(2)))
        np.testing.assert_array_equal(x.grad, [1.0, 2.0])  # d/dx (x0^2 + x1^2) / 2

    def test_composite_chain_gradcheck(self):
        rng = np.random.default_rng(14)
        st = ag.BatchNormState(3)
        tgt = rng.normal(size=(2, 3, 5, 5))
        x = ag.tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = ag.tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        g = ag.tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        b = ag.tensor(rng.normal(size=3) * 0.1, requires_grad=True)

        def f(t):
            y = ag.batchnorm2d(ag.conv2d(t[0], t[1], None, 1, 1), t[2], t[3], st, "train", clamp=6.0)
            return ag.mse(y, tgt)

        assert ag.grad_check(f, [x, w, g, b]) < 1e-5

    def test_non_scalar_rejected(self):
        x = ag.tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ag.backward(ag.add(x, x))
        ag.active_tape().clear()

    def test_no_grad_for_constant_leaves(self):
        x = ag.tensor(np.ones(3), requires_grad=True)
        c = ag.tensor(np.ones(3))
        backprop(ag.add(x, c))
        assert c.grad is None and x.grad is not None

    def test_grad_accumulates_across_reuse(self):
        x = ag.tensor(np.array([2.0]), requires_grad=True)
        ag.backward(ag.mse(ag.add(x, x), np.zeros(1)))
        np.testing.assert_array_equal(x.grad, [16.0])  # d/dx (2x)^2

    def test_tape_cleared_after_backward(self):
        x = ag.tensor(np.ones(2), requires_grad=True)
        ag.backward(ag.mse(ag.add(x, x), np.zeros(2)))
        assert len(ag.active_tape()) == 0

    def test_no_grad_context_records_nothing(self):
        x = ag.tensor(np.ones(2), requires_grad=True)
        with ag.no_grad():
            y = ag.add(x, x)
        assert y.tape_node is None and not y.requires_grad

    def test_each_node_visited_exactly_once(self):
        # diamond graph: y = x (an identity batch norm) used twice; every backward_fn must fire once
        calls = []
        x = ag.tensor(np.array([[3.0]]), requires_grad=True)
        y = identity_bn(x, None)
        z = ag.add(y, y)
        loss = ag.mse(z, np.zeros((1, 1)))
        for node in ag.active_tape().nodes:
            orig = node.backward_fn

            def wrapped(g, orig=orig, node=node):
                calls.append(node.index)
                orig(g)

            node.backward_fn = wrapped
        ag.backward(loss)
        assert calls == sorted(calls, reverse=True)  # reverse creation order
        assert len(calls) == len(set(calls)) == 3
        np.testing.assert_array_equal(x.grad, [[24.0]])  # d/dx (2x)^2


class TestGradientOwnership:
    """Gradients are stored without copies, so no backward may write into an array
    it received or passed on."""

    @staticmethod
    def _leaf_grads(cfg, batch, grid, seed):
        model = SparkModel(cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        images = rng.random((batch, 3, cfg.image_size, cfg.image_size))
        masks = [generate_mask(grid, grid, 0.6, rng, patch_size=cfg.patch_size) for _ in range(batch)]
        ag.backward(spark_loss(model, spark_forward(model, images, masks, mode="train"), images, masks))
        return [p.grad.tobytes() for _, p in model.named_parameters()]

    @pytest.mark.parametrize("geometry", ["desk", "paper"])
    def test_step_runs_with_read_only_gradients(self, monkeypatch, geometry):
        if geometry == "desk":  # the c09 recipe's model, batch 8
            enc, size, patch, batch = EncoderConfig(stages=3, widths=(16, 32, 64)), 64, 16, 8
        else:  # the paper geometry at batch 2
            enc, size, patch, batch = EncoderConfig(stages=4, widths=(32, 64, 128, 256), blocks_per_stage=2), 224, 32, 2
        cfg = SparkConfig(encoder=enc, image_size=size, patch_size=patch, dec_fea_dim=64)
        plain = self._leaf_grads(cfg, batch, size // patch, 70)

        def read_only(t, g, accumulate=ag.accumulate_grad):
            g = np.asarray(g)
            g.flags.writeable = False
            accumulate(t, g)

        monkeypatch.setattr(ag, "accumulate_grad", read_only)
        monkeypatch.setattr(sparse, "accumulate_grad", read_only)
        assert self._leaf_grads(cfg, batch, size // patch, 70) == plain

    def test_later_accumulation_leaves_a_shared_gradient_alone(self):
        a = ag.tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = ag.tensor(np.array([0.5, 3.0]), requires_grad=True)
        q = ag.add(a, ag.tensor(np.zeros(2)))
        s = ag.add(a, b)  # its backward hands one array to both a and b
        backprop(ag.add(s, q), np.array([2.0, 5.0]))  # q's term accumulates into a after s's backward
        np.testing.assert_array_equal(b.grad, [2.0, 5.0])
        np.testing.assert_array_equal(a.grad, [4.0, 10.0])


class TestBackwardReleases:
    """backward() frees each op output's gradient and closure once that op has run."""

    def test_downstream_state_freed_before_upstream_runs(self):
        seen = {}
        x = ag.tensor(np.array([[1.0], [-2.0], [3.0]]), requires_grad=True)
        y = identity_bn(x, None)
        probe = ag.tensor(y.data.copy())

        def probe_backward(g):
            seen["grads released"] = z.grad is None and loss.grad is None
            seen["closures released"] = z.tape_node.backward_fn is None and loss.tape_node.backward_fn is None
            seen["saved arrays freed"] = all(r() is None for r in saved_refs)
            ag.accumulate_grad(y, g)

        ag.record_op(probe, (y,), probe_backward)
        z = identity_bn(probe, np.inf)
        # every array the op saved but its own output, which z still holds
        saved = [c.cell_contents for c in z.tape_node.backward_fn.__closure__
                 if isinstance(c.cell_contents, np.ndarray) and c.cell_contents is not z.data]
        saved_refs = [weakref.ref(a) for a in saved]
        assert saved_refs
        del saved
        loss = ag.mse(z, np.zeros((3, 1)))
        ag.backward(loss)
        assert seen == {"grads released": True, "closures released": True, "saved arrays freed": True}
        assert y.grad is None and probe.grad is None and z.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, 2.0 * np.maximum(x.data, 0.0) * (1.0 / 3))  # leaves keep their gradients
        assert len(ag.active_tape()) == 0

    def test_op_output_freed_before_upstream_runs(self):
        # z's array is held only by its tape node and by the closure of its one
        # consumer, add(z, z); both are done with it before probe's node runs
        seen = {}
        x = ag.tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        y = ag.add(x, x)
        probe = ag.tensor(y.data.copy())

        def probe_backward(g):
            seen["output freed"] = z_ref() is None
            ag.accumulate_grad(y, g)

        ag.record_op(probe, (y,), probe_backward)
        z = ag.add(probe, probe)
        z_ref = weakref.ref(z.data)
        loss = ag.mse(ag.add(z, z), np.zeros(3))
        del z
        ag.backward(loss)
        assert seen == {"output freed": True}
        np.testing.assert_allclose(x.grad, 128.0 * x.data / 3)  # d/dx mean((8x)^2)
        ag.backward(loss)  # the loss's node has run: a second backward finds nothing to do
        np.testing.assert_allclose(x.grad, 128.0 * x.data / 3)

    def test_backward_peak_over_forward_held_memory(self):
        # One training step at the paper geometry (224 px, 32 px patches, 4
        # stages 32..256, 2 blocks, decoder 64), batch 2, numpy allocations
        # above the model traced: the forward holds 64.2 MB and backward peaks
        # at 66.6 MB (1.04x). With the loss as three tape nodes (sub, square,
        # mean_over) and each strided conv keeping its input's space-to-depth,
        # it held 71.1 MB and peaked at 73.5 MB (1.03x). With the tape holding
        # every op output until backward returned, it peaked at 96.8 MB
        # (1.28x). With each batch norm and its clamp as two tape nodes and
        # every first gradient copied, it held 88.8 MB and peaked at 108.9 MB
        # (1.23x). Keeping every gradient and closure to the end of backward,
        # with each conv saving its row-shift lowering, held 125.2 MB and
        # peaked at 221.7 MB (1.77x).
        cfg = SparkConfig(encoder=EncoderConfig(stages=4, widths=(32, 64, 128, 256), blocks_per_stage=2),
                          image_size=224, patch_size=32, dec_fea_dim=64)
        model = SparkModel(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        images = rng.random((2, 3, 224, 224))
        masks = [generate_mask(7, 7, 0.6, rng, patch_size=32) for _ in range(2)]
        tracemalloc.start()
        try:
            recon = spark_forward(model, images, masks, mode="train")
            loss = spark_loss(model, recon, images, masks)
            del recon
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ag.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            ag.active_tape().clear()
        assert peak < 1.4 * held, f"backward peak {peak / 2**20:.1f} MB over {held / 2**20:.1f} MB held"
