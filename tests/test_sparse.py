"""Sparse-engine tests: counting oracles for rulebooks, the zero-fill dense
equivalence, active-set preservation, and gather/densify gradient flow."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsemim import autograd as ag
from sparsemim import sparse
from sparsemim.sparse import (
    ActiveSet,
    SparseTensor2D,
    build_rulebook,
    densify,
    dense_conv_macs,
    gather_from_dense,
    sparse_batchnorm,
    sparse_downsample,
    sparse_flops,
    subm_conv2d,
)

from gradtools import backprop, mean_square


def count_pairs_oracle(coords, h, w, k):
    """Brute-force enumeration over every (site, offset) with both ends active."""
    active = {tuple(c) for c in coords}
    half = k // 2
    total = 0
    for (r, c) in active:
        for di in range(-half, half + 1):
            for dj in range(-half, half + 1):
                if (r + di, c + dj) in active:
                    total += 1
    return total


def one(h, w, coords):
    """A single-sample active set on an h x w grid."""
    return ActiveSet.stack(h, w, [coords])


def rulebook_pairs(rb):
    """Per offset of ``rb``, the [m_o, 2] int64 (input row, output row) pairs in ascending output row."""
    out = []
    for col in rb.fwd.T:
        q = np.flatnonzero(col != rb.num_in)
        out.append(np.stack([col[q], q], axis=1))
    return out


def random_sparse(rng, h, w, cin, density):
    sites = [(r, c) for r in range(h) for c in range(w) if rng.random() < density]
    if not sites:
        sites = [(int(rng.integers(0, h)), int(rng.integers(0, w)))]
    feats = ag.tensor(rng.normal(size=(len(sites), cin)), requires_grad=True)
    return SparseTensor2D(one(h, w, sites), feats)


class TestRulebook:
    def test_fully_active_4x4(self):
        coords = [(r, c) for r in range(4) for c in range(4)]
        rb = build_rulebook(one(4, 4, coords), 3)
        assert rulebook_pairs(rb)[4].shape[0] == 16  # center offset
        assert rb.total_pairs == 100 == count_pairs_oracle(coords, 4, 4, 3)

    def test_single_site(self):
        rb = build_rulebook(one(5, 5, [(2, 2)]), 3)
        assert rb.total_pairs == 1

    def test_2x2_block(self):
        coords = [(0, 0), (0, 1), (1, 0), (1, 1)]
        rb = build_rulebook(one(4, 4, coords), 3)
        assert rb.total_pairs == 16 == count_pairs_oracle(coords, 4, 4, 3)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="even kernel"):
            build_rulebook(one(2, 2, [(0, 0)]), 2)

    def test_pair_geometry(self):
        rng = np.random.default_rng(0)
        sp = random_sparse(rng, 6, 6, 1, 0.4)
        rb = build_rulebook(sp.sites, 3)
        half = 1
        for o, pr in enumerate(rulebook_pairs(rb)):
            di, dj = o // 3 - half, o % 3 - half
            for a, b in pr:
                assert tuple(sp.coords[b] + (di, dj)) == tuple(sp.coords[a])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 7), st.integers(3, 7), st.sampled_from([3, 5]))
    def test_pair_count_matches_oracle(self, seed, h, w, k):
        rng = np.random.default_rng(seed)
        sp = random_sparse(rng, h, w, 1, rng.uniform(0.1, 1.0))
        rb = build_rulebook(sp.sites, k)
        assert rb.total_pairs == count_pairs_oracle(sp.coords, h, w, k)


def rulebook_reference(coords, k):
    """Per-site dict enumeration of submanifold pairs, offsets in row-major scan order."""
    index = {(int(r), int(c)): i for i, (r, c) in enumerate(coords)}
    half = k // 2
    pairs = []
    for di in range(-half, half + 1):
        for dj in range(-half, half + 1):
            lst = [(index[(int(r) + di, int(c) + dj)], p) for p, (r, c) in enumerate(coords)
                   if (int(r) + di, int(c) + dj) in index]
            pairs.append(np.asarray(lst, dtype=np.int64).reshape(-1, 2))
    return pairs


def downsample_reference(coords_in, coords_out, k, stride, pad):
    """Per-target dict enumeration of strided pairs; returns (pairs, first empty target or None)."""
    index = {(int(r), int(c)): i for i, (r, c) in enumerate(coords_in)}
    per_offset = [[] for _ in range(k * k)]
    empty = None
    for q, (ro, co) in enumerate(coords_out):
        hits = 0
        for i in range(k):
            for j in range(k):
                p = index.get((int(ro) * stride - pad + i, int(co) * stride - pad + j))
                if p is not None:
                    per_offset[i * k + j].append((p, q))
                    hits += 1
        if hits == 0 and empty is None:
            empty = (int(ro), int(co))
    return [np.asarray(lst, dtype=np.int64).reshape(-1, 2) for lst in per_offset], empty


def assert_pairs_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


class TestRulebookOracle:
    """Both builders against the per-site dict enumeration: pair arrays identical."""

    DENSITY = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 20), DENSITY, st.sampled_from([1, 3, 5]))
    def test_submanifold(self, seed, h, w, density, k):
        rng = np.random.default_rng(seed)
        coords = np.argwhere(rng.random((h, w)) < density).astype(np.int64)
        rb = build_rulebook(one(h, w, coords), k)
        assert_pairs_identical(rulebook_pairs(rb), rulebook_reference(coords, k))
        assert rb.num_in == rb.num_out == coords.shape[0]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 20), DENSITY, DENSITY,
           st.sampled_from([(2, 2, 0), (3, 2, 1), (4, 4, 0)]), st.booleans())
    def test_downsample(self, seed, h, w, density, target_density, geometry, reachable_only):
        k, stride, pad = geometry
        ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        if ho < 1 or wo < 1:
            return
        rng = np.random.default_rng(seed)
        coords_in = np.argwhere(rng.random((h, w)) < density).astype(np.int64)
        coords_out = np.argwhere(rng.random((ho, wo)) < target_density).astype(np.int64)
        if reachable_only:
            all_out = np.argwhere(np.ones((ho, wo), dtype=bool)).astype(np.int64)
            pairs, _ = downsample_reference(coords_in, all_out, k, stride, pad)
            seen = np.zeros(ho * wo, dtype=bool)
            for pr in pairs:
                seen[pr[:, 1]] = True
            coords_out = coords_out[seen[coords_out[:, 0] * wo + coords_out[:, 1]]]
        want, empty = downsample_reference(coords_in, coords_out, k, stride, pad)
        if empty is not None:
            msg = (f"build_rulebook: target site {empty} has an empty receptive field "
                   f"(mask/stride misalignment)")
            with pytest.raises(ValueError) as exc:
                build_rulebook(one(h, w, coords_in), k, one(ho, wo, coords_out), stride=stride, padding=pad)
            assert str(exc.value) == msg
            return
        rb = build_rulebook(one(h, w, coords_in), k, one(ho, wo, coords_out), stride=stride, padding=pad)
        assert_pairs_identical(rulebook_pairs(rb), want)
        assert (rb.num_in, rb.num_out) == (coords_in.shape[0], coords_out.shape[0])


class TestBatchedRulebook:
    """A batch's rulebook is its samples' rulebooks, row indices shifted by each sample's offset."""

    @staticmethod
    def _per_sample_concat(rbs, in_off, out_off):
        pairs = [rulebook_pairs(rb) for rb in rbs]
        return [np.concatenate([pr[o] + (a, b) for pr, a, b in zip(pairs, in_off, out_off)])
                for o in range(rbs[0].fwd.shape[1])]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from([1, 3, 5]), st.sampled_from([(2, 0), (3, 1)]))
    def test_pairs_are_shifted_per_sample_pairs(self, seed, n, h, w, k, down):
        rng = np.random.default_rng(seed)
        sets = [np.argwhere(rng.random((h, w)) < rng.uniform(0.0, 1.0)) for _ in range(n)]
        sites = ActiveSet.stack(h, w, sets)
        off = np.cumsum([0] + [s.shape[0] for s in sets])[:-1]
        rb = build_rulebook(sites, k)
        want = self._per_sample_concat([build_rulebook(one(h, w, s), k) for s in sets], off, off)
        assert_pairs_identical(rulebook_pairs(rb), [p.astype(np.int64) for p in want])

        kd, pad = down
        ho, wo = (h + 2 * pad - kd) // 2 + 1, (w + 2 * pad - kd) // 2 + 1
        if ho < 1 or wo < 1:
            return
        targets = []
        for s in sets:  # every output site that sees an active input of its own sample
            seen = np.zeros((ho, wo), dtype=bool)
            for r, c in s:
                for i in range(kd):
                    for j in range(kd):
                        rr, cc = r + pad - i, c + pad - j  # output (rr/2, cc/2) reads input (r, c) at tap (i, j)
                        if rr % 2 == cc % 2 == 0 and 0 <= rr // 2 < ho and 0 <= cc // 2 < wo:
                            seen[rr // 2, cc // 2] = True
            targets.append(np.argwhere(seen))
        toff = np.cumsum([0] + [t.shape[0] for t in targets])[:-1]
        rb = build_rulebook(sites, kd, ActiveSet.stack(ho, wo, targets), stride=2, padding=pad)
        want = self._per_sample_concat(
            [build_rulebook(one(h, w, s), kd, one(ho, wo, t), stride=2, padding=pad) for s, t in zip(sets, targets)],
            off, toff)
        assert_pairs_identical(rulebook_pairs(rb), want)
        assert rb.total_pairs * 3 * 5 == sparse_flops(rb, 3, 5)


class TestRulebookTable:
    """Input checks of the index-grid lookup and the inverse table."""

    def test_input_site_outside_grid_rejected(self):
        for site in [(5, 0), (0, 5), (-1, 2), (2, -1)]:
            with pytest.raises(ValueError, match="out of bounds for 5x5"):
                one(5, 5, [(1, 1), site])
        with pytest.raises(ValueError, match="out of bounds for 4x6"):
            one(4, 6, [(5, 5)])
        sp = one(6, 6, [(5, 5)])
        with pytest.raises(ValueError, match="negative padding"):  # the index grid would lose its border
            build_rulebook(sp, 2, one(3, 3, [(2, 2)]), stride=2, padding=-1)

    def test_negative_sample_index_rejected(self):
        with pytest.raises(ValueError, match="negative sample index"):
            ActiveSet(4, 4, [[1, 1]], [-1])
        with pytest.raises(ValueError, match="negative sample index"):
            ActiveSet(2, 2, [(0, 0), (1, 1)], [-1, 0])

    def test_output_set_off_the_conv_grid_rejected(self):
        src = one(4, 4, [(0, 0), (1, 1), (2, 2)])
        with pytest.raises(ValueError, match="output grid is 2x2"):
            build_rulebook(src, 2, one(3, 3, [(0, 0)]), stride=2, padding=0)
        with pytest.raises(ValueError, match="output grid is 4x4"):
            build_rulebook(src, 3, one(4, 5, [(0, 0)]), stride=1, padding=1)
        assert build_rulebook(src, 2, one(2, 2, [(0, 0), (1, 1)]), stride=2, padding=0).num_out == 2

    @staticmethod
    def _inverse_from_pairs(rb):
        inv = np.full((rb.num_in, rb.fwd.shape[1]), rb.num_out, dtype=np.int64)
        for o, pr in enumerate(rulebook_pairs(rb)):
            inv[pr[:, 0], o] = pr[:, 1]
        return inv

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5).map(lambda v: 2 * v),
           st.integers(1, 5).map(lambda v: 2 * v), st.sampled_from([1, 3, 5]))
    def test_inv_is_the_inverse_of_pairs(self, seed, n, h, w, k):
        rng = np.random.default_rng(seed)
        sets = [np.argwhere(rng.random((h, w)) < rng.uniform(0.0, 1.0)) for _ in range(n)]
        sites = ActiveSet.stack(h, w, sets)
        down = np.unique(np.column_stack([sites.batch, sites.coords // 2]), axis=0)  # each 2x2 cell holding a site
        strided = build_rulebook(sites, 2, ActiveSet(h // 2, w // 2, down[:, 1:], down[:, 0]), stride=2, padding=0)
        for rb in (build_rulebook(sites, k), strided):
            got = rb.inv()
            assert got.dtype == np.int64 and got.shape == (rb.num_in, rb.fwd.shape[1])
            assert np.array_equal(got, self._inverse_from_pairs(rb))
            assert rb.inv() is got

    @staticmethod
    def _scattered_inverse(rb):
        """The inverse table built by scattering every active pair of ``fwd``."""
        k = rb.fwd.shape[1]
        q, o = np.nonzero(rb.fwd != rb.num_in)
        inv = np.full(rb.num_in * k, rb.num_out, dtype=np.int64)
        inv[rb.fwd[q, o] * k + o] = q
        return inv.reshape(rb.num_in, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from([1, 3, 5]), st.floats(0.2, 0.8))
    def test_submanifold_inv_is_fwd_reversed(self, seed, n, h, w, k, ratio):
        rng = np.random.default_rng(seed)
        sites = ActiveSet.stack(h, w, [np.argwhere(rng.random((h, w)) >= ratio) for _ in range(n)])
        for rb in (build_rulebook(sites, k), build_rulebook(sites, k, sites, stride=1, padding=k // 2)):
            got = rb.inv()
            assert np.array_equal(got, self._scattered_inverse(rb))
            assert not len(sites) or np.shares_memory(got, rb.fwd)  # no table is built

    def test_strided_rulebook_onto_its_own_set_scatters_its_inverse(self):
        # on a 1x1 grid, stride 3 and padding 2 map a set onto itself, but each site reads
        # itself at the last tap, not the centre: the reversed table would be wrong
        sites = ActiveSet.stack(1, 1, [[(0, 0)], [(0, 0)]])
        rb = build_rulebook(sites, 3, sites, stride=3, padding=2)
        assert rb.dst is rb.src and not np.shares_memory(rb.inv(), rb.fwd)
        assert np.array_equal(rb.inv(), self._scattered_inverse(rb))
        assert not np.array_equal(rb.inv(), rb.fwd[:, ::-1])


class TestBatchedGradients:
    """Gradients of a batched sparse conv equal the dense conv's, restricted to active sites."""

    @pytest.mark.parametrize("kind", ["subm1", "subm3", "subm5", "down2", "down3"])
    def test_against_dense_backward(self, kind):
        rng = np.random.default_rng(19)
        n, h, w, cin, cout = 3, 7, 6, 2, 3
        sets = [np.argwhere(rng.random((h, w)) < 0.5), np.zeros((0, 2), dtype=np.int64),
                np.argwhere(rng.random((h, w)) < 0.7)]
        sites = ActiveSet.stack(h, w, sets)
        coords, batch = sites.coords, sites.batch
        x = rng.normal(size=(coords.shape[0], cin))
        k = int(kind[-1])
        stride, pad = (1, k // 2) if kind.startswith("subm") else (2, k - 2)
        wt = rng.normal(size=(cout, cin, k, k))

        feats = ag.tensor(x, requires_grad=True)
        ws = ag.tensor(wt, requires_grad=True)
        sp = SparseTensor2D(sites, feats)
        dense_x = np.zeros((n, cin, h, w))
        dense_x[batch, :, coords[:, 0], coords[:, 1]] = x
        xd = ag.tensor(dense_x, requires_grad=True)
        wd = ag.tensor(wt, requires_grad=True)
        if stride == 1:
            out = subm_conv2d(sp, ws, build_rulebook(sites, k))
            tb, tc = batch, coords
        else:
            reach = ag.conv2d(ag.tensor((dense_x != 0).any(axis=1, keepdims=True).astype(float)),
                              ag.tensor(np.ones((1, 1, k, k))), stride=2, padding=pad).data[:, 0]
            t = np.argwhere(reach > 0)
            tb, tc = t[:, 0], t[:, 1:]
            dst = ActiveSet(reach.shape[1], reach.shape[2], tc, tb)
            out = sparse_downsample(sp, ws, build_rulebook(sites, k, dst, stride=2, padding=pad))
        gout = rng.normal(size=out.features.shape)
        backprop(out.features, gout)
        yd = ag.conv2d(xd, wd, stride=stride, padding=pad)  # backward() clears the tape, so record after
        gdense = np.zeros(yd.shape)
        gdense[tb, :, tc[:, 0], tc[:, 1]] = gout
        backprop(yd, gdense)
        np.testing.assert_allclose(out.features.data, yd.data[tb, :, tc[:, 0], tc[:, 1]], rtol=0, atol=1e-12)
        np.testing.assert_allclose(feats.grad, xd.grad[batch, :, coords[:, 0], coords[:, 1]], rtol=0, atol=1e-12)
        np.testing.assert_allclose(ws.grad, wd.grad, rtol=0, atol=1e-12)


class TestOperandOrder:
    """A sparse conv multiplies the weight as stored when it has fewer output rows
    than output channels and relays it out otherwise; both orders, and an empty
    output set, match the dense conv forward and in both gradients."""

    # (output rows M against output channels, rows per sample, cin, cout)
    ORDERS = {"rows_fewer": (2, 3, 12), "rows_more": (7, 3, 2), "empty": (0, 2, 5)}

    @pytest.mark.parametrize("order", sorted(ORDERS))
    @pytest.mark.parametrize("kind", ["subm1", "subm3", "down2", "down3"])
    def test_matches_dense(self, kind, order, monkeypatch):
        per_sample, cin, cout = self.ORDERS[order]
        gathers, gather = [], sparse._gather_rows  # tap_minor of the forward's and the weight gradient's gathers

        def recording(a, table, tap_minor=False):
            if table is rb.fwd:
                gathers.append(tap_minor)
            return gather(a, table, tap_minor)

        monkeypatch.setattr(sparse, "_gather_rows", recording)
        rng = np.random.default_rng(sum(map(ord, kind + order)))
        n, h, w, k = 2, 6, 6, int(kind[-1])
        sets = [np.array(sorted(map(tuple, rng.permutation(np.argwhere(np.ones((h, w))))[:per_sample])),
                         dtype=np.int64).reshape(-1, 2) for _ in range(n)]
        sites = ActiveSet.stack(h, w, sets)
        coords, batch = sites.coords, sites.batch
        x = rng.normal(size=(len(sites), cin))
        wt = rng.normal(size=(cout, cin, k, k))
        dense_x = np.zeros((n, cin, h, w))
        dense_x[batch, :, coords[:, 0], coords[:, 1]] = x
        if kind.startswith("subm"):
            stride, pad, rb = 1, k // 2, build_rulebook(sites, k)
        else:
            stride, pad = 2, k - 2
            reach = ag.conv2d(ag.tensor((dense_x != 0).any(axis=1, keepdims=True).astype(float)),
                              ag.tensor(np.ones((1, 1, k, k))), stride=2, padding=pad).data[:, 0]
            t = np.argwhere(reach > 0)
            rb = build_rulebook(sites, k, ActiveSet(reach.shape[1], reach.shape[2], t[:, 1:], t[:, 0]),
                                stride=2, padding=pad)
        assert (rb.num_out == 0) if order == "empty" else ((rb.num_out < cout) == (order == "rows_fewer"))

        feats, ws = ag.tensor(x, requires_grad=True), ag.tensor(wt, requires_grad=True)
        sp = SparseTensor2D(sites, feats)
        out = subm_conv2d(sp, ws, rb) if stride == 1 else sparse_downsample(sp, ws, rb)
        gout = rng.normal(size=out.features.shape)
        backprop(out.features, gout)
        xd, wd = ag.tensor(dense_x, requires_grad=True), ag.tensor(wt, requires_grad=True)
        yd = ag.conv2d(xd, wd, stride=stride, padding=pad)
        tb, tc = rb.dst.batch, rb.dst.coords
        gdense = np.zeros(yd.shape)
        gdense[tb, :, tc[:, 0], tc[:, 1]] = gout
        backprop(yd, gdense)
        assert out.features.shape == (rb.num_out, cout)
        assert np.abs(out.features.data - yd.data[tb, :, tc[:, 0], tc[:, 1]]).max(initial=0.0) < 1e-9
        assert np.abs(feats.grad - xd.grad[batch, :, coords[:, 0], coords[:, 1]]).max(initial=0.0) < 1e-9
        assert ws.grad.flags.c_contiguous and np.abs(ws.grad - wd.grad).max() < 1e-9
        assert gathers == [order != "rows_more"] * 2

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("width", [64, 256])  # one copy, and blocks of output channels
    def test_tap_major_weight_copy_is_exact(self, dtype, width):
        wk = np.random.default_rng(width).normal(size=(width, width, 9)).astype(dtype)
        got = sparse._tap_major(wk)
        assert got.flags.c_contiguous and got.dtype == dtype
        assert np.array_equal(got, wk.transpose(2, 0, 1))


class TestSubmConv:
    def _dense_ref(self, sp, w, k):
        dense = np.zeros((1, sp.channels, sp.height, sp.width))
        dense[0, :, sp.coords[:, 0], sp.coords[:, 1]] = sp.features.data
        y = ag.conv2d(ag.tensor(dense), w, stride=1, padding=k // 2)
        return y.data[0][:, sp.coords[:, 0], sp.coords[:, 1]].T

    def test_fully_active_equals_dense(self):
        rng = np.random.default_rng(1)
        sites = one(5, 5, [(r, c) for r in range(5) for c in range(5)])
        sp = SparseTensor2D(sites, ag.tensor(rng.normal(size=(25, 3))))
        w = ag.tensor(rng.normal(size=(4, 3, 3, 3)))
        rb = build_rulebook(sites, 3)
        out = subm_conv2d(sp, w, rb)
        np.testing.assert_allclose(out.features.data, self._dense_ref(sp, w, 3), atol=1e-12)

    def test_isolated_site_center_tap_only(self):
        rng = np.random.default_rng(2)
        sites = one(7, 7, [(3, 3)])
        x = rng.normal(size=(1, 2))
        sp = SparseTensor2D(sites, ag.tensor(x))
        w = ag.tensor(rng.normal(size=(3, 2, 3, 3)))
        rb = build_rulebook(sites, 3)
        out = subm_conv2d(sp, w, rb)
        ref = x @ w.data[:, :, 1, 1].T
        np.testing.assert_allclose(out.features.data, ref, atol=1e-12)

    def test_arbitrary_masks_vs_zero_fill_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            h, w_ = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            k = int(rng.choice([1, 3, 5]))
            sp = random_sparse(rng, h, w_, int(rng.integers(1, 4)), rng.uniform(0.2, 0.9))
            wt = ag.tensor(rng.normal(size=(int(rng.integers(1, 4)), sp.channels, k, k)))
            rb = build_rulebook(sp.sites, k)
            out = subm_conv2d(sp, wt, rb)
            assert np.abs(out.features.data - self._dense_ref(sp, wt, k)).max() < 1e-10

    def test_active_set_preserved_under_stacking(self):
        rng = np.random.default_rng(4)
        sp = random_sparse(rng, 8, 8, 2, 0.35)
        coords0 = sp.coords.copy()
        rb = build_rulebook(sp.sites, 3)
        w = ag.tensor(rng.normal(size=(2, 2, 3, 3)))
        for _ in range(12):
            sp = subm_conv2d(sp, w, rb)
            assert np.array_equal(sp.coords, coords0)

    def test_rulebook_identity_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        sp = random_sparse(rng, 5, 5, 1, 0.5)
        other = build_rulebook(one(5, 5, [(0, 0)]), 3)
        # an equal copy of the input's set is a different set
        copy = build_rulebook(ActiveSet(5, 5, sp.coords.copy(), sp.batch.copy()), 3)
        # these two read the input's active set but do not write back onto it
        strided = build_rulebook(sp.sites, 3, one(3, 3, sp.coords[:1] // 2), stride=2, padding=1)
        subset = build_rulebook(sp.sites, 3, one(5, 5, sp.coords[:1]))
        assert strided.src is subset.src is sp.sites
        w = ag.tensor(rng.normal(size=(1, 1, 3, 3)))
        for rb in (other, copy, strided, subset):
            with pytest.raises(ValueError, match="active set"):
                subm_conv2d(sp, w, rb)

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        sp = random_sparse(rng, 5, 5, 2, 0.5)
        rb = build_rulebook(sp.sites, 3)
        w = ag.tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)

        def f(t):
            s = SparseTensor2D(sp.sites, t[0])
            return mean_square(subm_conv2d(s, t[1], rb).features)

        assert ag.grad_check(f, [sp.features, w]) < 1e-6


class TestSparseDownsample:
    def test_fully_active_equals_dense_strided(self):
        rng = np.random.default_rng(7)
        sites = one(4, 4, [(r, c) for r in range(4) for c in range(4)])
        coords = sites.coords
        sp = SparseTensor2D(sites, ag.tensor(rng.normal(size=(16, 2))))
        w = ag.tensor(rng.normal(size=(3, 2, 2, 2)))
        dst = one(2, 2, [(r, c) for r in range(2) for c in range(2)])
        target = dst.coords
        out = sparse_downsample(sp, w, build_rulebook(sites, 2, dst, stride=2, padding=0))
        dense = np.zeros((1, 2, 4, 4))
        dense[0, :, coords[:, 0], coords[:, 1]] = sp.features.data
        ref = ag.conv2d(ag.tensor(dense), w, stride=2).data[0]
        np.testing.assert_allclose(out.features.data, ref[:, target[:, 0], target[:, 1]].T, atol=1e-12)
        assert (out.height, out.width) == (2, 2)

    def test_single_aligned_patch(self):
        rng = np.random.default_rng(8)
        sites = one(4, 4, [(2, 2), (2, 3), (3, 2), (3, 3)])  # one 2x2 block on the stride grid
        coords = sites.coords
        sp = SparseTensor2D(sites, ag.tensor(rng.normal(size=(4, 2))))
        w = ag.tensor(rng.normal(size=(1, 2, 2, 2)))
        out = sparse_downsample(sp, w, build_rulebook(sites, 2, one(2, 2, [(1, 1)]), stride=2, padding=0))
        dense = np.zeros((1, 2, 4, 4))
        dense[0, :, coords[:, 0], coords[:, 1]] = sp.features.data
        ref = ag.conv2d(ag.tensor(dense), w, stride=2).data[0, :, 1, 1]
        np.testing.assert_allclose(out.features.data[0], ref, atol=1e-12)

    def test_empty_receptive_field_rejected(self):
        rng = np.random.default_rng(9)
        sp = SparseTensor2D(one(4, 4, [(0, 0)]), ag.tensor(rng.normal(size=(1, 1))))
        w = ag.tensor(rng.normal(size=(1, 1, 2, 2)))
        with pytest.raises(ValueError, match="empty receptive field"):
            sparse_downsample(sp, w, build_rulebook(sp.sites, 2, one(2, 2, [(1, 1)]), stride=2, padding=0))

    def test_rulebook_identity_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        sp = SparseTensor2D(one(4, 4, [(0, 0), (1, 1), (2, 2)]), ag.tensor(rng.normal(size=(3, 1))))
        w = ag.tensor(rng.normal(size=(1, 1, 2, 2)))
        dst = one(2, 2, [(0, 0), (1, 1)])
        copy = build_rulebook(ActiveSet(4, 4, sp.coords.copy(), sp.batch.copy()), 2, dst, stride=2, padding=0)
        for rb in (copy, build_rulebook(one(4, 4, [(0, 0)]), 2, one(2, 2, [(0, 0)]), stride=2, padding=0)):
            with pytest.raises(ValueError, match="active set"):
                sparse_downsample(sp, w, rb)
        out = sparse_downsample(sp, w, build_rulebook(sp.sites, 2, dst, stride=2, padding=0))
        assert out.sites is dst

    def test_gradcheck(self):
        rng = np.random.default_rng(10)
        sites = one(4, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3)])
        feats = ag.tensor(rng.normal(size=(6, 2)), requires_grad=True)
        w = ag.tensor(rng.normal(size=(2, 2, 2, 2)), requires_grad=True)
        rb = build_rulebook(sites, 2, one(2, 2, [(0, 0), (1, 1)]), stride=2, padding=0)

        def f(t):
            s = SparseTensor2D(sites, t[0])
            return mean_square(sparse_downsample(s, t[1], rb).features)

        assert ag.grad_check(f, [feats, w]) < 1e-6


class TestSparseBatchNorm:
    def test_all_active_matches_dense(self):
        rng = np.random.default_rng(11)
        x = rng.normal(1.0, 2.0, size=(1, 3, 4, 4))
        sites = one(4, 4, [(r, c) for r in range(4) for c in range(4)])
        coords = sites.coords
        sp = gather_from_dense(ag.tensor(x), sites)
        g, b = ag.tensor(rng.uniform(0.5, 1.5, 3)), ag.tensor(rng.normal(size=3))
        out = sparse_batchnorm(sp, g, b, ag.BatchNormState(3), mode="train")
        ref = ag.batchnorm2d(ag.tensor(x), g, b, ag.BatchNormState(3), mode="train")
        np.testing.assert_allclose(out.features.data,
                                   ref.data[0][:, coords[:, 0], coords[:, 1]].T, atol=1e-12)

    def test_unit_stats(self):
        rng = np.random.default_rng(12)
        sp = random_sparse(rng, 6, 6, 4, 0.5)
        out = sparse_batchnorm(sp, ag.tensor(np.ones(4)), ag.tensor(np.zeros(4)), ag.BatchNormState(4))
        assert np.abs(out.features.data.mean(axis=0)).max() < 1e-6

    def test_masked_vs_flat_matrix_oracle(self):
        rng = np.random.default_rng(13)
        sps = [random_sparse(rng, 5, 5, 3, 0.5) for _ in range(3)]
        g = ag.tensor(rng.uniform(0.5, 1.5, 3))
        b = ag.tensor(rng.normal(size=3))
        sites = ActiveSet.stack(5, 5, [s.coords for s in sps])
        flat = np.concatenate([s.features.data for s in sps], axis=0)
        batched = SparseTensor2D(sites, ag.tensor(flat))
        out = sparse_batchnorm(batched, g, b, ag.BatchNormState(3), mode="train")
        ref = (flat - flat.mean(0)) / np.sqrt(flat.var(0) + 1e-5) * g.data + b.data
        np.testing.assert_allclose(out.features.data, ref, atol=1e-12)
        assert np.array_equal(out.batch, sites.batch)


class TestDensifyGather:
    def test_fully_active_copy_and_zero_fill_grad(self):
        rng = np.random.default_rng(14)
        sp = SparseTensor2D(one(3, 3, [(r, c) for r in range(3) for c in range(3)]),
                            ag.tensor(rng.normal(size=(9, 2)), requires_grad=True))
        coords, feats = sp.coords, sp.features
        fill = ag.tensor(rng.normal(size=2), requires_grad=True)
        d = densify(sp, fill, 1)
        np.testing.assert_array_equal(d.data[0][:, coords[:, 0], coords[:, 1]].T, feats.data)
        backprop(d, 2.0 * d.data)
        np.testing.assert_array_equal(fill.grad, np.zeros(2))

    def test_fully_inactive_constant_field(self):
        fill = ag.tensor(np.array([1.5, -2.0]))
        sp = SparseTensor2D(one(3, 3, []), ag.tensor(np.zeros((0, 2))))
        d = densify(sp, fill, 1)
        np.testing.assert_array_equal(d.data, np.broadcast_to(fill.data[None, :, None, None], (1, 2, 3, 3)))

    def test_mixed_vs_scatter_oracle(self):
        rng = np.random.default_rng(15)
        sp = random_sparse(rng, 4, 5, 3, 0.4)
        fill = ag.tensor(rng.normal(size=3))
        d = densify(sp, fill, 1)
        ref = np.broadcast_to(fill.data[None, :, None, None], (1, 3, 4, 5)).copy()
        for i, (r, c) in enumerate(sp.coords):
            ref[0, :, r, c] = sp.features.data[i]
        np.testing.assert_array_equal(d.data, ref)

    def test_width_mismatch_rejected(self):
        sp = SparseTensor2D(one(2, 2, [(0, 0)]), ag.tensor(np.zeros((1, 3))))
        with pytest.raises(ValueError, match="width"):
            densify(sp, ag.tensor(np.zeros(2)), 1)

    def test_batch_equals_per_sample_densify(self):
        # samples 1 and 3 have no active site; only n tells that sample 3 exists
        rng = np.random.default_rng(19)
        sites = ActiveSet.stack(3, 3, [[(0, 1), (2, 2)], [], [(1, 0), (1, 2), (2, 1)], []])
        coords, batch = sites.coords, sites.batch
        feats = ag.tensor(rng.normal(size=(coords.shape[0], 2)), requires_grad=True)
        fill = ag.tensor(rng.normal(size=2), requires_grad=True)
        g = rng.normal(size=(4, 2, 3, 3))
        d = densify(SparseTensor2D(sites, feats), fill, 4)
        assert d.shape == (4, 2, 3, 3)
        backprop(d, g)
        fill_grad = None
        for b in reversed(range(4)):  # the fill gradient sums the samples from the last to the first
            rows = batch == b
            x1, f1 = ag.tensor(feats.data[rows], requires_grad=True), ag.tensor(fill.data, requires_grad=True)
            d1 = densify(SparseTensor2D(one(3, 3, coords[rows]), x1), f1, 1)
            np.testing.assert_array_equal(d.data[b : b + 1], d1.data)
            backprop(d1, g[b : b + 1])
            np.testing.assert_array_equal(feats.grad[rows], x1.grad)
            fill_grad = f1.grad if fill_grad is None else fill_grad + f1.grad
        np.testing.assert_array_equal(fill.grad, fill_grad)

    def test_sample_index_beyond_batch_rejected(self):
        sites = ActiveSet.stack(2, 2, [[(0, 0)], [(1, 1)]])
        sp = SparseTensor2D(sites, ag.tensor(np.zeros((2, 3))))
        with pytest.raises(ValueError, match="out of range"):
            densify(sp, ag.tensor(np.zeros(3)), 1)
        with pytest.raises(ValueError, match="out of range"):
            gather_from_dense(ag.tensor(np.zeros((1, 3, 2, 2))), sites)

    def test_round_trip_and_inactive_grads_zero(self):
        rng = np.random.default_rng(16)
        x = ag.tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        coords = np.array([(0, 0), (1, 2), (3, 3)])
        sp = gather_from_dense(x, ActiveSet(4, 4, coords, [1, 1, 1]))  # all three sites in sample 1
        np.testing.assert_array_equal(sp.features.data, x.data[1][:, coords[:, 0], coords[:, 1]].T)
        d = densify(sp, ag.tensor(np.zeros(3)), 2)
        np.testing.assert_array_equal(d.data[1][:, coords[:, 0], coords[:, 1]].T,
                                      x.data[1][:, coords[:, 0], coords[:, 1]].T)
        backprop(d, 2.0 * d.data)
        inactive = np.ones((4, 4), dtype=bool)
        inactive[coords[:, 0], coords[:, 1]] = False
        assert np.all(x.grad[1][:, inactive] == 0.0)
        assert np.all(x.grad[0] == 0.0)
        assert np.any(x.grad[1][:, ~inactive] != 0.0)

    def test_gradient_lands_at_each_site(self):
        # the same position in two samples is two sites, each taking its own row's gradient
        rng = np.random.default_rng(18)
        x = ag.tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        sites = ActiveSet.stack(4, 4, [[(0, 0), (1, 2)], [(1, 2), (3, 1)]])
        g = rng.normal(size=(4, 3))
        sp = gather_from_dense(x, sites)
        backprop(sp.features, g)
        want = np.zeros_like(x.data)
        for (r, c), b, row in zip(sites.coords, sites.batch, g):
            want[b, :, r, c] += row
        np.testing.assert_array_equal(x.grad, want)

    def test_negative_site_or_sample_rejected(self):
        # neither may wrap around to read the last row, column or sample
        x = ag.tensor(np.ones((2, 2, 3, 3)))
        for coords, batch, msg in (([[-1, 0]], [0], "bounds"), ([[0, -1]], [0], "bounds"),
                                   ([[0, 0]], [-1], "negative sample index")):
            with pytest.raises(ValueError, match=msg):
                gather_from_dense(x, ActiveSet(3, 3, coords, batch))

    def test_grid_mismatch_rejected(self):
        x = ag.tensor(np.ones((1, 2, 3, 3)))
        for sites in (one(3, 4, [(0, 3)]), one(2, 3, [(0, 0)])):
            with pytest.raises(ValueError, match="grid"):
                gather_from_dense(x, sites)

    def test_empty_active_set_legal(self):
        x = ag.tensor(np.ones((1, 2, 3, 3)))
        sp = gather_from_dense(x, one(3, 3, []))
        assert sp.num_active == 0 and sp.features.shape == (0, 2)

    def test_full_round_trip_lossless(self):
        rng = np.random.default_rng(17)
        x = ag.tensor(rng.normal(size=(1, 2, 3, 3)))
        sites = one(3, 3, [(r, c) for r in range(3) for c in range(3)])
        d = densify(gather_from_dense(x, sites), ag.tensor(rng.normal(size=2)), 1)
        np.testing.assert_array_equal(d.data, x.data)


class TestSparseFlops:
    def test_fully_active_vs_dense_minus_boundary(self):
        coords = [(r, c) for r in range(6) for c in range(6)]
        rb = build_rulebook(one(6, 6, coords), 3)
        cin, cout = 3, 5
        dense = dense_conv_macs(6, 6, 3, cin, cout)
        boundary_deficit = (6 * 6 * 9 - count_pairs_oracle(coords, 6, 6, 3)) * cin * cout
        assert sparse_flops(rb, cin, cout) == dense - boundary_deficit

    def test_single_site(self):
        rb = build_rulebook(one(3, 3, [(1, 1)]), 3)
        assert sparse_flops(rb, 7, 11) == 77

    def test_flops_bounded_by_active_fraction(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            sp = random_sparse(rng, 8, 8, 1, rng.uniform(0.2, 0.8))
            rb = build_rulebook(sp.sites, 3)
            frac = sp.num_active / 64.0
            assert sparse_flops(rb, 2, 3) <= dense_conv_macs(8, 8, 3, 2, 3) * frac + 1e-9


class TestSparseTensorValidation:
    """An active set is checked once, when it is built."""

    def test_unsorted_rejected(self):
        for coords, batch in (([[1, 0], [0, 0]], [0, 0]), ([[0, 0], [0, 0]], [0, 0]), ([[0, 0], [0, 0]], [1, 0])):
            with pytest.raises(ValueError, match="sorted"):
                ActiveSet(3, 3, coords, batch)
        assert len(ActiveSet(3, 3, [[0, 0], [0, 0]], [0, 1])) == 2  # one position in two samples

    def test_out_of_bounds_rejected(self):
        for coords in ([[0, 0], [2, 0]], [[-1, 0]], [[0, -1]]):
            with pytest.raises(ValueError, match="bounds"):
                ActiveSet(2, 2, coords, np.zeros(len(coords)))

    def test_negative_sample_index_rejected(self):
        with pytest.raises(ValueError, match="negative sample index"):
            ActiveSet(2, 2, [[0, 0]], [-1])

    def test_batch_shape_mismatch_rejected(self):
        for batch in ([0, 0], [], [[0]]):
            with pytest.raises(ValueError, match="batch index shape"):
                ActiveSet(2, 2, [[0, 0]], batch)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="feature rows"):
            SparseTensor2D(one(2, 2, [[0, 0]]), ag.tensor(np.zeros((2, 1))))

    def test_stack_orders_rows_by_sample(self):
        sites = ActiveSet.stack(3, 3, [[(0, 1), (2, 2)], [], [(1, 0)]])
        assert sites.coords.tolist() == [[0, 1], [2, 2], [1, 0]] and sites.batch.tolist() == [0, 0, 2]
        assert sites.coords.dtype == sites.batch.dtype == np.int64
        assert len(ActiveSet.stack(3, 3, [])) == 0
