"""Sparse 2-D feature maps, rulebooks, and sparse convolution.

An active set is the active sites of a whole batch at one scale, rows
ordered by (sample, row, col) and each carrying its sample index, checked
once when it is built. A sparse tensor is an active set plus one feature
row per site, so every layer runs once per batch. A rulebook is one
neighbour table from an input set to an output set: for each output site
and kernel offset, the input row that a sparse convolution multiplies
there, or a marker where that input site is inactive; sites only pair
within their own sample. It is filled by direct lookup in a dense index
grid. A submanifold conv's output set is its input set, so stacking layers
never grows or erodes the mask pattern; ops take a rulebook only if it was
built on the very set (by identity) that their input carries. A
convolution is one gather of the neighbour rows followed by one GEMM over
all kernel offsets at once (backward: one gather-GEMM for each gradient,
the input gradient along the inverse table). All feature math runs
through the autograd engine and is differentiable with respect to
features, weights and fill values. The convs carry no bias: every encoder
conv feeds a batch norm, whose shift does that job.
"""

from __future__ import annotations

import numpy as np

from .autograd import (
    DiffTensor,
    BatchNormState,
    accumulate_grad,
    batchnorm_rows,
    record_op,
)

__all__ = [
    "ActiveSet",
    "SparseTensor2D",
    "Rulebook",
    "build_rulebook",
    "subm_conv2d",
    "sparse_downsample",
    "sparse_batchnorm",
    "densify",
    "gather_from_dense",
    "sparse_flops",
    "dense_conv_macs",
]


class ActiveSet:
    """The active sites of a batch on a ``height`` x ``width`` grid.

    ``coords`` is [m,2] int64 (row, col) and ``batch`` the [m] sample index
    of each row. The constructor checks that every site lies on the grid,
    every sample index is non-negative, and the rows are unique and sorted
    by (sample, row, col); an empty set (m == 0) is legal.
    """

    __slots__ = ("height", "width", "coords", "batch")

    def __init__(self, height: int, width: int, coords, batch):
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
        batch = np.asarray(batch, dtype=np.int64)
        if batch.shape != (coords.shape[0],):
            raise ValueError(f"ActiveSet: batch index shape {batch.shape} != ({coords.shape[0]},)")
        if coords.shape[0]:
            if coords.min() < 0 or coords[:, 0].max() >= height or coords[:, 1].max() >= width:
                raise ValueError(f"ActiveSet: coordinate out of bounds for {height}x{width}")
            if batch.min() < 0:
                raise ValueError("ActiveSet: negative sample index")
            keys = (batch * height + coords[:, 0]) * width + coords[:, 1]
            if not np.all(np.diff(keys) > 0):
                raise ValueError("ActiveSet: sites must be unique and sorted by (sample, row, col)")
        self.height = int(height)
        self.width = int(width)
        self.coords = coords
        self.batch = batch

    @classmethod
    def stack(cls, height: int, width: int, per_sample_coords) -> "ActiveSet":
        """One set from each sample's [m_b,2] coordinates; sample b's rows carry index b."""
        sets = [np.asarray(c, dtype=np.int64).reshape(-1, 2) for c in per_sample_coords]
        batch = np.repeat(np.arange(len(sets), dtype=np.int64), [c.shape[0] for c in sets])
        return cls(height, width, np.concatenate(sets) if sets else np.zeros((0, 2), dtype=np.int64), batch)

    def __len__(self) -> int:
        return self.coords.shape[0]


class SparseTensor2D:
    """An active set plus one feature row per site at one spatial scale.

    ``features`` is a [m, channels] DiffTensor whose row i belongs to site
    ``sites.coords[i]`` of sample ``sites.batch[i]``.
    """

    __slots__ = ("sites", "features")

    def __init__(self, sites: ActiveSet, features: DiffTensor):
        if features.ndim != 2:
            raise ValueError("SparseTensor2D: features must be [sites, channels]")
        if features.shape[0] != len(sites):
            raise ValueError(f"SparseTensor2D: {len(sites)} sites but {features.shape[0]} feature rows")
        self.sites = sites
        self.features = features

    height = property(lambda self: self.sites.height)
    width = property(lambda self: self.sites.width)
    coords = property(lambda self: self.sites.coords)
    batch = property(lambda self: self.sites.batch)

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    @property
    def num_active(self) -> int:
        return len(self.sites)

    def with_features(self, features: DiffTensor) -> "SparseTensor2D":
        """The same active sites carrying new feature rows."""
        return SparseTensor2D(self.sites, features)

    def __repr__(self):
        return (
            f"SparseTensor2D({self.height}x{self.width}, active={self.num_active}, "
            f"channels={self.channels})"
        )


class Rulebook:
    """The neighbour table of one sparse conv from active set ``src`` to
    ``dst``: ``fwd[q, o]`` is the src row that dst row q reads at kernel
    offset o (offsets in row-major scan order), or ``num_in`` where that
    input site is inactive; the conv appends a zero row there. A submanifold
    rulebook has ``dst is src``.
    """

    __slots__ = ("kernel", "fwd", "src", "dst", "_inv")

    def __init__(self, kernel: int, fwd, src: ActiveSet, dst: ActiveSet):
        self.kernel = kernel
        self.fwd = fwd
        self.src = src
        self.dst = dst
        self._inv = None

    @property
    def num_in(self) -> int:
        return len(self.src)

    @property
    def num_out(self) -> int:
        return self.fwd.shape[0]

    @property
    def total_pairs(self) -> int:
        return int(np.count_nonzero(self.fwd != self.num_in))

    def inv(self) -> np.ndarray:
        """``inv[i, o]``: the output row that input row i feeds at offset o, or
        ``num_out`` if none. Built on first use and cached."""
        if self._inv is None:
            k = self.fwd.shape[1]
            q, o = np.nonzero(self.fwd != self.num_in)
            inv = np.full(self.num_in * k, self.num_out, dtype=np.int64)
            inv[self.fwd[q, o] * k + o] = q
            self._inv = inv.reshape(self.num_in, k)
        return self._inv


def build_rulebook(src: ActiveSet, kernel: int, dst: ActiveSet | None = None, stride: int = 1,
                   padding: int | None = None) -> Rulebook:
    """The neighbour table of a sparse convolution, filled by direct lookup.

    Output site q at tap (i, j) of the ``kernel`` x ``kernel`` kernel reads
    input site q * stride - padding + (i, j) of its own sample. Input rows
    are scattered into a dense index grid [samples, height + 2 * padding,
    width + 2 * padding] that holds ``num_in`` at every inactive site, and
    each tap reads that grid at the output sites. ``dst`` is a strided conv's output set, on its output
    grid; every dst site must see an active input of its sample, since an
    empty field means the set and the stride geometry disagree (a mask
    alignment bug upstream). With no ``dst`` the output set is ``src``: a
    submanifold conv, which needs an odd kernel, stride 1 and the default
    padding kernel // 2.
    """
    k, p = kernel, kernel // 2 if padding is None else padding
    if p < 0:
        raise ValueError(f"build_rulebook: negative padding {p}")
    if dst is None:
        if k % 2 == 0:
            raise ValueError(f"build_rulebook: even kernel {k}x{k} is invalid in submanifold mode")
        if stride != 1 or p != k // 2:
            raise ValueError("build_rulebook: a submanifold rulebook has stride 1 and padding kernel // 2")
        dst = src
    h_out = (src.height + 2 * p - k) // stride + 1
    w_out = (src.width + 2 * p - k) // stride + 1
    if (dst.height, dst.width) != (h_out, w_out):
        raise ValueError(f"build_rulebook: output set on a {dst.height}x{dst.width} grid, "
                         f"but the conv's output grid is {h_out}x{w_out}")

    num_in, coords, target = len(src), src.coords, dst.coords
    samples = int(max(src.batch.max(initial=-1), dst.batch.max(initial=-1))) + 1
    # a tap of an on-grid output site stays inside the padded grid, so no index wraps
    index = np.full((samples, src.height + 2 * p, src.width + 2 * p), num_in, dtype=np.int64)
    index[src.batch, coords[:, 0] + p, coords[:, 1] + p] = np.arange(num_in)
    rows = target[:, 0, None] * stride + np.arange(k)  # [m, k]
    cols = target[:, 1, None] * stride + np.arange(k)  # [m, k]
    fwd = index[dst.batch[:, None, None], rows[:, :, None], cols[:, None, :]].reshape(-1, k * k)
    seen = (fwd != num_in).any(axis=1)
    if not seen.all():
        bad = target[int(np.argmin(seen))]
        raise ValueError(
            f"build_rulebook: target site {tuple(int(v) for v in bad)} has an empty "
            f"receptive field (mask/stride misalignment)"
        )
    return Rulebook(k, fwd, src, dst)


def _gather_rows(a: np.ndarray, table: np.ndarray, tap_minor: bool = False) -> np.ndarray:
    """Rows of ``a`` plus one zero row, gathered along ``table`` into [rows, K * channels]:
    columns (o, c), or (c, o) with ``tap_minor``."""
    m, k = table.shape
    padded = np.concatenate([a, np.zeros((1, a.shape[1]), dtype=a.dtype)])
    rows = np.take(padded, table, axis=0)  # [m, K, C]
    return (rows.transpose(0, 2, 1) if tap_minor else rows).reshape(m, k * a.shape[1])


# W' is copied in one pass while the weight fits in a core's L2 cache, and in blocks of
# output channels that each read at most 512 KB of it beyond that. On a Xeon with 2 MB of
# L2 per core (1 BLAS thread), [256, 256, 9] float64 took 1.45 ms in one pass and 0.51 ms
# in blocks; at 128 channels and below one pass is the faster.
_ONE_PASS_BYTES, _BLOCK_BYTES = 1 << 21, 1 << 19


def _tap_major(wk: np.ndarray) -> np.ndarray:
    """W' = ``wk`` [cout, cin, K] as a C-ordered [K, cout, cin] copy."""
    if wk.nbytes <= _ONE_PASS_BYTES:
        return np.ascontiguousarray(wk.transpose(2, 0, 1))
    cout = wk.shape[0]
    step = max(1, cout * _BLOCK_BYTES // wk.nbytes)
    out = np.empty((wk.shape[2], cout, wk.shape[1]), dtype=wk.dtype)
    for c0 in range(0, cout, step):
        out[:, c0 : c0 + step] = wk[c0 : c0 + step].transpose(2, 0, 1)
    return out


def _apply_rulebook(x: DiffTensor, w: DiffTensor, rb: Rulebook) -> DiffTensor:
    """One gather-GEMM along the rulebook's neighbour tables; differentiable.

    Forward: ``R @ W`` with the M gathered rows ``R`` of ``x_pad[fwd]``. Only
    the smaller operand is relaid out. With fewer output rows than output
    channels (M < Cout, so R is smaller than the weight), ``R`` takes the
    weight's own column order, ``R[q, (ci, o)] = x_pad[fwd[q, o], ci]``, and
    ``W = w.reshape(cout, cin*K).T`` is the weight as stored. Otherwise
    ``R[q, (o, ci)]`` is the gather as it comes and ``W[(o, ci), co] =
    w[co, ci, o]`` a copy. Backward re-gathers ``R`` instead of keeping it:
    the weight gradient is ``g.T @ R`` in ``R``'s column order, and the input
    gradient ``g_pad[inv].reshape(num_in, K*Cout) @ W'`` with ``W'[(o, co), ci]
    = w[co, ci, o]``.
    """
    cout, cin, kh, kw = w.shape
    if x.shape[1] != cin:
        raise ValueError(f"sparse conv: feature channel dim {x.shape[1]} != weight in-channel dim {cin}")
    if (kh, kw) != (rb.kernel, rb.kernel):
        raise ValueError(f"sparse conv: weight kernel {kh}x{kw} != rulebook kernel {rb.kernel}x{rb.kernel}")
    fwd = rb.fwd
    k = kh * kw
    wk = w.data.reshape(cout, cin, k)
    as_stored = rb.num_out < cout
    # W.T as [co, cols of R]: the weight as stored, or a copy that swaps only its inner
    # axes, which moves whole runs of the weight and is several times faster than building W
    w_t = w.data.reshape(cout, cin * k) if as_stored else wk.transpose(0, 2, 1).reshape(cout, k * cin)

    out = DiffTensor(_gather_rows(x.data, fwd, as_stored) @ w_t.T)

    def backward_fn(g):
        if x.requires_grad:
            accumulate_grad(x, _gather_rows(g, rb.inv()) @ _tap_major(wk).reshape(k * cout, cin))
        if w.requires_grad:
            gw = g.T @ _gather_rows(x.data, fwd, as_stored)
            if not as_stored:  # [co, (o, ci)] -> w's [co, (ci, o)]
                gw = np.ascontiguousarray(gw.reshape(cout, k, cin).transpose(0, 2, 1))
            accumulate_grad(w, gw.reshape(w.shape))

    return record_op(out, (x, w), backward_fn)


def subm_conv2d(sp: SparseTensor2D, w: DiffTensor, rb: Rulebook) -> SparseTensor2D:
    """Submanifold sparse convolution: computes only at (and from) active sites."""
    if rb.src is not sp.sites or rb.dst is not rb.src:
        raise ValueError("subm_conv2d: rulebook does not map the input's active set onto itself")
    return sp.with_features(_apply_rulebook(sp.features, w, rb))


def sparse_downsample(sp: SparseTensor2D, w: DiffTensor, rb: Rulebook) -> SparseTensor2D:
    """Strided sparse convolution onto the rulebook's mask-derived output set."""
    if rb.src is not sp.sites:
        raise ValueError("sparse_downsample: rulebook does not read the input's active set")
    return SparseTensor2D(rb.dst, _apply_rulebook(sp.features, w, rb))


def sparse_batchnorm(
    sp: SparseTensor2D,
    gamma: DiffTensor,
    beta: DiffTensor,
    state: BatchNormState,
    mode: str = "train",
    clamp: float | None = None,
) -> SparseTensor2D:
    """Batch norm over active sites only, clipped to [0, clamp] unless ``clamp``
    is None; inactive sites never contribute.

    A batched tensor is one feature matrix, so statistics pool over all
    active rows of every sample.
    """
    return sp.with_features(batchnorm_rows(sp.features, gamma, beta, state, mode=mode, clamp=clamp))


def densify(sp: SparseTensor2D, fill: DiffTensor, n: int) -> DiffTensor:
    """Scatter a batch of ``n`` samples into [n,C,h,w], every inactive site
    filled with a learnable embedding vector.

    Active positions carry their feature rows exactly; every inactive
    position carries ``fill``. ``n`` is given because a trailing sample with
    no active site leaves no trace in ``sp.batch``. Gradients to ``fill`` sum
    over inactive positions only, one sample at a time from the last to the
    first.
    """
    c = sp.channels
    if fill.shape != (c,):
        raise ValueError(f"densify: fill width {tuple(fill.shape)} != channel count ({c},)")
    if sp.num_active and sp.batch[-1] >= n:
        raise ValueError(f"densify: sample index {sp.batch[-1]} out of range for a batch of {n}")
    h, w = sp.height, sp.width
    dense = np.empty((n, c, h, w), dtype=np.result_type(sp.features.data, fill.data))
    dense[:] = fill.data[:, None, None]
    batch, rows, cols = sp.batch, sp.coords[:, 0], sp.coords[:, 1]
    dense[batch, :, rows, cols] = sp.features.data  # [batch,:,rows,cols] indexes as [m, C]
    out = DiffTensor(dense)
    feats = sp.features

    def backward_fn(g):
        if feats.requires_grad:
            accumulate_grad(feats, g[batch, :, rows, cols])
        if fill.requires_grad:
            bounds = np.searchsorted(batch, np.arange(n + 1))
            flat = rows * w + cols
            for b in reversed(range(n)):
                g2, fb = g[b].reshape(c, h * w), flat[bounds[b]:bounds[b + 1]]
                accumulate_grad(fill, g2.sum(axis=1) - (g2[:, fb].sum(axis=1) if fb.size else 0.0))

    return record_op(out, (feats, fill), backward_fn)


def gather_from_dense(x: DiffTensor, sites: ActiveSet) -> SparseTensor2D:
    """Read feature rows of a [N,C,H,W] tensor at the given active sites.

    Round-tripping through ``densify`` reproduces the dense values at active
    sites; gradients to inactive positions are exactly zero.
    """
    if x.ndim != 4:
        raise ValueError(f"gather_from_dense: input must be 4-d, got {x.ndim}-d")
    n, c, h, w = x.shape
    if (sites.height, sites.width) != (h, w):
        raise ValueError(f"gather_from_dense: active set on a {sites.height}x{sites.width} grid, input is {h}x{w}")
    if len(sites) and sites.batch[-1] >= n:
        raise ValueError(f"gather_from_dense: sample index {sites.batch[-1]} out of range for a batch of {n}")
    batch, rows, cols = sites.batch, sites.coords[:, 0], sites.coords[:, 1]
    feats = DiffTensor(np.ascontiguousarray(x.data[batch, :, rows, cols]))  # [m, C]

    def backward_fn(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[batch, :, rows, cols] = g  # sites are unique, so no position is written twice
            accumulate_grad(x, gx)

    record_op(feats, (x,), backward_fn)
    return SparseTensor2D(sites, feats)


def sparse_flops(rb: Rulebook, cin: int, cout: int) -> int:
    """Exact multiply-accumulate count of one sparse convolution."""
    return rb.total_pairs * cin * cout


def dense_conv_macs(h_out: int, w_out: int, kernel: int, cin: int, cout: int) -> int:
    """MACs of the zero-padded dense counterpart (all kernel x kernel taps counted)."""
    return h_out * w_out * kernel * kernel * cin * cout
