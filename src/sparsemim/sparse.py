"""Sparse 2-D feature maps, rulebooks, and sparse convolution.

A sparse tensor stores only the features of its active sites. One tensor
holds a whole batch: its rows are ordered by (sample, row, col) and carry a
per-row sample index, so every layer runs once per batch, not once per
sample. A rulebook enumerates, per kernel offset, exactly the (input site,
output site) pairs a sparse convolution multiplies; sites only pair within
their own sample. One builder makes every rulebook: a strided conv maps
the input active set onto a given target set, and a submanifold conv is
the stride-1 case whose output sites are its input sites, so stacking
layers never grows or erodes the mask pattern. From the pairs a rulebook
derives two neighbour tables, and a convolution is one gather of the
neighbour rows followed by one GEMM over all kernel offsets at once
(backward: one gather-GEMM for each gradient). All feature math runs
through the autograd engine and is differentiable with respect to
features, weights, biases, and fill values.
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
    "SparseTensor2D",
    "Rulebook",
    "as_coords",
    "stack_coords",
    "build_rulebook",
    "subm_conv2d",
    "sparse_downsample",
    "sparse_batchnorm",
    "densify",
    "gather_from_dense",
    "sparse_flops",
    "dense_conv_macs",
]


def as_coords(obj) -> np.ndarray:
    """Canonicalize a coordinate collection to a row-major sorted [m,2] int64 array.

    Duplicates are kept; an empty collection gives a [0,2] array.
    """
    arr = np.asarray(obj if isinstance(obj, np.ndarray) else list(obj), dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    elif arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"as_coords: expected (row, col) pairs, got shape {arr.shape}")
    return arr[np.lexsort((arr[:, 1], arr[:, 0]))]


def stack_coords(coord_sets) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample [m_b,2] coordinate arrays -> batched (coords [m,2], sample index [m])."""
    coord_sets = [np.asarray(c, dtype=np.int64).reshape(-1, 2) for c in coord_sets]
    batch = np.repeat(np.arange(len(coord_sets), dtype=np.int64), [c.shape[0] for c in coord_sets])
    return np.concatenate(coord_sets) if coord_sets else np.zeros((0, 2), dtype=np.int64), batch


def _no_batch(coords: np.ndarray) -> np.ndarray:
    return np.zeros(coords.shape[0], dtype=np.int64)


def _coords_key(height: int, width: int, coords: np.ndarray, batch: np.ndarray) -> bytes:
    return (np.int64(height).tobytes() + np.int64(width).tobytes()
            + np.ascontiguousarray(coords).tobytes() + np.ascontiguousarray(batch).tobytes())


class SparseTensor2D:
    """Active coordinates plus per-site feature rows at one spatial scale.

    ``coords`` is [m,2] int64 and ``batch`` the [m] sample index of each row
    (all zeros for a single sample); rows are unique and sorted by (sample,
    row, col). ``features`` is a [m, channels] DiffTensor whose row i belongs
    to site coords[i] of sample batch[i]. Empty tensors (m == 0) are legal
    values.
    """

    __slots__ = ("height", "width", "coords", "batch", "features")

    def __init__(self, height: int, width: int, coords: np.ndarray, features: DiffTensor, validate: bool = True,
                 batch: np.ndarray | None = None):
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
        batch = _no_batch(coords) if batch is None else np.asarray(batch, dtype=np.int64)
        if validate:
            if coords.shape[0] != features.shape[0]:
                raise ValueError(
                    f"SparseTensor2D: {coords.shape[0]} coords but {features.shape[0]} feature rows"
                )
            if features.ndim != 2:
                raise ValueError("SparseTensor2D: features must be [sites, channels]")
            if batch.shape != (coords.shape[0],):
                raise ValueError(f"SparseTensor2D: batch index shape {batch.shape} != ({coords.shape[0]},)")
            if coords.shape[0]:
                if coords.min() < 0 or coords[:, 0].max() >= height or coords[:, 1].max() >= width:
                    raise ValueError(f"SparseTensor2D: coordinate out of bounds for {height}x{width}")
                if batch.min() < 0:
                    raise ValueError("SparseTensor2D: negative sample index")
                keys = (batch * height + coords[:, 0]) * width + coords[:, 1]
                if not np.all(np.diff(keys) > 0):
                    raise ValueError("SparseTensor2D: coords must be unique and sorted by (sample, row, col)")
        self.height = int(height)
        self.width = int(width)
        self.coords = coords
        self.batch = batch
        self.features = features

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    @property
    def num_active(self) -> int:
        return self.coords.shape[0]

    def active_key(self) -> bytes:
        return _coords_key(self.height, self.width, self.coords, self.batch)

    def with_features(self, features: DiffTensor) -> "SparseTensor2D":
        """The same active sites carrying new feature rows."""
        return SparseTensor2D(self.height, self.width, self.coords, features, validate=False, batch=self.batch)

    def __repr__(self):
        return (
            f"SparseTensor2D({self.height}x{self.width}, active={self.num_active}, "
            f"channels={self.channels})"
        )


class Rulebook:
    """Per-offset (input_index, output_index) pair lists for one sparse conv.

    ``pairs[o]`` is an [m_o, 2] int64 array in kernel scan order (row-major
    over offsets); within an offset, indices on each side are unique and
    the pairs run in ascending output index. ``in_key`` / ``out_key``
    identify the input and output active sets (grid size, sites, sample
    index); a submanifold rulebook has ``out_key == in_key``.
    """

    __slots__ = ("kernel", "pairs", "in_key", "out_key", "num_in", "num_out", "_tables")

    def __init__(self, kernel, pairs, in_key, out_key, num_in, num_out):
        self.kernel = kernel
        self.pairs = pairs
        self.in_key = in_key
        self.out_key = out_key
        self.num_in = num_in
        self.num_out = num_out
        self._tables = None

    @property
    def total_pairs(self) -> int:
        return sum(p.shape[0] for p in self.pairs)

    def neighbour_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``fwd[num_out, K]``: the input row output row p meets at offset o;
        ``inv[num_in, K]``: the output row input row i feeds at offset o.

        An absent neighbour points one past the last row (``num_in`` in
        ``fwd``, ``num_out`` in ``inv``), where the conv appends a zero row.
        Built from ``pairs`` on first use and cached.
        """
        if self._tables is None:
            k = len(self.pairs)
            fwd = np.full((self.num_out, k), self.num_in, dtype=np.int64)
            for o, pr in enumerate(self.pairs):
                fwd[pr[:, 1], o] = pr[:, 0]
            inv = np.full((self.num_in, k), self.num_out, dtype=np.int64)
            for o, pr in enumerate(self.pairs):
                inv[pr[:, 0], o] = pr[:, 1]
            self._tables = fwd, inv
        return self._tables


def _match_offsets(coords_in: np.ndarray, batch_in: np.ndarray, base: np.ndarray, batch_out: np.ndarray,
                   offsets) -> list:
    """Per offset (dr, dc), the [m, 2] pairs (i, o) with coords_in[i] == base[o] + (dr, dc)
    and batch_in[i] == batch_out[o].

    Sites become linear keys ``(b * rows + r - r0) * span + (c - c0)`` over the
    bounding box of ``coords_in``; a neighbour outside that box is rejected
    before its key is formed, so keys never alias across a row end or a
    sample, and the rest are found by binary search in the sorted input
    keys. Within an offset the pairs run in ascending ``o``; a duplicated
    input site resolves to its last index.
    """
    if coords_in.shape[0] == 0:
        return [np.zeros((0, 2), dtype=np.int64) for _ in offsets]
    (r0, c0), (r1, c1) = coords_in.min(axis=0), coords_in.max(axis=0)
    rows, span = r1 - r0 + 1, c1 - c0 + 1
    keys = (batch_in * rows + coords_in[:, 0] - r0) * span + (coords_in[:, 1] - c0)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    pairs = []
    for dr, dc in offsets:
        r = base[:, 0] + dr
        c = base[:, 1] + dc
        inside = (r >= r0) & (r <= r1) & (c >= c0) & (c <= c1)
        nkeys = (batch_out[inside] * rows + r[inside] - r0) * span + (c[inside] - c0)
        pos = np.searchsorted(sorted_keys, nkeys, side="right") - 1
        hit = (pos >= 0) & (sorted_keys[pos] == nkeys)
        pairs.append(np.stack([order[pos[hit]], np.flatnonzero(inside)[hit]], axis=1))
    return pairs


def build_rulebook(active, kernel, height: int | None = None, width: int | None = None, target=None,
                   target_batch: np.ndarray | None = None, stride: int = 1, padding: int | None = None) -> Rulebook:
    """Enumerate all (input, output) site pairs of a sparse convolution.

    Output site q at kernel tap (i, j) reads input site q * stride - padding
    + (i, j) of its own sample; the pair is emitted iff that site is active.
    ``active`` is a SparseTensor2D (its sample index and, by default, its
    size are used) or a single sample's coordinate collection. ``target``
    (with ``target_batch``, default sample 0) is the output active set of a
    strided conv; every target site must see at least one active input of
    its sample, since an empty field means the target set and the stride
    geometry disagree (a mask alignment bug upstream). With no target the
    output sites are the input sites: a submanifold conv, which needs an odd
    kernel, stride 1 and the default padding kernel // 2.
    """
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
    if isinstance(active, SparseTensor2D):
        coords, batch = active.coords, active.batch
        height = active.height if height is None else height
        width = active.width if width is None else width
    else:
        coords = as_coords(active)
        batch = _no_batch(coords)
    if height is None:
        height = int(coords[:, 0].max()) + 1 if coords.shape[0] else 0
    if width is None:
        width = int(coords[:, 1].max()) + 1 if coords.shape[0] else 0
    ph, pw = (kh // 2, kw // 2) if padding is None else (padding, padding)
    if target is None:
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"build_rulebook: even kernel {kh}x{kw} is invalid in submanifold mode")
        if stride != 1 or (ph, pw) != (kh // 2, kw // 2):
            raise ValueError("build_rulebook: a submanifold rulebook has stride 1 and padding kernel // 2")
        target, target_batch = coords, batch
    elif not isinstance(target, np.ndarray):
        target = as_coords(target)
    target_batch = _no_batch(target) if target_batch is None else np.asarray(target_batch, dtype=np.int64)
    h_out = (height + 2 * ph - kh) // stride + 1
    w_out = (width + 2 * pw - kw) // stride + 1
    if target.shape[0] and (target[:, 0].max() >= h_out or target[:, 1].max() >= w_out):
        raise ValueError(f"build_rulebook: target site outside {h_out}x{w_out} output grid")

    offsets = [(i, j) for i in range(kh) for j in range(kw)]
    pairs = _match_offsets(coords, batch, target * stride - (ph, pw), target_batch, offsets)
    hits = np.bincount(np.concatenate([pr[:, 1] for pr in pairs]), minlength=target.shape[0])
    if target.shape[0] and int(hits.min()) == 0:
        bad = target[int(np.argmin(hits))]
        raise ValueError(
            f"build_rulebook: target site {tuple(int(v) for v in bad)} has an empty "
            f"receptive field (mask/stride misalignment)"
        )
    return Rulebook((kh, kw), pairs, _coords_key(height, width, coords, batch),
                    _coords_key(h_out, w_out, target, target_batch), coords.shape[0], target.shape[0])


def _gather_rows(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Rows of ``a`` plus one zero row, gathered along ``table`` into [rows, K * channels]."""
    padded = np.concatenate([a, np.zeros((1, a.shape[1]))])
    return np.take(padded, table, axis=0).reshape(table.shape[0], table.shape[1] * a.shape[1])


def _apply_rulebook(x: DiffTensor, w: DiffTensor, b: DiffTensor | None, rb: Rulebook) -> DiffTensor:
    """One gather-GEMM along the rulebook's neighbour tables; differentiable.

    Forward: ``x_pad[fwd].reshape(M, K*Cin) @ W`` with ``W[(o, ci), co] =
    w[co, ci, o]``. Backward re-gathers instead of keeping that matrix:
    the weight gradient is ``g.T @ x_pad[fwd]`` and the input gradient
    ``g_pad[inv].reshape(num_in, K*Cout) @ W'`` with ``W'[(o, co), ci] =
    w[co, ci, o]``.
    """
    cout, cin, kh, kw = w.shape
    if x.shape[1] != cin:
        raise ValueError(f"sparse conv: feature channel dim {x.shape[1]} != weight in-channel dim {cin}")
    if (kh, kw) != rb.kernel:
        raise ValueError(f"sparse conv: weight kernel {kh}x{kw} != rulebook kernel {rb.kernel}")
    if b is not None and b.shape != (cout,):
        raise ValueError(f"sparse conv: bias shape {tuple(b.shape)} != out-channel dim ({cout},)")
    fwd, inv = rb.neighbour_tables()
    k = kh * kw
    wk = w.data.reshape(cout, cin, k)

    def w_rows():
        # W.T = w as [co, (o, ci)]: swapping only the inner axes moves whole runs
        # of the weight and copies several times faster than building W itself
        return wk.transpose(0, 2, 1).reshape(cout, k * cin)

    out_data = _gather_rows(x.data, fwd) @ w_rows().T
    if b is not None:
        out_data += b.data
    out = DiffTensor(out_data)

    def backward_fn(g):
        if x.requires_grad:
            w_in = w_rows().reshape(cout, k, cin).transpose(1, 0, 2).reshape(k * cout, cin)  # W'
            accumulate_grad(x, _gather_rows(g, inv) @ w_in)
        if w.requires_grad:
            gw = g.T @ _gather_rows(x.data, fwd)  # [cout, (o, ci)]
            accumulate_grad(w, np.ascontiguousarray(gw.reshape(cout, k, cin).transpose(0, 2, 1)).reshape(w.shape))
        if b is not None and b.requires_grad:
            accumulate_grad(b, g.sum(axis=0))

    return record_op(out, (x, w, b), backward_fn)


def subm_conv2d(sp: SparseTensor2D, w: DiffTensor, b: DiffTensor | None, rb: Rulebook) -> SparseTensor2D:
    """Submanifold sparse convolution: computes only at (and from) active sites."""
    if rb.in_key != sp.active_key() or rb.out_key != rb.in_key:
        raise ValueError("subm_conv2d: rulebook does not map the input's active set onto itself")
    return sp.with_features(_apply_rulebook(sp.features, w, b, rb))


def sparse_downsample(
    sp: SparseTensor2D,
    target_active,
    w: DiffTensor,
    b: DiffTensor | None = None,
    stride: int = 2,
    padding: int = 0,
    target_batch: np.ndarray | None = None,
) -> SparseTensor2D:
    """Strided sparse convolution onto a mask-derived target active set.

    ``target_batch`` is the sample index of each target site when ``sp``
    holds a batch (default: every target belongs to sample 0).
    """
    kh, kw = w.shape[2], w.shape[3]
    coords_out = as_coords(target_active) if not isinstance(target_active, np.ndarray) else target_active
    batch_out = _no_batch(coords_out) if target_batch is None else np.asarray(target_batch, dtype=np.int64)
    h_out = (sp.height + 2 * padding - kh) // stride + 1
    w_out = (sp.width + 2 * padding - kw) // stride + 1
    rulebook = build_rulebook(sp, (kh, kw), target=coords_out, target_batch=batch_out, stride=stride,
                              padding=padding)
    feats = _apply_rulebook(sp.features, w, b, rulebook)
    return SparseTensor2D(h_out, w_out, coords_out, feats, validate=False, batch=batch_out)


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
    dense = np.empty((n, c, h, w))
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


def gather_from_dense(x: DiffTensor, active, batch_index=0) -> SparseTensor2D:
    """Read feature rows of a [N,C,H,W] tensor at the given active coordinates.

    ``batch_index`` is one sample (the result is a single-sample tensor) or
    an [m] array naming each row's sample (the result is a batched tensor
    carrying that index). Round-tripping through ``densify`` reproduces the
    dense values at active sites; gradients to inactive positions are
    exactly zero. A position read by several rows (the same site in several
    samples, e.g. a shared [1,C,H,W] embedding) receives the sum of their
    gradients.
    """
    if x.ndim != 4:
        raise ValueError(f"gather_from_dense: input must be 4-d, got {x.ndim}-d")
    n, c, h, w = x.shape
    coords = as_coords(active) if not isinstance(active, np.ndarray) else active
    if coords.shape[0] and (coords[:, 0].max() >= h or coords[:, 1].max() >= w):
        raise ValueError(f"gather_from_dense: coordinate out of bounds for {h}x{w}")
    rows, cols = coords[:, 0], coords[:, 1]
    feats = DiffTensor(np.ascontiguousarray(x.data[batch_index, :, rows, cols]))  # [m, C]

    def backward_fn(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, (batch_index, slice(None), rows, cols), g)
            accumulate_grad(x, gx)

    record_op(feats, (x,), backward_fn)
    batch = np.asarray(batch_index, dtype=np.int64) if np.ndim(batch_index) else None
    return SparseTensor2D(h, w, coords, feats, validate=False, batch=batch)


def sparse_flops(rb: Rulebook, cin: int, cout: int) -> int:
    """Exact multiply-accumulate count of one sparse convolution."""
    return rb.total_pairs * cin * cout


def dense_conv_macs(h_out: int, w_out: int, kernel, cin: int, cout: int) -> int:
    """MACs of the zero-padded dense counterpart (all kernel taps counted)."""
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
    return h_out * w_out * kh * kw * cin * cout
