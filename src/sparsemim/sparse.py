"""Sparse 2-D feature maps, rulebooks, and submanifold sparse convolution.

A sparse tensor stores only the features of its active sites; a rulebook
enumerates, per kernel offset, exactly the (input site, output site) pairs a
sparse convolution multiplies. Submanifold mode keeps the output active set
identical to the input's, so stacking layers never grows or erodes the mask
pattern. All feature math runs through the autograd engine and is
differentiable with respect to features, weights, biases, and fill values.
"""

from __future__ import annotations

import numpy as np

from .autograd import (
    DiffTensor,
    BatchNormState,
    accumulate_grad,
    batchnorm_rows,
    concat0,
    record_op,
    slice_rows,
)

__all__ = [
    "SparseTensor2D",
    "Rulebook",
    "as_coords",
    "build_rulebook",
    "build_downsample_rulebook",
    "subm_conv2d",
    "sparse_downsample",
    "sparse_batchnorm",
    "densify",
    "gather_from_dense",
    "sparse_flops",
    "dense_conv_macs",
]


def as_coords(obj) -> np.ndarray:
    """Canonicalize a coordinate collection to a row-major sorted [m,2] int64 array."""
    arr = np.asarray(sorted((int(r), int(c)) for r, c in obj), dtype=np.int64)
    return arr.reshape(-1, 2)


def _coords_key(height: int, width: int, coords: np.ndarray) -> bytes:
    return np.int64(height).tobytes() + np.int64(width).tobytes() + np.ascontiguousarray(coords).tobytes()


class SparseTensor2D:
    """Active coordinates plus per-site feature rows at one spatial scale.

    ``coords`` is [m,2] int64, unique and sorted row-major; ``features`` is a
    [m, channels] DiffTensor whose row i belongs to site coords[i]. Empty
    tensors (m == 0) are legal values.
    """

    __slots__ = ("height", "width", "coords", "features")

    def __init__(self, height: int, width: int, coords: np.ndarray, features: DiffTensor, validate: bool = True):
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
        if validate:
            if coords.shape[0] != features.shape[0]:
                raise ValueError(
                    f"SparseTensor2D: {coords.shape[0]} coords but {features.shape[0]} feature rows"
                )
            if features.ndim != 2:
                raise ValueError("SparseTensor2D: features must be [sites, channels]")
            if coords.shape[0]:
                if coords.min() < 0 or coords[:, 0].max() >= height or coords[:, 1].max() >= width:
                    raise ValueError(f"SparseTensor2D: coordinate out of bounds for {height}x{width}")
                keys = coords[:, 0] * width + coords[:, 1]
                if not np.all(np.diff(keys) > 0):
                    raise ValueError("SparseTensor2D: coords must be unique and sorted row-major")
        self.height = int(height)
        self.width = int(width)
        self.coords = coords
        self.features = features

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    @property
    def num_active(self) -> int:
        return self.coords.shape[0]

    def active_key(self) -> bytes:
        return _coords_key(self.height, self.width, self.coords)

    def __repr__(self):
        return (
            f"SparseTensor2D({self.height}x{self.width}, active={self.num_active}, "
            f"channels={self.channels})"
        )


class Rulebook:
    """Per-offset (input_index, output_index) pair lists for one sparse conv.

    ``pairs[o]`` is an [m_o, 2] int64 array in kernel scan order (row-major
    over offsets); within an offset, indices on each side are unique, which
    makes fancy-indexed accumulation safe.
    """

    __slots__ = ("kernel", "stride", "padding", "mode", "pairs", "in_key", "out_key", "num_in", "num_out")

    def __init__(self, kernel, stride, padding, mode, pairs, in_key, out_key, num_in, num_out):
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.mode = mode
        self.pairs = pairs
        self.in_key = in_key
        self.out_key = out_key
        self.num_in = num_in
        self.num_out = num_out

    @property
    def total_pairs(self) -> int:
        return sum(p.shape[0] for p in self.pairs)


def _match_offsets(coords_in: np.ndarray, base: np.ndarray, offsets) -> list:
    """Per offset (dr, dc), the [m, 2] pairs (i, o) with coords_in[i] == base[o] + (dr, dc).

    Coordinates become linear keys ``(r - r0) * span + (c - c0)`` over the
    bounding box of ``coords_in``; a neighbour outside that box is rejected
    before its key is formed, so keys never alias across a row end, and the
    rest are found by binary search in the sorted input keys. Within an
    offset the pairs run in ascending ``o``; a duplicated input coordinate
    resolves to its last index.
    """
    if coords_in.shape[0] == 0:
        return [np.zeros((0, 2), dtype=np.int64) for _ in offsets]
    (r0, c0), (r1, c1) = coords_in.min(axis=0), coords_in.max(axis=0)
    span = c1 - c0 + 1
    keys = (coords_in[:, 0] - r0) * span + (coords_in[:, 1] - c0)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    pairs = []
    for dr, dc in offsets:
        r = base[:, 0] + dr
        c = base[:, 1] + dc
        inside = (r >= r0) & (r <= r1) & (c >= c0) & (c <= c1)
        nkeys = (r[inside] - r0) * span + (c[inside] - c0)
        pos = np.searchsorted(sorted_keys, nkeys, side="right") - 1
        hit = (pos >= 0) & (sorted_keys[pos] == nkeys)
        pairs.append(np.stack([order[pos[hit]], np.flatnonzero(inside)[hit]], axis=1))
    return pairs


def build_rulebook(active, kernel, mode: str = "submanifold", height: int | None = None, width: int | None = None) -> Rulebook:
    """Enumerate all (input, output) site pairs of a submanifold convolution.

    For every active output site p and kernel offset o the pair
    (p + o - center, p) is emitted iff the neighbor is active. The output
    active set is the input active set by construction.
    """
    if mode != "submanifold":
        raise ValueError(f"build_rulebook: unsupported mode {mode!r}")
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"build_rulebook: even kernel {kh}x{kw} is invalid in submanifold mode")
    coords = active.coords if isinstance(active, SparseTensor2D) else as_coords(active)
    if height is None:
        height = int(coords[:, 0].max()) + 1 if coords.shape[0] else 0
    if width is None:
        width = int(coords[:, 1].max()) + 1 if coords.shape[0] else 0

    ch, cw = kh // 2, kw // 2
    offsets = [(di, dj) for di in range(-ch, ch + 1) for dj in range(-cw, cw + 1)]
    pairs = _match_offsets(coords, coords, offsets)
    key = _coords_key(height, width, coords)
    return Rulebook((kh, kw), 1, (kh // 2, kw // 2), "submanifold", pairs, key, key, len(coords), len(coords))


def build_downsample_rulebook(
    coords_in: np.ndarray,
    in_hw,
    coords_out: np.ndarray,
    kernel,
    stride: int,
    padding: int = 0,
) -> Rulebook:
    """Pairs of a strided sparse convolution onto an externally given target set.

    Every target site must see at least one active input inside its
    receptive field; an empty field means the target set and the stride
    geometry disagree (a mask alignment bug upstream).
    """
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
    h_in, w_in = in_hw
    h_out = (h_in + 2 * padding - kh) // stride + 1
    w_out = (w_in + 2 * padding - kw) // stride + 1
    coords_in = as_coords(coords_in) if not isinstance(coords_in, np.ndarray) else coords_in
    coords_out = as_coords(coords_out) if not isinstance(coords_out, np.ndarray) else coords_out
    if coords_out.shape[0]:
        if coords_out[:, 0].max() >= h_out or coords_out[:, 1].max() >= w_out:
            raise ValueError(
                f"build_downsample_rulebook: target site outside {h_out}x{w_out} output grid"
            )

    offsets = [(i, j) for i in range(kh) for j in range(kw)]
    pairs = _match_offsets(coords_in, coords_out * stride - padding, offsets)
    hits = np.bincount(np.concatenate([pr[:, 1] for pr in pairs]), minlength=coords_out.shape[0])
    if coords_out.shape[0] and int(hits.min()) == 0:
        bad = coords_out[int(np.argmin(hits))]
        raise ValueError(
            f"build_downsample_rulebook: target site {tuple(int(v) for v in bad)} has an empty "
            f"receptive field (mask/stride misalignment)"
        )
    return Rulebook(
        (kh, kw),
        stride,
        (padding, padding),
        "strided",
        pairs,
        _coords_key(h_in, w_in, coords_in),
        _coords_key(h_out, w_out, coords_out),
        coords_in.shape[0],
        coords_out.shape[0],
    )


def _apply_rulebook(x: DiffTensor, w: DiffTensor, b: DiffTensor | None, rb: Rulebook, num_out: int) -> DiffTensor:
    """Gather/multiply/scatter feature rows along the rulebook; differentiable."""
    cout, cin, kh, kw = w.shape
    if x.shape[1] != cin:
        raise ValueError(f"sparse conv: feature channel dim {x.shape[1]} != weight in-channel dim {cin}")
    if (kh, kw) != rb.kernel:
        raise ValueError(f"sparse conv: weight kernel {kh}x{kw} != rulebook kernel {rb.kernel}")
    wk = w.data.reshape(cout, cin, kh * kw)
    out_data = np.zeros((num_out, cout))
    for o, pr in enumerate(rb.pairs):
        if pr.shape[0] == 0:
            continue
        out_data[pr[:, 1]] += x.data[pr[:, 0]] @ wk[:, :, o].T
    if b is not None:
        if b.shape != (cout,):
            raise ValueError(f"sparse conv: bias shape {tuple(b.shape)} != out-channel dim ({cout},)")
        out_data += b.data
    out = DiffTensor(out_data)

    def backward_fn(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for o, pr in enumerate(rb.pairs):
                if pr.shape[0]:
                    gx[pr[:, 0]] += g[pr[:, 1]] @ wk[:, :, o]
            accumulate_grad(x, gx)
        if w.requires_grad:
            gw = np.zeros((cout, cin, kh * kw))
            for o, pr in enumerate(rb.pairs):
                if pr.shape[0]:
                    gw[:, :, o] = g[pr[:, 1]].T @ x.data[pr[:, 0]]
            accumulate_grad(w, gw.reshape(w.shape))
        if b is not None and b.requires_grad:
            accumulate_grad(b, g.sum(axis=0))

    return record_op(out, (x, w, b), backward_fn)


def subm_conv2d(sp: SparseTensor2D, w: DiffTensor, b: DiffTensor | None, rb: Rulebook) -> SparseTensor2D:
    """Submanifold sparse convolution: computes only at (and from) active sites."""
    if rb.mode != "submanifold":
        raise ValueError("subm_conv2d: rulebook was not built in submanifold mode")
    if rb.in_key != sp.active_key():
        raise ValueError("subm_conv2d: rulebook active set does not match the input's")
    feats = _apply_rulebook(sp.features, w, b, rb, sp.num_active)
    return SparseTensor2D(sp.height, sp.width, sp.coords, feats, validate=False)


def sparse_downsample(
    sp: SparseTensor2D,
    target_active,
    w: DiffTensor,
    b: DiffTensor | None = None,
    stride: int = 2,
    padding: int = 0,
    rulebook: Rulebook | None = None,
) -> SparseTensor2D:
    """Strided sparse convolution onto a mask-derived target active set."""
    kh, kw = w.shape[2], w.shape[3]
    coords_out = as_coords(target_active) if not isinstance(target_active, np.ndarray) else target_active
    if rulebook is None:
        rulebook = build_downsample_rulebook(
            sp.coords, (sp.height, sp.width), coords_out, (kh, kw), stride, padding
        )
    else:
        if rulebook.in_key != sp.active_key():
            raise ValueError("sparse_downsample: rulebook input set does not match the input's")
    h_out = (sp.height + 2 * padding - kh) // stride + 1
    w_out = (sp.width + 2 * padding - kw) // stride + 1
    feats = _apply_rulebook(sp.features, w, b, rulebook, coords_out.shape[0])
    return SparseTensor2D(h_out, w_out, coords_out, feats, validate=False)


def sparse_batchnorm(
    sp,
    gamma: DiffTensor,
    beta: DiffTensor,
    state: BatchNormState,
    mode: str = "train",
    eps: float = 1e-5,
):
    """Batch norm over active sites only; inactive sites never contribute.

    Accepts a single SparseTensor2D or a list of them (one per batch
    sample); statistics pool over all active rows across the batch.
    """
    single = isinstance(sp, SparseTensor2D)
    sps = [sp] if single else list(sp)
    if not sps:
        raise ValueError("sparse_batchnorm: empty batch")
    stacked = concat0([s.features for s in sps]) if len(sps) > 1 else sps[0].features
    normed = batchnorm_rows(stacked, gamma, beta, state, mode=mode, eps=eps)
    outs = []
    off = 0
    for s in sps:
        part = slice_rows(normed, off, off + s.num_active) if len(sps) > 1 else normed
        outs.append(SparseTensor2D(s.height, s.width, s.coords, part, validate=False))
        off += s.num_active
    return outs[0] if single else outs


def densify(sp: SparseTensor2D, fill: DiffTensor) -> DiffTensor:
    """Fill inactive sites with a learnable embedding vector; returns [1,C,h,w].

    Active positions carry their feature rows exactly; every inactive
    position carries ``fill``. Gradients to ``fill`` sum over inactive
    positions only.
    """
    c = sp.channels
    if fill.shape != (c,):
        raise ValueError(f"densify: fill width {tuple(fill.shape)} != channel count ({c},)")
    h, w = sp.height, sp.width
    dense = np.empty((1, c, h, w))
    dense[0] = fill.data[:, None, None]
    rows, cols = sp.coords[:, 0], sp.coords[:, 1]
    dense[0, :, rows, cols] = sp.features.data  # [b,:,rows,cols] indexes as [m, C]
    out = DiffTensor(dense)
    feats = sp.features

    def backward_fn(g):
        g2 = g[0].reshape(c, h * w)
        flat = rows * w + cols
        if feats.requires_grad:
            accumulate_grad(feats, g2[:, flat].T)
        if fill.requires_grad:
            accumulate_grad(fill, g2.sum(axis=1) - (g2[:, flat].sum(axis=1) if flat.size else 0.0))

    return record_op(out, (feats, fill), backward_fn)


def gather_from_dense(x: DiffTensor, active, batch_index: int = 0) -> SparseTensor2D:
    """Read feature rows of a [N,C,H,W] tensor at the given active coordinates.

    Round-tripping through ``densify`` reproduces the dense values at active
    sites; gradients to inactive positions are exactly zero.
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
            gx[batch_index, :, rows, cols] = g
            accumulate_grad(x, gx)

    record_op(feats, (x,), backward_fn)
    return SparseTensor2D(h, w, coords, feats, validate=False)


def sparse_flops(rb: Rulebook, cin: int, cout: int) -> int:
    """Exact multiply-accumulate count of one sparse convolution."""
    return rb.total_pairs * cin * cout


def dense_conv_macs(h_out: int, w_out: int, kernel, cin: int, cout: int) -> int:
    """MACs of the zero-padded dense counterpart (all kernel taps counted)."""
    kh, kw = (kernel, kernel) if isinstance(kernel, int) else tuple(kernel)
    return h_out * w_out * kh * kw * cin * cout
