"""Dense tensor engine with reverse-mode automatic differentiation.

Values are float64 numpy arrays wrapped in :class:`DiffTensor`. Every
differentiable operation records a node on the ambient :class:`Tape`;
``backward`` replays the tape in reverse creation order (a valid reverse
topological order, since parents are always created before children) and
accumulates gradients into ``.grad``. It takes each node's output, output
gradient and closure off the node before running it, so an op output's
gradient and everything its backward saved are freed as soon as that op has
run, and the output's array once the last backward that reads it (its
consumers' and its own) has run: a node keeps no reference to its inputs.
After ``backward`` only leaves (tensors that no op produced, such as
parameters) keep ``.grad``; ``training.train`` drops those too right after
each optimizer update, so parameters carry no ``.grad`` between steps or after
``train`` returns. A rerun is bit-reproducible for a fixed seed,
configuration and BLAS thread count.

Gradients are stored without copies: the array a backward passes to
:func:`accumulate_grad` becomes the parent's ``.grad`` as it is, so no backward
writes into an array it received or passed on, and no op into its inputs.

Every convolution is lowered to GEMMs one way, the row-shift lowering of MEC
(Cho & Brand, arXiv:1706.06873) of a stride-1 correlation: ``kw``
column-shifted copies of the padded input, from which each kernel row reads
one contiguous window, so the lowered matrix holds ``kw`` copies of the input
rather than im2col's ``kh*kw``. Its forward, weight gradient and input
gradient all run on that one kernel; both gradients read the row shifts of
the output gradient, so a convolution saves only its input and weight for the
backward, not the lowered matrix. A strided convolution is the stride-1
correlation of the input's space-to-depth with the weight's, and the x2
transposed convolution is the input adjoint of a stride-2 convolution.
Batch norm carries its activation (``clamp``: None, ``np.inf`` for ReLU,
``6.0`` for ReLU6), so a normalise-and-activate layer is one tape node.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DiffTensor",
    "Tape",
    "BatchNormState",
    "tensor",
    "no_grad",
    "record_op",
    "active_tape",
    "add",
    "add_broadcast",
    "sub",
    "mul",
    "mul_scalar",
    "square",
    "sum_over",
    "mean_over",
    "conv2d",
    "conv_transpose2d",
    "batchnorm2d",
    "batchnorm_rows",
    "backward",
    "grad_check",
]


class DiffTensor:
    """N-d float64 value with an optional gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "tape_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.tape_node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"DiffTensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


class _TapeNode:
    __slots__ = ("out", "backward_fn", "index")

    def __init__(self, out, backward_fn, index):
        self.out = out
        self.backward_fn = backward_fn
        self.index = index


class Tape:
    """Ordered record of differentiable operations.

    Creation order is a topological order of the compute graph, so a single
    reverse sweep visits each node exactly once with all downstream
    gradients already accumulated.
    """

    def __init__(self):
        self.nodes: list[_TapeNode] = []

    def record(self, out, backward_fn) -> _TapeNode:
        node = _TapeNode(out, backward_fn, len(self.nodes))
        self.nodes.append(node)
        out.tape_node = node
        return node

    def clear(self):
        for node in self.nodes:
            if node.out is not None:  # backward has not taken it off
                node.out.tape_node = None
        self.nodes.clear()

    def __len__(self):
        return len(self.nodes)


_TAPE = Tape()
_GRAD_ENABLED = True


def active_tape() -> Tape:
    return _TAPE


class no_grad:
    """Context manager that disables tape recording."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def record_op(out: DiffTensor, parents, backward_fn):
    """Attach a custom differentiable op to the ambient tape.

    ``backward_fn(grad_out)`` must accumulate into each parent via
    :func:`accumulate_grad`. Recording happens only if grads are enabled and
    some parent requires grad; otherwise the output stays constant. The tape
    keeps ``out`` and the closure, not ``parents``: the closure holds what its
    backward reads.
    """
    if _GRAD_ENABLED and any(p is not None and p.requires_grad for p in parents):
        out.requires_grad = True
        _TAPE.record(out, backward_fn)
    return out


def accumulate_grad(t: DiffTensor, g: np.ndarray):
    """Add ``g`` into ``t.grad``; tensors not requiring grad never accumulate.

    The first gradient is stored as given (it may be a view, or shared with
    other tensors); later ones are summed out of place.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def tensor(data, requires_grad: bool = False) -> DiffTensor:
    return DiffTensor(data, requires_grad=requires_grad)


def _as_dt(x) -> DiffTensor:
    return x if isinstance(x, DiffTensor) else DiffTensor(x)


# ---------------------------------------------------------------------------
# pointwise and reduction ops
# ---------------------------------------------------------------------------


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {tuple(a.shape)} vs {tuple(b.shape)}")


def add(a, b) -> DiffTensor:
    a, b = _as_dt(a), _as_dt(b)
    _check_same_shape("add", a, b)
    out = DiffTensor(a.data + b.data)

    def backward_fn(g):
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return record_op(out, (a, b), backward_fn)


def add_broadcast(x: DiffTensor, p: DiffTensor) -> DiffTensor:
    """x + p with numpy broadcasting; the grad of p sums over broadcast axes."""
    try:
        out_data = x.data + p.data
    except ValueError as e:
        raise ValueError(f"add_broadcast: incompatible shapes {x.shape} vs {p.shape}") from e
    if out_data.shape != x.data.shape:
        raise ValueError(f"add_broadcast: rhs {tuple(p.shape)} must broadcast into lhs {tuple(x.shape)}")
    out = DiffTensor(out_data)

    def backward_fn(g):
        accumulate_grad(x, g)
        if p.requires_grad:
            gp = g
            # sum out leading axes then any axes where p has extent 1
            extra = gp.ndim - p.data.ndim
            if extra:
                gp = gp.sum(axis=tuple(range(extra)))
            axes = tuple(i for i, d in enumerate(p.data.shape) if d == 1 and gp.shape[i] != 1)
            if axes:
                gp = gp.sum(axis=axes, keepdims=True)
            accumulate_grad(p, gp)

    return record_op(out, (x, p), backward_fn)


def sub(a, b) -> DiffTensor:
    a, b = _as_dt(a), _as_dt(b)
    _check_same_shape("sub", a, b)
    out = DiffTensor(a.data - b.data)

    def backward_fn(g):
        accumulate_grad(a, g)
        accumulate_grad(b, -g)

    return record_op(out, (a, b), backward_fn)


def mul(a, b) -> DiffTensor:
    a, b = _as_dt(a), _as_dt(b)
    _check_same_shape("mul", a, b)
    out = DiffTensor(a.data * b.data)

    def backward_fn(g):
        accumulate_grad(a, g * b.data)
        accumulate_grad(b, g * a.data)

    return record_op(out, (a, b), backward_fn)


def mul_scalar(x: DiffTensor, s: float) -> DiffTensor:
    x = _as_dt(x)
    s = float(s)
    out = DiffTensor(x.data * s)

    def backward_fn(g):
        accumulate_grad(x, g * s)

    return record_op(out, (x,), backward_fn)


def square(x: DiffTensor) -> DiffTensor:
    x = _as_dt(x)
    out = DiffTensor(x.data * x.data)

    def backward_fn(g):
        accumulate_grad(x, 2.0 * x.data * g)

    return record_op(out, (x,), backward_fn)


def sum_over(x: DiffTensor) -> DiffTensor:
    """Sum of every entry of ``x``."""
    x = _as_dt(x)
    out = DiffTensor(x.data.sum())

    def backward_fn(g):
        accumulate_grad(x, np.broadcast_to(g, x.data.shape))

    return record_op(out, (x,), backward_fn)


def mean_over(x: DiffTensor, over=None) -> DiffTensor:
    """Mean of every entry of ``x``, or (``over`` a boolean array broadcastable
    to ``x``'s shape) the scalar mean of the selected entries."""
    x = _as_dt(x)
    if over is not None:
        if not (isinstance(over, np.ndarray) and over.dtype == bool):
            raise ValueError(f"mean_over: over must be None or a boolean mask, got {type(over).__name__}")
        mask = np.broadcast_to(over, x.data.shape)
        count = int(mask.sum())
        if count == 0:
            raise ValueError("mean_over: empty selection mask")
        out = DiffTensor(x.data[mask].sum() / count)

        def backward_fn(g):
            accumulate_grad(x, (float(g) / count) * mask)

        return record_op(out, (x,), backward_fn)

    n = x.data.size
    out = DiffTensor(x.data.sum() / n)

    def backward_fn(g):
        accumulate_grad(x, np.broadcast_to(g / n, x.data.shape))

    return record_op(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


# Output columns per GEMM block of the stride-1 correlation. The kh row
# windows that one block sums overlap, so a block of this width keeps them in
# cache. On the paper decoder's 56-224 px layers (batch 4, one BLAS thread),
# 4096 beat 1024, 2048 and 8192.
_CORR_BLOCK = 4096


def _row_shifts(x: np.ndarray, kw: int, ph: int, pw: int) -> np.ndarray:
    """[N,C,H,W] -> M = [N, C*kw, Hp*Wo], the row-shift lowering of a stride-1 correlation.

    ``M[n, c*kw + j, r*Wo + q] = xp[n, c, r, q + j]``, where ``xp`` is ``x``
    zero-padded by (ph, pw) (a negative amount crops), ``Hp = H + 2*ph`` and
    ``Wo = W + 2*pw - kw + 1``. Kernel row ``i`` of a correlation then reads the
    contiguous window ``M[:, :, i*Wo:(i+Ho)*Wo]``: kw copies of ``x`` instead of
    im2col's kh*kw. An unpadded one-column kernel needs no shifts, so ``M`` is
    then a view of ``x``; that is safe because no op writes its inputs in place.
    """
    n, c, h, w = x.shape
    if kw == 1 and ph == pw == 0:
        return x.reshape(n, c, h * w)
    hp, wo = h + 2 * ph, w + 2 * pw - kw + 1
    m = np.zeros((n, c, kw, hp, wo))
    r0, r1 = max(ph, 0), min(hp, h + ph)
    for j in range(kw):
        q0, q1 = max(pw - j, 0), min(wo, w + pw - j)
        m[:, :, j, r0:r1, q0:q1] = x[:, :, r0 - ph : r1 - ph, q0 + j - pw : q1 + j - pw]
    return m.reshape(n, c * kw, hp * wo)


def _kernel_rows(w: np.ndarray) -> np.ndarray:
    """[Cout,C,kh,kw] -> [kh, Cout, C*kw]: one GEMM operand per kernel row, columns in M's row order."""
    cout, c, kh, kw = w.shape
    return np.ascontiguousarray(w.transpose(2, 0, 1, 3)).reshape(kh, cout, c * kw)


def _corr_rows(m: np.ndarray, wr: np.ndarray, ho: int, wo: int) -> np.ndarray:
    """Stride-1 correlation from row shifts: ``sum_i wr[i] @ M[:, :, i*Wo:(i+Ho)*Wo]`` -> [N, Cout, Ho*Wo].

    Summed one block of ``_CORR_BLOCK`` output columns at a time, kernel rows
    in ascending order.
    """
    kh, cout, _ = wr.shape
    cols = ho * wo
    out = np.empty((m.shape[0], cout, cols))
    for s in range(0, cols, _CORR_BLOCK):
        e = min(s + _CORR_BLOCK, cols)
        blk = out[:, :, s:e]
        np.matmul(wr[0], m[:, :, s:e], out=blk)
        for i in range(1, kh):
            blk += np.matmul(wr[i], m[:, :, i * wo + s : i * wo + e])
    return out


def _corr(x: np.ndarray, w: np.ndarray, padding: int) -> np.ndarray:
    """Stride-1 correlation of [N,C,H,W] with [Cout,C,kh,kw], zero padding ``padding`` -> [N, Cout, Ho, Wo]."""
    n = x.shape[0]
    cout, _, kh, kw = w.shape
    ho, wo = x.shape[2] + 2 * padding - kh + 1, x.shape[3] + 2 * padding - kw + 1
    return _corr_rows(_row_shifts(x, kw, padding, padding), _kernel_rows(w), ho, wo).reshape(n, cout, ho, wo)


def _corr_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray, padding: int, need_x: bool, need_w: bool):
    """Input and weight gradients of :func:`_corr` of ``x`` for output gradient ``g`` (None where not needed).

    Both run on the row shifts ``gm`` of ``g`` padded by (kh-1-p, kw-1-p), so
    the forward's own lowering need not be kept. The input gradient is the
    correlation of that padded ``g``, ``gp``, with the kernel flipped in both
    spatial axes and its channel axes swapped. The weight gradient is

        gw[co, c, a, b] = sum_{n,y,q} x[n, c, y, q] * gp[n, co, y+kh-1-a, q+kw-1-b],

    so ``x_flat @ gm_window_i.T``, with ``gm_window_i = gm[:, :, i*W:(i+H)*W]``,
    is its kernel row ``a = kh-1-i`` with the columns reversed (``b = kw-1-j``),
    summed one block of ``_CORR_BLOCK`` input columns at a time.
    """
    n, cout, ho, wo = g.shape
    _, c, kh, kw = w.shape
    h, wd = ho - 2 * padding + kh - 1, wo - 2 * padding + kw - 1
    gm = _row_shifts(g, kw, kh - 1 - padding, kw - 1 - padding)
    gx = gw = None
    if need_w:
        xf = x.reshape(n, c, h * wd)
        gr = np.zeros((kh, c, cout * kw))
        for s in range(0, h * wd, _CORR_BLOCK):
            e = min(s + _CORR_BLOCK, h * wd)
            for i in range(kh):
                gr[i] += np.matmul(xf[:, :, s:e], gm[:, :, i * wd + s : i * wd + e].transpose(0, 2, 1)).sum(axis=0)
        gw = gr.reshape(kh, c, cout, kw)[::-1, :, :, ::-1].transpose(2, 1, 0, 3)
    if need_x:
        flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        gx = _corr_rows(gm, _kernel_rows(flipped), h, wd).reshape(n, c, h, wd)
    return gx, gw


def _phases(s: int, p: int, size, blocks):
    """Per phase (a, b) of an s x s space-to-depth on a ``blocks`` grid, the blocks inside an
    image of ``size`` and the strided pixel slice they hold: block (u, v) holds pixel
    (u*s + a - p, v*s + b - p)."""

    def axis(a, n, nb):
        u0, u1 = max(0, -((a - p) // s)), min(nb, -((a - p - n) // s))
        return slice(u0, u1), slice(u0 * s + a - p, (u1 - 1) * s + a - p + 1, s)

    for a in range(s):
        for b in range(s):
            (bu, pu), (bv, pv) = axis(a, size[0], blocks[0]), axis(b, size[1], blocks[1])
            if bu.start < bu.stop and bv.start < bv.stop:
                yield a, b, (bu, bv), (pu, pv)


def _s2d(x: np.ndarray, s: int, p: int, hb: int, wb: int) -> np.ndarray:
    """[N,C,H,W] -> [N, C*s*s, hb, wb], the space-to-depth of ``x`` zero-padded by ``p``.

    Channel ``c*s*s + a*s + b`` of block (u, v) is ``x[:, c, u*s + a - p, v*s + b - p]``,
    zero outside ``x``; pixels beyond the grid are dropped.
    """
    n, c, h, w = x.shape
    if p == 0 and (h, w) == (hb * s, wb * s):  # the grid tiles x: one transposed copy, a view at s = 1
        out = np.ascontiguousarray(x.reshape(n, c, hb, s, wb, s).transpose(0, 1, 3, 5, 2, 4))
        return out.reshape(n, c * s * s, hb, wb)
    out = np.zeros((n, c, s, s, hb, wb))
    for a, b, blk, pix in _phases(s, p, (h, w), (hb, wb)):
        out[:, :, a, b, blk[0], blk[1]] = x[:, :, pix[0], pix[1]]
    return out.reshape(n, c * s * s, hb, wb)


def _d2s(y: np.ndarray, s: int, p: int, h: int, w: int) -> np.ndarray:
    """Adjoint of :func:`_s2d`, [N, C*s*s, hb, wb] -> [N, C, h, w]: a gather, since each pixel
    sits in at most one block; pixels beyond the grid get zero."""
    n, cs, hb, wb = y.shape
    c = cs // (s * s)
    y = y.reshape(n, c, s, s, hb, wb)
    if p == 0 and (h, w) == (hb * s, wb * s):
        return np.ascontiguousarray(y.transpose(0, 1, 4, 2, 5, 3)).reshape(n, c, h, w)
    out = np.zeros((n, c, h, w))
    for a, b, blk, pix in _phases(s, p, (h, w), (hb, wb)):
        out[:, :, pix[0], pix[1]] = y[:, :, a, b, blk[0], blk[1]]
    return out


def conv2d(x: DiffTensor, w: DiffTensor, b: DiffTensor | None = None, stride: int = 1, padding: int = 0) -> DiffTensor:
    """Cross-correlation of [N,Cin,H,W] with [Cout,Cin,kh,kw] weights.

    A stride-s convolution is the stride-1 correlation of the padded input's
    space-to-depth [N, Cin*s*s, Ho+kh'-1, Wo+kw'-1] with the weight's
    [Cout, Cin*s*s, kh', kw'], kh' = ceil(kh/s), the weight zero-filled up to
    a multiple of s. At stride 1 both are views and the row shifts pad. The
    correlation and its gradients run on the row-shift kernel; depth-to-space,
    the exact adjoint, maps the gradients back.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d: input must be 4-d [N,C,H,W], got {x.ndim}-d")
    if w.ndim != 4:
        raise ValueError(f"conv2d: weight must be 4-d [Cout,Cin,kh,kw], got {w.ndim}-d")
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ValueError(f"conv2d: input channel dim {cin} != weight in-channel dim {cin_w}")
    if b is not None and b.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {tuple(b.shape)} != out-channel dim ({cout},)")
    if padding < 0:
        raise ValueError("conv2d: padding must be >= 0")
    if stride == 1 and (kh % 2 == 0 or kw % 2 == 0):
        raise ValueError(f"conv2d: even kernel {kh}x{kw} requires stride > 1")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"conv2d: kernel {kh}x{kw} too large for input {h}x{wd} with padding {padding}")

    s, khs, kws = stride, -(-kh // stride), -(-kw // stride)
    pc, ps = (padding, 0) if s == 1 else (0, padding)  # padding of the correlation, of the space-to-depth
    ws = _s2d(w.data, s, 0, khs, kws)
    xs = _s2d(x.data, s, ps, ho + khs - 1 - 2 * pc, wo + kws - 1 - 2 * pc)
    y = _corr(xs, ws, pc)
    if b is not None:
        y += b.data[:, None, None]
    out = DiffTensor(y)

    def backward_fn(g):
        gx, gw = _corr_grads(g, xs, ws, pc, x.requires_grad, w.requires_grad)
        if gw is not None:
            accumulate_grad(w, _d2s(gw, s, 0, kh, kw))
        if gx is not None:
            accumulate_grad(x, _d2s(gx, s, ps, h, wd))
        if b is not None and b.requires_grad:
            accumulate_grad(b, g.sum(axis=(0, 2, 3)))

    return record_op(out, (x, w, b), backward_fn)


def conv_transpose2d(x: DiffTensor, w: DiffTensor, b: DiffTensor | None = None) -> DiffTensor:
    """Transposed convolution; weight layout is [Cin, Cout, kh, kw].

    Only the exact doubling of kernel 4, stride 2, padding 1 is supported. It
    is the input adjoint of the stride-2 :func:`conv2d` from [N,Cout,2H,2W] to
    [N,Cin,H,W] with the same weight array: the forward is that convolution's
    input gradient for ``x``, the backward its forward on ``g`` plus its weight
    gradient. Both run on the private row-shift kernel, not on ``conv2d``.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError("conv_transpose2d: input and weight must be 4-d")
    n, cin, h, wd = x.shape
    cin_w, cout, kh, kw = w.shape
    if cin != cin_w:
        raise ValueError(f"conv_transpose2d: input channel dim {cin} != weight in-channel dim {cin_w}")
    if b is not None and b.shape != (cout,):
        raise ValueError(f"conv_transpose2d: bias shape {tuple(b.shape)} != out-channel dim ({cout},)")
    if (kh, kw) != (4, 4):
        raise ValueError(f"conv_transpose2d: kernel {kh}x{kw}; only kernel 4 (an exact doubling) is supported")

    ws = _s2d(w.data, 2, 0, 2, 2)
    z, _ = _corr_grads(x.data, None, ws, 0, True, False)
    y = _d2s(z, 2, 1, 2 * h, 2 * wd)
    if b is not None:
        y += b.data[:, None, None]
    out = DiffTensor(y)

    def backward_fn(g):
        gs = _s2d(g, 2, 1, h + 1, wd + 1)
        if x.requires_grad:
            accumulate_grad(x, _corr(gs, ws, 0))
        if w.requires_grad:
            _, gws = _corr_grads(x.data, gs, ws, 0, False, True)
            accumulate_grad(w, _d2s(gws, 2, 0, kh, kw))
        if b is not None and b.requires_grad:
            accumulate_grad(b, g.sum(axis=(0, 2, 3)))

    return record_op(out, (x, w, b), backward_fn)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


BN_MOMENTUM = 0.1  # weight of the batch statistics in each running-stat update
BN_EPS = 1e-5  # added to the variance before its root


class BatchNormState:
    """Running statistics for one batch-norm layer (per-channel, float64)."""

    __slots__ = ("running_mean", "running_var")

    def __init__(self, channels: int):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)


def _batchnorm(x, gamma, beta, state, mode, clamp):
    """Per-channel batch norm of ``x`` (channels on axis 1), clipped to [0, clamp]
    unless ``clamp`` is None; one tape node.

    The clamp is folded in as in In-Place Activated BatchNorm (Rota Bulo et al.,
    arXiv:1712.02616): the output is clipped in place and the subgradient mask
    ``0 < y < clamp`` read back from it (zero at a kink). With ``g`` so masked,
    the train-mode backward is the closed form (Ioffe & Szegedy,
    arXiv:1502.03167) ``gx = gamma * inv * (g - (sum(g) + xhat * sum(g * xhat)) / m)``.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm: unknown mode {mode!r}")
    if clamp is not None and not clamp > 0:
        raise ValueError(f"batchnorm: clamp must be None or positive, got {clamp!r}")
    c = gamma.data.size
    idx = "nchw" if x.ndim == 4 else "nc"
    csum, cdot = f"{idx}->c", f"{idx},{idx}->c"  # per-channel sums, by einsum: faster than ndarray.sum here
    bshape = (1, c) + (1,) * (x.ndim - 2)
    gb = gamma.data.reshape(bshape)
    bb = beta.data.reshape(bshape)

    m = x.data.size // c
    if mode == "train":
        mu = np.einsum(csum, x.data) / m
        xhat = x.data - mu.reshape(bshape)
        var = np.einsum(cdot, xhat, xhat) / m
        unbiased = var * (m / (m - 1)) if m > 1 else var
        state.running_mean = (1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mu
        state.running_var = (1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * unbiased
        inv = (1.0 / np.sqrt(var + BN_EPS)).reshape(bshape)
        xhat *= inv
        y = xhat * gb
        y += bb
    else:
        inv = 1.0 / np.sqrt(state.running_var.reshape(bshape) + BN_EPS)
        xhat = (x.data - state.running_mean.reshape(bshape)) * inv
        y = gb * xhat + bb
    if clamp == np.inf:
        np.maximum(y, 0.0, out=y)
    elif clamp is not None:
        np.clip(y, 0.0, clamp, out=y)
    out = DiffTensor(y)

    def backward_fn(g):
        if clamp is not None:
            mask = y > 0.0
            if clamp < np.inf:
                mask &= y < clamp
            g = g * mask
        gbeta = np.einsum(csum, g)
        ggamma = np.einsum(cdot, g, xhat)
        if x.requires_grad:
            if mode == "train":
                gx = xhat * (ggamma / m).reshape(bshape)
                gx += (gbeta / m).reshape(bshape)
                np.subtract(g, gx, out=gx)
                gx *= gb * inv
            else:
                gx = g * (gb * inv)
            accumulate_grad(x, gx)
        accumulate_grad(gamma, ggamma)
        accumulate_grad(beta, gbeta)

    return record_op(out, (x, gamma, beta), backward_fn)


def batchnorm2d(
    x: DiffTensor,
    gamma: DiffTensor,
    beta: DiffTensor,
    state: BatchNormState,
    mode: str = "train",
    clamp: float | None = None,
) -> DiffTensor:
    """Per-channel batch norm over (N, H, W) of a [N,C,H,W] tensor, clipped to
    [0, clamp] unless ``clamp`` is None (``np.inf``: ReLU, ``6.0``: ReLU6)."""
    if x.ndim != 4:
        raise ValueError(f"batchnorm2d: input must be 4-d, got {x.ndim}-d")
    if gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ValueError(
            f"batchnorm2d: gamma/beta must have shape ({x.shape[1]},), "
            f"got {tuple(gamma.shape)} and {tuple(beta.shape)}"
        )
    return _batchnorm(x, gamma, beta, state, mode, clamp)


def batchnorm_rows(
    x: DiffTensor,
    gamma: DiffTensor,
    beta: DiffTensor,
    state: BatchNormState,
    mode: str = "train",
    clamp: float | None = None,
) -> DiffTensor:
    """Column-wise batch norm of a [rows, C] matrix (used by sparse layers),
    clipped to [0, clamp] unless ``clamp`` is None."""
    if x.ndim != 2:
        raise ValueError(f"batchnorm_rows: input must be 2-d, got {x.ndim}-d")
    if x.shape[0] == 0:
        raise ValueError("batchnorm_rows: no rows to normalize")
    if gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ValueError(f"batchnorm_rows: gamma/beta must have shape ({x.shape[1]},)")
    return _batchnorm(x, gamma, beta, state, mode, clamp)


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------


def backward(loss: DiffTensor):
    """Populate gradients of everything the scalar ``loss`` depends on.

    Walks the ambient tape once in reverse creation order and then clears
    it; each recorded node is visited exactly once, and its output, output
    gradient and closure are taken off it as it runs, so only leaves keep
    ``.grad``. A node that has run keeps no output, so a second ``backward``
    of the same loss finds nothing to do.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {tuple(loss.shape)}")
    node = loss.tape_node
    if node is None or node.out is None:
        _TAPE.clear()
        return
    loss.grad = np.ones_like(loss.data)
    for n in reversed(_TAPE.nodes[: node.index + 1]):
        # the tape no longer holds the output, so its array is freed once no
        # closure reads it: its consumers' have run, and this node's goes next
        out, fn = n.out, n.backward_fn
        n.out = n.backward_fn = None
        g, out.grad = out.grad, None
        del out
        if g is not None:
            fn(g)
    _TAPE.clear()


def grad_check(f, inputs, eps: float = 1e-5, max_entries_per_input: int | None = None, rng=None) -> float:
    """Max relative error between analytic grads of ``f(inputs)`` and central differences.

    ``f`` maps the list of tensors to a scalar DiffTensor. Errors are scaled
    by max(1, |analytic|, |numeric|) per entry, so near-zero gradients are
    compared absolutely. With ``max_entries_per_input`` only a random subset
    of coordinates per input is probed (for large parameter sets).
    """
    for t in inputs:
        t.zero_grad()
    out = f(inputs)
    backward(out)
    analytic = {}
    for i, t in enumerate(inputs):
        if t.requires_grad:
            analytic[i] = t.grad.copy() if t.grad is not None else np.zeros_like(t.data)

    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for i, t in enumerate(inputs):
        if i not in analytic:
            continue
        flat = t.data.reshape(-1)
        idxs = np.arange(flat.size)
        if max_entries_per_input is not None and flat.size > max_entries_per_input:
            idxs = np.sort(rng.choice(flat.size, size=max_entries_per_input, replace=False))
        a_flat = analytic[i].reshape(-1)
        for j in idxs:
            orig = flat[j]
            with no_grad():
                flat[j] = orig + eps
                fp = f(inputs).item()
                flat[j] = orig - eps
                fm = f(inputs).item()
            flat[j] = orig
            num = (fp - fm) / (2.0 * eps)
            err = abs(a_flat[j] - num) / max(1.0, abs(a_flat[j]), abs(num))
            if err > worst:
                worst = err
    for t in inputs:
        t.zero_grad()
    return worst
