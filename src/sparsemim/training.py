"""Optimizers, learning-rate schedule, the training loop, and checkpoints."""

from __future__ import annotations

import json
import math
import os
import struct
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .masking import generate_mask
from .model import (
    DenseEncoder,
    EncoderConfig,
    SparkConfig,
    SparkModel,
    spark_forward,
    spark_loss,
)

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "cosine_lr",
    "OptimizerState",
    "adam_step",
    "lamb_step",
    "count_steps",
    "train",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "model_checkpoint_arrays",
    "model_from_checkpoint",
    "dense_encoder_from_checkpoint",
]


class TrainingDiverged(RuntimeError):
    pass


BETAS = (0.9, 0.999)  # Adam/LAMB moment decay rates
EPS = 1e-8  # added to the root of the second moment
TRUST_CLIP = (0.0, 10.0)  # LAMB trust-ratio bounds


@dataclass
class TrainConfig:
    epochs: int = 1
    batch_size: int = 8
    lr_peak: float | None = None  # None: peak = 0.0002 * batch_size / 256
    weight_decay: float = 0.04
    optimizer: str = "lamb"  # "lamb" | "adam"
    seed: int = 0
    max_steps: int | None = None  # cap on total optimizer steps
    mask_ratio: float = 0.60

    def peak_lr(self) -> float:
        if self.lr_peak is not None:
            return float(self.lr_peak)
        return 0.0002 * self.batch_size / 256.0

    def to_dict(self) -> dict:
        return asdict(self)


def cosine_lr(step: int, total_steps: int, peak: float, warmup_steps: int = 0) -> float:
    """Linear warmup to the peak, then half-cosine decay to zero.

    The warmup value at its last step equals the peak, so the schedule is
    continuous at the boundary and non-increasing afterwards.
    """
    if total_steps < 1:
        raise ValueError("cosine_lr: total_steps must be >= 1")
    if warmup_steps > 0 and step < warmup_steps:
        return peak * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    t = min(step - warmup_steps, span)
    return max(0.0, 0.5 * peak * (1.0 + math.cos(math.pi * t / span)))


class OptimizerState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, shapes):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0


def _updates(params, grads, state: OptimizerState, weight_decay, decay_mask):
    """Advance the moments one step, in place; yield each parameter with its Adam
    update (bias-corrected, with decoupled weight decay where ``decay_mask``
    allows) in a fresh array the caller may scale in place.

    Every element goes through the same operations in the same order as the
    out-of-place ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)``,
    ``(m/c1) / (sqrt(v/c2) + eps) + wd*p``. The update's two arrays take the
    moments' layout, not the gradient's, so the trust ratio's norm sums in the
    same order whatever layout a gradient comes in.
    """
    b1, b2 = BETAS
    state.t += 1
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        m, v = state.m[i], state.v[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update, denom = m / c1, v / c2
        np.sqrt(denom, out=denom)
        denom += EPS
        update /= denom
        if weight_decay and (decay_mask is None or decay_mask[i]):
            np.multiply(weight_decay, p, out=denom)
            update += denom
        yield p, update


def adam_step(params, grads, state: OptimizerState, lr, weight_decay=0.0, decay_mask=None):
    """Adam with decoupled weight decay; mutates the parameter arrays in place."""
    for p, update in _updates(params, grads, state, weight_decay, decay_mask):
        update *= lr
        p -= update


def lamb_step(params, grads, state: OptimizerState, lr, weight_decay=0.0, decay_mask=None):
    """Layer-wise adaptive Adam: each tensor's update is rescaled by the trust
    ratio ||w|| / ||update||, clamped to TRUST_CLIP; decoupled weight decay
    enters the update before the ratio is taken. An update whose norm
    overflows float64 only in its sum of squares keeps its true norm."""
    lo, hi = TRUST_CLIP
    for p, update in _updates(params, grads, state, weight_decay, decay_mask):
        wn = float(np.linalg.norm(p))
        with np.errstate(over="ignore"):
            un = float(np.linalg.norm(update))
        if not math.isfinite(un):  # the sum of squares may have overflowed: scale the update to max 1 first
            s = float(np.abs(update).max())
            if math.isfinite(s):
                un = s * float(np.linalg.norm(update / s))
        trust = wn / un if (wn > 0.0 and un > 0.0) else 1.0
        trust = min(max(trust, lo), hi)
        update *= lr * trust
        p -= update


def count_steps(cfg: TrainConfig, n_data: int) -> int:
    """The number of optimizer steps ``train`` takes on ``n_data`` images;
    a ValueError if the sizes give none."""
    if cfg.batch_size < 1:
        raise ValueError(f"train: batch size {cfg.batch_size} must be positive")
    if n_data < cfg.batch_size:
        raise ValueError(f"train: dataset of {n_data} images smaller than batch size {cfg.batch_size}")
    total_steps = cfg.epochs * (n_data // cfg.batch_size)
    if cfg.max_steps is not None:
        total_steps = min(total_steps, cfg.max_steps)
    if total_steps < 1:
        raise ValueError(f"train: {total_steps} training steps (epochs {cfg.epochs}, max steps {cfg.max_steps}); "
                         f"need at least one")
    return total_steps


def train(model: SparkModel, dataset, cfg: TrainConfig, log=None):
    """Pre-train ``model`` on ``dataset`` (anything with __len__ and pixels(i)).

    Step s takes batch s mod steps-per-epoch of epoch s // steps-per-epoch's
    shuffled order, augments each image and samples its mask from
    (seed, epoch, index) alone, runs the masked forward/backward, and takes
    one optimizer step under the cosine schedule. Returns the list
    of {step, lr, loss} rows, each passed to ``log`` as it is made; an
    exception from ``log`` ends the run at that step. A non-finite loss
    aborts with a diagnostic.
    """
    from .data import augment  # local import to keep module load cheap

    n_data = len(dataset)
    total_steps = count_steps(cfg, n_data)
    steps_per_epoch = n_data // cfg.batch_size
    warmup = min(max(total_steps // 100, 10), total_steps)
    peak = cfg.peak_lr()

    names = [n for n, _ in model.named_parameters()]
    tensors = [model.params[n] for n in names]
    params = [p.data for p in tensors]
    decay_mask = [n in model.decay for n in names]
    opt = OptimizerState([p.shape for p in params])
    step_fn = {"adam": adam_step, "lamb": lamb_step}.get(cfg.optimizer)
    if step_fn is None:
        raise ValueError(f"train: unknown optimizer {cfg.optimizer!r}")

    size = model.cfg.image_size
    grid = size // model.cfg.patch_size
    rows = []
    model.zero_grad()  # a gradient the model brings in is not summed into step 0
    for step in range(total_steps):
        epoch, b = divmod(step, steps_per_epoch)
        if b == 0:
            order = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7, epoch])).permutation(n_data)
        lr = cosine_lr(step, total_steps, peak, warmup)
        idxs = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
        batch = np.empty((cfg.batch_size, 3, size, size))
        masks = []
        for slot, di in enumerate(idxs):
            srng = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch, int(di)]))
            batch[slot] = augment(dataset.pixels(int(di)), size, srng)
            masks.append(generate_mask(grid, grid, cfg.mask_ratio, srng, patch_size=model.cfg.patch_size))
        # recon stays bound until the next step; freed in backward, the heap is trimmed and refaulted each step
        recon = spark_forward(model, batch, masks, mode="train")
        loss = spark_loss(model, recon, batch, masks)
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            ag.active_tape().clear()  # no backward will run: drop the step's graph
            raise TrainingDiverged(f"non-finite loss {loss_val} at step {step} (epoch {epoch}); lr={lr:.3e}")
        ag.backward(loss)
        step_fn(params, [p.grad if p.grad is not None else np.zeros_like(p.data) for p in tensors],
                opt, lr, weight_decay=cfg.weight_decay, decay_mask=decay_mask)
        model.zero_grad()  # the step's gradients are dead once the update is taken
        row = {"step": step, "lr": lr, "loss": loss_val}
        rows.append(row)
        if log:
            log(row)
    return rows, opt


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

MAGIC = b"SPRK"
VERSION = 1


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    config: dict
    arrays: "OrderedDict[str, np.ndarray]" = field(default_factory=OrderedDict)
    shapes: dict = field(default_factory=dict)  # name -> shape of every array the file holds, decoded or not


def save_checkpoint(path, arrays: "OrderedDict[str, np.ndarray]", config: dict):
    """Write magic, u32 version, u64 header length, JSON header, then the
    arrays as little-endian f32 in manifest order, each converted as it is written.

    Raise CheckpointError, before the file is opened, if any array holds a value
    that is not finite once cast to float32 (such as a float64 value beyond the
    float32 range). Each array is cast once for that check and again as it is
    written, so no float32 copy of the whole file is held."""
    manifest = []
    offset = 0
    for name, arr in arrays.items():
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported by name, not warned
            if not np.isfinite(np.asarray(arr, dtype="<f4")).all():
                raise CheckpointError(f"array {name!r} is not finite in float32; nothing written to {path}")
        shape = np.shape(arr)
        manifest.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 4 * math.prod(shape)
    header = json.dumps({"config": config, "manifest": manifest},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr, dtype="<f4"))


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _check_header(header):
    """Raise CheckpointError unless the header has the layout save_checkpoint writes."""
    if not isinstance(header, dict):
        raise CheckpointError(f"corrupt checkpoint header: expected a JSON object, got {type(header).__name__}")
    for key in ("config", "manifest"):
        if key not in header:
            raise CheckpointError(f"corrupt checkpoint header: no {key!r}")
    if not isinstance(header["config"], dict) or not isinstance(header["manifest"], list):
        raise CheckpointError("corrupt checkpoint header: 'config' must be an object and 'manifest' a list")
    for entry in header["manifest"]:
        if not isinstance(entry, dict) or not all(k in entry for k in ("name", "shape", "offset")):
            raise CheckpointError(f"corrupt checkpoint manifest entry {entry!r}: needs name, shape and offset")
        if not isinstance(entry["name"], str):
            raise CheckpointError(f"corrupt checkpoint manifest entry {entry!r}: name must be a string")
        shape, offset = entry["shape"], entry["offset"]
        if not isinstance(shape, list) or not all(_is_count(d) for d in shape) or not _is_count(offset):
            raise CheckpointError(
                f"corrupt checkpoint manifest entry {entry['name']!r}: shape {shape!r} and offset "
                f"{offset!r} must be non-negative integers"
            )


OPT_PREFIXES = ("opt.m.", "opt.v.")  # the optimizer moments' names, as model_checkpoint_arrays writes them


def _runs(entries):
    """Split (offset, count, ...) entries into runs that lie back to back in the
    file: lists in byte order, each entry starting where the one before it ends."""
    runs = []
    for e in sorted(entries, key=lambda e: e[0]):
        if runs and e[0] == runs[-1][-1][0] + 4 * runs[-1][-1][1]:
            runs[-1].append(e)
        else:
            runs.append([e])
    return runs


def load_checkpoint(path, model_only: bool = False, dtype=np.float64) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint; raise CheckpointError if it is malformed.

    Every entry is checked against the file before any array is read. The
    wanted arrays are then grouped into runs that lie back to back in the file,
    and each run is read with one ``readinto`` into one float32 buffer. With
    ``dtype`` float64 the buffer is converted with one ``astype``; with float32
    it is used as it is. Each decoded array is a view of its run's buffer in
    ``dtype``, so loading never holds a copy of the whole file. With
    ``model_only`` the optimizer moments are neither read nor converted; only
    their shapes are kept. ``shapes`` holds every entry's shape, in manifest
    order. Every entry is checked either way, so a file loads with
    ``model_only`` exactly when it loads without.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < 16:
            raise CheckpointError(f"checkpoint too short ({size} bytes)")
        head = f.read(16)
        if head[:4] != MAGIC:
            raise CheckpointError(f"bad magic {head[:4]!r}, expected {MAGIC!r}")
        version = struct.unpack("<I", head[4:8])[0]
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} (expected {VERSION})")
        hlen = struct.unpack("<Q", head[8:16])[0]
        if size < 16 + hlen:
            raise CheckpointError("truncated checkpoint: header ends past end of file")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, an over-long number, deep nesting
            raise CheckpointError(f"corrupt checkpoint header: {e}") from e
        _check_header(header)
        base = 16 + hlen
        ckpt = Checkpoint(config=header["config"])
        wanted = []  # (file offset, count, manifest index, name, shape)
        representable = set()
        for i, entry in enumerate(header["manifest"]):
            name, shape = entry["name"], tuple(entry["shape"])
            if name in ckpt.shapes:
                raise CheckpointError(f"corrupt checkpoint manifest: array {name!r} is listed twice")
            ckpt.shapes[name] = shape
            count = math.prod(shape)  # exact: a huge shape cannot wrap around
            start = base + entry["offset"]
            if start + 4 * count > size:
                raise CheckpointError(f"truncated checkpoint: array {name!r} ends past end of file")
            if shape not in representable:
                try:
                    np.broadcast_to(np.float32(0), shape)  # a view: checks the shape, allocates nothing
                except ValueError as e:  # an empty array with a dimension numpy cannot represent
                    raise CheckpointError(f"corrupt checkpoint manifest entry {name!r}: {e}") from e
                representable.add(shape)
            if not (model_only and name.startswith(OPT_PREFIXES)):
                wanted.append((start, count, i, name, shape))
        decoded = {}
        for run in _runs(wanted):
            start, total = run[0][0], sum(e[1] for e in run)
            buf = np.empty(total, dtype="<f4")
            f.seek(start)
            got = f.readinto(buf)
            if got != buf.nbytes:  # the file shrank after it was opened
                end = start + got
                name = next(e[3] for e in wanted if e[1] and e[0] + 4 * e[1] > end)
                raise CheckpointError(f"truncated checkpoint: array {name!r} ends past end of file")
            values = buf.astype(dtype, copy=False)
            del buf
            at = 0
            for _, count, i, _, shape in run:
                decoded[i] = values[at : at + count].reshape(shape)
                at += count
        for _, _, i, name, _ in wanted:  # manifest order
            ckpt.arrays[name] = decoded[i]
    return ckpt


def model_checkpoint_arrays(model: SparkModel, opt: OptimizerState | None = None) -> "OrderedDict[str, np.ndarray]":
    arrays = model.state_arrays()
    if opt is not None:
        for name, m, v in zip(list(model.params.keys()), opt.m, opt.v):
            arrays[f"opt.m.{name}"] = m
            arrays[f"opt.v.{name}"] = v
    return arrays


def _check_arrays(ckpt: Checkpoint, shapes: dict):
    """Raise CheckpointError unless ``ckpt`` holds every named array at its shape,
    decoded or not, and no other array, and every decoded array is finite."""
    held = ckpt.shapes
    for name, shape in shapes.items():
        if name not in held:
            raise CheckpointError(f"checkpoint has no array {name!r}")
        if held[name] != tuple(shape):
            raise CheckpointError(f"checkpoint array {name!r} has shape {list(held[name])}, "
                                  f"expected {list(shape)}")
    if len(held) != len(shapes):
        raise CheckpointError(f"checkpoint has unexpected arrays {sorted(set(held) - set(shapes))}")
    # a finite sum proves every element finite; only a non-finite one, which finite
    # values can also give by overflow, needs the exact check
    with np.errstate(over="ignore", invalid="ignore"):
        for name, arr in ckpt.arrays.items():
            if not (math.isfinite(arr.sum()) or np.isfinite(arr).all()):
                raise CheckpointError(f"checkpoint array {name!r} holds a non-finite value")


def _decode_config(decode, d, what: str):
    try:
        return decode(d)
    # a missing, unknown or ill-typed key, a store array that the file lacks or holds
    # at another shape, or no room for the store
    except (ValueError, TypeError, MemoryError) as e:
        raise CheckpointError(f"bad {what} config in checkpoint: {e}") from e


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild a SparkModel from a checkpoint, and its optimizer state if the
    file stores one and it was decoded (not ``load_checkpoint(model_only=True)``).
    Stored optimizer moments are checked for presence and shape either way."""
    if ckpt.config.get("kind") != "spark":
        raise CheckpointError(f"not a model checkpoint (kind={ckpt.config.get('kind')!r})")
    # the store takes each array as decoded, checking its name and shape; nothing is drawn or zero-filled
    model = _decode_config(lambda d: SparkModel(SparkConfig.from_dict(d), ckpt.arrays),
                           ckpt.config.get("model"), "model")
    names = list(model.params.keys())
    shapes = {name: arr.shape for name, arr in model.state_arrays().items()}
    if f"opt.m.{names[0]}" in ckpt.shapes:
        shapes.update({f"opt.{k}.{n}": model.params[n].shape for k in "mv" for n in names})
    _check_arrays(ckpt, shapes)
    opt = None
    if f"opt.m.{names[0]}" in ckpt.arrays:  # stored and decoded
        opt = OptimizerState([model.params[n].shape for n in names])
        opt.m = [np.ascontiguousarray(ckpt.arrays[f"opt.m.{n}"]) for n in names]
        opt.v = [np.ascontiguousarray(ckpt.arrays[f"opt.v.{n}"]) for n in names]
        opt.t = ckpt.config.get("opt_t", 0)
    return model, opt


def dense_encoder_from_checkpoint(ckpt: Checkpoint) -> DenseEncoder:
    """Rebuild the DenseEncoder that ``sparsemim convert`` wrote. The file must
    hold exactly that encoder's arrays, each at its shape."""
    if ckpt.config.get("kind") != "dense_encoder":
        raise CheckpointError(f"not a dense-encoder checkpoint (kind={ckpt.config.get('kind')!r})")
    size = None
    if ckpt.config.get("ape"):
        size = ckpt.config.get("image_size")
        if not _is_count(size):
            raise CheckpointError(f"dense-encoder checkpoint with ape has no non-negative integer image_size "
                                  f"({size!r})")
    dense = _decode_config(lambda d: DenseEncoder(EncoderConfig.from_dict(d), size, ckpt.arrays),
                           ckpt.config.get("encoder"), "encoder")
    _check_arrays(ckpt, {name: arr.shape for name, arr in dense.state_arrays().items()})
    return dense
