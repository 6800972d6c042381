"""Patch masks, per-scale active sets, target normalization, and the zero-out baseline."""

from __future__ import annotations

import numpy as np

__all__ = [
    "PatchMask",
    "masked_patch_count",
    "generate_mask",
    "active_set_at_scale",
    "masked_pixel_map",
    "per_patch_normalize",
    "patch_stats",
    "denormalize_patches",
    "zero_out_image",
    "erosion_profile",
]


class PatchMask:
    """Boolean patch grid (True = visible) plus its pixel geometry."""

    __slots__ = ("grid_h", "grid_w", "patch_size", "visible")

    def __init__(self, grid_h: int, grid_w: int, patch_size: int, visible: np.ndarray):
        visible = np.asarray(visible, dtype=bool)
        if visible.shape != (grid_h, grid_w):
            raise ValueError(f"PatchMask: visible grid shape {visible.shape} != ({grid_h}, {grid_w})")
        self.grid_h = grid_h
        self.grid_w = grid_w
        self.patch_size = patch_size
        self.visible = visible

    @property
    def num_patches(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def visible_count(self) -> int:
        return int(self.visible.sum())

    @property
    def masked_count(self) -> int:
        return self.num_patches - self.visible_count

    @property
    def image_hw(self) -> tuple[int, int]:
        return self.grid_h * self.patch_size, self.grid_w * self.patch_size

    def __repr__(self):
        return (
            f"PatchMask(grid={self.grid_h}x{self.grid_w}, patch={self.patch_size}, "
            f"masked={self.masked_count}/{self.num_patches})"
        )


def masked_patch_count(grid_h: int, grid_w: int, ratio: float) -> int:
    """round(ratio*N), the number of patches a mask of this ratio hides on the grid.

    Rejects ratios outside [0, 1) and ratios that would leave no visible (or,
    for 0 < ratio, no masked) patch, since a fully hidden image cannot be
    encoded and a fully visible one is not a masking draw.
    """
    if not (0.0 <= ratio < 1.0):
        raise ValueError(f"mask ratio must be in [0, 1), got {ratio}")
    n = grid_h * grid_w
    if n < 1:
        raise ValueError("mask on an empty patch grid")
    k = int(round(ratio * n))
    if ratio > 0.0 and (k == 0 or k == n):
        raise ValueError(
            f"mask ratio {ratio} on a {grid_h}x{grid_w} patch grid rounds to {k} masked "
            f"patches; need at least one visible and one masked"
        )
    return k


def generate_mask(grid_h: int, grid_w: int, ratio: float, rng, patch_size: int = 32) -> PatchMask:
    """Sample a patch mask with exactly round(ratio*N) patches masked; the ratio
    is checked by :func:`masked_patch_count`."""
    k = masked_patch_count(grid_h, grid_w, ratio)
    visible = np.ones((grid_h, grid_w), dtype=bool)
    visible.reshape(-1)[rng.choice(grid_h * grid_w, size=k, replace=False)] = False
    return PatchMask(grid_h, grid_w, patch_size, visible)


def active_set_at_scale(mask: PatchMask, stride: int) -> np.ndarray:
    """Active cell coordinates at the scale whose cells cover stride x stride pixels.

    A cell is active iff the patch covering it is visible, so the active
    fraction equals the visible patch fraction exactly at every legal stride.
    """
    if stride < 1 or mask.patch_size % stride != 0:
        raise ValueError(
            f"active_set_at_scale: stride {stride} does not divide patch size {mask.patch_size}"
        )
    cpp = mask.patch_size // stride  # cells per patch edge
    cell_visible = np.repeat(np.repeat(mask.visible, cpp, axis=0), cpp, axis=1)
    rows, cols = np.nonzero(cell_visible)
    return np.stack([rows, cols], axis=1).astype(np.int64)


def masked_pixel_map(mask: PatchMask) -> np.ndarray:
    """Full-resolution boolean map, True at masked pixels."""
    p = mask.patch_size
    return np.repeat(np.repeat(~mask.visible, p, axis=0), p, axis=1)


# std floor: a patch is divided by sqrt(var + EPS_STD^2), so near-constant
# patches map to ~0 while ordinary patches keep |std - 1| well under 1e-5
EPS_STD = 1e-6


def patch_stats(img: np.ndarray, patch_size: int):
    """Per-patch mean and std-denominator of a [N,3,H,W] array, pooled over
    channels, in float64.

    Both come from one patch-major float64 copy, [N*gh*gw, 3*p*p], reduced
    along its last axis as ``np.var`` does it (the mean, then the mean of the
    squared deviations, squared in place), so each reduction runs over one
    contiguous row."""
    n, c, h, w = img.shape
    if h % patch_size or w % patch_size:
        raise ValueError(f"patch_stats: image {h}x{w} not divisible by patch size {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    tiles = img.reshape(n, c, gh, patch_size, gw, patch_size).transpose(0, 2, 4, 1, 3, 5)
    rows = tiles.astype(np.float64, order="C").reshape(n * gh * gw, -1)
    count = rows.shape[1]
    mean = rows.sum(axis=1) / count
    rows -= mean[:, None]
    rows *= rows
    denom = np.sqrt(rows.sum(axis=1) / count + EPS_STD * EPS_STD)
    return mean.reshape(n, gh, gw), denom.reshape(n, gh, gw)


def per_patch_normalize(img: np.ndarray, patch_size: int) -> np.ndarray:
    """Standardize each patch of a [N,3,H,W] image to mean 0, std 1, in float64:
    the reconstruction targets that ``model.spark_loss`` builds.

    All 3*p*p values of a patch are pooled.
    """
    data = np.asarray(img, dtype=np.float64)
    mean, denom = patch_stats(data, patch_size)
    tiles = data.reshape(data.shape[0], data.shape[1], mean.shape[1], patch_size, mean.shape[2], patch_size)
    out = tiles - mean[:, None, :, None, :, None]
    out /= denom[:, None, :, None, :, None]
    # exactly constant patches map to exactly zero (mean rounding would
    # otherwise leave an eps-amplified residual)
    const = tiles.max(axis=(1, 3, 5)) == tiles.min(axis=(1, 3, 5))
    if const.any():
        np.copyto(out, 0.0, where=const[:, None, :, None, :, None])
    return out.reshape(data.shape)


def denormalize_patches(pred: np.ndarray, mean: np.ndarray, denom: np.ndarray, patch_size: int) -> np.ndarray:
    """Invert per-patch normalization using stored (mean, denom) statistics, in float64."""
    n, c, h, w = pred.shape
    gh, gw = mean.shape[1], mean.shape[2]

    def per_pixel(stats):  # [N, gh, gw] -> [N, 1, gh, p, gw, p]: contiguous, so the update runs in long rows
        return np.repeat(np.repeat(stats[:, None, :, None, :, None], patch_size, axis=3), patch_size, axis=5)

    out = pred.astype(np.float64)
    tiles = out.reshape(n, c, gh, patch_size, gw, patch_size)
    tiles *= per_pixel(denom)
    tiles += per_pixel(mean)
    return out


def zero_out_image(img: np.ndarray, masks) -> np.ndarray:
    """Set all masked pixels to zero (the dense baseline's input), in float32
    for a float32 image and in float64 otherwise.

    ``masks`` is one PatchMask for every sample, or a sequence holding one
    PatchMask per sample of an [N,C,H,W] image batch.
    """
    data = np.asarray(img)
    single = isinstance(masks, PatchMask)
    masks = [masks] if single else list(masks)
    if not single and (data.ndim != 4 or len(masks) != data.shape[0]):
        raise ValueError(f"zero_out_image: {len(masks)} masks for an image batch of shape {data.shape}")
    for m in masks:
        if data.shape[-2:] != m.image_hw:
            raise ValueError(f"zero_out_image: image {data.shape[-2:]} != mask geometry {m.image_hw}")
    keep = np.stack([~masked_pixel_map(m) for m in masks])
    keep = keep.astype(np.float32 if data.dtype == np.float32 else np.float64)
    return data * np.broadcast_to(keep[0] if single else keep[:, None], data.shape)


def _dilate3x3(support: np.ndarray) -> np.ndarray:
    """One step of nonzero-support growth under a dense 3x3 all-ones conv."""
    h, w = support.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = support
    out = np.zeros_like(support)
    for di in range(3):
        for dj in range(3):
            out |= padded[di : di + h, dj : dj + w]
    return out


def erosion_profile(mask: PatchMask, n_convs: int) -> list[int]:
    """Zero-region cell counts of the zero-out image under stacked dense 3x3 convs.

    Entry 0 is the initial masked-cell count; entry k the count after k
    convolutions. Each all-ones convolution dilates the visible support by
    one cell per side, eroding the masked region until the pattern vanishes.
    Submanifold convolution leaves the count at entry 0 forever.
    """
    support = ~masked_pixel_map(mask)
    total = support.size
    profile = [total - int(support.sum())]
    for _ in range(n_convs):
        support = _dilate3x3(support)
        profile.append(total - int(support.sum()))
    return profile
