"""Image I/O (binary PPM), synthetic datasets, and minimal augmentation."""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "PpmError",
    "load_ppm",
    "ppm_size",
    "save_ppm",
    "SynthDataset",
    "DirectoryDataset",
    "synth_dataset",
    "augment",
]


class PpmError(ValueError):
    pass


def _read_token(buf: bytes, pos: int):
    """Next whitespace-delimited PPM header token, skipping # comments."""
    n = len(buf)
    while pos < n:
        ch = buf[pos : pos + 1]
        if ch == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PpmError("unexpected end of PPM header")
    return buf[start:pos], pos


def _read_header(buf: bytes, path):
    """(width, height, payload offset) of the P6 header that starts ``buf``."""
    if buf[:2] != b"P6":
        raise PpmError(f"{path}: bad magic {buf[:2]!r}, expected b'P6'")
    pos = 2
    fields = []
    for what in ("width", "height", "maxval"):
        tok, pos = _read_token(buf, pos)
        # bytes.isdigit accepts ASCII digits only (no sign, no '_'); the length cap keeps int() in range
        if not tok.isdigit() or len(tok) > 18 or int(tok) == 0:
            raise PpmError(f"{path}: {what} {tok[:32]!r} is not a positive decimal integer")
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise PpmError(f"{path}: maxval {maxval} unsupported, expected 255")
    return width, height, pos + 1  # single whitespace byte after maxval


def _check_payload(path, got: int, width: int, height: int):
    if got < width * height * 3:
        raise PpmError(f"{path}: truncated payload, {got} of {width * height * 3} bytes")


_HEADER_PEEK = 4096  # bytes read for a header; one longer than that (long comments) is read whole


def ppm_size(path) -> tuple[int, int]:
    """(height, width) of a P6 PPM that :func:`load_ppm` would decode, checked
    from its header and file size without reading the pixels."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        buf = f.read(_HEADER_PEEK)
        try:
            width, height, pos = _read_header(buf, path)
            complete = pos <= len(buf)  # a token cut at the end of buf would read short
        except PpmError:
            complete = len(buf) == size
            if complete:
                raise
        if not complete:
            buf += f.read()
            width, height, pos = _read_header(buf, path)
    _check_payload(path, max(size - pos, 0), width, height)
    return height, width


def load_ppm(path) -> np.ndarray:
    """Decode a binary P6 PPM with maxval 255 to a [3,H,W] float array in [0,1]."""
    with open(path, "rb") as f:
        buf = f.read()
    width, height, pos = _read_header(buf, path)
    body = buf[pos : pos + width * height * 3]
    _check_payload(path, len(body), width, height)
    arr = np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3)
    return np.ascontiguousarray(arr.transpose(2, 0, 1).astype(np.float64) / 255.0)


def save_ppm(path, img: np.ndarray):
    """Encode a [3,H,W] float array to binary P6; rounds half away from zero."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise PpmError(f"save_ppm: expected [3,H,W] array, got {img.shape}")
    h, w = img.shape[1], img.shape[2]
    buf = np.multiply(img.transpose(1, 2, 0), 255.0, out=np.empty((h, w, 3)))  # quantized in place, HWC
    buf += 0.5
    np.floor(buf, out=buf)
    np.clip(buf, 0, 255, out=buf)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii") + buf.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------


def _synth_image(size: int, seed: int, index: int) -> np.ndarray:
    """One deterministic synthetic image: a strong color ramp plus a few
    translucent rectangles and soft-edged circles. Guaranteed non-degenerate
    (per-image pixel std stays above 0.05)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    ys, xs = np.mgrid[0:size, 0:size] / max(size - 1, 1)

    theta = rng.uniform(0.0, 2.0 * np.pi)
    ramp = xs * np.cos(theta) + ys * np.sin(theta)
    ramp = (ramp - ramp.min()) / max(ramp.max() - ramp.min(), 1e-9)
    c0 = rng.uniform(0.0, 0.30, 3)
    c1 = rng.uniform(0.70, 1.0, 3)
    if rng.random() < 0.5:
        c0, c1 = c1, c0
    img = c0[:, None, None] + ramp[None] * (c1 - c0)[:, None, None]

    base = img.copy()
    for _ in range(int(rng.integers(0, 3))):
        rh = int(rng.integers(size // 8, size // 2))
        rw = int(rng.integers(size // 8, size // 2))
        r0 = int(rng.integers(0, size - rh + 1))
        cx0 = int(rng.integers(0, size - rw + 1))
        color = rng.uniform(0.0, 1.0, 3)
        alpha = rng.uniform(0.4, 0.85)
        img[:, r0 : r0 + rh, cx0 : cx0 + rw] *= 1.0 - alpha
        img[:, r0 : r0 + rh, cx0 : cx0 + rw] += alpha * color[:, None, None]
    for _ in range(int(rng.integers(0, 3))):
        cy, cx = rng.uniform(0, size, 2)
        radius = rng.uniform(size / 10, size / 3)
        color = rng.uniform(0.0, 1.0, 3)
        alpha = rng.uniform(0.4, 0.85)
        dist = np.sqrt((np.mgrid[0:size][:, None] - cy) ** 2 + (np.mgrid[0:size][None, :] - cx) ** 2)
        wgt = np.clip(radius - dist, 0.0, 1.0) * alpha  # one-pixel feathered edge
        img = img * (1.0 - wgt[None]) + color[:, None, None] * wgt[None]

    img = np.clip(img, 0.0, 1.0)
    if img.std() < 0.06:  # overlays flattened it; keep the guaranteed ramp
        img = np.clip(base, 0.0, 1.0)
    return img


class SynthDataset:
    """Deterministic in-memory dataset of procedural images."""

    def __init__(self, n: int, size: int, seed: int):
        self.n = n
        self.size = size
        self.seed = seed

    def __len__(self):
        return self.n

    def pixels(self, i: int) -> np.ndarray:
        if not (0 <= i < self.n):
            raise IndexError(i)
        return _synth_image(self.size, self.seed, i)

    def materialize(self, out_dir) -> list[str]:
        """Write every image as ``synth-<index>.ppm`` under ``out_dir``; returns the file names."""
        os.makedirs(out_dir, exist_ok=True)
        names = [f"synth-{i:06d}.ppm" for i in range(self.n)]
        for i, name in enumerate(names):
            save_ppm(os.path.join(out_dir, name), self.pixels(i))
        return names


def synth_dataset(n: int, size: int, seed: int) -> SynthDataset:
    return SynthDataset(n, size, seed)


class DirectoryDataset:
    """All *.ppm files under a directory, ordered lexicographically by name."""

    def __init__(self, root):
        self.root = str(root)
        names = sorted(f for f in os.listdir(self.root) if f.endswith(".ppm"))
        if not names:
            raise FileNotFoundError(f"no .ppm files under {self.root}")
        self.names = names

    def __len__(self):
        return len(self.names)

    def pixels(self, i: int) -> np.ndarray:
        return load_ppm(os.path.join(self.root, self.names[i]))


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def augment(img: np.ndarray, out_size: int, rng) -> np.ndarray:
    """Random crop to out_size x out_size (uniform valid offsets), then a
    coin-flip horizontal mirror. No color transforms."""
    c, h, w = img.shape
    if h < out_size or w < out_size:
        raise ValueError(f"augment: image {h}x{w} smaller than crop {out_size}")
    oy = int(rng.integers(0, h - out_size + 1))
    ox = int(rng.integers(0, w - out_size + 1))
    out = img[:, oy : oy + out_size, ox : ox + out_size]
    if rng.random() < 0.5:
        out = out[:, :, ::-1]
    return np.ascontiguousarray(out)
