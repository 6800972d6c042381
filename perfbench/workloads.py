"""The benchmark's three workloads, driven through sparsemim's public API.

Each is a closed loop with one client: an operation starts when the previous
one ends. ``setup(seed, work)`` builds every input from the seed and runs one
untimed warm-up operation; ``run(seconds, tracer)`` then times operations
until ``seconds`` have passed and returns an :class:`Outcome`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from sparsemim import cli
from sparsemim.data import DirectoryDataset, load_ppm, save_ppm, synth_dataset
from sparsemim.model import EncoderConfig, SparkConfig, SparkModel
from sparsemim.training import TrainConfig, train


@dataclass
class Outcome:
    op_s: list = field(default_factory=list)  # wall time of each timed operation
    samples: int = 0  # images processed by the timed operations
    attempted: int = 0  # operations attempted, timed or not
    failures: list = field(default_factory=list)  # one message per failed operation or check
    record: list = field(default_factory=list)  # loss per step or output digest per call
    extra: dict = field(default_factory=dict)  # workload-specific figures for the report


class _Stop(Exception):
    """Raised from the train() log callback once the run's time is up."""


def _write_ppms(directory, n, size, seed):
    os.makedirs(directory, exist_ok=True)
    ds = synth_dataset(n, size, seed)
    paths = [os.path.join(directory, f"img{i:04d}.ppm") for i in range(n)]
    for i, path in enumerate(paths):
        save_ppm(path, ds.pixels(i))
    return paths


# geometry of the paper: 224 px crops, 32 px patches, 4 stages, light decoder
PAPER_FLAGS = ["--image-size", "224", "--patch", "32", "--stages", "4", "--widths", "32,64,128,256",
               "--blocks", "2", "--dec-width", "64", "--batch", "4"]
PAPER_MODEL = SparkConfig(encoder=EncoderConfig(stages=4, widths=(32, 64, 128, 256), blocks_per_stage=2),
                          image_size=224, patch_size=32, dec_fea_dim=64)


class TrainWorkload:
    """``training.train`` on one recipe; one operation is one optimizer step.

    The first step of every train() call also pays for the call's own set-up,
    so it is attempted but not timed.
    """

    def __init__(self, model_cfg, train_cfg, make_dataset, init_seed=None, halve_loss=False):
        self.model_cfg = model_cfg
        self.train_cfg = train_cfg
        self.make_dataset = make_dataset
        self.init_seed = init_seed  # None: initialise the model from the workload seed
        self.halve_loss = halve_loss

    @property
    def encoder(self):
        return self.model_cfg.encoder

    def setup(self, seed, work):
        self.seed = seed
        self.cfg = replace(self.train_cfg, seed=seed)
        self.dataset = self.make_dataset(seed, work)
        train(self.new_model(), self.dataset, replace(self.cfg, max_steps=1))

    def new_model(self):
        seed = self.seed if self.init_seed is None else self.init_seed
        return SparkModel(self.model_cfg, np.random.default_rng(seed))

    def trace_targets(self):
        return [(self.dataset, "pixels", "data.pixels")]

    def run(self, seconds, tracer=None):
        out = Outcome()
        deadline = time.perf_counter() + seconds
        first_curve = None
        while time.perf_counter() < deadline:
            marks = [time.perf_counter()]
            losses = []

            def log(row):
                now = time.perf_counter()
                if tracer:
                    tracer.end_op()
                if len(marks) > 1:
                    out.op_s.append(now - marks[-1])
                    out.samples += self.cfg.batch_size
                marks.append(now)
                losses.append(row["loss"])
                out.attempted += 1
                if now >= deadline:
                    raise _Stop
                if tracer:
                    tracer.begin_op("training.step")

            if tracer:
                tracer.begin_op("training.step", counted=False)
            try:
                train(self.new_model(), self.dataset, self.cfg, log=log)
            except _Stop:
                pass
            except Exception as e:  # a failed step ends the run; it is counted, not raised
                out.attempted += 1
                out.failures.append(f"step {len(losses)}: {type(e).__name__}: {e}")
                break
            finally:
                if tracer:  # a step still open here never finished
                    tracer.end_op(drop=True)
            out.record.extend(losses)
            if first_curve is None:
                first_curve = (losses, marks)
        out.failures += [f"non-finite loss at step {i}" for i, v in enumerate(out.record) if not math.isfinite(v)]
        if self.halve_loss and first_curve:
            out.attempted += 1  # the check below
            losses, marks = first_curve
            half = next((i for i, v in enumerate(losses) if v <= 0.5 * losses[0]), None)
            if half is None:
                out.failures.append(f"loss never halved in {len(losses)} steps "
                                    f"({losses[0]:.4f} -> {min(losses):.4f})")
            else:
                out.extra["time_to_half_loss_s"] = marks[half + 1] - marks[0]
                out.extra["half_loss_step"] = half
        return out


def _desk_dataset(seed, work):
    return synth_dataset(256, 64, 1)


def _paper_dataset(seed, work):
    directory = os.path.join(work, "ppm")
    _write_ppms(directory, 32, 256, seed + 1)
    return DirectoryDataset(directory)


class ReconstructWorkload:
    """``sparsemim reconstruct`` called in-process; one operation is one call."""

    encoder = PAPER_MODEL.encoder
    n_images = 16
    outputs = ("masked_input", "reconstruction", "composite")

    def setup(self, seed, work):
        self.seed = seed
        self.images = _write_ppms(os.path.join(work, "ppm"), self.n_images, 256, seed + 1)
        run_dir = os.path.join(work, "pretrain")
        # `sparsemim pretrain` runs in a child process, so that this process's
        # peak RSS is that of reconstruct alone and not of training
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from sparsemim import cli; sys.exit(cli.main(sys.argv[1:]))",
             "pretrain", "--data", os.path.dirname(self.images[0]), "--out", run_dir,
             *PAPER_FLAGS, "--steps", "2", "--seed", str(seed)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"pretrain for the reconstruct checkpoint exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        self.ckpt = os.path.join(run_dir, "final.ckpt")
        self.out_dir = os.path.join(work, "recon")
        self._call(-1)  # warm-up

    def trace_targets(self):
        return []

    def _call(self, i):
        """One reconstruct call: (wall seconds, exit code)."""
        argv = ["reconstruct", "--ckpt", self.ckpt, "--image", self.images[i % self.n_images],
                "--out", self.out_dir, "--seed", str((self.seed << 20) + i + 1)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            return time.perf_counter() - t0, code

    def _check(self, code):
        """Digest of the call's three output images, or a failure message."""
        if code != 0:
            return None, f"exit code {code}"
        digest = hashlib.sha256()
        for name in self.outputs:
            path = os.path.join(self.out_dir, f"{name}.ppm")
            try:
                shape = load_ppm(path).shape
            except (OSError, ValueError) as e:
                return None, f"{name}.ppm: {e}"
            if shape != (3, 224, 224):
                return None, f"{name}.ppm has shape {shape}"
            with open(path, "rb") as f:
                digest.update(f.read())
        return digest.hexdigest(), None

    def run(self, seconds, tracer=None):
        out = Outcome()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            i = out.attempted
            for name in self.outputs:  # a failed call must not pass on stale files
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(self.out_dir, f"{name}.ppm"))
            if tracer:
                tracer.begin_op("cli.reconstruct")
            try:
                wall, code = self._call(i)
            finally:
                if tracer:
                    tracer.end_op()
            out.attempted += 1
            digest, error = self._check(code)
            if error:
                out.failures.append(f"call {i}: {error}")
                continue
            out.op_s.append(wall)
            out.samples += 1
            out.record.append(digest)
        return out


WORKLOADS = {
    # The c09 desk recipe; dense decoder and stem dominate a step. Model init
    # and images are c09's, so seed 0 reproduces c09's loss curve and c09's
    # halving criterion applies; the seed draws each step's order, crops and
    # masks. (Whether the loss halves depends on the first-step loss, which
    # the init sets: from other inits it starts lower and may not halve.)
    "desk_train": lambda: TrainWorkload(
        SparkConfig(encoder=EncoderConfig(stages=3, widths=(16, 32, 64), blocks_per_stage=1),
                    image_size=64, patch_size=16, dec_fea_dim=64),
        TrainConfig(epochs=10, batch_size=8, lr_peak=1.5e-2, optimizer="lamb", max_steps=200, mask_ratio=0.6),
        _desk_dataset, init_seed=0, halve_loss=True),
    # `sparsemim pretrain --data ... PAPER_FLAGS`; the sparse encoder dominates a step
    "paper_train": lambda: TrainWorkload(
        PAPER_MODEL,
        TrainConfig(epochs=1000, batch_size=4, optimizer="lamb", mask_ratio=0.6),
        _paper_dataset),
    "reconstruct": ReconstructWorkload,
}
