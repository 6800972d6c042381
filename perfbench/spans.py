"""In-memory span tracer for the benchmark's traced run.

The tracer never edits sparsemim. It rebinds public functions in the
namespace of the module that calls them (``sparsemim.training.spark_forward``,
``sparsemim.autograd.conv2d``, ``sparsemim.cli.load_checkpoint``, ...) to
wrappers that open and close a span around the call, and it wraps the
``backward_fn`` handed to ``record_op`` so that each op's backward time is
charged to the op that created it. Everything is restored on exit.

A span has a name, start, end, parent span and operation index. An
operation is one train step or one ``reconstruct`` call; its root span is
opened and closed by the workload. Per-layer figures are reported per
counted operation.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

from sparsemim import autograd as ag
from sparsemim.masking import active_set_at_scale
from sparsemim.model import encoder_flops_table

# (module, attribute, span name): each call through that binding becomes a span
PATCHES = [
    ("sparsemim.training", "spark_forward", "model.spark_forward"),
    ("sparsemim.training", "spark_loss", "model.spark_loss"),
    ("sparsemim.training", "generate_mask", "masking.generate_mask"),
    ("sparsemim.training", "lamb_step", "training.optimizer"),
    ("sparsemim.autograd", "backward", "autograd.backward"),
    ("sparsemim.autograd", "conv2d", "autograd.conv2d"),
    ("sparsemim.autograd", "conv_transpose2d", "autograd.conv_transpose2d"),
    ("sparsemim.autograd", "batchnorm2d", "autograd.batchnorm"),
    ("sparsemim.model", "encoder_forward", "model.encoder_forward"),
    ("sparsemim.model", "project_and_densify", "model.project_and_densify"),
    ("sparsemim.model", "decoder_forward", "model.decoder_forward"),
    ("sparsemim.model", "per_patch_normalize", "masking.per_patch_normalize"),
    ("sparsemim.model", "build_rulebook", "sparse.build_rulebook"),
    ("sparsemim.model", "subm_conv2d", "sparse.subm_conv2d"),
    ("sparsemim.model", "sparse_downsample", "sparse.downsample"),
    ("sparsemim.model", "sparse_batchnorm", "sparse.batchnorm"),
    ("sparsemim.model", "densify", "sparse.densify"),
    ("sparsemim.model", "gather_from_dense", "sparse.gather"),
    ("sparsemim.data", "augment", "data.augment"),
    ("sparsemim.data", "load_ppm", "data.load_ppm"),
    ("sparsemim.cli", "load_checkpoint", "training.load_checkpoint"),
    ("sparsemim.cli", "model_from_checkpoint", "training.model_from_checkpoint"),
    ("sparsemim.cli", "load_ppm", "data.load_ppm"),
    ("sparsemim.cli", "save_ppm", "data.save_ppm"),
    ("sparsemim.cli", "generate_mask", "masking.generate_mask"),
    ("sparsemim.cli", "spark_forward", "model.spark_forward"),
]

# spans whose tape nodes get a "<name>.bwd" span around their backward_fn;
# backward of any other op stays in the self time of autograd.backward
BACKWARD_OWNERS = {
    "autograd.conv2d", "autograd.conv_transpose2d", "autograd.batchnorm",
    "sparse.subm_conv2d", "sparse.downsample", "sparse.batchnorm", "sparse.densify", "sparse.gather",
}

# root spans, one per operation, opened and closed by the workload
ROOTS = ("training.step", "cli.reconstruct")

# phases of one train step: direct children of the training.step span
STEP_PHASES = {
    "training.data_s": ("data.pixels", "data.augment", "masking.generate_mask"),
    "training.forward_s": ("model.spark_forward", "model.spark_loss"),
    "training.backward_s": ("autograd.backward",),
    "training.optimizer_s": ("training.optimizer",),
}


class Tracer:
    """Spans, counters and drawn masks of one traced run, kept in memory."""

    def __init__(self):
        self.name, self.start, self.end, self.parent, self.op = [], [], [], [], []
        self.stack = []
        self.op_index = -1
        self.counted_ops = []
        self.counters = []  # (op, name, value)
        self.masks = []  # (op, PatchMask) for every mask the program drew

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_index)
        self.end.append(None)
        self.stack.append(len(self.name) - 1)
        self.start.append(time.perf_counter())

    def close(self):
        self.end[self.stack.pop()] = time.perf_counter()

    def begin_op(self, root, counted=True):
        self.op_index += 1
        if counted:
            self.counted_ops.append(self.op_index)
        self.open(root)

    def end_op(self, drop=False):
        """Close the current operation; ``drop`` uncounts it (it did not finish)."""
        if drop and self.stack and self.op_index in self.counted_ops:
            self.counted_ops.remove(self.op_index)
        while self.stack:
            self.close()

    def count(self, name, value):
        self.counters.append((self.op_index, name, value))

    # -- instrumentation -----------------------------------------------------

    def _wrap(self, fn, span, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(args)
            self.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if after:
                after(args, out)
            return out

        return wrapper

    def _record_op(self, record_op):
        def wrapped(out, parents, backward_fn):
            owner = self.name[self.stack[-1]] if self.stack else None
            if owner in BACKWARD_OWNERS:
                backward_fn = self._wrap(backward_fn, owner + ".bwd")
            return record_op(out, parents, backward_fn)

        return wrapped

    def _hooks(self, span):
        """Counters taken outside the span they describe."""
        if span == "autograd.conv2d":
            # MACs computed from shapes: output elements x (cin * kh * kw)
            return None, lambda a, out: self.count("autograd.conv2d.macs", out.size * int(np.prod(a[1].shape[1:])))
        if span == "sparse.build_rulebook":
            def after(a, rb):
                self.count("sparse.build_rulebook.calls", 1)
                self.count("sparse.rulebook_pairs", rb.total_pairs)
            return None, after
        if span == "masking.generate_mask":
            return None, lambda a, mask: self.masks.append((self.op_index, mask))
        if span == "autograd.backward":
            return (lambda a: self.count("autograd.tape_nodes", len(ag.active_tape()))), None
        if span == "data.load_ppm":
            return (lambda a: self.count("data.ppm_bytes", os.path.getsize(a[0]))), None
        if span == "data.save_ppm":
            return None, lambda a, out: self.count("data.ppm_bytes", os.path.getsize(a[0]))
        if span == "training.load_checkpoint":
            return (lambda a: self.count("training.checkpoint_bytes", os.path.getsize(a[0]))), None
        return None, None

    @contextlib.contextmanager
    def installed(self, extra=()):
        """Rebind PATCHES plus ``extra`` (object, attribute, span) triples; restore on exit."""
        saved = []
        targets = [(importlib.import_module(m), attr, span) for m, attr, span in PATCHES] + list(extra)
        try:
            for obj, attr, span in targets:
                fn = getattr(obj, attr)
                saved.append((obj, attr, fn))
                setattr(obj, attr, self._wrap(fn, span, *self._hooks(span)))
            for m in ("sparsemim.autograd", "sparsemim.sparse"):
                mod = importlib.import_module(m)
                saved.append((mod, "record_op", mod.record_op))
                mod.record_op = self._record_op(mod.record_op)
            yield self
        finally:
            for obj, attr, fn in reversed(saved):
                setattr(obj, attr, fn)

    # -- reporting -----------------------------------------------------------

    def per_layer(self, enc_cfg):
        """Per-operation layer figures over the counted operations, and the
        summed self time of their layer spans (every span but the roots, so
        time that no layer span covers is left out). Call it after tracing: the MAC table
        of every captured mask is computed here, outside every span."""
        counted = set(self.counted_ops)
        n_ops = len(counted)
        dur = defaultdict(float)
        self_s = defaultdict(float)
        children = defaultdict(float)
        phase = defaultdict(float)
        for i, name in enumerate(self.name):
            if self.op[i] not in counted:
                continue
            d = self.end[i] - self.start[i]
            dur[name] += d
            p = self.parent[i]
            if p >= 0:
                children[p] += d
                if self.name[p] == "training.step":
                    for key, names in STEP_PHASES.items():
                        if name in names:
                            phase[key] += d
        for i, name in enumerate(self.name):
            if self.op[i] in counted:
                self_s[name] += self.end[i] - self.start[i] - children[i]
        counts = defaultdict(float)
        for op, name, value in self.counters:
            if op in counted:
                counts[name] += value

        sparse_macs = dense_macs = executed_macs = active_sites = 0
        for op, mask in self.masks:
            if op not in counted:
                continue
            for row in encoder_flops_table(enc_cfg, mask):
                sparse_macs += row["sparse_macs"]
                dense_macs += row["dense_macs"]
                if row["layer"] != "stem":  # the stem runs as a dense conv2d
                    executed_macs += row["sparse_macs"]
            active_sites += sum(active_set_at_scale(mask, enc_cfg.stride_at(i)).shape[0]
                                for i in range(enc_cfg.stages))

        def rate(macs, seconds):
            return macs / seconds if seconds > 0 else 0.0

        m = {
            "autograd.conv2d.fwd_s": dur["autograd.conv2d"],
            "autograd.conv2d.bwd_s": dur["autograd.conv2d.bwd"],
            "autograd.conv2d.macs": counts["autograd.conv2d.macs"],
            "autograd.conv2d.mac_per_s": rate(counts["autograd.conv2d.macs"], dur["autograd.conv2d"]),
            "autograd.conv_transpose2d.fwd_s": dur["autograd.conv_transpose2d"],
            "autograd.conv_transpose2d.bwd_s": dur["autograd.conv_transpose2d.bwd"],
            "autograd.batchnorm.fwd_s": dur["autograd.batchnorm"],
            "autograd.batchnorm.bwd_s": dur["autograd.batchnorm.bwd"],
            "autograd.backward_s": dur["autograd.backward"],
            "autograd.backward.self_s": self_s["autograd.backward"],
            "autograd.tape_nodes": counts["autograd.tape_nodes"],
            "sparse.build_rulebook_s": dur["sparse.build_rulebook"],
            "sparse.build_rulebook.calls": counts["sparse.build_rulebook.calls"],
            "sparse.rulebook_pairs": counts["sparse.rulebook_pairs"],
            "sparse.subm_conv2d.fwd_s": dur["sparse.subm_conv2d"],
            "sparse.subm_conv2d.bwd_s": dur["sparse.subm_conv2d.bwd"],
            "sparse.downsample.fwd_s": dur["sparse.downsample"],
            "sparse.downsample.bwd_s": dur["sparse.downsample.bwd"],
            "sparse.batchnorm.fwd_s": dur["sparse.batchnorm"],
            "sparse.batchnorm.bwd_s": dur["sparse.batchnorm.bwd"],
            "sparse.densify_gather_s": sum(dur[k] for k in ("sparse.densify", "sparse.densify.bwd",
                                                             "sparse.gather", "sparse.gather.bwd")),
            "sparse.macs": sparse_macs,
            "sparse.dense_macs": dense_macs,
            "sparse.mac_per_s": rate(executed_macs, dur["sparse.subm_conv2d"] + dur["sparse.downsample"]),
            "masking.generate_mask_s": dur["masking.generate_mask"],
            "masking.per_patch_normalize_s": dur["masking.per_patch_normalize"],
            "masking.active_sites": active_sites,
            "model.spark_forward_s": dur["model.spark_forward"],
            "model.encoder_forward_s": dur["model.encoder_forward"],
            "model.project_and_densify_s": dur["model.project_and_densify"],
            "model.decoder_forward_s": dur["model.decoder_forward"],
            "model.spark_loss_s": dur["model.spark_loss"],
            **{key: phase[key] for key in STEP_PHASES},
            "training.self_s": self_s["training.step"],
            "training.load_checkpoint_s": dur["training.load_checkpoint"],
            "training.model_from_checkpoint_s": dur["training.model_from_checkpoint"],
            "training.checkpoint_bytes": counts["training.checkpoint_bytes"],
            "data.pixels_s": dur["data.pixels"],
            "data.augment_s": dur["data.augment"],
            "data.load_ppm_s": dur["data.load_ppm"],
            "data.save_ppm_s": dur["data.save_ppm"],
            "data.ppm_bytes": counts["data.ppm_bytes"],
            "cli.reconstruct.self_s": self_s["cli.reconstruct"],
        }
        # rates are ratios of totals; every other figure is a total, reported per operation
        per_op = {k: (v if k.endswith("mac_per_s") else v / n_ops) for k, v in m.items()}
        per_op["sparse.mac_ratio"] = sparse_macs / dense_macs if dense_macs else 0.0
        return per_op, sum(v for k, v in self_s.items() if k not in ROOTS)

    def dump(self, path, meta):
        """Write every span (name, start, end, parent, op) as one JSON document."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            **meta,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "counted_ops": self.counted_ops,
            "spans": [[n, s - t0, e - t0, p, o]
                      for n, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op)],
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
