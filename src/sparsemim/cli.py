"""Command-line surface: pre-train, reconstruct, convert, count FLOPs, verify.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure. Every run
echoes its fully resolved configuration to stdout, and commands taking an
--out directory write config.json plus their artifacts there. Given the same
--seed, every command is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import autograd as ag
from .data import DirectoryDataset, load_ppm, save_ppm, synth_dataset
from .masking import (denormalize_patches, generate_mask, masked_patch_count, masked_pixel_map, patch_stats,
                      zero_out_image)
from .model import (
    EncoderConfig,
    SparkConfig,
    SparkModel,
    encoder_flops_table,
    spark_forward,
    to_dense_encoder,
)
from .training import (
    CheckpointError,
    TrainConfig,
    TrainingDiverged,
    load_checkpoint,
    model_checkpoint_arrays,
    model_from_checkpoint,
    save_checkpoint,
    train,
)
from .verify import SUITES, run_suites

VARIANTS = {
    "baseline": {},
    "zero-out": {"masking": "zero_out"},
    "no-hierarchy": {"hierarchy": False},
    "ape": {"ape": True},
    "loss-all": {"loss_on": "all"},
}


class UsageError(ValueError):
    pass


# pretrain's numeric flags and their types (every other flag takes a string);
# _check_file_value holds --config values to the same types and choices
PRETRAIN_NUMBERS = {
    "epochs": int, "batch": int, "mask_ratio": float, "patch": int, "stages": int, "seed": int,
    "image_size": int, "dec_width": int, "blocks": int, "lr": float, "steps": int,
    "weight_decay": float, "down_kernel": int,
}
PRETRAIN_CHOICES = {"optimizer": ["lamb", "adam"], "down_kernel": [2, 3], "variant": sorted(VARIANTS)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract says 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call of main
def _build_parser() -> _Parser:
    p = _Parser(prog="sparsemim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("pretrain", help="masked pre-training run")
    src = tr.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="directory of .ppm training images")
    src.add_argument("--synth", type=int, help="number of synthetic images to train on")
    tr.add_argument("--out", required=True, help="run directory for artifacts")
    tr.add_argument("--config", help="JSON config file; explicit flags override its values")
    for key, typ in PRETRAIN_NUMBERS.items():
        tr.add_argument("--" + key.replace("_", "-"), type=typ, choices=PRETRAIN_CHOICES.get(key), default=None)
    tr.add_argument("--widths", default=None, help="comma-separated stage widths, e.g. 16,32,64")
    tr.add_argument("--optimizer", choices=PRETRAIN_CHOICES["optimizer"], default=None)
    tr.add_argument("--variant", choices=PRETRAIN_CHOICES["variant"], default=None)

    rc = sub.add_parser("reconstruct", help="reconstruct one image with a checkpoint")
    rc.add_argument("--ckpt", required=True)
    rc.add_argument("--image", required=True, help="input .ppm image")
    rc.add_argument("--out", required=True)
    rc.add_argument("--mask-ratio", type=float, default=None, help="default: the ratio the model trained with")
    rc.add_argument("--seed", type=int, default=0)

    cv = sub.add_parser("convert", help="export the dense encoder from a checkpoint")
    cv.add_argument("--ckpt", required=True)
    cv.add_argument("--out", required=True, help="output checkpoint file")

    fl = sub.add_parser("flops", help="per-layer sparse vs dense MAC table (CSV)")
    fl.add_argument("--image-size", type=int, default=224)
    fl.add_argument("--patch", type=int, default=32)
    fl.add_argument("--mask-ratio", type=float, default=0.6)
    fl.add_argument("--stages", type=int, default=4)
    fl.add_argument("--widths", default=None)
    fl.add_argument("--blocks", type=int, default=DEFAULTS["blocks"])
    fl.add_argument("--down-kernel", type=int, choices=[2, 3], default=DEFAULTS["down_kernel"])
    fl.add_argument("--seed", type=int, default=0)
    fl.add_argument("--out", default=None, help="optional directory for flops.csv")

    vf = sub.add_parser("verify", help="run invariant suites")
    vf.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    return p


def _parse_widths(text, stages):
    widths = tuple(int(t) for t in text.split(","))
    if len(widths) != stages:
        raise UsageError(f"--widths lists {len(widths)} values for {stages} stages")
    return widths


def _echo_config(cfg: dict, out_dir=None):
    text = json.dumps(cfg, sort_keys=True, indent=2)
    print(text)
    if out_dir is not None:
        with open(os.path.join(out_dir, "config.json"), "w") as f:
            f.write(text + "\n")


DEFAULTS = {
    "epochs": 2, "batch": 8, "mask_ratio": 0.6, "patch": 32, "stages": 3,
    "widths": "16,32,64", "seed": 0, "image_size": 64, "dec_width": None,
    "blocks": 1, "lr": None, "steps": None, "optimizer": "lamb",
    "weight_decay": 0.04, "variant": "baseline", "down_kernel": 2,
}


def _check_file_value(key, value):
    """Reject a --config value that its flag would not take: null only where the
    default is null, an int (not a bool) for an int flag, an int or a float (not a
    bool) for a float flag, a string otherwise, and one of the flag's choices."""
    want = PRETRAIN_NUMBERS.get(key, str)
    if value is None:
        ok = DEFAULTS[key] is None
    elif want is str:
        ok = isinstance(value, str)
    else:
        ok = not isinstance(value, bool) and isinstance(value, (int, float) if want is float else int)
    choices = PRETRAIN_CHOICES.get(key)
    if not ok or (value is not None and choices and value not in choices):
        takes = {int: "an integer", float: "a number", str: "a string"}[want]
        takes += f" in {choices}" if choices else ""
        takes += " or null" if DEFAULTS[key] is None else ""
        raise UsageError(f"--config value {key}={json.dumps(value)} does not fit "
                         f"--{key.replace('_', '-')}, which takes {takes}")


def cmd_pretrain(args) -> int:
    resolved = dict(DEFAULTS)
    if args.config:
        with open(args.config) as f:
            file_cfg = json.load(f)
        if not isinstance(file_cfg, dict):
            raise UsageError("--config file must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise UsageError(f"unknown keys in --config file: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_file_value(key, value)
        resolved.update(file_cfg)
    for key in DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val

    widths = _parse_widths(str(resolved["widths"]), resolved["stages"])
    try:
        enc = EncoderConfig(stages=resolved["stages"], widths=widths,
                            blocks_per_stage=resolved["blocks"], down_kernel=resolved["down_kernel"])
        flags = VARIANTS[resolved["variant"]]
        model_cfg = SparkConfig(encoder=enc, image_size=resolved["image_size"],
                                patch_size=resolved["patch"], dec_fea_dim=resolved["dec_width"], **flags)
    except ValueError as e:
        raise UsageError(str(e)) from e
    grid = model_cfg.image_size // model_cfg.patch_size
    try:  # the check every training mask draw makes, before anything is written
        masked = masked_patch_count(grid, grid, resolved["mask_ratio"])
    except ValueError as e:
        raise UsageError(f"--mask-ratio: {e}") from e
    if masked == 0 and model_cfg.loss_on == "masked":
        raise UsageError("--mask-ratio 0 masks no patch, so the masked-position loss is empty; "
                         "use --variant loss-all")
    if resolved["lr"] is not None and not (0.0 < resolved["lr"] < math.inf):
        raise UsageError(f"--lr must be finite and positive, got {resolved['lr']}")
    if not (0.0 <= resolved["weight_decay"] < math.inf):
        raise UsageError(f"--weight-decay must be finite and non-negative, got {resolved['weight_decay']}")

    train_cfg = TrainConfig(
        epochs=resolved["epochs"], batch_size=resolved["batch"], lr_peak=resolved["lr"],
        weight_decay=resolved["weight_decay"], optimizer=resolved["optimizer"],
        seed=resolved["seed"], max_steps=resolved["steps"], mask_ratio=resolved["mask_ratio"],
    )

    os.makedirs(args.out, exist_ok=True)
    full = {"command": "pretrain", "data": args.data, "synth": args.synth, "out": args.out,
            **{k: resolved[k] for k in DEFAULTS},
            "model": model_cfg.to_dict(), "train": train_cfg.to_dict()}
    _echo_config(full, args.out)

    if args.synth is not None:
        dataset = synth_dataset(args.synth, resolved["image_size"], resolved["seed"])
    else:
        dataset = DirectoryDataset(args.data)

    model = SparkModel(model_cfg, np.random.default_rng(np.random.SeedSequence([resolved["seed"], 1])))
    rows, opt = train(model, dataset, train_cfg, metrics_path=os.path.join(args.out, "metrics.csv"))

    ckpt_cfg = {"kind": "spark", "model": model_cfg.to_dict(), "train": train_cfg.to_dict(),
                "step": len(rows), "opt_t": opt.t}
    save_checkpoint(os.path.join(args.out, "final.ckpt"), model_checkpoint_arrays(model, opt), ckpt_cfg)
    print(f"trained {len(rows)} steps; final loss {rows[-1]['loss']:.6f}; "
          f"artifacts in {args.out}")
    return 0


def _center_crop(img: np.ndarray, size: int) -> np.ndarray:
    c, h, w = img.shape
    if h < size or w < size:
        raise UsageError(f"image {h}x{w} smaller than the model's {size}x{size} input")
    oy, ox = (h - size) // 2, (w - size) // 2
    return np.ascontiguousarray(img[:, oy : oy + size, ox : ox + size])


def _trained_mask_ratio(config: dict) -> float:
    """The mask ratio a checkpoint's ``train`` section records; 0.6 if it has none."""
    train = config.get("train", {})
    if not isinstance(train, dict):
        raise CheckpointError(f"checkpoint 'train' must be an object, got {type(train).__name__}")
    ratio = train.get("mask_ratio", DEFAULTS["mask_ratio"])
    if isinstance(ratio, bool) or not isinstance(ratio, (int, float)) or not 0.0 <= ratio < 1.0:
        raise CheckpointError(f"checkpoint train.mask_ratio must be a number in [0, 1), got {ratio!r}")
    return float(ratio)


def cmd_reconstruct(args) -> int:
    ckpt = load_checkpoint(args.ckpt, model_only=True)
    model, _ = model_from_checkpoint(ckpt)
    cfg = model.cfg
    ratio = args.mask_ratio if args.mask_ratio is not None else _trained_mask_ratio(ckpt.config)
    if not (0.0 <= ratio < 1.0):
        raise UsageError(f"--mask-ratio must be in [0, 1), got {ratio}")
    grid = cfg.image_size // cfg.patch_size
    mask = generate_mask(grid, grid, ratio, np.random.default_rng(args.seed), patch_size=cfg.patch_size)

    os.makedirs(args.out, exist_ok=True)
    _echo_config({"command": "reconstruct", "ckpt": args.ckpt, "image": args.image,
                  "out": args.out, "mask_ratio": ratio, "seed": args.seed,
                  "model": cfg.to_dict()}, args.out)

    img = _center_crop(load_ppm(args.image), cfg.image_size)[None]

    with ag.no_grad():
        recon, _, _ = spark_forward(model, img, mask, mode="eval")
    mean, denom = patch_stats(img, cfg.patch_size)
    pred = np.clip(denormalize_patches(recon.data, mean, denom, cfg.patch_size), 0.0, 1.0)
    mm = masked_pixel_map(mask)
    composite = np.where(mm, pred[0], img[0])

    save_ppm(os.path.join(args.out, "masked_input.ppm"), zero_out_image(img[0][None], mask).data[0])
    save_ppm(os.path.join(args.out, "reconstruction.ppm"), pred[0])
    save_ppm(os.path.join(args.out, "composite.ppm"), composite)
    error = f"masked-region mse {((pred[0] - img[0]) ** 2)[:, mm].mean():.6f}" if mm.any() else "no patch masked"
    print(f"{error}; wrote 3 images to {args.out}")
    return 0


def cmd_convert(args) -> int:
    ckpt = load_checkpoint(args.ckpt, model_only=True)
    model, _ = model_from_checkpoint(ckpt)
    dense = to_dense_encoder(model)
    cfg = {"kind": "dense_encoder", "encoder": model.cfg.to_dict()["encoder"],
           "ape": model.cfg.ape, "image_size": model.cfg.image_size}
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(args.out, dense.state_arrays(), cfg)
    _echo_config({"command": "convert", "ckpt": args.ckpt, "out": args.out, **cfg})
    print(f"wrote dense encoder ({len(dense.state_arrays())} arrays) to {args.out}")
    return 0


def cmd_flops(args) -> int:
    widths_text = args.widths if args.widths is not None else ",".join(
        str(16 * 2 ** i) for i in range(args.stages))
    widths = _parse_widths(widths_text, args.stages)
    try:
        enc = EncoderConfig(stages=args.stages, widths=widths, blocks_per_stage=args.blocks,
                            down_kernel=args.down_kernel)
        cfg = SparkConfig(encoder=enc, image_size=args.image_size, patch_size=args.patch)
    except ValueError as e:
        raise UsageError(str(e)) from e
    print(json.dumps({"command": "flops", "image_size": args.image_size, "patch": args.patch,
                      "mask_ratio": args.mask_ratio, "stages": args.stages,
                      "widths": list(widths), "blocks": args.blocks, "down_kernel": args.down_kernel,
                      "seed": args.seed}, sort_keys=True), file=sys.stderr)
    grid = args.image_size // args.patch
    mask = generate_mask(grid, grid, args.mask_ratio, np.random.default_rng(args.seed), patch_size=args.patch)
    rows = encoder_flops_table(enc, mask)
    lines = ["layer,scale,sparse_macs,dense_macs,ratio"]
    for r in rows:
        lines.append(f"{r['layer']},{r['scale']},{r['sparse_macs']},{r['dense_macs']},{r['ratio']:.6f}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "flops.csv"), "w") as f:
            f.write(text + "\n")
    total_s = sum(r["sparse_macs"] for r in rows)
    total_d = sum(r["dense_macs"] for r in rows)
    print(f"# total,{total_s},{total_d},{total_s / total_d:.6f}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    ok, lines = run_suites(names)
    print("\n".join(lines))
    if not ok:
        print("verification FAILED", file=sys.stderr)
        return 2
    print("all suites passed")
    return 0


COMMANDS = {
    "pretrain": cmd_pretrain,
    "reconstruct": cmd_reconstruct,
    "convert": cmd_convert,
    "flops": cmd_flops,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (TrainingDiverged, CheckpointError) as e:
        print(f"sparsemim {args.command}: {e}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, FileNotFoundError) as e:
        print(f"sparsemim {args.command}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"sparsemim {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
