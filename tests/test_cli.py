"""CLI surface tests: exit codes, artifact layout, config echo, determinism."""

import json
import os
import struct
import warnings

import numpy as np
import pytest

from sparsemim import autograd as ag
from sparsemim import cli
from sparsemim import model as model_module
from sparsemim import training
from sparsemim.cli import PRETRAIN, main
from sparsemim.data import load_ppm, save_ppm
from sparsemim.masking import generate_mask, masked_pixel_map
from sparsemim.model import EncoderConfig, SparkConfig, SparkModel, encoder_forward, encoder_layers
from sparsemim.training import dense_encoder_from_checkpoint, load_checkpoint, model_from_checkpoint, save_checkpoint

TINY = ["--epochs", "1", "--batch", "4", "--steps", "2", "--image-size", "16",
        "--patch", "8", "--stages", "2", "--widths", "4,8", "--seed", "3"]


def run_pretrain(out, extra=(), synth="12"):
    return main(["pretrain", "--synth", synth, "--out", str(out), *TINY, *extra])


class TestPretrain:
    def test_smoke_writes_artifacts(self, tmp_path, capsys):
        assert run_pretrain(tmp_path / "run") == 0
        echoed = capsys.readouterr().out
        cfg = json.loads(echoed[: echoed.rindex("}") + 1])
        assert cfg["command"] == "pretrain" and cfg["variant"] == "baseline"
        for name in ("config.json", "metrics.csv", "final.ckpt"):
            assert (tmp_path / "run" / name).exists()
        header, *rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert header == "step,lr,loss" and len(rows) == 2
        for step, row in enumerate(rows):
            lr, loss = map(float, row.split(",")[1:])
            assert row == f"{step},{lr:.10g},{loss:.17g}" and lr > 0 and loss > 0

    def test_diverged_run_keeps_its_earlier_rows(self, tmp_path, capsys, monkeypatch):
        losses = []

        def loss(*args, **kwargs):  # step 1's loss is NaN
            losses.append(model_module.spark_loss(*args, **kwargs))
            if len(losses) == 2:
                losses[-1].data = np.full_like(losses[-1].data, np.nan)
            return losses[-1]

        monkeypatch.setattr(training, "spark_loss", loss)
        out = tmp_path / "run"
        assert run_pretrain(out, extra=["--steps", "3"]) == 2
        assert "non-finite loss" in capsys.readouterr().err
        header, *rows = (out / "metrics.csv").read_text().splitlines()
        assert header == "step,lr,loss" and [row.split(",")[0] for row in rows] == ["0"]
        assert not (out / "final.ckpt").exists()

    def test_each_row_on_disk_when_log_returns(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        seen = []

        def train(model, dataset, cfg, log):
            def log_and_read(row):
                log(row)
                seen.append((out / "metrics.csv").read_text().splitlines())
                assert seen[-1][-1] == f"{row['step']},{row['lr']:.10g},{row['loss']:.17g}"
            return training.train(model, dataset, cfg, log=log_and_read)

        monkeypatch.setattr(cli, "train", train)
        assert run_pretrain(out, extra=["--steps", "3"]) == 0
        assert [len(lines) for lines in seen] == [2, 3, 4]
        assert seen[-1] == (out / "metrics.csv").read_text().splitlines()

    def test_mask_ratio_one_rejected(self, tmp_path, capsys):
        code = run_pretrain(tmp_path / "bad", extra=["--mask-ratio", "1.0"])
        assert code == 1
        assert "mask-ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["0", "0.01", "0.9"])  # 0, 0 and 4 of the 2x2 patches masked
    def test_ratio_masking_nothing_or_everything_rejected_before_any_write(self, tmp_path, capsys, ratio):
        out = tmp_path / "bad"
        assert run_pretrain(out, extra=["--mask-ratio", ratio]) == 1
        assert "mask-ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_ratio_zero_trains_with_loss_on_all_pixels(self, tmp_path):
        assert run_pretrain(tmp_path / "run", extra=["--mask-ratio", "0", "--variant", "loss-all"]) == 0

    @pytest.mark.parametrize("argv,flag", [(["--lr", "nan"], "--lr"), (["--lr", "inf"], "--lr"),
                                           (["--lr", "0"], "--lr"), (["--lr", "-0.01"], "--lr"),
                                           (["--weight-decay", "nan"], "--weight-decay"),
                                           (["--weight-decay", "inf"], "--weight-decay"),
                                           (["--weight-decay", "-0.1"], "--weight-decay")])
    def test_bad_lr_or_weight_decay_rejected_before_any_write(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "bad"
        assert run_pretrain(out, extra=argv) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,synth", [(["--steps", "0"], "12"), (["--steps", "-3"], "12"),
                                            (["--epochs", "0"], "12"), (["--batch", "0"], "12"),
                                            ([], "0"), ([], "-3"), (["--batch", "16"], "8")])
    def test_sizes_giving_no_step_rejected_before_any_write(self, tmp_path, capsys, argv, synth):
        out = tmp_path / "bad"
        assert run_pretrain(out, extra=argv, synth=synth) == 1
        err = capsys.readouterr().err
        assert err.startswith("sparsemim pretrain: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("file_cfg,msg", [({"steps": 0}, "0 training steps"), ({"steps": -3}, "-3 training steps"),
                                              ({"epochs": 0}, "0 training steps"),
                                              ({"batch": 0}, "batch size 0 must be positive"),
                                              ({"batch": 16}, "smaller than batch size 16")])
    def test_sizes_in_config_file_giving_no_step_rejected(self, tmp_path, capsys, file_cfg, msg):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(file_cfg))
        out = tmp_path / "bad"
        assert main(["pretrain", "--synth", "8", "--out", str(out), "--config", str(cfg_file), "--image-size", "16",
                     "--patch", "8", "--stages", "2", "--widths", "4,8"]) == 1
        assert msg in capsys.readouterr().err
        assert not out.exists()

    def test_data_directory_checked_before_any_write(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        out = tmp_path / "bad"
        argv = ["pretrain", "--data", str(data), "--out", str(out), *TINY]
        assert main(argv) == 1 and "no .ppm files" in capsys.readouterr().err
        for i in range(2):  # two images cannot fill a batch of 4
            save_ppm(str(data / f"{i}.ppm"), np.zeros((3, 16, 16)))
        assert main(argv) == 1 and "smaller than batch size 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("file_cfg,flag", [({"lr": float("nan")}, "--lr"), ({"lr": 0.0}, "--lr"),
                                               ({"weight_decay": float("nan")}, "--weight-decay"),
                                               ({"weight_decay": -1.0}, "--weight-decay")])
    def test_bad_lr_or_weight_decay_in_config_file_rejected(self, tmp_path, capsys, file_cfg, flag):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(file_cfg))  # json writes a nan as NaN and reads it back
        out = tmp_path / "bad"
        assert run_pretrain(out, extra=["--config", str(cfg_file)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("file_cfg", [
        {"lr": "0.1"}, {"lr": True}, {"mask_ratio": "0.5"}, {"weight_decay": False},
        {"batch": 8.5}, {"batch": "8"}, {"batch": True}, {"steps": 1.0}, {"seed": None},
        {"widths": [4, 8]}, {"optimizer": 1}, {"variant": None}, {"variant": "foo"},
        {"down_kernel": 5}, {"down_kernel": 2.0}, [["lr", 0.1]],
    ], ids=repr)
    def test_config_value_of_wrong_type_rejected_before_any_write(self, tmp_path, capsys, file_cfg):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(file_cfg))
        out = tmp_path / "bad"
        assert run_pretrain(out, extra=["--config", str(cfg_file)]) == 1
        err = capsys.readouterr().err
        assert "--config" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("width", [0, 4])  # TINY's total stride 8 halves the width 3 times
    @pytest.mark.parametrize("via_config", [False, True])
    def test_decoder_width_that_cannot_halve_rejected_before_any_write(self, tmp_path, capsys, width, via_config):
        if via_config:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps({"dec_width": width}))
            extra = ["--config", str(cfg_file)]
        else:
            extra = ["--dec-width", str(width)]
        out = tmp_path / "bad"
        assert run_pretrain(out, extra=extra) == 1
        err = capsys.readouterr().err
        assert f"fea_dim {width} too small" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_negative_seed_rejected_before_any_write(self, tmp_path, capsys, via_config):
        i = TINY.index("--seed")
        argv = ["pretrain", "--synth", "12", "--out", str(tmp_path / "bad"), *TINY[:i], *TINY[i + 2:]]
        if via_config:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(cfg_file)]
        else:
            argv += ["--seed", "-1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    def test_config_accepts_int_for_float_and_null_where_default_is_null(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"lr": 1, "weight_decay": 0, "dec_width": None, "steps": None}))
        assert run_pretrain(tmp_path / "ok", extra=["--config", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        cfg = json.loads(out[: out.rindex("}") + 1])
        assert cfg["lr"] == 1 and cfg["dec_width"] is None and cfg["steps"] == 2  # --steps 2 overrides

    def test_variant_logged_in_config(self, tmp_path, capsys):
        assert run_pretrain(tmp_path / "zo", extra=["--variant", "zero-out"]) == 0
        out = capsys.readouterr().out
        cfg = json.loads(out[: out.rindex("}") + 1])
        assert cfg["variant"] == "zero-out"
        assert cfg["model"]["masking"] == "zero_out"
        on_disk = json.loads((tmp_path / "zo" / "config.json").read_text())
        assert on_disk["variant"] == "zero-out"

    def test_deterministic_metrics(self, tmp_path):
        assert run_pretrain(tmp_path / "r1") == 0
        assert run_pretrain(tmp_path / "r2") == 0
        assert (tmp_path / "r1" / "metrics.csv").read_bytes() == (tmp_path / "r2" / "metrics.csv").read_bytes()

    def test_config_listing_every_default_matches_no_config(self, tmp_path):
        out = tmp_path / "run"
        argv = ["pretrain", "--synth", "8", "--out", str(out)]
        assert main(argv) == 0
        want = {name: (out / name).read_bytes() for name in ("config.json", "metrics.csv", "final.ckpt")}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: default for key, (_, default, _) in PRETRAIN.items()}))
        assert main([*argv, "--config", str(cfg_file)]) == 0
        assert {name: (out / name).read_bytes() for name in want} == want

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"batch": 4, "seed": 9, "epochs": 1}))
        code = main(["pretrain", "--synth", "12", "--out", str(tmp_path / "cf"),
                     "--config", str(cfg_file), "--steps", "1", "--image-size", "16",
                     "--patch", "8", "--stages", "2", "--widths", "4,8", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        cfg = json.loads(out[: out.rindex("}") + 1])
        assert cfg["batch"] == 4  # from file
        assert cfg["seed"] == 5  # flag overrides file

    def test_data_dir_input_not_mutated(self, tmp_path):
        from sparsemim.data import synth_dataset

        data_dir = tmp_path / "imgs"
        synth_dataset(8, 16, seed=1).materialize(data_dir)
        before = {f: (data_dir / f).read_bytes() for f in os.listdir(data_dir)}
        code = main(["pretrain", "--data", str(data_dir), "--out", str(tmp_path / "dd"), *TINY])
        assert code == 0
        after = {f: (data_dir / f).read_bytes() for f in os.listdir(data_dir)}
        assert before == after

    # LAMB's trust ratio bounds a weight-decay step by the weight's own norm, so a
    # huge decay leaves the float32 range only under Adam
    @pytest.mark.parametrize("argv", [["--lr", "1e300"], ["--optimizer", "adam", "--weight-decay", "1e300"]])
    def test_update_beyond_float32_range_writes_no_checkpoint(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        assert main(["pretrain", "--synth", "8", "--steps", "1", "--image-size", "32", "--patch", "16",
                     "--batch", "4", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "not finite in float32" in err and "Traceback" not in err
        assert not (out / "final.ckpt").exists()

    def test_images_smaller_than_the_crop_rejected_before_any_write(self, tmp_path, capsys):
        from sparsemim.data import synth_dataset

        data, out = tmp_path / "small", tmp_path / "bad"
        synth_dataset(4, 32, seed=1).materialize(data)
        assert main(["pretrain", "--data", str(data), "--image-size", "64", "--patch", "16", "--batch", "4",
                     "--steps", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "image 32x32 smaller than the 64x64 training crop" in err and "Traceback" not in err
        assert not out.exists()

    def test_lamb_steps_when_the_update_norm_overflows(self, tmp_path, capsys):
        # a weight decay of 1e300 overflows the sum of squares of each decayed
        # tensor's update; the trust ratio still scales its step to lr * ||p||
        out = tmp_path / "run"
        assert main(["pretrain", "--synth", "8", "--steps", "1", "--image-size", "32", "--patch", "16",
                     "--batch", "4", "--lr", "0.01", "--weight-decay", "1e300", "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        cfg = json.loads((out / "config.json").read_text())
        init = SparkModel(SparkConfig.from_dict(cfg["model"]), np.random.default_rng(np.random.SeedSequence([0, 1])))
        arrays = load_checkpoint(out / "final.ckpt", model_only=True).arrays
        for name in sorted(init.decay):
            p = init.params[name].data
            assert np.linalg.norm(arrays[name] - p) == pytest.approx(0.01 * np.linalg.norm(p), rel=1e-3), name

    # Each size makes its first dependent array larger than 128 TiB, beyond any
    # address space, so numpy refuses it without touching memory.
    @pytest.mark.parametrize("argv", [["--image-size", "4194304"],  # a 1.5 PiB batch
                                      ["--stages", "2", "--widths", "4,10000000000000"]])  # a 1.1 PiB weight
    def test_size_the_machine_cannot_allocate_rejected_before_any_write(self, tmp_path, capsys, argv):
        out = tmp_path / "bad"
        assert main(["pretrain", "--synth", "8", "--steps", "1", "--patch", "16", "--batch", "4", *argv,
                     "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture()
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run_pretrain(out) == 0
    return out


class TestReconstruct:
    def test_outputs_and_composite_exactness(self, trained, tmp_path):
        img_path = tmp_path / "in.ppm"
        save_ppm(img_path, np.random.default_rng(0).random((3, 16, 16)))
        out = tmp_path / "rec"
        code = main(["reconstruct", "--ckpt", str(trained / "final.ckpt"),
                     "--image", str(img_path), "--out", str(out), "--seed", "4"])
        assert code == 0
        for name in ("masked_input.ppm", "reconstruction.ppm", "composite.ppm"):
            assert (out / name).exists()
            assert load_ppm(out / name).shape == (3, 16, 16)
        ckpt = load_checkpoint(trained / "final.ckpt")
        model, _ = model_from_checkpoint(ckpt)
        ratio = ckpt.config["train"]["mask_ratio"]
        mask = generate_mask(2, 2, ratio, np.random.default_rng(4), patch_size=8)
        mm = masked_pixel_map(mask)
        original = load_ppm(img_path)
        composite = load_ppm(out / "composite.ppm")
        np.testing.assert_array_equal(composite[:, ~mm], original[:, ~mm])
        np.testing.assert_array_equal(composite[:, mm], load_ppm(out / "reconstruction.ppm")[:, mm])
        masked_in = load_ppm(out / "masked_input.ppm")
        assert np.all(masked_in[:, mm] == 0.0)

    def test_builds_no_training_targets(self, trained, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reconstruct built training targets")

        monkeypatch.setattr(model_module, "per_patch_normalize", refuse)
        save_ppm(tmp_path / "in.ppm", np.random.default_rng(0).random((3, 16, 16)))
        assert main(["reconstruct", "--ckpt", str(trained / "final.ckpt"), "--image", str(tmp_path / "in.ppm"),
                     "--out", str(tmp_path / "rec")]) == 0

    def test_missing_ckpt_is_error(self, tmp_path):
        code = main(["reconstruct", "--ckpt", str(tmp_path / "nope.ckpt"),
                     "--image", str(tmp_path / "x.ppm"), "--out", str(tmp_path / "o")])
        assert code != 0

    def test_training_improves_masked_mse(self, tmp_path):
        from sparsemim.data import synth_dataset

        img_path = tmp_path / "probe.ppm"
        save_ppm(img_path, synth_dataset(40, 32, seed=6).pixels(39))
        args = ["--synth", "32", "--epochs", "10", "--batch", "4", "--image-size", "32",
                "--patch", "8", "--stages", "2", "--widths", "8,16", "--seed", "3",
                "--lr", "0.015"]

        def masked_mse(run_out, rec_out):
            assert main(["reconstruct", "--ckpt", str(run_out / "final.ckpt"),
                         "--image", str(img_path), "--out", str(rec_out),
                         "--mask-ratio", "0.6", "--seed", "11"]) == 0
            mask = generate_mask(4, 4, 0.6, np.random.default_rng(11), patch_size=8)
            mm = masked_pixel_map(mask)
            rec = load_ppm(rec_out / "reconstruction.ppm")
            orig = load_ppm(img_path)
            return float(((rec[:, mm] - orig[:, mm]) ** 2).mean())

        assert main(["pretrain", "--out", str(tmp_path / "t0"), "--steps", "1", *args]) == 0
        assert main(["pretrain", "--out", str(tmp_path / "t1"), "--steps", "60", *args]) == 0
        before = masked_mse(tmp_path / "t0", tmp_path / "r0")
        after = masked_mse(tmp_path / "t1", tmp_path / "r1")
        assert after < before

    def test_smoke_default_recipe(self, tmp_path):
        # the documented smoke invocation at package defaults
        out = tmp_path / "smoke"
        assert main(["pretrain", "--synth", "256", "--epochs", "2", "--batch", "8",
                     "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "step,lr,loss" and len(lines) == 1 + 2 * (256 // 8)


def test_malformed_checkpoint_header_exits_2(tmp_path, capsys):
    blob = json.dumps({"config": {"kind": "spark"}}).encode("utf-8")  # no manifest
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(b"SPRK" + struct.pack("<I", 1) + struct.pack("<Q", len(blob)) + blob)
    img = tmp_path / "x.ppm"
    save_ppm(img, np.zeros((3, 16, 16)))
    assert main(["convert", "--ckpt", str(ckpt), "--out", str(tmp_path / "enc.ckpt")]) == 2
    assert main(["reconstruct", "--ckpt", str(ckpt), "--image", str(img), "--out", str(tmp_path / "o")]) == 2
    assert "no 'manifest'" in capsys.readouterr().err


@pytest.mark.parametrize("train", [[], {"mask_ratio": "0.5"}, {"mask_ratio": None}, {"mask_ratio": 1.0},
                                   {"mask_ratio": True}])
def test_reconstruct_malformed_train_section_exits_2(trained, tmp_path, capsys, train):
    ck = load_checkpoint(trained / "final.ckpt")
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, ck.arrays, {**ck.config, "train": train})
    img = tmp_path / "x.ppm"
    save_ppm(img, np.zeros((3, 16, 16)))
    assert main(["reconstruct", "--ckpt", str(bad), "--image", str(img), "--out", str(tmp_path / "o")]) == 2
    assert "train" in capsys.readouterr().err


def test_non_finite_model_array_exits_2_and_writes_nothing(trained, tmp_path, capsys):
    ckpt = trained / "final.ckpt"
    data = bytearray(ckpt.read_bytes())
    hlen = struct.unpack("<Q", data[8:16])[0]
    entry = next(e for e in json.loads(data[16 : 16 + hlen])["manifest"] if e["name"] == "encoder.stem.w")
    at = 16 + hlen + entry["offset"]
    data[at : at + 4] = struct.pack("<f", float("nan"))
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(bytes(data))
    img = tmp_path / "x.ppm"
    save_ppm(img, np.zeros((3, 16, 16)))
    assert main(["reconstruct", "--ckpt", str(bad), "--image", str(img), "--out", str(tmp_path / "o")]) == 2
    assert main(["convert", "--ckpt", str(bad), "--out", str(tmp_path / "enc.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.count("'encoder.stem.w' holds a non-finite value") == 2 and "Traceback" not in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "enc.ckpt").exists()


def test_reconstruct_ratio0_reports_no_masked_patch(trained, tmp_path, capsys):
    img = tmp_path / "x.ppm"
    save_ppm(img, np.random.default_rng(0).random((3, 16, 16)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["reconstruct", "--ckpt", str(trained / "final.ckpt"), "--image", str(img),
                     "--out", str(tmp_path / "o"), "--mask-ratio", "0"]) == 0
    out = capsys.readouterr().out
    assert "no patch masked" in out and "nan" not in out
    # 0.9 hides all 4 patches of the 2x2 grid: rejected before the out directory is made
    assert main(["reconstruct", "--ckpt", str(trained / "final.ckpt"), "--image", str(img),
                 "--out", str(tmp_path / "bad"), "--mask-ratio", "0.9"]) == 1
    assert "rounds to 4" in capsys.readouterr().err and not (tmp_path / "bad").exists()


@pytest.mark.parametrize("image", ["missing", "malformed", "too-small"])
def test_reconstruct_bad_image_rejected_before_any_write(trained, tmp_path, capsys, image):
    img = tmp_path / "x.ppm"
    if image == "malformed":
        img.write_bytes(b"P5\n16 16\n255\n" + bytes(256))
    elif image == "too-small":
        save_ppm(img, np.zeros((3, 8, 16)))
    out = tmp_path / "o"
    assert main(["reconstruct", "--ckpt", str(trained / "final.ckpt"), "--image", str(img), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sparsemim reconstruct: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["reconstruct --image dir", "reconstruct --ckpt dir", "pretrain --data file",
                                  "pretrain --out file", "reconstruct --out file", "convert --out dir"])
def test_path_of_the_wrong_kind_is_a_usage_error(trained, tmp_path, capsys, case):
    img, a_dir, a_file = tmp_path / "x.ppm", tmp_path / "dir", tmp_path / "file"
    save_ppm(img, np.zeros((3, 16, 16)))
    a_dir.mkdir()
    a_file.write_bytes(b"kept")
    ckpt, out = str(trained / "final.ckpt"), str(tmp_path / "o")
    argv = {
        "reconstruct --image dir": ["reconstruct", "--ckpt", ckpt, "--image", str(a_dir), "--out", out],
        "reconstruct --ckpt dir": ["reconstruct", "--ckpt", str(a_dir), "--image", str(img), "--out", out],
        "pretrain --data file": ["pretrain", "--data", str(img), "--out", out, *TINY],
        "pretrain --out file": ["pretrain", "--synth", "12", "--out", str(a_file), *TINY],
        "reconstruct --out file": ["reconstruct", "--ckpt", ckpt, "--image", str(img), "--out", str(a_file)],
        "convert --out dir": ["convert", "--ckpt", ckpt, "--out", str(a_dir)],
    }[case]
    before = sorted(os.listdir(tmp_path))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sparsemim {argv[0]}: ") and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == before and not os.listdir(a_dir) and a_file.read_bytes() == b"kept"


@pytest.mark.parametrize("case", ["convert --out ./ckpt", "reconstruct --image composite",
                                  "reconstruct --image link", "pretrain --config"])
def test_command_refuses_to_write_over_its_input(trained, tmp_path, capsys, case):
    ckpt, img, rec = tmp_path / "c.ckpt", tmp_path / "x.ppm", tmp_path / "rec"
    ckpt.write_bytes((trained / "final.ckpt").read_bytes())
    save_ppm(img, np.random.default_rng(0).random((3, 16, 16)))
    assert main(["reconstruct", "--ckpt", str(ckpt), "--image", str(img), "--out", str(rec)]) == 0
    os.symlink(rec / "composite.ppm", tmp_path / "link.ppm")
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "config.json").write_text(json.dumps({"steps": 1}))
    argv = {
        "convert --out ./ckpt": ["convert", "--ckpt", str(ckpt), "--out", os.path.join(tmp_path, ".", "c.ckpt")],
        "reconstruct --image composite": ["reconstruct", "--ckpt", str(ckpt), "--image", str(rec / "composite.ppm"),
                                          "--out", str(rec)],
        "reconstruct --image link": ["reconstruct", "--ckpt", str(ckpt), "--image", str(tmp_path / "link.ppm"),
                                     "--out", os.path.join(rec, ".")],
        "pretrain --config": ["pretrain", "--synth", "12", "--config", str(tmp_path / "run" / "config.json"),
                              "--out", str(tmp_path / "run"), *TINY],
    }[case]
    capsys.readouterr()
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sparsemim {argv[0]}: ") and "refusing to write over it" in err and "Traceback" not in err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def test_reconstruct_without_train_section_uses_0_6(trained, tmp_path, capsys):
    ck = load_checkpoint(trained / "final.ckpt")
    path = tmp_path / "no_train.ckpt"
    save_checkpoint(path, ck.arrays, {k: v for k, v in ck.config.items() if k != "train"})
    img = tmp_path / "x.ppm"
    save_ppm(img, np.zeros((3, 16, 16)))
    assert main(["reconstruct", "--ckpt", str(path), "--image", str(img), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[: out.rindex("}") + 1])["mask_ratio"] == 0.6


class TestConvert:
    def test_round_trip_matches_sparse_ratio0(self, trained, tmp_path):
        enc_path = tmp_path / "enc.ckpt"
        assert main(["convert", "--ckpt", str(trained / "final.ckpt"), "--out", str(enc_path)]) == 0
        ck = load_checkpoint(enc_path)
        assert ck.config["kind"] == "dense_encoder"
        assert not any(n.startswith(("decoder.", "proj.", "embed.")) for n in ck.arrays)
        dense = dense_encoder_from_checkpoint(ck)

        model, _ = model_from_checkpoint(load_checkpoint(trained / "final.ckpt"))
        # align precision: the sparse model reloaded from the same f32 arrays
        img = np.random.default_rng(1).random((1, 3, 16, 16))
        mask0 = generate_mask(2, 2, 0.0, np.random.default_rng(2), patch_size=8)
        with ag.no_grad():
            sparse_feats = encoder_forward(model, img, mask0, mode="eval")
            dense_feats = dense.forward(img, mode="eval")
        for sp, fd in zip(sparse_feats, dense_feats):
            ref = fd.data[0][:, sp.coords[:, 0], sp.coords[:, 1]].T
            assert np.abs(sp.features.data - ref).max() < 1e-6

    def test_reload_round_trip_bytes(self, trained, tmp_path):
        p1, p2 = tmp_path / "e1.ckpt", tmp_path / "e2.ckpt"
        assert main(["convert", "--ckpt", str(trained / "final.ckpt"), "--out", str(p1)]) == 0
        ck = load_checkpoint(p1)
        save_checkpoint(p2, ck.arrays, ck.config)
        assert p1.read_bytes() == p2.read_bytes()


class TestFlops:
    def test_csv_schema_and_ratio0(self, capsys):
        assert main(["flops", "--image-size", "32", "--patch", "8", "--mask-ratio", "0.0",
                     "--stages", "2", "--widths", "4,8"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "layer,scale,sparse_macs,dense_macs,ratio"
        rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
        for r in rows:
            assert set(r) == {"layer", "scale", "sparse_macs", "dense_macs", "ratio"}
            if "block" in r["layer"]:
                assert r["sparse_macs"] != "0"
        # ratio 0 mask: fully active; submanifold layers differ from dense
        # only by the zero-padding boundary taps
        conv = [r for r in rows if r["layer"] == "stage0.block0.conv0"][0]
        g = 32 // 8 * 2  # image 32, stem stride 4 -> 8x8 grid
        expected = ((3 * g - 2) ** 2) / (g * g * 9)
        assert float(conv["ratio"]) == pytest.approx(expected, abs=1e-6)

    def test_writes_csv_file(self, tmp_path, capsys):
        assert main(["flops", "--image-size", "32", "--patch", "8", "--stages", "2",
                     "--widths", "4,8", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "flops.csv").read_text()
        assert text.startswith("layer,scale,sparse_macs,dense_macs,ratio")

    def test_encoder_whose_width_cannot_feed_a_decoder(self, capsys):
        # the table counts encoder MACs only, so a deepest width of 8 that cannot
        # halve log2(32) = 5 times into a decoder is no reason to refuse it
        assert main(["flops", "--image-size", "64", "--patch", "32", "--stages", "4", "--widths", "4,8,16,8"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        enc = EncoderConfig(stages=4, widths=(4, 8, 16, 8))
        assert [line.split(",")[0] for line in lines[1:]] == [layer.name for layer in encoder_layers(enc)]

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("down_kernel", [2, 3])
    def test_layers_follow_blocks_and_down_kernel(self, capsys, blocks, down_kernel):
        assert main(["flops", "--image-size", "64", "--patch", "16", "--stages", "3", "--widths", "4,8,16",
                     "--blocks", str(blocks), "--down-kernel", str(down_kernel)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        enc = EncoderConfig(stages=3, widths=(4, 8, 16), blocks_per_stage=blocks, down_kernel=down_kernel)
        assert [line.split(",")[0] for line in lines[1:]] == [layer.name for layer in encoder_layers(enc)]


class TestVerify:
    def test_single_suite(self, capsys):
        assert main(["verify", "--suite", "erosion"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] erosion" in out and "zero_cells" in out

    def test_all_suites_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert all(f"[PASS] {name}" in out for name in ("erosion", "gradcheck", "leakage", "oracle"))

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "--suite", "bogus"]) == 1


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_missing_required(self):
        assert main(["pretrain", "--synth", "4"]) == 1

    def test_widths_stage_mismatch(self, tmp_path, capsys):
        # non-positive sizes are usage errors too, not a division by zero or a silent run
        for argv, word in [(["--stages", "3", "--widths", "4,8", "--image-size", "16", "--patch", "8"], "widths"),
                           (["--patch", "0"], "patch size"), (["--widths", "0,16,32"], "widths"),
                           (["--batch", "0"], "batch size"), (["--blocks", "-1"], "blocks_per_stage"),
                           (["--image-size", "0"], "image size")]:
            assert main(["pretrain", "--synth", "8", "--out", str(tmp_path / "x"), *argv]) == 1, argv
            assert word in capsys.readouterr().err, argv
        for argv, word in [(["--patch", "0"], "patch size"), (["--widths", "0,16,32"], "widths")]:
            assert main(["flops", *argv]) == 1, argv
            assert word in capsys.readouterr().err, argv

    @pytest.mark.parametrize("argv,msg", [
        (["flops", "--stages", "0"], "--stages must be at least 1, got 0"),
        (["flops", "--stages", "-1"], "--stages must be at least 1, got -1"),
        (["pretrain", "--synth", "4", "--stages", "0"], "--stages must be at least 1, got 0"),
        (["flops", "--stages", "3", "--widths", "16,x,64"], "--widths entry 'x' is not an integer"),
        (["pretrain", "--synth", "4", "--widths", "16,x,64"], "--widths entry 'x' is not an integer"),
    ])
    def test_stage_count_and_width_entry_named(self, tmp_path, capsys, argv, msg):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert msg in err and "Traceback" not in err
        assert not out.exists()
