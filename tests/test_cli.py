"""CLI surface tests: exit codes, artifact layout, config echo, determinism."""

import json
import os
import struct
import warnings

import numpy as np
import pytest

from sparsemim import autograd as ag
from sparsemim.cli import main
from sparsemim.data import load_ppm, save_ppm
from sparsemim.masking import generate_mask, masked_pixel_map
from sparsemim.model import EncoderConfig, encoder_forward, encoder_layers
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
        lines = (tmp_path / "run" / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "step,lr,loss" and len(lines) == 3

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
