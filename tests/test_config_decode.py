"""Config decoding from dataclass fields, and typed errors for malformed checkpoints."""

import json

import numpy as np
import pytest

from sparsemim import autograd as ag
from sparsemim.cli import VARIANTS, main
from sparsemim.data import save_ppm
from sparsemim.model import EncoderConfig, SparkConfig, SparkModel
from sparsemim.training import (
    CheckpointError,
    OptimizerState,
    TrainConfig,
    dense_encoder_from_checkpoint,
    load_checkpoint,
    model_checkpoint_arrays,
    model_from_checkpoint,
    save_checkpoint,
)


def tiny_model(**flags):
    enc = EncoderConfig(stages=2, widths=(4, 8))
    return SparkModel(SparkConfig(encoder=enc, image_size=16, patch_size=8, dec_fea_dim=8, **flags),
                      np.random.default_rng(0))


def spark_header(model):
    return {"kind": "spark", "model": model.cfg.to_dict(), "train": TrainConfig(batch_size=4).to_dict(),
            "step": 1, "opt_t": 1}


def write_spark(path, model, arrays=None, header=None):
    opt = OptimizerState([p.shape for p in model.params.values()])
    arrays = model_checkpoint_arrays(model, opt) if arrays is None else arrays
    save_checkpoint(path, arrays, spark_header(model) if header is None else header)
    return path


class TestRoundTrip:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("down_kernel", [2, 3])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_asdict_json_from_dict(self, variant, down_kernel, blocks):
        enc = EncoderConfig(stages=2, widths=(4, 8), blocks_per_stage=blocks, down_kernel=down_kernel)
        cfg = SparkConfig(encoder=enc, image_size=16, patch_size=8, dec_fea_dim=8, **VARIANTS[variant])
        assert SparkConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_train_config_serializes_its_fields(self):
        d = TrainConfig(batch_size=4).to_dict()
        assert set(d) == {"epochs", "batch_size", "lr_peak", "weight_decay", "optimizer", "seed",
                          "max_steps", "mask_ratio"}


class TestLegacyHeaders:
    LEGACY = {"stem_stride": 4, "stage_stride": 2}

    def test_model_checkpoint(self, tmp_path):
        model = tiny_model()
        header = spark_header(model)
        header["model"]["encoder"].update(self.LEGACY)
        loaded, _ = model_from_checkpoint(load_checkpoint(write_spark(tmp_path / "m.ckpt", model, header=header)))
        assert loaded.cfg == model.cfg

    def test_dense_checkpoint(self, tmp_path):
        src, out = write_spark(tmp_path / "m.ckpt", tiny_model(ape=True)), tmp_path / "enc.ckpt"
        assert main(["convert", "--ckpt", str(src), "--out", str(out)]) == 0
        ck = load_checkpoint(out)
        ck.config["encoder"].update(self.LEGACY)
        dense = dense_encoder_from_checkpoint(ck)
        assert dense.cfg == EncoderConfig(stages=2, widths=(4, 8))
        assert "ape" in dense.params and dense.state_arrays().keys() == ck.arrays.keys()

    @pytest.mark.parametrize("change", [{"stem_stride": 8}, {"stage_stride": 3}, {"pad": 1}, {"down_kernel": None}],
                             ids=["stem_stride_8", "stage_stride_3", "unknown_key", "missing_key"])
    def test_bad_encoder_keys_rejected(self, tmp_path, change):
        model = tiny_model()
        header = spark_header(model)
        enc = {k: v for k, v in {**header["model"]["encoder"], **change}.items() if v is not None}
        header["model"]["encoder"] = enc
        ck = load_checkpoint(write_spark(tmp_path / "m.ckpt", model, header=header))
        with pytest.raises(CheckpointError, match="encoder|EncoderConfig"):
            model_from_checkpoint(ck)
        dense = {"kind": "dense_encoder", "encoder": enc, "ape": False, "image_size": 16}
        save_checkpoint(tmp_path / "d.ckpt", {}, dense)
        with pytest.raises(CheckpointError, match="encoder|EncoderConfig"):
            dense_encoder_from_checkpoint(load_checkpoint(tmp_path / "d.ckpt"))

    def test_unknown_model_key_rejected(self, tmp_path):
        model = tiny_model()
        header = spark_header(model)
        header["model"]["mask_mode"] = "sparse"
        with pytest.raises(CheckpointError, match="unknown keys \\['mask_mode'\\]"):
            model_from_checkpoint(load_checkpoint(write_spark(tmp_path / "m.ckpt", model, header=header)))


def test_mean_over_rejects_axes():
    # the loss's mean over a selection: mse's ``over`` is a boolean mask, never axes or a float array
    x = ag.tensor(np.ones((2, 3)))
    for over in ((0, 1), 0, np.ones((2, 3))):
        with pytest.raises(ValueError, match="boolean mask"):
            ag.mse(x, np.zeros((2, 3)), over=over)


class TestMalformedCheckpointExits2:
    @pytest.fixture()
    def image(self, tmp_path):
        save_ppm(tmp_path / "x.ppm", np.random.default_rng(0).random((3, 16, 16)))
        return tmp_path / "x.ppm"

    def _exit_codes(self, tmp_path, image, ckpt):
        rec = main(["reconstruct", "--ckpt", str(ckpt), "--image", str(image), "--out", str(tmp_path / "r")])
        conv = main(["convert", "--ckpt", str(ckpt), "--out", str(tmp_path / "enc.ckpt")])
        return rec, conv

    def _without(self, tmp_path, name):
        model = tiny_model()
        arrays = model_checkpoint_arrays(model, OptimizerState([p.shape for p in model.params.values()]))
        del arrays[name]
        return write_spark(tmp_path / "m.ckpt", model, arrays=arrays)

    @pytest.mark.parametrize("name", ["decoder.proj.b", "encoder.stem.bn.running_var", "opt.v.decoder.proj.w"])
    def test_missing_array(self, tmp_path, image, capsys, name):
        ckpt = self._without(tmp_path, name)
        assert self._exit_codes(tmp_path, image, ckpt) == (2, 2)
        assert f"no array {name!r}" in capsys.readouterr().err

    def test_misshaped_array(self, tmp_path, image, capsys):
        model = tiny_model()
        # a model array, and an optimizer moment that reconstruct and convert do not decode
        for opt, name in [(None, "encoder.stem.w"),
                          (OptimizerState([p.shape for p in model.params.values()]), "opt.m.encoder.stem.w")]:
            arrays = model_checkpoint_arrays(model, opt)
            arrays[name] = arrays[name][:2]
            ckpt = write_spark(tmp_path / "m.ckpt", model, arrays=arrays)
            assert self._exit_codes(tmp_path, image, ckpt) == (2, 2)
            assert f"{name!r} has shape [2, 3, 4, 4], expected [4, 3, 4, 4]" in capsys.readouterr().err

    def test_truncated_in_optimizer_region(self, tmp_path, image, capsys):
        model = tiny_model()
        arrays = model_checkpoint_arrays(model, OptimizerState([p.shape for p in model.params.values()]))
        opt_bytes = 4 * sum(a.size for n, a in arrays.items() if n.startswith("opt."))  # the last arrays written
        raw = write_spark(tmp_path / "m.ckpt", model, arrays=arrays).read_bytes()
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes(raw[: len(raw) - opt_bytes // 2])
        assert self._exit_codes(tmp_path, image, ckpt) == (2, 2)
        assert "truncated checkpoint: array 'opt." in capsys.readouterr().err

    @pytest.mark.parametrize("extra", ["an unknown array", "second moments without first"])
    def test_unexpected_array(self, tmp_path, image, capsys, extra):
        model = tiny_model()
        arrays = model_checkpoint_arrays(model, OptimizerState([p.shape for p in model.params.values()]))
        if extra == "an unknown array":
            arrays["encoder.extra"] = np.zeros(3)
        else:
            arrays = {n: a for n, a in arrays.items() if not n.startswith("opt.m.")}
        ckpt = write_spark(tmp_path / "m.ckpt", model, arrays=arrays)
        with pytest.raises(CheckpointError, match="unexpected arrays"):
            model_from_checkpoint(load_checkpoint(ckpt))
        assert self._exit_codes(tmp_path, image, ckpt) == (2, 2)
        assert "unexpected arrays" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [{"dec_fea_dim": 0}, {"encoder": {"widths": [4, 10 ** 6]}}],
                             ids=["decoder_width_0", "width_too_large_to_allocate"])
    def test_model_config_no_store_can_hold(self, tmp_path, image, capsys, change):
        model = tiny_model()
        header = spark_header(model)
        for key, value in change.items():
            header["model"][key] = {**header["model"][key], **value} if isinstance(value, dict) else value
        ckpt = write_spark(tmp_path / "m.ckpt", model, header=header)
        assert self._exit_codes(tmp_path, image, ckpt) == (2, 2)
        assert "bad model config in checkpoint" in capsys.readouterr().err

    def test_model_config_without_image_size(self, tmp_path, image, capsys):
        model = tiny_model()
        header = spark_header(model)
        del header["model"]["image_size"]
        ckpt = write_spark(tmp_path / "m.ckpt", model, header=header)
        assert self._exit_codes(tmp_path, image, ckpt) == (2, 2)
        assert "missing keys ['image_size']" in capsys.readouterr().err


class TestDenseLoader:
    @pytest.fixture()
    def converted(self, tmp_path):
        src, out = write_spark(tmp_path / "m.ckpt", tiny_model()), tmp_path / "enc.ckpt"
        assert main(["convert", "--ckpt", str(src), "--out", str(out)]) == 0
        return load_checkpoint(out)

    @staticmethod
    def _file_with(ck, arrays, path):
        """``ck`` written with ``arrays`` in place of its own, and read back."""
        save_checkpoint(path, arrays, ck.config)
        return load_checkpoint(path)

    @pytest.mark.parametrize("name", ["encoder.stem.bn.running_var", "encoder.stage1.down.w",
                                      "encoder.stage1.block0.bn1.gamma"])
    def test_missing_array(self, converted, tmp_path, name):
        arrays = {n: a for n, a in converted.arrays.items() if n != name}
        with pytest.raises(CheckpointError, match=f"no array '{name}'"):
            dense_encoder_from_checkpoint(self._file_with(converted, arrays, tmp_path / "edited.ckpt"))

    def test_misshaped_and_unexpected_arrays(self, converted, tmp_path):
        arrays = dict(converted.arrays)
        good = arrays["encoder.stage0.block0.conv0.w"]
        arrays["encoder.stage0.block0.conv0.w"] = good[:, :, :2]
        with pytest.raises(CheckpointError, match="has shape"):
            dense_encoder_from_checkpoint(self._file_with(converted, arrays, tmp_path / "edited.ckpt"))
        arrays["encoder.stage0.block0.conv0.w"] = good
        arrays["ape"] = np.zeros((1, 4, 4, 4))  # the header says ape is off
        with pytest.raises(CheckpointError, match="unexpected arrays \\['ape'\\]"):
            dense_encoder_from_checkpoint(self._file_with(converted, arrays, tmp_path / "edited.ckpt"))

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_array(self, converted, value):
        name = "encoder.stage1.block0.bn1.running_var"
        converted.arrays[name] = converted.arrays[name].copy()
        converted.arrays[name][0] = value
        with pytest.raises(CheckpointError, match=f"'{name}' holds a non-finite value"):
            dense_encoder_from_checkpoint(converted)

    def test_width_too_large_to_allocate(self, converted):
        converted.config["encoder"]["widths"] = [4, 10 ** 6]
        with pytest.raises(CheckpointError, match="bad encoder config in checkpoint"):
            dense_encoder_from_checkpoint(converted)

    @pytest.mark.parametrize("size", [None, "16", True, -4])
    def test_ape_without_a_usable_image_size(self, tmp_path, size):
        src, out = write_spark(tmp_path / "m.ckpt", tiny_model(ape=True)), tmp_path / "enc.ckpt"
        assert main(["convert", "--ckpt", str(src), "--out", str(out)]) == 0
        ck = load_checkpoint(out)
        ck.config["image_size"] = size
        with pytest.raises(CheckpointError, match="image_size"):
            dense_encoder_from_checkpoint(ck)

    def test_ape_loads_from_either_manifest_order(self, tmp_path):
        src, out = write_spark(tmp_path / "m.ckpt", tiny_model(ape=True)), tmp_path / "enc.ckpt"
        assert main(["convert", "--ckpt", str(src), "--out", str(out)]) == 0
        ck = load_checkpoint(out)
        names = list(ck.arrays)
        assert names.index("ape") == names.index("encoder.stem.bn.beta") + 1
        ck.arrays["ape"] = np.random.default_rng(1).random(ck.arrays["ape"].shape)
        # the older order: every parameter, then ape, then the running stats
        params = [n for n in names if n != "ape" and not n.endswith(("running_mean", "running_var"))]
        older = {n: ck.arrays[n] for n in [*params, "ape", *names[len(params) + 1:]]}
        assert list(older) != names and set(older) == set(names)
        save_checkpoint(tmp_path / "new.ckpt", ck.arrays, ck.config)
        save_checkpoint(tmp_path / "old.ckpt", older, ck.config)
        img = np.random.default_rng(2).random((1, 3, 16, 16))
        with ag.no_grad():
            new, old = (dense_encoder_from_checkpoint(load_checkpoint(tmp_path / f"{k}.ckpt")).forward(img)
                        for k in ("new", "old"))
            for a, b in zip(new, old, strict=True):
                np.testing.assert_array_equal(a.data, b.data)
