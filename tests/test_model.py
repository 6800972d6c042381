"""Model tests: decoder conformance, encoder geometry, dense conversion,
projection/densify gradients, loss selection, leak guard, ablation wiring."""

import hashlib

import numpy as np
import pytest

from sparsemim import autograd as ag
from sparsemim.masking import PatchMask, generate_mask, masked_pixel_map, per_patch_normalize
from sparsemim.model import (
    EncoderConfig,
    SparkConfig,
    SparkModel,
    decoder_forward,
    encoder_flops_table,
    encoder_forward,
    encoder_layers,
    project_and_densify,
    spark_forward,
    spark_loss,
)
from sparsemim.verify import end_to_end_gradcheck

from gradtools import backprop, mean_square


def tiny_model(stages=2, widths=(4, 8), image=16, patch=8, dec=8, seed=5, **flags):
    enc = EncoderConfig(stages=stages, widths=widths, blocks_per_stage=1)
    cfg = SparkConfig(encoder=enc, image_size=image, patch_size=patch, dec_fea_dim=dec, **flags)
    return SparkModel(cfg, np.random.default_rng(seed))


def decoder_channels(fea, stages):
    """The decoder widths of a SparkConfig with ``stages`` encoder stages and ``dec_fea_dim=fea``."""
    return SparkConfig(encoder=EncoderConfig(stages=stages, widths=(4,) * stages), dec_fea_dim=fea).decoder_channels


class TestDecoderConfig:
    def test_reference_channel_list(self):
        assert decoder_channels(768, 4) == [768, 384, 192, 96, 48, 24]
        assert len(decoder_channels(768, 4)) - 1 == 5

    def test_small_ratios(self):
        assert decoder_channels(64, 1) == [64, 32, 16]
        assert len(decoder_channels(64, 1)) - 1 == 2

    @pytest.mark.parametrize("ratio", [4, 8, 16, 32])
    def test_formula_all_ratios(self, ratio):
        import math

        fea = 64
        n = int(math.log2(ratio))
        chans = decoder_channels(fea, n - 1)  # total stride 4 * 2**(stages - 1)
        assert len(chans) - 1 == n
        assert chans == [fea // 2 ** i for i in range(n + 1)]


class TestDecoderForward:
    def test_output_shapes_all_ratios(self):
        rng = np.random.default_rng(0)
        for stages, widths, image, patch in [(1, (8,), 8, 4), (2, (4, 8), 16, 8),
                                             (3, (4, 8, 8), 32, 16), (4, (4, 4, 8, 8), 64, 32)]:
            model = tiny_model(stages=stages, widths=widths, image=image, patch=patch, dec=32)
            chans = model.cfg.decoder_channels
            assert 2 ** (len(chans) - 1) == model.cfg.encoder.total_stride
            deep = image // model.cfg.encoder.total_stride
            x = ag.tensor(rng.normal(size=(1, chans[0], deep, deep)))
            to_dec = [x] + [None] * (len(chans) - 2)
            out = decoder_forward(model, to_dec, mode="eval")
            assert out.shape == (1, 3, image, image)

    def test_hierarchy_off_input_list_runs(self):
        model = tiny_model(dec=16)
        chans = model.cfg.decoder_channels
        rng = np.random.default_rng(1)
        x = ag.tensor(rng.normal(size=(2, chans[0], 2, 2)))
        out = decoder_forward(model, [x, None, None], mode="eval")
        assert out.shape == (2, 3, 16, 16)

    def test_missing_deepest_rejected(self):
        model = tiny_model(dec=16)
        with pytest.raises(ValueError, match="to_dec\\[0\\]"):
            decoder_forward(model, [None, None, None])

    def test_channel_mismatch_rejected(self):
        model = tiny_model(dec=16)
        x = ag.tensor(np.zeros((1, 5, 2, 2)))
        with pytest.raises(ValueError, match="channels"):
            decoder_forward(model, [x, None, None])


class TestEncoderForward:
    def test_stage_resolutions_128px(self):
        enc = EncoderConfig(stages=4, widths=(4, 4, 8, 8))
        cfg = SparkConfig(encoder=enc, image_size=128, patch_size=32, dec_fea_dim=32)
        model = SparkModel(cfg, np.random.default_rng(2))
        img = np.random.default_rng(3).random((1, 3, 128, 128))
        mask = generate_mask(4, 4, 0.5, np.random.default_rng(4), patch_size=32)
        feats = encoder_forward(model, img, mask, mode="eval")
        assert [(f.height, f.width) for f in feats] == [(32, 32), (16, 16), (8, 8), (4, 4)]
        ag.active_tape().clear()

    def test_active_counts_match_mask(self):
        enc = EncoderConfig(stages=4, widths=(4, 4, 8, 8))
        cfg = SparkConfig(encoder=enc, image_size=224, patch_size=32, dec_fea_dim=32)
        model = SparkModel(cfg, np.random.default_rng(5))
        img = np.random.default_rng(6).random((1, 3, 224, 224))
        mask = generate_mask(7, 7, 0.6, np.random.default_rng(7), patch_size=32)
        assert mask.visible_count == 20
        with ag.no_grad():
            feats = encoder_forward(model, img, mask, mode="eval")
        for i, f in enumerate(feats):
            cells_per_patch = (32 // (4 * 2 ** i)) ** 2
            assert f.num_active == 20 * cells_per_patch

    @pytest.mark.parametrize("down_kernel", [2, 3])
    def test_batch_equals_per_sample_runs(self, down_kernel):
        enc = EncoderConfig(stages=3, widths=(4, 8, 8), blocks_per_stage=2, down_kernel=down_kernel)
        cfg = SparkConfig(encoder=enc, image_size=64, patch_size=16, dec_fea_dim=16, ape=True)
        model = SparkModel(cfg, np.random.default_rng(40))
        img = np.random.default_rng(41).random((3, 3, 64, 64))
        masks = [generate_mask(4, 4, r, np.random.default_rng(42 + i), patch_size=16)
                 for i, r in enumerate((0.25, 0.6, 0.9))]
        assert len({m.visible.tobytes() for m in masks}) == 3
        with ag.no_grad():
            batched = encoder_forward(model, img, masks, mode="eval")
            for b, mask in enumerate(masks):
                single = encoder_forward(model, img[b : b + 1], mask, mode="eval")
                for got, want in zip(batched, single):
                    rows = got.batch == b
                    assert (got.height, got.width) == (want.height, want.width)
                    assert np.array_equal(got.coords[rows], want.coords) and not want.batch.any()
                    np.testing.assert_allclose(got.features.data[rows], want.features.data, rtol=0, atol=1e-12)

    def test_batch_gradients_equal_sum_of_per_sample_runs(self):
        # overlapping masks: the shared ape is read at the same position by several samples
        enc = EncoderConfig(stages=3, widths=(4, 8, 8), blocks_per_stage=2, down_kernel=3)
        cfg = SparkConfig(encoder=enc, image_size=64, patch_size=16, dec_fea_dim=16, ape=True)
        model = SparkModel(cfg, np.random.default_rng(43))
        rng = np.random.default_rng(44)
        img = rng.random((3, 3, 64, 64))
        masks = [generate_mask(4, 4, r, np.random.default_rng(45 + i), patch_size=16)
                 for i, r in enumerate((0.25, 0.5, 0.5))]
        assert (masks[0].visible & masks[1].visible & masks[2].visible).any()
        with ag.no_grad():
            ref = encoder_forward(model, img, masks, mode="eval")
        weights = [rng.normal(size=sp.features.shape) for sp in ref]

        def backward(stages, b=None):
            # of the sum of features x weights; with b, a single-sample run takes the weights of sample b's rows
            backprop([sp.features for sp in stages],
                     [w if b is None else w[r.batch == b] for w, r in zip(weights, ref)])

        def grads():
            out = {name: p.grad.copy() for name, p in model.named_parameters() if p.grad is not None}
            model.zero_grad()
            return out

        backward(encoder_forward(model, img, masks, mode="eval"))
        batched = grads()
        summed = {}
        for b, mask in enumerate(masks):
            backward(encoder_forward(model, img[b : b + 1], mask, mode="eval"), b)
            for name, g in grads().items():
                summed[name] = summed.get(name, 0.0) + g
        assert batched.keys() == summed.keys() and "ape" in batched
        for name, g in batched.items():
            np.testing.assert_allclose(g, summed[name], rtol=0, atol=1e-12, err_msg=name)

    def test_divisibility_rejected(self):
        model = tiny_model()
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(8), patch_size=8)
        with pytest.raises(ValueError, match="divisible"):
            encoder_forward(model, np.zeros((1, 3, 20, 20)), mask)

    def test_all_masked_rejected(self):
        model = tiny_model()
        from sparsemim.masking import PatchMask

        mask = PatchMask(2, 2, 8, np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="no visible"):
            encoder_forward(model, np.zeros((1, 3, 16, 16)), mask)


class TestDenseConversion:
    def _compare(self, mode):
        model = tiny_model(stages=3, widths=(4, 8, 8), image=32, patch=16, dec=16, seed=11)
        img = np.random.default_rng(12).random((2, 3, 32, 32))
        mask0 = generate_mask(2, 2, 0.0, np.random.default_rng(13), patch_size=16)
        with ag.no_grad():
            sparse_feats = encoder_forward(model, img, [mask0, mask0], mode=mode)
            dense_feats = model.encoder.forward(img, mode=mode)
        worst = 0.0
        for sp, fd in zip(sparse_feats, dense_feats):
            ref = fd.data[sp.batch, :, sp.coords[:, 0], sp.coords[:, 1]]
            worst = max(worst, float(np.abs(sp.features.data - ref).max()))
        return worst

    def test_ratio0_matches_dense_eval(self):
        assert self._compare("eval") < 1e-6

    def test_ratio0_matches_dense_train(self):
        assert self._compare("train") < 1e-6

    def test_running_stats_shared(self):
        model = tiny_model()
        dense = model.encoder
        st = model.bn_states["encoder.stem.bn"]
        assert dense.bn_states["encoder.stem.bn"] is st

    def test_accepts_non_patch_multiple(self):
        # 24x40 is stride-divisible (total stride 8) but not a multiple of the
        # 16px training patch: conversion drops the mask constraint
        model = tiny_model(stages=2, widths=(4, 8), image=32, patch=16, dec=8)
        dense = model.encoder
        with ag.no_grad():
            out = dense.forward(np.random.default_rng(14).random((1, 3, 40, 24)), mode="eval")
        assert out[-1].shape == (1, 8, 5, 3)
        with pytest.raises(ValueError, match="total stride"):
            dense.forward(np.zeros((1, 3, 20, 20)))

    def test_down_kernel3_variant(self):
        enc = EncoderConfig(stages=3, widths=(4, 8, 8), down_kernel=3)
        cfg = SparkConfig(encoder=enc, image_size=32, patch_size=16, dec_fea_dim=16)
        model = SparkModel(cfg, np.random.default_rng(50))
        img = np.random.default_rng(51).random((1, 3, 32, 32))
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(52), patch_size=16)
        mask0 = generate_mask(2, 2, 0.0, np.random.default_rng(52), patch_size=16)
        with ag.no_grad():
            feats = encoder_forward(model, img, mask, mode="eval")
            assert [(f.height, f.width) for f in feats] == [(8, 8), (4, 4), (2, 2)]
            # ratio-0 equivalence holds for the 3x3 stride-2 pad-1 downsample too
            sparse0 = encoder_forward(model, img, mask0, mode="eval")
            dense0 = model.encoder.forward(img, mode="eval")
        for sp, fd in zip(sparse0, dense0):
            ref = fd.data[0][:, sp.coords[:, 0], sp.coords[:, 1]].T
            assert np.abs(sp.features.data - ref).max() < 1e-6


class TestProjectAndDensify:
    def test_fully_active_zero_embed_grad(self):
        model = tiny_model()
        img = np.random.default_rng(15).random((1, 3, 16, 16))
        mask0 = generate_mask(2, 2, 0.0, np.random.default_rng(16), patch_size=8)
        feats = encoder_forward(model, img, mask0, mode="eval")
        out = project_and_densify(model, 1, feats[1], 1)
        backprop(out, 2.0 * out.data)
        np.testing.assert_array_equal(model.params["embed.scale1"].grad, 0.0)

    def test_fully_inactive_constant_field(self):
        model = tiny_model()
        from sparsemim.sparse import ActiveSet, SparseTensor2D, densify

        empty = SparseTensor2D(ActiveSet(2, 2, np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)),
                               ag.tensor(np.zeros((0, 8))))
        fill = model.params["embed.scale1"]
        d = densify(empty, fill, 1)
        np.testing.assert_array_equal(d.data, np.broadcast_to(fill.data[None, :, None, None], (1, 8, 2, 2)))

    def test_embedding_gradcheck(self):
        model = tiny_model()
        img = np.random.default_rng(17).random((1, 3, 16, 16))
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(18), patch_size=8)

        def f(_):
            feats = encoder_forward(model, img, mask, mode="eval")
            return mean_square(project_and_densify(model, 1, feats[1], 1))

        embed = model.params["embed.scale1"]
        assert ag.grad_check(f, [embed]) < 1e-6


class TestSparkForwardAndLoss:
    def test_shape_contract(self):
        model = tiny_model()
        img = np.random.default_rng(19).random((2, 3, 16, 16))
        masks = [generate_mask(2, 2, 0.5, np.random.default_rng(s), patch_size=8) for s in (20, 21)]
        with ag.no_grad():
            recon = spark_forward(model, img, masks, mode="eval")
        assert isinstance(recon, ag.DiffTensor) and recon.shape == (2, 3, 16, 16)

    def test_loss_zero_when_equal_on_masked(self):
        model = tiny_model()
        rng = np.random.default_rng(22)
        img = rng.random((1, 3, 16, 16))
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(23), patch_size=8)
        mm = masked_pixel_map(mask)
        recon = ag.tensor(per_patch_normalize(img, 8))
        recon.data[0][:, ~mm] = rng.normal(size=(3, int((~mm).sum())))  # arbitrary on visible
        assert spark_loss(model, recon, img, mask).item() == 0.0

    def test_visible_perturbation_leaves_masked_loss(self):
        model = tiny_model()
        rng = np.random.default_rng(23)
        img = rng.random((1, 3, 16, 16))
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(24), patch_size=8)
        mm = masked_pixel_map(mask)
        recon_a = ag.tensor(rng.normal(size=(1, 3, 16, 16)))
        la = spark_loss(model, recon_a, img, mask).item()
        recon_b = ag.tensor(recon_a.data.copy())
        recon_b.data[0][:, ~mm] += rng.normal(size=(3, int((~mm).sum())))
        lb = spark_loss(model, recon_b, img, mask).item()
        assert la == lb

    def test_2x2_hand_summed(self):
        # every 8x8 patch of the image is constant, so every target is exactly 0
        # and the loss is the mean of recon^2 over the selected pixels
        img = np.kron(np.array([[0.2, 0.4], [0.6, 0.8]]), np.ones((8, 8)))[None, None].repeat(3, axis=1)
        recon = ag.tensor(np.kron(np.array([[1.0, 2.0], [3.0, 4.0]]), np.ones((8, 8)))[None, None].repeat(3, axis=1))
        mask = PatchMask(2, 2, 8, np.array([[False, True], [False, False]]))
        # masked patches hold 1, 3 and 4 -> (1 + 9 + 16) / 3
        assert spark_loss(tiny_model(), recon, img, mask).item() == pytest.approx(26 / 3)
        # all mode: (1 + 4 + 9 + 16) / 4 = 7.5
        assert spark_loss(tiny_model(loss_on="all"), recon, img, mask).item() == pytest.approx(7.5)

    def test_empty_mask_rejected(self):
        x = ag.tensor(np.zeros((1, 3, 16, 16)))
        mask = PatchMask(2, 2, 8, np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="empty selection mask"):
            spark_loss(tiny_model(), x, np.zeros((1, 3, 16, 16)), mask)

    @pytest.mark.parametrize("masking", ["sparse", "zero_out"])
    def test_mask_of_another_patch_size_rejected(self, masking):
        model = tiny_model(image=32, patch=16, masking=masking)
        img = np.random.default_rng(26).random((1, 3, 32, 32))
        mask = generate_mask(4, 4, 0.5, np.random.default_rng(27), patch_size=8)  # same 32x32 image
        with pytest.raises(ValueError, match="mask patch size 8 != model patch size 16"):
            spark_forward(model, img, mask, mode="train")
        with pytest.raises(ValueError, match="mask patch size 8 != model patch size 16"):
            encoder_forward(model, img, [mask], mode="train")
        with pytest.raises(ValueError, match="mask patch size 8 != model patch size 16"):
            spark_loss(model, ag.tensor(np.zeros((1, 3, 32, 32))), img, [mask])

    def test_loss_rejects_a_mask_count_unlike_the_batch(self):
        model = tiny_model()
        img = np.random.default_rng(28).random((2, 3, 16, 16))
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(29), patch_size=8)
        with pytest.raises(ValueError, match="expected 2 masks for batch of 2, got 3"):
            spark_loss(model, ag.tensor(np.zeros((2, 3, 16, 16))), img, [mask] * 3)

    def test_targets_are_per_patch_normalized(self):
        model = tiny_model()
        img = np.random.default_rng(24).random((1, 3, 16, 16))
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(25), patch_size=8)
        mm = masked_pixel_map(mask)
        targets = per_patch_normalize(img, 8)
        # a zero reconstruction leaves the masked mean of targets^2
        loss = spark_loss(model, ag.tensor(np.zeros((1, 3, 16, 16))), img, mask).item()
        assert loss == pytest.approx(np.mean(targets[0][:, mm] ** 2), rel=1e-12)


class TestAblations:
    def test_hierarchy_off_ignores_shallow_scales(self):
        model = tiny_model(hierarchy=False)
        img = np.random.default_rng(26).random((1, 3, 16, 16))
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(27), patch_size=8)
        with ag.no_grad():
            loss_a = spark_loss(model, spark_forward(model, img, mask, mode="eval"), img, mask).item()
            # shallow-scale projection and embedding are unused when hierarchy is off
            model.params["proj.scale0.w"].data += 7.0
            model.params["embed.scale0"].data += 3.0
            loss_b = spark_loss(model, spark_forward(model, img, mask, mode="eval"), img, mask).item()
            model.params["proj.scale1.w"].data += 0.1  # the deep scale is used
            loss_c = spark_loss(model, spark_forward(model, img, mask, mode="eval"), img, mask).item()
        assert loss_a == loss_b
        assert loss_a != loss_c

    def test_zero_out_variant_runs_dense(self):
        model = tiny_model(masking="zero_out")
        img = np.random.default_rng(28).random((2, 3, 16, 16))
        masks = [generate_mask(2, 2, 0.5, np.random.default_rng(s), patch_size=8) for s in (29, 30)]
        with ag.no_grad():
            recon = spark_forward(model, img, masks, mode="eval")
        assert recon.shape == (2, 3, 16, 16)

    def test_loss_all_mode(self):
        # spark_loss reads loss_on from the model's config
        masked, every = tiny_model(), tiny_model(loss_on="all")
        img = np.random.default_rng(31).random((1, 3, 16, 16))
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(32), patch_size=8)
        with ag.no_grad():
            recon = spark_forward(every, img, mask, mode="eval")
        sq = (recon.data - per_patch_normalize(img, 8))[0] ** 2
        mm = masked_pixel_map(mask)
        assert spark_loss(every, recon, img, mask).item() == pytest.approx(sq.mean(), rel=1e-12)
        assert spark_loss(masked, recon, img, mask).item() == pytest.approx(sq[:, mm].mean(), rel=1e-12)


class TestApe:
    def test_off_matches_baseline_bitwise(self):
        a = tiny_model(ape=False, seed=33)
        b = tiny_model(ape=True, seed=33)
        # copy shared parameters so only the (zero) embedding differs
        for name, p in a.params.items():
            b.params[name].data = p.data.copy()
        img = np.random.default_rng(34).random((1, 3, 16, 16))
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(35), patch_size=8)
        with ag.no_grad():
            ra = spark_forward(a, img, mask, mode="eval")
            rb = spark_forward(b, img, mask, mode="eval")
        assert np.array_equal(ra.data, rb.data)

    def test_gradient_reaches_embedding(self):
        model = tiny_model(ape=True)
        img = np.random.default_rng(36).random((1, 3, 16, 16))
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(37), patch_size=8)

        def f(_):
            return spark_loss(model, spark_forward(model, img, mask, mode="train"), img, mask)

        ape = model.params["ape"]
        err = ag.grad_check(f, [ape], max_entries_per_input=6, rng=np.random.default_rng(38))
        assert err < 1e-4
        model.zero_grad()
        ag.backward(spark_loss(model, spark_forward(model, img, mask, mode="train"), img, mask))
        assert ape.grad is not None and np.any(ape.grad != 0.0)


class TestEndToEndGradient:
    def test_tiny_model_fd(self):
        assert end_to_end_gradcheck()


class TestLeakGuard:
    def test_masked_pixels_never_influence(self):
        model = tiny_model(stages=2, widths=(6, 12), image=32, patch=8, dec=16, seed=39)
        rng = np.random.default_rng(40)
        img = rng.random((1, 3, 32, 32))
        mask = generate_mask(4, 4, 0.5, np.random.default_rng(41), patch_size=8)
        mm = masked_pixel_map(mask)
        with ag.no_grad():
            recon_a = spark_forward(model, img, mask, mode="eval")
            la = spark_loss(model, recon_a, img, mask).item()
            img_b = img.copy()
            img_b[0][:, mm] = rng.random((3, int(mm.sum())))
            recon_b = spark_forward(model, img_b, mask, mode="eval")
            lb = spark_loss(model, recon_b, img, mask).item()  # the clean image's targets
        assert np.array_equal(recon_a.data, recon_b.data)
        assert la == lb


class TestFlopsTable:
    def test_ratio0_all_submanifold_layers_at_one(self):
        enc = EncoderConfig(stages=3, widths=(4, 8, 8))
        mask = generate_mask(4, 4, 0.0, np.random.default_rng(42), patch_size=16)
        for row in encoder_flops_table(enc, mask):
            if "block" in row["layer"]:
                assert row["sparse_macs"] <= row["dense_macs"]
                # fully active: only the boundary deficit separates them
                s = row["scale"]
                g = 64 // s
                full_pairs = (2 * (g - 1) + g) ** 2
                assert row["sparse_macs"] == full_pairs * (row["dense_macs"] // (g * g * 9))

    def test_224_scale4_ratio_band(self):
        enc = EncoderConfig(stages=4, widths=(16, 32, 64, 128))
        mask = generate_mask(7, 7, 0.6, np.random.default_rng(0), patch_size=32)
        rows = encoder_flops_table(enc, mask)
        scale4 = [r for r in rows if r["layer"] == "stage0.block0.conv0"][0]
        assert 0.30 < scale4["ratio"] <= 0.40
        frac = mask.visible_count / mask.num_patches
        for r in rows:
            if "block" in r["layer"]:
                assert r["ratio"] <= frac + 1e-12


class TestEncoderLayers:
    """One layer list names the encoder's weights, its executors' layers and its MAC-table rows."""

    @pytest.mark.parametrize("stages", [1, 2, 3, 4])
    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("down_kernel", [2, 3])
    def test_names_agree(self, stages, blocks, down_kernel):
        enc = EncoderConfig(stages=stages, widths=tuple(4 * 2 ** i for i in range(stages)),
                            blocks_per_stage=blocks, down_kernel=down_kernel)
        patch = enc.total_stride
        cfg = SparkConfig(encoder=enc, image_size=2 * patch, patch_size=patch, dec_fea_dim=32)
        model = SparkModel(cfg, np.random.default_rng(0))
        weights = [layer.weight for layer in encoder_layers(enc)]
        assert weights == [n for n in model.params if n.startswith("encoder.") and n.endswith(".w")]
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(1), patch_size=patch)
        assert weights == [f"encoder.{row['layer']}.w" for row in encoder_flops_table(enc, mask)]
        assert [layer.bn for layer in encoder_layers(enc)] == [n for n in model.bn_states if n.startswith("encoder.")]
        assert len(weights) == 1 + (stages - 1) + 2 * blocks * stages


class TestInit:
    """Training init is pinned; a model built without an RNG draws nothing and has the same layout."""

    C09 = SparkConfig(encoder=EncoderConfig(stages=3, widths=(16, 32, 64), blocks_per_stage=1),
                      image_size=64, patch_size=16, dec_fea_dim=64)

    def test_c09_init_pinned(self):
        digest = hashlib.sha256()
        for name, arr in SparkModel(self.C09, np.random.default_rng(0)).state_arrays().items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        assert digest.hexdigest() == "1b2d795bb894f927182818023b972620858512cb740b31afce3528c3903aa5c8"

    def test_no_rng_same_layout_no_draws(self):
        drawn, bare = SparkModel(self.C09, np.random.default_rng(0)), SparkModel(self.C09, None)
        assert [(n, a.shape) for n, a in bare.state_arrays().items()] == \
               [(n, a.shape) for n, a in drawn.state_arrays().items()]
        assert bare.decay == drawn.decay
        want = drawn.state_arrays()
        for name, arr in bare.state_arrays().items():  # drawn arrays are zeros, the rest as drawn
            random = name in drawn.decay or name.startswith("embed.")
            np.testing.assert_array_equal(arr, np.zeros_like(arr) if random else want[name])
