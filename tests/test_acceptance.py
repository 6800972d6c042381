"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured value. Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import time

import numpy as np

from sparsemim import autograd as ag
from sparsemim.cli import main as cli_main
from sparsemim.data import synth_dataset
from sparsemim.masking import (
    active_set_at_scale,
    erosion_profile,
    generate_mask,
    masked_pixel_map,
    per_patch_normalize,
    PatchMask,
)
from sparsemim.model import (
    EncoderConfig,
    LightDecoderConfig,
    SparkConfig,
    SparkModel,
    decoder_forward,
    encoder_flops_table,
    encoder_forward,
    spark_forward,
    spark_loss,
    to_dense_encoder,
)
from sparsemim.sparse import (
    SparseTensor2D,
    as_coords,
    build_rulebook,
    dense_conv_macs,
    sparse_flops,
    subm_conv2d,
)
from sparsemim.training import TrainConfig, train
from sparsemim.verify import suite_gradcheck, suite_oracle


def _announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def count_pairs_oracle(coords, k):
    active = {tuple(c) for c in coords}
    half = k // 2
    return sum(
        1
        for (r, c) in active
        for di in range(-half, half + 1)
        for dj in range(-half, half + 1)
        if (r + di, c + dj) in active
    )


class TestAcceptance:
    def test_c01_submanifold_oracle_equivalence(self):
        t0 = time.time()
        ok, lines = suite_oracle(instances=200, seed=123)
        elapsed = time.time() - t0
        assert ok, lines
        assert elapsed < 30.0
        _announce(1, f"200 instances match the zero-fill dense oracle (<1e-9), {elapsed:.1f}s")

    def test_c02_mask_pattern_preservation_and_erosion(self):
        t0 = time.time()
        rng = np.random.default_rng(7)
        sites = [(r, c) for r in range(10) for c in range(10) if rng.random() < 0.4]
        coords = as_coords(sites)
        sp = SparseTensor2D(10, 10, coords, ag.tensor(rng.normal(size=(coords.shape[0], 3))))
        rb = build_rulebook(coords, 3, height=10, width=10)
        w = ag.tensor(rng.normal(size=(3, 3, 3, 3)))
        with ag.no_grad():
            for depth in range(1, 21):
                sp = subm_conv2d(sp, w, None, rb)
                assert np.array_equal(sp.coords, coords), f"active set changed at depth {depth}"

        visible = np.ones((3, 3), dtype=bool)
        visible[1, 1] = False
        profile = erosion_profile(PatchMask(3, 3, 32, visible), 20)
        assert profile[16] == 0 and all(profile[k] > 0 for k in range(16))
        elapsed = time.time() - t0
        assert elapsed < 10.0
        _announce(2, f"active set bit-identical through 20 layers; 32px hole vanishes at layer 16 exactly, {elapsed:.1f}s")

    def test_c03_dense_special_case(self):
        enc = EncoderConfig(stages=4, widths=(8, 16, 32, 64))
        cfg = SparkConfig(encoder=enc, image_size=128, patch_size=32, dec_fea_dim=64)
        model = SparkModel(cfg, np.random.default_rng(21))
        img = np.random.default_rng(22).random((2, 3, 128, 128))
        mask0 = generate_mask(4, 4, 0.0, np.random.default_rng(23), patch_size=32)
        worst = 0.0
        with ag.no_grad():
            for mode in ("eval", "train"):
                sparse_feats = encoder_forward(model, img, [mask0, mask0], mode=mode)
                dense_feats = to_dense_encoder(model).forward(img, mode=mode)
                for sp, fd in zip(sparse_feats, dense_feats):
                    ref = fd.data[sp.batch, :, sp.coords[:, 0], sp.coords[:, 1]]
                    worst = max(worst, float(np.abs(sp.features.data - ref).max()))
        assert worst < 1e-6
        _announce(3, f"ratio-0 sparse forward equals dense conversion, per-stage max abs diff {worst:.2e}")

    def test_c04_information_leak_guard(self):
        enc = EncoderConfig(stages=3, widths=(8, 16, 32))
        cfg = SparkConfig(encoder=enc, image_size=64, patch_size=16, dec_fea_dim=32)
        model = SparkModel(cfg, np.random.default_rng(31))
        rng = np.random.default_rng(32)
        img = rng.random((1, 3, 64, 64))
        mask = generate_mask(4, 4, 0.6, np.random.default_rng(33), patch_size=16)
        mm = masked_pixel_map(mask)

        with ag.no_grad():
            feats_a = encoder_forward(model, img, mask, mode="eval")
            recon_a, targets, maps = spark_forward(model, img, mask, mode="eval")
            loss_a = spark_loss(recon_a, targets, maps).item()

            img_b = img.copy()
            img_b[0][:, mm] = rng.random((int(mm.sum()), 3)).T
            feats_b = encoder_forward(model, img_b, mask, mode="eval")
            recon_b, _, _ = spark_forward(model, img_b, mask, mode="eval")
            loss_b = spark_loss(recon_b, targets, maps).item()

            assert all(
                np.array_equal(sa.features.data, sb.features.data) for sa, sb in zip(feats_a, feats_b)
            ), "sparse encoder features changed"
            assert np.array_equal(recon_a.data, recon_b.data)
            assert loss_a == loss_b

            # complement: a visible pixel must matter
            img_c = img.copy()
            vr, vc = np.argwhere(~mm)[0]
            img_c[0, 0, vr, vc] += 0.17
            recon_c, _, _ = spark_forward(model, img_c, mask, mode="eval")
            assert spark_loss(recon_c, targets, maps).item() != loss_a

            # zero-out baseline: the dense encoder computes at masked sites,
            # so noise placed there moves the loss
            model.cfg.masking = "zero_out"
            recon_z, _, _ = spark_forward(model, img, mask, mode="eval")
            loss_z = spark_loss(recon_z, targets, maps).item()
            from sparsemim.model import _project_dense

            noisy = img * (~mm)[None, None]
            noisy[0][:, mm] = rng.random((int(mm.sum()), 3)).T
            dense_feats = to_dense_encoder(model).forward(noisy, mode="eval")
            to_dec = [None] * cfg.decoder.n_stages
            for k in range(enc.stages):
                to_dec[k] = _project_dense(model, enc.stages - 1 - k, dense_feats[enc.stages - 1 - k])
            loss_zn = spark_loss(decoder_forward(model, to_dec, mode="eval"), targets, maps).item()
            assert loss_zn != loss_z, "zero-out masking should read masked positions"
        _announce(4, "masked-pixel noise: features and loss bit-identical (sparse); loss moves under zero-out")

    def test_c05_gradient_suite(self):
        t0 = time.time()
        ok, lines = suite_gradcheck()
        elapsed = time.time() - t0
        assert ok, "\n".join(lines)
        assert elapsed < 120.0
        _announce(5, f"all op-level and end-to-end FD checks < 1e-4, {elapsed:.1f}s")

    def test_c06_efficiency_accounting(self):
        enc = EncoderConfig(stages=4, widths=(16, 32, 64, 128))
        mask = generate_mask(7, 7, 0.6, np.random.default_rng(0), patch_size=32)
        frac = mask.visible_count / mask.num_patches

        rows = encoder_flops_table(enc, mask)
        scale4 = next(r for r in rows if r["layer"] == "stage0.block0.conv0")
        # exact agreement with an independent (site x offset) counting oracle
        act4 = active_set_at_scale(mask, 4)
        oracle_pairs = count_pairs_oracle(act4, 3)
        assert scale4["sparse_macs"] == oracle_pairs * 16 * 16
        assert scale4["dense_macs"] == dense_conv_macs(56, 56, 3, 16, 16)
        assert 0.30 < scale4["ratio"] <= 0.40

        for stride in (4, 8, 16, 32):
            act = active_set_at_scale(mask, stride)
            g = 224 // stride
            rb = build_rulebook(act, 3, height=g, width=g)
            ratio = sparse_flops(rb, 4, 4) / dense_conv_macs(g, g, 3, 4, 4)
            assert ratio <= frac + 1e-12, f"stride {stride}: ratio {ratio} exceeds active fraction {frac}"
        _announce(6, f"scale-/4 sparse/dense MAC ratio {scale4['ratio']:.4f} in (0.30, 0.40], exact vs oracle; "
                     f"ratio <= active fraction {frac:.4f} at all scales")

    def test_c07_per_scale_ratio_constancy(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            mask = generate_mask(7, 7, 0.6, rng, patch_size=32)
            for stride in (4, 8, 16, 32):
                act = active_set_at_scale(mask, stride)
                cells = (224 // stride) ** 2
                assert act.shape[0] * mask.num_patches == mask.visible_count * cells
        _announce(7, "active fraction exactly equal at strides 4/8/16/32 for 100 random masks")

    def test_c08_loss_contract(self):
        rng = np.random.default_rng(88)
        img = rng.random((2, 3, 64, 64))
        targets = per_patch_normalize(img, 16)
        tiles = targets.data.reshape(2, 3, 4, 16, 4, 16)
        means = tiles.mean(axis=(1, 3, 5))
        stds = tiles.std(axis=(1, 3, 5))
        assert np.abs(means).max() < 1e-8
        assert np.abs(stds - 1.0).max() < 1e-5

        masks = [generate_mask(4, 4, 0.6, np.random.default_rng(s), patch_size=16) for s in (1, 2)]
        mm = np.stack([masked_pixel_map(m) for m in masks])
        recon = ag.tensor(rng.normal(size=(2, 3, 64, 64)))
        base = spark_loss(recon, targets, mm, "masked").item()
        recon2 = ag.tensor(recon.data.copy())
        vis = ~mm
        recon2.data[np.broadcast_to(vis[:, None], recon2.shape)] += 5.0
        assert spark_loss(recon2, targets, mm, "masked").item() == base
        _announce(8, f"visible perturbation leaves masked loss at {base:.6f}; "
                     f"targets |mean|<1e-8, |std-1|<{np.abs(stds - 1).max():.1e}")

    def test_c09_desk_scale_learning(self):
        def run():
            enc = EncoderConfig(stages=3, widths=(16, 32, 64), blocks_per_stage=1)
            cfg = SparkConfig(encoder=enc, image_size=64, patch_size=16, dec_fea_dim=64)
            model = SparkModel(cfg, np.random.default_rng(0))
            ds = synth_dataset(256, 64, seed=1)
            tc = TrainConfig(epochs=10, batch_size=8, lr_peak=1.5e-2, optimizer="lamb",
                             seed=0, max_steps=200, mask_ratio=0.6)
            rows, _ = train(model, ds, tc)
            return [r["loss"] for r in rows]

        t0 = time.time()
        losses = run()
        elapsed = time.time() - t0
        assert len(losses) == 200
        assert losses[-1] < 0.5 * losses[0], f"final {losses[-1]} vs first {losses[0]}"
        assert elapsed < 900.0
        losses2 = run()
        assert losses == losses2, "loss curve not bit-identical across reruns"
        _announce(9, f"200 steps in {elapsed:.0f}s; loss {losses[0]:.3f} -> {losses[-1]:.3f} "
                     f"({losses[-1] / losses[0]:.2f}x); curve bit-identical on rerun")

    def test_c10_ablation_matrix(self, tmp_path, capsys):
        variants = ["baseline", "zero-out", "no-hierarchy", "ape", "loss-all"]
        configs = []
        for v in variants:
            out = tmp_path / v
            code = cli_main([
                "pretrain", "--synth", "24", "--out", str(out), "--epochs", "4",
                "--batch", "4", "--steps", "20", "--image-size", "32", "--patch", "8",
                "--stages", "2", "--widths", "8,16", "--seed", "1", "--variant", v,
            ])
            assert code == 0, f"variant {v} failed"
            cfg = json.loads((out / "config.json").read_text())
            assert cfg["variant"] == v
            configs.append(json.dumps(cfg["model"], sort_keys=True))
            lines = (out / "metrics.csv").read_text().strip().split("\n")
            assert len(lines) == 21, f"variant {v} trained {len(lines) - 1} steps"
        assert len(set(configs)) == len(variants), "resolved model configs not distinct"
        capsys.readouterr()

        # the no-hierarchy variant must ignore every shallow scale
        enc = EncoderConfig(stages=3, widths=(8, 16, 16))
        cfg = SparkConfig(encoder=enc, image_size=32, patch_size=16, dec_fea_dim=16, hierarchy=False)
        model = SparkModel(cfg, np.random.default_rng(10))
        img = np.random.default_rng(11).random((1, 3, 32, 32))
        mask = generate_mask(2, 2, 0.5, np.random.default_rng(12), patch_size=16)
        with ag.no_grad():
            recon_a, targets, mm = spark_forward(model, img, mask, mode="eval")
            loss_a = spark_loss(recon_a, targets, mm).item()
            for scale in (0, 1):  # shallow scales feed only the decoder skips
                model.param(f"proj.scale{scale}.w").data += 3.0
                model.param(f"embed.scale{scale}").data -= 2.0
            recon_b, _, _ = spark_forward(model, img, mask, mode="eval")
            loss_b = spark_loss(recon_b, targets, mm).item()
        assert loss_a == loss_b, "no-hierarchy variant still reads shallow scales"
        _announce(10, "five variants trained 20 steps with distinct configs; "
                      "no-hierarchy ignores shallow-scale inputs")

    def test_c11_decoder_conformance(self):
        assert LightDecoderConfig(768, 32).channels == [768, 384, 192, 96, 48, 24]
        rng = np.random.default_rng(111)
        for ratio, stages, widths, image, patch in [
            (4, 1, (8,), 16, 4),
            (8, 2, (4, 8), 16, 8),
            (16, 3, (4, 8, 8), 32, 16),
            (32, 4, (4, 4, 8, 8), 64, 32),
        ]:
            enc = EncoderConfig(stages=stages, widths=widths)
            cfg = SparkConfig(encoder=enc, image_size=image, patch_size=patch, dec_fea_dim=32)
            dec = cfg.decoder
            n = int(np.log2(ratio))
            assert dec.upsample_ratio == ratio
            assert dec.n_stages == n
            assert dec.channels == [32 // 2 ** i for i in range(n + 1)]
            model = SparkModel(cfg, rng)
            deep = image // ratio
            x = ag.tensor(np.random.default_rng(5).normal(size=(1, dec.channels[0], deep, deep)))
            with ag.no_grad():
                out = decoder_forward(model, [x] + [None] * (n - 1), mode="eval")
            assert out.shape == (1, 3, image, image)
        _announce(11, "channel lists, stage counts, output shapes match the halving formula "
                      "for ratios 4/8/16/32; (768,32) -> [768,384,192,96,48,24]")
