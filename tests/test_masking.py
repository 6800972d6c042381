"""Mask generation, per-scale active sets, target normalization, zero-out,
and the erosion profile (checked against a scipy morphology oracle)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import sparsemim
from sparsemim import autograd as ag
from sparsemim.masking import (
    EPS_STD,
    PatchMask,
    active_set_at_scale,
    erosion_profile,
    generate_mask,
    masked_pixel_map,
    per_patch_normalize,
    patch_stats,
    denormalize_patches,
    zero_out_image,
)


class TestGenerateMask:
    def test_7x7_ratio_06(self):
        m = generate_mask(7, 7, 0.6, np.random.default_rng(0), patch_size=32)
        assert m.masked_count == 29 and m.visible_count == 20

    def test_ratio_zero_all_visible(self):
        m = generate_mask(7, 7, 0.0, np.random.default_rng(0), patch_size=32)
        assert m.visible_count == 49

    def test_all_masked_draw_rejected(self):
        with pytest.raises(ValueError, match="visible"):
            generate_mask(2, 2, 0.999, np.random.default_rng(0), patch_size=32)

    def test_out_of_range_ratio_rejected(self):
        for ratio in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                generate_mask(4, 4, ratio, np.random.default_rng(0))

    def test_round_to_zero_masked_rejected(self):
        with pytest.raises(ValueError, match="masked"):
            generate_mask(2, 2, 0.01, np.random.default_rng(0))

    def test_uniform_frequency(self):
        # over 1e4 draws each patch should be masked with freq ratio +- 0.02
        counts = np.zeros(49)
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            counts += ~generate_mask(7, 7, 0.6, rng, patch_size=32).visible.reshape(-1)
        freq = counts / 10_000
        assert np.all(np.abs(freq - 0.6) < 0.02)


class TestActiveSetAtScale:
    def test_one_cell_per_patch(self):
        m = generate_mask(7, 7, 0.6, np.random.default_rng(3), patch_size=32)
        act = active_set_at_scale(m, 32)
        assert act.shape[0] == m.visible_count

    def test_stride4_blocks(self):
        visible = np.zeros((2, 2), dtype=bool)
        visible[0, 1] = True
        m = PatchMask(2, 2, 32, visible)
        act = active_set_at_scale(m, 4)
        assert act.shape[0] == 64  # one visible patch -> an 8x8 block of cells
        assert act[:, 0].min() == 0 and act[:, 0].max() == 7
        assert act[:, 1].min() == 8 and act[:, 1].max() == 15

    def test_non_divisible_stride_rejected(self):
        m = generate_mask(2, 2, 0.5, np.random.default_rng(4), patch_size=32)
        with pytest.raises(ValueError, match="stride"):
            active_set_at_scale(m, 5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_ratio_preserved_at_all_strides(self, seed):
        m = generate_mask(7, 7, 0.6, np.random.default_rng(seed), patch_size=32)
        for stride in (4, 8, 16, 32):
            act = active_set_at_scale(m, stride)
            cells = (7 * 32 // stride) ** 2
            # exact rational equality: |active| * patches == visible * cells
            assert act.shape[0] * m.num_patches == m.visible_count * cells


class TestMaskedPixelMap:
    def test_all_visible(self):
        m = generate_mask(3, 3, 0.0, np.random.default_rng(5), patch_size=8)
        assert not masked_pixel_map(m).any()

    def test_single_patch_area(self):
        visible = np.ones((3, 3), dtype=bool)
        visible[1, 2] = False
        m = PatchMask(3, 3, 8, visible)
        mm = masked_pixel_map(m)
        assert int(mm.sum()) == 64
        assert mm[8:16, 16:24].all()

    def test_random_vs_per_pixel_oracle(self):
        m = generate_mask(4, 5, 0.4, np.random.default_rng(6), patch_size=4)
        mm = masked_pixel_map(m)
        for r in range(16):
            for c in range(20):
                assert mm[r, c] == (not m.visible[r // 4, c // 4])


class TestPerPatchNormalize:
    def test_constant_patch_all_zeros(self):
        img = np.full((1, 3, 8, 8), 0.37)
        out = per_patch_normalize(img, 8)
        np.testing.assert_array_equal(out, np.zeros_like(img))

    def test_value_grid_oracle(self):
        # one 4x4 patch per channel holding 0..15; all channels equal
        vals = np.arange(16.0).reshape(4, 4)
        img = np.broadcast_to(vals, (1, 3, 4, 4)).copy()
        out = per_patch_normalize(img, 4)
        flat = img.reshape(-1)
        expected = (vals - flat.mean()) / flat.std()
        np.testing.assert_allclose(out[0, 0], expected, rtol=1e-9)
        patch = out.reshape(-1)
        assert abs(patch.mean()) < 1e-10 and abs(patch.std() - 1) < 1e-6

    def test_stats_invariant(self):
        rng = np.random.default_rng(7)
        img = rng.random((2, 3, 32, 32))
        out = per_patch_normalize(img, 8)
        tiles = out.reshape(2, 3, 4, 8, 4, 8)
        means = tiles.mean(axis=(1, 3, 5))
        stds = tiles.std(axis=(1, 3, 5))
        assert np.abs(means).max() < 1e-8
        assert np.abs(stds - 1.0).max() < 1e-5

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        img = rng.random((1, 3, 16, 16))
        once = per_patch_normalize(img, 8)
        twice = per_patch_normalize(once, 8)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            per_patch_normalize(np.zeros((1, 3, 10, 10)), 4)

    @pytest.mark.parametrize("shape, p", [((2, 3, 32, 32), 8), ((1, 3, 8, 8), 8), ((1, 3, 224, 224), 32)])
    def test_patch_stats_match_the_multi_axis_reductions(self, shape, p):
        img = np.random.default_rng(11).random(shape)
        before = img.copy()
        mean, denom = patch_stats(img, p)
        tiles = img.reshape(shape[0], 3, shape[2] // p, p, shape[3] // p, p)
        np.testing.assert_allclose(mean, tiles.mean(axis=(1, 3, 5)), rtol=0, atol=1e-14)
        np.testing.assert_allclose(denom, np.sqrt(tiles.var(axis=(1, 3, 5)) + EPS_STD ** 2), rtol=0, atol=1e-14)
        np.testing.assert_array_equal(img, before)  # the reductions run on a copy, even of a one-patch image

    def test_denormalize_round_trip(self):
        rng = np.random.default_rng(9)
        img = rng.random((1, 3, 16, 16))
        normed = per_patch_normalize(img, 8)
        mean, denom = patch_stats(img, 8)
        back = denormalize_patches(normed, mean, denom, 8)
        np.testing.assert_allclose(back, img, atol=1e-9)


def test_masking_imports_without_the_engine():
    # masking is numpy-only: the loss, not the mask code, wraps targets as tensors
    src = os.path.dirname(os.path.dirname(sparsemim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, sparsemim.masking; print(sorted(m for m in sys.modules if m.startswith('sparsemim')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['sparsemim', 'sparsemim.masking']"


class TestZeroOut:
    def test_ratio_zero_identity(self):
        rng = np.random.default_rng(10)
        img = rng.random((1, 3, 16, 16))
        m = generate_mask(2, 2, 0.0, np.random.default_rng(0), patch_size=8)
        np.testing.assert_array_equal(zero_out_image(img, m), img)

    def test_masked_patches_exactly_zero(self):
        rng = np.random.default_rng(11)
        img = rng.random((1, 3, 16, 16)) + 0.1
        m = generate_mask(2, 2, 0.5, np.random.default_rng(1), patch_size=8)
        z = zero_out_image(img, m)
        mm = masked_pixel_map(m)
        assert np.all(z[0][:, mm] == 0.0)
        np.testing.assert_array_equal(z[0][:, ~mm], img[0][:, ~mm])

    def test_mean_shift(self):
        # constant image: the shift equals -(masked fraction) * mean exactly
        img = np.full((1, 3, 16, 16), 0.8)
        m = generate_mask(2, 2, 0.5, np.random.default_rng(2), patch_size=8)
        z = zero_out_image(img, m)
        frac = m.masked_count / m.num_patches
        assert abs((z.mean() - img.mean()) - (-frac * img.mean())) < 1e-9
        # general identity: shift equals -(sum over masked)/total
        rng = np.random.default_rng(12)
        img2 = rng.random((1, 3, 16, 16))
        z2 = zero_out_image(img2, m)
        mm = masked_pixel_map(m)
        expected = -img2[0][:, mm].sum() / img2.size
        assert abs((z2.mean() - img2.mean()) - expected) < 1e-12

    def test_one_mask_per_sample(self):
        rng = np.random.default_rng(14)
        img = rng.random((2, 3, 16, 16)) + 0.1
        ms = [generate_mask(2, 2, 0.5, np.random.default_rng(s), patch_size=8) for s in (4, 6)]
        assert not np.array_equal(ms[0].visible, ms[1].visible)
        z = zero_out_image(img, ms)
        for b, m in enumerate(ms):
            np.testing.assert_array_equal(z[b], zero_out_image(img[b : b + 1], m)[0])
        with pytest.raises(ValueError, match="masks"):
            zero_out_image(img, ms[:1])


class TestErosionProfile:
    def _hole_mask(self):
        visible = np.ones((3, 3), dtype=bool)
        visible[1, 1] = False
        return PatchMask(3, 3, 32, visible)

    def test_32px_hole_schedule(self):
        profile = erosion_profile(self._hole_mask(), 16)
        assert profile[0] == 1024
        assert profile[1] == 900  # 30 x 30
        assert profile[16] == 0 and profile[15] > 0
        for k in range(17):
            assert profile[k] == max(32 - 2 * k, 0) ** 2

    def test_vs_scipy_morphology_oracle(self):
        rng = np.random.default_rng(14)
        m = generate_mask(4, 4, 0.5, rng, patch_size=8)
        profile = erosion_profile(m, 6)
        support = ~masked_pixel_map(m)
        assert profile[0] == int((~support).sum())
        for k in range(1, 7):
            dil = ndimage.binary_dilation(support, structure=np.ones((3, 3), bool), iterations=k)
            assert profile[k] == int((~dil).sum())

    def test_actual_conv_support_matches(self):
        # the profile is exactly the zero-count of a real all-ones conv stack
        m = self._hole_mask()
        img = np.ones((1, 1, 96, 96)) * ~masked_pixel_map(m)[None, None]
        profile = erosion_profile(m, 3)
        x = ag.tensor(img)
        w = ag.tensor(np.ones((1, 1, 3, 3)))
        for k in range(1, 4):
            x = ag.conv2d(x, w, stride=1, padding=1)
            assert int((x.data[0, 0] == 0).sum()) == profile[k]
