"""PPM codec round trips, synthetic-dataset determinism, augmentation stats."""

import os

import numpy as np
import pytest

from sparsemim.data import (
    DirectoryDataset,
    PpmError,
    augment,
    load_ppm,
    ppm_size,
    save_ppm,
    synth_dataset,
)


class TestPpm:
    def test_1x1_red_pixel(self, tmp_path):
        p = tmp_path / "red.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = load_ppm(p)
        np.testing.assert_array_equal(img, np.array([1.0, 0.0, 0.0]).reshape(3, 1, 1))
        out = tmp_path / "red2.ppm"
        save_ppm(out, img)
        np.testing.assert_array_equal(load_ppm(out), img)

    def test_round_trip_error_bound(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((3, 17, 23))
        p = tmp_path / "rt.ppm"
        save_ppm(p, img)
        back = load_ppm(p)
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_save_load_idempotent_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.random((3, 8, 8))
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        save_ppm(p1, img)
        save_ppm(p2, load_ppm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_bytes_match_reference_quantizer(self, tmp_path):
        def reference(img):  # round half up, clip, channel-interleaved rows
            q = np.clip(np.floor(img * 255.0 + 0.5), 0, 255).astype(np.uint8)
            return f"P6\n{img.shape[2]} {img.shape[1]}\n255\n".encode("ascii") + q.transpose(1, 2, 0).tobytes()

        rng = np.random.default_rng(3)
        ties = (rng.integers(-3, 260, size=(3, 9, 14)) + 0.5) / 255.0  # each * 255.0 is exactly k + 0.5
        assert np.all(ties * 255.0 % 1 == 0.5)
        for img in (rng.random((3, 17, 23)), rng.normal(0.5, 1.0, size=(3, 5, 31)), ties,
                    rng.random((3, 12, 7)).astype(np.float32), rng.random((3, 6, 5))[:, ::-1, ::2]):
            p = tmp_path / "q.ppm"
            save_ppm(p, img)
            assert p.read_bytes() == reference(np.asarray(img, dtype=np.float64))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(PpmError, match="magic"):
            load_ppm(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "trunc.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(PpmError, match="truncated"):
            load_ppm(p)

    def test_wrong_maxval(self, tmp_path):
        p = tmp_path / "max.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(PpmError, match="maxval"):
            load_ppm(p)

    @pytest.mark.parametrize("header", [b"P6 -2 -3 255\n", b"P6 0 4 255\n", b"P6 1_0 1 255\n"],
                             ids=["negative", "zero", "underscore"])
    def test_size_must_be_positive_decimal(self, tmp_path, header):
        p = tmp_path / "size.ppm"
        p.write_bytes(header + bytes(30))
        with pytest.raises(PpmError, match="not a positive decimal integer"):
            load_ppm(p)

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# a comment\n1 1\n# another\n255\n" + bytes([10, 20, 30]))
        img = load_ppm(p)
        np.testing.assert_allclose(img.reshape(3), np.array([10, 20, 30]) / 255.0)

    # headers that end inside, at and past the bytes ppm_size reads first
    @pytest.mark.parametrize("comment", [0, 4070, 4085, 4088, 9000])
    def test_size_from_header_agrees_with_decoder(self, tmp_path, comment):
        p = tmp_path / "s.ppm"
        p.write_bytes(b"P6\n" + (b"#" + b"c" * comment + b"\n" if comment else b"") + b"5 3\n255\n" + bytes(45))
        assert ppm_size(p) == load_ppm(p).shape[1:] == (3, 5)

    @pytest.mark.parametrize("data, match", [(b"P5\n1 1\n255\n\x00", "magic"), (b"P6\n2 2\n255\n" + bytes(5), "truncated"),
                                             (b"P6\n1 1\n65535\n" + bytes(6), "maxval"), (b"P6\n1 1", "end of PPM header"),
                                             (b"P6\n1 1\n255", "truncated")])
    def test_size_from_header_rejects_what_the_decoder_rejects(self, tmp_path, data, match):
        p = tmp_path / "bad.ppm"
        p.write_bytes(data)
        for read in (ppm_size, load_ppm):
            with pytest.raises(PpmError, match=match):
                read(p)

    def test_rounding_half_away_from_zero(self, tmp_path):
        img = np.array([0.5 / 255.0, 1.5 / 255.0, 254.5 / 255.0]).reshape(3, 1, 1)
        p = tmp_path / "r.ppm"
        save_ppm(p, img)
        assert list(p.read_bytes()[-3:]) == [1, 2, 255]

    def test_clamping(self, tmp_path):
        img = np.array([-0.5, 0.2, 1.7]).reshape(3, 1, 1)
        p = tmp_path / "cl.ppm"
        save_ppm(p, img)
        assert list(p.read_bytes()[-3:]) == [0, 51, 255]


class TestSynthDataset:
    def test_deterministic(self):
        a = synth_dataset(5, 32, seed=9)
        b = synth_dataset(5, 32, seed=9)
        for i in range(5):
            np.testing.assert_array_equal(a.pixels(i), b.pixels(i))

    def test_empty(self, tmp_path):
        ds = synth_dataset(0, 32, seed=0)
        assert len(ds) == 0 and ds.materialize(tmp_path) == [] and os.listdir(tmp_path) == []

    def test_non_degenerate_std(self):
        ds = synth_dataset(50, 32, seed=3)
        for i in range(50):
            img = ds.pixels(i)
            assert img.std() > 0.05, f"image {i} too flat"
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_materialize_and_reload(self, tmp_path):
        ds = synth_dataset(3, 16, seed=4)
        names = ds.materialize(tmp_path)
        assert len(names) == 3
        dd = DirectoryDataset(tmp_path)
        assert dd.names == names
        # PPM quantizes to u8: reload matches to within half a level
        assert np.abs(dd.pixels(0) - ds.pixels(0)).max() <= 0.5 / 255.0 + 1e-12

    def test_manifest_ordering(self, tmp_path):
        synth_dataset(12, 8, seed=5).materialize(tmp_path)
        dd = DirectoryDataset(tmp_path)
        assert dd.names == sorted(dd.names)


class TestAugment:
    def test_same_size_is_flip_only(self):
        rng_flip = np.random.default_rng(1)
        img = np.random.default_rng(0).random((3, 8, 8))
        outs = {augment(img, 8, np.random.default_rng(s)).tobytes() for s in range(20)}
        assert outs <= {img.tobytes(), img[:, :, ::-1].tobytes()}
        assert len(outs) == 2

    def test_values_stay_in_range_and_in_bounds(self):
        rng = np.random.default_rng(3)
        img = rng.random((3, 12, 12))
        for s in range(50):
            out = augment(img, 5, np.random.default_rng(s))
            assert out.shape == (3, 5, 5)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_crop_too_large_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            augment(np.zeros((3, 4, 4)), 8, np.random.default_rng(0))

    def test_offsets_uniform_chi2(self):
        # encode each pixel with a unique id; a flip only permutes values
        # inside the crop, so the crop's minimum id is always its origin
        h, out = 8, 4
        k = h - out + 1  # 5 valid offsets per axis
        img = np.zeros((3, h, h))
        img[0] = np.arange(h)[:, None] * h + np.arange(h)[None, :]
        rng = np.random.default_rng(4)
        counts = np.zeros((k, k))
        for _ in range(10_000):
            origin = int(augment(img, out, rng)[0].min())
            counts[divmod(origin, h)] += 1
        expected = 10_000 / (k * k)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 24 dof, 99.9% critical value is 51.2; generous margin, seed is fixed
        assert chi2 < 60.0
