"""Float32 through the engine: every op keeps float32 data float32, forward and
gradients, and agrees with its float64 run within float32 rounding; a float32
checkpoint decode and a float32 model forward match their float64 reference."""

import numpy as np
import pytest

from sparsemim import autograd as ag
from sparsemim import cli
from sparsemim.data import save_ppm, synth_dataset
from sparsemim.masking import generate_mask, zero_out_image
from sparsemim.model import EncoderConfig, SparkConfig, SparkModel, spark_forward
from sparsemim.sparse import (ActiveSet, SparseTensor2D, build_rulebook, densify, gather_from_dense,
                              sparse_batchnorm, sparse_downsample, subm_conv2d)
from sparsemim.training import (TrainConfig, load_checkpoint, model_checkpoint_arrays, model_from_checkpoint,
                                save_checkpoint, train)

from gradtools import backprop

# max |float32 - float64| over max(1, max |float64|): float32 rounding (6e-8) grown
# by sums of up to a few hundred terms stays well inside it
TOL = 1e-4


def run(op, arrays, dtype):
    """``op`` on tensors of ``arrays`` in ``dtype``, then backward of a fixed
    random projection of its output: (output, each input's gradient)."""
    ts = [ag.tensor(np.asarray(a, dtype=dtype), requires_grad=True) for a in arrays]
    out = op(ts)
    backprop(out, np.random.default_rng(99).standard_normal(out.shape))
    return out.data, [t.grad for t in ts]


def assert_float32_matches(op, arrays):
    out64, grads64 = run(op, arrays, np.float64)
    out32, grads32 = run(op, arrays, np.float32)
    pairs = [(out32, out64)] + [(g32, g64) for g32, g64 in zip(grads32, grads64) if g64 is not None]
    assert out64.dtype == np.float64 and all(g is None or g.dtype == np.float64 for g in grads64)
    for got, want in pairs:
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max())
    assert [g is None for g in grads32] == [g is None for g in grads64]


R = np.random.default_rng(0)
X = R.standard_normal((2, 3, 8, 8))
Y = R.standard_normal((2, 3, 8, 8))
SELECT = R.random((2, 1, 8, 8)) < 0.4


@pytest.mark.parametrize("name, op, arrays", [
    ("add", lambda t: ag.add(t[0], t[1]), [X, Y]),
    ("add_broadcast", lambda t: ag.add_broadcast(t[0], t[1]), [X, R.standard_normal((1, 3, 8, 8))]),
    ("mse", lambda t: ag.mse(t[0], t[1].data), [X, Y]),
    ("mse masked", lambda t: ag.mse(t[0], t[1].data, SELECT), [X, Y]),
])
def test_pointwise_and_reductions(name, op, arrays):
    assert_float32_matches(op, arrays)


@pytest.mark.parametrize("stride, kernel, padding", [(1, 3, 1), (1, 1, 0), (2, 2, 0), (2, 3, 1), (4, 4, 0)])
def test_conv2d(stride, kernel, padding):
    w = R.standard_normal((5, 3, kernel, kernel))
    assert_float32_matches(lambda t: ag.conv2d(t[0], t[1], t[2], stride=stride, padding=padding),
                           [X, w, R.standard_normal(5)])


def test_conv_transpose2d():
    assert_float32_matches(lambda t: ag.conv_transpose2d(t[0], t[1], t[2]),
                           [X, R.standard_normal((3, 4, 4, 4)), R.standard_normal(4)])


def bn_state(c):
    st = ag.BatchNormState(c)
    st.running_mean = np.random.default_rng(5).standard_normal(c)
    st.running_var = np.random.default_rng(6).uniform(0.5, 2.0, c)
    return st


BN_PARAMS = [R.uniform(0.5, 1.5, 3), R.standard_normal(3)]


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("clamp", [None, np.inf, 6.0])
@pytest.mark.parametrize("rows", [False, True])
def test_batchnorm(mode, clamp, rows):
    x = X.transpose(0, 2, 3, 1).reshape(-1, 3) if rows else X
    bn = ag.batchnorm_rows if rows else ag.batchnorm2d
    assert_float32_matches(lambda t: bn(t[0], t[1], t[2], bn_state(3), mode=mode, clamp=clamp), [x * 3.0, *BN_PARAMS])


def test_batchnorm_state_stays_float64():
    st64, st32 = bn_state(3), bn_state(3)
    ag.batchnorm2d(ag.tensor(X), ag.tensor(BN_PARAMS[0]), ag.tensor(BN_PARAMS[1]), st64)
    ag.batchnorm2d(ag.tensor(X.astype(np.float32)), ag.tensor(BN_PARAMS[0].astype(np.float32)),
                   ag.tensor(BN_PARAMS[1].astype(np.float32)), st32)
    for got, want in [(st32.running_mean, st64.running_mean), (st32.running_var, st64.running_var)]:
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=TOL)


def sites(seed, n=2, h=8, w=8, density=0.5):
    rng = np.random.default_rng(seed)
    return ActiveSet.stack(h, w, [np.argwhere(rng.random((h, w)) < density) for _ in range(n)])


SRC = sites(1)
FEATS = R.standard_normal((len(SRC), 3))


def test_subm_conv2d():
    rb = build_rulebook(SRC, 3)
    assert_float32_matches(lambda t: subm_conv2d(SparseTensor2D(SRC, t[0]), t[1], rb).features,
                           [FEATS, R.standard_normal((4, 3, 3, 3))])


def test_sparse_downsample():
    dst = ActiveSet(4, 4, *zip(*sorted({(tuple(c // 2), b) for c, b in zip(SRC.coords, SRC.batch)},
                                       key=lambda e: (e[1], *e[0]))))
    rb = build_rulebook(SRC, 2, dst, stride=2, padding=0)
    assert_float32_matches(lambda t: sparse_downsample(SparseTensor2D(SRC, t[0]), t[1], rb).features,
                           [FEATS, R.standard_normal((4, 3, 2, 2))])


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_sparse_batchnorm(mode):
    assert_float32_matches(lambda t: sparse_batchnorm(SparseTensor2D(SRC, t[0]), t[1], t[2], bn_state(3),
                                                      mode=mode, clamp=np.inf).features,
                           [FEATS * 2.0, *BN_PARAMS])


def test_densify():
    assert_float32_matches(lambda t: densify(SparseTensor2D(SRC, t[0]), t[1], 2), [FEATS, R.standard_normal(3)])


def test_gather_from_dense():
    assert_float32_matches(lambda t: gather_from_dense(t[0], SRC).features, [X])


def test_zero_out_image():
    masks = [generate_mask(2, 2, 0.5, np.random.default_rng(s), patch_size=4) for s in (1, 2)]
    want = zero_out_image(X, masks)
    got = zero_out_image(X.astype(np.float32), masks)
    assert want.dtype == np.float64 and got.dtype == np.float32
    np.testing.assert_array_equal(got, want.astype(np.float32))


def tiny_model(masking):
    cfg = SparkConfig(encoder=EncoderConfig(stages=2, widths=(8, 16)), image_size=32, patch_size=8,
                      masking=masking)
    model = SparkModel(cfg, np.random.default_rng(0))
    train(model, synth_dataset(8, 32, seed=2), TrainConfig(batch_size=4, max_steps=2, lr_peak=1e-2))
    return model


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A trained tiny model's checkpoint, without optimizer moments."""
    path = tmp_path_factory.mktemp("f32") / "final.ckpt"
    model = tiny_model("sparse")
    save_checkpoint(path, model_checkpoint_arrays(model, None), {"kind": "spark", "model": model.cfg.to_dict()})
    return path


@pytest.mark.parametrize("model_only", [False, True])
def test_load_checkpoint_float32_is_the_float64_decode_cast(tmp_path, model_only):
    rng = np.random.default_rng(3)
    arrays = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal(4), "opt.m.a": rng.standard_normal((2, 3))}
    save_checkpoint(tmp_path / "c.ckpt", arrays, {})
    ck64 = load_checkpoint(tmp_path / "c.ckpt", model_only=model_only)
    ck32 = load_checkpoint(tmp_path / "c.ckpt", model_only=model_only, dtype=np.float32)
    assert list(ck32.arrays) == list(ck64.arrays) and list(ck32.shapes.items()) == list(ck64.shapes.items())
    for name, want in ck64.arrays.items():
        got = ck32.arrays[name]
        assert got.dtype == np.float32 and got.tobytes() == want.astype(np.float32).tobytes()
    # one run, read into one float32 buffer that every array views without a copy
    bases = {id(a.base) for a in ck32.arrays.values()}
    assert len(bases) == 1 and next(iter(ck32.arrays.values())).base.dtype == np.float32


def test_float32_model_keeps_float64_running_stats(checkpoint):
    model, _ = model_from_checkpoint(load_checkpoint(checkpoint, model_only=True, dtype=np.float32))
    assert {p.data.dtype for p in model.params.values()} == {np.dtype(np.float32)}
    assert all(st.running_mean.dtype == st.running_var.dtype == np.float64 for st in model.bn_states.values())


# Largest |float32 - float64| of the reconstruction over the largest |float64|,
# measured at 3.1e-7 (sparse) and 2.8e-7 (zero-out) on these models; the bound
# leaves a factor of 30.
FORWARD_BOUND = 1e-5


@pytest.mark.parametrize("masking", ["sparse", "zero_out"])
def test_float32_forward_matches_float64(masking):
    model64 = tiny_model(masking)
    model32 = SparkModel(model64.cfg, {k: v.astype(np.float32) if k in model64.params else v
                                       for k, v in model64.state_arrays().items()})
    images = np.stack([synth_dataset(4, 32, seed=7).pixels(i) for i in range(2)])
    masks = [generate_mask(4, 4, 0.6, np.random.default_rng(s), patch_size=8) for s in (1, 2)]
    with ag.no_grad():
        want = spark_forward(model64, images, masks, mode="eval").data
        got = spark_forward(model32, images.astype(np.float32), masks, mode="eval").data
    assert want.dtype == np.float64 and got.dtype == np.float32
    assert np.abs(got - want).max() <= FORWARD_BOUND * np.abs(want).max()


def test_reconstruct_runs_the_forward_in_float32(checkpoint, tmp_path, monkeypatch):
    seen = []

    def forward(model, images, masks, mode):
        out = spark_forward(model, images, masks, mode=mode)
        seen.append((images.dtype, {p.data.dtype for p in model.params.values()}, out.data.dtype))
        return out

    monkeypatch.setattr(cli, "spark_forward", forward)
    save_ppm(tmp_path / "in.ppm", synth_dataset(1, 40, seed=4).pixels(0))
    assert cli.main(["reconstruct", "--ckpt", str(checkpoint), "--image", str(tmp_path / "in.ppm"),
                     "--out", str(tmp_path / "rec")]) == 0
    f32 = np.dtype(np.float32)
    assert seen == [(f32, {f32}, f32)]
