"""Training tests: schedule values, optimizer recurrences against independent
scalar oracles, loop determinism, divergence handling, and checkpoints."""

import json
import math
import os
import struct
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from sparsemim.data import synth_dataset
from sparsemim.masking import generate_mask
from sparsemim.model import EncoderConfig, SparkConfig, SparkModel, spark_forward, spark_loss
from sparsemim import autograd as ag
from sparsemim import training
from sparsemim.training import (
    BETAS,
    EPS,
    TRUST_CLIP,
    CheckpointError,
    OptimizerState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    cosine_lr,
    lamb_step,
    load_checkpoint,
    model_checkpoint_arrays,
    model_from_checkpoint,
    save_checkpoint,
    train,
)


def desk_model(seed=0, **flags):
    enc = EncoderConfig(stages=2, widths=(4, 8), blocks_per_stage=1)
    cfg = SparkConfig(encoder=enc, image_size=16, patch_size=8, dec_fea_dim=8, **flags)
    return SparkModel(cfg, np.random.default_rng(seed))


class TestCosineLr:
    def test_peak_rule(self):
        assert TrainConfig(batch_size=256).peak_lr() == pytest.approx(0.0002)
        assert TrainConfig(batch_size=8).peak_lr() == pytest.approx(0.0002 * 8 / 256)
        assert TrainConfig(batch_size=8, lr_peak=0.01).peak_lr() == 0.01

    def test_end_is_zero(self):
        assert cosine_lr(100, 100, 0.1, 10) == 0.0

    def test_midpoint_half_peak(self):
        # warmup 10, span 90 -> midpoint at step 55
        assert cosine_lr(55, 100, 0.2, 10) == pytest.approx(0.1)

    def test_warmup_reaches_peak_and_continuous(self):
        peak = 0.3
        lrs = [cosine_lr(s, 50, peak, 10) for s in range(51)]
        assert lrs[9] == pytest.approx(peak)
        assert lrs[10] == pytest.approx(peak)
        after = lrs[10:]
        assert all(a >= b - 1e-15 for a, b in zip(after, after[1:]))  # non-increasing
        assert min(lrs) >= 0.0


def adam_scalar_oracle(w0, grads, lr, b1, b2, eps, wd):
    """Independent elementwise Adam recurrence."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        w -= lr * (mh / (math.sqrt(vh) + eps) + wd * w)
    return w


def lamb_scalar_oracle(w0, grads, lr, b1, b2, eps, wd, clip=(0.0, 10.0)):
    """Independent per-layer LAMB recurrence on a 1-element layer."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        u = m / (1 - b1 ** t) / (math.sqrt(v / (1 - b2 ** t)) + eps) + wd * w
        wn, un = abs(w), abs(u)
        trust = wn / un if (wn > 0 and un > 0) else 1.0
        trust = min(max(trust, clip[0]), clip[1])
        w -= lr * trust * u
    return w


class TestAdam:
    def test_zero_grad_zero_wd_fixed_point(self):
        p = [np.array([1.0, -2.0])]
        st = OptimizerState([x.shape for x in p])
        adam_step(p, [np.zeros(2)], st, lr=0.1)
        np.testing.assert_array_equal(p[0], [1.0, -2.0])

    def test_first_step_magnitude(self):
        p = [np.array([0.0])]
        st = OptimizerState([(1,)])
        adam_step(p, [np.array([1e6])], st, lr=0.05)
        assert p[0][0] == pytest.approx(-0.05, rel=1e-6)

    def test_five_step_trace_vs_oracle(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=5)
        w0, lr, wd = 0.7, 0.03, 0.01
        p = [np.array([w0])]
        st = OptimizerState([(1,)])
        for g in grads:
            adam_step(p, [np.array([g])], st, lr=lr, weight_decay=wd)
        assert p[0][0] == pytest.approx(adam_scalar_oracle(w0, grads, lr, 0.9, 0.999, 1e-8, wd), abs=1e-14)


class TestLamb:
    def test_zero_grad_zero_wd_fixed_point(self):
        p = [np.array([1.0, -2.0])]
        st = OptimizerState([x.shape for x in p])
        lamb_step(p, [np.zeros(2)], st, lr=0.1)
        np.testing.assert_array_equal(p[0], [1.0, -2.0])

    def test_trust_ratio_one_when_norms_equal(self):
        # choose a gradient so the update tensor equals the weights in norm
        p = [np.array([2.0])]
        st = OptimizerState([(1,)])
        lamb_step(p, [np.array([1.0])], st, lr=0.1)
        # first-step update = mhat/sqrt(vhat) ~ 1.0 (eps aside); |w|/|u| ~ 2 -> step 0.1*2*1
        assert p[0][0] == pytest.approx(2.0 - 0.1 * 2.0, abs=1e-6)

    def test_trace_vs_oracle(self):
        rng = np.random.default_rng(1)
        grads = rng.normal(size=6)
        w0, lr, wd = -1.3, 0.02, 0.05
        p = [np.array([w0])]
        st = OptimizerState([(1,)])
        for g in grads:
            lamb_step(p, [np.array([g])], st, lr=lr, weight_decay=wd)
        assert p[0][0] == pytest.approx(lamb_scalar_oracle(w0, grads, lr, 0.9, 0.999, 1e-8, wd), abs=1e-13)

    def test_trust_clamped_to_ten(self):
        p = [np.array([1e5])]  # huge weight, tiny update -> raw trust >> 10
        st = OptimizerState([(1,)])
        lamb_step(p, [np.array([1.0])], st, lr=0.01)
        # update ~ 1.0, trust clamped at 10 -> step = 0.01 * 10 * 1
        assert p[0][0] == pytest.approx(1e5 - 0.1, abs=1e-3)

    def test_decay_mask_respected(self):
        p = [np.array([1.0]), np.array([1.0])]
        st = OptimizerState([(1,), (1,)])
        lamb_step(p, [np.zeros(1), np.zeros(1)], st, lr=0.1, weight_decay=0.5,
                  decay_mask=[False, True])
        assert p[0][0] == 1.0
        assert p[1][0] != 1.0


def out_of_place_step(kind, params, grads, m, v, t, lr, weight_decay, decay_mask):
    """The optimizer step in its plain out-of-place form: new moment and update
    arrays each step. Returns the advanced step counter."""
    b1, b2 = BETAS
    t += 1
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
        update = (m[i] / c1) / (np.sqrt(v[i] / c2) + EPS)
        if weight_decay and (decay_mask is None or decay_mask[i]):
            update = update + weight_decay * p
        if kind == "adam":
            p -= lr * update
        else:
            wn, un = float(np.linalg.norm(p)), float(np.linalg.norm(update))
            trust = wn / un if (wn > 0.0 and un > 0.0) else 1.0
            p -= lr * min(max(trust, TRUST_CLIP[0]), TRUST_CLIP[1]) * update
    return t


def backward_grads(model, seed):
    """Parameter gradients of one masked-reconstruction loss, as backward leaves them."""
    rng = np.random.default_rng(seed)
    masks = [generate_mask(2, 2, 0.5, rng, patch_size=8) for _ in range(2)]
    model.zero_grad()
    images = rng.random((2, 3, 16, 16))
    ag.backward(spark_loss(model, spark_forward(model, images, masks, mode="train"), images, masks))
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for _, p in model.named_parameters()]


class TestInPlaceOptimizer:
    """adam_step and lamb_step update the moments and parameters in place, bit for bit
    as the out-of-place formula does."""

    @staticmethod
    def _check(kind, model, opt, weight_decay, steps=3, seed=0):
        step = {"adam": adam_step, "lamb": lamb_step}[kind]
        names = [n for n, _ in model.named_parameters()]
        params, decay_mask = [model.params[n].data for n in names], [n in model.decay for n in names]
        # backward leaves every gradient C-contiguous; the optimizer must not depend on
        # that, so the conv weights' gradients come in Fortran order
        base = [np.asfortranarray(g) if g.ndim == 4 else g for g in backward_grads(model, seed)]
        assert not all(g.flags.c_contiguous for g in base)
        ref_p = [p.copy() for p in params]
        ref_m, ref_v, ref_t = [a.copy() for a in opt.m], [a.copy() for a in opt.v], opt.t
        rng = np.random.default_rng(seed)
        for k in range(steps):
            grads = [g * rng.uniform(0.5, 1.5) for g in base]  # keeps each gradient's layout
            lr = 1e-2 / (k + 1)
            step(params, grads, opt, lr, weight_decay=weight_decay, decay_mask=decay_mask)
            ref_t = out_of_place_step(kind, ref_p, grads, ref_m, ref_v, ref_t, lr, weight_decay, decay_mask)
        assert opt.t == ref_t
        for a, b in zip(params + opt.m + opt.v, ref_p + ref_m + ref_v):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["adam", "lamb"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_matches_out_of_place_formula(self, kind, weight_decay):
        model = desk_model(seed=3)
        self._check(kind, model, OptimizerState([p.shape for _, p in model.named_parameters()]), weight_decay)

    @pytest.mark.parametrize("kind", ["adam", "lamb"])
    def test_state_decoded_from_checkpoint(self, kind, tmp_path):
        model = desk_model(seed=2)
        _, opt = train(model, synth_dataset(8, 16, seed=1),
                       TrainConfig(epochs=1, batch_size=4, lr_peak=1e-3, max_steps=2, optimizer=kind))
        p = tmp_path / "m.ckpt"
        cfg = {"kind": "spark", "model": model.cfg.to_dict(), "train": TrainConfig().to_dict(),
               "step": 2, "opt_t": opt.t, "rng_state": np.random.default_rng(0).bit_generator.state}
        save_checkpoint(p, model_checkpoint_arrays(model, opt), cfg)
        m2, opt2 = model_from_checkpoint(load_checkpoint(p))
        assert all(a.flags.writeable for a in opt2.m + opt2.v)
        self._check(kind, m2, opt2, 0.05)


def test_backward_leaves_c_contiguous_gradients():
    # a sparse conv's weight gradient is a transpose of its GEMM result; stored as
    # that view, it made every optimizer op that mixes it with the moments strided
    assert all(g.flags.c_contiguous for g in backward_grads(desk_model(seed=4), 0))


class TestTrainLoop:
    def _cfg(self, **kw):
        base = dict(epochs=1, batch_size=4, lr_peak=5e-3, optimizer="lamb", seed=0, max_steps=5)
        base.update(kw)
        return TrainConfig(**base)

    def test_five_step_determinism(self):
        losses = []
        for _ in range(2):
            model = desk_model(seed=0)
            rows, _ = train(model, synth_dataset(16, 16, seed=1), self._cfg())
            losses.append([r["loss"] for r in rows])
        assert losses[0] == losses[1]

    def test_loss_all_variant_runs(self):
        model = desk_model(seed=0, loss_on="all")
        rows, _ = train(model, synth_dataset(16, 16, seed=1), self._cfg(max_steps=2))
        assert len(rows) == 2 and model.cfg.loss_on == "all"

    def test_metrics_csv_schema(self, tmp_path, monkeypatch, capsys):
        # train opens no file; pretrain writes metrics.csv from its log, one line per row train returns
        from sparsemim import cli

        returned = []

        def recording_train(*args, **kwargs):
            returned.append(train(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(cli, "train", recording_train)
        out = tmp_path / "run"
        assert cli.main(["pretrain", "--synth", "16", "--out", str(out), "--epochs", "1", "--batch", "4",
                         "--steps", "3", "--image-size", "16", "--patch", "8", "--stages", "2",
                         "--widths", "4,8", "--seed", "0"]) == 0
        capsys.readouterr()
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 4
        step, lr, loss = lines[1].split(",")
        assert step == "0" and float(lr) > 0 and float(loss) > 0
        (rows, _), = returned
        for line, row in zip(lines[1:], rows):
            step, lr, loss = line.split(",")
            assert int(step) == row["step"] and float(loss) == row["loss"]
            assert float(lr) == pytest.approx(row["lr"], rel=1e-9)

    def test_log_receives_each_row_as_it_is_made(self, monkeypatch):
        forwards, logged = [], []

        def forward(*args, **kwargs):
            forwards.append(1)
            return spark_forward(*args, **kwargs)

        def log(row):
            assert len(forwards) == row["step"] + 1  # called before the next step's forward
            logged.append(dict(row))

        monkeypatch.setattr(training, "spark_forward", forward)
        rows, _ = train(desk_model(seed=0), synth_dataset(16, 16, seed=1), self._cfg(max_steps=3), log=log)
        assert logged == rows and [r["step"] for r in rows] == [0, 1, 2]

    def test_exception_from_log_ends_train_at_that_step(self, monkeypatch):
        class Stop(Exception):
            pass

        updates = []

        def lamb(*args, **kwargs):
            updates.append(1)
            return lamb_step(*args, **kwargs)

        def log(row):
            if row["step"] == 1:
                raise Stop

        monkeypatch.setattr(training, "lamb_step", lamb)
        with pytest.raises(Stop):
            train(desk_model(seed=0), synth_dataset(16, 16, seed=1), self._cfg(max_steps=4), log=log)
        assert len(updates) == 2

    def test_step_gradients_freed_before_next_forward(self, monkeypatch):
        refs, alive = [], []

        def lamb(params, grads, *args, **kwargs):
            if not refs:  # step 0
                refs.extend(weakref.ref(g) for g in grads)
            return lamb_step(params, grads, *args, **kwargs)

        def forward(*args, **kwargs):
            if refs and not alive:  # step 1 enters the forward
                alive.append(sum(r() is not None for r in refs))
            return spark_forward(*args, **kwargs)

        monkeypatch.setattr(training, "lamb_step", lamb)
        monkeypatch.setattr(training, "spark_forward", forward)
        train(desk_model(seed=0), synth_dataset(16, 16, seed=1), self._cfg(max_steps=2))
        assert refs and alive == [0]

    def test_parameters_carry_no_gradient_after_train(self):
        clean = desk_model(seed=0)
        rows, _ = train(clean, synth_dataset(16, 16, seed=1), self._cfg(max_steps=3))
        assert all(p.grad is None for _, p in clean.named_parameters())
        stale = desk_model(seed=0)
        for _, p in stale.named_parameters():  # a gradient left from before train() is not summed in
            p.grad = np.ones_like(p.data)
        assert train(stale, synth_dataset(16, 16, seed=1), self._cfg(max_steps=3))[0] == rows
        assert all(p.grad is None for _, p in stale.named_parameters())

    def test_divergence_aborts_with_diagnostic(self):
        class PoisonedDataset:
            def __len__(self):
                return 16

            def pixels(self, i):
                img = np.full((3, 16, 16), 0.5)
                img[0, 0, 0] = np.nan
                return img

        model = desk_model(seed=0)
        with pytest.raises(TrainingDiverged, match="step"):
            train(model, PoisonedDataset(), self._cfg(max_steps=3))
        assert len(ag.active_tape()) == 0

    def test_dataset_smaller_than_batch_rejected(self):
        model = desk_model(seed=0)
        with pytest.raises(ValueError, match="batch"):
            train(model, synth_dataset(2, 16, seed=1), self._cfg())


class TestCheckpoint:
    def _save(self, path, model, extra=None):
        cfg = {"kind": "spark", "model": model.cfg.to_dict(),
               "train": TrainConfig().to_dict(), "step": 7, "opt_t": 7,
               "rng_state": np.random.default_rng(3).bit_generator.state}
        if extra:
            cfg.update(extra)
        save_checkpoint(path, model_checkpoint_arrays(model), cfg)

    def test_save_load_save_byte_identical(self, tmp_path):
        model = desk_model(seed=2)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        self._save(p1, model)
        ck = load_checkpoint(p1)
        save_checkpoint(p2, ck.arrays, ck.config)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_forward_identical(self, tmp_path):
        model = desk_model(seed=2)
        p = tmp_path / "m.ckpt"
        self._save(p, model)
        m1, _ = model_from_checkpoint(load_checkpoint(p))
        m2, _ = model_from_checkpoint(load_checkpoint(p))
        img = np.random.default_rng(4).random((1, 3, 16, 16))
        from sparsemim.masking import generate_mask

        mask = generate_mask(2, 2, 0.5, np.random.default_rng(5), patch_size=8)
        with ag.no_grad():
            r1 = spark_forward(m1, img, mask, mode="eval")
            r2 = spark_forward(m2, img, mask, mode="eval")
        assert np.array_equal(r1.data, r2.data)

    def test_params_preserved_to_f32(self, tmp_path):
        model = desk_model(seed=2)
        for st in model.bn_states.values():  # running stats that differ from their init
            st.running_mean = np.random.default_rng(6).normal(size=st.running_mean.shape)
        p = tmp_path / "m.ckpt"
        self._save(p, model)
        m1, _ = model_from_checkpoint(load_checkpoint(p))
        for name, arr in model.state_arrays().items():
            np.testing.assert_array_equal(m1.state_arrays()[name], arr.astype(np.float32).astype(np.float64))

    def test_rng_state_preserved(self, tmp_path):
        model = desk_model(seed=2)
        p = tmp_path / "m.ckpt"
        self._save(p, model)
        ck = load_checkpoint(p)
        assert ck.config["rng_state"] == np.random.default_rng(3).bit_generator.state
        assert ck.config["step"] == 7

    def test_truncated_rejected(self, tmp_path):
        model = desk_model(seed=2)
        p = tmp_path / "m.ckpt"
        self._save(p, model)
        raw = p.read_bytes()
        for cut in (4, 12, len(raw) // 2, len(raw) - 3):
            bad = tmp_path / "bad.ckpt"
            bad.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match="(short|truncated)"):
                load_checkpoint(bad)

    def test_bad_magic_and_version_rejected(self, tmp_path):
        model = desk_model(seed=2)
        p = tmp_path / "m.ckpt"
        self._save(p, model)
        raw = bytearray(p.read_bytes())
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX" + bytes(raw[4:]))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)
        raw2 = bytearray(p.read_bytes())
        raw2[4] = 99
        bad.write_bytes(bytes(raw2))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("value", [1e300, -np.inf, np.nan])
    def test_array_not_finite_in_float32_refused_before_the_file_opens(self, tmp_path, value):
        arrays = model_checkpoint_arrays(desk_model(seed=2))
        arrays["decoder.proj.b"] = arrays["decoder.proj.b"].copy()
        arrays["decoder.proj.b"][1] = value
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"old")
        with pytest.raises(CheckpointError, match="'decoder.proj.b' is not finite in float32"):
            save_checkpoint(p, arrays, {"kind": "spark"})
        assert p.read_bytes() == b"old"

    def test_non_finite_optimizer_moment_refused_on_a_full_load(self, tmp_path):
        model = desk_model(seed=2)
        opt = OptimizerState([p.shape for p in model.params.values()])
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model_checkpoint_arrays(model, opt), {"kind": "spark", "model": model.cfg.to_dict()})
        ck = load_checkpoint(p)
        ck.arrays["opt.v.decoder.proj.b"][0] = np.inf
        with pytest.raises(CheckpointError, match="'opt.v.decoder.proj.b' holds a non-finite value"):
            model_from_checkpoint(ck)

    def test_finite_values_whose_sum_overflows_load(self, tmp_path):
        # two float32 3e38 sum to inf, so the exact check decides; a NaN beside them still fails it
        model = desk_model(seed=2)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model_checkpoint_arrays(model), {"kind": "spark", "model": model.cfg.to_dict()})
        ck = load_checkpoint(p, dtype=np.float32)
        b = ck.arrays["decoder.proj.b"]
        b[:2] = 3e38
        with np.errstate(over="ignore"):
            assert b.dtype == np.float32 and np.isinf(b.sum())
        model_from_checkpoint(ck)
        b[2] = np.nan
        with pytest.raises(CheckpointError, match="'decoder.proj.b' holds a non-finite value"):
            model_from_checkpoint(ck)

    def test_optimizer_state_round_trip(self, tmp_path):
        model = desk_model(seed=2)
        rows, opt = train(model, synth_dataset(8, 16, seed=1),
                          TrainConfig(epochs=1, batch_size=4, lr_peak=1e-3, max_steps=2))
        p = tmp_path / "m.ckpt"
        cfg = {"kind": "spark", "model": model.cfg.to_dict(), "train": TrainConfig().to_dict(),
               "step": 2, "opt_t": opt.t, "rng_state": np.random.default_rng(0).bit_generator.state}
        save_checkpoint(p, model_checkpoint_arrays(model, opt), cfg)
        m2, opt2 = model_from_checkpoint(load_checkpoint(p))
        assert opt2 is not None and opt2.t == 2
        for a, b in zip(opt.m, opt2.m):
            np.testing.assert_array_equal(b, a.astype(np.float32).astype(np.float64))
        ck = load_checkpoint(p, model_only=True)  # the moments stay undecoded; the model loads the same
        undecoded = {n: ck.shapes[n] for n in set(ck.shapes) - set(ck.arrays)}
        assert undecoded == {f"opt.{k}.{n}": param.shape for k in "mv" for n, param in model.params.items()}
        m3, opt3 = model_from_checkpoint(ck)
        assert opt3 is None
        for (n2, a2), (n3, a3) in zip(m2.state_arrays().items(), m3.state_arrays().items()):
            assert n2 == n3 and a2.tobytes() == a3.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_takes_the_decoded_arrays_without_allocating_a_store(self, tmp_path, dtype):
        # a decoder-heavy model: 3.9M values, 32 MB as a float64 store
        enc = EncoderConfig(stages=2, widths=(64, 256), blocks_per_stage=1)
        model = SparkModel(SparkConfig(encoder=enc, image_size=32, patch_size=8, dec_fea_dim=256),
                           np.random.default_rng(0))
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model_checkpoint_arrays(model), {"kind": "spark", "model": model.cfg.to_dict()})
        ck = load_checkpoint(p, dtype=dtype)
        tracemalloc.start()
        try:
            loaded, _ = model_from_checkpoint(ck)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the largest transient is the finite check of one array, 1 byte per value
        assert peak < max(a.size for a in ck.arrays.values()) + (256 << 10)
        for name, param in loaded.params.items():
            assert param.data.dtype == dtype and np.shares_memory(param.data, ck.arrays[name])


def write_raw_checkpoint(path, header, payload=b""):
    """An SPRK file with an arbitrary JSON header (valid magic, version and length)."""
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(b"SPRK" + struct.pack("<I", 1) + struct.pack("<Q", len(blob)) + blob + payload)


class TestCheckpointHeader:
    ENTRY = {"name": "w", "shape": [2, 3], "offset": 0}
    PAYLOAD = np.zeros(6, dtype="<f4").tobytes()

    def _rejected(self, path, header, match):
        write_raw_checkpoint(path, header, self.PAYLOAD)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_valid_raw_header_loads(self, tmp_path):
        p = tmp_path / "ok.ckpt"
        write_raw_checkpoint(p, {"config": {}, "manifest": [self.ENTRY]}, self.PAYLOAD)
        assert load_checkpoint(p).arrays["w"].shape == (2, 3)

    def test_arrays_read_at_their_offsets(self, tmp_path):
        p = tmp_path / "ok.ckpt"
        payload = np.arange(6, dtype="<f4").tobytes()
        manifest = [{"name": "a", "shape": [2], "offset": 16}, {"name": "b", "shape": [3], "offset": 0},
                    {"name": "c", "shape": [1, 2], "offset": 4}, {"name": "e", "shape": [0], "offset": 24}]
        write_raw_checkpoint(p, {"config": {}, "manifest": manifest}, payload)
        arrays = load_checkpoint(p).arrays
        assert list(arrays) == ["a", "b", "c", "e"]
        np.testing.assert_array_equal(arrays["a"], [4.0, 5.0])
        np.testing.assert_array_equal(arrays["b"], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(arrays["c"], [[1.0, 2.0]])
        assert arrays["e"].shape == (0,) and all(a.dtype == np.float64 for a in arrays.values())

    def test_header_not_an_object(self, tmp_path):
        for header in ([1, 2], "spark", 3, None):
            self._rejected(tmp_path / "bad.ckpt", header, "JSON object")

    def test_header_missing_manifest_or_config(self, tmp_path):
        self._rejected(tmp_path / "bad.ckpt", {"config": {}}, "no 'manifest'")
        self._rejected(tmp_path / "bad.ckpt", {"manifest": [self.ENTRY]}, "no 'config'")
        self._rejected(tmp_path / "bad.ckpt", {"config": [], "manifest": [self.ENTRY]}, "must be an object")
        self._rejected(tmp_path / "bad.ckpt", {"config": {}, "manifest": {}}, "must be an object")

    def test_manifest_entry_missing_field(self, tmp_path):
        for key in ("name", "shape", "offset"):
            entry = {k: v for k, v in self.ENTRY.items() if k != key}
            self._rejected(tmp_path / "bad.ckpt", {"config": {}, "manifest": [entry]},
                           "needs name, shape and offset")
        self._rejected(tmp_path / "bad.ckpt", {"config": {}, "manifest": [{**self.ENTRY, "name": ["w"]}]},
                       "name must be a string")

    def test_negative_or_non_integer_shape_or_offset(self, tmp_path):
        for change in ({"shape": [-2, -3]}, {"shape": [2.0, 3]}, {"shape": "6"}, {"shape": [True, 6]},
                       {"offset": -4}, {"offset": 0.5}, {"offset": "0"}):
            entry = {**self.ENTRY, **change}
            self._rejected(tmp_path / "bad.ckpt", {"config": {}, "manifest": [entry]},
                           "must be non-negative integers")

    def test_huge_shape_is_truncation_not_overflow(self, tmp_path):
        entry = {**self.ENTRY, "shape": [2**40, 2**40]}  # the product overflows int64
        self._rejected(tmp_path / "bad.ckpt", {"config": {}, "manifest": [entry]}, "truncated")

    def test_file_shrunk_after_open_is_truncation(self, tmp_path, monkeypatch):
        # the size taken when the file was opened promises more bytes than the reads find
        p = tmp_path / "short.ckpt"
        write_raw_checkpoint(p, {"config": {}, "manifest": [self.ENTRY]}, self.PAYLOAD[:12])
        stat = os.stat(p)
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=stat.st_size + 12))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def test_empty_array_with_unrepresentable_dimension(self, tmp_path):
        entry = {**self.ENTRY, "shape": [0, 2**63]}  # zero elements, but no numpy array has that dimension
        self._rejected(tmp_path / "bad.ckpt", {"config": {}, "manifest": [entry]}, "corrupt checkpoint manifest")

    @pytest.mark.parametrize("name", ["a", "opt.m.a"])
    @pytest.mark.parametrize("model_only", [False, True])
    def test_repeated_name_rejected_before_any_read(self, tmp_path, readintos, name, model_only):
        p = tmp_path / "twice.ckpt"
        manifest = [{"name": name, "shape": [2], "offset": 0}, {"name": name, "shape": [2], "offset": 8}]
        write_raw_checkpoint(p, {"config": {}, "manifest": manifest}, np.arange(4, dtype="<f4").tobytes())
        with pytest.raises(CheckpointError, match=f"array '{name}' is listed twice"):
            load_checkpoint(p, model_only=model_only)
        assert readintos == []

    def test_unparseable_json_numbers_and_nesting(self, tmp_path):
        for blob in (b"1" * 5000, b"[" * 100_000):
            p = tmp_path / "bad.ckpt"
            p.write_bytes(b"SPRK" + struct.pack("<I", 1) + struct.pack("<Q", len(blob)) + blob)
            with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
                load_checkpoint(p)



def save_checkpoint_reference(path, arrays, config):
    """The writer that collects every array's bytes before the first write."""
    manifest, offset, blobs = [], 0, []
    for name, arr in arrays.items():
        blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(np.asarray(arr).shape), "offset": offset})
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps({"config": config, "manifest": manifest},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(b"SPRK" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header + b"".join(blobs))


def load_checkpoint_reference(path, model_only=False):
    """A per-array reader of a well-formed file: (arrays, shapes) as load_checkpoint gives them."""
    raw = path.read_bytes()
    hlen = struct.unpack("<Q", raw[8:16])[0]
    base = 16 + hlen
    arrays, shapes = {}, {}
    for e in json.loads(raw[16:base])["manifest"]:
        shape = shapes[e["name"]] = tuple(e["shape"])
        if model_only and e["name"].startswith(("opt.m.", "opt.v.")):
            continue
        flat = np.frombuffer(raw, "<f4", math.prod(shape), base + e["offset"])
        arrays[e["name"]] = flat.astype(np.float64).reshape(shape)
    return arrays, shapes


class CountingFile:
    """A file object that records the byte count of every readinto."""

    def __init__(self, f, reads):
        self._f, self._reads = f, reads

    def readinto(self, b):
        n = self._f.readinto(b)
        self._reads.append(n)
        return n

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.fixture
def readintos(monkeypatch):
    """The byte counts of the readinto calls that training's file objects make."""
    reads = []
    monkeypatch.setattr(training, "open", lambda *a, **k: CountingFile(open(*a, **k), reads), raising=False)
    return reads


class TestCheckpointRuns:
    """load_checkpoint decodes each run of arrays that lie back to back in the
    file with one read; the result is what a per-array reader gives."""

    # byte order: opt.v.enc.w [0, 24), empty [24, 24), bn.mean [24, 40), enc.w [40, 64),
    # opt.m.enc.w [64, 88), dec.w [88, 104), a gap [104, 112), dec.b [112, 120)
    MANIFEST = [
        {"name": "enc.w", "shape": [2, 3], "offset": 40},
        {"name": "dec.b", "shape": [2], "offset": 112},
        {"name": "opt.m.enc.w", "shape": [2, 3], "offset": 64},
        {"name": "empty", "shape": [0, 3], "offset": 24},
        {"name": "dec.w", "shape": [4], "offset": 88},
        {"name": "opt.v.enc.w", "shape": [2, 3], "offset": 0},
        {"name": "bn.mean", "shape": [4], "offset": 24},
    ]
    PAYLOAD = (np.arange(30, dtype="<f4") * np.float32(0.1) - np.float32(1.3)).tobytes()

    def _write(self, path, payload=PAYLOAD):
        write_raw_checkpoint(path, {"config": {"step": 3}, "manifest": self.MANIFEST}, payload)
        return path

    @pytest.mark.parametrize("model_only, runs", [(False, 2), (True, 3)])
    def test_matches_per_array_reader(self, tmp_path, readintos, model_only, runs):
        p = self._write(tmp_path / "runs.ckpt")
        ck = load_checkpoint(p, model_only=model_only)
        arrays, shapes = load_checkpoint_reference(p, model_only)
        assert list(ck.arrays) == list(arrays) and list(ck.shapes.items()) == list(shapes.items())
        for name, ref in arrays.items():
            got = ck.arrays[name]
            assert got.dtype == np.float64 and got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert len(readintos) == runs  # the zero-size array joins its neighbour's run

    @pytest.mark.parametrize("model_only", [False, True])
    def test_truncation_inside_a_run_reads_nothing(self, tmp_path, readintos, model_only):
        # the file ends inside dec.w; dec.b, listed earlier in the manifest, is named
        p = self._write(tmp_path / "cut.ckpt", self.PAYLOAD[:100])
        with pytest.raises(CheckpointError, match=r"truncated checkpoint: array 'dec.b' ends past end of file"):
            load_checkpoint(p, model_only=model_only)
        assert readintos == []

    def test_arrays_of_a_run_do_not_alias(self, tmp_path):
        ck = load_checkpoint(self._write(tmp_path / "runs.ckpt"))
        before = {name: arr.copy() for name, arr in ck.arrays.items()}
        assert ck.arrays["enc.w"].base is ck.arrays["bn.mean"].base  # one buffer per run
        ck.arrays["enc.w"][...] = 7.0
        for name, arr in ck.arrays.items():
            if name != "enc.w":
                assert np.array_equal(arr, before[name])

    def test_model_only_load_is_one_read(self, tmp_path, readintos):
        model = desk_model(seed=2)
        opt = OptimizerState([p.shape for _, p in model.named_parameters()])
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model_checkpoint_arrays(model, opt), {"kind": "spark", "model": model.cfg.to_dict()})
        ck = load_checkpoint(p, model_only=True)
        values = sum(arr.size for arr in model.state_arrays().values())
        assert readintos == [4 * values] and len(ck.arrays) == len(model.state_arrays())

    def test_model_keeps_the_decoded_views(self, tmp_path):
        model = desk_model(seed=2)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model_checkpoint_arrays(model), {"kind": "spark", "model": model.cfg.to_dict()})
        ck = load_checkpoint(p, model_only=True)
        m2, _ = model_from_checkpoint(ck)
        assert all(m2.params[name].data is ck.arrays[name] for name in m2.params)

    def test_save_matches_reference_writer(self, tmp_path):
        model = desk_model(seed=2)
        arrays = model_checkpoint_arrays(model, OptimizerState([p.shape for _, p in model.named_parameters()]))
        arrays["fortran"] = np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7)
        arrays["f32"] = np.linspace(-1, 1, 5, dtype=np.float32)
        arrays["empty"] = np.zeros((0, 3))
        arrays["scalar"] = np.float64(2.5)
        cfg = {"kind": "spark", "step": 1}
        save_checkpoint(tmp_path / "a.ckpt", arrays, cfg)
        save_checkpoint_reference(tmp_path / "b.ckpt", arrays, cfg)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
