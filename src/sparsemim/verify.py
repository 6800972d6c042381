"""Self-contained invariant suites: gradient checks, the dense-oracle
equivalence, mask erosion vs preservation, and the information-leak guard.
The gradient checks cover every op that training records: a test requires
the two sets of ops to be equal, so an op is added with its check and
deleted with its last caller.

Each suite returns (passed, report_lines) so the CLI can print a table and
exit nonzero on any failure; the test suite asserts on the same functions.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .masking import PatchMask, erosion_profile, generate_mask, masked_pixel_map
from .model import (EncoderConfig, SparkConfig, SparkModel, _project_dense, decoder_forward, encoder_forward,
                    spark_forward, spark_loss)
from .sparse import ActiveSet, SparseTensor2D, build_rulebook, sparse_downsample, subm_conv2d

__all__ = ["suite_gradcheck", "suite_oracle", "suite_erosion", "suite_leakage", "run_suites", "SUITES"]

GRAD_TOL = 1e-4


def _msq(y):
    """Mean square of ``y``: the scalar that each op's check differentiates."""
    return ag.mse(y, np.zeros_like(y.data))


def suite_gradcheck():
    """Finite-difference checks for every differentiable op plus a composite chain.

    "Every op" is enforced: tests/test_gradcheck_coverage.py requires the ops
    this suite records to be exactly the ops that a train step of each CLI
    variant records.
    """
    rng = np.random.default_rng(42)
    lines = []
    worst_overall = 0.0

    def check(name, fn, inputs, tol=GRAD_TOL):
        nonlocal worst_overall
        err = ag.grad_check(fn, inputs)
        worst_overall = max(worst_overall, err)
        lines.append(f"  {name}: max rel err {err:.3e} (tol {tol:g})")
        return err < tol

    ok = True
    x = ag.tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
    w = ag.tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = ag.tensor(rng.normal(size=3), requires_grad=True)
    ok &= check("conv2d", lambda t: _msq(ag.conv2d(t[0], t[1], t[2], 1, 1)), [x, w, b], 1e-6)
    xs = ag.tensor(rng.normal(size=(1, 2, 7, 5)), requires_grad=True)
    ok &= check("conv2d k3/s2/p1", lambda t: _msq(ag.conv2d(t[0], t[1], t[2], 2, 1)), [xs, w, b], 1e-6)
    x4 = ag.tensor(rng.normal(size=(1, 2, 9, 10)), requires_grad=True)
    w4 = ag.tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
    ok &= check("conv2d k4/s4", lambda t: _msq(ag.conv2d(t[0], t[1], None, 4, 0)), [x4, w4], 1e-6)

    xt = ag.tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    wt = ag.tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    bt = ag.tensor(rng.normal(size=3), requires_grad=True)
    ok &= check("conv_transpose2d", lambda t: _msq(ag.conv_transpose2d(t[0], t[1], t[2])), [xt, wt, bt], 1e-6)

    xb = ag.tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    gm = ag.tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    bb = ag.tensor(rng.normal(size=3), requires_grad=True)
    st = ag.BatchNormState(3)
    ok &= check("batchnorm2d/train", lambda t: _msq(ag.batchnorm2d(t[0], t[1], t[2], st, "train")), [xb, gm, bb])
    st_eval = ag.BatchNormState(3)
    st_eval.running_mean = rng.normal(size=3)
    st_eval.running_var = rng.uniform(0.5, 2.0, 3)
    ok &= check("batchnorm2d/eval", lambda t: _msq(ag.batchnorm2d(t[0], t[1], t[2], st_eval, "eval")), [xb, gm, bb])

    # batchnorm_rows and the fused clamps draw from their own generator, so no other check's inputs move
    frng = np.random.default_rng(43)
    xn, gn, bn = (ag.tensor(a, requires_grad=True) for a in (frng.normal(size=(4, 4)), frng.uniform(0.5, 1.5, 4), frng.normal(size=4)))
    st_rows, st_rows_eval = ag.BatchNormState(4), ag.BatchNormState(4)
    st_rows_eval.running_mean, st_rows_eval.running_var = frng.normal(size=4), frng.uniform(0.5, 2.0, 4)
    for st_r, mode in ((st_rows, "train"), (st_rows_eval, "eval")):
        ok &= check(f"batchnorm_rows/{mode}", lambda t, st_r=st_r, mode=mode: _msq(ag.batchnorm_rows(t[0], t[1], t[2], st_r, mode)), [xn, gn, bn])
    # eval-mode input whose pre-activation is 2 * xr: it spans both kinks with |2xr| and |2xr - 6| >> fd step
    xr = rng.normal(size=(4, 4)) * 3.0 + 0.5
    xf = ag.tensor((2.0 * xr - bn.data) * np.sqrt(st_rows_eval.running_var + ag.BN_EPS) / gn.data + st_rows_eval.running_mean, requires_grad=True)
    for name, clamp in (("relu", np.inf), ("relu6", 6.0)):
        ok &= check(f"batchnorm_rows/eval+{name}", lambda t, clamp=clamp: _msq(
            ag.batchnorm_rows(t[0], t[1], t[2], st_rows_eval, "eval", clamp)), [xf, gn, bn], 1e-6)

    xa = ag.tensor(rng.normal(size=(3, 3)), requires_grad=True)
    ya = ag.tensor(rng.normal(size=(3, 3)), requires_grad=True)
    ok &= check("add", lambda t: _msq(ag.add(t[0], t[1])), [xa, ya], 1e-6)
    rng.random((3, 3))  # read by no check: it keeps the composite check's inputs, and its printed error, fixed

    # add_broadcast and mse draw from their own generator, so no other check's inputs move
    brng = np.random.default_rng(44)
    xp = ag.tensor(brng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    # drawn at (1, 3, 1, 4) and repeated down the rows, so the mse inputs do not move
    pe = ag.tensor(np.repeat(brng.normal(size=(1, 3, 1, 4)), 4, axis=2), requires_grad=True)
    ok &= check("add_broadcast", lambda t: _msq(ag.add_broadcast(t[0], t[1])), [xp, pe], 1e-6)
    mtgt, msel4 = brng.normal(size=(2, 3, 4, 4)), brng.random((2, 1, 4, 4)) < 0.5
    ok &= check("mse", lambda t: ag.mse(t[0], mtgt), [xp], 1e-6)
    ok &= check("mse(mask)", lambda t: ag.mse(t[0], mtgt, msel4), [xp], 1e-6)

    # composite: conv -> bn with relu6 -> mse against a fixed target
    st2 = ag.BatchNormState(3)
    tgt = rng.normal(size=(2, 3, 5, 5))
    xc = ag.tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
    wc = ag.tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    gc = ag.tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    bc = ag.tensor(rng.normal(size=3) * 0.1, requires_grad=True)

    def composite(t):
        y = ag.batchnorm2d(ag.conv2d(t[0], t[1], None, 1, 1), t[2], t[3], st2, "train", clamp=6.0)
        return ag.mse(y, tgt)

    err = ag.grad_check(composite, [xc, wc, gc, bc])
    worst_overall = max(worst_overall, err)
    lines.append(f"  composite conv->bn+relu6->mse: max rel err {err:.3e} (tol 1e-5)")
    ok &= err < 1e-5

    ok &= end_to_end_gradcheck(lines)
    lines.append(f"  worst op-level rel err: {worst_overall:.3e}")
    return bool(ok), lines


def end_to_end_gradcheck(lines=None) -> bool:
    """FD check of the full model on a tiny 2-stage network (sampled entries)."""
    enc = EncoderConfig(stages=2, widths=(4, 8), blocks_per_stage=1)
    cfg = SparkConfig(encoder=enc, image_size=16, patch_size=8, dec_fea_dim=8)
    model = SparkModel(cfg, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    images = rng.random((2, 3, 16, 16))
    masks = [generate_mask(2, 2, 0.5, np.random.default_rng(50 + i), patch_size=8) for i in range(2)]

    names = list(model.params.keys())
    tensors = [model.params[n] for n in names]

    def f(_):
        return spark_loss(model, spark_forward(model, images, masks, mode="train"), images, masks)

    err = ag.grad_check(f, tensors, max_entries_per_input=4, rng=np.random.default_rng(7))
    if lines is not None:
        lines.append(f"  end-to-end tiny model: max rel err {err:.3e} (tol {GRAD_TOL:g})")
    return err < GRAD_TOL


def _random_batch(rng, n, h, w, cin):
    """A batched SparseTensor2D of n samples; with probability 1/2 (n > 1) one sample has no site."""
    empty = int(rng.integers(0, n)) if n > 1 and rng.random() < 0.5 else -1
    sets = []
    for b in range(n):
        on = rng.random((h, w)) < rng.uniform(0.2, 1.0)
        if b != empty and not on.any():
            on[int(rng.integers(0, h)), int(rng.integers(0, w))] = True
        sets.append(np.argwhere(on & (b != empty)))
    sites = ActiveSet.stack(h, w, sets)
    return SparseTensor2D(sites, ag.tensor(rng.normal(size=(len(sites), cin)))), empty >= 0


def _zero_fill(sp, n, rows):
    """[n, C, h, w] dense tensor holding ``rows`` at the active sites of each sample, zero elsewhere."""
    dense = np.zeros((n, rows.shape[1], sp.height, sp.width))
    dense[sp.batch, :, sp.coords[:, 0], sp.coords[:, 1]] = rows
    return ag.tensor(dense)


def suite_oracle(instances: int = 200, seed: int = 123):
    """Sparse convs == zero-fill + dense conv + restrict-to-active (random batched instances).

    Every instance is one batched tensor of 1-3 samples, sometimes with an
    empty sample. It runs a submanifold conv (kernel 1/3/5) and a strided
    conv (kernel 2 pad 0 or kernel 3 pad 1, stride 2) onto a random subset
    of the output sites that the sample's active inputs reach.
    """
    rng = np.random.default_rng(seed)
    worst_subm = worst_down = 0.0
    preserved = True
    with_empty = 0
    for _ in range(instances):
        n = int(rng.integers(1, 4))
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        k = int(rng.choice([1, 3, 5]))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        sp, has_empty = _random_batch(rng, n, h, w, cin)
        with_empty += has_empty
        wt = ag.tensor(rng.normal(size=(cout, cin, k, k)))
        out = subm_conv2d(sp, wt, build_rulebook(sp.sites, k))
        preserved &= np.array_equal(out.coords, sp.coords) and np.array_equal(out.batch, sp.batch)
        dense = _zero_fill(sp, n, sp.features.data)
        ref = ag.conv2d(dense, wt, stride=1, padding=k // 2).data[sp.batch, :, sp.coords[:, 0], sp.coords[:, 1]]
        worst_subm = max(worst_subm, float(np.abs(out.features.data - ref).max(initial=0.0)))

        kd = int(rng.choice([2, 3]))
        pad = 1 if kd == 3 else 0
        wd = ag.tensor(rng.normal(size=(cout, cin, kd, kd)))
        reach = ag.conv2d(_zero_fill(sp, n, np.ones((sp.num_active, 1))), ag.tensor(np.ones((1, 1, kd, kd))),
                          stride=2, padding=pad).data[:, 0]
        target = np.argwhere((reach > 0) & (rng.random(reach.shape) < 0.8))  # (sample, row, col)
        dst = ActiveSet(reach.shape[1], reach.shape[2], target[:, 1:], target[:, 0])
        down = sparse_downsample(sp, wd, build_rulebook(sp.sites, kd, dst, stride=2, padding=pad))
        ref = ag.conv2d(dense, wd, stride=2, padding=pad).data[target[:, 0], :, target[:, 1], target[:, 2]]
        worst_down = max(worst_down, float(np.abs(down.features.data - ref).max(initial=0.0)))
    lines = [f"  {instances} random batched instances ({with_empty} with an empty sample)",
             f"  submanifold: max abs diff {worst_subm:.3e} (tol 1e-9)",
             f"  strided (kernel 2 and 3): max abs diff {worst_down:.3e} (tol 1e-9)",
             f"  active set preserved in all instances: {preserved}"]
    return bool(worst_subm < 1e-9 and worst_down < 1e-9 and preserved), lines


def suite_erosion(max_layers: int = 20):
    """Dense zero-out erodes a 32x32 hole to nothing in 16 layers; submanifold never does."""
    visible = np.ones((3, 3), dtype=bool)
    visible[1, 1] = False
    mask = PatchMask(3, 3, 32, visible)
    profile = erosion_profile(mask, max_layers)
    lines = ["  layer  zero_cells"]
    for i, z in enumerate(profile):
        lines.append(f"  {i:5d}  {z}")
    ok = profile[0] == 1024 and profile[1] == 900 and profile[16] == 0 and profile[15] > 0

    # the same mask under stacked submanifold convs keeps the count constant
    rng = np.random.default_rng(0)
    sites = ActiveSet.stack(12, 12, [np.argwhere(~masked_pixel_map(PatchMask(3, 3, 4, visible)))])
    sp = SparseTensor2D(sites, ag.tensor(rng.normal(size=(len(sites), 2))))
    rb = build_rulebook(sites, 3)
    wt = ag.tensor(rng.normal(size=(2, 2, 3, 3)))
    zero_cells = 12 * 12 - len(sites)
    constant = True
    for _ in range(max_layers):
        sp = subm_conv2d(sp, wt, rb)
        constant &= (sp.height * sp.width - sp.num_active) == zero_cells
    lines.append(f"  submanifold stack keeps zero-cell count at {zero_cells}: {constant}")
    return bool(ok and constant), lines


def suite_leakage():
    """Masked pixels can never influence sparse features or the masked loss.

    Three stages, so the guard covers a second downsample and the stage-2
    features and skip as well as the first.
    """
    enc = EncoderConfig(stages=3, widths=(8, 16, 32), blocks_per_stage=1)
    cfg = SparkConfig(encoder=enc, image_size=64, patch_size=16, dec_fea_dim=32)
    model = SparkModel(cfg, np.random.default_rng(31))
    rng = np.random.default_rng(32)
    images = rng.random((1, 3, 64, 64))
    mask = generate_mask(4, 4, 0.6, np.random.default_rng(33), patch_size=16)
    mm = masked_pixel_map(mask)

    with ag.no_grad():
        recon_a = spark_forward(model, images, mask, mode="eval")
        loss_a = spark_loss(model, recon_a, images, mask).item()
        feats_a = encoder_forward(model, images, mask, mode="eval")

        perturbed = images.copy()
        perturbed[0][:, mm] = rng.random((int(mm.sum()), 3)).T
        recon_b = spark_forward(model, perturbed, mask, mode="eval")
        loss_b = spark_loss(model, recon_b, images, mask).item()  # the clean image's targets
        feats_b = encoder_forward(model, perturbed, mask, mode="eval")

        feats_same = all(np.array_equal(sa.features.data, sb.features.data) for sa, sb in zip(feats_a, feats_b))
        recon_same = np.array_equal(recon_a.data, recon_b.data)

        visible = images.copy()
        vr, vc = np.argwhere(~mm)[0]
        visible[0, 0, vr, vc] += 0.17
        loss_c = spark_loss(model, spark_forward(model, visible, mask, mode="eval"), images, mask).item()

        # zero-out baseline (same seed, same parameters): the dense encoder
        # computes at masked positions, so noise injected there changes the loss.
        # spark_forward zeroes masked pixels itself, so the noisy input takes the
        # same dense path by hand, checked first against spark_forward on the clean image.
        zmodel = SparkModel(SparkConfig(encoder=enc, image_size=64, patch_size=16, dec_fea_dim=32,
                                        masking="zero_out"), np.random.default_rng(31))
        loss_z = spark_loss(zmodel, spark_forward(zmodel, images, mask, mode="eval"), images, mask).item()

        def zero_out_loss(dense_input):
            feats = zmodel.encoder.forward(dense_input, mode="eval")
            to_dec = [_project_dense(zmodel, s, feats[s]) for s in reversed(range(enc.stages))]
            return spark_loss(zmodel, decoder_forward(zmodel, to_dec, mode="eval"), images, mask).item()

        zeroed = images * (~mm)[None, None]
        loss_zh = zero_out_loss(zeroed)
        noisy = zeroed.copy()
        noisy[0][:, mm] = rng.random((int(mm.sum()), 3)).T  # dense input differs at masked sites
        loss_zn = zero_out_loss(noisy)

    lines = [
        f"  sparse: features bit-identical under masked-pixel noise: {feats_same}",
        f"  sparse: reconstruction bit-identical: {recon_same}",
        f"  sparse: masked loss bit-identical: {loss_a == loss_b}",
        f"  sparse: visible-pixel perturbation changes loss: {loss_a != loss_c}",
        f"  zero-out: dense path by hand equals spark_forward: {loss_zh == loss_z}",
        f"  zero-out: masked-site noise changes loss: {loss_z != loss_zn}",
    ]
    ok = (feats_same and recon_same and loss_a == loss_b and loss_a != loss_c
          and loss_zh == loss_z and loss_z != loss_zn)
    return bool(ok), lines


SUITES = {
    "gradcheck": suite_gradcheck,
    "oracle": suite_oracle,
    "erosion": suite_erosion,
    "leakage": suite_leakage,
}


def run_suites(names):
    """Run the named suites; returns (all_passed, report_lines)."""
    all_ok = True
    lines = []
    for name in names:
        ok, sub = SUITES[name]()
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}")
        lines.extend(sub)
        all_ok &= ok
    return all_ok, lines
