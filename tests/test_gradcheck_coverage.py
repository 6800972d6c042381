"""The gradient gate covers every op by construction: the ops that
``verify --suite gradcheck`` records are exactly the ops that a train step of
the CLI's variants records. A new op fails this test until it is
gradchecked; an op that no model path records any more fails it until it is
deleted."""

import contextlib

import numpy as np

from sparsemim import autograd as ag
from sparsemim.cli import VARIANTS
from sparsemim.masking import generate_mask
from sparsemim.model import EncoderConfig, SparkConfig, SparkModel, spark_forward, spark_loss
from sparsemim.verify import suite_gradcheck


@contextlib.contextmanager
def recorded_ops():
    """The set of ops recorded on the tape inside the block: each recorded
    ``backward_fn``'s owning function, by qualified name."""
    ops = set()
    record = ag.Tape.record

    def spy(self, out, backward_fn):
        ops.add(backward_fn.__qualname__.split(".<locals>")[0])
        return record(self, out, backward_fn)

    ag.Tape.record = spy
    try:
        yield ops
    finally:
        ag.Tape.record = record


def train_step(flags, down_kernel):
    """One train-mode forward and backward of a tiny model with the variant's flags."""
    enc = EncoderConfig(stages=2, widths=(4, 8), blocks_per_stage=2, down_kernel=down_kernel)
    model = SparkModel(SparkConfig(encoder=enc, image_size=32, patch_size=8, dec_fea_dim=8, **flags),
                       np.random.default_rng(0))
    rng = np.random.default_rng(1)
    images = rng.random((2, 3, 32, 32))
    masks = [generate_mask(4, 4, 0.5, rng, patch_size=8) for _ in range(2)]
    ag.backward(spark_loss(model, spark_forward(model, images, masks, mode="train"), images, masks))


def test_gradcheck_records_exactly_the_ops_training_records():
    with recorded_ops() as trained:
        for flags in VARIANTS.values():
            for down_kernel in (2, 3):
                train_step(flags, down_kernel)
    with recorded_ops() as checked:
        passed, _ = suite_gradcheck()
    assert passed
    assert checked == trained, (f"gradchecked but recorded by no variant: {sorted(checked - trained)}; "
                                f"recorded by a variant but not gradchecked: {sorted(trained - checked)}")
    assert {"add_broadcast", "mse", "_apply_rulebook", "conv_transpose2d"} <= trained
