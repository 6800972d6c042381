"""The names the benchmark's span tracer rebinds (``perfbench/spans.py``
``PATCHES``) exist, and a train-mode forward + backward calls every one of
them that lives in ``sparsemim.model``."""

import importlib
import importlib.util
import os

import numpy as np

from sparsemim import autograd as ag
from sparsemim import model as model_mod
from sparsemim.masking import generate_mask
from sparsemim.model import EncoderConfig, SparkConfig, SparkModel, spark_forward, spark_loss

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCHES


def test_every_patched_name_resolves():
    for module, attr, _ in load_patches():
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_model_entries_are_called_by_a_train_step(monkeypatch):
    names = [attr for module, attr, _ in load_patches() if module == "sparsemim.model"]
    calls = dict.fromkeys(names, 0)

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in names:
        monkeypatch.setattr(model_mod, attr, counted(attr, getattr(model_mod, attr)))
    enc = EncoderConfig(stages=2, widths=(4, 8), blocks_per_stage=1)
    model = SparkModel(SparkConfig(encoder=enc, image_size=16, patch_size=8, dec_fea_dim=8), np.random.default_rng(0))
    images = np.random.default_rng(1).random((2, 3, 16, 16))
    masks = [generate_mask(2, 2, 0.5, np.random.default_rng(2 + i), patch_size=8) for i in range(2)]
    recon = spark_forward(model, images, masks, mode="train")
    ag.backward(spark_loss(model, recon, images, masks))
    assert not [attr for attr, n in calls.items() if n == 0]
