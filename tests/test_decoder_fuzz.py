"""Fuzzing of the two binary decoders: whatever the bytes, ``load_checkpoint``
returns or raises ``CheckpointError``, and ``load_ppm`` returns or raises
``PpmError``; ``load_checkpoint(model_only=True)`` fails exactly when the full
decode does and otherwise returns the same model arrays. Seeds and example
counts are fixed so every run draws the same inputs."""

import os
import struct
import tempfile
from collections import OrderedDict

import numpy as np
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from sparsemim.data import PpmError, load_ppm
from sparsemim.training import OPT_PREFIXES, CheckpointError, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=300, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _decode(loader, raw: bytes):
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(raw)
        return loader(path)
    finally:
        os.remove(path)


def _valid_checkpoint(arrays) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ckpt")
        save_checkpoint(path, arrays, {"kind": "spark", "step": 3})
        with open(path, "rb") as f:
            return f.read()


def _valid_ppm() -> bytes:
    return b"P6\n# c\n3 2\n255\n" + bytes(range(18))


VALID_CKPT = _valid_checkpoint(
    OrderedDict([("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(4)), ("e", np.zeros((0, 2)))]))
# model arrays with optimizer moments between and after them
VALID_OPT_CKPT = _valid_checkpoint(OrderedDict([
    ("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(2)), ("opt.m.w", np.full((2, 3), 0.5)),
    ("opt.v.w", np.full((2, 3), 0.25)), ("opt.m.b", np.zeros(2)), ("e", np.zeros((0, 2))),
    ("opt.v.b", np.ones(2))]))
OPT_PAYLOAD = 16 + struct.unpack("<Q", VALID_OPT_CKPT[8:16])[0]  # where its arrays start
VALID_PPM = _valid_ppm()


def _mutations(valid: bytes):
    """(position, new byte); half the bytes are ones that header parsers trip over."""
    return st.tuples(st.integers(0, len(valid) - 1), st.sampled_from(list(b"0-_+ \n#[{\"")) | st.integers(0, 255))


def _mutate(valid: bytes, at: int, value: int) -> bytes:
    raw = bytearray(valid)
    raw[at] = value
    return bytes(raw)


def _checkpoint_or_typed_error(raw):
    try:
        _decode(load_checkpoint, raw)
    except CheckpointError:
        pass


def _model_only_agrees(raw):
    def decode(**kw):
        try:
            return _decode(lambda path: load_checkpoint(path, **kw), raw)
        except CheckpointError:
            return None

    full, model = decode(), decode(model_only=True)
    assert (full is None) == (model is None)
    if full is None:
        return
    want = {n: a for n, a in full.arrays.items() if not n.startswith(OPT_PREFIXES)}
    assert list(model.arrays) == list(want) and model.config == full.config and model.shapes == full.shapes
    for name, arr in want.items():
        got = model.arrays[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape and got.tobytes() == arr.tobytes()


def _ppm_or_typed_error(raw):
    try:
        img = _decode(load_ppm, raw)
    except PpmError:
        return
    assert img.ndim == 3 and img.shape[0] == 3 and img.shape[1] > 0 and img.shape[2] > 0


def test_valid_inputs_decode():
    ck = _decode(load_checkpoint, VALID_CKPT)
    assert list(ck.arrays) == ["w", "b", "e"] and ck.config["step"] == 3
    assert _decode(load_ppm, VALID_PPM).shape == (3, 2, 3)


@seed(20230110)
@FUZZ
@given(st.binary(max_size=256) | st.binary(max_size=64).map(lambda b: VALID_CKPT[:16] + b))
def test_checkpoint_arbitrary_bytes(raw):
    _checkpoint_or_typed_error(raw)


@seed(20230111)
@FUZZ
@given(_mutations(VALID_CKPT))
def test_checkpoint_single_byte_mutation(mutation):
    _checkpoint_or_typed_error(_mutate(VALID_CKPT, *mutation))


@seed(20230114)
@FUZZ
@given(st.binary(max_size=256)
       | st.binary(max_size=64).map(lambda b: VALID_OPT_CKPT[:16] + b)
       | st.integers(0, len(VALID_OPT_CKPT)).map(lambda n: VALID_OPT_CKPT[:n])
       | _mutations(VALID_OPT_CKPT).map(lambda m: _mutate(VALID_OPT_CKPT, *m))
       | st.tuples(st.integers(OPT_PAYLOAD, len(VALID_OPT_CKPT) - 1), st.integers(0, 255))
         .map(lambda m: _mutate(VALID_OPT_CKPT, *m)))  # valid files: any float32 bits, NaNs too
def test_model_only_decode_agrees(raw):
    _model_only_agrees(raw)


@seed(20230112)
@FUZZ
@given(st.binary(max_size=64) | st.binary(max_size=48).map(lambda b: b"P6" + b))
def test_ppm_arbitrary_bytes(raw):
    _ppm_or_typed_error(raw)


@seed(20230113)
@FUZZ
@given(_mutations(VALID_PPM))
def test_ppm_single_byte_mutation(mutation):
    _ppm_or_typed_error(_mutate(VALID_PPM, *mutation))
