"""Fuzzing of the two binary decoders: whatever the bytes, ``load_checkpoint``
returns or raises ``CheckpointError``, and ``load_ppm`` returns or raises
``PpmError``. Seeds and example counts are fixed so every run draws the same
inputs."""

import os
import tempfile
from collections import OrderedDict

import numpy as np
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from sparsemim.data import PpmError, load_ppm
from sparsemim.training import CheckpointError, load_checkpoint, save_checkpoint

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


def _valid_checkpoint() -> bytes:
    arrays = OrderedDict([("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(4)), ("e", np.zeros((0, 2)))])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ckpt")
        save_checkpoint(path, arrays, {"kind": "spark", "step": 3})
        with open(path, "rb") as f:
            return f.read()


def _valid_ppm() -> bytes:
    return b"P6\n# c\n3 2\n255\n" + bytes(range(18))


VALID_CKPT = _valid_checkpoint()
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
