"""How the tests enter backward: an output gradient seeded without an engine op,
and the mean square that gradient checks differentiate."""

import numpy as np

from sparsemim import autograd as ag


def backprop(y, g=None):
    """Run ``ag.backward`` from tensor ``y`` with output gradient ``g`` (ones by
    default), or from each tensor of the list ``y`` with the array at its place
    in the list ``g``: the gradients of ``sum(y * g)``.

    The seed is one scalar tape node whose backward hands each ``g`` itself, in
    its tensor's dtype, to its tensor; its value is never read, so it is 0.
    """
    ys, gs = (y, g or [None] * len(y)) if isinstance(y, list) else ([y], [g])
    gs = [np.broadcast_to(np.ones((), t.data.dtype), t.shape) if a is None else np.asarray(a, dtype=t.data.dtype)
          for t, a in zip(ys, gs)]

    def backward_fn(_):
        for t, a in zip(ys, gs):
            ag.accumulate_grad(t, a)

    ag.backward(ag.record_op(ag.tensor(0.0), ys, backward_fn))


def mean_square(y):
    """The mean of ``y``'s squared entries, through ``ag.mse`` against zeros: a gradient check's scalar."""
    return ag.mse(y, np.zeros_like(y.data))
