"""Masked-image-modeling pre-training for hierarchical convnets on a
submanifold sparse convolution engine, with a self-contained f64 autograd
core, exact MAC accounting, and a verification-first test surface."""

__version__ = "0.1.0"
