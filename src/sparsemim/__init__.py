"""Masked-image-modeling pre-training for hierarchical convnets on a
submanifold sparse convolution engine, with a self-contained f64 autograd
core, exact MAC accounting, and a verification-first test surface."""

from .autograd import (
    BatchNormState,
    DiffTensor,
    Tape,
    backward,
    batchnorm2d,
    conv2d,
    conv_transpose2d,
    grad_check,
    no_grad,
    tensor,
)
from .data import DirectoryDataset, augment, load_ppm, save_ppm, synth_dataset
from .masking import (
    PatchMask,
    active_set_at_scale,
    erosion_profile,
    generate_mask,
    masked_pixel_map,
    per_patch_normalize,
    zero_out_image,
)
from .model import (
    DenseEncoder,
    EncoderConfig,
    LightDecoderConfig,
    SparkConfig,
    SparkModel,
    decoder_forward,
    encoder_flops_table,
    encoder_forward,
    project_and_densify,
    spark_forward,
    spark_loss,
    to_dense_encoder,
)
from .sparse import (
    ActiveSet,
    Rulebook,
    SparseTensor2D,
    build_rulebook,
    densify,
    gather_from_dense,
    sparse_batchnorm,
    sparse_downsample,
    sparse_flops,
    subm_conv2d,
)
from .training import (
    Checkpoint,
    OptimizerState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    cosine_lr,
    lamb_step,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
