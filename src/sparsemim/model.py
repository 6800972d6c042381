"""End-to-end masked-modeling network: sparse hierarchical encoder, per-scale
densify/project, light UNet-style decoder, and the reconstruction loss.

The encoder gathers only visible content and keeps each scale's active set
equal to the mask's footprint at that stride. Before decoding, every scale is
densified with its own learnable mask-fill embedding and width-matched by a
1x1 projection; decoder stages add those skip inputs, upsample by 2, and run
two 3x3 conv + batch-norm blocks with ReLU6 between. The loss is an L2 on
per-patch-normalized pixels, restricted to masked positions by default.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import BatchNormState, DiffTensor
from .masking import (
    PatchMask,
    active_set_at_scale,
    masked_pixel_map,
    per_patch_normalize,
    zero_out_image,
)
from .sparse import (
    build_rulebook,
    densify,
    dense_conv_macs,
    gather_from_dense,
    sparse_batchnorm,
    sparse_downsample,
    sparse_flops,
    stack_coords,
    subm_conv2d,
)

__all__ = [
    "STEM_STRIDE",
    "from_fields",
    "EncoderConfig",
    "EncoderLayer",
    "encoder_layers",
    "LightDecoderConfig",
    "SparkConfig",
    "SparkModel",
    "DenseEncoder",
    "encoder_forward",
    "project_and_densify",
    "decoder_forward",
    "spark_forward",
    "spark_loss",
    "to_dense_encoder",
    "encoder_flops_table",
]


STEM_STRIDE = 4  # the patchify stem's kernel and stride; every later stage halves the resolution


def from_fields(cls, d, legacy=None):
    """Build dataclass ``cls`` from a dict holding exactly its field names; raise
    ValueError on a missing or unknown key. ``legacy`` maps keys that older files
    wrote to the one value each may hold; such a key is dropped."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__}: expected an object, got {type(d).__name__}")
    d = dict(d)
    for key, value in (legacy or {}).items():
        if key in d and d.pop(key) != value:
            raise ValueError(f"{cls.__name__}: {key} must be {value}")
    names = {f.name for f in fields(cls)}
    if set(d) != names:
        raise ValueError(f"{cls.__name__}: missing keys {sorted(names - set(d))}, unknown keys {sorted(set(d) - names)}")
    return cls(**d)


@dataclass
class EncoderConfig:
    """Hierarchical encoder geometry; stage i runs at stride STEM_STRIDE * 2**i."""

    stages: int = 4
    widths: tuple = (64, 128, 256, 512)
    blocks_per_stage: int = 1
    down_kernel: int = 2  # 2 (stride 2, pad 0) or 3 (stride 2, pad 1)

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if self.stages < 1:
            raise ValueError("EncoderConfig: need at least one stage")
        if len(self.widths) != self.stages:
            raise ValueError(
                f"EncoderConfig: {len(self.widths)} widths for {self.stages} stages"
            )
        if min(self.widths) < 1 or self.blocks_per_stage < 1:
            raise ValueError(f"EncoderConfig: widths {list(self.widths)} and blocks_per_stage "
                             f"{self.blocks_per_stage} must be positive")
        if self.down_kernel not in (2, 3):
            raise ValueError("EncoderConfig: down_kernel must be 2 or 3")

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        return from_fields(cls, d, legacy={"stem_stride": STEM_STRIDE, "stage_stride": 2})

    @property
    def total_stride(self) -> int:
        return self.stride_at(self.stages - 1)

    def stride_at(self, stage: int) -> int:
        return STEM_STRIDE * 2 ** stage


class EncoderLayer(NamedTuple):
    """One conv + batch norm + ReLU of the encoder."""

    name: str  # the layer's MAC-table row; its weight is encoder.<name>.w
    bn: str  # batch-norm prefix (gamma, beta, running stats)
    stage: int  # the output runs at stride stride_at(stage)
    cin: int
    cout: int
    kernel: int
    stride: int
    padding: int
    residual: bool  # closes a residual block: adds the input of the layer before it

    @property
    def weight(self) -> str:
        return f"encoder.{self.name}.w"


def encoder_layers(enc: EncoderConfig) -> list[EncoderLayer]:
    """Every layer of the encoder in execution order.

    The first layer is the patchify stem (kernel = stride = STEM_STRIDE) and
    reads the image. Every later stage opens with a stride-2 downsample.
    Each stage then runs ``blocks_per_stage`` residual blocks, each a pair of
    3x3 stride-1 layers conv0 and conv1; a block's output is conv1's output
    plus conv0's input. A stage's output is its last layer's output.
    """
    w, s0 = enc.widths, STEM_STRIDE
    layers = [EncoderLayer("stem", "encoder.stem.bn", 0, 3, w[0], s0, s0, 0, False)]
    for i in range(enc.stages):
        if i > 0:
            k = enc.down_kernel
            layers.append(EncoderLayer(f"stage{i}.down", f"encoder.stage{i}.down.bn", i, w[i - 1], w[i], k,
                                       2, 1 if k == 3 else 0, False))
        for j in range(enc.blocks_per_stage):
            for cv in (0, 1):
                layers.append(EncoderLayer(f"stage{i}.block{j}.conv{cv}", f"encoder.stage{i}.block{j}.bn{cv}",
                                           i, w[i], w[i], 3, 1, 1, cv == 1))
    return layers


@dataclass
class LightDecoderConfig:
    """Decoder width schedule: channels halve every x2 upsampling stage."""

    fea_dim: int = 768
    upsample_ratio: int = 32

    def __post_init__(self):
        n = round(math.log2(self.upsample_ratio))
        if 2 ** n != self.upsample_ratio:
            raise ValueError(f"LightDecoderConfig: upsample ratio {self.upsample_ratio} is not a power of two")
        if self.fea_dim // 2 ** n < 1:
            raise ValueError(f"LightDecoderConfig: fea_dim {self.fea_dim} too small for ratio {self.upsample_ratio}")

    @property
    def n_stages(self) -> int:
        return round(math.log2(self.upsample_ratio))

    @property
    def channels(self) -> list[int]:
        return [self.fea_dim // 2 ** i for i in range(self.n_stages + 1)]


@dataclass
class SparkConfig:
    """Full model configuration, including the ablation switches."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    image_size: int = 224
    patch_size: int = 32
    dec_fea_dim: int | None = None  # default: deepest encoder width
    masking: str = "sparse"  # "sparse" | "zero_out"
    hierarchy: bool = True
    ape: bool = False
    loss_on: str = "masked"  # "masked" | "all"

    def __post_init__(self):
        if self.image_size < 1 or self.patch_size < 1:
            raise ValueError(f"SparkConfig: image size {self.image_size} and patch size {self.patch_size} "
                             "must be positive")
        if self.patch_size % self.encoder.total_stride != 0:
            raise ValueError(
                f"SparkConfig: patch size {self.patch_size} not divisible by "
                f"encoder total stride {self.encoder.total_stride}"
            )
        if self.image_size % self.patch_size != 0:
            raise ValueError(
                f"SparkConfig: image size {self.image_size} not divisible by patch size {self.patch_size}"
            )
        if self.masking not in ("sparse", "zero_out"):
            raise ValueError(f"SparkConfig: unknown masking mode {self.masking!r}")
        if self.loss_on not in ("masked", "all"):
            raise ValueError(f"SparkConfig: unknown loss_on {self.loss_on!r}")

    @property
    def decoder(self) -> LightDecoderConfig:
        fea = self.dec_fea_dim if self.dec_fea_dim is not None else self.encoder.widths[-1]
        return LightDecoderConfig(fea, self.encoder.total_stride)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SparkConfig":
        if isinstance(d, dict) and "encoder" in d:
            d = {**d, "encoder": EncoderConfig.from_dict(d["encoder"])}
        return from_fields(cls, d)


def _state_arrays(params, bn_states) -> "OrderedDict[str, np.ndarray]":
    out = OrderedDict((name, p.data) for name, p in params.items())
    for name, st in bn_states.items():
        out[f"{name}.running_mean"] = st.running_mean
        out[f"{name}.running_var"] = st.running_var
    return out


def _normal(rng, std, shape) -> np.ndarray:
    return np.zeros(shape) if rng is None else rng.normal(0.0, std, size=shape)


class SparkModel:
    """Parameter store plus the wiring between encoder, embeddings, and decoder.

    Parameters live in an insertion-ordered name -> DiffTensor map (the
    checkpoint manifest order); batch-norm running stats live alongside in
    ``bn_states``. Names under ``decay`` receive weight decay (conv and
    projection weights only).
    """

    def __init__(self, cfg: SparkConfig, rng: np.random.Generator | None):
        """Draw the initial parameters from ``rng``. With ``rng`` None nothing is
        drawn: the would-be random parameters are zeros, for a caller that loads
        every array (``model_from_checkpoint``)."""
        self.cfg = cfg
        self.params: "OrderedDict[str, DiffTensor]" = OrderedDict()
        self.bn_states: "OrderedDict[str, BatchNormState]" = OrderedDict()
        self.decay: set[str] = set()
        self._build(rng)

    # -- construction -------------------------------------------------------

    def _conv_param(self, name, cout, cin, kh, kw, rng):
        t = DiffTensor(_normal(rng, math.sqrt(2.0 / (cin * kh * kw)), (cout, cin, kh, kw)), requires_grad=True)
        self.params[name] = t
        self.decay.add(name)
        return t

    def _vec_param(self, name, values):
        t = DiffTensor(values, requires_grad=True)
        self.params[name] = t
        return t

    def _bn_param(self, prefix, channels):
        self._vec_param(f"{prefix}.gamma", np.ones(channels))
        self._vec_param(f"{prefix}.beta", np.zeros(channels))
        self.bn_states[prefix] = BatchNormState(channels)

    def _build(self, rng):
        cfg = self.cfg
        enc = cfg.encoder
        for i, layer in enumerate(encoder_layers(enc)):
            self._conv_param(layer.weight, layer.cout, layer.cin, layer.kernel, layer.kernel, rng)
            self._bn_param(layer.bn, layer.cout)
            if i == 0 and cfg.ape:  # a learnable embedding per stem output site
                h4 = cfg.image_size // STEM_STRIDE
                self._vec_param("ape", np.zeros((1, layer.cout, h4, h4)))

        chans = cfg.decoder.channels
        for i in range(enc.stages):
            # mask-fill embedding and width-matching projection for scale i
            self._vec_param(f"embed.scale{i}", _normal(rng, 0.02, enc.widths[i]))
            dec_w = chans[enc.stages - 1 - i]
            self._conv_param(f"proj.scale{i}.w", dec_w, enc.widths[i], 1, 1, rng)
            self._vec_param(f"proj.scale{i}.b", np.zeros(dec_w))

        for k in range(cfg.decoder.n_stages):
            cin, cout = chans[k], chans[k + 1]
            pre = f"decoder.stage{k}"
            self._conv_param(f"{pre}.up.w", cin, cin, 4, 4, rng)
            self._vec_param(f"{pre}.up.b", np.zeros(cin))
            self._conv_param(f"{pre}.conv0.w", cin, cin, 3, 3, rng)
            self._bn_param(f"{pre}.bn0", cin)
            self._conv_param(f"{pre}.conv1.w", cout, cin, 3, 3, rng)
            self._bn_param(f"{pre}.bn1", cout)
        self._conv_param("decoder.proj.w", 3, chans[-1], 1, 1, rng)
        self._vec_param("decoder.proj.b", np.zeros(3))

    # -- access --------------------------------------------------------------

    def param(self, name: str) -> DiffTensor:
        return self.params[name]

    def bn(self, name: str) -> BatchNormState:
        return self.bn_states[name]

    def named_parameters(self):
        return self.params.items()

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> "OrderedDict[str, np.ndarray]":
        """All persistent arrays (parameters + BN running stats) in manifest order."""
        return _state_arrays(self.params, self.bn_states)

    def load_state_arrays(self, arrays: dict):
        """Take every array of ``state_arrays``, by name, from ``arrays``; the
        caller checks their names and shapes."""
        for name, p in self.params.items():
            p.data = np.ascontiguousarray(arrays[name], dtype=np.float64)
        for name, st in self.bn_states.items():
            st.running_mean = np.asarray(arrays[f"{name}.running_mean"], dtype=np.float64).copy()
            st.running_var = np.asarray(arrays[f"{name}.running_var"], dtype=np.float64).copy()


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def _normalize_masks(masks, n: int):
    if isinstance(masks, PatchMask):
        return [masks] * n
    masks = list(masks)
    if len(masks) != n:
        raise ValueError(f"expected {n} masks for batch of {n}, got {len(masks)}")
    return masks


def encoder_forward(model: SparkModel, images, masks, mode: str = "train"):
    """Sparse hierarchical encoding of a batch.

    The whole batch runs as one batched SparseTensor2D per scale, with one
    rulebook per stage. Returns one batched SparseTensor2D per stage (shallow
    to deep); sample b's rows are those with ``batch == b``. Stage i has
    resolution image/(STEM_STRIDE * 2**i) and its active set is exactly the
    mask's footprint at that stride.
    """
    cfg = model.cfg
    enc = cfg.encoder
    images = images if isinstance(images, DiffTensor) else DiffTensor(images)
    n, c, h, w = images.shape
    if h % enc.total_stride or w % enc.total_stride:
        raise ValueError(f"encoder_forward: image {h}x{w} not divisible by total stride {enc.total_stride}")
    if h % cfg.patch_size or w % cfg.patch_size:
        raise ValueError(f"encoder_forward: image {h}x{w} not divisible by patch size {cfg.patch_size}")
    masks = _normalize_masks(masks, n)
    for m in masks:
        if m.image_hw != (h, w):
            raise ValueError(f"encoder_forward: mask geometry {m.image_hw} != image {(h, w)}")
        if m.visible_count == 0:
            raise ValueError("encoder_forward: mask leaves no visible patch")

    # per stage, the batch's active sites as (coords, sample index), rows ordered by (sample, row, col)
    active = [stack_coords([active_set_at_scale(m, enc.stride_at(i)) for m in masks]) for i in range(enc.stages)]
    outputs = [None] * enc.stages
    sp = block_in = rb = None
    for layer in encoder_layers(enc):
        w = model.param(layer.weight)
        coords, batch = active[layer.stage]
        x_in = sp
        if sp is None:
            # stem: dense strided conv, then gather the visible sites. Patch edges are
            # multiples of the stem stride, so every gathered site's window lies
            # entirely inside a visible patch and masked pixels never contribute.
            stem = ag.conv2d(images, w, stride=layer.stride, padding=layer.padding)
            sp = gather_from_dense(stem, coords, batch_index=batch)
            if cfg.ape:
                ape = gather_from_dense(model.param("ape"), sp.coords, batch_index=0)
                sp = sp.with_features(ag.add(sp.features, ape.features))
        elif layer.stride != 1:
            sp = sparse_downsample(sp, coords, w, stride=layer.stride, padding=layer.padding, target_batch=batch)
            rb = None
        else:
            if rb is None:  # one rulebook serves every stride-1 layer of a stage
                rb = build_rulebook(sp, layer.kernel)
            sp = subm_conv2d(sp, w, None, rb)
        sp = sparse_batchnorm(sp, model.param(f"{layer.bn}.gamma"), model.param(f"{layer.bn}.beta"),
                              model.bn(layer.bn), mode=mode, clamp=np.inf)
        if layer.residual:
            sp = sp.with_features(ag.add(sp.features, block_in.features))
        block_in = x_in
        outputs[layer.stage] = sp
    return outputs


class DenseEncoder:
    """The same encoder weights applied as ordinary dense convolutions.

    Valid on any input whose dims are divisible by the total stride (no mask
    or patch constraint); on fully visible inputs it reproduces the sparse
    encoder's features.
    """

    def __init__(self, enc_cfg: EncoderConfig, params: dict, bn_states: dict, ape: DiffTensor | None = None):
        self.cfg = enc_cfg
        self.params = params
        self.bn_states = bn_states
        self.ape = ape

    def forward(self, images, mode: str = "eval"):
        enc = self.cfg
        images = images if isinstance(images, DiffTensor) else DiffTensor(images)
        h, w = images.shape[2], images.shape[3]
        if h % enc.total_stride or w % enc.total_stride:
            raise ValueError(f"DenseEncoder: image {h}x{w} not divisible by total stride {enc.total_stride}")

        stages = [None] * enc.stages
        x, block_in = images, None
        for i, layer in enumerate(encoder_layers(enc)):
            x_in = x
            x = ag.conv2d(x, self.params[layer.weight], stride=layer.stride, padding=layer.padding)
            if i == 0 and self.ape is not None:
                if self.ape.shape[2:] != x.shape[2:]:
                    raise ValueError("DenseEncoder: positional embedding size does not match input")
                x = ag.add_broadcast(x, self.ape)
            x = ag.batchnorm2d(x, self.params[f"{layer.bn}.gamma"], self.params[f"{layer.bn}.beta"],
                               self.bn_states[layer.bn], mode=mode, clamp=np.inf)
            if layer.residual:
                x = ag.add(x, block_in)
            block_in = x_in
            stages[layer.stage] = x
        return stages

    def state_arrays(self) -> "OrderedDict[str, np.ndarray]":
        return _state_arrays({**self.params, **({} if self.ape is None else {"ape": self.ape})}, self.bn_states)


def to_dense_encoder(model: SparkModel) -> DenseEncoder:
    """Reinterpret the sparse encoder weights as a dense encoder (shared tensors)."""
    params = {k: v for k, v in model.params.items() if k.startswith("encoder.")}
    bns = {k: v for k, v in model.bn_states.items() if k.startswith("encoder.")}
    ape = model.params.get("ape") if model.cfg.ape else None
    return DenseEncoder(model.cfg.encoder, params, bns, ape)


# ---------------------------------------------------------------------------
# densify + project, decoder, loss
# ---------------------------------------------------------------------------


def project_and_densify(model: SparkModel, scale: int, sp, n: int) -> DiffTensor:
    """Fill scale ``scale``'s inactive sites with its embedding, then 1x1-project.

    Takes the batched tensor of ``n`` samples that ``encoder_forward`` returns
    for that scale; returns a dense [n, dec_width, h, w] tensor ready to enter
    the decoder.
    """
    return _project_dense(model, scale, densify(sp, model.param(f"embed.scale{scale}"), n))


def _project_dense(model: SparkModel, scale: int, x: DiffTensor) -> DiffTensor:
    return ag.conv2d(x, model.param(f"proj.scale{scale}.w"), model.param(f"proj.scale{scale}.b"))


def decoder_forward(model: SparkModel, to_dec, mode: str = "train") -> DiffTensor:
    """Run the decoder over skip inputs ordered deepest first.

    ``to_dec[k]`` (optional except k=0) is added before stage k; each stage
    upsamples x2 with a transposed conv and applies two 3x3 conv + BN layers
    with ReLU6 between; a final 1x1 conv maps to 3 channels.
    """
    cfg = model.cfg.decoder
    chans = cfg.channels
    n_stages = cfg.n_stages
    if len(to_dec) > n_stages:
        raise ValueError(f"decoder_forward: {len(to_dec)} skip inputs for {n_stages} stages")
    if not to_dec or to_dec[0] is None:
        raise ValueError("decoder_forward: the deepest input to_dec[0] is required")

    def bn(x, prefix, clamp):
        return ag.batchnorm2d(x, model.param(f"{prefix}.gamma"), model.param(f"{prefix}.beta"),
                              model.bn(prefix), mode=mode, clamp=clamp)

    x = None
    for k in range(n_stages):
        skip = to_dec[k] if k < len(to_dec) else None
        if skip is not None:
            if skip.shape[1] != chans[k]:
                raise ValueError(
                    f"decoder_forward: skip {k} has {skip.shape[1]} channels, expected {chans[k]}"
                )
            if x is not None and skip.shape != x.shape:
                raise ValueError(
                    f"decoder_forward: skip {k} shape {tuple(skip.shape)} != running shape {tuple(x.shape)}"
                )
            x = skip if x is None else ag.add(x, skip)
        pre = f"decoder.stage{k}"
        x = ag.conv_transpose2d(x, model.param(f"{pre}.up.w"), model.param(f"{pre}.up.b"))
        x = bn(ag.conv2d(x, model.param(f"{pre}.conv0.w"), stride=1, padding=1), f"{pre}.bn0", 6.0)
        x = bn(ag.conv2d(x, model.param(f"{pre}.conv1.w"), stride=1, padding=1), f"{pre}.bn1", None)
    return ag.conv2d(x, model.param("decoder.proj.w"), model.param("decoder.proj.b"))


def spark_forward(model: SparkModel, images, masks, mode: str = "train"):
    """Full forward pass: returns (reconstruction, targets, masked pixel maps).

    Skip inputs are assembled deepest first; the hierarchy flag drops all but
    the deepest scale, and the zero-out flag replaces sparse gathering with a
    dense encoder over the zero-filled image.
    """
    cfg = model.cfg
    images = images if isinstance(images, DiffTensor) else DiffTensor(images)
    n = images.shape[0]
    masks = _normalize_masks(masks, n)
    targets = per_patch_normalize(images, cfg.patch_size)
    masked_maps = np.stack([masked_pixel_map(m) for m in masks])

    if cfg.masking == "sparse":
        feats = encoder_forward(model, images, masks, mode=mode)

        def project(s):
            return project_and_densify(model, s, feats[s], n)
    else:
        feats = to_dense_encoder(model).forward(zero_out_image(images, masks), mode=mode)

        def project(s):
            return _project_dense(model, s, feats[s])
    stages = cfg.encoder.stages
    to_dec: list = [None] * cfg.decoder.n_stages
    for k in range(stages if cfg.hierarchy else 1):
        to_dec[k] = project(stages - 1 - k)

    recon = decoder_forward(model, to_dec, mode=mode)
    return recon, targets, masked_maps


def spark_loss(recon: DiffTensor, targets: DiffTensor, masked_maps: np.ndarray, loss_on: str = "masked") -> DiffTensor:
    """Mean squared error over masked pixels (or every pixel for loss_on='all')."""
    if recon.shape != targets.shape:
        raise ValueError(f"spark_loss: reconstruction {tuple(recon.shape)} != targets {tuple(targets.shape)}")
    sq = ag.square(ag.sub(recon, targets))
    if loss_on == "masked":
        if not masked_maps.any():
            raise ValueError("spark_loss: masked-position loss with an empty mask")
        return ag.mean_over(sq, masked_maps[:, None, :, :])
    if loss_on == "all":
        return ag.mean_over(sq)
    raise ValueError(f"spark_loss: unknown loss_on {loss_on!r}")


# ---------------------------------------------------------------------------
# MAC accounting
# ---------------------------------------------------------------------------


def encoder_flops_table(enc: EncoderConfig, mask: PatchMask) -> list[dict]:
    """Exact per-layer sparse vs dense multiply-accumulate counts for one mask.

    Sparse MACs come from the actual rulebooks (pair count x cin x cout);
    dense MACs count every kernel tap of the zero-padded dense counterpart.
    """
    h, w = mask.image_hw
    rows = []
    prev, prev_stride, subm = active_set_at_scale(mask, 1), 1, None
    for layer in encoder_layers(enc):
        s = enc.stride_at(layer.stage)
        act = active_set_at_scale(mask, s)
        if layer.stride != 1 or subm is None:
            rb = build_rulebook(prev, layer.kernel, height=h // prev_stride, width=w // prev_stride, target=act,
                                stride=layer.stride, padding=layer.padding)
        subm = rb if layer.stride == 1 else None  # as in the encoder, one rulebook per stage's stride-1 layers
        smacs = sparse_flops(rb, layer.cin, layer.cout)
        dmacs = dense_conv_macs(h // s, w // s, layer.kernel, layer.cin, layer.cout)
        rows.append({
            "layer": layer.name,
            "scale": s,
            "sparse_macs": int(smacs),
            "dense_macs": int(dmacs),
            "ratio": smacs / dmacs,
        })
        prev, prev_stride = act, s
    return rows
