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
from collections.abc import Mapping
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
    ActiveSet,
    build_rulebook,
    densify,
    dense_conv_macs,
    gather_from_dense,
    sparse_batchnorm,
    sparse_downsample,
    sparse_flops,
    subm_conv2d,
)

__all__ = [
    "STEM_STRIDE",
    "from_fields",
    "EncoderConfig",
    "EncoderLayer",
    "encoder_layers",
    "SparkConfig",
    "SparkModel",
    "DenseEncoder",
    "encoder_forward",
    "project_and_densify",
    "decoder_forward",
    "spark_forward",
    "spark_loss",
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
    def decoder_channels(self) -> list[int]:
        """The decoder's widths, deepest first: ``dec_fea_dim`` halved at each x2
        upsampling stage, one stage per factor 2 of the encoder's total stride
        (a power of two), so one more entry than there are stages."""
        fea = self.dec_fea_dim if self.dec_fea_dim is not None else self.encoder.widths[-1]
        ratio = self.encoder.total_stride
        if fea // ratio < 1:
            raise ValueError(f"SparkConfig: decoder fea_dim {fea} too small for ratio {ratio}")
        return [fea // 2 ** i for i in range(ratio.bit_length())]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SparkConfig":
        if isinstance(d, dict) and "encoder" in d:
            d = {**d, "encoder": EncoderConfig.from_dict(d["encoder"])}
        return from_fields(cls, d)


def _initial(init, name, shape, std=None, fill=0.0) -> np.ndarray:
    """The first value of array ``name``. From a mapping ``init`` it is the array
    held under that name, as stored (a ValueError unless it has ``shape``).
    Otherwise it is a draw of N(0, ``std``) from Generator ``init`` (zeros with
    ``init`` None), or ``fill`` everywhere where no ``std`` is given."""
    if isinstance(init, Mapping):
        if name not in init:
            raise ValueError(f"checkpoint has no array {name!r}")
        arr = init[name]
        if arr.shape != tuple(shape):
            raise ValueError(f"checkpoint array {name!r} has shape {list(arr.shape)}, expected {list(shape)}")
        return arr
    if std is None:
        return np.full(shape, fill)
    return np.zeros(shape) if init is None else init.normal(0.0, std, size=shape)


class _Store:
    """Parameter store: an insertion-ordered name -> DiffTensor map (the
    checkpoint manifest order), batch-norm running stats alongside in
    ``bn_states``, and the names under ``decay``, which receive weight decay
    (conv and projection weights only). Each array's first value comes from
    ``init`` as ``_initial`` reads it."""

    def __init__(self):
        self.params: "OrderedDict[str, DiffTensor]" = OrderedDict()
        self.bn_states: "OrderedDict[str, BatchNormState]" = OrderedDict()
        self.decay: set[str] = set()

    def _conv_param(self, name, cout, cin, kh, kw, init):
        t = DiffTensor(_initial(init, name, (cout, cin, kh, kw), math.sqrt(2.0 / (cin * kh * kw))),
                       requires_grad=True)
        self.params[name] = t
        self.decay.add(name)
        return t

    def _vec_param(self, name, shape, init, std=None, fill=0.0):
        t = DiffTensor(_initial(init, name, shape, std, fill), requires_grad=True)
        self.params[name] = t
        return t

    def _bn_param(self, prefix, channels, init):
        self._vec_param(f"{prefix}.gamma", (channels,), init, fill=1.0)
        self._vec_param(f"{prefix}.beta", (channels,), init)
        st = self.bn_states[prefix] = BatchNormState(channels)
        if isinstance(init, Mapping):  # float64 copies: training updates running stats in place
            st.running_mean = np.array(_initial(init, f"{prefix}.running_mean", (channels,)), dtype=np.float64)
            st.running_var = np.array(_initial(init, f"{prefix}.running_var", (channels,)), dtype=np.float64)

    def named_parameters(self):
        return self.params.items()

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> "OrderedDict[str, np.ndarray]":
        """All persistent arrays (parameters + BN running stats) in manifest order."""
        out = OrderedDict((name, p.data) for name, p in self.params.items())
        for name, st in self.bn_states.items():
            out[f"{name}.running_mean"] = st.running_mean
            out[f"{name}.running_var"] = st.running_var
        return out


class SparkModel(_Store):
    """The encoder (``self.encoder``), the per-scale embeddings and
    projections, and the decoder, in one store whose order is the checkpoint
    manifest's: the encoder's arrays first."""

    def __init__(self, cfg: SparkConfig, init: np.random.Generator | Mapping | None):
        """Draw the initial parameters from Generator ``init``. With ``init`` None
        nothing is drawn: the would-be random parameters are zeros. With ``init``
        a mapping of arrays by name (``model_from_checkpoint``), every array is
        taken from it as stored and none is allocated in its place; a missing or
        misshaped one raises ValueError."""
        super().__init__()
        self.cfg = cfg
        enc = cfg.encoder
        self.encoder = DenseEncoder(enc, cfg.image_size if cfg.ape else None, init)
        self.params.update(self.encoder.params)
        self.bn_states.update(self.encoder.bn_states)
        self.decay.update(self.encoder.decay)

        chans = cfg.decoder_channels
        for i in range(enc.stages):
            # mask-fill embedding and width-matching projection for scale i
            self._vec_param(f"embed.scale{i}", (enc.widths[i],), init, std=0.02)
            dec_w = chans[enc.stages - 1 - i]
            self._conv_param(f"proj.scale{i}.w", dec_w, enc.widths[i], 1, 1, init)
            self._vec_param(f"proj.scale{i}.b", (dec_w,), init)

        for k in range(len(chans) - 1):
            cin, cout = chans[k], chans[k + 1]
            pre = f"decoder.stage{k}"
            self._conv_param(f"{pre}.up.w", cin, cin, 4, 4, init)
            self._vec_param(f"{pre}.up.b", (cin,), init)
            self._conv_param(f"{pre}.conv0.w", cin, cin, 3, 3, init)
            self._bn_param(f"{pre}.bn0", cin, init)
            self._conv_param(f"{pre}.conv1.w", cout, cin, 3, 3, init)
            self._bn_param(f"{pre}.bn1", cout, init)
        self._conv_param("decoder.proj.w", 3, chans[-1], 1, 1, init)
        self._vec_param("decoder.proj.b", (3,), init)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def _normalize_masks(masks, n: int, patch_size: int):
    masks = [masks] * n if isinstance(masks, PatchMask) else list(masks)
    if len(masks) != n:
        raise ValueError(f"expected {n} masks for batch of {n}, got {len(masks)}")
    for m in masks:
        if m.patch_size != patch_size:
            raise ValueError(f"mask patch size {m.patch_size} != model patch size {patch_size}")
    return masks


def encoder_forward(model: SparkModel, images: np.ndarray, masks, mode: str = "train"):
    """Sparse hierarchical encoding of a batch of [N,3,H,W] images.

    The whole batch runs as one batched SparseTensor2D per scale, with one
    rulebook per stage. Returns one batched SparseTensor2D per stage (shallow
    to deep); sample b's rows are those with ``batch == b``. Stage i has
    resolution image/(STEM_STRIDE * 2**i) and its active set is exactly the
    mask's footprint at that stride.
    """
    cfg = model.cfg
    enc = cfg.encoder
    n, c, h, w = images.shape
    if h % enc.total_stride or w % enc.total_stride:
        raise ValueError(f"encoder_forward: image {h}x{w} not divisible by total stride {enc.total_stride}")
    if h % cfg.patch_size or w % cfg.patch_size:
        raise ValueError(f"encoder_forward: image {h}x{w} not divisible by patch size {cfg.patch_size}")
    masks = _normalize_masks(masks, n, cfg.patch_size)
    for m in masks:
        if m.image_hw != (h, w):
            raise ValueError(f"encoder_forward: mask geometry {m.image_hw} != image {(h, w)}")
        if m.visible_count == 0:
            raise ValueError("encoder_forward: mask leaves no visible patch")

    # per stage, the batch's active sites, rows ordered by (sample, row, col)
    sites = [ActiveSet.stack(h // s, w // s, [active_set_at_scale(m, s) for m in masks])
             for s in map(enc.stride_at, range(enc.stages))]
    outputs = [None] * enc.stages
    sp = block_in = rb = None
    for layer in encoder_layers(enc):
        w = model.params[layer.weight]
        x_in = sp
        if sp is None:
            # stem: dense strided conv, then gather the visible sites. Patch edges are
            # multiples of the stem stride, so every gathered site's window lies
            # entirely inside a visible patch and masked pixels never contribute.
            stem = ag.conv2d(DiffTensor(images), w, stride=layer.stride, padding=layer.padding)
            if cfg.ape:
                stem = ag.add_broadcast(stem, model.params["ape"])
            sp = gather_from_dense(stem, sites[0])
        elif layer.stride != 1:
            rb = build_rulebook(sp.sites, layer.kernel, sites[layer.stage], stride=layer.stride,
                                padding=layer.padding)
            sp = sparse_downsample(sp, w, rb)
        else:
            if rb is None or rb.dst is not rb.src:  # one rulebook serves every stride-1 layer of a stage
                rb = build_rulebook(sp.sites, layer.kernel)
            sp = subm_conv2d(sp, w, rb)
        sp = sparse_batchnorm(sp, model.params[f"{layer.bn}.gamma"], model.params[f"{layer.bn}.beta"],
                              model.bn_states[layer.bn], mode=mode, clamp=np.inf)
        if layer.residual:
            sp = sp.with_features(ag.add(sp.features, block_in.features))
        block_in = x_in
        outputs[layer.stage] = sp
    return outputs


class DenseEncoder(_Store):
    """The encoder's parameters, applied as ordinary dense convolutions.

    Valid on any input whose dims are divisible by the total stride (no mask
    or patch constraint); on fully visible inputs it reproduces the sparse
    encoder's features. ``SparkModel`` builds its encoder as one of these and
    shares every tensor and running-stat object with it.
    """

    def __init__(self, enc_cfg: EncoderConfig, ape_size: int | None, init: np.random.Generator | Mapping | None):
        """Build every layer of ``encoder_layers(enc_cfg)``: its weight drawn from
        Generator ``init`` (zeros with ``init`` None, taken as stored from a
        mapping of arrays), then its batch norm. With ``ape_size`` an image size,
        a learnable embedding per stem output site of that image follows the
        stem's batch norm."""
        super().__init__()
        self.cfg = enc_cfg
        for i, layer in enumerate(encoder_layers(enc_cfg)):
            self._conv_param(layer.weight, layer.cout, layer.cin, layer.kernel, layer.kernel, init)
            self._bn_param(layer.bn, layer.cout, init)
            if i == 0 and ape_size is not None:
                h4 = ape_size // STEM_STRIDE
                self._vec_param("ape", (1, layer.cout, h4, h4), init)

    def forward(self, images: np.ndarray, mode: str = "eval"):
        """Every stage's output, shallow to deep, for a batch of [N,3,H,W] images."""
        enc = self.cfg
        h, w = images.shape[2], images.shape[3]
        if h % enc.total_stride or w % enc.total_stride:
            raise ValueError(f"DenseEncoder: image {h}x{w} not divisible by total stride {enc.total_stride}")

        ape = self.params.get("ape")
        stages = [None] * enc.stages
        x, block_in = DiffTensor(images), None
        for i, layer in enumerate(encoder_layers(enc)):
            x_in = x
            x = ag.conv2d(x, self.params[layer.weight], stride=layer.stride, padding=layer.padding)
            if i == 0 and ape is not None:  # a ValueError unless the embedding's size is the stem's output's
                x = ag.add_broadcast(x, ape)
            x = ag.batchnorm2d(x, self.params[f"{layer.bn}.gamma"], self.params[f"{layer.bn}.beta"],
                               self.bn_states[layer.bn], mode=mode, clamp=np.inf)
            if layer.residual:
                x = ag.add(x, block_in)
            block_in = x_in
            stages[layer.stage] = x
        return stages


# ---------------------------------------------------------------------------
# densify + project, decoder, loss
# ---------------------------------------------------------------------------


def project_and_densify(model: SparkModel, scale: int, sp, n: int) -> DiffTensor:
    """Fill scale ``scale``'s inactive sites with its embedding, then 1x1-project.

    Takes the batched tensor of ``n`` samples that ``encoder_forward`` returns
    for that scale; returns a dense [n, dec_width, h, w] tensor ready to enter
    the decoder.
    """
    return _project_dense(model, scale, densify(sp, model.params[f"embed.scale{scale}"], n))


def _project_dense(model: SparkModel, scale: int, x: DiffTensor) -> DiffTensor:
    return ag.conv2d(x, model.params[f"proj.scale{scale}.w"], model.params[f"proj.scale{scale}.b"])


def decoder_forward(model: SparkModel, to_dec, mode: str = "train") -> DiffTensor:
    """Run the decoder over skip inputs ordered deepest first.

    ``to_dec[k]`` (optional except k=0) is added before stage k; each stage
    upsamples x2 with a transposed conv and applies two 3x3 conv + BN layers
    with ReLU6 between; a final 1x1 conv maps to 3 channels.
    """
    chans = model.cfg.decoder_channels
    n_stages = len(chans) - 1
    if len(to_dec) > n_stages:
        raise ValueError(f"decoder_forward: {len(to_dec)} skip inputs for {n_stages} stages")
    if not to_dec or to_dec[0] is None:
        raise ValueError("decoder_forward: the deepest input to_dec[0] is required")

    def bn(x, prefix, clamp):
        return ag.batchnorm2d(x, model.params[f"{prefix}.gamma"], model.params[f"{prefix}.beta"],
                              model.bn_states[prefix], mode=mode, clamp=clamp)

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
        x = ag.conv_transpose2d(x, model.params[f"{pre}.up.w"], model.params[f"{pre}.up.b"])
        x = bn(ag.conv2d(x, model.params[f"{pre}.conv0.w"], stride=1, padding=1), f"{pre}.bn0", 6.0)
        x = bn(ag.conv2d(x, model.params[f"{pre}.conv1.w"], stride=1, padding=1), f"{pre}.bn1", None)
    return ag.conv2d(x, model.params["decoder.proj.w"], model.params["decoder.proj.b"])


def spark_forward(model: SparkModel, images: np.ndarray, masks, mode: str = "train") -> DiffTensor:
    """Full forward pass over [N,3,H,W] images: returns the [N,3,H,W]
    reconstruction, in per-patch-normalized pixel units.

    Skip inputs are assembled deepest first; the hierarchy flag drops all but
    the deepest scale, and the zero-out flag replaces sparse gathering with a
    dense encoder over the zero-filled image.
    """
    cfg = model.cfg
    n = images.shape[0]
    masks = _normalize_masks(masks, n, cfg.patch_size)

    if cfg.masking == "sparse":
        feats = encoder_forward(model, images, masks, mode=mode)

        def project(s):
            return project_and_densify(model, s, feats[s], n)
    else:
        feats = model.encoder.forward(zero_out_image(images, masks), mode=mode)

        def project(s):
            return _project_dense(model, s, feats[s])
    stages = cfg.encoder.stages
    to_dec: list = [None] * (len(cfg.decoder_channels) - 1)
    for k in range(stages if cfg.hierarchy else 1):
        to_dec[k] = project(stages - 1 - k)
    return decoder_forward(model, to_dec, mode=mode)


def spark_loss(model: SparkModel, recon: DiffTensor, images: np.ndarray, masks) -> DiffTensor:
    """Mean squared error between ``recon`` and the per-patch-normalized
    ``images`` (constant targets, no gradient), over the masked pixels, or over
    every pixel when ``model.cfg.loss_on`` is "all"."""
    masks = _normalize_masks(masks, images.shape[0], model.cfg.patch_size)
    targets = per_patch_normalize(images, model.cfg.patch_size)
    if recon.shape != targets.shape:
        raise ValueError(f"spark_loss: reconstruction {tuple(recon.shape)} != targets {tuple(targets.shape)}")
    if model.cfg.loss_on == "all":
        return ag.mse(recon, targets)
    return ag.mse(recon, targets, np.stack([masked_pixel_map(m) for m in masks])[:, None, :, :])


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
    prev, rb = ActiveSet.stack(h, w, [active_set_at_scale(mask, 1)]), None
    for layer in encoder_layers(enc):
        s = enc.stride_at(layer.stage)
        if layer.stride != 1:
            act = ActiveSet.stack(h // s, w // s, [active_set_at_scale(mask, s)])
            rb = build_rulebook(prev, layer.kernel, act, stride=layer.stride, padding=layer.padding)
            prev = act
        elif rb.dst is not rb.src:  # as in the encoder, one rulebook per stage's stride-1 layers
            rb = build_rulebook(prev, layer.kernel)
        smacs = sparse_flops(rb, layer.cin, layer.cout)
        dmacs = dense_conv_macs(h // s, w // s, layer.kernel, layer.cin, layer.cout)
        rows.append({
            "layer": layer.name,
            "scale": s,
            "sparse_macs": int(smacs),
            "dense_macs": int(dmacs),
            "ratio": smacs / dmacs,
        })
    return rows
