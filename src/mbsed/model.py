"""Multi-branch detection model: shared CNN encoder plus pooling branches.

One embedding-level main branch carries inference; any number of
instance-level auxiliary branches add their weighted clip losses during
training and are ignored at predict time. All branches share the encoder
features and own separate classifiers.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .pooling import (
    AttentionParams,
    Classifier,
    MilStrategy,
    PoolMethod,
    clip_probabilities,
    frame_probabilities,
)

CHECKPOINT_MAGIC = b"MBL1"
CHECKPOINT_VERSION = 1

PROB_CLAMP = 1e-7


class CheckpointError(RuntimeError):
    """Checkpoint file rejected: bad magic, digest mismatch, or truncation."""


class DivergenceError(RuntimeError):
    """Training aborted because the loss became non-finite."""


def _positive_int(value) -> bool:
    return isinstance(value, int) and value > 0


@dataclass(frozen=True)
class CnnBlockSpec:
    """One encoder block: conv + batch norm + max pooling + relu.

    ``Model.encode`` runs a block as one ``autodiff.conv_block`` op. Batch
    norm is monotone in each channel, so the op max-pools the conv output
    (min-pools it where gamma < 0), normalizes only the pooled values and
    applies relu after pooling, with the same bits as the four ops in
    sequence. A window's gradient goes to its first maximal element in
    row-major (time, freq) order, as max-pooling by ``autodiff.reduce_max``
    does. The op's tape entry keeps the conv output and the pooled output only.
    """

    out_channels: int
    kernel: tuple[int, int] = (3, 3)
    freq_pool: int = 1
    time_pool: int = 1
    dropout: float = 0.0

    def __post_init__(self):
        if not _positive_int(self.out_channels):
            raise ValueError(f"out_channels must be a positive integer, got {self.out_channels!r}")
        if len(self.kernel) != 2 or not all(_positive_int(k) and k % 2 for k in self.kernel):
            raise ValueError(f"kernel sides must be two positive odd integers, got {self.kernel!r}")
        if not (_positive_int(self.freq_pool) and _positive_int(self.time_pool)):
            raise ValueError("pool factors must be positive integers")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")


# A branch's weight in the training loss, by its MIL strategy: the
# embedding-level main branch counts fully, each instance-level auxiliary half.
LOSS_WEIGHTS = {MilStrategy.EMBEDDING: 1.0, MilStrategy.INSTANCE: 0.5}


@dataclass(frozen=True)
class BranchSpec:
    """Strategy/method pair, e.g. E-ATP; its loss weight follows the strategy."""

    strategy: MilStrategy
    method: PoolMethod

    @classmethod
    def parse(cls, text: str) -> "BranchSpec":
        """Parse table-style branch names such as "E-ATP" or "I-GMP"."""
        parts = text.strip().upper().split("-")
        if len(parts) != 2:
            raise ValueError(f"branch name must look like E-ATP or I-GMP, got {text!r}")
        try:
            strategy = MilStrategy(parts[0])
            method = PoolMethod(parts[1])
        except ValueError:
            raise ValueError(f"unknown branch name {text!r}") from None
        return cls(strategy, method)

    @property
    def loss_weight(self) -> float:
        return LOSS_WEIGHTS[self.strategy]

    @property
    def label(self) -> str:
        return f"{self.strategy.value}-{self.method.value}"


@dataclass(frozen=True)
class ModelConfig:
    encoder: tuple[CnnBlockSpec, ...]
    num_classes: int
    branches: tuple[BranchSpec, ...]
    attention_scale: float
    num_bands: int = 64
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 60
    seed: int = 0
    # optional class names so a checkpoint can label its own predictions
    class_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.encoder:
            raise ValueError("the encoder needs at least one block")
        if not (_positive_int(self.num_classes) and _positive_int(self.num_bands)):
            raise ValueError("num_classes and num_bands must be positive integers")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0.0 < self.attention_scale < math.inf:
            raise ValueError(f"attention_scale must be positive and finite: {self.attention_scale}")
        mains = [b for b in self.branches if b.strategy is MilStrategy.EMBEDDING]
        if len(mains) != 1:
            raise ValueError(
                f"exactly one embedding-level main branch required, got {len(mains)}"
            )
        freq = 1
        for block in self.encoder:
            freq *= block.freq_pool
        if self.num_bands % freq != 0:
            raise ValueError(
                f"frequency pooling {freq} does not divide {self.num_bands} bands"
            )
        if self.class_labels and len(self.class_labels) != self.num_classes:
            raise ValueError(
                f"{len(self.class_labels)} class labels for {self.num_classes} classes"
            )

    @property
    def freq_bins_out(self) -> int:
        freq = self.num_bands
        for block in self.encoder:
            freq //= block.freq_pool
        return freq

    @property
    def feature_dim(self) -> int:
        return self.encoder[-1].out_channels * self.freq_bins_out

    @property
    def label_names(self) -> tuple[str, ...]:
        """Class labels for predictions: class_labels, else class_0, class_1, ..."""
        return self.class_labels or tuple(f"class_{i}" for i in range(self.num_classes))

    @property
    def time_pool_total(self) -> int:
        factor = 1
        for block in self.encoder:
            factor *= block.time_pool
        return factor

    def tiled_frames(self, frames: int) -> int:
        """The leading frames of a clip of ``frames`` that the encoder reads,
        as many as time pooling tiles; fewer than one pooled frame's worth
        is a ValueError."""
        pool = self.time_pool_total
        if frames < pool:
            raise ValueError(f"{frames} frames, fewer than the encoder's time pooling of {pool}")
        return frames - frames % pool

    def to_dict(self) -> dict:
        """JSON-ready fields; a branch is its table name and loss weight."""
        d = asdict(self)
        d["branches"] = [{"name": b.label, "loss_weight": b.loss_weight} for b in self.branches]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``to_dict``; an unknown key raises TypeError. Loss weights
        come from ``LOSS_WEIGHTS``, so a header with others fails its digest."""
        return cls(**{
            **d,
            "encoder": tuple(CnnBlockSpec(**{**b, "kernel": tuple(b["kernel"])}) for b in d["encoder"]),
            "branches": tuple(BranchSpec.parse(b["name"]) for b in d["branches"]),
            "class_labels": tuple(d.get("class_labels", ())),
        })


def small_config(num_classes: int, branches: tuple[BranchSpec, ...], seed: int = 0) -> ModelConfig:
    """3-block encoder, 64 -> 4 mel bins, 40 channels, E = 160, d = 64."""
    encoder = (
        CnnBlockSpec(40, (3, 3), freq_pool=4),
        CnnBlockSpec(40, (3, 3), freq_pool=2),
        CnnBlockSpec(40, (3, 3), freq_pool=2),
    )
    return ModelConfig(
        encoder=encoder,
        num_classes=num_classes,
        branches=branches,
        attention_scale=160 / 2.5,
        epochs=60,
        seed=seed,
    )


def large_config(num_classes: int, branches: tuple[BranchSpec, ...], seed: int = 0) -> ModelConfig:
    """9-block encoder with dropout, channels rising to 256, E = 1024."""
    channels = (32, 32, 64, 64, 128, 128, 256, 256, 256)
    freq_pools = (2, 2, 2, 2, 1, 1, 1, 1, 1)
    encoder = tuple(
        CnnBlockSpec(c, (3, 3), freq_pool=f, dropout=0.3)
        for c, f in zip(channels, freq_pools)
    )
    return ModelConfig(
        encoder=encoder,
        num_classes=num_classes,
        branches=branches,
        attention_scale=1024 / 3.0,
        epochs=100,
        seed=seed,
    )


# the presets a run config names, each a factory of (num_classes, branches)
PRESETS = {"small": small_config, "large": large_config}


@dataclass
class ConvBlock:
    # no conv bias: batch norm right after would cancel it, beta shifts instead
    spec: CnnBlockSpec
    kernel: Tensor
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class Branch:
    spec: BranchSpec
    classifier: Classifier
    attention: AttentionParams | None = None

    @property
    def label(self) -> str:
        return self.spec.label


def _uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


class Model:
    """Built model: parameter tensors plus the config that shaped them."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng([config.seed, 0])
        self.blocks: list[ConvBlock] = []
        in_channels = 1
        for spec in config.encoder:
            kh, kw = spec.kernel
            fan_in = in_channels * kh * kw
            self.blocks.append(
                ConvBlock(
                    spec=spec,
                    kernel=Tensor(
                        _uniform_init(rng, (spec.out_channels, in_channels, kh, kw), fan_in),
                        requires_grad=True,
                    ),
                    gamma=Tensor(np.ones(spec.out_channels), requires_grad=True),
                    beta=Tensor(np.zeros(spec.out_channels), requires_grad=True),
                    running_mean=np.zeros(spec.out_channels),
                    running_var=np.ones(spec.out_channels),
                )
            )
            in_channels = spec.out_channels

        e, c = config.feature_dim, config.num_classes
        self.branches: list[Branch] = []
        for bspec in config.branches:
            classifier = Classifier(
                weight=Tensor(_uniform_init(rng, (e, c), e), requires_grad=True),
                bias=Tensor(_uniform_init(rng, (c,), e), requires_grad=True),
            )
            attention = None
            if bspec.method is PoolMethod.ATP:
                attention = AttentionParams(
                    weights=Tensor(_uniform_init(rng, (c, e), e), requires_grad=True),
                    scale=config.attention_scale,
                )
            self.branches.append(Branch(bspec, classifier, attention))
        self._dropout_rng: np.random.Generator | None = None

    @property
    def main_branch(self) -> Branch:
        for branch in self.branches:
            if branch.spec.strategy is MilStrategy.EMBEDDING:
                return branch
        raise RuntimeError("model has no embedding-level main branch")

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Trainable tensors with stable checkpoint names."""
        params = []
        for i, block in enumerate(self.blocks):
            params += [
                (f"blocks.{i}.kernel", block.kernel),
                (f"blocks.{i}.gamma", block.gamma),
                (f"blocks.{i}.beta", block.beta),
            ]
        for i, branch in enumerate(self.branches):
            params += [
                (f"branches.{i}.classifier.weight", branch.classifier.weight),
                (f"branches.{i}.classifier.bias", branch.classifier.bias),
            ]
            if branch.attention is not None:
                params.append((f"branches.{i}.attention.weights", branch.attention.weights))
        return params

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        """Non-trainable running statistics, checkpointed alongside params."""
        out = []
        for i, block in enumerate(self.blocks):
            out += [
                (f"blocks.{i}.running_mean", block.running_mean),
                (f"blocks.{i}.running_var", block.running_var),
            ]
        return out

    def encode(self, batch: np.ndarray, train: bool = False) -> Tensor:
        """Map log-mel clips (N, T, F) to shared features (N, T', E)."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 3 or batch.shape[2] != self.config.num_bands:
            raise ValueError(
                f"encoder expects (N, T, {self.config.num_bands}) input, got {batch.shape}"
            )
        frames = self.config.tiled_frames(batch.shape[1])
        x = Tensor(batch[:, :frames, :, None])  # N,T,F,1
        for block in self.blocks:
            spec = block.spec
            # conv, batch norm, max pooling and relu in one op that pools the
            # conv output before normalizing it and keeps only that output
            # at full resolution (see ad.conv_block)
            x = ad.conv_block(
                x,
                block.kernel,
                block.gamma,
                block.beta,
                block.running_mean,
                block.running_var,
                time_pool=spec.time_pool,
                freq_pool=spec.freq_pool,
                train=train,
            )
            if train and spec.dropout > 0.0:
                if self._dropout_rng is None:
                    raise RuntimeError("training pass requires a seeded dropout stream")
                # a seed's masks, and so the weights it trains to, depend on
                # their draw order, (N, C, T, F); the NHWC activation takes
                # the mask as a transposed view. The draw's buffer becomes the
                # scaled keep mask in place, the one full-size temporary
                n, h, w, c = x.shape
                mask = self._dropout_rng.random((n, c, h, w))
                np.greater_equal(mask, spec.dropout, out=mask)
                mask /= 1.0 - spec.dropout
                x = ad.mul(x, mask.transpose(0, 2, 3, 1))
        n, h, w, c = x.shape
        return ad.reshape(ad.transpose(x, (0, 1, 3, 2)), (n, h, c * w))

    def branch_clip_probs(self, features: Tensor, branch: Branch) -> Tensor:
        return clip_probabilities(
            branch.spec.strategy, branch.spec.method, features, branch.classifier, branch.attention
        )

    def predict(self, clip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Main-branch clip probabilities (C,) and frame probabilities (T', C).

        Runs in eval mode with recording disabled; auxiliary branches are
        never consulted.
        """
        clip = np.asarray(clip, dtype=np.float64)
        with ad.no_grad():
            features = self.encode(clip[None], train=False)
            main = self.main_branch
            clip_probs = self.branch_clip_probs(features, main)
            frame_probs = frame_probabilities(
                main.spec.strategy, main.spec.method, features, main.classifier, main.attention
            )
        return clip_probs.data[0], frame_probs.data[0]


# ---------------------------------------------------------------------------
# losses


def clip_loss(clip_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Binary cross entropy summed over classes: (..., C) -> (...).

    Probabilities are clamped into [1e-7, 1 - 1e-7] before the logs.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be binary")
    if labels.shape != clip_probs.shape:
        raise ValueError(
            f"labels shape {labels.shape} does not match probabilities {clip_probs.shape}"
        )
    p = ad.clamp(clip_probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    pos = ad.mul(ad.log(p), labels)
    neg = ad.mul(ad.log(ad.sub(1.0, p)), 1.0 - labels)
    return ad.mul(ad.reduce_sum(ad.add(pos, neg), axis=-1), -1.0)


def total_loss(main_loss: Tensor, aux_losses: list[Tensor]) -> Tensor:
    """The main branch's loss plus the auxiliary branches' losses, each
    weighted by its strategy's ``LOSS_WEIGHTS`` entry."""
    out = ad.mul(main_loss, LOSS_WEIGHTS[MilStrategy.EMBEDDING])
    aux_weight = LOSS_WEIGHTS[MilStrategy.INSTANCE]
    for aux in aux_losses:
        out = ad.add(out, ad.mul(aux, aux_weight))
    return out


# ---------------------------------------------------------------------------
# optimizer and training loop


class Adam:
    """Adaptive moment estimation with bias correction."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[tuple[str, Tensor]], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in params]
        self.v = [np.zeros_like(p.data) for _, p in params]

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        for i, (_, p) in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = self.BETA1 * self.m[i] + (1.0 - self.BETA1) * g
            self.v[i] = self.BETA2 * self.v[i] + (1.0 - self.BETA2) * g * g
            p.data -= self.lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + self.EPS)


def train_model(
    model: Model,
    features: list[np.ndarray],
    labels: np.ndarray,
    log_fn=None,
) -> list[float]:
    """Mini-batch training on weak labels; returns per-epoch mean loss.

    Deterministic given the config seed: shuffle order and dropout masks
    are drawn from generators derived from it.
    """
    if len(features) == 0:
        raise ValueError("training set is empty")
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != (len(features), model.config.num_classes):
        raise ValueError(f"labels must have shape (n_clips, num_classes), got {labels.shape}")

    cfg = model.config
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    model._dropout_rng = np.random.default_rng([cfg.seed, 2])
    optimizer = Adam(model.parameters(), lr=cfg.learning_rate)
    main_idx = model.branches.index(model.main_branch)

    curve = []
    n = len(features)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = np.stack([features[i] for i in idx])
            feats = model.encode(batch, train=True)
            branch_losses = [
                ad.reduce_mean(clip_loss(model.branch_clip_probs(feats, b), labels[idx]))
                for b in model.branches
            ]
            aux = [l for i, l in enumerate(branch_losses) if i != main_idx]
            loss = total_loss(branch_losses[main_idx], aux)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(
                    f"non-finite loss {value} at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += value * len(idx)
        curve.append(epoch_loss / n)
        if log_fn is not None:
            log_fn(epoch, curve[-1])
    model._dropout_rng = None
    return curve


# ---------------------------------------------------------------------------
# checkpoint serialization


def config_digest(config: ModelConfig) -> str:
    payload = json.dumps(
        {"version": CHECKPOINT_VERSION, "config": config.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def save_checkpoint(model: Model, path) -> None:
    """Write magic, JSON header (digest + config + manifest), float64 blobs."""
    entries = list(model.parameters()) + [
        (name, Tensor(buf)) for name, buf in model.buffers()
    ]
    manifest = []
    offset = 0
    for name, tensor in entries:
        manifest.append({"name": name, "shape": list(tensor.shape), "offset": offset})
        offset += tensor.data.size * 8
    header = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "digest": config_digest(model.config),
            "config": model.config.to_dict(),
            "params": manifest,
        },
        sort_keys=True,
    ).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for _, tensor in entries:
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint, refusing on digest mismatch and
    on values no training writes: NaN, inf or a negative running variance."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
    if len(blob) < 8:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    (header_len,) = struct.unpack("<I", blob[4:8])
    try:
        header = json.loads(blob[8 : 8 + header_len])
    except (ValueError, RecursionError) as exc:
        # json.loads recurses once per nesting level of the header
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header: not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {header.get('version')} not supported "
            f"by this code (expected {CHECKPOINT_VERSION})"
        )
    try:
        config = ModelConfig.from_dict(header["config"])
        # to_dict, under the digest, also recurses once per nesting level
        altered = config_digest(config) != header["digest"]
        lookup = {entry["name"]: entry for entry in header["params"]}
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc!r}") from None
    if altered:
        raise CheckpointError(
            f"{path}: config digest mismatch; the checkpoint was written by a "
            "different model code version or has been altered"
        )
    model = Model(config)
    data = blob[8 + header_len :]
    for name, tensor in model.parameters():
        _fill(lookup, data, name, tensor.data, path)
    for name, buf in model.buffers():
        _fill(lookup, data, name, buf, path)
    return model


def _fill(lookup: dict, data: bytes, name: str, target: np.ndarray, path) -> None:
    entry = lookup.get(name)
    if entry is None:
        raise CheckpointError(f"{path}: parameter {name} missing from checkpoint")
    try:
        shape = tuple(entry["shape"])
        start = operator.index(entry["offset"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest entry for {name}: {exc!r}") from None
    if shape != target.shape:
        raise CheckpointError(
            f"{path}: parameter {name} has shape {list(shape)}, expected {target.shape}"
        )
    try:
        raw = np.frombuffer(data, dtype="<f8", count=target.size, offset=start)
    except ValueError:
        raise CheckpointError(f"{path}: truncated checkpoint while reading {name}") from None
    # the digest covers the config alone, so the values are checked here
    if not np.isfinite(raw).all():
        raise CheckpointError(f"{path}: parameter {name} holds NaN or inf")
    if name.endswith(".running_var") and (raw < 0.0).any():
        raise CheckpointError(f"{path}: parameter {name} holds a negative variance")
    target[...] = raw.reshape(target.shape)
