"""Multiple-instance pooling for weak-label training.

Two strategies are supported. The instance-level route classifies every
frame first and pools the frame probabilities into a clip probability.
The embedding-level route pools frame features into a clip embedding
first and classifies that: GMP and GAP pool one embedding for every
class, ATP one per class. Each strategy works with global max
pooling (GMP), global average pooling (GAP) or attention pooling (ATP).

All functions accept a single clip (T x ...) or any number of leading
batch axes; the frame axis is always the second-to-last one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import autodiff as ad
from .autodiff import Tensor


class PoolMethod(Enum):
    GMP = "GMP"
    GAP = "GAP"
    ATP = "ATP"


class MilStrategy(Enum):
    INSTANCE = "I"
    EMBEDDING = "E"


@dataclass
class AttentionParams:
    """Class-wise attention weight vectors plus the softmax scale.

    ``weights`` has shape (C, E): row c is the trainable vector scored
    against every frame feature. ``scale`` is the positive divisor
    applied to the scores before the softmax.
    """

    weights: Tensor
    scale: float

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError(f"attention scale must be positive, got {self.scale}")
        if self.weights.ndim != 2:
            raise ValueError(f"attention weights must be (C, E), got {self.weights.shape}")


@dataclass
class Classifier:
    """Per-class affine map plus sigmoid: weight (E, C), bias (C)."""

    weight: Tensor
    bias: Tensor

    def frame_probs(self, features: Tensor) -> Tensor:
        """Sigmoid of the affine map applied to every frame: (..., T, C)."""
        return ad.sigmoid(ad.linear(features, self.weight, self.bias))


def _check_frames(t: Tensor) -> None:
    if t.ndim < 2 or t.shape[-2] == 0:
        raise ValueError(f"input must contain at least one frame, got shape {t.shape}")


def attention_scores(features: Tensor, attn: AttentionParams) -> Tensor:
    """Raw scores w_c . x_t for every frame and class: (..., T, C)."""
    return ad.matmul(features, ad.transpose(attn.weights))


def attention_weights(features: Tensor, attn: AttentionParams) -> Tensor:
    """Per-class softmax over frames of the scaled attention scores: (..., T, C).

    Weights are nonnegative and sum to one over the frame axis; they are
    differentiable in both the features and the attention vectors.
    """
    _check_frames(features)
    return ad.softmax(attention_scores(features, attn), scale=attn.scale, axis=-2)


def instance_pool(
    frame_probs: Tensor,
    method: PoolMethod,
    attn: AttentionParams | None = None,
    features: Tensor | None = None,
) -> Tensor:
    """Pool frame probabilities (..., T, C) into clip probabilities (..., C).

    ATP weights come from the frame features, so ``features`` and ``attn``
    are required for that method and ignored otherwise.
    """
    _check_frames(frame_probs)
    if method is PoolMethod.GMP:
        return ad.reduce_max(frame_probs, axis=-2)
    if method is PoolMethod.GAP:
        return ad.reduce_mean(frame_probs, axis=-2)
    if attn is None or features is None:
        raise ValueError("instance-level ATP requires attention parameters and features")
    a = attention_weights(features, attn)
    return ad.reduce_sum(ad.mul(a, frame_probs), axis=-2)


def embedding_pool(features: Tensor, method: PoolMethod, attn: AttentionParams | None = None) -> Tensor:
    """Pool frame features (..., T, E) into clip embeddings: for GMP and GAP
    one, (..., 1, E), that every class shares; for ATP one per class, (..., C, E)."""
    _check_frames(features)
    if method is PoolMethod.ATP:
        if attn is None:
            raise ValueError("embedding-level ATP requires attention parameters")
        a = attention_weights(features, attn)  # (..., T, C)
        return ad.matmul(ad.swapaxes(a, -1, -2), features)
    if method is PoolMethod.GMP:
        return ad.reduce_max(features, axis=-2, keepdims=True)
    return ad.reduce_mean(features, axis=-2, keepdims=True)


def embedding_clip_probs(embeddings: Tensor, classifier: Classifier) -> Tensor:
    """Classify clip embeddings, (..., C, E) or one shared (..., 1, E), into
    clip probs (..., C): class c dots its classifier column with its embedding."""
    logits = ad.add(
        ad.reduce_sum(ad.mul(embeddings, ad.transpose(classifier.weight)), axis=-1),
        classifier.bias,
    )
    return ad.sigmoid(logits)


def frame_probabilities(
    strategy: MilStrategy,
    method: PoolMethod,
    features: Tensor,
    classifier: Classifier,
    attn: AttentionParams | None = None,
) -> Tensor:
    """Frame-level probabilities (..., T, C) for detection output.

    Instance-level branches already produce them through the classifier.
    Embedding-level GMP/GAP pass each frame feature through the clip
    classifier; embedding-level ATP instead reads sigmoid of the scaled
    attention scores, which is what its clip probability attends over.
    """
    _check_frames(features)
    if strategy is MilStrategy.EMBEDDING and method is PoolMethod.ATP:
        if attn is None:
            raise ValueError("embedding-level ATP requires attention parameters")
        scores = attention_scores(features, attn)
        return ad.sigmoid(ad.mul(scores, 1.0 / attn.scale))
    return classifier.frame_probs(features)


def clip_probabilities(
    strategy: MilStrategy,
    method: PoolMethod,
    features: Tensor,
    classifier: Classifier,
    attn: AttentionParams | None = None,
) -> Tensor:
    """Clip-level probabilities (..., C) for one branch."""
    if strategy is MilStrategy.INSTANCE:
        probs = classifier.frame_probs(features)
        return instance_pool(probs, method, attn=attn, features=features)
    h = embedding_pool(features, method, attn=attn)
    return embedding_clip_probs(h, classifier)
