"""Pooling strategy math: Table-level identities and algebra properties."""

import numpy as np
import pytest

from mbsed import autodiff as ad
from mbsed.autodiff import Tensor, grad_check
from mbsed.pooling import (
    AttentionParams,
    Classifier,
    MilStrategy,
    PoolMethod,
    attention_weights,
    clip_probabilities,
    embedding_clip_probs,
    embedding_pool,
    frame_probabilities,
    instance_pool,
)


def make_attn(w, scale=1.0):
    return AttentionParams(Tensor(np.asarray(w, dtype=float), requires_grad=True), scale)


def make_classifier(w, b):
    return Classifier(
        Tensor(np.asarray(w, dtype=float), requires_grad=True),
        Tensor(np.asarray(b, dtype=float), requires_grad=True),
    )


class TestInstancePool:
    probs = np.array([[0.2], [0.9], [0.1]])  # T=3, C=1

    def test_gmp_takes_max(self):
        out = instance_pool(Tensor(self.probs), PoolMethod.GMP)
        np.testing.assert_allclose(out.data, [0.9])

    def test_gap_takes_mean(self):
        out = instance_pool(Tensor(self.probs), PoolMethod.GAP)
        np.testing.assert_allclose(out.data, [0.4])

    def test_atp_with_zero_weights_equals_gap(self):
        feats = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        attn = make_attn(np.zeros((1, 4)))
        out = instance_pool(Tensor(self.probs), PoolMethod.ATP, attn=attn, features=feats)
        np.testing.assert_allclose(out.data, [0.4], atol=1e-12)

    def test_atp_without_attention_rejected(self):
        with pytest.raises(ValueError):
            instance_pool(Tensor(self.probs), PoolMethod.ATP)

    def test_empty_frame_axis_rejected(self):
        with pytest.raises(ValueError):
            instance_pool(Tensor(np.zeros((0, 2))), PoolMethod.GMP)


class TestEmbeddingPool:
    feats = np.array([[1.0, 5.0], [3.0, 2.0]])

    def test_gmp_coordinatewise_max(self):
        out = embedding_pool(Tensor(self.feats), PoolMethod.GMP, num_classes=3)
        assert out.shape == (3, 2)
        for c in range(3):
            np.testing.assert_allclose(out.data[c], [3.0, 5.0])

    def test_gap_mean(self):
        out = embedding_pool(Tensor(self.feats), PoolMethod.GAP, num_classes=2)
        for c in range(2):
            np.testing.assert_allclose(out.data[c], [2.0, 3.5])

    def test_atp_one_hot_selects_frame(self):
        # huge score gap drives the softmax to an exact one-hot in float64
        feats = Tensor(np.array([[0.0, 4.0], [0.0, -1.0], [1.0, 7.0]]))
        attn = make_attn([[1000.0, 0.0]])
        out = embedding_pool(feats, PoolMethod.ATP, attn=attn)
        np.testing.assert_array_equal(out.data[0], feats.data[2])

    def test_gap_equals_row_mean(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((17, 6))
        out = embedding_pool(Tensor(feats), PoolMethod.GAP, num_classes=4)
        np.testing.assert_allclose(out.data[2], feats.mean(axis=0), atol=1e-12)

    def test_atp_in_convex_hull(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((9, 5))
        attn = make_attn(rng.standard_normal((3, 5)))
        out = embedding_pool(Tensor(feats), PoolMethod.ATP, attn=attn).data
        lo, hi = feats.min(axis=0), feats.max(axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


class TestAttentionWeights:
    def test_zero_weights_give_uniform(self):
        feats = Tensor(np.random.default_rng(3).standard_normal((5, 4)))
        a = attention_weights(feats, make_attn(np.zeros((2, 4))))
        np.testing.assert_allclose(a.data, 1.0 / 5.0, atol=1e-15)

    def test_direct_evaluation(self):
        # scores d*[1,2,3] with scale d reduce to softmax([1,2,3])
        d = 64.0
        feats = Tensor(np.array([[d * 1.0], [d * 2.0], [d * 3.0]]))
        a = attention_weights(feats, make_attn([[1.0]], scale=d))
        np.testing.assert_allclose(a.data[:, 0], [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_huge_scale_flattens(self):
        rng = np.random.default_rng(4)
        feats = Tensor(rng.standard_normal((8, 3)))
        attn = make_attn(rng.standard_normal((1, 3)), scale=1e9)
        a = attention_weights(feats, attn)
        np.testing.assert_allclose(a.data, 1.0 / 8.0, atol=1e-6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            feats = Tensor(rng.standard_normal((11, 6)) * 10)
            attn = make_attn(rng.standard_normal((4, 6)), scale=2.0)
            a = attention_weights(feats, attn)
            np.testing.assert_allclose(a.data.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(a.data >= 0.0)

    def test_invariant_to_orthogonal_shift(self):
        feats = np.random.default_rng(6).standard_normal((7, 2))
        attn = make_attn([[1.0, 2.0]])
        z = np.array([2.0, -1.0])  # w . z = 0
        a1 = attention_weights(Tensor(feats), attn).data
        a2 = attention_weights(Tensor(feats + z), attn).data
        np.testing.assert_allclose(a1, a2, atol=1e-12)


class TestFrameProbabilities:
    def test_instance_level_identical_to_classifier(self):
        rng = np.random.default_rng(7)
        feats = Tensor(rng.standard_normal((6, 4)))
        cls = make_classifier(rng.standard_normal((4, 3)), rng.standard_normal(3))
        got = frame_probabilities(MilStrategy.INSTANCE, PoolMethod.GMP, feats, cls)
        want = cls.frame_probs(feats)
        np.testing.assert_array_equal(got.data, want.data)

    def test_embedding_atp_zero_scores_give_half(self):
        feats = Tensor(np.zeros((4, 3)))
        cls = make_classifier(np.zeros((3, 2)), np.zeros(2))
        attn = make_attn(np.ones((2, 3)), scale=2.0)
        out = frame_probabilities(MilStrategy.EMBEDDING, PoolMethod.ATP, feats, cls, attn)
        np.testing.assert_array_equal(out.data, np.full((4, 2), 0.5))

    def test_embedding_gap_composition(self):
        # identity-row classifier reads feature column 0, so frame t maps
        # to sigmoid(v_t); verified against a manual evaluation
        v = np.array([-1.0, 0.0, 2.0])
        feats = np.zeros((3, 2))
        feats[:, 0] = v
        cls = make_classifier([[1.0], [0.0]], [0.0])
        out = frame_probabilities(MilStrategy.EMBEDDING, PoolMethod.GAP, Tensor(feats), cls)
        np.testing.assert_allclose(out.data[:, 0], 1.0 / (1.0 + np.exp(-v)), atol=1e-12)

    def test_embedding_atp_without_attention_rejected(self):
        cls = make_classifier(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            frame_probabilities(MilStrategy.EMBEDDING, PoolMethod.ATP, Tensor(np.zeros((2, 3))), cls)


class TestPoolingAlgebra:
    def test_gmp_dominates_gap(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            probs = Tensor(rng.random((rng.integers(1, 30), 5)))
            gmp = instance_pool(probs, PoolMethod.GMP).data
            gap = instance_pool(probs, PoolMethod.GAP).data
            assert np.all(gmp >= gap - 1e-15)

    def test_atp_bounded_by_frame_range(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            t = int(rng.integers(1, 20))
            probs = rng.random((t, 3))
            feats = rng.standard_normal((t, 4))
            attn = make_attn(rng.standard_normal((3, 4)))
            out = instance_pool(
                Tensor(probs), PoolMethod.ATP, attn=attn, features=Tensor(feats)
            ).data
            assert np.all(out >= probs.min(axis=0) - 1e-12)
            assert np.all(out <= probs.max(axis=0) + 1e-12)

    def test_batched_matches_per_clip(self):
        rng = np.random.default_rng(10)
        feats = rng.standard_normal((4, 9, 5))
        cls = make_classifier(rng.standard_normal((5, 2)), rng.standard_normal(2))
        attn = make_attn(rng.standard_normal((2, 5)), scale=2.0)
        for strategy in MilStrategy:
            for method in PoolMethod:
                batched = clip_probabilities(strategy, method, Tensor(feats), cls, attn).data
                for i in range(4):
                    single = clip_probabilities(
                        strategy, method, Tensor(feats[i]), cls, attn
                    ).data
                    np.testing.assert_allclose(batched[i], single, atol=1e-12)


def binary_ce(probs: Tensor, labels: np.ndarray) -> Tensor:
    p = ad.clamp(probs, 1e-7, 1.0 - 1e-7)
    pos = ad.mul(ad.log(p), labels)
    neg = ad.mul(ad.log(ad.sub(1.0, p)), 1.0 - labels)
    return ad.mul(ad.reduce_sum(ad.add(pos, neg)), -1.0)


@pytest.mark.parametrize("strategy", list(MilStrategy))
@pytest.mark.parametrize("method", list(PoolMethod))
def test_pooling_paths_gradient_checked(strategy, method):
    """Every strategy/method pair, composed with classifier and CE loss."""
    rng = np.random.default_rng(11)
    feats = Tensor(rng.standard_normal((7, 5)), requires_grad=True)
    cls = make_classifier(rng.standard_normal((5, 3)) * 0.5, rng.standard_normal(3) * 0.1)
    attn = make_attn(rng.standard_normal((3, 5)) * 0.5, scale=2.0)
    labels = rng.integers(0, 2, 3).astype(float)

    def loss_wrt_feats(t):
        return binary_ce(clip_probabilities(strategy, method, t, cls, attn), labels)

    def loss_wrt_clsw(t):
        c = Classifier(t, cls.bias)
        return binary_ce(clip_probabilities(strategy, method, feats, c, attn), labels)

    assert grad_check(loss_wrt_feats, feats) <= 1e-4
    assert grad_check(loss_wrt_clsw, cls.weight) <= 1e-4
    if method is PoolMethod.ATP:
        def loss_wrt_attn(t):
            a = AttentionParams(t, attn.scale)
            return binary_ce(clip_probabilities(strategy, method, feats, cls, a), labels)

        assert grad_check(loss_wrt_attn, attn.weights) <= 1e-4
