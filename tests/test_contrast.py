"""Memory dictionary lifecycle and the cluster contrastive loss."""

import inspect
from dataclasses import fields

import numpy as np
import pytest

from mlareid.autodiff import Tensor, finite_diff_check
from mlareid.clustering import PseudoLabels
from mlareid.contrast import MU, TAU, MemoryDictionary, batch_hard_update, cluster_nce_loss, init_memory
from mlareid.errors import ContractError


def unit_rows(rng, n, d):
    f = rng.standard_normal((n, d))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


class TestInitMemory:
    def test_singleton_cluster_copies_its_feature(self):
        """A one-member cluster's centroid is that member, bit for bit."""
        f = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        labels = PseudoLabels(np.array([0, 1, 1]))
        mem = init_memory(f, labels, seed=0)
        assert mem.centroids[0].tobytes() == f[0].tobytes()

    def test_same_seed_same_selection(self):
        rng = np.random.default_rng(1)
        f = unit_rows(rng, 12, 4)
        labels = PseudoLabels(np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2, -1, -1]))
        a = init_memory(f, labels, seed=9)
        b = init_memory(f, labels, seed=9)
        assert a.centroids.tobytes() == b.centroids.tobytes()

    def test_each_centroid_is_a_member_of_its_cluster(self):
        """Every centroid matches some feature row carrying its cluster id."""
        rng = np.random.default_rng(2)
        f = unit_rows(rng, 20, 5)
        lab = np.array([i % 4 for i in range(20)])
        labels = PseudoLabels(lab)
        mem = init_memory(f, labels, seed=3)
        for cid in range(4):
            members = f[lab == cid]
            assert any(mem.centroids[cid].tobytes() == m.tobytes() for m in members)

    def test_noise_never_selected(self):
        """Noise rows cannot become centroids even when closest."""
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = PseudoLabels(np.array([0, -1]))
        for seed in range(10):
            mem = init_memory(f, labels, seed=seed)
            assert mem.centroids[0].tobytes() == f[0].tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_per_cluster_loop(self, seed):
        """Same centroids, byte for byte, as a per-cluster flatnonzero pick."""
        rng = np.random.default_rng(50 + seed)
        f = unit_rows(rng, 150, 6)
        raw = rng.integers(-1, 17, size=150)
        labels = PseudoLabels(raw)
        pick = np.random.default_rng(seed)
        want = np.zeros((labels.k, 6))
        for cid in range(labels.k):
            members = np.flatnonzero(raw == cid)
            want[cid] = f[members[pick.integers(members.size)]]
        assert init_memory(f, labels, seed=seed).centroids.tobytes() == want.tobytes()

    def test_empty_clustering_raises(self):
        with pytest.raises(ContractError, match="no clusters"):
            init_memory(np.zeros((3, 2)), PseudoLabels(np.full(3, -1)), seed=0)

    def test_memory_has_the_fixed_temperature_and_momentum(self):
        """Cluster Contrast's tau and mu are constants, not arguments: the memory is its centroids."""
        assert (TAU, MU) == (0.05, 0.1)
        assert [f.name for f in fields(MemoryDictionary)] == ["centroids"]
        assert list(inspect.signature(init_memory).parameters) == ["features", "labels", "seed"]


class TestClusterNceLoss:
    def test_single_cluster_loss_is_exactly_zero(self):
        """With K=1 the only logit is the target, so the loss is exact 0.0."""
        mem = MemoryDictionary(np.array([[1.0, 0.0]]))
        x = Tensor(np.array([[0.6, 0.8], [1.0, 0.0]]))
        loss = cluster_nce_loss(x, np.array([0, 0]), mem)
        assert loss.item() == 0.0

    def test_orthogonal_centroids_hand_value(self):
        """x at 45 degrees between two orthogonal centroids ties their logits: log 2."""
        mem = MemoryDictionary(np.eye(2))
        x = Tensor(np.array([[1.0, 1.0]]) / np.sqrt(2.0))
        loss = cluster_nce_loss(x, np.array([0]), mem)
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-9)

    def test_matches_direct_formula(self):
        """Random batches match a direct exp/log evaluation of the loss."""
        rng = np.random.default_rng(4)
        mem = MemoryDictionary(unit_rows(rng, 5, 6))
        x = unit_rows(rng, 8, 6)
        targets = rng.integers(0, 5, size=8)
        got = cluster_nce_loss(Tensor(x), targets, mem).item()
        logits = x @ mem.centroids.T / TAU
        ref = np.mean(
            [np.log(np.exp(row).sum()) - row[t] for row, t in zip(logits, targets)]
        )
        np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_extreme_temperature_is_stable(self):
        """Logits of 100 (a feature of norm 5 at TAU) do not overflow."""
        mem = MemoryDictionary(np.eye(2))
        aligned = cluster_nce_loss(Tensor(np.array([[5.0, 0.0]])), np.array([0]), mem).item()
        confused = cluster_nce_loss(Tensor(np.array([[0.0, 5.0]])), np.array([0]), mem).item()
        assert np.isfinite(aligned) and np.isfinite(confused)
        assert aligned < 1e-9 and confused > 10.0

    def test_monotone_in_target_similarity(self):
        """Loss strictly falls as x rotates toward its target centroid."""
        mem = MemoryDictionary(np.eye(2))
        losses = []
        for angle in np.linspace(np.pi / 2, 0.0, 50):
            x = Tensor(np.array([[np.cos(angle), np.sin(angle)]]))
            losses.append(cluster_nce_loss(x, np.array([0]), mem).item())
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_invariant_under_non_target_permutation(self):
        """Shuffling the other centroids leaves the loss unchanged."""
        rng = np.random.default_rng(5)
        cents = unit_rows(rng, 6, 4)
        x = Tensor(unit_rows(rng, 3, 4))
        targets = np.zeros(3, dtype=int)
        base = cluster_nce_loss(x, targets, MemoryDictionary(cents)).item()
        shuffled = np.concatenate([cents[:1], cents[1:][::-1]])
        other = cluster_nce_loss(x, targets, MemoryDictionary(shuffled)).item()
        np.testing.assert_allclose(base, other, atol=1e-12)

    def test_out_of_range_target_rejected(self):
        mem = MemoryDictionary(np.eye(2))
        with pytest.raises(ContractError, match="targets"):
            cluster_nce_loss(Tensor(np.eye(2)), np.array([0, 2]), mem)
        with pytest.raises(ContractError, match="targets"):
            cluster_nce_loss(Tensor(np.eye(2)), np.array([-1, 0]), mem)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        """Loss gradients w.r.t. features pass finite differences on 5 seeds."""
        rng = np.random.default_rng(seed + 50)
        mem = MemoryDictionary(unit_rows(rng, 4, 5))
        targets = rng.integers(0, 4, size=3)
        x0 = unit_rows(rng, 3, 5)
        err = finite_diff_check(lambda t: cluster_nce_loss(t, targets, mem), x0)
        assert err < 1e-6


class TestBatchHardUpdate:
    def test_hand_computed_blend(self):
        """The 0.2-similarity member wins and the blend matches by hand."""
        c = np.array([1.0, 0.0])
        mem = MemoryDictionary(c[None, :].copy())
        easy = np.array([0.9, np.sqrt(1 - 0.81)])  # sim 0.9
        hard = np.array([0.2, np.sqrt(1 - 0.04)])  # sim 0.2
        batch_hard_update(mem, np.stack([easy, hard]), np.array([0, 0]))
        blended = 0.1 * c + 0.9 * hard
        expect = blended / np.linalg.norm(blended)
        np.testing.assert_allclose(mem.centroids[0], expect, atol=1e-12)

    def test_tie_breaks_to_first_member(self):
        """Equal similarities select the earliest batch member, blended in at MU."""
        c = np.array([1.0, 0.0])
        mem = MemoryDictionary(c[None, :].copy())
        batch = np.array([[0.0, 1.0], [0.0, -1.0]])  # both sim 0.0
        batch_hard_update(mem, batch, np.array([0, 0]))
        blended = MU * c + (1.0 - MU) * batch[0]
        np.testing.assert_allclose(mem.centroids[0], blended / np.linalg.norm(blended), atol=1e-12)

    def test_absent_clusters_untouched(self):
        """Clusters outside the batch keep bit-identical representatives."""
        rng = np.random.default_rng(6)
        mem = MemoryDictionary(unit_rows(rng, 5, 4))
        before = mem.centroids.copy()
        batch = unit_rows(rng, 4, 4)
        batch_hard_update(mem, batch, np.array([1, 1, 3, 3]))
        for cid in (0, 2, 4):
            assert mem.centroids[cid].tobytes() == before[cid].tobytes()
        for cid in (1, 3):
            assert mem.centroids[cid].tobytes() != before[cid].tobytes()

    def test_norms_stay_unit_over_many_updates(self):
        """A long random update sequence never drifts off the unit sphere."""
        rng = np.random.default_rng(7)
        mem = MemoryDictionary(unit_rows(rng, 3, 6))
        for _ in range(200):
            batch = unit_rows(rng, 6, 6)
            targets = rng.integers(0, 3, size=6)
            batch_hard_update(mem, batch, targets)
            np.testing.assert_allclose(np.linalg.norm(mem.centroids, axis=1), np.ones(3), atol=1e-9)
