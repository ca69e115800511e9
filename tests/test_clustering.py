"""DBSCAN against a transitive-closure oracle, plus distance contracts."""

import sys
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import mlareid.clustering
from conftest import pin_cores
from mlareid.clustering import (
    DISTANCE_BLOCK,
    ClusterStats,
    PseudoLabels,
    cluster_members,
    cluster_summary,
    dbscan,
    pairwise_cosine_distance,
)
from mlareid.errors import ContractError


def canonical(labels):
    """First-occurrence relabeling used to compare clusterings."""
    out = np.asarray(labels).copy()
    mapping = {}
    for i, lab in enumerate(out):
        if lab == -1:
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


def dbscan_closure_oracle(d, eps, min_pts):
    """Density reachability via boolean matrix closure (independent path).

    Components come from repeated squaring of the core-core adjacency,
    border points join their lowest-index core neighbor, the rest is noise.
    """
    n = d.shape[0]
    within = d <= eps
    core = within.sum(axis=1) >= min_pts
    adj = within & core[:, None] & core[None, :]
    reach = adj.copy()
    while True:
        grown = reach | (reach @ reach)
        if (grown == reach).all():
            break
        reach = grown
    labels = np.full(n, -1, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if core[i] and labels[i] == -1:
            members = np.flatnonzero(reach[i] & core)
            labels[members] = cluster
            cluster += 1
    for i in range(n):
        if not core[i]:
            reachers = np.flatnonzero(within[i] & core)
            if reachers.size:
                labels[i] = labels[reachers[0]]
    return canonical(labels)


def unit(f):
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def collapsed_features(n, seed=0):
    """Rows within 1e-9 of one direction: every pair lies within any positive eps."""
    jitter = 1e-9 * np.random.default_rng(seed).standard_normal((n, 3))
    return unit(np.tile([1.0, 0.0, 0.0], (n, 1)) + jitter)


def whole_matrix_formula(f):
    g = 1.0 - f @ f.T
    want = np.clip((g + g.T) / 2.0, 0.0, 2.0)
    np.fill_diagonal(want, 0.0)
    return want


def random_instance(rng):
    n = int(rng.integers(2, 31))
    dim = int(rng.integers(2, 9))
    f = rng.standard_normal((n, dim))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    return pairwise_cosine_distance(f)


class TestPairwiseCosineDistance:
    def test_identical_orthogonal_antipodal(self):
        """The three canonical geometries give distances 0, 1 and 2."""
        f = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        d = pairwise_cosine_distance(f).d
        np.testing.assert_allclose(d[0, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(d[0, 2], 1.0, atol=1e-12)
        np.testing.assert_allclose(d[0, 3], 2.0, atol=1e-12)

    def test_symmetric_zero_diagonal_bounded(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((10, 4))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        d = pairwise_cosine_distance(f).d
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), np.zeros(10))
        assert (d >= 0).all() and (d <= 2).all()

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError, match="non-finite"):
            pairwise_cosine_distance(np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize(
        "n", [1, 2, DISTANCE_BLOCK - 1, DISTANCE_BLOCK, DISTANCE_BLOCK + 1, 600]
    )
    def test_bytes_equal_whole_matrix_formula(self, n):
        """The tiled in-place distances equal the whole-matrix formula byte for byte."""
        rng = np.random.default_rng(n)
        f = rng.standard_normal((n, 16))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        before = f.tobytes()
        want = whole_matrix_formula(f)
        got = pairwise_cosine_distance(f).d
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert f.tobytes() == before

    def test_fortran_and_strided_inputs_equal_the_formula(self):
        """Non-C-ordered inputs get the same bytes as their C-contiguous copy."""
        f = unit(np.random.default_rng(3).standard_normal((300, 16)))
        want = whole_matrix_formula(f)
        strided = np.repeat(f, 2, axis=1)[:, ::2]  # a product numpy does not mirror
        for given in (np.asfortranarray(f), strided):
            got = pairwise_cosine_distance(given).d
            assert got.tobytes() == want.tobytes()
            np.testing.assert_array_equal(got, got.T)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_peak_memory_is_one_matrix(self, monkeypatch, cores):
        """Only the n x n result plus block-sized scratch is alive at the peak, on any core count."""
        pin_cores(monkeypatch, cores)
        n = 1500
        f = np.random.default_rng(0).standard_normal((n, 64))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            dist = pairwise_cosine_distance(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dist.d.shape == (n, n)
        assert peak <= 1.25 * n * n * 8, peak / (n * n * 8)


class TestDbscan:
    def test_all_identical_points_form_one_cluster(self):
        """Five coincident points with min_pts 4 are a single cluster."""
        f = np.tile([1.0, 0.0], (5, 1))
        out = dbscan(pairwise_cosine_distance(f), eps=0.4, min_pts=4)
        np.testing.assert_array_equal(out.labels, np.zeros(5))
        assert out.k == 1

    def test_mutually_distant_points_are_noise(self):
        """Three points at pairwise distance 1 with eps 0.4 are all noise."""
        d = np.ones((3, 3)) - np.eye(3)
        from mlareid.clustering import DistanceMatrix

        out = dbscan(DistanceMatrix(d), eps=0.4, min_pts=2)
        np.testing.assert_array_equal(out.labels, [-1, -1, -1])
        assert out.k == 0

    def test_two_triads_and_an_outlier(self):
        """Two tight triads plus one isolated point: two clusters, one noise."""
        from mlareid.clustering import DistanceMatrix

        d = np.full((7, 7), 1.5)
        np.fill_diagonal(d, 0.0)
        for group in ([0, 1, 2], [3, 4, 5]):
            for a in group:
                for b in group:
                    if a != b:
                        d[a, b] = 0.1
        out = dbscan(DistanceMatrix(d), eps=0.4, min_pts=3)
        np.testing.assert_array_equal(out.labels, [0, 0, 0, 1, 1, 1, -1])
        np.testing.assert_array_equal(out.labels, dbscan_closure_oracle(d, 0.4, 3))

    def test_border_point_joins_lowest_index_core(self):
        """A border point within eps of two clusters takes the lower core index."""
        from mlareid.clustering import DistanceMatrix

        # points 0,1,2 cluster A; 4,5,6 cluster B; 3 is border to both
        d = np.full((7, 7), 1.5)
        np.fill_diagonal(d, 0.0)
        for group in ([0, 1, 2], [4, 5, 6]):
            for a in group:
                for b in group:
                    if a != b:
                        d[a, b] = 0.1
        for c in (2, 4):
            d[3, c] = d[c, 3] = 0.3
        out = dbscan(DistanceMatrix(d), eps=0.4, min_pts=3)
        assert out.labels[3] == out.labels[2]
        np.testing.assert_array_equal(out.labels, dbscan_closure_oracle(d, 0.4, 3))

    def test_oracle_agreement_on_100_random_instances(self):
        """Randomized instances match the closure oracle exactly, noise included."""
        rng = np.random.default_rng(42)
        for trial in range(100):
            dist = random_instance(rng)
            if trial % 2 == 0:
                eps, min_pts = 0.4, 4
            else:
                eps = float(rng.uniform(0.05, 1.5))
                min_pts = int(rng.integers(1, 7))
            got = dbscan(dist, eps, min_pts)
            want = dbscan_closure_oracle(dist.d, eps, min_pts)
            np.testing.assert_array_equal(got.labels, want, err_msg=f"trial {trial}")
            np.testing.assert_array_equal(got.labels == -1, want == -1)

    def test_collapsed_features_form_one_cluster(self):
        """With every pair within eps, all points are one cluster, as the oracle says."""
        dist = pairwise_cosine_distance(collapsed_features(300))
        assert (dist.d <= 0.04).all()
        out = dbscan(dist, eps=0.04, min_pts=2)
        assert out.k == 1
        np.testing.assert_array_equal(out.labels, np.zeros(300))
        np.testing.assert_array_equal(out.labels, dbscan_closure_oracle(dist.d, 0.04, 2))

    @pytest.mark.parametrize("cores", [1, 2])
    def test_collapsed_peak_memory_is_a_few_bytes_per_pair(self, monkeypatch, cores):
        """No neighbour-pair list: collapsed n = 1500 peaks at <= 4 bytes per pair, on any core count."""
        pin_cores(monkeypatch, cores)
        n = 1500
        dist = pairwise_cosine_distance(collapsed_features(n))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = dbscan(dist, eps=0.04, min_pts=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.k == 1
        assert peak <= 4 * n * n, peak / (n * n)

    @pytest.mark.parametrize("n, eps, min_pts", [
        (25, 2.0, 4),  # every pair within eps
        (25, 3.0, 1),
        (25, 0.3, 1),  # every point is core
        (25, 0.6, 26),  # min_pts > n: all noise
        (1, 0.4, 1),
        (1, 0.4, 2),
    ])
    def test_oracle_agreement_at_edge_parameters(self, n, eps, min_pts):
        dist = pairwise_cosine_distance(unit(np.random.default_rng(n).standard_normal((n, 3))))
        got = dbscan(dist, eps, min_pts)
        want = dbscan_closure_oracle(dist.d, eps, min_pts)
        np.testing.assert_array_equal(got.labels, want)
        assert got.k == len(set(want.tolist()) - {-1})
        if min_pts > n:
            assert got.k == 0 and (got.labels == -1).all()

    def test_permutation_covariance(self):
        """Permuting the rows permutes the labels, up to canonical relabeling."""
        rng = np.random.default_rng(7)
        f = rng.standard_normal((20, 4))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        base = dbscan(pairwise_cosine_distance(f), eps=0.4, min_pts=3).labels
        perm = rng.permutation(20)
        permuted = dbscan(pairwise_cosine_distance(f[perm]), eps=0.4, min_pts=3).labels
        np.testing.assert_array_equal(canonical(base[perm]), canonical(permuted))

    def test_noise_count_monotone_in_eps(self):
        """Growing eps never creates new noise points."""
        rng = np.random.default_rng(8)
        f = rng.standard_normal((25, 4))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        dist = pairwise_cosine_distance(f)
        previous = None
        for eps in [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]:
            noise = int((dbscan(dist, eps, 3).labels == -1).sum())
            if previous is not None:
                assert noise <= previous
            previous = noise

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((15, 4))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        dist = pairwise_cosine_distance(f)
        a = dbscan(dist, 0.4, 4).labels
        b = dbscan(dist, 0.4, 4).labels
        np.testing.assert_array_equal(a, b)

    def test_invalid_arguments(self):
        from mlareid.clustering import DistanceMatrix

        dist = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(ContractError):
            dbscan(dist, 0.0, 4)
        with pytest.raises(ContractError):
            dbscan(dist, 0.4, 0)


class TestRowBlocksOnEveryCore:
    """The O(n^2) passes run DISTANCE_BLOCK-row blocks on every usable core, the same bytes at any count."""

    @staticmethod
    def blocks_by_thread(monkeypatch):
        """Spy on clustering's calls of ``on_every_core``: one list of (thread, block start) per call."""
        real, calls = mlareid.clustering.on_every_core, []

        def spied(work, items):
            ran = []
            calls.append(ran)

            def traced(part):
                ran.extend((threading.get_ident(), start) for start in part)
                return work(part)
            return real(traced, items)
        monkeypatch.setattr(mlareid.clustering, "on_every_core", spied)
        return calls

    @pytest.mark.parametrize("collapsed", [False, True])
    @pytest.mark.parametrize(
        "n", [1, 2, DISTANCE_BLOCK - 1, DISTANCE_BLOCK, DISTANCE_BLOCK + 1, 600]
    )
    def test_same_bytes_at_one_two_and_three_cores(self, monkeypatch, n, collapsed):
        """Distances and labels equal the one-core ones (and the oracle's); each block runs once,
        the calling thread runs one, and with two streams or more a pool thread runs one too."""
        if collapsed:
            f, eps, min_pts = collapsed_features(n, seed=n), 0.04, 2
        else:
            f = unit(np.random.default_rng(n).standard_normal((n, 4)))
            eps, min_pts = float(np.quantile(whole_matrix_formula(f), min(1.0, 4 / n))) or 0.5, 4
        calls = self.blocks_by_thread(monkeypatch)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for cores in (1, 2, 3):
                pin_cores(monkeypatch, cores)
                calls.clear()
                dist = pairwise_cosine_distance(f)
                results[cores] = dist.d.tobytes(), dbscan(dist, eps, min_pts).labels
                assert len(calls) == 2, cores  # the distance pass and dbscan's within pass
                for ran in calls:
                    assert sorted(start for _, start in ran) == list(range(0, n, DISTANCE_BLOCK)), cores
                    threads = {thread for thread, _ in ran}
                    assert threading.get_ident() in threads, cores
                    pooled = len(threads) > 1  # a pool thread ran a block
                    assert pooled == (min(cores, len(ran)) > 1), cores
        finally:
            sys.setswitchinterval(interval)
        oracle = dbscan_closure_oracle(np.frombuffer(results[1][0]).reshape(n, n), eps, min_pts)
        np.testing.assert_array_equal(results[1][1], oracle)
        for cores in (2, 3):
            assert results[cores][0] == results[1][0], cores
            np.testing.assert_array_equal(results[cores][1], results[1][1], err_msg=str(cores))


class TestPseudoLabels:
    def test_the_count_is_read_from_the_labels(self):
        """k is one more than the largest label and 0 without a cluster; the labels are the only field."""
        assert [f.name for f in fields(PseudoLabels)] == ["labels"]
        assert PseudoLabels(np.array([0, -1, 2, 1])).k == 3
        assert PseudoLabels(np.full(3, -1)).k == 0
        assert PseudoLabels(np.zeros(0, dtype=np.int64)).k == 0


class TestClusterSummary:
    def test_hand_case(self):
        stats = cluster_summary(PseudoLabels(np.array([0, 0, 1, -1])))
        assert stats.k == 2
        np.testing.assert_array_equal(stats.sizes, [2, 1])
        assert stats.noise_fraction == 0.25

    def test_all_noise(self):
        stats = cluster_summary(PseudoLabels(np.full(5, -1)))
        assert stats.k == 0 and stats.noise_fraction == 1.0

    def test_the_count_is_read_from_the_sizes(self):
        """k is the number of sizes, also for a cluster id that no label names; no field stores it."""
        assert "k" not in [f.name for f in fields(ClusterStats)]
        stats = ClusterStats(sizes=np.array([3, 0, 1]), noise_fraction=0.0)
        assert stats.k == 3 and type(stats.k) is int
        for raw in ([0, 0, 1, -1], [-1, -1], [2, 2, 0, 1, -1]):
            labels = PseudoLabels(np.array(raw))
            assert cluster_summary(labels).k == labels.k

    def test_counts_add_up(self):
        """Cluster sizes plus noise count always recount to n."""
        rng = np.random.default_rng(10)
        for _ in range(20):
            dist = random_instance(rng)
            out = dbscan(dist, 0.4, 3)
            stats = cluster_summary(out)
            assert stats.sizes.sum() + int((out.labels == -1).sum()) == out.labels.size


class TestClusterMembers:
    def test_equals_flatnonzero_per_cluster(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            raw = rng.integers(-1, 9, size=int(rng.integers(1, 60)))
            k = int(raw.max()) + 1
            groups = cluster_members(PseudoLabels(raw))
            assert len(groups) == k
            for cid, members in enumerate(groups):
                np.testing.assert_array_equal(members, np.flatnonzero(raw == cid))
        assert cluster_members(PseudoLabels(np.full(4, -1))) == []
