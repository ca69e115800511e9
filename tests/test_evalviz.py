"""Retrieval metrics against a brute-force oracle, plus heatmap contracts."""

import numpy as np
import pytest

from mlareid.backbone import EMBED_DIM, forward_to_featuremap
from mlareid.autodiff import Tensor, add, matmul, mul, tmean, tsum, zero_grads
from mlareid.contrast import TAU, MemoryDictionary
from mlareid.dataio import ImageRecord, read_ppm, stack_pixels
from mlareid.errors import ContractError
from mlareid.evalviz import (
    Heatmap,
    cam_from_gradients,
    evaluate,
    export_heatmap,
    grad_cam_heatmap,
    retrieval_metrics,
    write_metrics_csv,
)
from mlareid.layers import parameters
from mlareid.pipeline import extract_all_features
from conftest import small_backbone


def evaluate_bruteforce(qf, qp, qc, gf, gp, gc):
    """Independent mAP/CMC path: python sort, explicit AP walk."""
    aps = []
    cmc = {1: 0, 5: 0, 10: 0}
    excluded = 0
    for q, qpid, qcam in zip(qf, qp, qc):
        entries = []
        for j in range(len(gf)):
            if gp[j] == qpid and gc[j] == qcam:
                continue
            entries.append((-float(gf[j] @ q), j, gp[j] == qpid))
        entries.sort()
        flags = [hit for _, _, hit in entries]
        if not any(flags):
            excluded += 1
            continue
        hits_so_far = 0
        precisions = []
        first = None
        for rank, hit in enumerate(flags, start=1):
            if hit:
                hits_so_far += 1
                precisions.append(hits_so_far / rank)
                if first is None:
                    first = rank
        aps.append(sum(precisions) / len(precisions))
        for k in cmc:
            if first <= k:
                cmc[k] += 1
    if not aps:
        return 0.0, {k: 0.0 for k in cmc}, 0, excluded
    return sum(aps) / len(aps), {k: cmc[k] / len(aps) for k in cmc}, len(aps), excluded


def random_retrieval_instance(rng):
    nq = int(rng.integers(1, 8))
    ng = int(rng.integers(5, 25))
    d = int(rng.integers(3, 8))
    qf = rng.standard_normal((nq, d))
    qf /= np.linalg.norm(qf, axis=1, keepdims=True)
    gf = rng.standard_normal((ng, d))
    gf /= np.linalg.norm(gf, axis=1, keepdims=True)
    qp = rng.integers(0, 5, size=nq)
    qc = rng.integers(1, 3, size=nq)
    gp = rng.integers(0, 5, size=ng)
    gc = rng.integers(1, 3, size=ng)
    return qf, qp, qc, gf, gp, gc


class TestEvaluate:
    def test_single_perfect_match(self):
        """One query whose only match ranks first scores AP 1 and CMC@1 1."""
        qf = np.array([[1.0, 0.0]])
        gf = np.array([[1.0, 0.0], [0.0, 1.0]])
        m = evaluate(qf, [0], [1], gf, np.array([0, 9]), np.array([2, 2]))
        assert m.map_score == 1.0 and m.cmc[1] == 1.0

    def test_hand_case_ranks_one_and_three(self):
        """Hits at ranks 1 and 3 give AP (1/1 + 2/3)/2."""
        q = np.array([[1.0, 0.0]])
        gf = np.array([[0.9, np.sqrt(0.19)], [0.8, np.sqrt(0.36)], [0.7, np.sqrt(0.51)]])
        gf /= np.linalg.norm(gf, axis=1, keepdims=True)
        gp = np.array([0, 5, 0])
        m = evaluate(q, [0], [1], gf, gp, np.array([2, 2, 2]))
        assert m.map_score == np.mean(np.array([1.0, 2.0 / 3.0]))
        np.testing.assert_allclose(m.map_score, 0.8333333333333333, atol=1e-12)

    def test_same_pid_same_cam_excluded_from_gallery(self):
        """A same-camera twin never appears in the ranking."""
        q = np.array([[1.0, 0.0]])
        gf = np.array([[1.0, 0.0], [0.6, 0.8]])
        m = evaluate(q, [3], [1], gf, np.array([3, 3]), np.array([1, 2]))
        # the rank-1 same-cam copy is excluded, so the cross-cam hit ranks 1
        assert m.map_score == 1.0

    def test_zero_positive_queries_counted_not_averaged(self):
        """Queries with no valid positive are excluded and reported."""
        qf = np.array([[1.0, 0.0], [0.0, 1.0]])
        gf = np.array([[1.0, 0.0]])
        m = evaluate(qf, [0, 7], [1, 1], gf, np.array([0]), np.array([2]))
        assert m.queries_evaluated == 1 and m.queries_excluded == 1
        assert m.map_score == 1.0

    def test_ties_break_by_gallery_index(self):
        """Two equal similarities rank the lower gallery index first."""
        q = np.array([[1.0, 0.0]])
        gf = np.array([[0.0, 1.0], [0.0, 1.0]])  # both sim 0
        m = evaluate(q, [0], [1], gf, np.array([9, 0]), np.array([2, 2]))
        # index 0 (wrong pid) precedes index 1 (right pid), so AP = 1/2
        assert m.map_score == 0.5

    def test_oracle_agreement_on_100_random_instances(self):
        """mAP and CMC match the brute-force path within 1e-9 everywhere."""
        rng = np.random.default_rng(11)
        for trial in range(100):
            qf, qp, qc, gf, gp, gc = random_retrieval_instance(rng)
            m = evaluate(qf, qp, qc, gf, gp, gc)
            omap, ocmc, oeval, oexcl = evaluate_bruteforce(qf, qp, qc, gf, gp, gc)
            np.testing.assert_allclose(m.map_score, omap, atol=1e-9, err_msg=f"trial {trial}")
            for k in (1, 5, 10):
                np.testing.assert_allclose(m.cmc[k], ocmc[k], atol=1e-9)
            assert (m.queries_evaluated, m.queries_excluded) == (oeval, oexcl)

    def test_cmc_non_decreasing_in_k(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            qf, qp, qc, gf, gp, gc = random_retrieval_instance(rng)
            m = evaluate(qf, qp, qc, gf, gp, gc)
            assert m.cmc[1] <= m.cmc[5] <= m.cmc[10]

    def test_invariant_under_gallery_permutation(self):
        rng = np.random.default_rng(13)
        qf, qp, qc, gf, gp, gc = random_retrieval_instance(rng)
        base = evaluate(qf, qp, qc, gf, gp, gc)
        perm = rng.permutation(len(gf))
        shuffled = evaluate(qf, qp, qc, gf[perm], gp[perm], gc[perm])
        np.testing.assert_allclose(base.map_score, shuffled.map_score, atol=1e-12)
        assert base.cmc == shuffled.cmc

    def test_invariant_under_common_rotation(self):
        """A shared orthogonal rotation of all features changes nothing."""
        rng = np.random.default_rng(14)
        qf, qp, qc, gf, gp, gc = random_retrieval_instance(rng)
        rot, _ = np.linalg.qr(rng.standard_normal((qf.shape[1], qf.shape[1])))
        base = evaluate(qf, qp, qc, gf, gp, gc)
        turned = evaluate(qf @ rot, qp, qc, gf @ rot, gp, gc)
        np.testing.assert_allclose(base.map_score, turned.map_score, atol=1e-9)

    def test_metrics_csv_round_trip(self, tmp_path):
        m = evaluate(
            np.array([[1.0, 0.0]]), [0], [1],
            np.array([[1.0, 0.0]]), np.array([0]), np.array([2]),
        )
        path = tmp_path / "metrics.csv"
        write_metrics_csv(m, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        parsed = dict(line.split(",") for line in lines[1:])
        assert float(parsed["mAP"]) == 1.0
        assert set(parsed) == {"mAP", "top1", "top5", "top10", "queries_evaluated", "queries_excluded"}


def tiny_record(seed=0, pid=0, camid=1, split="query"):
    rng = np.random.default_rng(seed)
    return ImageRecord(
        raw=rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8), pid=pid, camid=camid, split=split, path="q.ppm"
    )


def tiny_dataset():
    """Four identities under two cameras in every split, more gallery images than one extraction chunk."""
    splits = ["train"] * 8 + ["query"] * 8 + ["gallery"] * 40
    return [tiny_record(i, pid=i % 4, camid=1 + (i // 4) % 2, split=split) for i, split in enumerate(splits)]


class TestRetrievalMetrics:
    def test_equals_hand_assembled_evaluate(self):
        """The query and gallery splits, embedded and evaluated, bit for bit."""
        params = small_backbone()
        records = tiny_dataset()
        query = [r for r in records if r.split == "query"]
        gallery = [r for r in records if r.split == "gallery"]
        expect = evaluate(
            extract_all_features(stack_pixels(query), params),
            np.array([r.pid for r in query]), np.array([r.camid for r in query]),
            extract_all_features(stack_pixels(gallery), params),
            np.array([r.pid for r in gallery]), np.array([r.camid for r in gallery]),
        )
        got = retrieval_metrics(params, records)
        assert got.queries_evaluated == len(query)
        assert got == expect

    def test_empty_split_refused_with_counts(self):
        records = [r for r in tiny_dataset() if r.split != "gallery"]
        with pytest.raises(ContractError, match="got 8 query and 0 gallery"):
            retrieval_metrics(small_backbone(), records)


class TestGradCam:
    def test_single_channel_uniform_gradient_is_rectified_map(self):
        """With one channel and uniform positive gradient the map is ReLU(A)/max."""
        rng = np.random.default_rng(20)
        fmap = rng.standard_normal((4, 3, 1))
        grid = cam_from_gradients(fmap, np.ones_like(fmap))
        expect = np.maximum(fmap[..., 0], 0.0)
        np.testing.assert_allclose(grid, expect / expect.max(), atol=1e-12)

    def test_zero_gradients_give_zero_map(self):
        rng = np.random.default_rng(21)
        fmap = rng.standard_normal((4, 3, 5))
        grid = cam_from_gradients(fmap, np.zeros_like(fmap))
        np.testing.assert_array_equal(grid, np.zeros((4, 3)))

    def test_matches_loop_oracle(self):
        """The weighted channel sum matches an explicit loop within 1e-10."""
        rng = np.random.default_rng(22)
        fmap = rng.standard_normal((4, 2, 6))
        grads = rng.standard_normal((4, 2, 6))
        got = cam_from_gradients(fmap, grads)
        h, w, c = fmap.shape
        weights = [grads[..., ch].sum() / (h * w) for ch in range(c)]
        expect = np.zeros((h, w))
        for i in range(h):
            for j in range(w):
                expect[i, j] = max(sum(weights[ch] * fmap[i, j, ch] for ch in range(c)), 0.0)
        if expect.max() > 0:
            expect /= expect.max()
        np.testing.assert_allclose(got, expect, atol=1e-10)

    def test_end_to_end_matches_manual_backward(self):
        """grad_cam_heatmap equals recomputing the map from a manual backward."""
        params = small_backbone()
        record = tiny_record()
        mem = MemoryDictionary(np.eye(EMBED_DIM)[:3])
        hm = grad_cam_heatmap(record, params, memory=mem, cluster_id=2)

        from mlareid.autodiff import l2_normalize

        x = Tensor(record.pixels[None, ...])
        fmap = Tensor(forward_to_featuremap(x, params, training=False).data, requires_grad=True)
        projected = add(matmul(tmean(fmap, axis=(1, 2)), params.embed_w), params.embed_b)
        feat = l2_normalize(projected, axis=-1)
        tsum(mul(feat, Tensor(mem.centroids[2][None, :] / TAU))).backward()
        expect = cam_from_gradients(fmap.data[0], fmap.grad[0])
        np.testing.assert_allclose(hm.grid, expect, atol=1e-10)

    def test_leaves_no_parameter_gradients(self):
        """The backward's parameter gradients are cleared; the map is unchanged."""
        params = small_backbone()
        record = tiny_record(3)
        x = Tensor(record.pixels[None, ...])
        fmap = Tensor(forward_to_featuremap(x, params, training=False).data, requires_grad=True)
        projected = add(matmul(tmean(fmap, axis=(1, 2)), params.embed_w), params.embed_b)
        tsum(mul(projected, projected)).backward()
        expect = cam_from_gradients(fmap.data[0], fmap.grad[0])
        zero_grads(parameters(params))
        hm = grad_cam_heatmap(record, params)
        assert all(p.grad is None for p in parameters(params))
        assert hm.grid.tobytes() == expect.tobytes()

    def test_values_in_unit_interval_and_max_is_one(self):
        """Any nonzero map normalizes to peak exactly 1."""
        params = small_backbone()
        hm = grad_cam_heatmap(tiny_record(1), params)
        assert hm.grid.min() >= 0.0 and hm.grid.max() <= 1.0
        assert hm.grid.max() == 1.0

    def test_fallback_score_without_memory(self):
        """Without a memory the embedding-energy score still yields structure."""
        params = small_backbone()
        hm = grad_cam_heatmap(tiny_record(2), params)
        assert hm.target == "embedding energy"
        assert hm.grid.shape == (2, 2)

    def test_invalid_cluster_id_rejected(self):
        params = small_backbone()
        mem = MemoryDictionary(np.eye(EMBED_DIM)[:3])
        with pytest.raises(ContractError, match="cluster id"):
            grad_cam_heatmap(tiny_record(), params, memory=mem, cluster_id=3)
        with pytest.raises(ContractError, match="cluster id"):
            grad_cam_heatmap(tiny_record(), params, memory=mem, cluster_id=-1)

    def test_default_cluster_is_the_nearest_to_the_image_embedding(self):
        """With a memory and no cluster id, the map explains the nearest cluster, as if it were given."""
        params = small_backbone()
        records = [tiny_record(seed) for seed in range(4)]
        # each image's own embedding is a centroid, in reverse order, so each picks another cluster
        own = extract_all_features(stack_pixels(records), params)
        mem = MemoryDictionary(own[::-1].copy())
        for i, record in enumerate(records):
            feature = extract_all_features(record.raw[None, ...], params)[0]
            nearest = int(np.argmax(mem.centroids @ feature))
            assert nearest == len(records) - 1 - i
            hm = grad_cam_heatmap(record, params, mem)
            given = grad_cam_heatmap(record, params, mem, nearest)
            assert hm.target == given.target == f"cluster {nearest} logit"
            assert hm.grid.tobytes() == given.grid.tobytes()

    def test_normalization_is_idempotent(self):
        """Normalizing an already-normalized map changes nothing."""
        rng = np.random.default_rng(23)
        fmap = rng.standard_normal((3, 3, 2))
        grads = rng.standard_normal((3, 3, 2))
        once = cam_from_gradients(fmap, grads)
        again = once / once.max() if once.max() > 0 else once
        np.testing.assert_array_equal(once, again)


class TestExportHeatmap:
    def test_csv_round_trips_exact_floats(self, tmp_path):
        rng = np.random.default_rng(24)
        grid = rng.uniform(0, 1, size=(4, 2))
        hm = Heatmap(grid=grid, target="test")
        export_heatmap(hm, tmp_path / "hm", source_pixels=np.zeros((8, 4, 3)))
        loaded = np.loadtxt(tmp_path / "hm.csv", delimiter=",")
        np.testing.assert_array_equal(loaded, grid)

    def test_zero_map_blends_pure_blue(self, tmp_path):
        """An all-zero map tints the source toward blue at alpha 0.5."""
        source = np.full((4, 4, 3), 0.4)
        hm = Heatmap(grid=np.zeros((2, 2)), target="test")
        export_heatmap(hm, tmp_path / "hm", source_pixels=source)
        overlay = read_ppm(tmp_path / "hm.ppm")
        expect = 0.5 * source + 0.5 * np.array([0.0, 0.0, 1.0])
        np.testing.assert_array_equal(overlay, np.round(expect * 255))

    def test_overlay_size_matches_source(self, tmp_path):
        source = np.zeros((16, 8, 3))
        hm = Heatmap(grid=np.ones((2, 2)), target="test")
        export_heatmap(hm, tmp_path / "hm", source_pixels=source)
        assert read_ppm(tmp_path / "hm.ppm").shape == (16, 8, 3)
