import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.spatial.distance import cdist

from sfmc import graph
from sfmc.graph import build_task_laplacian, knn_cliques, tril_inv
from helpers import (brute_knn, centering_oracle, clique_scatter_oracle,
                     dense_laplacian_oracle)


class TestKnnCliques:
    def test_obvious_line(self):
        X = np.array([[0.0, 1.0, 10.0]])
        cl = knn_cliques(X, 2)
        np.testing.assert_array_equal(cl, [[0, 1], [1, 0], [2, 1]])

    def test_duplicate_tie_breaks_to_lower_index(self):
        X = np.array([[0.0, 0.0, 1.0]])
        cl = knn_cliques(X, 2)
        # sample 2 is equidistant from the duplicates at 0; index 0 wins
        np.testing.assert_array_equal(cl[2], [2, 0])
        np.testing.assert_array_equal(cl[0], [0, 1])
        np.testing.assert_array_equal(cl[1], [1, 0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 10))
        cl = knn_cliques(X, 4)
        np.testing.assert_array_equal(cl, brute_knn(X, 4))

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_grids_match_brute_force(self, seed):
        # integer grids with duplicated columns put many samples at exactly
        # the k-th distance, where only the (distance, index) rule decides
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, size=(2, 24)).astype(float)
        X[:, rng.integers(0, 24, size=8)] = X[:, rng.integers(0, 24, size=8)]
        for k in (2, 3, 5, 8, 13, 24):
            np.testing.assert_array_equal(knn_cliques(X, k), brute_knn(X, k))

    @pytest.mark.parametrize("k", [2, 4, 9])
    def test_heavily_tied_rows_match_brute_force(self, k):
        # 30 copies of one sample beside 20 distinct ones: the copies' rows
        # are tied far past their k-th distance, so the block is dense and
        # every row of it, tied or not, takes the stable per-row sort
        X = np.hstack([np.zeros((3, 30)),
                       np.random.default_rng(k).standard_normal((3, 20))])
        X = X[:, np.random.default_rng(0).permutation(50)]
        np.testing.assert_array_equal(knn_cliques(X, k), brute_knn(X, k))

    def test_k_out_of_range(self):
        X = np.zeros((2, 3))
        with pytest.raises(ValueError):
            knn_cliques(X, 4)
        with pytest.raises(ValueError):
            knn_cliques(X, 1)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                knn_cliques(np.array([[bad, 0.0, 1.0, 2.0]]), 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_gemm_candidates_match_brute_force(self, seed):
        # ties at the k-th distance (integer grids, duplicated columns) must
        # be found among the GEMM candidates and broken by index
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, size=(6, 60)).astype(float)
        X[:, rng.integers(0, 60, size=10)] = X[:, rng.integers(0, 60, size=10)]
        expected = brute_knn(X, 20)
        for k in (2, 3, 8, 20):
            np.testing.assert_array_equal(knn_cliques(X, k), expected[:, :k])

    @pytest.mark.parametrize("scale, offset", [
        (1e-200, 0.0), (1e-160, 0.0), (1e150, 0.0), (1e160, 0.0),
        (1.0, 1e8), (1.0, 1e12),
    ])
    def test_badly_scaled_input_matches_brute_force(self, scale, offset):
        # tiny and huge X under- or overflow X'X and the exact distances
        # (brute force then ties them at 0 or inf); a common offset makes the
        # GEMM distances cancel to their round-off.  Positive entries make
        # every entry of an unscaled X'X overflow to +inf at scale 1e160
        X = np.random.default_rng(6).random((5, 30)) * scale + offset
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            expected = [brute_knn(X, k) for k in (2, 4, 9)]
        for k, cl in zip((2, 4, 9), expected):
            np.testing.assert_array_equal(knn_cliques(X, k), cl)

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_block_edges(self, n, monkeypatch):
        # five rows per block: n one below, at, and one past a block boundary
        monkeypatch.setattr(graph, "KNN_BLOCK_BYTES", 8 * n * 5)
        rng = np.random.default_rng(n)
        X = rng.integers(0, 3, size=(2, n)).astype(float)
        X[:, 3] = X[:, n - 1]
        for k in (2, 4, n):
            np.testing.assert_array_equal(knn_cliques(X, k), brute_knn(X, k))

    @pytest.mark.parametrize("kind", ["identical", "grid01"])
    def test_memory_bounded_on_ties(self, kind):
        # every sample tied at the k-th distance (all identical) or many ties
        # (a 0/1 grid) still scans in row blocks: a few blocks plus X's
        # transpose, and no n x n array
        n, d, k = 1500, 100, 15
        rng = np.random.default_rng(7)
        X = (np.ones((d, n)) if kind == "identical"
             else rng.integers(0, 2, size=(d, n)).astype(float))
        tracemalloc.start()
        try:
            cl = knn_cliques(X, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * graph.KNN_BLOCK_BYTES + 2 * 8 * n * d
        D = cdist(X.T, X.T, "sqeuclidean")
        np.fill_diagonal(D, -1.0)
        order = np.lexsort((np.broadcast_to(np.arange(n), D.shape), D), axis=1)
        np.testing.assert_array_equal(cl, order[:, :k])

    def test_first_element_is_self(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 14))
        cl = knn_cliques(X, 6)
        assert not cl.flags.writeable
        np.testing.assert_array_equal(cl[:, 0], np.arange(14))
        for row in cl:
            assert len(set(row.tolist())) == 6


class TestTrilInv:
    """Batched inverse of lower-triangular factors, against np.linalg.inv."""

    # (stack, k): a chunk of clique factors at fit_large_n's shape (d = 100,
    # k = 15), the row split's d blocks of sum(c) = 6, and small k
    @pytest.mark.parametrize("stack, k", [(87, 15), (100, 6), (40, 2), (1, 15)])
    @pytest.mark.parametrize("cond", [1e1, 1e12])
    def test_matches_inv_within_condition_bound(self, stack, k, cond):
        # Cholesky factors of SPD matrices with eigenvalues spread over cond,
        # so each factor's condition number is about sqrt(cond)
        rng = np.random.default_rng(k)
        Q = np.linalg.qr(rng.standard_normal((stack, k, k)))[0]
        G = (Q * np.logspace(0, -np.log10(cond), k)) @ Q.transpose(0, 2, 1)
        C = np.linalg.cholesky(0.5 * (G + G.transpose(0, 2, 1)))
        Y = tril_inv(C)
        u = 2.0 ** -53

        def norm(A):
            return np.abs(A).sum(axis=-1).max(axis=-1)

        cond_C = norm(C) * norm(Y)
        # the residual of each row is within k u |C| |Y| (Higham, ch. 14);
        # forming C Y adds as much again
        assert np.all(norm(C @ Y - np.eye(k)) <= 2 * k * u * cond_C)
        expected = np.linalg.inv(C)
        assert np.all(norm(Y - expected) <= 4 * k * u * cond_C * norm(expected))
        np.testing.assert_array_equal(np.triu(Y, 1), 0.0)
        np.testing.assert_array_equal(np.diagonal(Y, axis1=1, axis2=2),
                                      1.0 / np.diagonal(C, axis1=1, axis2=2))

    def test_reads_only_the_lower_triangle(self):
        rng = np.random.default_rng(2)
        C = np.tril(rng.standard_normal((5, 6, 6))) + 4 * np.eye(6)
        np.testing.assert_array_equal(tril_inv(C + np.triu(np.ones((6, 6)), 1)),
                                      tril_inv(C))


class TestPairSqDists:
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150, 1e160])
    def test_bit_equal_to_cdist(self, scale, monkeypatch):
        # 37 features (a pairwise-summed reduction rounds differently there)
        # and chunks of 7 pairs, so 300 pairs span 43 chunks, the last one
        # short; at 1e160 the squared differences overflow to inf
        d, n = 37, 50
        monkeypatch.setattr(graph, "PAIR_BLOCK_BYTES", 8 * d * 7)
        rng = np.random.default_rng(3)
        XT = rng.standard_normal((n, d)) * np.logspace(0, 6, d) * scale
        rows, cols = rng.integers(0, n, size=(2, 300))
        rows[:10] = cols[:10]
        got = graph._pair_sq_dists(XT, rows, cols)
        expected = cdist(XT[rows], XT[cols], "sqeuclidean").diagonal()
        if scale == 1e160:
            assert np.isinf(expected).any()
        np.testing.assert_array_equal(got, expected)
        assert np.all(got[:10] == 0.0)


class TestLocalLaplacian:
    """Each clique's H_k (Xc' Xc + lam I)^-1 H_k, seen through the assembled L."""

    def test_hand_value_1d(self):
        # points 0, 1, 2 on a line, k = 2: the cliques are [0, 1], [1, 0]
        # (the tie between 0 and 2 goes to the lower index) and [2, 1].  For a
        # pair x, H (x x' + I)^-1 H = (1 - (x1 - x2)^2 / 2 / (1 + |x|^2)) H,
        # so the pair (0, 1) adds 0.375 [[1, -1], [-1, 1]] twice and the
        # pair (1, 2) adds 11/24 [[1, -1], [-1, 1]] once
        L = build_task_laplacian(np.array([[0.0, 1.0, 2.0]]), k=2, lam=1.0).L.toarray()
        c = 11.0 / 24.0
        np.testing.assert_allclose(
            L,
            [[0.75, -0.75, 0.0], [-0.75, 0.75 + c, -c], [0.0, -c, c]],
            atol=1e-14,
        )

    def test_zero_clique_reduces_to_centering(self):
        # every clique is all 4 samples and G = I, so L = 4 H_4
        X = np.zeros((3, 4))
        L = build_task_laplacian(X, k=4, lam=1.0).L.toarray()
        np.testing.assert_allclose(
            L, dense_laplacian_oracle(X, knn_cliques(X, 4), 1.0), atol=1e-14
        )
        np.testing.assert_allclose(L, 4 * centering_oracle(4), atol=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        # d < k, d > k, and k = n (every clique is the whole task)
        for d, n, k in ((2, 12, 5), (6, 12, 3), (3, 7, 7)):
            X = rng.standard_normal((d, n))
            np.testing.assert_allclose(
                build_task_laplacian(X, k, 0.5).L.toarray(),
                dense_laplacian_oracle(X, knn_cliques(X, k), 0.5),
                atol=1e-12,
            )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_task_laplacian(np.array([[np.nan, 0.0]]), k=2, lam=1.0)
        with pytest.raises(ValueError, match="positive"):
            build_task_laplacian(np.zeros((1, 2)), k=2, lam=0.0)


class TestBuildTaskLaplacian:
    def test_two_point_hand_value(self):
        # both cliques are the pair; each adds the local Laplacian
        # H_2 (Xc'Xc + I)^-1 H_2 = 0.375 [[1, -1], [-1, 1]]
        lap = build_task_laplacian(np.array([[0.0, 1.0]]), k=2, lam=1.0)
        np.testing.assert_allclose(
            lap.L.toarray(), [[0.75, -0.75], [-0.75, 0.75]], atol=1e-14
        )

    def test_matches_explicit_selection_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 12))
        lap = build_task_laplacian(X, k=3, lam=1.0)
        oracle = dense_laplacian_oracle(X, knn_cliques(X, 3), 1.0)
        np.testing.assert_allclose(lap.L.toarray(), oracle, atol=1e-12)

    def test_badly_scaled_input_raises(self):
        # X'X is of order 1e12 and lam = 1e-6 is below its round-off: the clique
        # Gram matrices are not numerically positive definite, and the
        # Cholesky factorization says so where an LU solve would not
        X = 1e6 * np.random.default_rng(0).standard_normal((4, 60))
        with pytest.raises(np.linalg.LinAlgError):
            build_task_laplacian(X, k=15, lam=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        d = int(rng.integers(1, 8))
        k = int(rng.integers(2, min(6, n) + 1))
        lam = float(rng.uniform(0.1, 5.0))
        L = build_task_laplacian(rng.standard_normal((d, n)), k, lam).L.toarray()
        # exactly symmetric: precompute_task adds L to A without symmetrizing
        np.testing.assert_array_equal(L, L.T)
        assert np.linalg.eigvalsh(L).min() >= -1e-8
        assert np.abs(L @ np.ones(n)).max() <= 1e-10

    def test_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(3)
        L = build_task_laplacian(rng.standard_normal((3, 15)), k=4, lam=1.0).L.toarray()
        for _ in range(100):
            x = rng.standard_normal(15)
            assert x @ L @ x >= -1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((3, 11))
        perm = rng.permutation(11)
        L = build_task_laplacian(X, k=3, lam=0.7).L.toarray()
        L_perm = build_task_laplacian(X[:, perm], k=3, lam=0.7).L.toarray()
        np.testing.assert_allclose(L_perm, L[np.ix_(perm, perm)], atol=1e-12)


class TestLaplacianStorage:
    """L is a canonical, exactly symmetric, read-only CSR array, summed in clique order."""

    @pytest.mark.parametrize("seed", range(4))
    def test_canonical_symmetric_read_only(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        k = int(rng.integers(2, min(8, n) + 1))
        L = build_task_laplacian(rng.standard_normal((3, n)), k, 1.0).L
        assert isinstance(L, csr_array) and L.shape == (n, n)
        # canonical: within each row, column indices strictly increase
        rows = np.repeat(np.arange(n), np.diff(L.indptr))
        assert np.all(np.diff(rows * n + L.indices) > 0)
        assert L.has_canonical_format
        # exactly symmetric: precompute_task adds L to A without symmetrizing
        assert (L != L.T).nnz == 0
        # eval shares one graph across every fit of a split
        for a in (L.data, L.indices, L.indptr):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            L.data[0] = 1.0

    @pytest.mark.parametrize("block_rows", [None, 1, 3])
    def test_bit_equal_to_dense_clique_scatter(self, block_rows, monkeypatch):
        # every entry is the sum a dense scatter in clique order gives, bit
        # for bit, whether the rows (and the clique chunks) are summed in one
        # block or in blocks of 1 or 3 rows
        rng = np.random.default_rng(11)
        # tied columns: a 0/1 grid, every column twice, so cliques share many
        # samples and are cut at equal distances
        tied = rng.integers(0, 2, size=(3, 10)).astype(float)
        # d < k, d > k, k = n (every clique is the whole task), and ties
        cases = [(rng.standard_normal((2, 17)), 6), (rng.standard_normal((7, 23)), 4),
                 (rng.standard_normal((3, 9)), 9), (np.hstack([tied, tied]), 5)]
        for X, k in cases:
            n = X.shape[1]
            if block_rows is not None:
                monkeypatch.setattr(graph, "KNN_BLOCK_BYTES", 8 * k * k * block_rows)
            L = build_task_laplacian(X, k, 0.3).L
            cliques = knn_cliques(X, k)
            expected = clique_scatter_oracle(X, cliques, 0.3)
            np.testing.assert_array_equal(L.toarray(), expected)
            # L stores each pair of samples that share a clique, once
            shared = np.zeros((n, n), dtype=bool)
            for g in cliques:
                shared[np.ix_(g, g)] = True
            assert L.nnz == np.count_nonzero(shared)
            np.testing.assert_allclose(
                L.toarray(), dense_laplacian_oracle(X, cliques, 0.3), atol=1e-12
            )

    def test_build_holds_no_n_by_n_array(self):
        # the k-NN scan, the clique Gram matrices and the assembly all work in
        # blocks, so one build peaks below a quarter of one n x n array
        n, d, k = 3000, 20, 10
        X = np.random.default_rng(4).standard_normal((d, n))
        tracemalloc.start()
        try:
            build_task_laplacian(X, k, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    def test_assembly_memory_scales_with_clique_entries(self, monkeypatch):
        # one block holds every row: the assembly's working memory stays a
        # small multiple of the n k^2 clique entries, with no n x n array
        n, k = 3000, 5
        monkeypatch.setattr(graph, "KNN_BLOCK_BYTES", 8 * n * n)
        rng = np.random.default_rng(3)
        # k distinct samples per clique, the first one i itself
        offsets = np.cumsum(rng.integers(1, n // k, size=(n, k - 1)), axis=1)
        idx = (np.arange(n)[:, None] + np.hstack([np.zeros((n, 1), int), offsets])) % n
        M = rng.standard_normal((n, k, k))
        tracemalloc.start()
        try:
            L = graph._assemble_csr(idx, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * n * k * k * 8
        rows = np.repeat(idx, k, axis=1).ravel()
        cols = np.tile(idx, (1, k)).ravel()
        expected = csr_array((M.ravel(), (rows, cols)), shape=(n, n))
        assert abs(L - expected).max() <= 1e-12
