"""k-NN clique discovery and local-learning Laplacian assembly.

Each sample i forms a clique of itself plus its k-1 Euclidean nearest
neighbors.  The neighbors are found from the Gram matrix X'X, which the
Laplacian needs anyway: row blocks of the GEMM distances s_i + s_j - 2 X'X
(s the squared norms) give candidates, exact distances are computed for
those candidates only, and no n x n distance matrix is formed.  The clique's
local Laplacian is H_k (Xc' Xc + lambda I)^-1 H_k, with Xc the d x k clique
submatrix and H_k the centering matrix; the task Laplacian is the sum of all
local Laplacians scatter-added into global sample coordinates.  The n local
Laplacians are computed in batched chunks from the clique Gram matrices,
with H_k applied as a mean subtraction.  L is stored sparse, as a canonical
read-only CSR array: a row holds only the samples that share a clique with
it (about 130 of 1500 at k=15, d=100), so X'X is the only n x n array a
build holds.  The result is exactly symmetric, positive semidefinite, and
annihilates constant vectors.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial.distance import cdist

# bytes of one row block of GEMM distances: bounds the k-NN scan's working
# memory (a few blocks) whatever the sample count or the number of ties
KNN_BLOCK_BYTES = 1 << 20
# X is rescaled by a power of two for the GEMM only when its largest entry
# lies outside [2^-SCALE_EXP, 2^SCALE_EXP]; inside it X'X cannot overflow
SCALE_EXP = 64
# blocks of at most this many entries skip the GEMM candidates: an exhaustive
# exact pass costs less there than the per-feature loop's fixed overhead
DENSE_MIN = 1 << 15


@dataclass(frozen=True)
class TaskLaplacian:
    """Assembled n x n Laplacian and the k and lambda that built it.

    L is a canonical (sorted indices, no duplicates), read-only
    scipy.sparse.csr_array, exactly symmetric.
    """

    L: csr_array
    k: int
    lam: float


def _pair_sq_dists(X, rows, cols):
    """Squared distances between columns rows[m] and cols[m] of X, as cdist.

    The squared differences are added feature by feature, in order, which
    rounds exactly as scipy's cdist(..., "sqeuclidean") and the brute-force
    oracle do; a pairwise-summed reduction would not.
    """
    out = np.zeros(rows.size)
    # huge X overflows to inf, as cdist does; knn_cliques allows for that
    with np.errstate(over="ignore"):
        for x in X:
            diff = x[rows]
            diff -= x[cols]
            diff *= diff
            out += diff
    return out


def knn_cliques(X, k, gram=None):
    """Read-only (n, k) index array: row i is [i, then its k-1 nearest samples].

    X is d x n, one sample per column; gram, when given, is X.T @ X (the
    caller's own GEMM, reused).  Distances are squared Euclidean in the
    original feature space, computed as scipy's cdist computes them.  The
    k-1 neighbors are ordered by (distance, sample index): among samples at
    equal distance the lower index comes first, so the result is
    deterministic and a duplicate of sample i never displaces i from the
    head of its clique.

    Rows are scanned in blocks of at most KNN_BLOCK_BYTES of GEMM distances
    Dg = s_i + s_j - 2 X'X, s = diag X'X.  With kth the row's (k-1)-th
    smallest Dg, every j whose Dg lies within a rigorous round-off bound of
    kth is a candidate.  The bound covers the GEMM error of Dg_ij and of the
    k-1 samples at or under kth (at most (2d + 4) u (s_i + s_j) plus
    underflow, u = 2^-53, with s_j <= 2 s_i + 2 Dg_ij up to that error) and
    the exact distances' own error ((d + 3) u relative, plus underflow).  So
    every sample left out is strictly farther, by exact distance, than the
    k-th one kept, and the candidates' exact (distance, index) order gives
    exactly what an exhaustive sort would.  A block of at most DENSE_MIN
    entries (small n), or one where an eighth or more of the entries are
    candidates (heavy ties, or GEMM cancellation), gets exact distances for
    every entry instead; there, a row tied far past its k-th distance is
    sorted whole, stably.  Badly scaled X is rescaled by a power of two
    (exact) for the GEMM only, and rows whose exact distances could overflow
    keep every sample as a candidate.
    """
    X = np.asarray(X, dtype=np.float64)
    d, n = X.shape
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if not np.isfinite(X).all():
        raise ValueError("X has non-finite entries")
    top = float(np.abs(X).max(initial=0.0))
    p = 0
    if top > 0 and not 2.0 ** -SCALE_EXP <= top <= 2.0 ** SCALE_EXP:
        p = -math.frexp(top)[1]
    if p or gram is None:
        Xs = np.ldexp(X, p)
        gram = Xs.T @ Xs
    s = gram.diagonal().copy()
    # round-off bounds, in units of the (scaled) GEMM: relative coefficients of
    # the GEMM and exact distances, and absolute terms for underflow (of the
    # scaling, the GEMM, and the exact distances in X's own units)
    gemm_rel = (2 * d + 4) * 2.0 ** -53
    exact_rel = (d + 3) * 2.0 ** -53
    gemm_abs = math.ldexp(16 * (d + 1), -1074)
    exact_abs = math.ldexp(d + 1, 2 * p - 1074)
    # rows whose candidate distances could overflow in X's units
    overflow = math.ldexp(1.0, min(1023 + 2 * p, 1023))

    X = np.ascontiguousarray(X)
    XT = np.ascontiguousarray(X.T)
    indices = np.empty((n, k), dtype=np.intp)
    step = max(1, KNN_BLOCK_BYTES // (8 * n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        m = hi - lo
        cand = None
        if m * n > DENSE_MIN:
            D = gram[lo:hi] * -2.0
            D += s
            D += s[lo:hi, None]
            D[np.arange(m), np.arange(lo, hi)] = -np.inf
            kth = np.partition(D, k - 1, axis=1)[:, k - 1]
            pos = np.maximum(kth, 0.0)
            thr = kth + 2.0 * (gemm_rel * (4.0 * s[lo:hi] + 2.0 * pos)
                               + 2.0 * exact_rel * pos + 2.0 * exact_abs + 2.0 * gemm_abs)
            thr *= 1.0 + 8.0 * gemm_rel
            thr[thr >= overflow] = np.inf
            cand = D <= thr[:, None]
            del D
            if 8 * np.count_nonzero(cand) > m * n:
                cand = None
        if cand is None:
            # a small block, or one where an eighth or more of the entries are
            # candidates (ties, or GEMM cancellation): exact distances for the
            # whole block from cdist, which rounds as _pair_sq_dists does,
            # cost less than per-pair gathers; the candidates are then every
            # entry at or under the row's k-th exact distance
            exact = cdist(XT[lo:hi], XT, "sqeuclidean")
            # distances are >= 0, so -1 puts each sample at the head of its own row
            exact[np.arange(m), np.arange(lo, hi)] = -1.0
            ekth = np.partition(exact, k - 1, axis=1)[:, k - 1]
            cand = exact <= ekth[:, None]
            # a row tied well past its k-th distance (candidates for more than
            # 2k and an eighth of the samples) costs less as a stable sort of
            # the whole row, which keeps equal distances in index order, than
            # in the lexsort below
            counts = np.count_nonzero(cand, axis=1)
            heavy = (8 * counts > n) & (counts > 2 * k)
            if heavy.any():
                indices[lo:hi][heavy] = np.argsort(exact[heavy], axis=1,
                                                   kind="stable")[:, :k]
                cand[heavy] = False
            rows, cols = np.nonzero(cand)
            dist = exact[rows, cols]
        else:
            heavy = np.zeros(m, dtype=bool)
            rows, cols = np.nonzero(cand)
            dist = _pair_sq_dists(X, rows + lo, cols)
            dist[rows + lo == cols] = -1.0
        order = np.lexsort((cols, dist, rows))
        light = np.flatnonzero(~heavy)
        heads = np.searchsorted(rows, light)
        indices[lo + light] = cols[order[heads[:, None] + np.arange(k)]]
    indices.setflags(write=False)
    return indices


def build_task_laplacian(X, k, lam):
    """Sum of the n local Laplacians H_k (Xc' Xc + lam I)^-1 H_k of X's cliques.

    X is d x n.  X'X is formed once, by one GEMM; knn_cliques finds the
    cliques from it, and the clique Gram matrices G are gathered from it, in
    chunks of at most KNN_BLOCK_BYTES, so no (n, k, d) array is formed.  Each
    G is Cholesky-factored, G = C C', which raises LinAlgError if any
    clique's G is not numerically positive definite (badly scaled X with a
    tiny lam).  With N = C^-1 H_k, each local Laplacian is N'N; they are
    scatter-added into L by _assemble_csr.  L is a canonical, read-only
    scipy.sparse.csr_array, with at most k^2 entries per clique, so X'X is
    the only n x n array a build holds.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("X has non-finite entries")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    K = X.T @ X
    idx = knn_cliques(X, k, gram=K)
    # L is assembled while X'X is alive, so L's arrays never take part of the
    # block X'X frees; precompute_task's A, of the same size, reuses it
    return TaskLaplacian(L=_assemble_csr(idx, _local_laplacians(K, idx, lam)),
                         k=k, lam=lam)


def _local_laplacians(K, idx, lam):
    """(n, k, k) local Laplacians N'N of the cliques idx, from the Gram matrix K."""
    n, k = idx.shape
    M = np.empty((n, k, k))
    step = max(1, KNN_BLOCK_BYTES // (8 * k * k))
    for lo in range(0, n, step):
        G = K[idx[lo:lo + step, :, None], idx[lo:lo + step, None, :]]
        G += lam * np.eye(k)
        C_inv = np.linalg.inv(np.linalg.cholesky(G))
        N = C_inv - C_inv.mean(axis=2, keepdims=True)
        local = N.transpose(0, 2, 1) @ N
        # L must be exactly symmetric: precompute_task adds it to A without
        # symmetrizing, and L[a, b] and L[b, a] sum the same numbers in the
        # same order once each clique is symmetric
        M[lo:lo + step] = 0.5 * (local + local.transpose(0, 2, 1))
    return M


def _assemble_csr(idx, M):
    """Read-only canonical CSR of sum_i S_i M_i S_i', S_i clique i's selection.

    Rows are summed in blocks of at most KNN_BLOCK_BYTES of dense row
    entries.  A stable argsort of idx gathers each row's (clique, position)
    pairs in clique order, and bincount adds them into the block, so every
    entry is the same sum, in the same order, as one bincount over all n^2
    entries in clique order would give.
    """
    n, k = idx.shape
    flat_idx = idx.ravel()
    # a stable argsort of flat_idx: the keys sample * n k + position are
    # unique, and a quicksort of them costs a quarter of a stable sort
    order = np.argsort(flat_idx * flat_idx.size + np.arange(flat_idx.size))
    starts = np.searchsorted(flat_idx[order], np.arange(n + 1))
    step = max(1, KNN_BLOCK_BYTES // (8 * n))
    blocks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def gather(lo, hi):
        # rows lo..hi-1: their (clique, position) pairs in clique order, the
        # keys (row - lo) n + column of those pairs' entries, and which keys
        # are hit
        pos = order[starts[lo]:starts[hi]]
        keys = ((flat_idx[pos] - lo)[:, None] * n + idx[pos // k]).ravel()
        hit = np.zeros((hi - lo) * n, dtype=bool)
        hit[keys] = True
        return pos, keys, hit

    # L stores every pair of samples that share a clique: a first pass counts
    # them per row, so L's arrays are allocated once, at their final size
    counts = [np.count_nonzero(gather(lo, hi)[2].reshape(hi - lo, n), axis=1)
              for lo, hi in blocks]
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    indices = np.empty(indptr[-1], dtype=np.intp)
    data = np.empty(indptr[-1])
    M = M.reshape(n * k, k)
    for lo, hi in blocks:
        pos, keys, hit = gather(lo, hi)
        stored = np.flatnonzero(hit)
        block = np.bincount(keys, weights=M[pos].ravel(), minlength=(hi - lo) * n)
        indices[indptr[lo]:indptr[hi]] = stored % n
        data[indptr[lo]:indptr[hi]] = block[stored]
    L = csr_array((data, indices, indptr), shape=(n, n))
    L.has_canonical_format = True
    # eval shares one graph across every fit and thread of a split
    for a in (L.data, L.indices, L.indptr):
        a.setflags(write=False)
    return L
