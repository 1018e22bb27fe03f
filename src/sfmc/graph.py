"""k-NN clique discovery and local-learning Laplacian assembly.

Each sample i forms a clique of itself plus its k-1 Euclidean nearest
neighbors, found from row blocks (of at least KNN_ROW_FLOOR rows) of the GEMM
distances s_i + s_j - 2 x_i'x_j, s the squared norms: each block is one
product of augmented rows [-2 x_i, 1, s_i] with [x_j, s_j, 1], into one
reused buffer.  They give candidates and, within a rigorous round-off bound,
their order; exact distances are computed only for rows where that order
is ambiguous (to the row's own candidates, by one cdist call per row), and
no n x n distance matrix is formed.  The clique's local Laplacian is
H_k (Xc' Xc + lambda I)^-1 H_k, with Xc the d x k clique submatrix and H_k
the centering matrix; the task Laplacian is the sum of all local Laplacians
scatter-added into global sample coordinates.  The n local Laplacians are
computed in batched chunks from the Gram matrices of the gathered clique
columns of X: each is Cholesky-factored, G = C C', tril_inv inverts the
whole chunk's factors by batched forward substitution, and H_k is applied as
a mean subtraction.  They are summed in one pass over their entries (sorted
(row, column) keys, one bincount per block of rows).  L is a canonical
read-only CSR array: a row holds only the samples that share a clique with
it (about 110 of 1500 at k=15, d=100), so the sum's work grows with L's
entries, and a build holds no n x n array.  L is exactly symmetric,
positive semidefinite, and annihilates constant vectors.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial.distance import cdist

# bytes of one block of GEMM distances, clique columns or clique entries (k-NN
# scan, local Laplacians, L's assembly): a few blocks whatever n or the ties
KNN_BLOCK_BYTES = 1 << 20
# rows of a k-NN scan block at least: above n = 2048 a KNN_BLOCK_BYTES block
# holds fewer, and each thin block's GEMM streams all of X again
KNN_ROW_FLOOR = 64
# X is rescaled by a power of two for the GEMM only when its largest entry
# lies outside [2^-SCALE_EXP, 2^SCALE_EXP]; inside it the GEMM cannot overflow
SCALE_EXP = 64


@dataclass(frozen=True)
class TaskLaplacian:
    """Assembled n x n Laplacian and the features, k and lambda that built it.

    L is a canonical (sorted indices, no duplicates), read-only
    scipy.sparse.csr_array, exactly symmetric.  X is the d x n feature
    array it was built from (the caller's own array when that is float64),
    so solver.prepare can match a supplied graph to its task by identity.
    """

    L: csr_array
    X: np.ndarray
    k: int
    lam: float


def tril_inv(C):
    """Inverses of a stack (..., k, k) of nonsingular lower-triangular factors.

    Forward substitution on C Y = I, one row at a time, one batched matmul
    per row: row i of Y = C^-1 is -C[i, :i] Y[:i, :i] / C[i, i], with
    1 / C[i, i] on the diagonal, the row-oriented triangular inverse (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 14).  Each
    computed row meets its row of C Y = I to within k u |C| |Y| entrywise
    (u = 2^-53, to first order), so ||C Y - I|| <= k u cond(C) in the
    infinity norm.  Only the lower triangle of C is read.  A general
    inverse would run a pivoted LU on every matrix instead.
    """
    k = C.shape[-1]
    diag = np.diagonal(C, axis1=-2, axis2=-1)
    Y = np.zeros_like(C)
    Y[..., range(k), range(k)] = 1.0 / diag
    for i in range(1, k):
        row = np.matmul(C[..., i:i + 1, :i], Y[..., :i, :i])[..., 0, :]
        Y[..., i, :i] = row / -diag[..., i, None]
    return Y


def knn_cliques(X, k):
    """Read-only (n, k) index array: row i is [i, then its k-1 nearest samples].

    X is d x n, one sample per column.  Distances are squared Euclidean in
    the original feature space, computed as scipy's cdist computes them.  The
    k-1 neighbors are ordered by (distance, sample index): among samples at
    equal distance the lower index comes first, so the result is
    deterministic and a duplicate of sample i never displaces i from the
    head of its clique.

    Rows are scanned in blocks of KNN_BLOCK_BYTES of GEMM distances, and of
    at least KNN_ROW_FLOOR rows (the floor binds above n = 2048, where
    thinner blocks would stream X once for every few rows).  A block is one
    product of augmented rows, Dg_ij = [-2 x_i, 1, s_i] . [x_j, s_j, 1], with
    s the squared norms.  Round-off, in units of u = 2^-53: each s_i is off
    by at most d u s_i; the product's d + 2 terms (the scaling by -2 is
    exact) have absolute values summing to at most 2 (s_i + s_j), and a dot
    product errs by at most (d + 2) u times that sum, in any order of
    summation.  So |Dg_ij - D_ij| <= g (s_i + s_j) to first order,
    g = (3d + 4) u, against the true distance D_ij; with s_j <= 2 s_i +
    2 D_ij that is at most g (3 s_i + 2 D_ij).  The exact distances E_ij err
    by at most r D_ij, r = (d + 3) u.  Underflow adds absolute terms to both
    (of the norms and products, and of E in X's own units).  So for every j
    with Dg_ij <= P, P >= 0, |Dg_ij - E_ij| is at most half of

        err_i(P) = 2 (g (3 s_i + 2 P) + r P + underflow),

    the factor 2 covering higher-order terms and the rounding of these
    bounds.  With kth the row's (k-1)-th smallest Dg, every j with Dg_ij <=
    thr_i = kth + 2 err_i(max(kth, 0)) is a candidate: every sample left out
    is then strictly farther, by E, than each of the k-1 samples at or under
    kth.  Each row takes its first k + 1 places by Dg (all n if k = n),
    sorted, the sample itself (at -inf) first.  If Dg rises by more than
    tol_i = err_i(max(thr_i, 0)) at every step between places 1..k, the
    first k places are final: each of places 1..k-1 is strictly nearer, by
    E, than every later candidate, and than every sample left out.  A place
    k that is no candidate lies more than 2 err_i(max(kth, 0)) above kth,
    and tol_i <= err_i(max(kth, 0)) (1 + 8g + 4r) is less than that, so
    only a run of near-equal candidates within places 1..k flags a row.
    Each flagged row is ordered by exact (distance, index) over all its
    candidates, from one cdist call and a stable sort of the candidates in
    index order; on well-separated data there are none, and the result is
    exactly what an exhaustive sort would give.  Badly scaled X is rescaled
    by a power of two (exact) for the GEMM and s only, and rows whose exact
    distances could overflow take every sample as a candidate.
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
    # the GEMM's right-hand rows [x_j, s_j, 1], with x scaled by 2^p (exact);
    # the block's left-hand rows [-2 x_i, 1, s_i] are built per block.
    # Unscaled, the first d columns are X's samples for the exact distances
    right = np.empty((n, d + 2))
    right[:, :d] = X.T
    Xs = XT = right[:, :d]
    if p:
        XT = XT.copy()
        np.ldexp(Xs, p, out=Xs)
    s = np.einsum("ij,ij->i", Xs, Xs)
    right[:, d] = s
    right[:, d + 1] = 1.0
    # round-off bounds, in units of the (scaled) GEMM: relative coefficients of
    # the GEMM and exact distances, and absolute terms for underflow (of the
    # scaling, the GEMM, and the exact distances in X's own units)
    gemm_rel = (3 * d + 4) * 2.0 ** -53
    exact_rel = (d + 3) * 2.0 ** -53
    under = math.ldexp(16 * (d + 1), -1074) + math.ldexp(d + 1, 2 * p - 1074)

    def err(si, P):
        # err_i(P) of the docstring, for rows with squared norms si
        return 2.0 * (gemm_rel * (3.0 * si + 2.0 * P) + exact_rel * P + under)

    # rows whose candidate distances could overflow in X's units
    overflow = math.ldexp(1.0, min(1023 + 2 * p, 1023))

    indices = np.empty((n, k), dtype=np.intp)
    kk = min(k, n - 1)
    step = min(max(KNN_ROW_FLOOR, KNN_BLOCK_BYTES // (8 * n)), n)
    # every row block's GEMM goes into one buffer: a fresh block of about
    # KNN_BLOCK_BYTES would be mapped and faulted in anew each time
    buf = np.empty((step, n))
    left = np.empty((step, d + 2))
    left[:, d] = 1.0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        m = hi - lo
        np.multiply(Xs[lo:hi], -2.0, out=left[:m, :d])
        left[:m, d + 1] = s[lo:hi]
        D = np.matmul(left[:m], right.T, out=buf[:m])
        D[np.arange(m), np.arange(lo, hi)] = -np.inf
        # each row's first kk + 1 places, sorted by Dg; a copy, so the
        # partitioned index block is freed before the next one
        places = np.argpartition(D, kk, axis=1)[:, :kk + 1].copy()
        order = np.argsort(np.take_along_axis(D, places, axis=1), axis=1)
        places = np.take_along_axis(places, order, axis=1)
        G = np.take_along_axis(D, places, axis=1)
        indices[lo:hi] = places[:, :k]
        kth = G[:, k - 1]
        thr = kth + 2.0 * err(s[lo:hi], np.maximum(kth, 0.0))
        thr[thr >= overflow] = np.inf
        tol = err(s[lo:hi], np.maximum(thr, 0.0))
        # each flagged row, by exact (distance, index) over its candidates:
        # flatnonzero lists them by index, the sort is stable, and -1 puts
        # the sample ahead of its duplicates
        for i in np.flatnonzero((np.diff(G[:, 1:], axis=1) <= tol[:, None]).any(axis=1)):
            cols = np.flatnonzero(D[i] <= thr[i])
            exact = cdist(XT[lo + i:lo + i + 1], XT[cols], "sqeuclidean")[0]
            exact[cols == lo + i] = -1.0
            indices[lo + i] = cols[np.argsort(exact, kind="stable")[:k]]
    indices.setflags(write=False)
    return indices


def build_task_laplacian(X, k, lam):
    """Sum of the n local Laplacians H_k (Xc' Xc + lam I)^-1 H_k of X's cliques.

    X is d x n, the only input read.  knn_cliques finds the cliques.  In
    chunks of at most KNN_BLOCK_BYTES, one batched product forms the Gram
    matrices G = Xc' Xc of the cliques' gathered columns, an (m, k, d) stack.
    Each G is Cholesky-factored, G = C C', which raises LinAlgError if any
    clique's G is not numerically positive definite (badly scaled X with a
    tiny lam).  tril_inv inverts the chunk's factors at once, and with
    N = C^-1 H_k each local Laplacian is N'N; _assemble_csr
    scatter-adds them into L, a canonical, read-only scipy.sparse.csr_array
    with at most k^2 entries per clique.  No n x n array is formed.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("X has non-finite entries")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    idx = knn_cliques(X, k)
    return TaskLaplacian(L=_assemble_csr(idx, _local_laplacians(X, idx, lam)),
                         X=X, k=k, lam=lam)


def _local_laplacians(X, idx, lam):
    """(n, k, k) local Laplacians N'N of the cliques idx of X's columns."""
    (d, n), k = X.shape, idx.shape[1]
    XT = np.ascontiguousarray(X.T)
    M = np.empty((n, k, k))
    step = max(1, KNN_BLOCK_BYTES // (8 * k * max(k, d)))
    # one gather buffer for every chunk (a fresh one is mapped and faulted in
    # each time); idx is in range, so "clip" only skips take's bounds check
    buf = np.empty((min(step, n), k, d))
    for lo in range(0, n, step):
        chunk = idx[lo:lo + step]
        Xc = np.take(XT, chunk, axis=0, out=buf[:len(chunk)], mode="clip")
        G = Xc @ Xc.transpose(0, 2, 1)
        G += lam * np.eye(k)
        C_inv = tril_inv(np.linalg.cholesky(G))
        N = C_inv - C_inv.mean(axis=2, keepdims=True)
        local = N.transpose(0, 2, 1) @ N
        # L must be exactly symmetric: precompute_task adds it to A without
        # symmetrizing, and L[a, b] and L[b, a] sum the same numbers in the
        # same order once each clique is symmetric
        M[lo:lo + step] = 0.5 * (local + local.transpose(0, 2, 1))
    return M


def _assemble_csr(idx, M):
    """Read-only canonical CSR of sum_i S_i M_i S_i', S_i clique i's selection.

    One pass over row blocks of about KNN_BLOCK_BYTES of clique entries (a
    row lies in k cliques on average, so KNN_BLOCK_BYTES // 8k^2 rows).  A
    stable sort of the (row, column) keys of a block's clique entries lists
    L's stored entries in canonical order, each one's terms in clique order,
    and one bincount sums them from 0: every entry is the sum a dense scatter
    in clique order gives, bit for bit, and no (rows x n) array is formed.
    """
    n, k = idx.shape
    flat_idx = idx.ravel()
    # a stable argsort of flat_idx: the keys sample * n k + position are
    # unique, and a quicksort of them costs a quarter of a stable sort
    order = np.argsort(flat_idx * flat_idx.size + np.arange(flat_idx.size))
    starts = np.searchsorted(flat_idx[order], np.arange(n + 1))
    step = max(1, KNN_BLOCK_BYTES // (8 * k * k))
    # keys (row - lo, column) with their tags take about 2 log2(n) +
    # log2(step k^2) bits: under 63 for any n up to 2^20 (about 57 bits there)
    shift = int(n - 1).bit_length()

    def block(lo):
        # rows lo..hi-1: their stored entries' columns, row lengths and sums
        hi = min(lo + step, n)
        pos = order[starts[lo]:starts[hi]]
        keys = ((flat_idx[pos] - lo)[:, None] << shift | idx[pos // k]).ravel()
        # as for order, keys tagged with their place sort stably, so each
        # entry's terms stay in clique order
        tag = int(keys.size).bit_length()
        keys = np.sort(keys << tag | np.arange(keys.size))
        terms = M.reshape(n * k, k)[pos].ravel()[keys & ((1 << tag) - 1)]
        keys >>= tag
        first = np.diff(keys, prepend=-1) != 0
        stored = keys[first]
        return (stored & ((1 << shift) - 1),
                np.bincount(stored >> shift, minlength=hi - lo),
                np.bincount(np.cumsum(first) - 1, weights=terms))

    indices, counts, data = zip(*map(block, range(0, n, step)))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    L = csr_array((np.concatenate(data), np.concatenate(indices), indptr), shape=(n, n))
    L.has_canonical_format = True
    # eval shares one graph across every fit of a split
    for a in (L.data, L.indices, L.indptr):
        a.setflags(write=False)
    return L
