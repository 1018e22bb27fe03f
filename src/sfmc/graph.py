"""k-NN clique discovery and local-learning Laplacian assembly.

Each sample i forms a clique of itself plus its k-1 Euclidean nearest
neighbors.  The clique's local Laplacian is H_k (Xc' Xc + lambda I)^-1 H_k,
with Xc the d x k clique submatrix and H_k the centering matrix; the task
Laplacian is the sum of all local Laplacians scatter-added into global
sample coordinates.  All n local Laplacians are computed in one batched
pass from the clique Gram matrices, with H_k applied as a mean subtraction.
The result is exactly symmetric, positive semidefinite, and annihilates
constant vectors.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist


@dataclass(frozen=True)
class TaskLaplacian:
    """Assembled n x n Laplacian (read-only) and the k and lambda that built it."""

    L: np.ndarray
    k: int
    lam: float


def knn_cliques(X, k):
    """Read-only (n, k) index array: row i is [i, then its k-1 nearest samples].

    X is d x n, one sample per column.  Distances are squared Euclidean in the
    original feature space.  The k-1 neighbors are ordered by (distance,
    sample index): among samples at equal distance the lower index comes
    first, so the result is deterministic and a duplicate of sample i never
    displaces i from the head of its clique.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[1]
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    d2 = cdist(X.T, X.T, metric="sqeuclidean")
    # distances are >= 0, so -1 puts each sample at the head of its own row
    np.fill_diagonal(d2, -1.0)
    cand = np.argpartition(d2, k - 1, axis=1)[:, :k]
    cand_d2 = np.take_along_axis(d2, cand, axis=1)
    order = np.lexsort((cand, cand_d2), axis=1)
    indices = np.take_along_axis(cand, order, axis=1)
    # argpartition picks arbitrarily among entries tied with the k-th
    # distance; rows with such ties take the k lowest indices by a stable sort
    kth = np.take_along_axis(cand_d2, order[:, -1:], axis=1)
    for i in np.flatnonzero((d2 <= kth).sum(axis=1) > k):
        indices[i] = np.argsort(d2[i], kind="stable")[:k]
    indices.setflags(write=False)
    return indices


def build_task_laplacian(X, k, lam):
    """Sum of the n local Laplacians H_k (Xc' Xc + lam I)^-1 H_k of X's cliques.

    X is d x n.  The clique Gram matrices G are gathered from X'X, so no
    (n, k, d) array is formed.  Each G is Cholesky-factored, G = C C', which
    raises LinAlgError if any clique's G is not numerically positive
    definite (badly scaled X with a tiny lam).  With N = C^-1 H_k, each local
    Laplacian is N'N; they are scatter-added into L with one bincount.  L is
    exactly symmetric and read-only.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("X has non-finite entries")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    idx = knn_cliques(X, k)
    n = X.shape[1]
    K = X.T @ X
    G = K[idx[:, :, None], idx[:, None, :]]
    del K  # n x n, like L: free it before L is allocated
    G += lam * np.eye(k)
    C_inv = np.linalg.inv(np.linalg.cholesky(G))
    N = C_inv - C_inv.mean(axis=2, keepdims=True)
    M = N.transpose(0, 2, 1) @ N
    # L must be exactly symmetric: precompute_task adds it to A without
    # symmetrizing.  bincount adds in clique order, so L[a, b] and L[b, a]
    # sum the same numbers in the same order once each clique is symmetric.
    M = 0.5 * (M + M.transpose(0, 2, 1))
    flat = idx[:, :, None] * n + idx[:, None, :]
    L = np.bincount(flat.ravel(), weights=M.ravel(), minlength=n * n).reshape(n, n)
    # eval shares one graph across every fit and thread of a split
    L.setflags(write=False)
    return TaskLaplacian(L=L, k=k, lam=lam)
