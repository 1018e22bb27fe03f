"""k-NN clique discovery and local-learning Laplacian assembly.

Each sample i forms a clique of itself plus its k-1 Euclidean nearest
neighbors.  The clique's local Laplacian is H_k (Xc' Xc + lambda I)^-1 H_k,
with Xc the d x k clique submatrix and H_k the centering matrix; the task
Laplacian is the sum of all local Laplacians scatter-added into global
sample coordinates.  The result is symmetric, positive semidefinite, and
annihilates constant vectors.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist


@dataclass(frozen=True)
class CliqueIndex:
    """Per-sample neighbor index sets, shape (n, k); row i starts with i."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def n_samples(self):
        return self.indices.shape[0]

    @property
    def k(self):
        return self.indices.shape[1]


@dataclass(frozen=True)
class TaskLaplacian:
    """Assembled n x n Laplacian plus the cliques that produced it."""

    L: np.ndarray
    cliques: CliqueIndex
    k: int
    lam: float


def centering_matrix(n):
    """H_n = I - (1/n) 11'; symmetric and idempotent, annihilates constants."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def knn_cliques(X, k):
    """Index sets [i, then the k-1 nearest other samples] for each column of X.

    Distances are squared Euclidean in the original feature space.  The k-1
    neighbors are ordered by (distance, sample index): among samples at equal
    distance the lower index comes first, so the result is deterministic and
    a duplicate of sample i never displaces i from the head of its clique.
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
    return CliqueIndex(indices=indices)


def local_laplacian(Xc, lam):
    """H_k (Xc' Xc + lam I)^-1 H_k for one clique submatrix Xc (d x k)."""
    Xc = np.asarray(Xc, dtype=np.float64)
    if not np.isfinite(Xc).all():
        raise ValueError("clique submatrix has non-finite entries")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    k = Xc.shape[1]
    H = centering_matrix(k)
    G = Xc.T @ Xc + lam * np.eye(k)
    M = H @ cho_solve(cho_factor(G), H)
    return 0.5 * (M + M.T)


def build_task_laplacian(X, k, lam):
    """Assemble the task Laplacian by scatter-adding every local Laplacian."""
    X = np.asarray(X, dtype=np.float64)
    cliques = knn_cliques(X, k)
    n = X.shape[1]
    L = np.zeros((n, n))
    for g in cliques.indices:
        L[np.ix_(g, g)] += local_laplacian(X[:, g], lam)
    L = 0.5 * (L + L.T)
    return TaskLaplacian(L=L, cliques=cliques, k=k, lam=lam)

