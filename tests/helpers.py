"""Shared instance builders and independent oracles for the test suite.

Every oracle here recomputes its target quantity from first principles
(explicit loops, naive matrix assembly, numpy-only solves, generic
minimizers) so the production code path is never used to produce its own
expected values.
"""

import numpy as np
from scipy.optimize import minimize

from sfmc.dataset import MultiTaskDataset, TaskData
from sfmc.select_eval import mean_average_precision, select_top, train_ls_classifier

GRID = [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6]


# ---------------------------------------------------------------- instances


def make_task(rng, d, n, c, label_frac=0.5, name="t"):
    """Random task with every class present and at least one label per class."""
    X = rng.standard_normal((d, n))
    labels = rng.integers(0, c, size=n)
    labels[:c] = np.arange(c)
    Y = np.zeros((n, c))
    Y[np.arange(n), labels] = 1.0
    mask = rng.random(n) < label_frac
    mask[:c] = True
    Y_masked = Y.copy()
    Y_masked[~mask] = 0.0
    return TaskData(name=name, X=X, Y=Y_masked, labeled_mask=mask)


def make_dataset(rng, t, d, n, c, label_frac=0.5):
    tasks = tuple(
        make_task(rng, d, n, c, label_frac, name=f"task_{l}") for l in range(t)
    )
    return MultiTaskDataset(tasks=tasks)


def make_random_instance(rng):
    """One acceptance-suite instance: dims within the stated bounds, grid
    hyperparameters; returns (dataset, hyperparam kwargs)."""
    t = int(rng.integers(1, 4))
    d = int(rng.integers(3, 21))
    tasks = []
    for l in range(t):
        n = int(rng.integers(6, 31))
        c = int(rng.integers(2, 4))
        tasks.append(make_task(rng, d, n, c, name=f"task_{l}"))
    ds = MultiTaskDataset(tasks=tuple(tasks))
    n_min = min(task.n_samples for task in ds.tasks)
    hp_kwargs = dict(
        alpha=float(rng.choice(GRID)),
        beta=float(rng.choice(GRID)),
        gamma=float(rng.choice(GRID)),
        k=int(rng.integers(2, min(10, n_min) + 1)),
    )
    return ds, hp_kwargs


# ------------------------------------------------------------------ oracles


def brute_knn(X, k):
    """Exhaustive neighbor lists: per sample, sort (distance, index) pairs."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        pairs = []
        for j in range(n):
            if j == i:
                continue
            dist = 0.0
            for f in range(X.shape[0]):
                dist += (X[f, i] - X[f, j]) ** 2
            pairs.append((dist, j))
        pairs.sort()
        out[i, 0] = i
        out[i, 1:] = [j for _, j in pairs[: k - 1]]
    return out


def centering_oracle(m):
    H = np.eye(m) - np.ones((m, m)) / m
    return H


def local_laplacian_oracle(Xc, lam):
    """Naive dense evaluation of H (Xc'Xc + lam I)^-1 H."""
    k = Xc.shape[1]
    H = centering_oracle(k)
    return H @ np.linalg.inv(Xc.T @ Xc + lam * np.eye(k)) @ H


def dense_laplacian_oracle(X, clique_indices, lam):
    """Assemble sum_i S_i L_i S_i' with S_i materialized as an n x k 0/1 matrix."""
    n = X.shape[1]
    k = clique_indices.shape[1]
    L = np.zeros((n, n))
    for g in clique_indices:
        S = np.zeros((n, k))
        for q, p in enumerate(g):
            S[p, q] = 1.0
        L += S @ local_laplacian_oracle(X[:, g], lam) @ S.T
    return L


def clique_scatter_oracle(X, clique_indices, lam):
    """L summed densely, clique by clique, into an n x n array.

    Each clique's local Laplacian is formed as build_task_laplacian forms it
    (its Gram matrix read off X'X, a Cholesky factor C, N = C^-1 H_k, N'N
    symmetrized), one clique at a time, and added into L in clique order.
    So every entry of L is the same sum in the same order as the production
    build's, and the two agree bit for bit: this pins the order in which
    the sparse assembly sums, where dense_laplacian_oracle checks the
    algebra to a tolerance.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    k = clique_indices.shape[1]
    K = X.T @ X
    L = np.zeros((n, n))
    for g in clique_indices:
        G = K[np.ix_(g, g)] + lam * np.eye(k)
        C_inv = np.linalg.inv(np.linalg.cholesky(G))
        N = C_inv - C_inv.mean(axis=1, keepdims=True)
        M = N.T @ N
        L[np.ix_(g, g)] += 0.5 * (M + M.T)
    return L


def smoothed_l21_oracle(W, delta):
    total = 0.0
    for row in np.asarray(W, dtype=float):
        total += np.sqrt(float((row * row).sum()) + delta)
    return total


def smoothed_trace_norm_oracle(W, delta):
    """Via singular values, padded with zeros up to the row count."""
    W = np.asarray(W, dtype=float)
    sv = np.linalg.svd(W, compute_uv=False)
    padded = np.zeros(W.shape[0])
    padded[: sv.size] = sv
    return float(np.sqrt(padded**2 + delta).sum())


def update_Dl_oracle(W, delta):
    """Row-reweighting diagonal: entry j is 1 / (2 sqrt(||w_j||^2 + delta))."""
    W = np.asarray(W, dtype=float)
    return 0.5 / np.sqrt((W * W).sum(axis=1) + delta)


def update_Dtilde_oracle(W, delta):
    """Coupling matrix (1/2)(WW' + delta I)^(-1/2), by eigendecomposition of WW'.

    Directions outside W's column span get the weight 1/(2 sqrt(delta)).
    For a stacked W this is the d x d row form; W' gives the
    sum(c) x sum(c) column form (1/2)(W'W + delta I)^(-1/2).
    """
    W = np.asarray(W, dtype=float)
    evals, evecs = np.linalg.eigh(W @ W.T)
    M = (evecs * (0.5 / np.sqrt(np.clip(evals, 0.0, None) + delta))) @ evecs.T
    return 0.5 * (M + M.T)


def selection_diag_oracle(mask, surrogate):
    vals = [surrogate if m else 1.0 for m in mask]
    return np.diag(np.asarray(vals, dtype=float))


def solve_Fb_oracle(task, L, U, hp, W):
    """Closed-form F and b from independently assembled matrices."""
    n = task.n_samples
    H = centering_oracle(n)
    ab = hp.alpha * hp.beta
    A = ab * H + U + L
    Q = ab * H @ task.X.T @ W + U @ task.Y
    F = np.linalg.solve(A, Q)
    b = (F - task.X.T @ W).T @ np.ones(n) / n
    return F, b


def full_objective_oracle(tasks, Ls, Us, hp, W_list, F_list, b_list):
    """Term-by-term evaluation of the delta-smoothed objective."""
    total = 0.0
    for task, L, U, W, F, b in zip(tasks, Ls, Us, W_list, F_list, b_list):
        E = F - task.Y
        for i in range(task.n_samples):
            total += U[i, i] * float(E[i] @ E[i])
        total += float(np.trace(F.T @ L @ F))
        resid = task.X.T @ W + np.outer(np.ones(task.n_samples), b) - F
        total += hp.alpha * (
            smoothed_l21_oracle(W, hp.delta) + hp.beta * float((resid**2).sum())
        )
    total += hp.gamma * smoothed_trace_norm_oracle(np.hstack(W_list), hp.delta)
    return total


def reduced_objective_oracle(W_stack, R_list, T_list, col_splits, hp):
    """F- and b-eliminated objective, without the W-independent constant."""
    blocks = np.split(W_stack, col_splits, axis=1)
    ab = hp.alpha * hp.beta
    total = 0.0
    for W, R, T in zip(blocks, R_list, T_list):
        total += ab * (float(np.trace(W.T @ R @ W)) - 2.0 * float(np.trace(W.T @ T)))
        total += hp.alpha * smoothed_l21_oracle(W, hp.delta)
    total += hp.gamma * smoothed_trace_norm_oracle(W_stack, hp.delta)
    return total


def reduced_gradient_oracle(W_stack, R_list, T_list, col_splits, hp):
    """Analytic gradient of reduced_objective_oracle, assembled blockwise."""
    blocks = np.split(W_stack, col_splits, axis=1)
    ab = hp.alpha * hp.beta
    grads = []
    for W, R, T in zip(blocks, R_list, T_list):
        g = 2.0 * ab * (R @ W - T)
        rown = np.sqrt((W * W).sum(axis=1) + hp.delta)
        g += hp.alpha * W / rown[:, None]
        grads.append(g)
    g_stack = np.hstack(grads)
    if hp.gamma != 0:
        # (WW' + delta I)^(-1/2) W, the gradient of the smoothed trace norm
        inv_sqrt = 2.0 * update_Dtilde_oracle(W_stack, hp.delta)
        g_stack = g_stack + hp.gamma * inv_sqrt @ W_stack
    return g_stack


def descent_minimize(fun, grad, x0, max_iter=2000, tol=1e-12):
    """Armijo-backtracking gradient descent; returns the best iterate."""
    x = x0.copy()
    f = fun(x)
    step = 1.0
    for _ in range(max_iter):
        g = grad(x)
        gnorm2 = float((g * g).sum())
        if gnorm2 <= tol * tol:
            break
        step = min(step * 2.0, 1e6)
        while step > 1e-18:
            x_new = x - step * g
            f_new = fun(x_new)
            if f_new <= f - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        else:
            break
        if f - f_new <= 1e-14 * max(abs(f), 1.0):
            x, f = x_new, f_new
            break
        x, f = x_new, f_new
    return x, f


def lbfgs_minimize(fun, grad, x0):
    """scipy's L-BFGS-B from x0, run to its round-off floor; returns (x, fun(x))."""
    res = minimize(lambda v: fun(v.reshape(x0.shape)), x0.ravel(),
                   jac=lambda v: grad(v.reshape(x0.shape)).ravel(), method="L-BFGS-B",
                   options=dict(maxiter=5000, ftol=0.0, gtol=1e-12, maxcor=20))
    return res.x.reshape(x0.shape), float(res.fun)


def central_diff_grad(fun, x, h=1e-6):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        hi = h * (1.0 + abs(orig))
        flat[i] = orig + hi
        f_plus = fun(x)
        flat[i] = orig - hi
        f_minus = fun(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * hi)
    return g


def analytic_full_gradient(tasks, Ls, Us, hp, W_list, F_list, b_list):
    """Gradient of the full smoothed objective w.r.t. every W_l, F_l, b_l."""
    W_stack = np.hstack(W_list)
    if hp.gamma != 0:
        trace_grad = 2.0 * update_Dtilde_oracle(W_stack, hp.delta) @ W_stack
    gW, gF, gb = [], [], []
    col = 0
    for task, L, U, W, F, b in zip(tasks, Ls, Us, W_list, F_list, b_list):
        ones = np.ones(task.n_samples)
        resid = task.X.T @ W + np.outer(ones, b) - F
        g = 2.0 * hp.alpha * hp.beta * task.X @ resid
        rown = np.sqrt((W * W).sum(axis=1) + hp.delta)
        g += hp.alpha * W / rown[:, None]
        if hp.gamma != 0:
            g += hp.gamma * trace_grad[:, col : col + W.shape[1]]
        gW.append(g)
        gF.append(
            2.0 * U @ (F - task.Y) + 2.0 * L @ F - 2.0 * hp.alpha * hp.beta * resid
        )
        gb.append(2.0 * hp.alpha * hp.beta * resid.T @ ones)
        col += W.shape[1]
    return gW, gF, gb


def average_precision_oracle(scores, relevant):
    """Literal definition: walk the ranking, average precision at hits."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precisions = []
    for rank, idx in enumerate(order, start=1):
        if relevant[idx]:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def score_candidates_oracle(candidates, train_tasks, test_sets, counts, ridge,
                            support):
    """select_eval._score_candidates one candidate at a time: a classifier
    and a MAP per candidate, task and count, each from 2-D inputs, and
    recovery counted with sets.

    Unlike the other oracles it calls the production kernels, on 2-D
    inputs: it pins the batching across candidates, while the 2-D kernels
    are pinned on their own (average_precision_oracle, the classifier's
    optimality tests).
    """
    maps = {count: [] for count in counts}
    recs = {count: [] for count in counts}
    for rankings in candidates:
        for count in counts:
            selections = [select_top(r, count) for r in rankings]
            per_task = []
            for task, (X_test, Y_test), sel in zip(train_tasks, test_sets, selections):
                labeled = np.flatnonzero(task.labeled_mask)
                clf = train_ls_classifier(task.X[np.ix_(sel, labeled)],
                                          task.Y[labeled], ridge)
                per_task.append(mean_average_precision(clf.decision(X_test[sel]), Y_test))
            maps[count].append(float(np.mean(per_task)))
            if support is not None:
                sup = set(support)
                recs[count].append(float(np.mean(
                    [len(sup & set(sel.tolist())) / min(count, len(sup))
                     for sel in selections])))
    return {count: (np.array(maps[count]),
                    None if support is None else np.array(recs[count]))
            for count in counts}


def fisher_oracle(X, labels, floor=1e-12):
    """Direct loop evaluation of the between/within variance ratio."""
    d = X.shape[0]
    scores = np.zeros(d)
    mu = X.mean(axis=1)
    for j in range(d):
        between = 0.0
        within = 0.0
        for c in np.unique(labels):
            xc = X[j, labels == c]
            between += xc.size * (xc.mean() - mu[j]) ** 2
            within += xc.size * xc.var()
        scores[j] = between / max(within, floor)
    return scores
