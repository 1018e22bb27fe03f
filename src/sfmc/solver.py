"""Joint l2,1 / trace-norm objective and its alternating closed-form solver.

The objective couples, per task, a label-propagation loss over labeled and
unlabeled samples (selection matrix U, graph Laplacian L), a least-squares
fit of predicted labels from selected features, and a row-sparsity penalty;
tasks are tied together through the trace norm of the stacked weight matrix
W = [W_1, ..., W_t] (d x sum(c), sum(c) the total class count).  Both
non-smooth norms are handled by iteratively reweighted least squares: each
iteration rebuilds the diagonal row weights D_l and the coupling matrix
Dtilde at the current W, minimizes the resulting quadratic majorizer, and
lets a safeguarded Anderson extrapolation take a longer step when that
lowers the objective further.  Every quantity is delta-smoothed so the
updates are defined for zero rows, and the recorded objective decreases
monotonically.

The propagated labels F and biases b have a closed form for any W, and the
W step reads only the per-task d x d and d x c caches R and T, so the loop
iterates on W alone.  It scores each iterate in d-space: the objective with
F and b eliminated is reduced_objective plus a W-free constant per task,
computed once by precompute_task.  The optimal b is affine in W, b = W'g + h,
with g and h read off A^-1 1 in the same precomputation, so no task keeps
an n-sized array past it and F is never formed.

Dtilde is built from the smaller of the two Gram matrices of W.  The d x d
form (1/2)(WW' + delta I)^(-1/2) puts the weight 1/(2 sqrt(delta)) on every
direction outside W's column span; when d > sum(c) there are d - sum(c) such
directions, which the objective does not charge (W has at most sum(c)
singular values), so that form would all but freeze W's column space after
the first solve.  The sum(c) x sum(c) form (1/2)(W'W + delta I)^(-1/2)
majorizes the same trace norm, up to the constant (d - sum(c)) sqrt(delta),
without that penalty; it couples the tasks' columns, so its W step is one
joint system, solved by preconditioned conjugate gradients.  Its
preconditioner is block Jacobi over tasks (exact within a task, blind to the
cross-task coupling) or over feature rows (exact in the coupling, blind to
R_l's off-diagonal), whichever drops the part of the operator with the
smaller Frobenius norm; at large gamma the coupling dominates, and the row
split keeps it.  That solve is inexact: it stops once its residual has
fallen by a forcing term tied to the last relative objective change (at
most CG_FORCING_CAP), as in inexact Newton methods (Eisenstat & Walker,
SIAM J. Sci. Comput. 1996) and CG-accelerated IRLS (Fornasier, Peter,
Rauhut & Worm, Comput. Optim. Appl. 2016).  CG starts at the current W and lowers the majorizer at every
iterate, so descent holds at any tolerance, and the tolerance tightens
toward rel_tol as the fit converges.
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs

from .dataset import ValidationError
from .graph import build_task_laplacian

# past W-map steps the Anderson extrapolation combines, and the fractions of
# the extrapolation step it tries before falling back to the plain step
ANDERSON_MEMORY = 5
ANDERSON_STEPS = (1.0, 0.5, 0.25)
# relative residual floor, and iteration cap per unknown column, of the joint
# W solve
CG_RTOL = 1e-12
CG_MAX_ITER_PER_COLUMN = 10
# cap on the forcing term fit passes to the joint W solve: the solve stops once
# its residual falls by this factor, or by the last relative objective change
# if that is smaller
CG_FORCING_CAP = 1e-2


class NumericalError(RuntimeError):
    """A linear solve or factorization failed on non-degenerate-looking input."""


@dataclass(frozen=True)
class Hyperparams:
    """Solver knobs.

    alpha weighs the per-task sparsity + fitting block, beta the fitting term
    inside it, gamma the cross-task trace-norm coupling.  lam and k control
    the graph Laplacian.  inf_surrogate stands in for the infinite label
    weight on labeled samples.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    lam: float = 1.0
    k: int = 15
    inf_surrogate: float = 1e6
    delta: float = 1e-12
    max_iter: int = 50
    rel_tol: float = 1e-6

    def __post_init__(self):
        # NaN passes every comparison below, so non-finite values go first
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValidationError("alpha and beta must be positive")
        if self.gamma < 0:
            raise ValidationError("gamma must be non-negative")
        if self.lam <= 0:
            raise ValidationError("lam must be positive")
        if self.k < 2:
            raise ValidationError("k must be at least 2")
        if self.inf_surrogate < 1:
            raise ValidationError("inf_surrogate must be at least 1")
        if self.delta <= 0:
            raise ValidationError("delta must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        if self.rel_tol < 0:
            raise ValidationError("rel_tol must be non-negative")

    def to_dict(self):
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "lambda" in d:
            d["lam"] = d.pop("lambda")
        # older model files carry exact_w_update; true names the only W update
        # there is, false the alpha/beta-scaled one that was removed
        if d.pop("exact_w_update", True) is not True:
            raise ValidationError("exact_w_update=false (the alpha/beta-scaled "
                                  "W update) is no longer supported")
        return cls(**d)


@dataclass
class SolverState:
    """Working state of one fit: per-task d-space blocks plus the shared coupling."""

    W: list
    R: list
    T: list
    Dl: list
    Dtilde: np.ndarray
    objective_trace: list = field(default_factory=list)
    iterations: int = 0
    # the last step's joint CG solve: its iteration count and preconditioner
    # split ("task" or "row"); 0 and None on the direct solve_W path
    cg_iterations: int = 0
    cg_split: str = None


@dataclass(frozen=True)
class SelectionModel:
    """Fitted weights, biases, and per-task feature scores."""

    task_names: tuple
    W: tuple
    b: tuple
    feature_scores: tuple
    hyperparams: Hyperparams
    objective_trace: tuple
    converged: bool
    iterations: int

    @property
    def n_tasks(self):
        return len(self.W)

    @property
    def n_features(self):
        return self.W[0].shape[0]

    def to_json_dict(self):
        return {
            "hyperparams": self.hyperparams.to_dict(),
            "tasks": [
                {
                    "name": self.task_names[l],
                    "W": self.W[l].tolist(),
                    "b": self.b[l].tolist(),
                    "feature_scores": self.feature_scores[l].tolist(),
                }
                for l in range(self.n_tasks)
            ],
            "objective_trace": list(self.objective_trace),
            "converged": self.converged,
            "iterations": self.iterations,
        }

    def save(self, path):
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )
        return Path(path)


def load_selection_model(path):
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"model file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        return SelectionModel(
            task_names=tuple(t["name"] for t in doc["tasks"]),
            W=tuple(np.asarray(t["W"], dtype=np.float64) for t in doc["tasks"]),
            b=tuple(np.asarray(t["b"], dtype=np.float64) for t in doc["tasks"]),
            feature_scores=tuple(
                np.asarray(t["feature_scores"], dtype=np.float64) for t in doc["tasks"]
            ),
            hyperparams=Hyperparams.from_dict(doc["hyperparams"]),
            objective_trace=tuple(doc["objective_trace"]),
            converged=bool(doc["converged"]),
            iterations=int(doc["iterations"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"model file {path} has unexpected structure: {exc}") from exc


def norm_l21_smoothed(M, delta):
    """Sum over rows of sqrt(||row||^2 + delta)."""
    M = np.asarray(M, dtype=np.float64)
    return float(np.sqrt((M * M).sum(axis=1) + delta).sum())


def trace_norm_smoothed(M, delta):
    """Tr((M M' + delta I)^(1/2)), from an SVD of M.

    M M' has rows - cols zero eigenvalues beyond the squared singular values
    when M has more rows than columns, each adding sqrt(delta).  Gram-matrix
    eigenvalues would square the singular values and lose those near sqrt(delta).
    """
    M = np.asarray(M, dtype=np.float64)
    rows, cols = M.shape
    sv = np.linalg.svd(M, compute_uv=False)
    extra = max(rows - cols, 0) * np.sqrt(delta)
    return float(np.sqrt(sv * sv + delta).sum() + extra)


def selection_diag(mask, inf_surrogate):
    """Diagonal of U, the label weights: inf_surrogate where labeled, 1 otherwise."""
    mask = np.asarray(mask, dtype=bool)
    return np.where(mask, float(inf_surrogate), 1.0)


def _refined_solve(factor, B, matmul):
    """cho_solve(factor, B), then one refinement pass against matmul(X) = A X.

    The refinement keeps the residual near machine precision even when the
    hyperparameter grid makes A badly scaled.
    """
    X = cho_solve(factor, B)
    resid = B - matmul(X)
    norm_b = np.linalg.norm(B)
    if norm_b > 0 and np.linalg.norm(resid) > 1e-13 * norm_b:
        X = X + cho_solve(factor, resid)
    return X


def _spd_solve(A, B):
    """Solve the SPD system A X = B with one refinement pass."""
    try:
        factor = cho_factor(A)
    except (LinAlgError, ValueError) as exc:
        raise NumericalError(f"SPD factorization failed: {exc}") from exc
    return _refined_solve(factor, B, lambda X: A @ X)


def precompute_task(task, lap, hp):
    """Per-task caches for the alternating updates: (factor, R, T, const, g, h).

    factor is the Cholesky factor of A = alpha beta H + U + L, in the form
    scipy.linalg.cho_solve takes, for solve_F.  With B = H X',
    R = X H (I - alpha beta A^-1) H X' and T = X H A^-1 U Y.  The inverse of
    A is never formed: one solve A Z = [(U + L) B, U Y, 1] with d + c + 1
    right-hand sides gives R = B'Z_R, the cancellation-free form of R that
    stays accurate at extreme alpha beta, T = B'Z_T and z = A^-1 1.  const
    is the task's W-free part of the objective once F and b are eliminated,
    Tr(Y'UY) - Tr(Y'U A^-1 U Y), taken without cancellation as
    <Z_T, (alpha beta H + L) Y>.  g and h give the optimal bias for any W as
    b = W'g + h: b is the mean over samples of F - X'W, and A is symmetric,
    so the mean of F = A^-1 (alpha beta B W + U Y) is z'(alpha beta B W + U Y)/n.
    Hence g = (alpha beta/n) B'z - xbar, xbar the feature means, and
    h = Y'(u z)/n, both d-space.  Neither U nor the centering matrix H is
    formed: U acts as its diagonal u, and H as a subtraction of column
    means.  lap.L is the sparse CSR Laplacian of build_task_laplacian; it is
    applied sparsely, in two products (L [B, Y] for the right-hand side and
    const, and L Z), and densified only into A, which is factored in place,
    so its factor is the only n x n array built here.  The refinement
    residual applies A as alpha beta (Z - colmean Z) + u Z + L Z.
    """
    n = task.n_samples
    d = task.X.shape[0]
    ab = hp.alpha * hp.beta
    L = lap.L
    u = selection_diag(task.labeled_mask, hp.inf_surrogate)
    # alpha beta H + U + L in one n x n allocation, made first so that it
    # reuses the block the graph build's X'X left, before smaller arrays
    # split it: L densified, then the other terms added to each entry, which
    # rounds as the sum of the dense terms.  L is exactly symmetric, so A is
    # too, and A.T is A in Fortran order, which LAPACK overwrites with its
    # factor
    A = L.toarray()
    A += -(ab * (1.0 / n))
    A[np.diag_indices(n)] = L.diagonal() + (ab * (1.0 - 1.0 / n) + u)
    xbar = task.X.T.mean(axis=0)
    B = task.X.T - xbar
    # L B and L Y in one sparse product; (alpha beta H + L) Y is kept for const
    LBY = L @ np.hstack([B, task.Y])
    HLY = ab * (task.Y - task.Y.mean(axis=0)) + LBY[:, d:]
    rhs = np.hstack([u[:, None] * B + LBY[:, :d], u[:, None] * task.Y,
                     np.ones((n, 1))])
    del LBY
    try:
        factor = cho_factor(A.T, lower=True, overwrite_a=True)
    except (LinAlgError, ValueError) as exc:
        raise NumericalError(f"SPD factorization failed: {exc}") from exc
    Z = _refined_solve(factor, rhs, lambda X: (ab * (X - X.mean(axis=0))
                                               + u[:, None] * X + L @ X))
    Z_T, z = Z[:, d:-1], Z[:, -1]
    R = B.T @ Z[:, :d]
    R = 0.5 * (R + R.T)
    T = B.T @ Z_T
    const = float((Z_T * HLY).sum())
    g = (ab / n) * (B.T @ z) - xbar
    h = task.Y.T @ (u * z) / n
    return factor, R, T, const, g, h


def update_Dl(W, delta):
    """Row-reweighting diagonal: entry j is 1 / (2 sqrt(||w_j||^2 + delta))."""
    W = np.asarray(W, dtype=np.float64)
    return 0.5 / np.sqrt((W * W).sum(axis=1) + delta)


def update_Dtilde(W, delta):
    """Coupling matrix (1/2)(W W' + delta I)^(-1/2), by symmetric eigendecomposition.

    Directions outside W's column span get the weight 1/(2 sqrt(delta)).
    With W = [W_1, ..., W_t] this is the d x d row form, which
    reweighted_step uses only when d <= sum(c); for d > sum(c) it passes W'
    instead and gets the sum(c) x sum(c) column form
    (1/2)(W'W + delta I)^(-1/2), whose null directions are not directions W
    can move in (see the module docstring).
    """
    W = np.asarray(W, dtype=np.float64)
    try:
        evals, evecs = np.linalg.eigh(W @ W.T)
    except LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    evals = np.clip(evals, 0.0, None) + delta
    M = (evecs * (0.5 / np.sqrt(evals))) @ evecs.T
    return 0.5 * (M + M.T)


def solve_W(R, T, Dl, Dtilde, hp):
    """One task's closed-form W update: (R + D_l/beta + (gamma/(alpha beta)) Dtilde)^-1 T.

    This is the exact minimizer of the reweighted quadratic, which is what
    guarantees monotone descent.  Dtilde is the d x d row-form coupling (or
    None when gamma is 0), so tasks solve separately; the sum(c) x sum(c)
    column form needs the joint solve_W_coupled.
    """
    S = R + np.diag((1.0 / hp.beta) * np.asarray(Dl, dtype=np.float64))
    if hp.gamma != 0:
        if Dtilde is None:
            raise ValueError("Dtilde is required when gamma is nonzero")
        S = S + (hp.gamma / (hp.alpha * hp.beta)) * Dtilde
    return _spd_solve(S, T)


class JointSystem:
    """Every task's R and T, and what the W steps of a fit derive from them alone.

    prepare builds one per prepared set, and each W step of every fit that
    uses the set reads it: blocks and widths are the tasks' column slices of
    the stacked W and their sizes, B the stacked T, floor = CG_RTOL ||B||
    the joint solve's absolute residual floor, diag_R each R_l's diagonal
    for the row split, and row_drop the Frobenius norm of the part of the
    operator the row split drops,
    sqrt(sum_l c_l ||R_l - diag R_l||_F^2).
    """

    def __init__(self, R, T):
        self.R = list(R)
        self.T = list(T)
        self.widths = [T_l.shape[1] for T_l in self.T]
        bounds = np.cumsum([0] + self.widths)
        self.blocks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.B = np.hstack(self.T)
        self.floor = CG_RTOL * np.linalg.norm(self.B)
        self.diag_R = [np.diag(R_l) for R_l in self.R]
        self.row_drop = math.sqrt(sum(
            c * np.linalg.norm(R_l - np.diag(diag)) ** 2
            for c, R_l, diag in zip(self.widths, self.R, self.diag_R)))


def _task_split(system, diags, Dtilde, cpl):
    """Block-Jacobi preconditioner over tasks: each task's own block, solved exactly.

    With Dtilde_ll = V diag(lam) V', the columns of W_l V decouple into d x d
    systems R_l + D_l/beta + cpl lam_k I, factored once each.
    """
    # the preconditioner applies thousands of small solves per fit, so it
    # calls LAPACK directly rather than through cho_factor / cho_solve
    precond = []
    for s, R_l, D_l in zip(system.blocks, system.R, diags):
        lam, V = np.linalg.eigh(Dtilde[s, s])
        factors = []
        for lam_k in lam:
            # dpotrf factors a Fortran-ordered array in place, with no copy;
            # its diagonal is every (d + 1)-th entry of its flat view
            S = np.array(R_l, order="F")
            S.ravel(order="F")[::S.shape[0] + 1] += D_l + cpl * lam_k
            factor, info = dpotrf(S, clean=0, overwrite_a=1)
            if info != 0:
                raise NumericalError(f"preconditioner factorization failed (info {info})")
            factors.append(factor)
        precond.append((V, factors))

    def solve(Res):
        Z = np.empty_like(Res)
        for s, (V, factors) in zip(system.blocks, precond):
            Y = Res[:, s] @ V
            for k, factor in enumerate(factors):
                Y[:, k] = dpotrs(factor, Y[:, k])[0]
            Z[:, s] = Y @ V.T
        return Z

    return solve


def _row_split(system, diags, Dtilde, cpl):
    """Block-Jacobi preconditioner over feature rows: P_j = diag(m_j) + cpl Dtilde.

    (m_j)_k = R_l[j, j] + D_l[j]/beta for the task l that owns column k, so
    P_j is the joint operator restricted to row j of W with each R_l cut to
    its diagonal.  All d blocks are sum(c) x sum(c); one batched Cholesky
    factors them and its inverse is formed once, so each apply is a batched
    product.
    """
    m = np.repeat(np.array([diag + D_l for diag, D_l in zip(system.diag_R, diags)]),
                  system.widths, axis=0).T
    P = np.broadcast_to(cpl * Dtilde, m.shape + Dtilde.shape[-1:]).copy()
    diag = np.arange(m.shape[1])
    P[:, diag, diag] += m
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(P))
    except LinAlgError as exc:
        raise NumericalError(f"preconditioner factorization failed: {exc}") from exc
    P_inv = np.swapaxes(L_inv, 1, 2) @ L_inv

    def solve(Res):
        return (P_inv @ Res[:, :, None])[:, :, 0]

    return solve


def solve_W_coupled(system, Dl, Dtilde, hp, W0, rtol=0.0):
    """Joint W update for the sum(c) x sum(c) column-form coupling Dtilde.

    Solves, for every task l at once,
        R_l W_l + D_l W_l / beta + (gamma/(alpha beta)) (W Dtilde)_l = T_l,
    where (W Dtilde)_l are task l's columns of the stacked W times Dtilde:
    the minimizer of the reweighted quadratic, an SPD system of size
    d sum(c).  system is the fit's JointSystem, which holds R and T and
    what the solve derives from them alone; Dl and W0 are per-task lists.
    Preconditioned conjugate gradients start at W0, the point the weights
    were built at, and every iterate lowers the quadratic from there, so the
    step keeps descent however early it stops.  It stops once the residual
    norm is at most max(CG_RTOL ||T||, rtol ||Res_0||), Res_0 the residual
    at W0, or at its iteration cap.  With rtol = 0 it solves to the
    CG_RTOL floor; fit passes a forcing term tied to the objective's
    progress, so steps far from the fixed point are cheap.  The test is
    relative to Res_0, so any rtol < 1 takes at least one step unless W0
    already meets the floor.

    The preconditioner is block Jacobi over one of two partitions of the
    unknowns (Saad, Iterative Methods for Sparse Linear Systems, 2003,
    ch. 10).  The task split solves each task's d x d block exactly and
    drops the cross-task blocks (gamma/(alpha beta)) Dtilde_lm; the row
    split solves each feature row's sum(c) x sum(c) block exactly and drops
    the off-diagonal of every R_l.  Each solve takes the split whose dropped
    part has the smaller Frobenius norm: (gamma/(alpha beta)) sqrt(d) times
    that of Dtilde's off-task blocks, against system.row_drop.  So the row
    split serves strongly coupled fits, and the task split weakly coupled
    ones and single tasks, where it is exact.

    Returns (W list, CG iterations taken, "task" or "row").
    """
    coef = 1.0 / hp.beta
    cpl = hp.gamma / (hp.alpha * hp.beta)
    blocks = system.blocks
    diags = [coef * np.asarray(D_l, dtype=np.float64) for D_l in Dl]

    def apply(X):
        out = cpl * (X @ Dtilde)
        for s, R_l, D_l in zip(blocks, system.R, diags):
            out[:, s] += R_l @ X[:, s] + D_l[:, None] * X[:, s]
        return out

    off_task = Dtilde.copy()
    for s in blocks:
        off_task[s, s] = 0.0
    task_drop = cpl * np.linalg.norm(off_task) * math.sqrt(system.B.shape[0])
    if system.row_drop < task_drop:
        split, solve_precond = "row", _row_split(system, diags, Dtilde, cpl)
    else:
        split, solve_precond = "task", _task_split(system, diags, Dtilde, cpl)

    B = system.B
    X = np.hstack(W0)
    Res = B - apply(X)
    stop = max(system.floor, rtol * np.linalg.norm(Res))
    Z = solve_precond(Res)
    P = Z
    rz = float((Res * Z).sum())
    iterations = 0
    while (iterations < CG_MAX_ITER_PER_COLUMN * B.shape[1]
           and np.linalg.norm(Res) > stop):
        AP = apply(P)
        curv = float((P * AP).sum())
        if not curv > 0:
            break
        step = rz / curv
        X = X + step * P
        Res = Res - step * AP
        Z = solve_precond(Res)
        rz, rz_old = float((Res * Z).sum()), rz
        P = Z + (rz / rz_old) * P
        iterations += 1
    if not np.all(np.isfinite(X)):
        raise NumericalError("joint W solve produced non-finite values")
    return [X[:, s].copy() for s in blocks], iterations, split


def reweighted_step(W, system, hp, rtol=0.0):
    """One plain step of the W-map: reweight at W, then minimize the majorizer.

    W is a per-task list, and system the fit's JointSystem, which holds R
    and T.  Returns (new W list, D_l list, Dtilde, CG iterations, split):
    the last two are solve_W_coupled's, or 0 and None on the direct path.
    Dtilde is None when gamma is 0.  Otherwise it comes
    from the smaller Gram matrix of the stacked W: the d x d row form when
    d <= sum(c), where tasks solve separately with solve_W, else the
    sum(c) x sum(c) column form, solved jointly by solve_W_coupled
    warm-started at W, which stops once its residual falls by the factor
    rtol (see solve_W_coupled).  The direct solve_W path is exact whatever
    rtol is.
    """
    Dl = [update_Dl(W_l, hp.delta) for W_l in W]
    Dtilde = None
    if hp.gamma != 0:
        stacked = np.hstack(W)
        if stacked.shape[0] > stacked.shape[1]:
            Dtilde = update_Dtilde(stacked.T, hp.delta)
            W_new, iterations, split = solve_W_coupled(system, Dl, Dtilde, hp, W, rtol)
            return W_new, Dl, Dtilde, iterations, split
        Dtilde = update_Dtilde(stacked, hp.delta)
    return [solve_W(R_l, T_l, D_l, Dtilde, hp)
            for R_l, T_l, D_l in zip(system.R, system.T, Dl)], Dl, Dtilde, 0, None


def reduced_objective(W, R, T, hp):
    """The objective with F and b at their optimum for W, less a W-free constant.

    Sum over tasks of alpha beta (Tr(W_l'R_lW_l) - 2 Tr(W_l'T_l)) +
    alpha ||W_l||_{2,1,delta}, plus gamma Tr((WW' + delta I)^(1/2)) over the
    stacked W.  fit records it, plus the constants from precompute_task, as
    the objective, and ranks candidate W by it, without any n-sized work.
    """
    ab = hp.alpha * hp.beta
    total = 0.0
    for W_l, R_l, T_l in zip(W, R, T):
        total += ab * float((W_l * (R_l @ W_l - 2.0 * T_l)).sum())
        total += hp.alpha * norm_l21_smoothed(W_l, hp.delta)
    if hp.gamma != 0:
        total += hp.gamma * trace_norm_smoothed(np.hstack(W), hp.delta)
    return total


class Anderson:
    """Safeguarded type-II Anderson acceleration of a fixed-point map.

    step(x, gx, score) takes the current iterate x and the plain step
    gx = g(x), both lists of arrays, and returns the next iterate and its
    score; gx is scored once, and each extrapolated point it tries once.
    From the last ANDERSON_MEMORY steps it extrapolates the point whose
    residual g(x) - x the secant model predicts smallest (Zhang, O'Donoghue
    & Boyd, SIAM J. Optim. 2020).  It takes that point, or failing that the
    point 1/2 or 1/4 of the way to it from gx, if score rates it strictly
    below gx; otherwise it takes gx and the history restarts.  So the next
    iterate never scores above the plain step.
    """

    def __init__(self):
        self._x = []
        self._g = []

    def step(self, x, gx, score):
        self._x.append(np.concatenate([a.ravel() for a in x]))
        self._g.append(np.concatenate([a.ravel() for a in gx]))
        del self._x[:-ANDERSON_MEMORY - 1], self._g[:-ANDERSON_MEMORY - 1]
        if len(self._g) < 2:
            return gx, score(gx)
        G = np.array(self._g).T
        F = G - np.array(self._x).T
        coeffs = np.linalg.lstsq(np.diff(F, axis=1), F[:, -1], rcond=None)[0]
        direction = -(np.diff(G, axis=1) @ coeffs)
        plain = score(gx)
        if np.all(np.isfinite(direction)):
            bounds = np.cumsum([0] + [a.size for a in gx])
            for t in ANDERSON_STEPS:
                flat = G[:, -1] + t * direction
                cand = [flat[a:b].reshape(g.shape)
                        for a, b, g in zip(bounds[:-1], bounds[1:], gx)]
                cand_score = score(cand)
                if cand_score < plain:
                    return cand, cand_score
        self._x.clear()
        self._g.clear()
        return gx, plain


def solve_F(task, W, hp, factor):
    """Propagated labels: F = (alpha beta H + U + L)^-1 (alpha beta H X'W + U Y).

    factor is precompute_task's Cholesky factor of alpha beta H + U + L.
    fit never forms F: solve_b(solve_F(...)) is the n-space closed form of
    the bias that precompute_task's g and h give as W'g + h.
    """
    XW = task.X.T @ W
    u = selection_diag(task.labeled_mask, hp.inf_surrogate)
    Q = hp.alpha * hp.beta * (XW - XW.mean(axis=0)) + u[:, None] * task.Y
    return cho_solve(factor, Q)


def solve_b(F, X, W):
    """Bias: the mean over samples of F - X'W."""
    return np.asarray(F - X.T @ W).mean(axis=0)


def _map_tasks(fn, items, n_threads):
    """[fn(item) for item in items]; n_threads > 1 runs them on a thread pool."""
    items = list(items)
    if n_threads > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def build_graphs(dataset, hp, n_threads=1):
    """Every task's Laplacian at hp.k and hp.lam, in task order, for prepare(graphs=).

    A Laplacian depends only on its task's X, k and lam, and each one keeps
    the X array it was built from, so the list serves any dataset whose
    tasks hold these same X objects: fits that differ only in alpha, beta,
    gamma or the label mask (apply_label_fraction passes X through) can
    share it.
    """
    return _map_tasks(lambda task: build_task_laplacian(task.X, hp.k, hp.lam),
                      dataset.tasks, n_threads)


def _cache_key(hp):
    """What precompute_task reads of hp: alpha beta, inf_surrogate, k and lam."""
    return (hp.alpha * hp.beta, hp.inf_surrogate, hp.k, hp.lam)


@dataclass(frozen=True)
class PreparedTasks:
    """Every task's caches from precompute_task, bound to the inputs they came from.

    system is the JointSystem of the tasks' R and T; const, g and h hold one
    entry per task, in task order.  R, T, g and h are read-only, because
    fits at other gammas share them.  dataset and hp are the objects prepare
    was called with.  Beyond the dataset, the caches depend on hp only
    through _cache_key, so fits of the same dataset that differ only in
    gamma, or in alpha and beta with the same product, can share one set.
    """

    system: JointSystem
    const: tuple
    g: tuple
    h: tuple
    dataset: object
    hp: Hyperparams

    def serves(self, dataset, hp):
        """True when a fit of dataset at hp can use this set.

        dataset must be the very object the set was built from: datasets and
        their tasks are frozen, with read-only arrays, so identity pins X, Y
        and the labeled masks exactly.
        """
        return dataset is self.dataset and _cache_key(hp) == _cache_key(self.hp)


def prepare(dataset, hp, n_threads=1, graphs=None):
    """Every task's precompute_task caches for fits of dataset at hp, as a PreparedTasks.

    Per task it takes the graph Laplacian from graphs (as build_graphs
    returns them) and keeps, from precompute_task, the caches R and T, the
    W-free objective constant and the bias caches g and h; the Cholesky
    factor of alpha beta H + U + L is dropped as soon as the task's
    precompute call returns.  When graphs is None, each task's Laplacian is
    built in that task's precompute call and dropped after it too, so a
    single-thread call holds one n x n array at a time (X'X in the graph
    build, then A; L is sparse), and allocates nothing n-sized that it
    returns.  A supplied graph must have been built from its task's own X
    array (lap.X is task.X) at hp.k and hp.lam, or ValidationError is
    raised.  The fits' JointSystem is built here, once, from R and T.  gamma
    is not read, and alpha and beta only through their product.  n_threads
    > 1 runs the tasks on a thread pool; results are identical to the
    sequential path.
    """
    for task in dataset.tasks:
        if hp.k > task.n_samples:
            raise ValidationError(
                f"task {task.name!r}: k={hp.k} exceeds its {task.n_samples} samples"
            )
    if graphs is not None:
        if len(graphs) != dataset.n_tasks:
            raise ValidationError(
                f"got {len(graphs)} graphs for {dataset.n_tasks} tasks"
            )
        for task, lap in zip(dataset.tasks, graphs):
            if lap.X is not task.X or (lap.k, lap.lam) != (hp.k, hp.lam):
                raise ValidationError(
                    f"task {task.name!r}: graph (k={lap.k}, lam={lap.lam}) not "
                    f"built from this task's X with k={hp.k}, lam={hp.lam}"
                )

    def caches(l):
        task = dataset.tasks[l]
        lap = (graphs[l] if graphs is not None
               else build_task_laplacian(task.X, hp.k, hp.lam))
        # the factor is dropped here: b comes from the d-space caches g and h
        return precompute_task(task, lap, hp)[1:]

    R, T, const, g, h = zip(*_map_tasks(caches, range(dataset.n_tasks), n_threads))
    for a in R + T + g + h:
        a.setflags(write=False)
    return PreparedTasks(system=JointSystem(R, T), const=const, g=g, h=h,
                         dataset=dataset, hp=hp)


def fit(dataset, hp, callback=None, n_threads=1, prepared=None):
    """Run the alternating solver on every task of the dataset.

    The per-task caches come from prepared, a PreparedTasks from prepare;
    when it is None, fit calls prepare(dataset, hp, n_threads) itself, so a
    lone fit holds one n x n array at a time, and nothing n-sized once the
    precomputation is done.  A prepared set must serve the fit
    (PreparedTasks.serves): built from this very dataset object, at hp's
    alpha beta, inf_surrogate, k and lam (gamma is free), or ValidationError
    is raised.  The W steps read the set's JointSystem, so fits that share a
    set share it too.  The initial W_l solve uses unit row weights and an
    identity coupling.  Each reweighting iteration then:

    1. takes the plain step of reweighted_step, which rebuilds D_l and
       (unless gamma is 0) Dtilde at the current W.  A joint CG W solve
       stops once its residual falls by the forcing term
       min(CG_FORCING_CAP, the last iteration's relative objective change),
       CG_FORCING_CAP at the first iteration: loose far from the fixed
       point, tightening toward rel_tol as the fit converges;
    2. lets Anderson extrapolate from the recent steps, keeping the
       extrapolated W only where reduced_objective rates it below the plain
       step.  With gamma 0 each task has its own history, so tasks stay
       decoupled; otherwise all tasks share one.

    Every recorded objective is reduced_objective plus the tasks' constants:
    the full objective at W with F and b at their optimum, computed in
    d-space.  Each iterate is scored once, by Anderson (with gamma 0, per
    task, summed in task order).
    Stops when its relative change drops below hp.rel_tol or after
    hp.max_iter reweighting iterations, each one plain step whether or not
    the extrapolated W is taken.  The recorded trace is non-increasing.
    state.Dtilde and state.Dl hold the weights the last step used.  The
    bias of the final W is b_l = W_l'g_l + h_l, the closed form that
    solve_b(solve_F(...)) computes in n-space.

    callback(iteration, state) is invoked after the initial solve (iteration
    0) and after each reweighting iteration; state.cg_iterations and
    state.cg_split then give that iteration's joint CG solve (0 and None on
    the direct solve_W path).  n_threads goes to prepare.
    """
    if prepared is None:
        prepared = prepare(dataset, hp, n_threads)
    elif not prepared.serves(dataset, hp):
        raise ValidationError(
            "caches prepared for another dataset object, or at (alpha*beta, "
            f"inf_surrogate, k, lam) = {_cache_key(prepared.hp)} where the fit "
            f"has {_cache_key(hp)}"
        )
    const = sum(prepared.const)
    system = prepared.system

    d = dataset.n_features
    state = SolverState(
        W=[],
        R=system.R,
        T=system.T,
        Dl=[np.ones(d) for _ in dataset.tasks],
        Dtilde=np.eye(d) if hp.gamma != 0 else None,
    )

    state.W = [solve_W(R_l, T_l, D_l, state.Dtilde, hp)
               for R_l, T_l, D_l in zip(state.R, state.T, state.Dl)]
    obj = reduced_objective(state.W, state.R, state.T, hp) + const
    if not np.isfinite(obj):
        raise NumericalError("objective is non-finite after initialization")
    state.objective_trace.append(obj)
    if callback is not None:
        callback(0, state)

    groups = ([range(dataset.n_tasks)] if hp.gamma != 0
              else [[l] for l in range(dataset.n_tasks)])
    accelerators = [Anderson() for _ in groups]
    converged = False
    forcing = CG_FORCING_CAP
    for r in range(1, hp.max_iter + 1):
        (plain, state.Dl, state.Dtilde, state.cg_iterations,
         state.cg_split) = reweighted_step(state.W, system, hp, forcing)
        obj = const
        for group, accel in zip(groups, accelerators):
            R_g = [state.R[l] for l in group]
            T_g = [state.T[l] for l in group]
            taken, score = accel.step([state.W[l] for l in group],
                                      [plain[l] for l in group],
                                      lambda V: reduced_objective(V, R_g, T_g, hp))
            for l, W_l in zip(group, taken):
                state.W[l] = W_l
            obj += score
        if not np.isfinite(obj):
            raise NumericalError(f"objective is non-finite at iteration {r}")
        prev = state.objective_trace[-1]
        state.objective_trace.append(obj)
        state.iterations = r
        if callback is not None:
            callback(r, state)
        scale = max(abs(prev), np.finfo(float).tiny)
        if abs(prev - obj) < hp.rel_tol * scale:
            converged = True
            break
        forcing = min(CG_FORCING_CAP, abs(prev - obj) / scale)

    b = [W_l.T @ g_l + h_l
         for W_l, g_l, h_l in zip(state.W, prepared.g, prepared.h)]
    scores = tuple(np.sqrt((W * W).sum(axis=1)) for W in state.W)
    return SelectionModel(
        task_names=tuple(task.name for task in dataset.tasks),
        W=tuple(state.W),
        b=tuple(b),
        feature_scores=scores,
        hyperparams=hp,
        objective_trace=tuple(state.objective_trace),
        converged=converged,
        iterations=state.iterations,
    )
