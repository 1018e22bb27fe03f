import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_array

from sfmc import solver
from sfmc.dataset import ValidationError
from sfmc.graph import build_task_laplacian
from sfmc.solver import (CG_RTOL, Hyperparams, JointSystem, NumericalError,
                         _row_split, fit, precompute_task, reduced_objective,
                         reweight, selection_diag, solve_W, solve_W_coupled)
from helpers import (central_diff_grad, centering_oracle, full_objective_oracle,
                     make_dataset, make_task, selection_diag_oracle,
                     smoothed_l21_oracle, smoothed_trace_norm_oracle,
                     solve_Fb_oracle, update_Dl_oracle, update_Dtilde_oracle)


def _score(M, delta):
    """reduced_objective's Score of M as one task with R = 0 and T = 0."""
    d, c = M.shape
    hp = Hyperparams(alpha=1.0, beta=1.0, gamma=1.0, delta=delta)
    return reduced_objective(M, JointSystem([np.zeros((d, d))], [np.zeros((d, c))]), hp)


def _penalty_terms(M, delta):
    """(l2,1 term, trace term) of M as reduced_objective scores them."""
    score = _score(M, delta)
    l21 = float(score.rows.sum())
    return l21, score.value - l21


def _weights(M, delta):
    """The weights fit would build at M: (D_l of the one task, Dtilde)."""
    Dl, Dtilde = reweight([_score(M, delta)])
    return Dl[0], Dtilde


class TestNorms:
    def test_smoothed_variants_match_oracles(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((5, 3))
        for A in (M, M.T):
            l21, trace = _penalty_terms(A, 1e-6)
            assert l21 == pytest.approx(smoothed_l21_oracle(A, 1e-6), rel=1e-12)
            assert trace == pytest.approx(smoothed_trace_norm_oracle(A, 1e-6), rel=1e-10)

    def test_trace_norm_accurate_near_delta_floor(self):
        # singular values at and below sqrt(delta), as in a fit whose stacked
        # W has collapsed directions; squaring them through a Gram matrix
        # loses about eps * ||W||^2 / sqrt(delta) of the sum
        rng = np.random.default_rng(19)
        d, cols, delta = 8, 4, 1e-12
        sv = np.array([0.38, 0.24, 1.8e-6, 1.5e-7])
        Q = np.linalg.qr(rng.standard_normal((d, cols)))[0]
        V = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
        W = (Q * sv) @ V.T
        core = np.sqrt(sv**2 + delta).sum()
        assert abs(_penalty_terms(W, delta)[1]
                   - (core + (d - cols) * np.sqrt(delta))) <= 1e-14
        assert abs(_penalty_terms(W.T, delta)[1] - core) <= 1e-14


class TestSelectionDiag:
    def test_mixed_mask(self):
        u = selection_diag(np.array([True, False]))
        np.testing.assert_array_equal(u, [1e6, 1.0])

    def test_all_false_is_identity(self):
        np.testing.assert_array_equal(selection_diag(np.zeros(3, bool)), np.ones(3))

    def test_all_true(self):
        np.testing.assert_array_equal(selection_diag(np.ones(2, bool)), [1e6, 1e6])

    def test_matches_oracle(self, monkeypatch):
        # the weight is read at call time, so tests can set another one
        monkeypatch.setattr(solver, "LABEL_WEIGHT", 123.0)
        rng = np.random.default_rng(2)
        mask = rng.random(9) < 0.4
        np.testing.assert_array_equal(
            selection_diag(mask), np.diag(selection_diag_oracle(mask, 123.0))
        )


def _task_with_caches(rng, d=5, n=8, c=2, **hp_kwargs):
    task = make_task(rng, d, n, c)
    hp = Hyperparams(k=min(4, n), **hp_kwargs)
    lap = build_task_laplacian(task.X, hp.k, hp.lam)
    U = selection_diag_oracle(task.labeled_mask, solver.LABEL_WEIGHT)
    R, T, *_ = precompute_task(task, lap, hp)
    return task, lap, U, R, T, centering_oracle(n), hp


class TestPrecomputeTask:
    def test_definitional_residual(self):
        # U = I, L = 0, alpha*beta = 1: A = H + I maps 1 to 1 and acts as 2 on
        # centered vectors, so A^-1 = H/2 + 11'/n, z = A^-1 1 = 1, and the
        # literal forms reduce to R = B'B/2, T = B'Y/2,
        # const = Tr(Y'Y) - Tr(Y'HY)/2 - ||Y'1||^2/n, g = -xbar, h = Y'1/n.
        # make_task always labels c samples, so an unlabeled stand-in gives U = I
        n = 6
        base = make_task(np.random.default_rng(3), 4, n, 2)

        class Unlabeled:
            X = base.X
            Y = base.Y
            n_samples = n
            labeled_mask = np.zeros(n, dtype=bool)

        class ZeroLap:
            L = csr_array((n, n))

        hp = Hyperparams(alpha=1.0, beta=1.0, k=3)
        R, T, const, g, h = precompute_task(Unlabeled(), ZeroLap(), hp)
        Y, xbar, H = base.Y, base.X.mean(axis=1), centering_oracle(n)
        B = H @ base.X.T
        np.testing.assert_allclose(R, B.T @ B / 2, atol=1e-12)
        np.testing.assert_allclose(T, B.T @ Y / 2, atol=1e-12)
        col_sums = Y.sum(axis=0)
        expected = (Y * Y).sum() - (Y * (H @ Y)).sum() / 2 - col_sums @ col_sums / n
        assert const == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(g, -xbar, atol=1e-12)
        np.testing.assert_allclose(h, col_sums / n, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_system_raises(self):
        # precompute_task skips scipy's finiteness scans of A and its
        # factor, so a non-finite A must still fail as a numerical error:
        # alpha beta overflowing to inf, or an entry LAPACK carries into the
        # factor's diagonal
        task = make_task(np.random.default_rng(3), 4, 6, 2)

        class Lap:
            L = csr_array((6, 6))

        with pytest.raises(NumericalError, match="over- or underflows"):
            precompute_task(task, Lap(), Hyperparams(alpha=1e200, beta=1e200, k=3))

        class InfLap:
            L = csr_array(np.diag([np.inf] + [0.0] * 5))

        with pytest.raises(NumericalError, match="non-finite factor"):
            precompute_task(task, InfLap(), Hyperparams(k=3))

        off = np.zeros((6, 6))
        off[4, 1] = off[1, 4] = np.inf

        class OffDiagonalInfLap:
            L = csr_array(off)

        with pytest.raises(NumericalError, match="SPD factorization failed"):
            precompute_task(task, OffDiagonalInfLap(), Hyperparams(k=3))

    @pytest.mark.parametrize("n", [2, 3, 6, 7, 150, 151])
    def test_packed_system_matches_lapack_layout(self, n):
        # the lower triangle of L + off (1 1' - I) + diag(shift), placed by
        # _packed_system, is LAPACK's own RFP copy (dtrttf) of the dense sum,
        # bit for bit, at even n and odd n; diag views the packed diagonal
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n))
        M[rng.random((n, n)) < 0.7] = 0.0
        L = csr_array(M + M.T)
        off, shift = -0.3, rng.random(n) + 2.0
        dense = L.toarray() + off
        dense[np.diag_indices(n)] = L.diagonal() + shift
        expected, info = scipy.linalg.lapack.dtrttf(dense, transr="N", uplo="L")
        assert info == 0
        ap, diag = solver._packed_system(L, off, shift)
        np.testing.assert_array_equal(ap, expected)
        np.testing.assert_array_equal(np.concatenate(diag), np.diag(dense))
        for part in diag:
            assert np.shares_memory(part, ap)

    def test_r_symmetric_psd(self):
        rng = np.random.default_rng(4)
        _, _, _, R, _, _, _ = _task_with_caches(rng, d=5, n=8)
        assert np.abs(R - R.T).max() <= 1e-10
        assert np.linalg.eigvalsh(R).min() >= -1e-8

    def test_t_zero_when_y_zero(self):
        rng = np.random.default_rng(5)
        base = make_task(rng, 4, 7, 2)
        # same geometry, empty labels: precompute with Y = 0 must give T = 0
        hp = Hyperparams(k=3)
        lap = build_task_laplacian(base.X, hp.k, hp.lam)

        class Zeroed:
            X = base.X
            Y = np.zeros_like(base.Y)
            n_samples = base.n_samples
            labeled_mask = base.labeled_mask

        T = precompute_task(Zeroed(), lap, hp)[1]
        np.testing.assert_allclose(T, 0.0, atol=1e-15)

    def test_matches_printed_form_at_moderate_scale(self):
        # the cancellation-free R must agree with the literal formula
        rng = np.random.default_rng(6)
        task, lap, U, R, T, H, hp = _task_with_caches(rng, d=4, n=9)
        ab = hp.alpha * hp.beta
        P = np.linalg.inv(ab * H + U + lap.L)
        R_literal = task.X @ H @ (np.eye(9) - ab * P) @ H @ task.X.T
        np.testing.assert_allclose(R, R_literal, atol=1e-9)
        T_literal = task.X @ H @ P @ U @ task.Y
        np.testing.assert_allclose(T, T_literal, atol=1e-10)

    def test_factors_in_place(self):
        # U and H act as a vector and a mean subtraction, A's lower triangle
        # is packed (n (n + 1) / 2 entries) and factored in place, and the
        # refinement residual is formed from L, u and a mean subtraction, so
        # the packed A is the one n x n array precompute_task allocates and
        # the call peaks near 0.75 of one dense n x n array; a dense A
        # factored in place peaks near 1.3.  Even and odd n pack differently
        d = 20
        for n in (600, 601):
            task = make_task(np.random.default_rng(7), d, n, 3)
            hp = Hyperparams(k=10)
            lap = build_task_laplacian(task.X, hp.k, hp.lam)
            tracemalloc.start()
            try:
                R, T, *_ = precompute_task(task, lap, hp)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8
            # the literal formulas, with dense H and U and an explicit inverse
            H = centering_oracle(n)
            U = selection_diag_oracle(task.labeled_mask, solver.LABEL_WEIGHT)
            ab = hp.alpha * hp.beta
            A = ab * H + U + lap.L
            P = np.linalg.inv(A)
            R_literal = task.X @ H @ (np.eye(n) - ab * P) @ H @ task.X.T
            T_literal = task.X @ H @ P @ U @ task.Y
            np.testing.assert_allclose(R, R_literal, rtol=0,
                                       atol=1e-9 * np.abs(R_literal).max())
            np.testing.assert_allclose(T, T_literal, rtol=0,
                                       atol=1e-9 * np.abs(T_literal).max())

    def test_fit_holds_no_factor(self):
        # fit keeps only each task's d-space caches, so it peaks in one
        # task's step: here the graph build, about 1.4 n x n blocks (its row
        # blocks are a fixed size, large beside n = 600), above the
        # precompute's 0.75 with its packed A; a fit that kept every task's
        # packed factor to the end would add half a block per earlier task,
        # about 2.6 blocks at t = 3
        n = 600
        ds = make_dataset(np.random.default_rng(7), t=3, d=20, n=n, c=3)
        hp = Hyperparams(k=10)
        tracemalloc.start()
        try:
            fit(ds, hp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8


class TestUpdateDl:
    # the row weights fit builds, reweight of reduced_objective's Score
    def test_direct_formula(self):
        W = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = _weights(W, 1e-12)[0]
        assert out[0] == pytest.approx(0.1, rel=1e-10)
        assert out[1] == pytest.approx(0.5 / 1e-6, rel=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((5, 3))
        ratio = _weights(2 * W, 1e-15)[0] / _weights(W, 1e-15)[0]
        np.testing.assert_allclose(ratio, 0.5, rtol=1e-6)

    def test_trace_identity(self):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((6, 2))
        delta = 1e-9
        D = np.diag(_weights(W, delta)[0])
        lhs = np.trace(W.T @ D @ W)
        rows = (W**2).sum(axis=1)
        rhs = 0.5 * (rows / np.sqrt(rows + delta)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestUpdateDtilde:
    # the coupling fit builds, reweight of reduced_objective's Score: the
    # d x d row form when d <= sum(c), else the sum(c) x sum(c) column form
    def test_scaled_identity(self):
        out = _weights(2 * np.eye(2), 1e-15)[1]
        np.testing.assert_allclose(out, 0.25 * np.eye(2), atol=1e-8)

    def test_zero_matrix_limit(self):
        # d = 3 > sum(c) = 2, so the 2 x 2 column form
        delta = 1e-12
        out = _weights(np.zeros((3, 2)), delta)[1]
        np.testing.assert_allclose(out, 0.5 / np.sqrt(delta) * np.eye(2), rtol=1e-9)

    def test_square_root_residual(self):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((4, 6))
        delta = 1e-10
        Dt = _weights(W, delta)[1]
        root = scipy.linalg.sqrtm(W @ W.T + delta * np.eye(4)).real
        np.testing.assert_allclose(2.0 * Dt @ root, np.eye(4), atol=1e-8)


class TestSolveW:
    def test_zero_rhs(self):
        rng = np.random.default_rng(10)
        R = np.eye(4)
        T = np.zeros((4, 2))
        hp = Hyperparams()
        W = solve_W(R, T, np.ones(4), np.eye(4), hp)
        np.testing.assert_array_equal(W, 0.0)

    def test_diagonal_case(self):
        # R = 0, D = 1/2 I (unit rows), gamma = 0, beta = 1 -> W = 2T
        rng = np.random.default_rng(11)
        T = rng.standard_normal((5, 2))
        hp = Hyperparams(gamma=0.0, beta=1.0)
        W = solve_W(np.zeros((5, 5)), T, 0.5 * np.ones(5), None, hp)
        np.testing.assert_allclose(W, 2 * T, atol=1e-12)

    def test_spd_solve_matches_scipy_cholesky(self):
        # _spd_solve factors with dpotrf itself; scipy's cho_factor and
        # cho_solve call the same LAPACK routines, so the refined solutions
        # agree bit for bit
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 40))
            A = rng.standard_normal((d, d))
            S = A @ A.T + 10.0 ** rng.uniform(-8, 4) * np.eye(d)
            B = rng.standard_normal((d, 3))
            factor = scipy.linalg.cho_factor(S)
            expected = solver._refined_solve(
                lambda B: scipy.linalg.cho_solve(factor, B), B, lambda X: S @ X)
            np.testing.assert_array_equal(solver._spd_solve(S, B), expected)

    def test_spd_solve_failures_raise(self):
        S = np.eye(3)
        S[2, 2] = -1.0
        with pytest.raises(NumericalError, match=r"SPD factorization failed \(info 3\)"):
            solver._spd_solve(S, np.ones((3, 1)))
        S[2, 2] = np.nan
        with pytest.raises(NumericalError, match="SPD factorization failed: non-finite"):
            solver._spd_solve(S, np.ones((3, 1)))

    def test_residual_relative(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = int(rng.integers(3, 10))
            c = int(rng.integers(1, 4))
            A = rng.standard_normal((d, d + 2))
            R = A @ A.T
            T = rng.standard_normal((d, c))
            hp = Hyperparams(
                alpha=10.0 ** rng.uniform(-3, 3),
                beta=10.0 ** rng.uniform(-3, 3),
                gamma=10.0 ** rng.uniform(-3, 3),
            )
            Dl = update_Dl_oracle(rng.standard_normal((d, c)), hp.delta)
            Dt = update_Dtilde_oracle(rng.standard_normal((d, c)), hp.delta)
            W = solve_W(R, T, Dl, Dt, hp)
            S = R + np.diag(Dl / hp.beta) + hp.gamma / (hp.alpha * hp.beta) * Dt
            resid = np.linalg.norm(S @ W - T) / np.linalg.norm(T)
            assert resid <= 1e-8

    def test_fixed_point_is_stationary_for_smoothed_objective(self):
        # iterate solve_W + reweighting to a fixed point, then check the
        # finite-difference gradient of the F-eliminated objective vanishes
        rng = np.random.default_rng(13)
        d, c = 4, 2
        A = rng.standard_normal((d, d + 3))
        R = A @ A.T
        T = rng.standard_normal((d, c))
        hp = Hyperparams(alpha=0.7, beta=1.3, gamma=0.9, delta=1e-12)
        W = solve_W(R, T, np.ones(d), np.eye(d), hp)
        for _ in range(300):
            W_new = solve_W(R, T, update_Dl_oracle(W, hp.delta),
                            update_Dtilde_oracle(W, hp.delta), hp)
            if np.linalg.norm(W_new - W) <= 1e-14 * (1 + np.linalg.norm(W)):
                W = W_new
                break
            W = W_new

        ab = hp.alpha * hp.beta

        def phi(Wx):
            return (
                ab * (np.trace(Wx.T @ R @ Wx) - 2 * np.trace(Wx.T @ T))
                + hp.alpha * smoothed_l21_oracle(Wx, hp.delta)
                + hp.gamma * smoothed_trace_norm_oracle(Wx, hp.delta)
            )

        g = central_diff_grad(phi, W, h=1e-6)
        g0 = central_diff_grad(phi, np.zeros_like(W), h=1e-6)
        assert np.linalg.norm(g) <= 1e-5 * (1 + np.linalg.norm(g0))


def _joint_operator(R, Dl, Dt, hp, widths):
    """The d sum(c) joint W system assembled entry by entry.

    Column j of the stacked W (task l(j)) satisfies
    (R_l + D_l / beta) w_j + (gamma / (alpha beta)) sum_i Dtilde_ij w_i = T_l[:, j];
    the operator acts on the columns of W stacked into one vector.
    """
    d = R[0].shape[0]
    owner = [l for l, c in enumerate(widths) for _ in range(c)]
    n = d * len(owner)
    big = np.zeros((n, n))
    for j, l in enumerate(owner):
        rows = slice(j * d, (j + 1) * d)
        big[rows, rows] += R[l] + np.diag(Dl[l] / hp.beta)
        for i in range(len(owner)):
            big[rows, i * d:(i + 1) * d] += (
                hp.gamma / (hp.alpha * hp.beta) * Dt[i, j] * np.eye(d)
            )
    return big


def _joint_instances():
    """Random joint W systems: (hp, R, T, Dl, Dtilde, W0, big, rhs).

    big is _joint_operator's assembly of the system and rhs the stacked T.
    Five draws have alpha, beta and gamma within a decade of 1; the last is
    strongly coupled (alpha = beta = 1, gamma = 100).
    """
    rng = np.random.default_rng(15)
    d, widths = 7, (2, 3)
    for i in range(6):
        hp = Hyperparams(alpha=10.0 ** rng.uniform(-1, 1),
                         beta=10.0 ** rng.uniform(-1, 1),
                         gamma=10.0 ** rng.uniform(-1, 1))
        if i == 5:
            hp = Hyperparams(alpha=1.0, beta=1.0, gamma=100.0)
        R, T, Dl = [], [], []
        for c in widths:
            A = rng.standard_normal((d, d + 2))
            R.append(A @ A.T)
            T.append(rng.standard_normal((d, c)))
            Dl.append(update_Dl_oracle(rng.standard_normal((d, c)), hp.delta))
        W_now = rng.standard_normal((d, sum(widths)))
        Dt = update_Dtilde_oracle(W_now.T, hp.delta)
        big = _joint_operator(R, Dl, Dt, hp, widths)
        W0 = rng.standard_normal((d, sum(widths)))
        yield hp, R, T, Dl, Dt, W0, big, np.hstack(T).T.ravel()


def _split_rule(R, T, Dt, hp):
    """The preconditioner split solve_W_coupled should take, from its stated rule."""
    d = R[0].shape[0]
    widths = [T_l.shape[1] for T_l in T]
    owner = np.repeat(np.arange(len(widths)), widths)
    off_task = np.where(owner[:, None] != owner[None, :], Dt, 0.0)
    task_drop = hp.gamma / (hp.alpha * hp.beta) * np.sqrt(d * (off_task ** 2).sum())
    row_drop = np.sqrt(sum(c * ((R_l - np.diag(np.diag(R_l))) ** 2).sum()
                           for c, R_l in zip(widths, R)))
    return "row" if row_drop < task_drop else "task"


class TestSolveWCoupled:
    def test_matches_dense_joint_system(self):
        splits = []
        for hp, R, T, Dl, Dt, W0, big, rhs in _joint_instances():
            d = R[0].shape[0]
            expected = np.linalg.solve(big, rhs).reshape(-1, d).T
            W, _, split = solve_W_coupled(JointSystem(R, T), Dl, Dt, hp, W0)
            assert split == _split_rule(R, T, Dt, hp)
            splits.append(split)
            np.testing.assert_allclose(W, expected, rtol=0,
                                       atol=1e-8 * np.abs(expected).max())
        assert splits == ["task"] * 5 + ["row"]

    def test_one_system_serves_every_step(self):
        # fit builds one JointSystem and reuses it at every step, with new
        # D_l and Dtilde each time: no call may change it, so W, the CG
        # iteration count and the split match a system built fresh per call
        rng = np.random.default_rng(19)
        for hp, R, T, Dl, Dt, W0, big, rhs in _joint_instances():
            d, widths = R[0].shape[0], [T_l.shape[1] for T_l in T]
            system = JointSystem(R, T)
            weights = [(Dl, Dt), ([update_Dl_oracle(rng.standard_normal((d, c)), hp.delta)
                                   for c in widths],
                                  update_Dtilde_oracle(rng.standard_normal((d, sum(widths))).T,
                                                hp.delta))]
            for D_l, D_t in weights:
                W, iterations, split = solve_W_coupled(system, D_l, D_t, hp, W0, rtol=1e-2)
                W_fresh, it_fresh, split_fresh = solve_W_coupled(
                    JointSystem(R, T), D_l, D_t, hp, W0, rtol=1e-2)
                assert (iterations, split) == (it_fresh, split_fresh)
                np.testing.assert_array_equal(W, W_fresh)

    def test_row_split_inverts_operator_with_diagonal_r(self):
        # the row split's preconditioner is the inverse of the joint operator
        # with each R_l cut to its diagonal, which leaves one sum(c) x sum(c)
        # block per feature row
        rng = np.random.default_rng(17)
        for hp, R, T, Dl, Dt, W0, big, rhs in _joint_instances():
            d, widths = R[0].shape[0], [T_l.shape[1] for T_l in T]
            diag_R = [np.diag(np.diag(R_l)) for R_l in R]
            expected_op = _joint_operator(diag_R, Dl, Dt, hp, widths)
            precond = _row_split(JointSystem(R, T), [D_l / hp.beta for D_l in Dl], Dt,
                                 hp.gamma / (hp.alpha * hp.beta))
            Res = rng.standard_normal((d, sum(widths)))
            expected = np.linalg.solve(expected_op, Res.T.ravel()).reshape(-1, d).T
            np.testing.assert_allclose(precond(Res), expected, rtol=1e-10,
                                       atol=1e-12 * np.abs(expected).max())

    def test_row_split_factorization_failure(self):
        # a negative diagonal of R leaves the row blocks indefinite; R is
        # diagonal, so the row split drops nothing and is the one taken
        hp = Hyperparams(gamma=10.0)
        d, widths = 6, (2, 2)
        rng = np.random.default_rng(18)
        R = [-1e3 * np.eye(d) for _ in widths]
        T = [rng.standard_normal((d, c)) for c in widths]
        Dl = [np.ones(d) for _ in widths]
        Dt = update_Dtilde_oracle(rng.standard_normal((d, sum(widths))).T, hp.delta)
        assert _split_rule(R, T, Dt, hp) == "row"
        with pytest.raises(NumericalError, match="preconditioner factorization"):
            solve_W_coupled(JointSystem(R, T), Dl, Dt, hp,
                            np.zeros((d, sum(widths))))

    def test_preconditioner_applied_once_per_iteration(self, monkeypatch):
        # each CG iteration applies the preconditioner once, to the residual
        # it steps from; a residual that meets the stop is never
        # preconditioned.  Counted by wrapping each split's solve
        applied = []

        def counting(make_split):
            def wrapper(*args):
                solve = make_split(*args)

                def counted(Res):
                    applied[-1] += 1
                    return solve(Res)

                return counted

            return wrapper

        monkeypatch.setattr(solver, "_task_split", counting(solver._task_split))
        monkeypatch.setattr(solver, "_row_split", counting(solver._row_split))
        splits = set()
        for hp, R, T, Dl, Dt, W0, big, rhs in _joint_instances():
            d = R[0].shape[0]
            exact = np.linalg.solve(big, rhs).reshape(-1, d).T
            for start in (W0, exact):
                for rtol in (0.0, 1e-2):
                    applied.append(0)
                    _, iterations, split = solve_W_coupled(JointSystem(R, T), Dl, Dt, hp,
                                                           start, rtol=rtol)
                    assert applied[-1] == iterations
                    splits.add(split)
        assert splits == {"task", "row"}
        assert 0 in applied and max(applied) > 1

    def test_forcing_term_contract(self):
        # a relative stop: the residual falls by the factor rtol from the one
        # at W0, or to the absolute floor; and every CG iterate from W0
        # lowers the majorizer 1/2 w'Mw - w't, whatever rtol is.  The second
        # start lies near the solution, where a stop measured against ||T||
        # would return W0 without a step
        rng = np.random.default_rng(16)

        def resid(W):
            return np.linalg.norm(rhs - big @ W.T.ravel())

        def majorizer(W):
            w = W.T.ravel()
            return 0.5 * w @ big @ w - w @ rhs

        for hp, R, T, Dl, Dt, W0, big, rhs in _joint_instances():
            d = R[0].shape[0]
            exact = np.linalg.solve(big, rhs).reshape(-1, d).T
            near = exact + 1e-4 * np.abs(exact).max() * rng.standard_normal(exact.shape)
            for start in (W0, near):
                for rtol in (1e-1, 1e-2, 1e-4):
                    W, _, _ = solve_W_coupled(JointSystem(R, T), Dl, Dt, hp, start,
                                              rtol=rtol)
                    assert resid(W) <= max(CG_RTOL * np.linalg.norm(rhs),
                                           rtol * resid(start))
                    assert majorizer(W) < majorizer(start)


def _eliminated(task, hp):
    """(lap, U, reduced objective + const at W, fit's bias at W) for one task."""
    lap = build_task_laplacian(task.X, hp.k, hp.lam)
    U = selection_diag_oracle(task.labeled_mask, solver.LABEL_WEIGHT)
    R, T, const, g, h = precompute_task(task, lap, hp)

    def value(W):
        return reduced_objective(W, JointSystem([R], [T]), hp).value + const

    return lap, U, value, lambda W: W.T @ g + h


class TestSolveF:
    # fit eliminates F: Score.value + const is the minimum over F and b of the
    # full objective, attained at the closed-form F and b = W'g + h
    def test_perturbation_never_decreases_quadratic(self):
        rng = np.random.default_rng(17)
        task = make_task(rng, 4, 7, 2)
        hp = Hyperparams(k=3)
        lap, U, value, bias = _eliminated(task, hp)
        W = rng.standard_normal((4, 2))
        F, _ = solve_Fb_oracle(task, lap.L, U, hp, W)
        b = bias(W)
        base = value(W)
        for _ in range(30):
            Fx = F + 1e-3 * rng.standard_normal(F.shape)
            bx = b + 1e-3 * rng.standard_normal(b.shape)
            assert full_objective_oracle([task], [lap.L], [U], hp, [W], [Fx], [bx]) >= base

    def test_residual_matches_oracle(self):
        rng = np.random.default_rng(18)
        task = make_task(rng, 5, 9, 3)
        hp = Hyperparams(alpha=3.0, beta=0.2, k=4)
        lap, U, value, bias = _eliminated(task, hp)
        W = rng.standard_normal((5, 3))
        F, b = solve_Fb_oracle(task, lap.L, U, hp, W)
        full = full_objective_oracle([task], [lap.L], [U], hp, [W], [F], [b])
        assert value(W) == pytest.approx(full, rel=1e-8)
        np.testing.assert_allclose(bias(W), b, atol=1e-8)


class TestSolveB:
    def test_finite_difference_stationarity(self):
        # fit's b = W'g + h at the optimal F is stationary in the fit term
        rng = np.random.default_rng(20)
        task = make_task(rng, 4, 7, 2)
        hp = Hyperparams(k=3)
        lap, U, _, bias = _eliminated(task, hp)
        W = rng.standard_normal((4, 2))
        F, _ = solve_Fb_oracle(task, lap.L, U, hp, W)
        b = bias(W)

        def fit_term(bx):
            r = task.X.T @ W + np.outer(np.ones(7), bx) - F
            return (r**2).sum()

        # the fit term is quadratic in b, so central differences are exact for
        # any step; a larger step just suppresses cancellation noise
        g = central_diff_grad(fit_term, b, h=1e-4)
        assert np.abs(g).max() <= 1e-8


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Hyperparams(alpha=0.0)
        with pytest.raises(ValidationError):
            Hyperparams(gamma=-1.0)
        with pytest.raises(ValidationError):
            Hyperparams(delta=0.0)
        with pytest.raises(ValidationError):
            Hyperparams(k=1)
        # too long for str, so json.dumps and repr both refuse it
        with pytest.raises(ValidationError, match="k must be a number that fits a float, "
                                                  "got an integer of 5001 digits"):
            Hyperparams(k=10**5000)

    def test_hyperparams_field_types(self):
        # numpy scalars pass as numbers; a bool, or a non-integer in an int
        # field, does not
        hp = Hyperparams(alpha=np.float64(2.0), k=np.int64(4), max_iter=np.int32(7))
        assert (hp.alpha, hp.k, hp.max_iter) == (2.0, 4, 7)
        for kwargs, message in [({"beta": True}, "beta must be a finite number, got true"),
                                ({"k": 4.0}, "k must be an integer, got 4.0"),
                                # numpy scalars' repr varies with numpy's version
                                ({"max_iter": np.float64(3)}, "max_iter must be an integer, got "),
                                ({"k": np.bool_(True)}, "k must be an integer, got "),
                                ({"gamma": "1"}, 'gamma must be a finite number, got "1"')]:
            with pytest.raises(ValidationError, match=re.escape(message)):
                Hyperparams(**kwargs)

    def test_dict_round_trip(self):
        hp = Hyperparams(alpha=2.0, lam=0.5, k=7)
        d = hp.to_dict()
        assert d["lambda"] == 0.5
        assert "lam" not in d
        assert Hyperparams.from_dict(d) == hp
