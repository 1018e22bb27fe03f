import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sfmc.dataset import TaskData, ValidationError
from sfmc.graph import build_task_laplacian
from sfmc.solver import (CG_RTOL, Hyperparams, norm_l21_smoothed,
                         precompute_task, selection_diag, solve_F, solve_W,
                         solve_W_coupled, solve_b, trace_norm_smoothed,
                         update_Dl, update_Dtilde)
from helpers import (central_diff_grad, centering_oracle, make_task,
                     selection_diag_oracle, smoothed_l21_oracle,
                     smoothed_trace_norm_oracle, solve_Fb_oracle)


class TestNorms:
    def test_smoothed_variants_match_oracles(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((5, 3))
        assert norm_l21_smoothed(M, 1e-6) == pytest.approx(
            smoothed_l21_oracle(M, 1e-6), rel=1e-12
        )
        assert trace_norm_smoothed(M, 1e-6) == pytest.approx(
            smoothed_trace_norm_oracle(M, 1e-6), rel=1e-10
        )
        assert trace_norm_smoothed(M.T, 1e-6) == pytest.approx(
            smoothed_trace_norm_oracle(M.T, 1e-6), rel=1e-10
        )

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
        assert abs(trace_norm_smoothed(W, delta)
                   - (core + (d - cols) * np.sqrt(delta))) <= 1e-14
        assert abs(trace_norm_smoothed(W.T, delta) - core) <= 1e-14


class TestSelectionDiag:
    def test_mixed_mask(self):
        u = selection_diag(np.array([True, False]), 1e6)
        np.testing.assert_array_equal(u, [1e6, 1.0])

    def test_all_false_is_identity(self):
        np.testing.assert_array_equal(selection_diag(np.zeros(3, bool), 1e6), np.ones(3))

    def test_all_true(self):
        np.testing.assert_array_equal(
            selection_diag(np.ones(2, bool), 1e6), [1e6, 1e6]
        )

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        mask = rng.random(9) < 0.4
        np.testing.assert_array_equal(
            selection_diag(mask, 123.0), np.diag(selection_diag_oracle(mask, 123.0))
        )


def _task_with_caches(rng, d=5, n=8, c=2, **hp_kwargs):
    task = make_task(rng, d, n, c)
    hp = Hyperparams(k=min(4, n), **hp_kwargs)
    lap = build_task_laplacian(task.X, hp.k, hp.lam)
    U = selection_diag_oracle(task.labeled_mask, hp.inf_surrogate)
    factor, R, T, _ = precompute_task(task, lap, hp)
    return task, lap, U, factor, R, T, centering_oracle(n), hp


class TestPrecomputeTask:
    def test_definitional_residual(self):
        # U = I, L = 0, alpha*beta = 1: the factor must solve (H + I) X = I.
        # make_task always labels c samples, so an unlabeled stand-in gives U = I
        n = 6
        base = make_task(np.random.default_rng(3), 4, n, 2)

        class Unlabeled:
            X = base.X
            Y = base.Y
            n_samples = n
            labeled_mask = np.zeros(n, dtype=bool)

        class ZeroLap:
            L = np.zeros((n, n))

        hp = Hyperparams(alpha=1.0, beta=1.0, k=3)
        factor, _, _, _ = precompute_task(Unlabeled(), ZeroLap(), hp)
        X = scipy.linalg.cho_solve(factor, np.eye(n))
        H = centering_oracle(n)
        np.testing.assert_allclose((H + np.eye(n)) @ X, np.eye(n), atol=1e-12)

    def test_r_symmetric_psd(self):
        rng = np.random.default_rng(4)
        _, _, _, _, R, _, _, _ = _task_with_caches(rng, d=5, n=8)
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

        _, _, T, _ = precompute_task(Zeroed(), lap, hp)
        np.testing.assert_allclose(T, 0.0, atol=1e-15)

    def test_matches_printed_form_at_moderate_scale(self):
        # the cancellation-free R must agree with the literal formula
        rng = np.random.default_rng(6)
        task, lap, U, _, R, T, H, hp = _task_with_caches(rng, d=4, n=9)
        ab = hp.alpha * hp.beta
        P = np.linalg.inv(ab * H + U + lap.L)
        R_literal = task.X @ H @ (np.eye(9) - ab * P) @ H @ task.X.T
        np.testing.assert_allclose(R, R_literal, atol=1e-9)
        T_literal = task.X @ H @ P @ U @ task.Y
        np.testing.assert_allclose(T, T_literal, atol=1e-10)

    def test_factors_in_place(self):
        # U and H act as a vector and a mean subtraction, A is factored in
        # place, and the refinement residual is formed from L, u and a mean
        # subtraction, so A's factor is the one n x n array precompute_task
        # allocates; keeping A beside a factored copy peaks near 2.2 blocks
        n, d = 600, 20
        task = make_task(np.random.default_rng(7), d, n, 3)
        hp = Hyperparams(k=10)
        lap = build_task_laplacian(task.X, hp.k, hp.lam)
        tracemalloc.start()
        try:
            factor, R, T, _ = precompute_task(task, lap, hp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8
        # the literal formulas, with dense H and U and an explicit inverse
        H = centering_oracle(n)
        U = selection_diag_oracle(task.labeled_mask, hp.inf_surrogate)
        ab = hp.alpha * hp.beta
        A = ab * H + U + lap.L
        P = np.linalg.inv(A)
        R_literal = task.X @ H @ (np.eye(n) - ab * P) @ H @ task.X.T
        T_literal = task.X @ H @ P @ U @ task.Y
        np.testing.assert_allclose(R, R_literal, rtol=0,
                                   atol=1e-9 * np.abs(R_literal).max())
        np.testing.assert_allclose(T, T_literal, rtol=0,
                                   atol=1e-9 * np.abs(T_literal).max())
        np.testing.assert_allclose(A @ scipy.linalg.cho_solve(factor, np.eye(n)),
                                   np.eye(n), atol=1e-9)


class TestUpdateDl:
    def test_direct_formula(self):
        W = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = update_Dl(W, 1e-12)
        assert out[0] == pytest.approx(0.1, rel=1e-10)
        assert out[1] == pytest.approx(0.5 / 1e-6, rel=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((5, 3))
        ratio = update_Dl(2 * W, 1e-15) / update_Dl(W, 1e-15)
        np.testing.assert_allclose(ratio, 0.5, rtol=1e-6)

    def test_trace_identity(self):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((6, 2))
        delta = 1e-9
        D = np.diag(update_Dl(W, delta))
        lhs = np.trace(W.T @ D @ W)
        rows = (W**2).sum(axis=1)
        rhs = 0.5 * (rows / np.sqrt(rows + delta)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestUpdateDtilde:
    def test_scaled_identity(self):
        out = update_Dtilde(2 * np.eye(2), 1e-15)
        np.testing.assert_allclose(out, 0.25 * np.eye(2), atol=1e-8)

    def test_zero_matrix_limit(self):
        delta = 1e-12
        out = update_Dtilde(np.zeros((3, 2)), delta)
        np.testing.assert_allclose(out, 0.5 / np.sqrt(delta) * np.eye(3), rtol=1e-9)

    def test_square_root_residual(self):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((4, 6))
        delta = 1e-10
        Dt = update_Dtilde(W, delta)
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
            Dl = update_Dl(rng.standard_normal((d, c)), hp.delta)
            Dt = update_Dtilde(rng.standard_normal((d, c)), hp.delta)
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
            W_new = solve_W(R, T, update_Dl(W, hp.delta),
                            update_Dtilde(W, hp.delta), hp)
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


def _joint_instances():
    """Random joint W systems: (hp, R, T, Dl, Dtilde, W0, big, rhs).

    Column j of the stacked W (task l(j)) satisfies
    (R_l + D_l / beta) w_j + (gamma / (alpha beta)) sum_i Dtilde_ij w_i = T_l[:, j];
    big is that d sum(c) system assembled entry by entry, acting on the
    columns of W stacked into one vector, and rhs the stacked T.
    """
    rng = np.random.default_rng(15)
    d, widths = 7, (2, 3)
    for _ in range(5):
        hp = Hyperparams(alpha=10.0 ** rng.uniform(-1, 1),
                         beta=10.0 ** rng.uniform(-1, 1),
                         gamma=10.0 ** rng.uniform(-1, 1))
        R, T, Dl = [], [], []
        for c in widths:
            A = rng.standard_normal((d, d + 2))
            R.append(A @ A.T)
            T.append(rng.standard_normal((d, c)))
            Dl.append(update_Dl(rng.standard_normal((d, c)), hp.delta))
        W_now = rng.standard_normal((d, sum(widths)))
        Dt = update_Dtilde(W_now.T, hp.delta)
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
        W0 = np.split(rng.standard_normal((d, sum(widths))), [widths[0]], axis=1)
        yield hp, R, T, Dl, Dt, W0, big, np.hstack(T).T.ravel()


class TestSolveWCoupled:
    def test_matches_dense_joint_system(self):
        for hp, R, T, Dl, Dt, W0, big, rhs in _joint_instances():
            d = R[0].shape[0]
            expected = np.linalg.solve(big, rhs).reshape(-1, d).T
            got = np.hstack(solve_W_coupled(R, T, Dl, Dt, hp, W0))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-8 * np.abs(expected).max())

    def test_forcing_term_contract(self):
        # a relative stop: the residual falls by the factor rtol from the one
        # at W0, or to the absolute floor; and every CG iterate from W0
        # lowers the majorizer 1/2 w'Mw - w't, whatever rtol is.  The second
        # start lies near the solution, where a stop measured against ||T||
        # would return W0 without a step
        rng = np.random.default_rng(16)

        def resid(W):
            return np.linalg.norm(rhs - big @ np.hstack(W).T.ravel())

        def majorizer(W):
            w = np.hstack(W).T.ravel()
            return 0.5 * w @ big @ w - w @ rhs

        for hp, R, T, Dl, Dt, W0, big, rhs in _joint_instances():
            d = R[0].shape[0]
            exact = np.linalg.solve(big, rhs).reshape(-1, d).T
            near = exact + 1e-4 * np.abs(exact).max() * rng.standard_normal(exact.shape)
            for start in (W0, np.split(near, [T[0].shape[1]], axis=1)):
                for rtol in (1e-1, 1e-2, 1e-4):
                    W = solve_W_coupled(R, T, Dl, Dt, hp, start, rtol=rtol)
                    assert resid(W) <= max(CG_RTOL * np.linalg.norm(rhs),
                                           rtol * resid(start))
                    assert majorizer(W) < majorizer(start)


class TestSolveF:
    def test_zero_rhs(self):
        # W = 0, L = 0, U = I, Y = 0: the right-hand side vanishes, so F = 0.
        # TaskData requires a labeled sample, so pass the raw pieces directly.
        rng = np.random.default_rng(15)
        n, d, c = 6, 3, 2

        class Raw:
            X = rng.standard_normal((d, n))
            Y = np.zeros((n, c))
            n_samples = n
            labeled_mask = np.zeros(n, dtype=bool)

        factor = scipy.linalg.cho_factor(centering_oracle(n) + np.eye(n))
        F = solve_F(Raw(), np.zeros((d, c)), Hyperparams(), factor)
        np.testing.assert_allclose(F, 0.0, atol=1e-15)

    def test_labels_dominate_when_all_labeled(self):
        rng = np.random.default_rng(16)
        d, n, c = 3, 8, 2
        task = make_task(rng, d, n, c, label_frac=1.0)
        hp = Hyperparams(alpha=1.0, beta=1.0, k=3)
        L = 1e-3 * build_task_laplacian(task.X, 3, 1.0).L
        U = selection_diag_oracle(task.labeled_mask, hp.inf_surrogate)
        factor = scipy.linalg.cho_factor(centering_oracle(n) + U + L)
        W = rng.standard_normal((d, c))
        F = solve_F(task, W, hp, factor)
        assert np.linalg.norm(F - task.Y) / np.linalg.norm(task.Y) <= 1e-4

    def test_perturbation_never_decreases_quadratic(self):
        rng = np.random.default_rng(17)
        task = make_task(rng, 4, 7, 2)
        hp = Hyperparams(k=3)
        lap = build_task_laplacian(task.X, hp.k, hp.lam)
        U = selection_diag_oracle(task.labeled_mask, hp.inf_surrogate)
        H = centering_oracle(7)
        W = rng.standard_normal((4, 2))
        F = solve_F(task, W, hp, precompute_task(task, lap, hp)[0])

        def quad(Fx):
            E = Fx - task.Y
            r = H @ (task.X.T @ W) - H @ Fx
            return (
                np.trace(E.T @ U @ E) + np.trace(Fx.T @ lap.L @ Fx)
                + hp.alpha * hp.beta * (r**2).sum()
            )

        base = quad(F)
        for _ in range(30):
            assert quad(F + 1e-3 * rng.standard_normal(F.shape)) >= base

    def test_residual_matches_oracle(self):
        rng = np.random.default_rng(18)
        task = make_task(rng, 5, 9, 3)
        hp = Hyperparams(alpha=3.0, beta=0.2, k=4)
        lap = build_task_laplacian(task.X, hp.k, hp.lam)
        U = selection_diag_oracle(task.labeled_mask, hp.inf_surrogate)
        W = rng.standard_normal((5, 3))
        F = solve_F(task, W, hp, precompute_task(task, lap, hp)[0])
        F_oracle, _ = solve_Fb_oracle(task, lap.L, U, hp, W)
        np.testing.assert_allclose(F, F_oracle, atol=1e-8)


class TestSolveB:
    def test_zero_residual(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((3, 6))
        W = rng.standard_normal((3, 2))
        b = solve_b(X.T @ W, X, W)
        np.testing.assert_allclose(b, 0.0, atol=1e-12)

    def test_mean_of_identical_rows(self):
        v = np.array([2.0, -1.0])
        F = np.tile(v, (5, 1))
        b = solve_b(F, np.zeros((3, 5)), np.zeros((3, 2)))
        np.testing.assert_allclose(b, v, atol=1e-14)

    def test_finite_difference_stationarity(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((4, 7))
        W = rng.standard_normal((4, 2))
        F = rng.standard_normal((7, 2))
        b = solve_b(F, X, W)

        def fit_term(bx):
            r = X.T @ W + np.outer(np.ones(7), bx) - F
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

    def test_dict_round_trip(self):
        hp = Hyperparams(alpha=2.0, lam=0.5, k=7)
        d = hp.to_dict()
        assert d["lambda"] == 0.5
        assert "lam" not in d
        assert Hyperparams.from_dict(d) == hp
