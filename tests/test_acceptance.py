"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from sfmc.cli import main
from sfmc.dataset import SynthConfig, generate_synthetic
from sfmc.graph import build_task_laplacian, knn_cliques
from sfmc import solver
from sfmc.select_eval import average_precision, run_experiment
from sfmc.solver import (Hyperparams, JointSystem, fit, precompute_task,
                         reduced_objective, solve_W)
from helpers import (average_precision_oracle, central_diff_grad,
                     dense_laplacian_oracle, full_objective_oracle,
                     lbfgs_minimize, make_dataset, make_random_instance,
                     make_task, reduced_gradient_oracle,
                     reduced_objective_oracle, selection_diag_oracle,
                     smoothed_l21_oracle, smoothed_trace_norm_oracle,
                     solve_Fb_oracle, update_Dl_oracle, update_Dtilde_oracle)

SUITE_SEED = 0
SUITE_SIZE = 100


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): {status}{tail}")


@pytest.fixture(scope="module")
def criterion1_suite():
    """100 seeded random instances fitted at default controls."""
    rng = np.random.default_rng(SUITE_SEED)
    results = []
    t0 = time.perf_counter()
    for _ in range(SUITE_SIZE):
        ds, hp_kwargs = make_random_instance(rng)
        model = fit(ds, Hyperparams(**hp_kwargs))
        results.append(
            (np.array(model.objective_trace), model.iterations, model.converged)
        )
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_1_monotone_decrease(criterion1_suite):
    results, elapsed = criterion1_suite
    violations = 0
    for trace, _, _ in results:
        if not np.all(trace[1:] <= trace[:-1] * (1 + 1e-9)):
            violations += 1
    ok = violations == 0 and elapsed < 60.0
    _report(1, "monotone decrease", ok,
            f"{violations} violating instances of {len(results)}, "
            f"suite ran in {elapsed:.1f}s (budget 60s)")
    assert violations == 0
    assert elapsed < 60.0


def test_2_fast_convergence(criterion1_suite):
    results, _ = criterion1_suite
    converged = sum(1 for _, _, conv in results if conv)
    rate = converged / len(results)
    median_iters = float(np.median([it for _, it, _ in results]))
    ok = rate >= 0.95 and median_iters <= 15
    _report(2, "fast convergence", ok,
            f"{converged}/{len(results)} converged within 50 iterations "
            f"(need >= 95), median {median_iters:g} iterations (need <= 15)")
    assert median_iters <= 15
    assert rate >= 0.95


def test_3_oracle_equivalence():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(10):
        ds = make_dataset(rng, t=2, d=3, n=5, c=2)
        hp = Hyperparams(alpha=1.0, beta=1.0, gamma=0.1, k=3,
                         max_iter=20000, rel_tol=1e-13)
        model = fit(ds, hp)

        laps = [build_task_laplacian(t.X, hp.k, hp.lam) for t in ds.tasks]
        Us = [selection_diag_oracle(t.labeled_mask, solver.LABEL_WEIGHT) for t in ds.tasks]
        caches = [precompute_task(t, lap, hp) for t, lap in zip(ds.tasks, laps)]
        R_list = [c[0] for c in caches]
        T_list = [c[1] for c in caches]
        cols = np.cumsum([t.n_classes for t in ds.tasks])[:-1]

        def f(Wx):
            return reduced_objective_oracle(Wx, R_list, T_list, cols, hp)

        def g(Wx):
            return reduced_gradient_oracle(Wx, R_list, T_list, cols, hp)

        best, best_W = np.inf, None
        for _restart in range(20):
            W_opt, f_opt = lbfgs_minimize(f, g, rng.standard_normal((3, 4)))
            if f_opt < best:
                best, best_W = f_opt, W_opt

        blocks = np.split(best_W, cols, axis=1)
        F_list, b_list = [], []
        for task, lap, U, W in zip(ds.tasks, laps, Us, blocks):
            F, b = solve_Fb_oracle(task, lap.L, U, hp, W)
            F_list.append(F)
            b_list.append(b)
        oracle_obj = full_objective_oracle(
            ds.tasks, [lap.L for lap in laps], Us, hp, blocks, F_list, b_list
        )
        worst = max(worst, model.objective_trace[-1] / oracle_obj)
    ok = worst <= 1.0001
    _report(3, "oracle equivalence", ok,
            f"worst solver/oracle objective ratio {worst:.6f} (need <= 1.0001)")
    assert worst <= 1.0001


def test_4_closed_form_correctness():
    rng = np.random.default_rng(40)
    worst = {"W_resid": 0.0, "W_grad": 0.0, "F_obj": 0.0, "F_grad": 0.0,
             "b_grad": 0.0}

    # solve_W residuals under grid-wide scaling
    grid = [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6]
    for _ in range(50):
        d = int(rng.integers(3, 7))
        c = int(rng.integers(1, 4))
        A = rng.standard_normal((d, d + 2))
        R = A @ A.T
        T = rng.standard_normal((d, c))
        hp_wide = Hyperparams(alpha=float(rng.choice(grid)),
                              beta=float(rng.choice(grid)),
                              gamma=float(rng.choice(grid)))
        Dl = update_Dl_oracle(rng.standard_normal((d, c)), hp_wide.delta)
        Dt = update_Dtilde_oracle(rng.standard_normal((d, c)), hp_wide.delta)
        W = solve_W(R, T, Dl, Dt, hp_wide)
        S = R + np.diag(Dl / hp_wide.beta)
        S = S + hp_wide.gamma / (hp_wide.alpha * hp_wide.beta) * Dt
        resid = np.linalg.norm(S @ W - T) / np.linalg.norm(T)
        worst["W_resid"] = max(worst["W_resid"], resid)

    # solve_W stationarity of the smoothed objective at the reweighted fixed
    # point.  Central differences can only resolve the gradient when the
    # optimum sits away from the delta = 1e-12 smoothing floor (alive rows,
    # full-rank W), so instances whose optima collapse are redrawn.
    accepted = 0
    draws = 0
    while accepted < 50 and draws < 200:
        draws += 1
        d = int(rng.integers(3, 6))
        c = d + 1 + int(rng.integers(0, 2))
        A = rng.standard_normal((d, d + 2))
        R = A @ A.T + 0.5 * np.eye(d)
        T = np.sign(rng.standard_normal((d, c))) * rng.uniform(1.0, 2.0, (d, c))
        hp = Hyperparams(alpha=float(10 ** rng.uniform(-1.7, -1.0)),
                         beta=float(10 ** rng.uniform(-0.3, 0.3)),
                         gamma=float(10 ** rng.uniform(-3.0, -2.0)))
        W = solve_W(R, T, np.ones(d), np.eye(d), hp)
        converged = False
        for _it in range(3000):
            W_new = solve_W(R, T, update_Dl_oracle(W, hp.delta),
                            update_Dtilde_oracle(W, hp.delta), hp)
            if np.linalg.norm(W_new - W) <= 1e-10 * (1 + np.linalg.norm(W)):
                W = W_new
                converged = True
                break
            W = W_new
        min_row = np.sqrt((W * W).sum(axis=1)).min()
        min_sv = np.linalg.svd(W, compute_uv=False).min()
        if not (converged and min_row >= 1e-3 and min_sv >= 1e-3):
            continue
        accepted += 1
        ab = hp.alpha * hp.beta

        def phi(Wx, R=R, T=T, hp=hp, ab=ab):
            return (ab * (np.trace(Wx.T @ R @ Wx) - 2 * np.trace(Wx.T @ T))
                    + hp.alpha * smoothed_l21_oracle(Wx, hp.delta)
                    + hp.gamma * smoothed_trace_norm_oracle(Wx, hp.delta))

        g = central_diff_grad(phi, W, h=1e-6)
        g0 = central_diff_grad(phi, np.zeros_like(W), h=1e-6)
        rel = np.linalg.norm(g) / (1 + np.linalg.norm(g0))
        worst["W_grad"] = max(worst["W_grad"], rel)
    assert accepted == 50

    # F and b eliminated as fit eliminates them: the reduced objective plus
    # the precomputed constant equals the full objective at the oracle's
    # closed-form F and b, which is stationary in F; and the bias fit
    # reports, b = W'g + h, is stationary in the fit term at that F
    for _ in range(50):
        d = int(rng.integers(3, 7))
        n = int(rng.integers(6, 13))
        c = int(rng.integers(2, 4))
        task = make_task(rng, d, n, c)
        hp = Hyperparams(alpha=float(10 ** rng.uniform(-2, 2)),
                         beta=float(10 ** rng.uniform(-2, 2)),
                         k=int(rng.integers(2, min(5, n) + 1)))
        lap = build_task_laplacian(task.X, hp.k, hp.lam)
        U = selection_diag_oracle(task.labeled_mask, solver.LABEL_WEIGHT)
        H = np.eye(n) - np.ones((n, n)) / n
        W = rng.standard_normal((d, c))
        R, T, const, g_b, h_b = precompute_task(task, lap, hp)
        F, b_oracle = solve_Fb_oracle(task, lap.L, U, hp, W)
        full = full_objective_oracle([task], [lap.L], [U], hp, [W], [F], [b_oracle])
        reduced = reduced_objective(W, JointSystem([R], [T]), hp).value + const
        worst["F_obj"] = max(worst["F_obj"], abs(reduced - full) / abs(full))
        ab = hp.alpha * hp.beta

        def quad_F(Fx, task=task, U=U, lap=lap, H=H, W=W, ab=ab):
            E = Fx - task.Y
            r = H @ (task.X.T @ W) - H @ Fx
            return (np.trace(E.T @ U @ E) + np.trace(Fx.T @ lap.L @ Fx)
                    + ab * (r * r).sum())

        g = central_diff_grad(quad_F, F, h=1e-4)
        g0 = central_diff_grad(quad_F, np.zeros_like(F), h=1e-4)
        rel = np.linalg.norm(g) / (1 + np.linalg.norm(g0))
        worst["F_grad"] = max(worst["F_grad"], rel)

        b = W.T @ g_b + h_b

        def fit_term(bx, X=task.X, W=W, F=F, n=n):
            r = X.T @ W + np.outer(np.ones(n), bx) - F
            return (r * r).sum()

        g = central_diff_grad(fit_term, b, h=1e-3)
        worst["b_grad"] = max(worst["b_grad"], np.abs(g).max())

    ok = (worst["W_resid"] <= 1e-8 and worst["F_obj"] <= 1e-8
          and worst["W_grad"] <= 1e-5 and worst["F_grad"] <= 1e-5
          and worst["b_grad"] <= 1e-8)
    _report(4, "closed-form correctness", ok,
            "worst: W resid {W_resid:.2e}, W grad {W_grad:.2e}, "
            "F objective identity {F_obj:.2e}, F grad {F_grad:.2e}, "
            "b grad {b_grad:.2e}".format(**worst))
    assert worst["W_resid"] <= 1e-8
    assert worst["F_obj"] <= 1e-8
    assert worst["W_grad"] <= 1e-5
    assert worst["F_grad"] <= 1e-5
    assert worst["b_grad"] <= 1e-8


def test_5_laplacian_structure():
    rng = np.random.default_rng(50)
    worst_sym = worst_one = worst_oracle = 0.0
    worst_eig = np.inf
    oracle_checked = 0
    for _ in range(100):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(4, 21))
        k = int(rng.integers(2, min(6, n) + 1))
        lam = float(rng.uniform(0.1, 5.0))
        X = rng.standard_normal((d, n))
        L = build_task_laplacian(X, k, lam).L.toarray()
        worst_sym = max(worst_sym, np.abs(L - L.T).max())
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(L).min()))
        worst_one = max(worst_one, np.abs(L @ np.ones(n)).max())
        if n <= 12:
            oracle = dense_laplacian_oracle(X, knn_cliques(X, k), lam)
            worst_oracle = max(worst_oracle, np.abs(L - oracle).max())
            oracle_checked += 1
    ok = (worst_sym <= 1e-10 and worst_eig >= -1e-8 and worst_one <= 1e-10
          and worst_oracle <= 1e-12 and oracle_checked > 0)
    _report(5, "laplacian structure", ok,
            f"worst asymmetry {worst_sym:.1e}, min eigenvalue {worst_eig:.1e}, "
            f"worst L@1 {worst_one:.1e}, oracle gap {worst_oracle:.1e} "
            f"on {oracle_checked} small instances")
    assert worst_sym <= 1e-10
    assert worst_eig >= -1e-8
    assert worst_one <= 1e-10
    assert worst_oracle <= 1e-12


def test_6_trend_reproduction():
    # frozen protocol: planted support d=50 s=8 t=3, training n_l=100 per task
    # (200 generated, half held out), noise calibrated so MAP is unsaturated
    ds = generate_synthetic(
        SynthConfig(d=50, s=8, t=3, n_per_task=200, c=2,
                    signal_strength=1.0, noise_sigma=1.1, seed=0)
    )
    report = run_experiment(
        ds,
        methods=["sfmc", "fisher"],
        fractions=[0.05, 0.25, 1.0],
        feature_counts=[8],
        repeats=5,
        seed=0,
        grid={"alpha": [1.0], "beta": [0.01, 1.0], "gamma": [0.01, 1.0, 100.0]},
        hp_base=Hyperparams(k=15, max_iter=50),
    )
    cells = {(c.method, c.fraction): c for c in report.cells}
    maps = [cells[("sfmc", f)].map_per_repeat for f in (0.05, 0.25, 1.0)]
    monotone_repeats = sum(
        1 for r in range(5)
        if maps[0][r] <= maps[1][r] + 1e-12 and maps[1][r] <= maps[2][r] + 1e-12
    )
    rec_sfmc = cells[("sfmc", 0.05)].recovery_per_repeat
    rec_fisher = cells[("fisher", 0.05)].recovery_per_repeat
    mean_rec = float(np.mean(rec_sfmc))
    beats = sum(1 for r in range(5) if rec_sfmc[r] >= rec_fisher[r])
    chance = 8 / 50
    ok = monotone_repeats >= 4 and mean_rec >= 3 * chance and beats >= 4
    _report(6, "trend reproduction", ok,
            f"MAP monotone in {monotone_repeats}/5 repeats (need >= 4); "
            f"recovery at 5% labels {mean_rec:.3f} (need >= {3 * chance:.2f} "
            f"= 3x chance); beats Fisher in {beats}/5 repeats (need >= 4)")
    assert monotone_repeats >= 4
    assert mean_rec >= 3 * chance
    assert beats >= 4


def test_7_metric_correctness():
    scores = np.array([0.9, 0.5, 0.4, 0.1])
    relevant = np.array([True, False, True, False])
    got = average_precision(scores, relevant)
    oracle = average_precision_oracle(scores.tolist(), relevant.tolist())
    exact_ok = got == oracle and abs(got - 5.0 / 6.0) < 1e-12

    rng = np.random.default_rng(70)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        s = rng.random(n)
        rel = rng.random(n) < 0.4
        if not rel.any():
            rel[int(rng.integers(0, n))] = True
        diff = abs(average_precision(s, rel)
                   - average_precision_oracle(s.tolist(), rel.tolist()))
        worst = max(worst, diff)
    ok = exact_ok and worst <= 1e-12
    _report(7, "metric correctness", ok,
            f"worked example {got:.10f} (exact match {exact_ok}), "
            f"worst oracle gap {worst:.2e} over 1000 rankings")
    assert exact_ok
    assert worst <= 1e-12


def test_8_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--features", "10",
                 "--support", "3", "--tasks", "2", "--samples", "24",
                 "--seed", "11"]) == 0
    manifest = str(data / "manifest.json")

    fit_args = ["fit", manifest, "--k", "5", "--max-iter", "20"]
    assert main(fit_args + ["--out", str(tmp_path / "m1.json")]) == 0
    assert main(fit_args + ["--out", str(tmp_path / "m2.json")]) == 0
    fit_ok = (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    eval_args = ["eval", manifest, "--methods", "sfmc", "fisher",
                 "--fractions", "0.3", "1.0", "--counts", "3", "--repeats", "2",
                 "--k", "5", "--max-iter", "8", "--seed", "4"]
    assert main(eval_args + ["--out", str(tmp_path / "r1.json")]) == 0
    assert main(eval_args + ["--out", str(tmp_path / "r2.json")]) == 0
    eval_ok = (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    ok = fit_ok and eval_ok
    _report(8, "determinism", ok,
            f"cmd_fit byte-identical {fit_ok}, cmd_eval byte-identical {eval_ok}")
    assert fit_ok
    assert eval_ok
