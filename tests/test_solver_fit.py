import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sfmc.dataset import (MultiTaskDataset, SynthConfig, TaskData, ValidationError,
                          apply_label_fraction, generate_synthetic, load_manifest,
                          write_manifest)
from sfmc import graph, solver
from sfmc.graph import build_task_laplacian
from sfmc.select_eval import rank_features
from sfmc.solver import (Anderson, Hyperparams, JointSystem, build_graphs, fit,
                         load_selection_model, precompute_task, prepare,
                         reduced_objective, reweight, reweighted_step, solve_W)
from helpers import (LEGACY_MODEL, analytic_full_gradient, central_diff_grad,
                     descent_minimize, full_objective_oracle, lbfgs_minimize,
                     make_dataset, make_random_instance, make_task, reduced_gradient_oracle,
                     reduced_objective_oracle, selection_diag_oracle,
                     solve_Fb_oracle, update_Dl_oracle, update_Dtilde_oracle)


class TestFitBasics:
    def test_monotone_trace_and_flags(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng, t=2, d=10, n=15, c=2)
        model = fit(ds, Hyperparams(k=5))
        tr = np.array(model.objective_trace)
        assert np.all(np.diff(tr) <= 1e-9 * np.abs(tr[:-1]))
        assert model.iterations >= 1
        assert model.iterations == len(model.objective_trace) - 1
        assert len(model.feature_scores) == 2
        for W, scores in zip(model.W, model.feature_scores):
            np.testing.assert_allclose(scores, np.sqrt((W**2).sum(axis=1)))

    def test_monotone_across_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            ds, hp_kwargs = make_random_instance(rng)
            model = fit(ds, Hyperparams(**hp_kwargs))
            tr = np.array(model.objective_trace)
            assert np.all(np.diff(tr) <= 1e-9 * np.abs(tr[:-1]))

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("lam", [1e-6, 1e-9, 1e-12])
    def test_tiny_lambda_with_fewer_features_than_clique(self, lam, d):
        # d < k with a tiny lambda leaves each k x k clique Gram matrix X_c'X_c
        # + lam I near singular, and L's entries grow like 1/lam.  These fits
        # converge, with finite, non-increasing traces; a numerical path that
        # cannot serve them must fail with an input or numerical error (exit
        # 1 or 2), never return NaNs
        ds = apply_label_fraction(
            generate_synthetic(SynthConfig(d=d, s=2, n_per_task=40, t=2, seed=1)),
            0.25, 0)
        hp = Hyperparams(lam=lam, k=10)
        try:
            model = fit(ds, hp)
        except (ValidationError, solver.NumericalError):
            return
        tr = np.array(model.objective_trace)
        assert model.converged and model.iterations <= hp.max_iter
        assert np.all(np.isfinite(tr))
        assert np.all(np.diff(tr) <= 1e-9 * np.abs(tr[:-1]))
        assert all(np.all(np.isfinite(W)) for W in model.W + model.b)

    def test_requires_labeled_samples_and_valid_k(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng, t=1, d=4, n=6, c=2)
        with pytest.raises(ValidationError, match="exceeds"):
            fit(ds, Hyperparams(k=7))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        ds = make_dataset(rng, t=2, d=6, n=10, c=2)
        m1 = fit(ds, Hyperparams(k=4))
        m2 = fit(ds, Hyperparams(k=4))
        for a, b in zip(m1.W, m2.W):
            np.testing.assert_array_equal(a, b)
        assert m1.objective_trace == m2.objective_trace

    @pytest.mark.parametrize("seed", range(10))
    def test_independent_of_memory_layout(self, seed, tmp_path):
        # load_manifest reads a Fortran-ordered X, make_task builds a C-ordered
        # one; BLAS products and mean reductions round differently on the two
        hp = Hyperparams(k=4)
        ds = make_dataset(np.random.default_rng(seed), t=2, d=6, n=12, c=2)
        expected = json.dumps(fit(ds, hp).to_json_dict())
        for order in "CF":
            copy = MultiTaskDataset(tasks=tuple(
                replace(t, X=np.array(t.X, order=order)) for t in ds.tasks))
            assert json.dumps(fit(copy, hp).to_json_dict()) == expected
        back = load_manifest(write_manifest(ds, tmp_path))
        assert json.dumps(fit(back, hp).to_json_dict()) == expected

    @pytest.mark.parametrize("gamma, d, c, alpha, beta", [
        pytest.param(gamma, d, c, alpha, beta, id=f"{gamma}-{d}-{c}{suffix}")
        for alpha, beta, suffix in [(0.8, 1.5, ""), (1e-6, 1.0, "-ab1e-6"),
                                    (1.0, 1e6, "-ab1e6")]
        for gamma, d, c in [(0.0, 6, 2), (0.5, 5, 3), (0.5, 8, 2)]])
    def test_trace_is_full_objective_at_every_iterate(self, monkeypatch, gamma, d, c,
                                                       alpha, beta):
        # the loop scores W in d-space; every entry must equal the full
        # objective at that W with F and b at their closed-form optimum.  The
        # cases: no coupling, the d x d coupling (d <= sum(c)) and the
        # sum(c) x sum(c) joint W step (d > sum(c)), each at alpha beta = 1.2,
        # 1e-6 and 1e6, where the final b checks the bias caches' scaling.  A
        # moderate label weight keeps the dense oracles well conditioned
        monkeypatch.setattr(solver, "LABEL_WEIGHT", 1e3)
        rng = np.random.default_rng(31)
        ds = make_dataset(rng, t=2, d=d, n=12, c=c)
        hp = Hyperparams(alpha=alpha, beta=beta, gamma=gamma, k=4, max_iter=15)
        iterates = []

        def record(r, state):
            iterates.append([W.copy() for W in state.W])

        model = fit(ds, hp, callback=record)
        assert len(iterates) == len(model.objective_trace) == model.iterations + 1
        Ls = [build_task_laplacian(t.X, hp.k, hp.lam).L for t in ds.tasks]
        Us = [selection_diag_oracle(t.labeled_mask, 1e3) for t in ds.tasks]
        for W, obj in zip(iterates, model.objective_trace):
            Fb = [solve_Fb_oracle(t, L, U, hp, W_l)
                  for t, L, U, W_l in zip(ds.tasks, Ls, Us, W)]
            expected = full_objective_oracle(ds.tasks, Ls, Us, hp, W,
                                             [F for F, _ in Fb], [b for _, b in Fb])
            assert obj == pytest.approx(expected, rel=1e-10)
        for l, (t, L, U) in enumerate(zip(ds.tasks, Ls, Us)):
            np.testing.assert_array_equal(model.W[l], iterates[-1][l])
            _, b = solve_Fb_oracle(t, L, U, hp, model.W[l])
            np.testing.assert_allclose(model.b[l], b, rtol=1e-10, atol=1e-12)

    def test_cg_forcing_follows_progress(self, monkeypatch):
        # d > sum(c) and gamma > 0, so every step is one joint CG solve; its
        # forcing term is the cap at r = 1 and then the last relative
        # objective change, capped
        ds = make_dataset(np.random.default_rng(1), t=2, d=10, n=15, c=2)
        hp = Hyperparams(k=5)
        expected = fit(ds, hp)
        seen = []
        inner = solver.solve_W_coupled

        def recording(system, Dl, Dtilde, hp, W0, rtol=0.0):
            seen.append(rtol)
            return inner(system, Dl, Dtilde, hp, W0, rtol)

        monkeypatch.setattr(solver, "solve_W_coupled", recording)
        model = fit(ds, hp)
        tr = model.objective_trace
        assert model.iterations >= 3 and len(seen) == model.iterations
        assert seen[0] == solver.CG_FORCING_CAP
        for r in range(2, model.iterations + 1):
            change = abs(tr[r - 2] - tr[r - 1]) / abs(tr[r - 2])
            assert seen[r - 1] == min(solver.CG_FORCING_CAP, change)
        assert min(seen) < solver.CG_FORCING_CAP
        assert model.to_json_dict() == expected.to_json_dict()

    def test_callback_sees_cg_work(self):
        # t=3, d > sum(c), alpha = beta = 1, gamma = 100: the cross-task
        # coupling dominates the joint operator, so the row split is taken
        # and CG needs few iterations per joint solve (the task split alone
        # averages 4.86 on this instance)
        ds = make_dataset(np.random.default_rng(0), t=3, d=20, n=25, c=2)
        seen = []
        fit(ds, Hyperparams(alpha=1.0, beta=1.0, gamma=100.0, k=5),
            callback=lambda r, s: seen.append((s.cg_iterations, s.cg_split)))
        assert seen[0] == (0, None)
        assert all(it >= 1 and split in ("task", "row") for it, split in seen[1:])
        assert "row" in {split for _, split in seen[1:]}
        assert np.mean([it for it, _ in seen[1:]]) <= 2.5
        # d <= sum(c): the tasks solve directly, with no CG
        seen.clear()
        fit(make_dataset(np.random.default_rng(0), t=3, d=5, n=25, c=2),
            Hyperparams(k=5), callback=lambda r, s: seen.append((s.cg_iterations,
                                                                 s.cg_split)))
        assert len(seen) > 1 and set(seen) == {(0, None)}

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_each_iterate_scored_once(self, monkeypatch, gamma):
        # Anderson hands fit the Score of the point it takes, and the next
        # step's weights come from it, so no point is passed to
        # reduced_objective twice.  Scored points are stacked column groups:
        # every task at once, or one task at a time when gamma is 0
        ds = make_dataset(np.random.default_rng(2), t=2, d=10, n=15, c=2)
        hp = Hyperparams(gamma=gamma, k=5)
        expected = fit(ds, hp)
        scored = []
        inner = solver.reduced_objective

        def recording(W, system, hp):
            assert W.shape == (10, 2 * len(system.R))
            scored.append((len(system.R), W.tobytes()))
            return inner(W, system, hp)

        monkeypatch.setattr(solver, "reduced_objective", recording)
        model = fit(ds, hp)
        assert model.iterations >= 3
        assert len(set(scored)) == len(scored)
        assert {n for n, _ in scored} == ({2} if gamma else {1})
        assert model.to_json_dict() == expected.to_json_dict()

    @pytest.mark.parametrize("gamma, d, c", [(0.5, 8, 2), (0.5, 3, 2), (0.0, 6, 2)],
                             ids=["d>sum(c)", "d<=sum(c)", "gamma0"])
    def test_weights_are_those_of_the_iterate_taken(self, gamma, d, c):
        # each step's D_l and Dtilde come from the Score of the iterate the
        # last step took; they match the eigh-based oracles at that
        # iterate: the sum(c) x sum(c) column form when d > sum(c), else the
        # d x d row form, and no Dtilde at gamma 0
        ds = make_dataset(np.random.default_rng(12), t=2, d=d, n=12, c=c)
        hp = Hyperparams(gamma=gamma, k=4, max_iter=12, rel_tol=0.0)
        seen = []

        def record(r, state):
            Dt = None if state.Dtilde is None else state.Dtilde.copy()
            seen.append(([W.copy() for W in state.W], np.array(state.Dl), Dt))

        fit(ds, hp, callback=record)
        assert len(seen) == hp.max_iter + 1
        for (W, _, _), (_, Dl, Dt) in zip(seen, seen[1:]):
            for W_l, D_l in zip(W, Dl):
                expected = update_Dl_oracle(W_l, hp.delta)
                assert np.linalg.norm(D_l - expected) <= 1e-12 * np.linalg.norm(expected)
            if gamma == 0:
                assert Dt is None
                continue
            stacked = np.hstack(W)
            expected = update_Dtilde_oracle(stacked.T if d > 2 * c else stacked,
                                            hp.delta)
            assert Dt.shape == expected.shape == ((2 * c,) * 2 if d > 2 * c else (d, d))
            assert np.linalg.norm(Dt - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_svd_failure_is_numerical_error(self, monkeypatch):
        # LAPACK reports an SVD that does not converge by a positive info
        inner = solver.dgesdd

        def fails(*args, **kwargs):
            return inner(*args, **kwargs)[:3] + (1,)

        monkeypatch.setattr(solver, "dgesdd", fails)
        ds = make_dataset(np.random.default_rng(2), t=2, d=6, n=12, c=2)
        with pytest.raises(solver.NumericalError, match="singular value decomposition"):
            fit(ds, Hyperparams(k=4))

    @pytest.mark.parametrize("d", [8, 3])
    def test_no_gram_eigh_after_initial_solve(self, monkeypatch, d):
        # the loop reweights from its scorer's SVD: after iteration 0 the
        # only eigendecompositions are the task split's, of Dtilde's
        # c_l x c_l diagonal blocks, never of a Gram matrix of W
        shapes = []
        inner = np.linalg.eigh

        def recording(M, *args, **kwargs):
            if shapes and shapes[0] == "loop":
                shapes.append(M.shape)
            return inner(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        ds = make_dataset(np.random.default_rng(2), t=3, d=d, n=15, c=2)
        model = fit(ds, Hyperparams(k=5, max_iter=8),
                    callback=lambda r, s: shapes.append("loop") if r == 0 else None)
        assert model.iterations >= 3 and shapes[0] == "loop"
        assert set(shapes[1:]) <= {(2, 2)}
        if d > 6:
            assert len(shapes) > 1

    def test_supplied_graphs_match_built_ones(self):
        rng = np.random.default_rng(8)
        ds = make_dataset(rng, t=2, d=6, n=12, c=2)
        hp = Hyperparams(k=4, max_iter=10)
        shared = fit(ds, hp, prepared=prepare(ds, hp, graphs=build_graphs(ds, hp)))
        assert shared.to_json_dict() == fit(ds, hp).to_json_dict()

    def test_one_laplacian_alive_without_graphs(self):
        # each task's L is built in its own precompute call and dropped after
        # it, so the fit holds one task's graph, not all t; with L sparse and
        # A packed, the fit peaks near 1.2 n x n arrays, in the graph build's
        # fixed-size row blocks
        n = 600
        ds = make_dataset(np.random.default_rng(0), t=3, d=10, n=n, c=2)
        hp = Hyperparams(k=10, max_iter=5)
        tracemalloc.start()
        try:
            model = fit(ds, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * n * n * 8
        shared = fit(ds, hp, prepared=prepare(ds, hp, graphs=build_graphs(ds, hp)))
        assert model.to_json_dict() == shared.to_json_dict()

    def test_prepare_holds_one_n_by_n_array(self, monkeypatch):
        # the graph build holds no n x n array, A lives only in the
        # precompute, packed into n (n + 1) / 2 entries, and L is sparse, so
        # prepare peaks at half of one n x n array plus the k-NN scan's row
        # blocks and O(n (d + c) + n k^2); a dense A, factored in place, reads
        # 0.83 n x n arrays beyond that slack, and a dense L held beside it
        # more than two
        monkeypatch.setattr(graph, "KNN_BLOCK_BYTES", 1 << 16)
        n, d, c, k = 800, 20, 3, 10
        task = make_task(np.random.default_rng(1), d, n, c, label_frac=0.2)
        ds = MultiTaskDataset(tasks=(task,))
        hp = Hyperparams(k=k)
        tracemalloc.start()
        try:
            prepare(ds, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = 4 * graph.KNN_BLOCK_BYTES + 3 * 8 * n * (d + c + k * k)
        assert peak < 5 * n * n + slack
        # a graph holds O(nnz) bytes, and a clique adds at most k^2 entries
        L = build_task_laplacian(task.X, k, hp.lam).L
        assert L.nnz <= n * k * k
        assert (L.data.nbytes + L.indices.nbytes + L.indptr.nbytes
                <= 16 * L.nnz + 8 * (n + 1))

    def test_rejects_mismatched_graphs(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng, t=2, d=6, n=12, c=2)
        hp = Hyperparams(k=4)
        graphs = build_graphs(ds, hp)
        for bad in (replace(hp, k=5), replace(hp, lam=2.0)):
            with pytest.raises(ValidationError, match="not built from this task's X"):
                prepare(ds, bad, graphs=graphs)
        small = make_dataset(rng, t=2, d=6, n=10, c=2)
        with pytest.raises(ValidationError, match="not built from this task's X"):
            prepare(small, hp, graphs=graphs)
        with pytest.raises(ValidationError, match="1 graphs for 2 tasks"):
            prepare(ds, hp, graphs=graphs[:1])
        # same sample counts, k and lam, but other features
        other = make_dataset(rng, t=2, d=6, n=12, c=2)
        with pytest.raises(ValidationError, match="not built from this task's X"):
            prepare(other, hp, graphs=graphs)

    def test_prepared_caches_shared_across_gamma(self):
        # the caches depend on alpha and beta only through their product, so
        # one prepared set serves every gamma and both (alpha, beta) pairs
        # with product 1; each fit equals a plain fit bit for bit, on the
        # joint (d > sum(c)) path and the direct one
        rng = np.random.default_rng(8)
        for d in (10, 3):
            ds = make_dataset(rng, t=2, d=d, n=15, c=2)
            hp = Hyperparams(k=4, max_iter=10)
            prepared = prepare(ds, hp)
            for alpha, beta in ((1.0, 1.0), (100.0, 0.01)):
                for gamma in (0.0, 0.01, 1.0, 100.0):
                    cell = replace(hp, alpha=alpha, beta=beta, gamma=gamma)
                    assert (fit(ds, cell, prepared=prepared).to_json_dict()
                            == fit(ds, cell).to_json_dict())

    def test_rejects_mismatched_prepared(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng, t=2, d=6, n=12, c=2, label_frac=1.0)
        hp = Hyperparams(k=4)
        prepared = prepare(ds, hp)
        for bad in (replace(hp, alpha=2.0), replace(hp, beta=0.5), replace(hp, k=5),
                    replace(hp, lam=2.0)):
            with pytest.raises(ValidationError, match="caches prepared for another"):
                fit(ds, bad, prepared=prepared)
        small = make_dataset(rng, t=2, d=6, n=10, c=2)
        for other in (apply_label_fraction(ds, 0.5, 0), small,
                      MultiTaskDataset(tasks=ds.tasks[:1])):
            with pytest.raises(ValidationError, match="caches prepared for another"):
                fit(other, hp, prepared=prepared)
        # same masks and sample counts, but other features
        other = make_dataset(rng, t=2, d=6, n=12, c=2, label_frac=1.0)
        assert all(np.array_equal(a.labeled_mask, b.labeled_mask)
                   for a, b in zip(ds.tasks, other.tasks))
        with pytest.raises(ValidationError, match="caches prepared for another"):
            fit(other, hp, prepared=prepared)

    def test_prepared_caches_read_only(self):
        # fits at other gammas share the caches, so none can be written
        ds = make_dataset(np.random.default_rng(9), t=2, d=6, n=12, c=2)
        prepared = prepare(ds, Hyperparams(k=4))
        arrays = (prepared.system.R + prepared.system.T
                  + list(prepared.g) + list(prepared.h))
        assert len(arrays) == 4 * ds.n_tasks
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_single_class_task(self):
        rng = np.random.default_rng(13)
        n = 10
        task = TaskData(name="one", X=rng.standard_normal((4, n)), Y=np.ones((n, 1)))
        model = fit(MultiTaskDataset(tasks=(task,)), Hyperparams(k=4, gamma=0.5))
        tr = np.array(model.objective_trace)
        assert np.all(np.diff(tr) <= 1e-9 * np.abs(tr[:-1]))
        assert model.W[0].shape == (4, 1)

    def test_caches_stay_symmetric_through_iterations(self):
        rng = np.random.default_rng(42)
        ds = make_dataset(rng, t=2, d=5, n=11, c=2)
        hp = Hyperparams(k=4, max_iter=15)
        prepared = prepare(ds, hp)
        worst = []

        def check(r, state):
            m = 0.0
            for M in list(prepared.system.R) + [state.Dtilde]:
                m = max(m, float(np.abs(M - M.T).max()))
            worst.append(m)

        fit(ds, hp, callback=check, prepared=prepared)
        assert max(worst) <= 1e-10


class TestGammaZeroDecoupling:
    def test_matches_manual_loop_without_coupling(self, monkeypatch):
        # gamma = 0 must reproduce a reweighting loop that never builds the
        # shared coupling matrix at all: taking the SVD it is made from
        # raises here, and the reference loop takes fit's public steps,
        # which return no coupling
        def no_coupling(*args, **kwargs):
            raise AssertionError("the gamma = 0 path built the coupling matrix")

        monkeypatch.setattr(solver, "dgesdd", no_coupling)
        rng = np.random.default_rng(4)
        ds = make_dataset(rng, t=1, d=5, n=9, c=2)
        hp = Hyperparams(gamma=0.0, k=4, max_iter=20, rel_tol=0.0)
        history = []
        model = fit(ds, hp, callback=lambda r, s: history.append(s.W[0].copy()))
        assert len(history) == hp.max_iter + 1

        task = ds.tasks[0]
        lap = build_task_laplacian(task.X, hp.k, hp.lam)
        R, T, *_ = precompute_task(task, lap, hp)
        W = solve_W(R, T, np.ones(5), None, hp)
        np.testing.assert_allclose(history[0], W, atol=1e-10)
        system = JointSystem([R], [T])
        score = reduced_objective(W, system, hp)
        assert score.sv is None and score.basis is None
        accel = Anderson()
        for r in range(1, hp.max_iter + 1):
            Dl, coupling = reweight([score])
            assert coupling is None
            plain, cg_iterations, split = reweighted_step(W, Dl, coupling, system, hp)
            assert cg_iterations == 0 and split is None
            W, score = accel.step(W, plain, lambda V: reduced_objective(V, system, hp))
            np.testing.assert_allclose(history[r], W, atol=1e-10)
        np.testing.assert_array_equal(model.W[0], history[-1])

    def test_joint_fit_equals_separate_single_task_fits(self):
        rng = np.random.default_rng(5)
        ds = make_dataset(rng, t=2, d=5, n=10, c=2)
        hp = Hyperparams(gamma=0.0, k=4, max_iter=25, rel_tol=0.0)
        joint = fit(ds, hp)
        for l, task in enumerate(ds.tasks):
            single = fit(MultiTaskDataset(tasks=(task,)), hp)
            np.testing.assert_allclose(joint.W[l], single.W[0], atol=1e-10)
            np.testing.assert_allclose(joint.b[l], single.b[0], atol=1e-10)


class TestStationarityAtConvergence:
    @pytest.mark.parametrize("seed", range(4))
    def test_rerun_solve_w_barely_moves(self, seed):
        # run to a genuinely tight fixed point, then one more reweighted solve
        # must leave every task's W essentially unchanged
        rng = np.random.default_rng(seed)
        ds = make_dataset(rng, t=2, d=3, n=6, c=2)
        hp = Hyperparams(gamma=0.1, k=3, max_iter=20000, rel_tol=1e-13)
        model = fit(ds, hp)
        assert model.converged
        Dt = update_Dtilde_oracle(np.hstack(model.W), hp.delta)
        for l in range(ds.n_tasks):
            lap = build_task_laplacian(ds.tasks[l].X, hp.k, hp.lam)
            R, T, *_ = precompute_task(ds.tasks[l], lap, hp)
            W_again = solve_W(R, T, update_Dl_oracle(model.W[l], hp.delta), Dt, hp)
            rel = np.linalg.norm(W_again - model.W[l]) / np.linalg.norm(model.W[l])
            assert rel <= 1e-6


class TestPermutationEquivariance:
    def test_w_invariant_f_b_follow(self):
        rng = np.random.default_rng(7)
        ds = make_dataset(rng, t=2, d=5, n=12, c=2)
        perm = rng.permutation(12)
        task0 = ds.tasks[0]
        permuted = TaskData(name=task0.name, X=task0.X[:, perm], Y=task0.Y[perm])
        ds_perm = MultiTaskDataset(tasks=(permuted, ds.tasks[1]))
        hp = Hyperparams(k=4, max_iter=30)
        m1 = fit(ds, hp)
        m2 = fit(ds_perm, hp)
        for l in range(2):
            assert np.abs(m1.W[l] - m2.W[l]).max() <= 1e-8
        np.testing.assert_allclose(m1.b[0], m2.b[0], atol=1e-8)


class TestGradientConsistency:
    def test_analytic_matches_central_differences(self):
        # moderate label weight keeps finite-difference noise well below the
        # comparison threshold; the gradient formulas do not depend on it
        rng = np.random.default_rng(8)
        ds = make_dataset(rng, t=2, d=4, n=7, c=2)
        hp = Hyperparams(alpha=1.3, beta=0.6, gamma=0.8, k=3)
        Ls = [build_task_laplacian(t.X, hp.k, hp.lam).L for t in ds.tasks]
        Us = [selection_diag_oracle(t.labeled_mask, 1e3) for t in ds.tasks]
        W = [rng.standard_normal((4, 2)) for _ in range(2)]
        F = [rng.standard_normal((7, 2)) for _ in range(2)]
        b = [rng.standard_normal(2) for _ in range(2)]
        gW, gF, gb = analytic_full_gradient(ds.tasks, Ls, Us, hp, W, F, b)

        for l in range(2):
            def f_of_W(Wx, l=l):
                W_mod = [Wx if i == l else W[i] for i in range(2)]
                return full_objective_oracle(ds.tasks, Ls, Us, hp, W_mod, F, b)

            def f_of_F(Fx, l=l):
                F_mod = [Fx if i == l else F[i] for i in range(2)]
                return full_objective_oracle(ds.tasks, Ls, Us, hp, W, F_mod, b)

            def f_of_b(bx, l=l):
                b_mod = [bx if i == l else b[i] for i in range(2)]
                return full_objective_oracle(ds.tasks, Ls, Us, hp, W, F, b_mod)

            for fun, grad, x in ((f_of_W, gW[l], W[l]), (f_of_F, gF[l], F[l]),
                                 (f_of_b, gb[l], b[l])):
                fd = central_diff_grad(fun, np.asarray(x, dtype=float), h=1e-6)
                err = np.linalg.norm(fd - grad) / (1 + np.linalg.norm(fd))
                assert err <= 1e-5


class TestFeatureScaleCovariance:
    def test_subdominant_penalty_regime(self):
        # scaling feature j by c rescales row j of W by 1/c when the graph is
        # held fixed and the row penalty is subdominant (single task, gamma=0,
        # large beta); R and T transform as C R C and C T
        rng = np.random.default_rng(9)
        d, n, c_classes = 4, 12, 2
        task = make_task(rng, d, n, c_classes)
        hp = Hyperparams(alpha=1.0, beta=1e4, gamma=0.0, k=4, delta=1e-9)
        lap = build_task_laplacian(task.X, hp.k, hp.lam)
        R, T, *_ = precompute_task(task, lap, hp)

        def fixed_point(Rx, Tx):
            W = solve_W(Rx, Tx, np.ones(d), None, hp)
            for _ in range(200):
                W_new = solve_W(Rx, Tx, update_Dl_oracle(W, hp.delta), None, hp)
                if np.linalg.norm(W_new - W) <= 1e-13:
                    return W_new
                W = W_new
            return W

        W_base = fixed_point(R, T)
        scale = 3.0
        C = np.eye(d)
        C[1, 1] = scale
        W_scaled = fixed_point(C @ R @ C, C @ T)
        expected = np.linalg.inv(C) @ W_base
        err = np.abs(W_scaled - expected).max() / np.abs(W_base).max()
        assert err <= 1e-3


class TestTinyInstanceOracle:
    @staticmethod
    def _check_against_oracle(ds, hp, rng, restarts, minimize):
        # the solver's final objective must not exceed 1.0001x the best value
        # a generic method, minimize(f, g, W0) -> (W, f(W)), finds on the
        # same smoothed objective
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

        shape = (ds.n_features, sum(t.n_classes for t in ds.tasks))
        best = np.inf
        best_W = None
        for restart in range(restarts):
            W0 = rng.standard_normal(shape)
            W_opt, f_opt = minimize(f, g, W0)
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
        assert model.objective_trace[-1] <= 1.0001 * oracle_obj

    def test_solver_matches_descent_oracle(self):
        # interior-optimum settings: strong low-rank/sparse corners make both
        # the alternating solver and any first-order method crawl along nearly
        # flat directions, which tests luck rather than correctness
        rng = np.random.default_rng(10)
        for trial in range(3):
            ds = make_dataset(rng, t=2, d=3, n=5, c=2)
            hp = Hyperparams(alpha=1.0, beta=1.0, gamma=0.1, k=3,
                             max_iter=20000, rel_tol=1e-13)
            self._check_against_oracle(ds, hp, rng, restarts=20, minimize=lbfgs_minimize)

    def test_more_features_than_classes_at_coupling_corner(self):
        # d = 8 > sum(c) = 4: the d x d form of the trace-norm weights would
        # put 1/(2 sqrt(delta)) on the 4 directions outside W's column span
        # and freeze that span after the first solve, ending a few percent
        # above what plain gradient descent finds
        rng = np.random.default_rng(10)
        for trial in range(3):
            ds = make_dataset(rng, t=2, d=8, n=10, c=2)
            hp = Hyperparams(alpha=100.0, beta=1.0, gamma=100.0, k=3,
                             max_iter=300, rel_tol=1e-13)
            # plain descent, not L-BFGS-B: at max_iter=300 fit stops here
            # unconverged, up to 7e-4 above L-BFGS-B's value
            self._check_against_oracle(
                ds, hp, rng, restarts=2,
                minimize=lambda f, g, W0: descent_minimize(f, g, W0, max_iter=600))


class TestModelSerialization:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = make_dataset(rng, t=2, d=5, n=8, c=2)
        model = fit(ds, Hyperparams(k=3, max_iter=5))
        path = model.save(tmp_path / "model.json")
        back = load_selection_model(path)
        assert back.task_names == model.task_names
        assert back.hyperparams == model.hyperparams
        assert back.converged == model.converged
        for a, b in zip(model.W, back.W):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(model.objective_trace, back.objective_trace)

    def test_legacy_exact_w_update_key(self, tmp_path):
        # model files from before the alpha/beta-scaled W update was removed
        # carry exact_w_update: true loads as the only update there is,
        # false names an update this solver no longer has
        rng = np.random.default_rng(14)
        model = fit(make_dataset(rng, t=1, d=4, n=7, c=2), Hyperparams(k=3, max_iter=5))
        doc = model.to_json_dict()
        for flag in (True, False):
            doc["hyperparams"]["exact_w_update"] = flag
            path = tmp_path / f"model_{flag}.json"
            path.write_text(json.dumps(doc))
            if flag:
                assert load_selection_model(path).hyperparams == model.hyperparams
            else:
                with pytest.raises(ValidationError, match="exact_w_update"):
                    load_selection_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(tasks=[]), "tasks must be a non-empty list, got []"),
        (lambda doc: doc["tasks"][1].update(W=doc["tasks"][1]["W"][:2]),
         "tasks[1].W must be 6 x 2: 6 rows, one column per entry of b"),
        (lambda doc: doc["tasks"][0].update(W=doc["tasks"][0]["W"][0]),
         "tasks[0].W[0] must be a non-empty list, got "),
        (lambda doc: doc["tasks"][1].update(b=[0.0]),
         "tasks[1].W must be 6 x 1: 6 rows, one column per entry of b"),
        (lambda doc: doc["tasks"][0]["W"][3].__setitem__(0, float("inf")),
         "tasks[0].W[3][0] must be a finite number, got inf"),
        (lambda doc: doc["tasks"][0]["b"].__setitem__(1, float("nan")),
         "tasks[0].b[1] must be a finite number, got nan"),
        (lambda doc: doc.update(objective_trace="xyz"),
         'objective_trace must be a non-empty list, got "xyz"'),
        (lambda doc: doc.update(objective_trace=[]),
         "objective_trace must be a non-empty list, got []"),
        # the fit's trace has 4 entries
        (lambda doc: doc["objective_trace"].__setitem__(-1, float("nan")),
         "objective_trace[3] must be a finite number, got nan"),
        (lambda doc: doc["objective_trace"].__setitem__(0, None),
         "objective_trace[0] must be a finite number, got null"),
        (lambda doc: doc.update(objective_trace=[True, False]),
         "objective_trace[0] must be a finite number, got true"),
        (lambda doc: doc.update(converged="no"), 'converged must be true or false, got "no"'),
        (lambda doc: doc.update(converged=1), "converged must be true or false, got 1"),
        (lambda doc: doc["tasks"][0].update(name=None),
         "tasks[0].name must be a string, got null"),
        (lambda doc: doc["tasks"][1].update(name={"a": 1}),
         'tasks[1].name must be a string, got {"a": 1}'),
        (lambda doc: doc["tasks"][1].update(name="t0"),
         "tasks[1].name 't0' repeats an earlier task's"),
        # finite, but its square, and so its row norm, is not
        (lambda doc: doc["tasks"][0]["W"][2].__setitem__(1, 1e308),
         "tasks[0].W's row norms overflow a float"),
        (lambda doc: doc["tasks"][1]["W"][0].__setitem__(0, True),
         "tasks[1].W[0][0] must be a finite number, got true"),
        (lambda doc: doc["tasks"][0]["b"].__setitem__(1, False),
         "tasks[0].b[1] must be a finite number, got false"),
        # numpy reads a numeric string as its number
        (lambda doc: doc["tasks"][0]["W"][0].__setitem__(0, "7.5"),
         'tasks[0].W[0][0] must be a finite number, got "7.5"'),
        (lambda doc: doc["tasks"][0]["b"].__setitem__(0, "-2"),
         'tasks[0].b[0] must be a finite number, got "-2"'),
        (lambda doc: doc["tasks"][0]["W"][1].__setitem__(0, 10**400),
         "tasks[0].W[1][0] must be a number that fits a float, got 1000"),
        # these three used to fail inside numpy, Python or the dataclass
        (lambda doc: doc["tasks"][0]["W"][1].pop(), "tasks[0].W must be 6 x 2"),
        (lambda doc: doc.update(tasks=[[1.0], [2.0]]), "tasks[0] must be an object, got [1.0]"),
        (lambda doc: doc["hyperparams"].update(eta=1.0),
         "hyperparams.eta is not a hyperparameter"),
        (lambda doc: doc["hyperparams"].update(alpha=True),
         "hyperparams.alpha must be a finite number, got true"),
        (lambda doc: doc["hyperparams"].update(k=2.5),
         "hyperparams.k must be an integer, got 2.5"),
        (lambda doc: doc["hyperparams"].update(max_iter=1e308),
         "hyperparams.max_iter must be an integer, got 1e+308"),
        (lambda doc: doc["hyperparams"].update(k=10**400),
         "hyperparams.k must be a number that fits a float"),
        (lambda doc: doc.update(hyperparams={}), "hyperparams.alpha is missing"),
        (lambda doc: doc.update(hyperparams=[]), "hyperparams must be an object, got []"),
        (lambda doc: doc.update(hyperparams=""), 'hyperparams must be an object, got ""'),
        (lambda doc: doc["hyperparams"].pop("lambda"), "hyperparams.lambda is missing"),
    ], ids=["no-tasks", "W-short", "W-1d", "b-short", "W-inf", "b-nan",
            "trace-str", "trace-empty", "trace-nan", "trace-null", "trace-bools",
            "converged-str", "converged-int", "name-null", "name-object",
            "name-repeated", "W-norm-overflow", "W-bool", "b-bool", "W-numeric-string",
            "b-numeric-string", "W-huge-int", "W-ragged", "tasks-of-lists",
            "hyperparams-unknown-key", "alpha-bool", "k-float", "max_iter-huge-float",
            "k-huge-int", "hyperparams-empty", "hyperparams-list", "hyperparams-string",
            "hyperparams-no-lambda"])
    def test_malformed_model_rejected(self, tmp_path, edit, message):
        # d = 6, two tasks of two classes each
        rng = np.random.default_rng(15)
        ds = make_dataset(rng, t=2, d=6, n=8, c=2)
        doc = fit(ds, Hyperparams(k=3, max_iter=3)).to_json_dict()
        doc["tasks"][0]["name"], doc["tasks"][1]["name"] = "t0", "t1"
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        # every error names the file, then the JSON location at fault
        with pytest.raises(ValidationError, match=re.escape(f"model file {path}: {message}")):
            load_selection_model(path)

    @pytest.mark.parametrize("stored", [
        lambda W: np.sqrt((W * W).sum(axis=1))[:3].tolist(),
        lambda W: W.tolist(),
        lambda W: [float("nan")] * W.shape[0],
        lambda W: np.arange(W.shape[0], dtype=float).tolist(),
    ], ids=["scores-short", "scores-2d", "scores-nan", "scores-stale"])
    def test_stored_feature_scores_ignored(self, tmp_path, stored):
        # older model files store each task's feature_scores next to its W;
        # the scores are W's row norms, so the loader ranks by W and ignores
        # the stored copy, whatever its shape or values
        rng = np.random.default_rng(15)
        model = fit(make_dataset(rng, t=2, d=6, n=8, c=2), Hyperparams(k=3, max_iter=3))
        doc = model.to_json_dict()
        for task, W in zip(doc["tasks"], model.W):
            task["feature_scores"] = stored(W)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        back = load_selection_model(path)
        for l, W in enumerate(model.W):
            np.testing.assert_array_equal(back.feature_scores[l],
                                          np.sqrt((W * W).sum(axis=1)))
            np.testing.assert_array_equal(rank_features(back, l).indices,
                                          rank_features(model, l).indices)

    def test_legacy_inf_surrogate_key(self, tmp_path):
        # older model files carry the label weight as inf_surrogate: the
        # weight fit uses loads, any other names a fit this solver cannot redo
        rng = np.random.default_rng(14)
        model = fit(make_dataset(rng, t=1, d=4, n=7, c=2), Hyperparams(k=3, max_iter=5))
        doc = model.to_json_dict()
        for weight in (1e6, 50.0):
            doc["hyperparams"]["inf_surrogate"] = weight
            path = tmp_path / f"model_{weight}.json"
            path.write_text(json.dumps(doc))
            if weight == solver.LABEL_WEIGHT:
                assert load_selection_model(path).hyperparams == model.hyperparams
            else:
                with pytest.raises(ValidationError, match="inf_surrogate is 50.0"):
                    load_selection_model(path)

    def test_legacy_model_file(self):
        # a model file written before the derived fields and the label-weight
        # key were dropped: it loads, and the scores derived from its W are
        # the stored ones bit for bit
        doc = json.loads(LEGACY_MODEL.read_text())
        model = load_selection_model(LEGACY_MODEL)
        assert doc["hyperparams"]["inf_surrogate"] == solver.LABEL_WEIGHT
        assert model.hyperparams == Hyperparams(alpha=1.0, beta=1.0, gamma=1.0, k=5)
        assert model.iterations == doc["iterations"]
        for task, scores in zip(doc["tasks"], model.feature_scores):
            np.testing.assert_array_equal(scores, task["feature_scores"])

    def test_save_writes_compact_json_without_derived_fields(self, tmp_path):
        rng = np.random.default_rng(12)
        model = fit(make_dataset(rng, t=1, d=4, n=7, c=2), Hyperparams(k=3, max_iter=5))
        text = model.save(tmp_path / "m.json").read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert set(doc) == {"converged", "hyperparams", "objective_trace", "tasks"}
        assert set(doc["tasks"][0]) == {"W", "b", "name"}
        assert "inf_surrogate" not in doc["hyperparams"]

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng, t=1, d=4, n=7, c=2)
        model = fit(ds, Hyperparams(k=3, max_iter=5))
        p1 = model.save(tmp_path / "m1.json")
        p2 = model.save(tmp_path / "m2.json")
        assert p1.read_bytes() == p2.read_bytes()
