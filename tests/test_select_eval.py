import numpy as np
import pytest

from sfmc.dataset import (MultiTaskDataset, SynthConfig, TaskData,
                          ValidationError, generate_synthetic)
from sfmc.select_eval import (average_precision, fisher_score,
                              mean_average_precision, rank_features,
                              run_experiment, select_top, train_ls_classifier,
                              write_cells_csv, _rank_from_scores)
from sfmc.solver import Hyperparams, NumericalError, fit
from helpers import (average_precision_oracle, fisher_oracle, make_dataset,
                     make_task, score_candidates_oracle)


class TestRankFeatures:
    def _model_with_scores(self, rows):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng, t=1, d=len(rows), n=8, c=2)
        model = fit(ds, Hyperparams(k=3, max_iter=2))
        return model, ds

    def test_simple_sort(self):
        ranking = _rank_from_scores(np.array([0.9, 0.05, 0.4]))
        np.testing.assert_array_equal(ranking.indices, [0, 2, 1])

    def test_all_ties_keep_index_order(self):
        ranking = _rank_from_scores(np.zeros(5))
        np.testing.assert_array_equal(ranking.indices, np.arange(5))

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        ranking = _rank_from_scores(scores)
        expected = sorted(range(40), key=lambda j: (-scores[j], j))
        np.testing.assert_array_equal(ranking.indices, expected)

    def test_uses_row_norms_of_model(self):
        rng = np.random.default_rng(2)
        ds = make_dataset(rng, t=2, d=6, n=10, c=2)
        model = fit(ds, Hyperparams(k=4, max_iter=3))
        for l in range(2):
            ranking = rank_features(model, l)
            np.testing.assert_allclose(
                ranking.scores, np.sqrt((model.W[l] ** 2).sum(axis=1))
            )
            assert np.all(np.diff(ranking.scores[ranking.indices]) <= 0)

    def test_invariant_to_orthogonal_right_multiplication(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((7, 3))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        r1 = _rank_from_scores(np.sqrt((W**2).sum(axis=1)))
        r2 = _rank_from_scores(np.sqrt(((W @ Q) ** 2).sum(axis=1)))
        np.testing.assert_array_equal(r1.indices, r2.indices)

    def test_task_index_range(self):
        rng = np.random.default_rng(4)
        ds = make_dataset(rng, t=1, d=4, n=8, c=2)
        model = fit(ds, Hyperparams(k=3, max_iter=2))
        with pytest.raises(IndexError):
            rank_features(model, 1)


class TestSelectTop:
    def test_full_and_single(self):
        ranking = _rank_from_scores(np.array([0.9, 0.05, 0.4]))
        np.testing.assert_array_equal(select_top(ranking, 3), [0, 2, 1])
        np.testing.assert_array_equal(select_top(ranking, 1), [0])

    def test_prefix_property(self):
        rng = np.random.default_rng(5)
        ranking = _rank_from_scores(rng.random(12))
        for c in range(1, 12):
            np.testing.assert_array_equal(
                select_top(ranking, c), select_top(ranking, c + 1)[:c]
            )

    def test_count_out_of_range(self):
        ranking = _rank_from_scores(np.ones(3))
        with pytest.raises(ValidationError):
            select_top(ranking, 0)
        with pytest.raises(ValidationError):
            select_top(ranking, 4)


class TestFisherScore:
    def test_identical_feature_scores_zero(self):
        X = np.vstack([np.ones(8), np.arange(8.0)])
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        Y = np.zeros((8, 2))
        Y[np.arange(8), labels] = 1
        task = TaskData(name="t", X=X, Y=Y, labeled_mask=np.ones(8, bool))
        scores = fisher_score(task)
        assert scores[0] == pytest.approx(0.0, abs=1e-9)

    def test_two_class_value_against_oracle(self):
        # means 0 and 10, exact unit within-class population variance
        base = np.array([-1.0, 1.0, -1.0, 1.0])
        X = np.concatenate([base + 0.0, base + 10.0])[None, :]
        labels = np.array([0] * 4 + [1] * 4)
        Y = np.zeros((8, 2))
        Y[np.arange(8), labels] = 1
        task = TaskData(name="t", X=X, Y=Y, labeled_mask=np.ones(8, bool))
        scores = fisher_score(task)
        expected = fisher_oracle(X, labels)
        np.testing.assert_allclose(scores, expected, rtol=1e-12)
        # between = 8*(5-0)^2... both classes: n1 n2 / n * diff^2 = 2*100/... = 25 here
        assert scores[0] == pytest.approx(25.0, rel=1e-12)

    def test_planted_support_outscores_noise(self):
        cfg = SynthConfig(d=25, s=4, t=1, n_per_task=150,
                          signal_strength=1.0, noise_sigma=0.2, seed=6)
        ds = generate_synthetic(cfg)
        scores = fisher_score(ds.tasks[0])
        sup = set(ds.support)
        assert min(scores[j] for j in sup) > max(
            scores[j] for j in range(cfg.d) if j not in sup
        )

    def test_uses_labeled_samples_only(self):
        rng = np.random.default_rng(7)
        task = make_task(rng, 5, 30, 2, label_frac=0.6)
        labeled = np.flatnonzero(task.labeled_mask)
        expected = fisher_oracle(
            task.X[:, labeled], np.argmax(task.Y[labeled], axis=1)
        )
        np.testing.assert_allclose(fisher_score(task), expected, rtol=1e-10)

    def test_ordering_invariant_under_affine_feature_transform(self):
        rng = np.random.default_rng(8)
        task = make_task(rng, 6, 40, 2, label_frac=1.0)
        scores = fisher_score(task)
        X2 = task.X.copy()
        X2[2] = 3.5 * X2[2] + 11.0
        task2 = TaskData(name="t", X=X2, Y=task.Y, labeled_mask=task.labeled_mask)
        scores2 = fisher_score(task2)
        np.testing.assert_array_equal(np.argsort(-scores), np.argsort(-scores2))

    def test_needs_two_classes(self):
        X = np.zeros((2, 4))
        Y = np.zeros((4, 2))
        Y[:, 0] = 1
        task = TaskData(name="t", X=X, Y=Y, labeled_mask=np.ones(4, bool))
        with pytest.raises(ValidationError, match="2 labeled classes"):
            fisher_score(task)


class TestLSClassifier:
    def test_separable_1d(self):
        X = np.array([[-2.0, -1.5, -1.0, 1.0, 1.5, 2.0]])
        Y = np.zeros((6, 2))
        Y[:3, 0] = 1
        Y[3:, 1] = 1
        clf = train_ls_classifier(X, Y, ridge=1e-6)
        np.testing.assert_array_equal(clf.predict(X), [0, 0, 0, 1, 1, 1])

    def test_huge_ridge_limit(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((3, 12))
        Y = np.zeros((12, 2))
        Y[np.arange(12) % 2 == 0, 0] = 1
        Y[np.arange(12) % 2 == 1, 1] = 1
        clf = train_ls_classifier(X, Y, ridge=1e12)
        assert np.abs(clf.W).max() <= 1e-3
        np.testing.assert_allclose(clf.b, Y.mean(axis=0), atol=1e-3)

    def test_duplicates_get_identical_predictions(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((4, 6))
        X[:, 3] = X[:, 0]
        Y = np.zeros((6, 2))
        Y[np.arange(6), np.array([0, 1, 0, 1, 0, 1])] = 1
        clf = train_ls_classifier(X, Y, ridge=0.5)
        scores = clf.decision(X)
        np.testing.assert_array_equal(scores[0], scores[3])

    def test_gradient_at_optimum(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5, 20))
        Y = np.zeros((20, 3))
        Y[np.arange(20), rng.integers(0, 3, 20)] = 1
        ridge = 0.7
        clf = train_ls_classifier(X, Y, ridge)
        resid = X.T @ clf.W + clf.b - Y
        grad_W = 2 * X @ resid + 2 * ridge * clf.W
        grad_b = 2 * resid.sum(axis=0)
        assert np.abs(grad_W).max() <= 1e-8
        assert np.abs(grad_b).max() <= 1e-8

    def test_ridge_must_be_positive(self):
        with pytest.raises(ValidationError):
            train_ls_classifier(np.zeros((2, 3)), np.zeros((3, 2)), 0.0)

    @pytest.mark.parametrize("ridge", [float("nan"), float("inf")])
    def test_ridge_must_be_finite(self, ridge):
        with pytest.raises(ValidationError):
            train_ls_classifier(np.zeros((2, 3)), np.zeros((3, 2)), ridge)

    @pytest.mark.parametrize("ridge", [1e-6, 0.5, 1e12])
    def test_stack_matches_slices(self, ridge):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((2, 3, 5, 20))
        Y = np.zeros((20, 3))
        Y[np.arange(20), rng.integers(0, 3, 20)] = 1
        stacked = train_ls_classifier(X, Y, ridge)
        assert stacked.W.shape == (2, 3, 5, 3) and stacked.b.shape == (2, 3, 3)
        for i in np.ndindex(2, 3):
            single = train_ls_classifier(X[i], Y, ridge)
            for got, want in ((stacked.W[i], single.W), (stacked.b[i], single.b)):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            np.testing.assert_allclose(stacked.decision(X)[i], single.decision(X[i]),
                                       rtol=1e-12, atol=1e-12)

    def test_stack_with_one_indefinite_gram_raises(self):
        # two copies of a feature of size 1e10: the ridge is below the
        # round-off of the Gram matrix, whose Cholesky factor then meets an
        # exact zero pivot
        rng = np.random.default_rng(16)
        X = rng.standard_normal((3, 2, 4))
        X[1] = 1e10 * np.array([1.0, -1.0, 1.0, -1.0])
        Y = np.zeros((4, 2))
        Y[[0, 2], 0] = Y[[1, 3], 1] = 1
        train_ls_classifier(X[[0, 2]], Y, 1e-6)
        with pytest.raises(NumericalError, match="SPD factorization failed"):
            train_ls_classifier(X, Y, 1e-6)
        with pytest.raises(NumericalError, match="SPD factorization failed"):
            train_ls_classifier(X[1], Y, 1e-6)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_stack_with_one_overflowing_gram_raises(self):
        # one feature of size 1e200 overflows its Gram matrix to inf; with one
        # feature the factorization would pass the inf on as a factor
        rng = np.random.default_rng(18)
        X = rng.standard_normal((3, 1, 4))
        X[1] *= 1e200
        Y = np.zeros((4, 2))
        Y[[0, 2], 0] = Y[[1, 3], 1] = 1
        with pytest.raises(NumericalError, match="non-finite"):
            train_ls_classifier(X, Y, 1e-2)


class TestAveragePrecision:
    def test_worked_example(self):
        # relevant items land at ranks 1 and 3 of 4
        scores = np.array([0.9, 0.5, 0.4, 0.1])
        relevant = np.array([True, False, True, False])
        assert average_precision(scores, relevant) == pytest.approx(
            0.5 * (1.0 + 2.0 / 3.0)
        )

    def test_all_relevant_first(self):
        scores = np.array([0.9, 0.8, 0.1, 0.05])
        relevant = np.array([True, True, False, False])
        assert average_precision(scores, relevant) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            scores = rng.random(20)
            relevant = rng.random(20) < 0.3
            if not relevant.any():
                relevant[0] = True
            assert average_precision(scores, relevant) == pytest.approx(
                average_precision_oracle(scores.tolist(), relevant.tolist()),
                abs=1e-12,
            )

    def test_ties_break_by_index(self):
        scores = np.zeros(3)
        relevant = np.array([False, True, False])
        # with all scores tied the ranking is 0, 1, 2; hit at rank 2
        assert average_precision(scores, relevant) == pytest.approx(0.5)

    def test_needs_a_relevant_item(self):
        with pytest.raises(ValidationError):
            average_precision(np.ones(3), np.zeros(3, bool))

    def test_map_stack_matches_slices_bit_for_bit(self):
        # scores on a 0.1 grid tie often (ties go to the lower index), and
        # class 2 has no relevant test sample, so it is skipped
        rng = np.random.default_rng(17)
        scores = np.round(rng.random((2, 4, 30, 3)), 1)
        Y = np.zeros((30, 3))
        Y[np.arange(30), rng.integers(0, 2, 30)] = 1
        stacked = mean_average_precision(scores, Y)
        assert stacked.shape == (2, 4)
        for i in np.ndindex(2, 4):
            assert stacked[i] == mean_average_precision(scores[i], Y)
            assert mean_average_precision(scores[i], Y) == float(np.mean(
                [average_precision(scores[i][:, c], Y[:, c] > 0) for c in (0, 1)]))
        with pytest.raises(ValidationError, match="no class has a relevant sample"):
            mean_average_precision(scores, np.zeros((30, 3)))

    def test_map_bounds_and_perfect_ranker(self):
        rng = np.random.default_rng(13)
        Y = np.zeros((10, 2))
        Y[np.arange(10), np.arange(10) % 2] = 1
        perfect = Y + 0.0
        assert mean_average_precision(perfect, Y) == pytest.approx(1.0)
        for _ in range(20):
            val = mean_average_precision(rng.random((10, 2)), Y)
            assert 0.0 <= val <= 1.0


@pytest.fixture(scope="module")
def synth():
    return generate_synthetic(
        SynthConfig(d=16, s=4, t=2, n_per_task=60,
                    signal_strength=1.2, noise_sigma=0.3, seed=14)
    )


class TestRunExperiment:
    def test_report_structure(self, synth):
        report = run_experiment(
            synth, methods=["sfmc", "fisher", "all_features"],
            fractions=[0.2, 1.0], feature_counts=[4, 8], repeats=2, seed=0,
            hp_base=Hyperparams(k=6, max_iter=15),
        )
        methods = {c.method for c in report.cells}
        assert methods == {"sfmc", "fisher", "all_features"}
        for cell in report.cells:
            assert 0.0 <= cell.map_mean <= 1.0
            assert len(cell.map_per_repeat) == 2
            assert cell.recovery_mean is not None  # synthetic carries support
            if cell.method == "sfmc":
                assert cell.best_params is not None
        # all_features reports only the full count
        af = [c for c in report.cells if c.method == "all_features"]
        assert all(c.count == 16 for c in af)

        # the JSON form: wall-clock runtime is never written, recovery only
        # with a support, best_params only on sfmc cells
        doc = report.to_json_dict()
        assert {c["count"] for c in doc["cells"] if c["method"] == "all_features"} == {16}
        base = {"method", "fraction", "count", "map_mean", "map_std", "map_per_repeat"}
        recovery = {"recovery_mean", "recovery_std", "recovery_per_repeat"}
        for cell in doc["cells"]:
            extra = {"best_params"} if cell["method"] == "sfmc" else set()
            assert set(cell) == base | recovery | extra
        assert set(doc) == {"cells", "methods", "fractions", "feature_counts",
                            "repeats", "seed", "test_fraction"}

        unplanted = MultiTaskDataset(tasks=synth.tasks)
        assert unplanted.support is None
        doc = run_experiment(
            unplanted, methods=["sfmc", "fisher"], fractions=[1.0],
            feature_counts=[4], repeats=1, seed=0,
            hp_base=Hyperparams(k=6, max_iter=5),
        ).to_json_dict()
        for cell in doc["cells"]:
            extra = {"best_params"} if cell["method"] == "sfmc" else set()
            assert set(cell) == base | extra

    def test_all_features_equals_top_d_selection(self, synth):
        # selecting every feature must reproduce the no-selection baseline
        r1 = run_experiment(
            synth, methods=["all_features"], fractions=[1.0],
            feature_counts=[16], repeats=1, seed=3,
            hp_base=Hyperparams(k=6, max_iter=5),
        )
        r2 = run_experiment(
            synth, methods=["fisher"], fractions=[1.0],
            feature_counts=[16], repeats=1, seed=3,
            hp_base=Hyperparams(k=6, max_iter=5),
        )
        assert r1.cells[0].map_mean == pytest.approx(r2.cells[0].map_mean, abs=1e-12)

    def test_repeats_populate_mean_and_std(self, synth):
        report = run_experiment(
            synth, methods=["fisher"], fractions=[0.2], feature_counts=[4],
            repeats=5, seed=1, hp_base=Hyperparams(k=6),
        )
        cell = report.cells[0]
        assert len(cell.map_per_repeat) == 5
        assert cell.map_std == pytest.approx(np.std(cell.map_per_repeat))
        assert cell.map_mean == pytest.approx(np.mean(cell.map_per_repeat))

    def test_deterministic_for_fixed_seed(self, synth):
        kwargs = dict(
            methods=["sfmc"], fractions=[0.3], feature_counts=[4],
            repeats=2, seed=7, hp_base=Hyperparams(k=6, max_iter=10),
        )
        r1 = run_experiment(synth, **kwargs)
        r2 = run_experiment(synth, **kwargs)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_threaded_matches_sequential(self, synth, monkeypatch):
        # repeats run in order and n_threads goes to the per-task work of the
        # graph builds and fits, so every pool is started with n_threads
        from sfmc import solver

        kwargs = dict(
            methods=["sfmc", "fisher"], fractions=[0.2, 1.0], feature_counts=[4],
            repeats=3, seed=5, hp_base=Hyperparams(k=6),
        )
        r1 = run_experiment(synth, **kwargs)
        pools = []
        map_tasks = solver._map_tasks
        monkeypatch.setattr(solver, "_map_tasks",
                            lambda fn, items, n: pools.append(n) or map_tasks(fn, items, n))
        r2 = run_experiment(synth, n_threads=3, **kwargs)
        assert r1.to_json_dict() == r2.to_json_dict()
        assert pools and set(pools) == {3}

    def test_rejects_duplicate_fractions(self, synth):
        # a fraction's mask seed depends on its position, so repeats of one
        # fraction would report two cells holding only the last mask's scores
        with pytest.raises(ValidationError, match="duplicate label fractions"):
            run_experiment(synth, methods=["fisher"], fractions=[0.2, 0.2],
                           feature_counts=[4], repeats=1, seed=0)

    def test_rejects_duplicate_methods(self, synth):
        # a repeated method would run and report each of its cells twice;
        # names are compared after lowercasing
        for methods in (["fisher", "sfmc", "fisher", "all_features"], ["SFMC", "sfmc"]):
            with pytest.raises(ValidationError, match="duplicate methods"):
                run_experiment(synth, methods=methods, fractions=[0.2],
                               feature_counts=[4], repeats=1, seed=0)

    def test_graphs_built_once_per_split(self, synth, monkeypatch):
        # the Laplacian depends only on the split's X, k and lam, so every
        # fraction and grid cell of one repeat shares one graph per task
        from sfmc import select_eval, solver

        kwargs = dict(
            methods=["sfmc"], fractions=[0.2, 1.0], feature_counts=[4],
            repeats=2, seed=4, grid={"gamma": [0.1, 10.0]},
            hp_base=Hyperparams(k=6, max_iter=10),
        )
        built = []
        build = solver.build_task_laplacian
        monkeypatch.setattr(solver, "build_task_laplacian",
                            lambda *a: built.append(1) or build(*a))
        shared = run_experiment(synth, **kwargs)
        assert len(built) == 2 * synth.n_tasks

        fit_per_cell = select_eval.fit
        monkeypatch.setattr(
            select_eval, "fit",
            lambda ds, hp, prepared=None, **kw: fit_per_cell(ds, hp, **kw))
        del built[:]
        unshared = run_experiment(synth, **kwargs)
        # the unused per-split build, then one per fit: 2 fractions x 2 cells
        assert len(built) == 2 * synth.n_tasks * (1 + 2 * 2)
        assert shared.to_json_dict() == unshared.to_json_dict()

    def test_caches_prepared_once_per_alpha_beta(self, synth, monkeypatch):
        # a cell's caches depend on its mask and on alpha beta alone, and gamma
        # is innermost in the grid, so consecutive cells with one product of
        # alpha and beta share one prepared set
        from sfmc import select_eval, solver

        kwargs = dict(
            methods=["sfmc"], fractions=[0.2, 1.0], feature_counts=[4],
            repeats=2, seed=4,
            grid={"alpha": [1.0, 100.0], "beta": [0.01, 1.0], "gamma": [0.1, 10.0]},
            hp_base=Hyperparams(k=6, max_iter=10),
        )
        calls = []
        precompute = solver.precompute_task
        monkeypatch.setattr(solver, "precompute_task",
                            lambda *a: calls.append(1) or precompute(*a))
        shared = run_experiment(synth, **kwargs)
        # alpha beta runs 0.01, 1, 1, 100 over the (alpha, beta) pairs, so
        # each (repeat, fraction) prepares three sets
        assert 1.0 * 1.0 == 100.0 * 0.01
        assert len(calls) == 2 * 2 * 3 * synth.n_tasks

        fit_per_cell = select_eval.fit
        monkeypatch.setattr(
            select_eval, "fit",
            lambda ds, hp, prepared=None, **kw: fit_per_cell(ds, hp, **kw))
        del calls[:]
        unshared = run_experiment(synth, **kwargs)
        # per (repeat, fraction): the three shared sets, now unused, and one
        # per fit of the 8 cells
        assert len(calls) == 2 * 2 * (3 + 8) * synth.n_tasks
        assert shared.to_json_dict() == unshared.to_json_dict()

    @pytest.mark.parametrize("seed", [0, 11])
    def test_batched_scoring_matches_per_candidate_oracle(self, synth, monkeypatch,
                                                          seed):
        from sfmc import select_eval

        kwargs = dict(
            methods=["sfmc", "fisher", "all_features"], fractions=[0.2, 1.0],
            feature_counts=[2, 4, 8], repeats=3, seed=seed,
            grid={"beta": [0.01, 1.0], "gamma": [0.1, 10.0]},
            hp_base=Hyperparams(k=6, max_iter=10),
        )
        batched = run_experiment(synth, **kwargs)
        monkeypatch.setattr(select_eval, "_score_candidates", score_candidates_oracle)
        oracle = run_experiment(synth, **kwargs)
        assert len(batched.cells) == len(oracle.cells) == 2 * (3 + 3 + 1)
        for got, want in zip(batched.cells, oracle.cells):
            assert (got.method, got.fraction, got.count) == (want.method, want.fraction,
                                                             want.count)
            assert got.map_per_repeat == want.map_per_repeat
            assert got.recovery_per_repeat == want.recovery_per_repeat
            assert got.best_params == want.best_params
        assert batched.to_json_dict() == oracle.to_json_dict()

    def test_one_classifier_and_map_call_per_task_and_count(self, synth, monkeypatch):
        # every candidate of a (repeat, fraction, method), each grid cell for
        # sfmc, is scored in one batched call per task and count
        from sfmc import select_eval

        calls = {"train_ls_classifier": 0, "mean_average_precision": 0}
        for name in calls:
            original = getattr(select_eval, name)
            monkeypatch.setattr(
                select_eval, name,
                lambda *a, name=name, original=original:
                    calls.__setitem__(name, calls[name] + 1) or original(*a))
        run_experiment(
            synth, methods=["sfmc", "fisher", "all_features"], fractions=[0.2, 1.0],
            feature_counts=[4, 8], repeats=2, seed=3, grid={"gamma": [0.1, 1.0, 10.0]},
            hp_base=Hyperparams(k=6, max_iter=10))
        # repeats x fractions x tasks x counts (2 for sfmc, 2 for fisher, 1
        # for all_features)
        expected = 2 * 2 * synth.n_tasks * (2 + 2 + 1)
        assert calls == {"train_ls_classifier": expected,
                         "mean_average_precision": expected}

    def test_more_labels_help(self):
        # full labels beat 10% labels for Fisher on clean synthetic data in
        # at least 9 of 10 seeds
        wins = 0
        for seed in range(10):
            ds = generate_synthetic(
                SynthConfig(d=12, s=3, t=1, n_per_task=60,
                            signal_strength=1.0, noise_sigma=0.45, seed=100 + seed)
            )
            report = run_experiment(
                ds, methods=["fisher"], fractions=[0.1, 1.0],
                feature_counts=[3], repeats=3, seed=seed,
                hp_base=Hyperparams(k=5),
            )
            by_frac = {c.fraction: c.map_mean for c in report.cells}
            if by_frac[1.0] >= by_frac[0.1]:
                wins += 1
        assert wins >= 9

    def test_rejects_partially_labeled_input(self, synth):
        from sfmc.dataset import apply_label_fraction

        masked = apply_label_fraction(synth, 0.5, seed=0)
        with pytest.raises(ValidationError, match="fully labeled"):
            run_experiment(masked, methods=["fisher"], fractions=[1.0],
                           feature_counts=[4], repeats=1, seed=0)

    def test_cells_csv(self, synth, tmp_path):
        report = run_experiment(
            synth, methods=["fisher"], fractions=[0.5], feature_counts=[4],
            repeats=2, seed=2, hp_base=Hyperparams(k=6),
        )
        path = write_cells_csv(report, tmp_path / "cells.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,fraction,count,repeat,map,recovery"
        assert len(lines) == 1 + 2  # one row per repeat
