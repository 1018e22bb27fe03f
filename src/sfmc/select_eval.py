"""Feature ranking, Fisher-score baseline, least-squares classifier,
average-precision metrics, and the benchmark experiment runner."""

import itertools
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import (MultiTaskDataset, TaskData, ValidationError, apply_label_fraction,
                      check_json)
from .solver import Hyperparams, NumericalError, build_graphs, fit, prepare

METHODS = ("sfmc", "fisher", "all_features")
FISHER_VAR_FLOOR = 1e-12  # floor on fisher_score's within-class variance


@dataclass(frozen=True)
class FeatureRanking:
    """Feature indices in descending score order plus the per-feature scores."""

    indices: np.ndarray
    scores: np.ndarray


def _rank_from_scores(scores):
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")  # ties to the lower index
    return FeatureRanking(indices=order, scores=scores)


def rank_features(model, task_index):
    """Rank features for one task by the row norms of its weight matrix.

    Stable descending sort; ties go to the lower feature index.
    """
    if not 0 <= task_index < model.n_tasks:
        raise IndexError(f"task index {task_index} out of range")
    return _rank_from_scores(model.feature_scores[task_index])


def select_top(ranking, count):
    """First `count` indices of a ranking."""
    d = ranking.indices.size
    if not 1 <= count <= d:
        raise ValidationError(f"count must be in [1, {d}], got {count}")
    return ranking.indices[:count].copy()


def fisher_score(task):
    """Classical between/within class variance ratio per feature.

    score_j = sum_c n_c (mu_cj - mu_j)^2 / sum_c n_c var_cj over labeled
    samples only, the within-class variance floored at FISHER_VAR_FLOOR.
    """
    labeled = np.flatnonzero(task.labeled_mask)
    classes = np.argmax(task.Y[labeled], axis=1)
    present = np.unique(classes)
    if present.size < 2:
        raise ValidationError(
            f"task {task.name!r}: Fisher score needs at least 2 labeled classes"
        )
    X = task.X[:, labeled]
    mu = X.mean(axis=1)
    between = np.zeros(task.n_features)
    within = np.zeros(task.n_features)
    for c in present:
        Xc = X[:, classes == c]
        nc = Xc.shape[1]
        mu_c = Xc.mean(axis=1)
        between += nc * (mu_c - mu) ** 2
        within += nc * Xc.var(axis=1)
    return between / np.maximum(within, FISHER_VAR_FLOOR)


@dataclass(frozen=True)
class LSClassifier:
    """One-vs-rest regularized least squares, bias unpenalized.

    W is features x classes and b has one entry per class, or both carry the
    leading shape of a stack of classifiers (see train_ls_classifier).
    """

    W: np.ndarray
    b: np.ndarray

    def decision(self, X):
        """Per-class scores for samples given column-wise (features x n).

        For a stack of classifiers X is a matching stack (..., features, n),
        and the scores are (..., n, classes).
        """
        return X.swapaxes(-1, -2) @ self.W + self.b[..., None, :]

    def predict(self, X):
        return np.argmax(self.decision(X), axis=-1)


def _check_ridge(ridge):
    # NaN passes a <= comparison, so finiteness is checked first
    if check_json(ridge, float, "ridge") <= 0:
        raise ValidationError(f"ridge must be positive, got {ridge}")


def _spd_solve_stack(A, B):
    """Solve each SPD system A X = B of a stack (..., p, p), (..., p, c).

    A batched Cholesky factorization is the positive-definiteness check; a
    non-finite A is rejected first, since the factorization passes NaN.
    Each system whose residual after the solve exceeds 1e-13 ||B|| gets one
    refinement pass, which keeps the residual near machine precision at
    extreme ridges.
    """
    if not np.isfinite(A).all():
        raise NumericalError("SPD factorization failed: non-finite matrix")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SPD factorization failed: {exc}") from exc
    X = np.linalg.solve(A, B)
    resid = B - A @ X
    norm_b = np.linalg.norm(B, axis=(-2, -1))
    refine = (norm_b > 0) & (np.linalg.norm(resid, axis=(-2, -1)) > 1e-13 * norm_b)
    if refine.any():
        X[refine] += np.linalg.solve(A[refine], resid[refine])
    return X


def train_ls_classifier(X, Y, ridge):
    """Fit min_W,b ||X'W + 1b' - Y||_F^2 + ridge ||W||_F^2 in closed form.

    X is features x samples, Y is the n x c one-hot target matrix.  X may
    also be a stack (..., features, samples) of feature matrices for the
    same Y: each is fitted on its own, and W and b gain the stack's leading
    shape.
    """
    _check_ridge(ridge)
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[-1] == 0:
        raise ValidationError("no training samples")
    mu_x = X.mean(axis=-1)
    Xc = X - mu_x[..., None]
    mu_y = Y.mean(axis=0)
    G = Xc @ Xc.swapaxes(-1, -2) + ridge * np.eye(X.shape[-2])
    W = _spd_solve_stack(G, Xc @ (Y - mu_y))
    b = mu_y - (mu_x[..., None, :] @ W)[..., 0, :]
    return LSClassifier(W=W, b=b)


def average_precision(scores, relevant):
    """Mean of precision-at-rank over the relevant items.

    Items are ranked by descending score, ties broken by lower index.
    scores may also be a stack (..., n) of score vectors with the same
    relevant items, each ranked on its own into an array of the stack's
    leading shape.
    """
    scores = np.asarray(scores, dtype=np.float64)
    relevant = np.asarray(relevant, dtype=bool)
    if relevant.sum() == 0:
        raise ValidationError("average precision needs at least one relevant item")
    order = np.argsort(-scores, axis=-1, kind="stable")  # ties to the lower index
    rel = relevant[order]
    precisions = np.cumsum(rel, axis=-1) / np.arange(1, rel.shape[-1] + 1)
    # every vector has the same number of relevant items, so their
    # precisions form a (..., n_relevant) array
    aps = precisions[rel].reshape(rel.shape[:-1] + (-1,)).mean(axis=-1)
    return float(aps) if aps.ndim == 0 else aps


def mean_average_precision(scores, Y):
    """Mean AP over the classes that have at least one relevant sample.

    scores is n x c, or a stack (..., n, c) of score matrices for the same Y,
    each scored on its own into an array of the stack's leading shape.
    """
    scores = np.asarray(scores, dtype=np.float64)
    relevant = np.asarray(Y, dtype=np.float64) > 0
    aps = [
        average_precision(scores[..., c], relevant[:, c])
        for c in range(relevant.shape[1])
        if relevant[:, c].any()
    ]
    if not aps:
        raise ValidationError("no class has a relevant sample")
    maps = np.stack(aps, axis=-1).mean(axis=-1)
    return float(maps) if maps.ndim == 0 else maps


@dataclass(frozen=True)
class CellResult:
    """Aggregated result for one (method, label fraction, feature count)."""

    method: str
    fraction: float
    count: int
    map_mean: float
    map_std: float
    map_per_repeat: tuple
    recovery_mean: float = None
    recovery_std: float = None
    recovery_per_repeat: tuple = None
    best_params: dict = None
    runtime_s: float = 0.0


@dataclass(frozen=True)
class ExperimentReport:
    """All cells of one experiment plus the protocol that produced them."""

    cells: tuple
    methods: tuple
    fractions: tuple
    feature_counts: tuple
    repeats: int
    seed: int
    test_fraction: float

    def to_json_dict(self):
        # runtime is wall-clock and therefore excluded so reruns with the
        # same seed serialize byte-identically; unset fields are left out
        doc = asdict(self)
        doc["cells"] = [
            {k: v for k, v in cell.items() if v is not None and k != "runtime_s"}
            for cell in doc["cells"]
        ]
        return doc

    def save(self, path):
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )
        return Path(path)

    def to_text(self):
        header = f"{'method':<14}{'fraction':>10}{'count':>8}{'MAP':>10}{'std':>9}"
        has_recovery = any(c.recovery_mean is not None for c in self.cells)
        if has_recovery:
            header += f"{'recovery':>10}"
        header += f"{'time[s]':>10}"
        lines = [header, "-" * len(header)]
        for c in self.cells:
            line = (
                f"{c.method:<14}{c.fraction:>10.3g}{c.count:>8d}"
                f"{c.map_mean:>10.4f}{c.map_std:>9.4f}"
            )
            if has_recovery:
                rec = "" if c.recovery_mean is None else f"{c.recovery_mean:.4f}"
                line += f"{rec:>10}"
            line += f"{c.runtime_s:>10.2f}"
            lines.append(line)
        return "\n".join(lines)


def write_cells_csv(report, path):
    """Flat per-cell CSV for external plotting."""
    lines = ["method,fraction,count,repeat,map,recovery"]
    for c in report.cells:
        for r, m in enumerate(c.map_per_repeat):
            rec = "" if c.recovery_per_repeat is None else repr(c.recovery_per_repeat[r])
            lines.append(f"{c.method},{c.fraction!r},{c.count},{r},{m!r},{rec}")
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


def _child_seed(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _stratified_split(task, rng, test_fraction):
    """Split one fully labeled task into train task data and test arrays."""
    classes = np.argmax(task.Y, axis=1)
    train_idx, test_idx = [], []
    for c in range(task.n_classes):
        members = rng.permutation(np.flatnonzero(classes == c))
        n_test = int(round(test_fraction * members.size))
        n_test = min(n_test, members.size - 1)  # train keeps >= 1 per class
        test_idx.append(members[:n_test])
        train_idx.append(members[n_test:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    train = TaskData(name=task.name, X=task.X[:, train_idx], Y=task.Y[train_idx])
    return train, task.X[:, test_idx], task.Y[test_idx]


def _recovery(selections, support, count):
    """Per candidate, the share of min(count, |support|) support features
    selected, averaged over tasks; selections is (candidates, tasks, count)."""
    hits = np.isin(selections, support).sum(axis=-1)
    return (hits / min(count, len(support))).mean(axis=-1)


def _score_candidates(candidates, train_tasks, test_sets, counts, ridge, support):
    """Every candidate's mean test MAP over tasks (and recovery, when a
    support is known) at every feature count, from classifiers trained on
    the selected features of the labeled samples.

    candidates holds each candidate's per-task rankings.  At each task and
    count the selected feature rows of all m candidates form one
    (m, count, n) stack, trained and scored in one batched call each.
    Returns {count: (MAP, recovery)}, both (m,) arrays, recovery None
    without a support.
    """
    labeled = [np.flatnonzero(task.labeled_mask) for task in train_tasks]
    X_train = [task.X[:, idx] for task, idx in zip(train_tasks, labeled)]
    Y_train = [task.Y[idx] for task, idx in zip(train_tasks, labeled)]
    res = {}
    for count in counts:
        # (candidate, task, feature) indices of the selected features
        selections = np.array([[select_top(r, count) for r in rankings]
                               for rankings in candidates])
        maps = []
        for l, (X, Y, (X_test, Y_test)) in enumerate(zip(X_train, Y_train, test_sets)):
            sel = selections[:, l]
            clf = train_ls_classifier(X[sel], Y, ridge)
            maps.append(mean_average_precision(clf.decision(X_test[sel]), Y_test))
        rec = None if support is None else _recovery(selections, support, count)
        res[count] = (np.stack(maps, axis=-1).mean(axis=-1), rec)
    return res


def _candidate_rankings(method, dataset, combos, hp, graphs):
    """Per-task rankings of each candidate: one per grid cell for sfmc, each
    model ranked as soon as it is fitted, and one for the baselines.

    A grid cell's caches depend on alpha and beta only through their
    product, so consecutive cells that one prepared set serves
    (PreparedTasks.serves), every gamma of an (alpha, beta) among them,
    share it.  At most one is alive.
    """
    if method == "sfmc":
        prepared = None
        for combo in combos:
            cell = replace(hp, **combo)
            if prepared is None or not prepared.serves(dataset, cell):
                prepared = None  # drop the last set before building the next
                prepared = prepare(dataset, cell, graphs)
            model = fit(dataset, cell, prepared=prepared)
            yield [rank_features(model, l) for l in range(model.n_tasks)]
    elif method == "fisher":
        yield [_rank_from_scores(fisher_score(t)) for t in dataset.tasks]
    else:  # all_features: identity ranking, scored at the full count only
        yield [_rank_from_scores(np.zeros(dataset.n_features)) for _ in dataset.tasks]


def run_experiment(
    dataset,
    methods,
    fractions,
    feature_counts,
    repeats,
    seed,
    grid=None,
    hp_base=None,
    test_fraction=0.5,
    ridge=1e-2,
):
    """Benchmark feature-selection methods over label fractions and counts.

    Per repeat: stratified train/test split of every (fully labeled) task,
    label masking at each fraction, fit/rank per method, then a regularized
    least-squares classifier on the selected features of the labeled samples,
    scored by mean average precision on the test split.  For the joint solver
    grid (alpha, beta or gamma to distinct values; hp_base gives the rest)
    is crossed, gamma innermost, and the best cell (by mean MAP over
    repeats) is reported; each split's task graphs are built once and shared
    by all its fits, and each label mask's per-task caches (solver.prepare)
    are built once per run of grid cells with the same alpha beta and shared
    by their fits, one fit call per cell.  Every
    candidate of a (repeat, fraction, method), each grid cell or the one
    baseline ranking, is scored together: one batched classifier and MAP
    call per task and count.  When the dataset carries a planted support,
    support-recovery precision at each count is reported as well.
    Repeats run in order.  Deterministic for a fixed seed.
    """
    methods = [m.lower() for m in methods]
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"unknown method {m!r}; choose from {METHODS}")
    if repeats < 1:
        raise ValidationError("repeats must be at least 1")
    if not 0 < test_fraction < 1:
        raise ValidationError("test_fraction must be in (0, 1)")
    _check_ridge(ridge)
    for task in dataset.tasks:
        if not task.labeled_mask.all():
            raise ValidationError(
                "run_experiment expects a fully labeled dataset; label fractions "
                "are applied internally"
            )
    d = dataset.n_features
    feature_counts = sorted(set(int(c) for c in feature_counts))
    for c in feature_counts:
        if not 1 <= c <= d:
            raise ValidationError(f"feature count {c} out of range [1, {d}]")
    # a fraction's mask seed depends on its position, so duplicates are
    # rejected rather than merged; a repeated method would run and report
    # its cells twice, and a repeated grid value would fit each of its cells
    # more than once
    if len(set(fractions)) < len(fractions):
        raise ValidationError(f"duplicate label fractions in {list(fractions)}")
    if len(set(methods)) < len(methods):
        raise ValidationError(f"duplicate methods in {methods}")
    hp_base = hp_base if hp_base is not None else Hyperparams()
    grid = grid or {}
    for name, values in grid.items():
        if name not in ("alpha", "beta", "gamma"):
            raise ValidationError(f"unknown grid key {name!r}; choose alpha, beta or gamma")
        if len(values) == 0:
            raise ValidationError(f"empty {name} grid")
        if len(set(values)) < len(values):
            raise ValidationError(f"duplicate {name} grid values in {list(values)}")
    combos = [
        dict(zip(("alpha", "beta", "gamma"), vals))
        for vals in itertools.product(
            grid.get("alpha", [hp_base.alpha]),
            grid.get("beta", [hp_base.beta]),
            grid.get("gamma", [hp_base.gamma]),
        )
    ]
    counts = {m: [d] if m == "all_features" else feature_counts for m in methods}

    # per repeat: (method, fraction) -> (per-candidate {count: (MAP, recovery)}, seconds)
    repeat_results = []
    for rep in range(repeats):
        rng = np.random.default_rng([seed, rep])
        splits = [_stratified_split(t, rng, test_fraction) for t in dataset.tasks]
        test_sets = [(s[1], s[2]) for s in splits]
        train_ds = MultiTaskDataset(tasks=tuple(s[0] for s in splits),
                                    metadata=dataset.metadata)
        hp = replace(hp_base, k=min(hp_base.k, min(t.n_samples for t in train_ds.tasks)))
        # masking labels leaves X alone, so every fit of this split shares
        # one graph per task
        graphs = build_graphs(train_ds, hp) if "sfmc" in methods else None
        scores = {}
        for fi, fraction in enumerate(fractions):
            masked = apply_label_fraction(train_ds, fraction, _child_seed(seed, rep, fi))
            for method in methods:
                t0 = time.perf_counter()
                candidates = list(_candidate_rankings(method, masked, combos, hp, graphs))
                table = _score_candidates(candidates, masked.tasks, test_sets,
                                          counts[method], ridge, dataset.support)
                scores[method, fraction] = (table, time.perf_counter() - t0)
        repeat_results.append(scores)

    cells = []
    for method in methods:
        for fraction in fractions:
            runs = [r[method, fraction] for r in repeat_results]
            for count in counts[method]:
                # one row per candidate, one column per repeat
                maps = np.stack([table[count][0] for table, _ in runs], axis=-1)
                means = maps.mean(axis=-1)
                ci = int(np.argmax(means))  # first wins ties
                recovery = {}
                if dataset.support is not None:
                    recs = np.array([table[count][1][ci] for table, _ in runs])
                    recovery = dict(
                        recovery_mean=float(np.mean(recs)), recovery_std=float(np.std(recs)),
                        recovery_per_repeat=tuple(recs.tolist()))
                cells.append(CellResult(
                    method=method, fraction=float(fraction), count=int(count),
                    map_mean=float(means[ci]), map_std=float(np.std(maps[ci])),
                    map_per_repeat=tuple(maps[ci].tolist()),
                    best_params=combos[ci] if method == "sfmc" else None,
                    runtime_s=float(np.mean([t for _, t in runs])), **recovery))
    return ExperimentReport(
        cells=tuple(cells),
        methods=tuple(methods),
        fractions=tuple(float(f) for f in fractions),
        feature_counts=tuple(feature_counts),
        repeats=repeats,
        seed=seed,
        test_fraction=test_fraction,
    )
