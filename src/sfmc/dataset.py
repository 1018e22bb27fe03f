"""Multi-task dataset model, manifest ingestion, label masking, synthetic data.

On disk, a dataset is a JSON manifest referencing one feature CSV and one
label CSV per task (plus an optional labeled-mask CSV).  CSVs are header-free;
feature files hold one sample per row.  In memory each task keeps its feature
matrix sample-per-column (d x n), so ``load_manifest``/``write_manifest``
transpose explicitly.
"""

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class ValidationError(ValueError):
    """Input data or configuration violates the dataset contract."""


def _frozen(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TaskData:
    """One task: features, one-hot labels, and the labeled/unlabeled split.

    X is d x n (sample per column), Y is n x c with 0/1 entries.  A labeled
    sample has exactly one 1 in its Y row; an unlabeled sample's row is all
    zeros.  Arrays are made read-only so tasks can be shared freely.  X is
    held in Fortran order, the layout ``load_manifest`` reads, so a fit does
    not depend on the memory layout the caller passed.
    """

    name: str
    X: np.ndarray
    Y: np.ndarray
    labeled_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", _frozen(np.asfortranarray(self.X, dtype=np.float64)))
        object.__setattr__(self, "Y", _frozen(np.asarray(self.Y, dtype=np.float64)))
        object.__setattr__(
            self, "labeled_mask", _frozen(np.asarray(self.labeled_mask, dtype=bool))
        )
        self._validate()

    def _validate(self):
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ValidationError(f"task {self.name!r}: X and Y must be 2-D")
        n = self.X.shape[1]
        if self.Y.shape[0] != n:
            raise ValidationError(
                f"task {self.name!r}: {n} samples in X but {self.Y.shape[0]} label rows"
            )
        if self.labeled_mask.shape != (n,):
            raise ValidationError(f"task {self.name!r}: labeled_mask must have length {n}")
        if not np.isfinite(self.X).all():
            raise ValidationError(f"task {self.name!r}: non-finite feature value")
        if not np.isin(self.Y, (0.0, 1.0)).all():
            raise ValidationError(f"task {self.name!r}: label entries must be 0 or 1")
        row_sums = self.Y.sum(axis=1)
        bad = np.flatnonzero(self.labeled_mask & (row_sums != 1.0))
        if bad.size:
            raise ValidationError(
                f"task {self.name!r}: labeled sample {bad[0]} must have exactly one 1 "
                f"in its label row"
            )
        bad = np.flatnonzero(~self.labeled_mask & (row_sums != 0.0))
        if bad.size:
            raise ValidationError(
                f"task {self.name!r}: unlabeled sample {bad[0]} must have an all-zero "
                f"label row"
            )
        if self.n_labeled < 1:
            raise ValidationError(f"task {self.name!r}: needs at least one labeled sample")

    @property
    def n_features(self):
        return self.X.shape[0]

    @property
    def n_samples(self):
        return self.X.shape[1]

    @property
    def n_labeled(self):
        return int(self.labeled_mask.sum())

    @property
    def n_classes(self):
        return self.Y.shape[1]


@dataclass(frozen=True)
class MultiTaskDataset:
    """An ordered collection of tasks over one shared feature space."""

    tasks: tuple
    feature_names: tuple = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if len(self.tasks) < 1:
            raise ValidationError("dataset needs at least one task")
        d = self.tasks[0].n_features
        for task in self.tasks[1:]:
            if task.n_features != d:
                raise ValidationError(
                    f"feature dimension mismatch: task {self.tasks[0].name!r} has {d} "
                    f"features but task {task.name!r} has {task.n_features}"
                )
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != d:
                raise ValidationError(f"feature_names must have length {d}")
            object.__setattr__(self, "feature_names", names)

    @property
    def n_tasks(self):
        return len(self.tasks)

    @property
    def n_features(self):
        return self.tasks[0].n_features

    @property
    def support(self):
        """Planted ground-truth support indices, or None for real data."""
        sup = self.metadata.get("support")
        return None if sup is None else [int(j) for j in sup]


@dataclass(frozen=True)
class SynthConfig:
    """Controls for the planted-support synthetic generator."""

    d: int = 50
    s: int = 8
    t: int = 3
    n_per_task: int = 100
    c: int = 2
    signal_strength: float = 1.0
    noise_sigma: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.s <= self.d:
            raise ValidationError(f"need 1 <= s <= d, got s={self.s}, d={self.d}")
        if self.t < 1:
            raise ValidationError("need at least one task")
        if self.c < 2:
            raise ValidationError("need at least two classes per task")
        if self.n_per_task < self.c:
            raise ValidationError("need at least one sample per class")
        if self.signal_strength <= 0:
            raise ValidationError("signal_strength must be positive")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be non-negative")


def _read_matrix_csv(path):
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    try:
        # an empty file is reported below, by name, instead of by numpy's warning
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"could not parse {path}: {exc}") from exc
    if data.size == 0:
        raise ValidationError(f"{path} holds no data")
    return data


def load_manifest(path):
    """Load a MultiTaskDataset from a JSON manifest.

    The manifest is ``{"tasks": [{"name", "features_csv", "labels_csv",
    "labeled_mask_csv"?}], "feature_names"?, "metadata"?}`` with CSV paths
    relative to the manifest file.  When the mask file is absent, a sample
    counts as labeled iff its label row is nonzero.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("tasks"), list):
        raise ValidationError(f"manifest {path} must be an object with a 'tasks' list")

    base = path.parent
    tasks = []
    for i, entry in enumerate(doc["tasks"]):
        if not isinstance(entry, dict):
            raise ValidationError(f"manifest task {i} must be an object")
        missing = {"name", "features_csv", "labels_csv"} - set(entry)
        if missing:
            raise ValidationError(f"manifest task {i} missing keys: {sorted(missing)}")
        paths = (entry["features_csv"], entry["labels_csv"], entry.get("labeled_mask_csv") or "")
        if not all(isinstance(p, str) for p in paths):
            raise ValidationError(f"manifest task {i}: CSV paths must be strings")
        X_rows = _read_matrix_csv(base / entry["features_csv"])
        Y = _read_matrix_csv(base / entry["labels_csv"])
        if "labeled_mask_csv" in entry and entry["labeled_mask_csv"]:
            mask = _read_matrix_csv(base / entry["labeled_mask_csv"]).ravel()
            if not np.isin(mask, (0.0, 1.0)).all():
                raise ValidationError(
                    f"task {entry['name']!r}: mask entries must be 0 or 1"
                )
            mask = mask.astype(bool)
        else:
            mask = Y.sum(axis=1) > 0
        task = TaskData(name=str(entry["name"]), X=X_rows.T, Y=Y, labeled_mask=mask)
        constant = np.flatnonzero(np.ptp(task.X, axis=1) == 0)
        if constant.size:
            warnings.warn(
                f"task {task.name!r}: features {constant.tolist()} are constant "
                f"across all samples",
                stacklevel=2,
            )
        tasks.append(task)

    return MultiTaskDataset(
        tasks=tuple(tasks),
        feature_names=doc.get("feature_names"),
        metadata=doc.get("metadata", {}),
    )


def write_manifest(ds, out_dir, manifest_name="manifest.json"):
    """Write a dataset as manifest + CSV files; returns the manifest path.

    Feature values are printed with 17 significant digits so a write/load
    round trip is bit-exact.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, task in enumerate(ds.tasks):
        feat = f"task{i}_features.csv"
        lab = f"task{i}_labels.csv"
        msk = f"task{i}_mask.csv"
        np.savetxt(out_dir / feat, task.X.T, delimiter=",", fmt="%.17g")
        np.savetxt(out_dir / lab, task.Y.astype(int), delimiter=",", fmt="%d")
        np.savetxt(out_dir / msk, task.labeled_mask.astype(int), fmt="%d")
        entries.append(
            {"name": task.name, "features_csv": feat, "labels_csv": lab,
             "labeled_mask_csv": msk}
        )
    doc = {"tasks": entries}
    if ds.feature_names is not None:
        doc["feature_names"] = list(ds.feature_names)
    if ds.metadata:
        doc["metadata"] = ds.metadata
    manifest = out_dir / manifest_name
    manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return manifest


def _stratified_counts(class_sizes, m):
    """Split a labeled budget m across classes: one each, rest proportional.

    Largest-remainder rounding, ties broken by lower class index; counts are
    capped by class size.
    """
    class_sizes = np.asarray(class_sizes, dtype=int)
    counts = np.ones(len(class_sizes), dtype=int)
    avail = class_sizes - 1
    rest = m - len(class_sizes)
    if rest > 0:
        ideal = rest * avail / max(avail.sum(), 1)
        base = np.minimum(np.floor(ideal).astype(int), avail)
        counts += base
        left = rest - base.sum()
        order = np.lexsort((np.arange(len(class_sizes)), -(ideal - np.floor(ideal))))
        while left > 0:
            progressed = False
            for c in order:
                if left == 0:
                    break
                if counts[c] < class_sizes[c]:
                    counts[c] += 1
                    left -= 1
                    progressed = True
            if not progressed:
                raise ValidationError("labeled budget exceeds available samples")
    return counts


def apply_label_fraction(ds, fraction, seed):
    """Keep labels for ceil(fraction * n) samples per task, zero the rest.

    Sampling is stratified over the currently labeled samples so every class
    keeps at least one labeled representative; deterministic for a fixed seed.
    """
    if not 0 < fraction <= 1:
        raise ValidationError(f"fraction must be in (0, 1], got {fraction}")
    new_tasks = []
    for ti, task in enumerate(ds.tasks):
        n = task.n_samples
        # guard against float fuzz pushing an exact multiple over the ceiling
        m = int(math.ceil(fraction * n - 1e-9))
        m = min(max(m, 1), n)
        labeled_idx = np.flatnonzero(task.labeled_mask)
        classes = np.argmax(task.Y[labeled_idx], axis=1)
        class_ids = np.arange(task.n_classes)
        sizes = np.array([(classes == c).sum() for c in class_ids])
        if (sizes == 0).any():
            missing = int(np.flatnonzero(sizes == 0)[0])
            raise ValidationError(
                f"task {task.name!r}: class {missing} has no labeled sample"
            )
        if m < task.n_classes:
            raise ValidationError(
                f"task {task.name!r}: fraction {fraction} keeps {m} labels, fewer "
                f"than the {task.n_classes} classes"
            )
        if m > task.n_labeled:
            raise ValidationError(
                f"task {task.name!r}: fraction {fraction} needs {m} labeled samples "
                f"but only {task.n_labeled} are labeled"
            )
        rng = np.random.default_rng([seed, ti])
        counts = _stratified_counts(sizes, m)
        keep = []
        for c in class_ids:
            members = labeled_idx[classes == c]
            keep.append(rng.permutation(members)[: counts[c]])
        keep = np.sort(np.concatenate(keep))
        new_mask = np.zeros(n, dtype=bool)
        new_mask[keep] = True
        new_Y = np.zeros_like(task.Y)
        new_Y[keep] = task.Y[keep]
        new_tasks.append(
            TaskData(name=task.name, X=task.X, Y=new_Y, labeled_mask=new_mask)
        )
    return MultiTaskDataset(
        tasks=tuple(new_tasks), feature_names=ds.feature_names, metadata=ds.metadata
    )


def generate_synthetic(cfg):
    """Generate a fully labeled multi-task dataset with a planted support.

    All tasks share one support of cfg.s feature indices.  Per task, class
    means differ only on the support (per-dimension spread across classes is
    scaled to cfg.signal_strength); every dimension additionally carries
    i.i.d. Gaussian noise of std cfg.noise_sigma.  The support is recorded in
    the dataset metadata so evaluation can score recovery.
    """
    rng = np.random.default_rng(cfg.seed)
    support = np.sort(rng.choice(cfg.d, size=cfg.s, replace=False))
    tasks = []
    for ti in range(cfg.t):
        means = rng.standard_normal((cfg.c, cfg.s))
        means -= means.mean(axis=0)
        spread = means.std(axis=0)
        spread[spread < 1e-9] = 1.0
        means = cfg.signal_strength * means / spread
        labels = np.arange(cfg.n_per_task) % cfg.c
        X = cfg.noise_sigma * rng.standard_normal((cfg.d, cfg.n_per_task))
        X[support[:, None], np.arange(cfg.n_per_task)] += means[labels].T
        Y = np.zeros((cfg.n_per_task, cfg.c))
        Y[np.arange(cfg.n_per_task), labels] = 1.0
        tasks.append(
            TaskData(
                name=f"task_{ti}",
                X=X,
                Y=Y,
                labeled_mask=np.ones(cfg.n_per_task, dtype=bool),
            )
        )
    return MultiTaskDataset(
        tasks=tuple(tasks),
        metadata={"support": [int(j) for j in support]},
    )
