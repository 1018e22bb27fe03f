"""Multi-task dataset model, manifest ingestion, label masking, synthetic data.

On disk, a dataset is a JSON manifest referencing one feature CSV and one
label CSV per task.  CSVs are header-free;
feature files hold one sample per row.  In memory each task keeps its feature
matrix sample-per-column (d x n), so ``load_manifest``/``write_manifest``
transpose explicitly.
"""

import json
import math
import numbers
import reprlib
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np


class ValidationError(ValueError):
    """Input data or configuration violates the dataset contract."""


def _shown(value):
    """value spelled as JSON, or its repr where JSON cannot encode it.

    For error messages, so cut as reprlib cuts a long string: to 30
    characters.  An int too long for str (Python's int_max_str_digits, 4300
    by default) is described by its number of digits.
    """
    try:
        s = json.dumps(value, ensure_ascii=False, allow_nan=False)
    except (TypeError, ValueError):
        if isinstance(value, int):
            # |value| has g or g + 1 digits, g from its bit length
            g = int(abs(value).bit_length() * math.log10(2))
            return f"an integer of {g + (abs(value) >= 10 ** g)} digits"
        return reprlib.repr(value)
    return s if len(s) <= 30 else s[:13] + "..." + s[-14:]


def check_json(value, spec, where):
    """Return value after checking it against spec, a JSON type description.

    A spec is bool, int, float or str; [item], a non-empty list (or, from
    Python callers, tuple) of item; or {key: spec}, an object whose keys
    ending in "?" are optional and whose keys the spec does not name are
    ignored.  A bool is not a number, numbers are finite, and an int too
    large for a float is refused.  where is the value's JSON location (""
    for a whole document), and every error names the location at fault.
    """
    if isinstance(spec, dict):
        ok, kind = isinstance(value, dict), "an object"
    elif isinstance(spec, list):
        ok, kind = isinstance(value, (list, tuple)) and len(value) > 0, "a non-empty list"
    elif spec is bool or spec is str:
        ok, kind = isinstance(value, spec), "true or false" if spec is bool else "a string"
    else:
        # bool is an int subclass, but true is no number
        ok = not isinstance(value, bool) and isinstance(
            value, numbers.Integral if spec is int else numbers.Real)
        kind = "an integer" if spec is int else "a finite number"
        try:
            ok = ok and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            ok, kind = False, "a number that fits a float"
    if not ok:
        raise ValidationError(f"{where or 'the document'} must be {kind}, "
                              f"got {_shown(value)}")
    if isinstance(spec, dict):
        for key, item in spec.items():
            name = key.rstrip("?")
            at = f"{where}.{name}" if where else name
            if name in value:
                check_json(value[name], item, at)
            elif name == key:
                raise ValidationError(f"{at} is missing")
    elif isinstance(spec, list):
        for i, item in enumerate(value):
            check_json(item, spec[0], f"{where}[{i}]")
    return value


def read_json(path, spec, what):
    """Parse the JSON file at path and check it against spec (see check_json).

    Every error reads "<what> <path>: ..." and names the JSON location at
    fault.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{what} {path}: file not found")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        # malformed JSON or UTF-8, or an integer of more digits than
        # Python's int_max_str_digits allows
        raise ValidationError(f"{what} {path}: not valid JSON: {exc}") from exc
    try:
        return check_json(doc, spec, "")
    except ValidationError as exc:
        raise ValidationError(f"{what} {path}: {exc}") from exc


def _frozen(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TaskData:
    """One task: features and one-hot labels.

    X is d x n (sample per column), Y is n x c with 0/1 entries.  A labeled
    sample has exactly one 1 in its Y row; an unlabeled sample's row is all
    zeros.  Arrays are made read-only so tasks can be shared freely.  X is
    held in Fortran order, the layout ``load_manifest`` reads, so a fit does
    not depend on the memory layout the caller passed.
    """

    name: str
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", _frozen(np.asfortranarray(self.X, dtype=np.float64)))
        object.__setattr__(self, "Y", _frozen(np.asarray(self.Y, dtype=np.float64)))
        self._validate()

    def _validate(self):
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ValidationError(f"task {self.name!r}: X and Y must be 2-D")
        n = self.X.shape[1]
        if self.Y.shape[0] != n:
            raise ValidationError(
                f"task {self.name!r}: {n} samples in X but {self.Y.shape[0]} label rows"
            )
        if not np.isfinite(self.X).all():
            raise ValidationError(f"task {self.name!r}: non-finite feature value")
        if not np.isin(self.Y, (0.0, 1.0)).all():
            raise ValidationError(f"task {self.name!r}: label entries must be 0 or 1")
        bad = np.flatnonzero(self.Y.sum(axis=1) > 1)
        if bad.size:
            raise ValidationError(
                f"task {self.name!r}: sample {bad[0]} must have at most one 1 in its "
                f"label row"
            )
        if self.n_labeled < 1:
            raise ValidationError(f"task {self.name!r}: needs at least one labeled sample")

    @cached_property
    def labeled_mask(self):
        """Which samples are labeled: those whose label row holds a 1."""
        return _frozen(self.Y.any(axis=1))

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
            check_json(self.feature_names, MANIFEST["feature_names?"], "feature_names")
            if len(self.feature_names) != d:
                raise ValidationError(f"feature_names must list {d} names, "
                                      f"got {len(self.feature_names)}")
            object.__setattr__(self, "feature_names", tuple(self.feature_names))
        check_json(self.metadata, MANIFEST["metadata?"], "metadata")
        support = self.metadata.get("support", ())
        for i, j in enumerate(support):
            if not 0 <= j < d or j in support[:i]:
                problem = "repeats an earlier entry" if 0 <= j < d else f"is outside [0, {d})"
                raise ValidationError(f"metadata.support[{i}] = {j} {problem}")

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
    # a directory is no CSV either
    if not path.is_file():
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


def _read_task_csv(base, entry, i, key):
    """The CSV that manifest task entry i names under key, relative to base.

    Errors name the key, as "tasks[i].<key>: ...".
    """
    if not entry[key]:
        raise ValidationError(f"tasks[{i}].{key} is an empty path")
    try:
        return _read_matrix_csv(base / entry[key])
    except ValidationError as exc:
        raise ValidationError(f"tasks[{i}].{key}: {exc}") from exc


# The manifest's JSON form.  CSV paths are relative to the manifest file,
# and an older manifest's labeled_mask_csv names a 0/1 column checked
# against the labels.
MANIFEST = {
    "tasks": [{"name": str, "features_csv": str, "labels_csv": str,
               "labeled_mask_csv?": str}],
    "feature_names?": [str],
    "metadata?": {"support?": [int]},
}


def load_manifest(path):
    """Load a MultiTaskDataset from a JSON manifest of the form MANIFEST.

    A sample is labeled iff its label row holds a 1.  The legacy mask file,
    when named, is only checked against the labels.  Every error reads
    "manifest <path>: ...".
    """
    path = Path(path)
    doc = read_json(path, MANIFEST, "manifest")
    tasks = []
    try:
        for i, entry in enumerate(doc["tasks"]):
            # task names key the outputs
            if entry["name"] in [t.name for t in tasks]:
                raise ValidationError(
                    f"tasks[{i}].name {entry['name']!r} repeats an earlier task's")
            X_rows = _read_task_csv(path.parent, entry, i, "features_csv")
            Y = _read_task_csv(path.parent, entry, i, "labels_csv")
            task = TaskData(name=entry["name"], X=X_rows.T, Y=Y)
            if "labeled_mask_csv" in entry:
                # an older manifest's mask file sets nothing; it is checked as input
                mask = _read_task_csv(path.parent, entry, i, "labeled_mask_csv").ravel()
                if not np.array_equal(mask, task.labeled_mask):
                    raise ValidationError(
                        f"tasks[{i}].labeled_mask_csv: {entry['labeled_mask_csv']} must "
                        "hold 1 for each sample with a label, 0 for the rest")
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
    except ValidationError as exc:
        raise ValidationError(f"manifest {path}: {exc}") from exc


def write_manifest(ds, out_dir):
    """Write a dataset as out_dir/manifest.json + CSV files; returns the manifest path.

    Feature values are printed with 17 significant digits so a write/load
    round trip is bit-exact.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, task in enumerate(ds.tasks):
        feat = f"task{i}_features.csv"
        lab = f"task{i}_labels.csv"
        np.savetxt(out_dir / feat, task.X.T, delimiter=",", fmt="%.17g")
        np.savetxt(out_dir / lab, task.Y.astype(int), delimiter=",", fmt="%d")
        entries.append({"name": task.name, "features_csv": feat, "labels_csv": lab})
    doc = {"tasks": entries}
    if ds.feature_names is not None:
        doc["feature_names"] = list(ds.feature_names)
    if ds.metadata:
        doc["metadata"] = ds.metadata
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return manifest


def _stratified_counts(class_sizes, m):
    """Split a labeled budget m across classes: one each, rest proportional.

    Largest-remainder rounding, ties broken by lower class index.  The caller
    ensures C <= m <= sum(class_sizes), so each class's share of the rest is
    at most its size less one, and only classes with a fractional share take
    a remainder: no count exceeds its class's size.
    """
    class_sizes = np.asarray(class_sizes, dtype=int)
    avail = class_sizes - 1
    ideal = (m - len(class_sizes)) * avail / max(avail.sum(), 1)
    base = np.floor(ideal)
    counts = 1 + base.astype(int)
    order = np.argsort(base - ideal, kind="stable")
    counts[order[:m - counts.sum()]] += 1
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
        new_Y = np.zeros_like(task.Y)
        new_Y[keep] = task.Y[keep]
        new_tasks.append(TaskData(name=task.name, X=task.X, Y=new_Y))
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
        tasks.append(TaskData(name=f"task_{ti}", X=X, Y=Y))
    return MultiTaskDataset(
        tasks=tuple(tasks),
        metadata={"support": [int(j) for j in support]},
    )
