"""Wrappers that observe sfmc from outside: fit results always, spans when traced.

Each wrapper replaces a module attribute at the place its caller looks it up
(``sfmc.solver.build_task_laplacian`` is read by ``fit``, ``sfmc.cli.fit`` by
the ``fit`` command, ...), so no program file changes.  A name that no longer
exists is skipped and its layer reports zero calls.  Spans stay in memory
until the run ends; ``layer_metrics`` turns them into per-pass self times.

The per-clique ``local_laplacian`` is deliberately not wrapped: it runs once
per sample, and its wrapper would cost more than the work it times.
"""

import statistics
import time
import tracemalloc
from collections import defaultdict
from importlib import import_module

# (module where the caller looks the name up, attribute, span name)
TRACED = (
    ("sfmc.cli", "load_manifest", "dataset.load_manifest"),
    ("sfmc.select_eval", "apply_label_fraction", "dataset.apply_label_fraction"),
    ("sfmc.solver", "build_task_laplacian", "graph.build"),
    ("sfmc.graph", "knn_cliques", "graph.knn"),
    ("sfmc.solver", "precompute_task", "solver.precompute"),
    ("sfmc.solver", "solve_W", "solver.solve_W"),
    ("sfmc.solver", "update_Dtilde", "solver.update_Dtilde"),
    ("sfmc.solver", "update_Dl", "solver.update_Dl"),
    ("sfmc.solver", "solve_F", "solver.solve_F"),
    ("sfmc.solver", "solve_b", "solver.solve_b"),
    ("sfmc.solver", "objective", "solver.objective"),
    ("sfmc.solver.SelectionModel", "save", "solver.save"),
    ("sfmc.select_eval", "rank_features", "select_eval.rank_features"),
    ("sfmc.select_eval", "fisher_score", "select_eval.fisher_score"),
    ("sfmc.select_eval", "train_ls_classifier", "select_eval.train_ls_classifier"),
    ("sfmc.select_eval", "mean_average_precision", "select_eval.mean_average_precision"),
)
# spans whose peak Python-tracked allocation is recorded, on their first
# ALLOC_CALLS calls only: every call of one workload has the same sizes
ALLOC_TRACKED = {"graph.build", "solver.precompute"}
ALLOC_CALLS = 3
# the two places a fit is started from: the fit command and run_experiment
FIT_ENTRIES = (("sfmc.cli", "fit", "cli"), ("sfmc.select_eval", "fit", "select_eval"))
# reweighting-loop spans; calls before the first callback belong to the
# initial solve and are counted in solver.init_other_s instead
LOOP_SPANS = {
    "solver.solve_W": "solver.w_update_s",
    "solver.update_Dtilde": "solver.dtilde_s",
    "solver.update_Dl": "solver.dl_s",
    "solver.solve_F": "solver.f_update_s",
    "solver.solve_b": "solver.f_update_s",
    "solver.objective": "solver.objective_s",
}
OTHER_SPANS = {
    "graph.knn": "graph.knn_s",
    "graph.build": "graph.laplacian_self_s",
    "solver.precompute": "solver.precompute_s",
    "solver.save": "solver.save_s",
    "dataset.load_manifest": "dataset.load_manifest_s",
    "dataset.apply_label_fraction": "dataset.apply_label_fraction_s",
    "select_eval.rank_features": "select_eval.rank_s",
    "select_eval.fisher_score": "select_eval.fisher_s",
    "select_eval.train_ls_classifier": "select_eval.classifier_s",
    "select_eval.mean_average_precision": "select_eval.map_s",
}
# self-time metrics that partition the traced wall time; the rest of each
# pass is reported as trace.unattributed_s
ATTRIBUTED = sorted(set(LOOP_SPANS.values()) | set(OTHER_SPANS.values())
                    | {"solver.init_other_s"})


def _resolve(dotted):
    """Object at a dotted path like 'sfmc.solver.SelectionModel', or None."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class FitRecord:
    """One call to fit: its inputs, result, and (when traced) callback times."""

    __slots__ = ("entry", "dataset", "hp", "model", "start", "callbacks", "span")

    def __init__(self, entry, dataset, hp):
        self.entry = entry
        self.dataset = dataset
        self.hp = hp
        self.model = None
        self.start = 0.0
        self.callbacks = []
        self.span = -1


class Probe:
    """Patches sfmc entry points; restores them on close.

    Untraced, only the two fit entry points are wrapped, to hand each fit's
    inputs and model to the output checks.  Traced, every name in TRACED is
    wrapped as well and each call is recorded as a span
    [name, start, end, parent index, phase].  With track_alloc, the spans in
    ALLOC_TRACKED also record their peak allocation through tracemalloc,
    which slows the graph layer's per-clique loop about threefold, so
    allocation and time are measured in separate passes.
    """

    def __init__(self, traced, track_alloc=False):
        self.traced = traced
        self.track_alloc = track_alloc
        self.fits = []
        self.spans = []
        self.peak_alloc = defaultdict(float)
        self._alloc_calls = defaultdict(int)
        self._stack = []
        self._phase = "other"
        self._patches = []

    def install(self):
        for module, attr, entry in FIT_ENTRIES:
            self._patch(module, attr, lambda fn, entry=entry: self._fit_wrapper(entry, fn))
        if self.traced:
            for module, attr, name in TRACED:
                self._patch(module, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        return self

    def close(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_fits(self):
        fits, self.fits = self.fits, []
        return fits

    def _patch(self, module, attr, make_wrapper):
        owner = _resolve(module)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _open_span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close_span(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        tracked = self.track_alloc and name in ALLOC_TRACKED

        def wrapper(*args, **kwargs):
            rec = self._open_span(name)
            track = tracked and self._alloc_calls[name] < ALLOC_CALLS
            if track:
                self._alloc_calls[name] += 1
                tracemalloc.start()
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_span(rec)
                if track:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[name] = max(self.peak_alloc[name], peak)

        return wrapper

    def _fit_wrapper(self, entry, fn):
        def wrapper(dataset, hp, callback=None, **kwargs):
            rec = FitRecord(entry, dataset, hp)
            self.fits.append(rec)
            if not self.traced:
                rec.model = fn(dataset, hp, callback=callback, **kwargs)
                return rec.model

            def timed_callback(r, state):
                rec.callbacks.append(time.perf_counter())
                if r == 0:
                    self._phase = "loop"
                if callback is not None:
                    callback(r, state)

            span = self._open_span("solver.fit")
            rec.span = len(self.spans) - 1
            self._phase = "init"
            rec.start = span[1] = time.perf_counter()
            try:
                rec.model = fn(dataset, hp, callback=timed_callback, **kwargs)
                return rec.model
            finally:
                self._close_span(span)
                self._phase = "other"

        return wrapper


def _self_times(spans):
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    return self_t


def layer_metrics(probe, fits, passes, traced_wall_s, overhead_s, peak_alloc):
    """Per-layer table from a traced run, per pass unless the name says otherwise.

    fits: the FitRecords of the traced passes; traced_wall_s: their mean
    seconds per pass; overhead_s: traced minus untraced seconds per pass;
    peak_alloc: Probe.peak_alloc of a pass run with track_alloc.
    """
    spans = probe.spans
    self_t = _self_times(spans)
    sums = defaultdict(float)
    counts = defaultdict(int)
    for s, t in zip(spans, self_t):
        counts[s[0]] += 1
        if s[0] in LOOP_SPANS:
            if s[4] == "loop":
                sums[LOOP_SPANS[s[0]]] += t
        elif s[0] in OTHER_SPANS:
            sums[OTHER_SPANS[s[0]]] += t

    children = defaultdict(float)
    for s in spans:
        if s[3] >= 0 and s[0] in ("graph.build", "solver.precompute"):
            children[s[3]] += s[2] - s[1]
    iter_s = []
    init_other = 0.0
    unconverged = 0
    for f in fits:
        if f.callbacks:
            init_other += f.callbacks[0] - f.start - children[f.span]
            iter_s.extend(b - a for a, b in zip(f.callbacks, f.callbacks[1:]))
        if f.model is not None and not f.model.converged:
            unconverged += 1
    sums["solver.init_other_s"] = init_other

    out = {name: v / passes for name, v in sums.items()}
    out.update({
        "graph.build_calls": counts["graph.build"] / passes,
        "graph.peak_alloc_mb": peak_alloc["graph.build"] / 2**20,
        "solver.precompute_calls": counts["solver.precompute"] / passes,
        "solver.precompute_peak_alloc_mb": peak_alloc["solver.precompute"] / 2**20,
        "solver.iterations": len(iter_s) / passes,
        "solver.iter_s_p50": statistics.median(iter_s) if iter_s else 0.0,
        "solver.iter_s_total": sum(iter_s) / passes,
        "solver.unconverged_frac": unconverged / len(fits) if fits else 0.0,
        "select_eval.fit_calls": sum(f.entry == "select_eval" for f in fits) / passes,
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": overhead_s,
    })
    for name in ATTRIBUTED:
        out.setdefault(name, 0.0)
    out["trace.unattributed_s"] = traced_wall_s - sum(out[n] for n in ATTRIBUTED)
    return out
