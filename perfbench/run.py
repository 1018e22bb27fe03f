#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of sfmc.

    python3 perfbench/run.py --workload fit_large_n --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One caller runs the workload's commands in a closed loop, in
process, through ``sfmc.cli.main``: each pass runs every command once, and
passes repeat until --seconds have elapsed.  Inputs are generated from
--seed in set-up, which is repeated five times and reported as the median.
Every command's outputs are checked (exit code, finite non-increasing
objective traces, final objectives against perfbench/reference.json,
byte-identical outputs across passes).  End-to-end times are reported at a
reference machine speed; see Speedometer.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer table, from a run whose first half is
untraced and second half traced (the difference is trace.overhead_s),
followed by one pass that records allocation peaks.
--toy shrinks every workload to seconds, for the smoke test.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import probe as probe_mod

# numpy is imported inside functions only: pin_blas must run before it loads.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# reference seconds of Speedometer's three calibration parts (small
# eigensolves, interpreter loop, large matrix product)
CAL_REF_S = (0.05, 0.04, 0.12)
MONOTONE_RTOL = 1e-9  # acceptance criterion 1
MAP_TOL = 0.01        # absolute tolerance on a reference cell's MAP

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB",
    "converged_frac": "ratio", "map_mean": "ratio", "recovery_mean": "ratio",
}
PER_LAYER = {
    "graph.knn_s": "s", "graph.laplacian_self_s": "s", "graph.build_calls": "count",
    "graph.peak_alloc_mb": "MB",
    "solver.precompute_s": "s", "solver.precompute_calls": "count",
    "solver.precompute_peak_alloc_mb": "MB", "solver.init_other_s": "s",
    "solver.iterations": "count", "solver.iter_s_p50": "s", "solver.iter_s_total": "s",
    "solver.w_update_s": "s", "solver.dtilde_s": "s", "solver.dl_s": "s",
    "solver.f_update_s": "s", "solver.objective_s": "s",
    "solver.unconverged_frac": "ratio", "solver.save_s": "s",
    "dataset.load_manifest_s": "s", "dataset.apply_label_fraction_s": "s",
    "select_eval.fit_calls": "count", "select_eval.rank_s": "s",
    "select_eval.fisher_s": "s", "select_eval.classifier_s": "s",
    "select_eval.map_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

CORNERS = list(itertools.product((1, 100), (0.01, 1), (0.01, 100)))
EVAL_ARGS = ["--methods", "sfmc", "fisher", "--fractions", "0.05", "0.25", "1.0",
             "--beta-grid", "0.01", "1", "--gamma-grid", "0.01", "1", "100"]
# synth: SynthConfig fields; fraction: share of labels kept in the manifest
# (None: fully labeled, eval masks internally); hps: (alpha, beta, gamma) per
# fit command.
WORKLOADS = {
    "fit_large_n": {
        "full": dict(synth=dict(d=100, s=10, t=3, n_per_task=1500), k=15),
        "toy": dict(synth=dict(d=20, s=4, t=2, n_per_task=60), k=5),
        "fraction": 0.1, "hps": [(1, 0.01, 1)],
    },
    "fit_grid_corners": {
        "full": dict(synth=dict(d=200, s=10, t=3, n_per_task=150, noise_sigma=1.0), k=10),
        "toy": dict(synth=dict(d=20, s=4, t=2, n_per_task=40, noise_sigma=1.0), k=5),
        "fraction": 0.2, "hps": CORNERS,
    },
    "eval_sweep": {
        "full": dict(synth=dict(d=50, s=8, t=3, n_per_task=200, noise_sigma=1.1), k=15,
                     extra=["--counts", "8", "16", "--repeats", "3"]),
        "toy": dict(synth=dict(d=20, s=4, t=2, n_per_task=60, noise_sigma=1.1), k=5,
                    extra=["--counts", "4", "8", "--repeats", "1"]),
        "fraction": None, "hps": None,
    },
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs for the smoke test")
    return p.parse_args(argv)


def pin_blas():
    """Cap BLAS threads before numpy loads; threadpoolctl is not available."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_sfmc():
    """Import sfmc from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sfmc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sfmc sources under {src}; run from a checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import sfmc
    import sfmc.cli
    if Path(sfmc.__file__).resolve().parent != (src / "sfmc").resolve():
        raise SystemExit(f"perfbench: imported sfmc from {sfmc.__file__}, not {src}")
    return sfmc


def environment(seed):
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "blas": vendor, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "seed": seed}


def load_reference(mode, workload, seed):
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(mode, {}).get(workload, {}).get(str(seed))


def fit_key(dataset, hp):
    """Digest of one fit's inputs, so reference objectives survive reordering."""
    h = hashlib.sha1(repr((hp.alpha, hp.beta, hp.gamma, hp.lam, hp.k, hp.max_iter,
                           hp.rel_tol)).encode())
    for task in dataset.tasks:
        for a in (task.X, task.Y, task.labeled_mask):
            h.update(a.tobytes())
    return h.hexdigest()[:16]


def average_precision(scores, relevant):
    """Mean precision at the rank of each relevant item, by descending score.

    Ties go to the lower index.  Written here rather than taken from sfmc so
    the quality metrics do not depend on the code they measure.
    """
    import numpy as np
    rel = np.asarray(relevant, dtype=bool)[np.lexsort((np.arange(len(scores)), -scores))]
    return float((np.cumsum(rel)[rel] / (np.flatnonzero(rel) + 1)).mean())


class Bench:
    """One workload at one seed: inputs, commands, checks and metrics."""

    def __init__(self, sfmc, name, seed, toy, workdir):
        self.sfmc = sfmc
        self.seed = seed
        self.spec = WORKLOADS[name]
        self.size = self.spec["toy" if toy else "full"]
        self.workdir = workdir
        self.reference = load_reference("toy" if toy else "full", name, seed)
        self.full = None
        self.masked = None
        self.manifest = None
        self.first_outputs = {}

    # -- set-up -----------------------------------------------------------
    def setup(self):
        """Generate inputs and write the manifest; returns seconds taken."""
        sfmc = self.sfmc
        t0 = time.perf_counter()
        self.full = sfmc.generate_synthetic(
            sfmc.SynthConfig(seed=self.seed, **self.size["synth"]))
        frac = self.spec["fraction"]
        self.masked = (self.full if frac is None
                       else sfmc.apply_label_fraction(self.full, frac, self.seed))
        self.manifest = sfmc.write_manifest(self.masked, self.workdir / "data")
        self._warm_up()
        return time.perf_counter() - t0

    def _warm_up(self):
        """One tiny fit so lazy imports inside numpy/scipy are not timed."""
        sfmc = self.sfmc
        ds = sfmc.generate_synthetic(sfmc.SynthConfig(d=6, s=2, t=2, n_per_task=12, seed=0))
        sfmc.fit(sfmc.apply_label_fraction(ds, 0.5, 0), sfmc.Hyperparams(k=3, max_iter=2))

    # -- commands ---------------------------------------------------------
    def commands(self):
        """(argv, output path) per command of one pass."""
        common = ["--k", str(self.size["k"]), "--seed", str(self.seed)]
        if self.spec["hps"] is None:
            out = self.workdir / "report.json"
            return [(["eval", str(self.manifest), "--out", str(out)] + EVAL_ARGS
                     + self.size["extra"] + common, out)]
        cmds = []
        for i, (a, b, g) in enumerate(self.spec["hps"]):
            out = self.workdir / f"model{i}.json"
            cmds.append((["fit", str(self.manifest), "--out", str(out),
                          "--alpha", repr(a), "--beta", repr(b), "--gamma", repr(g)]
                         + common, out))
        return cmds

    # -- checks -----------------------------------------------------------
    def check(self, index, code, out_path, fits):
        """Problems with one command's outputs; an empty list means it passed."""
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        data = out_path.read_bytes()
        first = self.first_outputs.setdefault(index, data)
        if data != first:
            problems.append(f"{out_path.name} differs from the first pass")
        for f in fits:
            problems += self._check_fit(f)
        if self.spec["hps"] is None and self.reference is not None:
            problems += self._check_report(json.loads(data))
        return problems

    def _check_fit(self, rec):
        import numpy as np
        trace = np.asarray(rec.model.objective_trace, dtype=np.float64)
        problems = []
        if not np.isfinite(trace).all():
            problems.append("non-finite objective")
        elif not np.all(trace[1:] <= trace[:-1] * (1 + MONOTONE_RTOL)):
            problems.append("objective increased")
        if self.reference is not None:
            ref = self.reference["fits"].get(fit_key(rec.dataset, rec.hp))
            if ref is None:
                problems.append("fit inputs not in the reference")
            elif trace[-1] > ref + rec.hp.rel_tol * abs(ref):
                problems.append(f"final objective {float(trace[-1])!r} above reference {ref!r}")
        return problems

    def _check_report(self, report):
        got = {(c["method"], c["fraction"], c["count"]): c for c in report["cells"]}
        problems = []
        for ref in self.reference["cells"]:
            cell = got.get((ref["method"], ref["fraction"], ref["count"]))
            if cell is None:
                problems.append(f"missing cell {ref['method']} {ref['fraction']} {ref['count']}")
                continue
            if abs(cell["map_mean"] - ref["map_mean"]) > MAP_TOL:
                problems.append(f"cell MAP {cell['map_mean']} vs reference {ref['map_mean']}")
            # another best cell is accepted only if it scores at least as well
            if (cell.get("best_params") != ref.get("best_params")
                    and cell["map_mean"] < ref["map_mean"]):
                problems.append(f"best params {cell.get('best_params')} score below reference")
        return problems

    # -- quality ----------------------------------------------------------
    def quality(self, fits, outputs):
        """(map_mean, recovery_mean) of one pass's outputs."""
        import numpy as np
        if self.spec["hps"] is None:
            cells = [c for c in json.loads(outputs[0].read_text())["cells"]
                     if c["method"] == "sfmc"]
            return (float(np.mean([c["map_mean"] for c in cells])),
                    float(np.mean([c["recovery_mean"] for c in cells])))
        support = np.zeros(self.full.n_features, dtype=bool)
        support[self.full.support] = True
        maps, recs = [], []
        for rec in fits:
            W, b = rec.model.W, rec.model.b
            for l, (task, masked) in enumerate(zip(self.full.tasks, self.masked.tasks)):
                unl = ~masked.labeled_mask
                scores = task.X[:, unl].T @ W[l] + b[l]
                maps += [average_precision(scores[:, c], task.Y[unl, c] > 0)
                         for c in range(task.Y.shape[1]) if task.Y[unl, c].any()]
            recs.append(average_precision(np.sum(rec.model.feature_scores, axis=0), support))
        return float(np.mean(maps)), float(np.mean(recs))


class Speedometer:
    """Converts measured seconds into seconds at a fixed reference speed.

    The 2-core x86-64 VM this benchmark was tuned on changes speed
    by 20-30% for tens of seconds at a time while its neighbours come and
    go.  So a calibration kernel runs before and after every timed interval:
    small eigensolves, an interpreter loop, and products of 1000 x 1000
    matrices, the three kinds of work sfmc does.  None of it is
    sfmc code, so a change to sfmc scales one-for-one.  Each part's time is
    divided by its reference time in CAL_REF_S, and the interval is divided
    by the mean of those ratios over the two calibrations.  perfbench/README.md
    gives the spreads it removed on that VM.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((200, 200))
        # preallocated, so the run's peak RSS carries a constant 16 MB for it
        # rather than a fresh 8 MB product on top of whatever sfmc holds
        self._big = rng.standard_normal((1000, 1000))
        self._out = np.empty_like(self._big)
        self.factors = []
        self._last = self.measure()

    def measure(self):
        """Seconds of each calibration part, as ratios to CAL_REF_S."""
        np = self._np
        t0 = time.perf_counter()
        for _ in range(10):
            np.linalg.eigh(self._small @ self._small.T)
        t1 = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i
        t2 = time.perf_counter()
        for _ in range(3):
            np.matmul(self._big, self._big, out=self._out)
        t3 = time.perf_counter()
        return [t / ref for t, ref in zip((t1 - t0, t2 - t1, t3 - t2), CAL_REF_S)]

    def factor(self):
        """Reference over measured speed, around the interval that just ended."""
        before, self._last = self._last, self.measure()
        self.factors.append(2 * len(before) / (sum(before) + sum(self._last)))
        return self.factors[-1]


def run_pass(bench, probe, cmds):
    """Run every command once; returns (seconds per command, (exit code, fits) per command)."""
    times, results = [], []
    sink = io.StringIO()
    for argv, _ in cmds:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = bench.sfmc.cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc(file=sys.stderr)
            code = "exception"
        times.append(time.perf_counter() - t0)
        results.append((code, probe.take_fits()))
        sink.seek(0)
        sink.truncate()
    return times, results


class Loop:
    """Closed-loop passes over the workload, with their checks.

    pass_s and op_s hold seconds at the reference speed; raw_pass_s as
    measured.
    """

    def __init__(self, bench, speed):
        self.bench = bench
        self.speed = speed
        self.cmds = bench.commands()
        self.pass_s = []
        self.raw_pass_s = []
        self.op_s = [[] for _ in self.cmds]
        self.attempted = 0
        self.failed = 0
        self.first_fits = None

    def run(self, probe, seconds):
        """Passes until `seconds` elapse (at least one).

        Returns (pass seconds at reference speed, raw pass seconds, the fit
        records of a traced probe).
        """
        start = time.perf_counter()
        pass_s, raw_s, traced_fits = [], [], []
        while True:
            t0 = time.perf_counter()
            times, results = run_pass(self.bench, probe, self.cmds)
            raw_s.append(time.perf_counter() - t0)
            factor = self.speed.factor()
            pass_s.append(raw_s[-1] * factor)
            for i, ((code, recs), (_, out)) in enumerate(zip(results, self.cmds)):
                self.op_s[i].append(times[i] * factor)
                self.attempted += 1
                problems = self.bench.check(i, code, out, recs)
                if problems:
                    self.failed += 1
                    print(f"perfbench: command {i} failed: {'; '.join(problems)}",
                          file=sys.stderr)
                for rec in recs:
                    rec.dataset = None  # keep the run's own memory flat
                if probe.traced:
                    traced_fits += recs
            if self.first_fits is None:
                self.first_fits = [r for _, recs in results for r in recs]
            if time.perf_counter() - start >= seconds:
                break
        self.pass_s += pass_s
        self.raw_pass_s += raw_s
        return pass_s, raw_s, traced_fits


def with_probe(loop, seconds, **probe_args):
    probe = probe_mod.Probe(**probe_args).install()
    try:
        return probe, loop.run(probe, seconds)
    finally:
        probe.close()


def main(argv=None):
    args = parse_args(argv)
    pin_blas()
    sfmc = import_sfmc()

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        speed = Speedometer()
        bench = Bench(sfmc, args.workload, args.seed, args.toy, workdir)
        setup_s = statistics.median(bench.setup() * speed.factor()
                                    for _ in range(SETUP_REPEATS))
        loop = Loop(bench, speed)
        seconds = args.seconds / 2 if args.trace else args.seconds
        _, (untraced_s, _, _) = with_probe(loop, seconds, traced=False)
        if args.trace:
            probe, (traced_s, traced_raw_s, traced_fits) = with_probe(
                loop, seconds, traced=True)
            alloc_probe, _ = with_probe(loop, 0, traced=True, track_alloc=True)
            metrics = probe_mod.layer_metrics(
                probe, traced_fits, len(traced_s), statistics.fmean(traced_raw_s),
                statistics.fmean(traced_s) - statistics.fmean(untraced_s),
                alloc_probe.peak_alloc)
            units = PER_LAYER
        else:
            fits = [r for r in loop.first_fits if r.model is not None]
            try:
                map_mean, recovery_mean = bench.quality(fits, [out for _, out in loop.cmds])
            except (OSError, ValueError, KeyError):
                if not loop.failed:
                    raise
                map_mean = recovery_mean = 0.0  # outputs missing; already counted failed
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(loop.pass_s),
                "op_s_p50": statistics.median(statistics.median(t) for t in loop.op_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                # 0 when no fit was observed, e.g. after `fit` is renamed
                "converged_frac": statistics.fmean(
                    [r.model.converged for r in fits] or [0.0]),
                "map_mean": map_mean,
                "recovery_mean": recovery_mean,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if bench.reference is None:
        print(f"perfbench: no reference recorded for seed {args.seed}; "
              "reference checks skipped", file=sys.stderr)
    print(json.dumps({
        "env": environment(args.seed), "workload": args.workload,
        "passes": len(loop.pass_s), "commands": loop.attempted,
        "raw_pass_s_mean": statistics.fmean(loop.raw_pass_s),
        "speed_factor_median": statistics.median(speed.factors),
        "pass_s": loop.pass_s,
    }))
    for name in units:
        print(f"{name:<34}{metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
