#!/usr/bin/env python3
"""Record the reference outputs that run.py checks later runs against.

    python3 perfbench/record_reference.py --seeds 0-63

Runs one untraced pass of every workload per seed, at full and toy size
(toy for seeds 0-3 only), and writes perfbench/reference.json: each fit's
final objective keyed by a digest of its inputs, and for eval_sweep every
report cell's MAP and best parameters.  Run it on the commit that defines
the baseline; later commits are checked against what it wrote.
"""

import argparse
import json
import os
import shutil
import sys

import run


def record(sfmc, name, seed, toy):
    workdir = run.ROOT / ".perfbench_work" / f"record-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = run.Bench(sfmc, name, seed, toy, workdir)
        bench.setup()
        probe = run.probe_mod.Probe(traced=False).install()
        try:
            cmds = bench.commands()
            _, results = run.run_pass(bench, probe, cmds)
        finally:
            probe.close()
        fits = {}
        for code, recs in results:
            if code != 0:
                raise SystemExit(f"{name} seed {seed}: command exited {code}")
            for rec in recs:
                fits[run.fit_key(rec.dataset, rec.hp)] = rec.model.objective_trace[-1]
        entry = {"fits": fits}
        if run.WORKLOADS[name]["hps"] is None:
            report = json.loads(cmds[0][1].read_text())
            entry["cells"] = [
                {k: c.get(k) for k in ("method", "fraction", "count", "map_mean",
                                       "best_params")}
                for c in report["cells"]
            ]
        return entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    run.pin_blas()
    sfmc = run.import_sfmc()

    out = {"full": {}, "toy": {}}
    for mode, seeds in (("full", range(lo, hi + 1)), ("toy", range(0, 4))):
        for name in run.WORKLOADS:
            table = out[mode].setdefault(name, {})
            for seed in seeds:
                table[str(seed)] = record(sfmc, name, seed, mode == "toy")
                print(f"{mode} {name} seed {seed}", file=sys.stderr, flush=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
