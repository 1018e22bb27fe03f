"""Command-line interface: synth, fit, select, eval.

Exit codes: 0 success, 1 input or validation error, 2 numerical failure.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .dataset import (SynthConfig, generate_synthetic, load_manifest,
                      write_manifest)
from .select_eval import (METHODS, rank_features, run_experiment, select_top,
                          write_cells_csv)
from .solver import Hyperparams, NumericalError, fit, load_selection_model

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is reserved for numerical failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="random seed")


def _add_hyperparams(p):
    # one flag per Hyperparams field, typed and defaulted by the field's
    # default; lam is --lambda, and max_iter is --max-iter
    for f in fields(Hyperparams):
        flag = "--lambda" if f.name == "lam" else "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, type=type(f.default), default=f.default,
                       help="clique size for the graph" if f.name == "k" else None)


def _hp_from_args(args):
    return Hyperparams(**{f.name: getattr(args, f.name) for f in fields(Hyperparams)})


def build_parser():
    parser = _Parser(prog="sfmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth",
                       help="generate a planted-support synthetic dataset")
    _add_common(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--features", type=int, default=50)
    p.add_argument("--support", type=int, default=8)
    p.add_argument("--tasks", type=int, default=3)
    p.add_argument("--samples", type=int, default=100, help="samples per task")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--signal", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.25)

    p = sub.add_parser("fit",
                       help="fit the joint solver on a manifest")
    _add_common(p)
    _add_hyperparams(p)
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--verbose", action="store_true", help="per-iteration output")

    p = sub.add_parser("select",
                       help="write top-N feature indices from a fitted model")
    p.add_argument("model")
    p.add_argument("--top", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval",
                       help="benchmark methods over label fractions")
    _add_common(p)
    _add_hyperparams(p)
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--methods", nargs="+", default=["sfmc", "fisher"],
                   choices=METHODS)
    p.add_argument("--fractions", nargs="+", type=float, default=[0.05, 0.25, 1.0])
    p.add_argument("--counts", nargs="+", type=int, required=True,
                   help="numbers of selected features")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--test-fraction", type=float, default=0.5)
    p.add_argument("--ridge", type=float, default=1e-2)
    p.add_argument("--alpha-grid", nargs="+", type=float)
    p.add_argument("--beta-grid", nargs="+", type=float)
    p.add_argument("--gamma-grid", nargs="+", type=float)
    p.add_argument("--cells-csv", help="optional per-cell CSV output")
    return parser


def _cmd_synth(args):
    cfg = SynthConfig(
        d=args.features, s=args.support, t=args.tasks, n_per_task=args.samples,
        c=args.classes, signal_strength=args.signal, noise_sigma=args.noise,
        seed=args.seed,
    )
    ds = generate_synthetic(cfg)
    manifest = write_manifest(ds, args.out_dir)
    print(f"wrote {manifest} ({ds.n_tasks} tasks, d={ds.n_features}, "
          f"support size {len(ds.support)})")
    return EXIT_OK


def _cmd_fit(args):
    ds = load_manifest(args.manifest)
    hp = _hp_from_args(args)
    callback = None
    if args.verbose:
        def callback(r, state):
            print(f"iter {r:3d}  objective {state.objective_trace[-1]:.10g}")
    model = fit(ds, hp, callback=callback)
    model.save(args.out)
    trace = model.objective_trace
    print(f"fitted {model.n_tasks} tasks in {model.iterations} iterations "
          f"(converged={model.converged})")
    print(f"objective: {trace[0]:.10g} -> {trace[-1]:.10g}")
    print(f"model written to {args.out}")
    return EXIT_OK


def _cmd_select(args):
    model = load_selection_model(args.model)
    out = {"top": args.top, "tasks": []}
    for l in range(model.n_tasks):
        ranking = rank_features(model, l)
        sel = select_top(ranking, args.top)
        out["tasks"].append({
            "name": model.task_names[l],
            "selected": [int(j) for j in sel],
            "scores": [float(ranking.scores[j]) for j in sel],
        })
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"selected top {args.top} features per task -> {args.out}")
    return EXIT_OK


def _cmd_eval(args):
    ds = load_manifest(args.manifest)
    grid = {name: values for name in ("alpha", "beta", "gamma")
            if (values := getattr(args, f"{name}_grid"))}
    report = run_experiment(
        ds,
        methods=args.methods,
        fractions=args.fractions,
        feature_counts=args.counts,
        repeats=args.repeats,
        seed=args.seed,
        grid=grid,
        hp_base=_hp_from_args(args),
        test_fraction=args.test_fraction,
        ridge=args.ridge,
    )
    report.save(args.out)
    if args.cells_csv:
        write_cells_csv(report, args.cells_csv)
    print(report.to_text())
    print(f"report written to {args.out}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error already reported
        return exc.code
    handlers = {
        "synth": _cmd_synth,
        "fit": _cmd_fit,
        "select": _cmd_select,
        "eval": _cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, OverflowError) as exc:
        # ValidationError subclasses ValueError; bad seeds and malformed
        # values from libraries land here too, and an integer flag too large
        # for a float, such as --features, raises OverflowError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
