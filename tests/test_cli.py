import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sfmc
from sfmc.cli import _hp_from_args, build_parser, main
from sfmc.dataset import (apply_label_fraction, generate_synthetic, load_manifest,
                          SynthConfig, write_manifest)
from sfmc.solver import Hyperparams, load_selection_model
from helpers import LEGACY_MODEL, LEGACY_SELECT


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    rc = main([
        "synth", "--out-dir", str(out), "--features", "10", "--support", "3",
        "--tasks", "2", "--samples", "30", "--classes", "2", "--seed", "5",
    ])
    assert rc == 0
    return out


@pytest.fixture()
def dense_dir(tmp_path):
    """Dense random fixture without planted sparsity; converges at defaults."""
    from sfmc.dataset import MultiTaskDataset
    from helpers import make_task

    rng = np.random.default_rng(4)
    tasks = tuple(
        make_task(rng, 8, 20, 2, label_frac=0.6, name=f"task_{l}")
        for l in range(2)
    )
    return write_manifest(MultiTaskDataset(tasks=tasks), tmp_path / "dense").parent


def _check_flag_rejected(synth_dir, tmp_path, capsys, command, flag):
    """command runs without flag, then exits 1 with it and writes nothing."""
    out = tmp_path / "out"
    args = {
        "synth": ["synth", "--out-dir", str(out)],
        "fit": ["fit", str(synth_dir / "manifest.json"), "--out", str(out),
                "--k", "5"],
        "select": ["select", str(tmp_path / "model.json"), "--top", "3",
                   "--out", str(out)],
        "eval": ["eval", str(synth_dir / "manifest.json"), "--out", str(out),
                 "--methods", "fisher", "--fractions", "0.5", "--counts", "3",
                 "--repeats", "1", "--k", "5"],
    }[command]
    if command == "select":
        assert main(["fit", str(synth_dir / "manifest.json"), "--out",
                     str(tmp_path / "model.json"), "--k", "5"]) == 0
    assert main(args) == 0  # the same command without the flag runs
    if out.is_dir():
        shutil.rmtree(out)
    else:
        out.unlink()
    capsys.readouterr()
    assert main(args + flag) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


class TestSynth:
    def test_writes_loadable_manifest(self, synth_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        rc = main([
            "fit", str(synth_dir / "manifest.json"), "--out", str(model_path),
            "--k", "5",
        ])
        assert rc == 0
        assert model_path.exists()

    def test_seed_repeat_identical_files(self, tmp_path):
        args = ["synth", "--features", "8", "--support", "2", "--tasks", "1",
                "--samples", "12", "--seed", "3"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_support_size_in_metadata(self, synth_dir):
        doc = json.loads((synth_dir / "manifest.json").read_text())
        assert len(doc["metadata"]["support"]) == 3


class TestFit:
    def test_smoke_and_trace_at_defaults(self, dense_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        rc = main([
            "fit", str(dense_dir / "manifest.json"), "--out", str(model_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "objective" in out
        model = load_selection_model(model_path)
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1]))
        assert model.converged

    def test_verbose_prints_iterations(self, dense_dir, tmp_path, capsys):
        rc = main([
            "fit", str(dense_dir / "manifest.json"), "--out",
            str(tmp_path / "m.json"), "--verbose",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "iter   0" in out and "iter   1" in out

    def test_bad_manifest_path_exit_1(self, tmp_path, capsys):
        rc = main(["fit", str(tmp_path / "missing.json"), "--out",
                   str(tmp_path / "m.json")])
        assert rc == 1
        assert "missing.json" in capsys.readouterr().err

    def test_hyperparameter_defaults_from_hyperparams(self):
        args = build_parser().parse_args(["fit", "M", "--out", "O"])
        assert _hp_from_args(args) == Hyperparams()

    def test_hyperparameter_flags_map_to_fields(self):
        args = build_parser().parse_args([
            "fit", "M", "--out", "O", "--alpha", "2", "--beta", "3", "--gamma", "0",
            "--lambda", "4", "--k", "6", "--delta", "1e-9", "--max-iter", "7",
            "--rel-tol", "1e-3"])
        hp = _hp_from_args(args)
        assert hp == Hyperparams(alpha=2.0, beta=3.0, gamma=0.0, lam=4.0, k=6,
                                 delta=1e-9, max_iter=7, rel_tol=1e-3)
        assert type(hp.k) is int and type(hp.max_iter) is int
        for flag in ("--k", "--max-iter"):
            assert main(["fit", "M", "--out", "O", flag, "2.5"]) == 1

    def test_bad_flag_value_exit_1(self, synth_dir, tmp_path, capsys):
        rc = main([
            "fit", str(synth_dir / "manifest.json"), "--out",
            str(tmp_path / "m.json"), "--alpha", "-1",
        ])
        assert rc == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--gamma", "--lambda",
                                      "--delta", "--rel-tol"])
    def test_non_finite_hyperparameter_exit_1(self, synth_dir, tmp_path, capsys,
                                              flag, value):
        # NaN passes every range check: unchecked, --rel-tol nan would never
        # stop and exit 0, and the others would fail as numerical errors
        # (exit 2) with numpy warnings
        out = tmp_path / "m.json"
        rc = main(["fit", str(synth_dir / "manifest.json"), "--out", str(out),
                   flag, value])
        assert rc == 1
        field = "lam" if flag == "--lambda" else flag[2:].replace("-", "_")
        assert f"error: {field} must be a finite number, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--k", "--max-iter"])
    def test_huge_integer_hyperparameter_exit_1(self, synth_dir, tmp_path, capsys, flag):
        # an integer flag parses at any size, but the finiteness check
        # converts it to a float; the error names the field
        out = tmp_path / "m.json"
        rc = main(["fit", str(synth_dir / "manifest.json"), "--out", str(out),
                   flag, str(10**400)])
        assert rc == 1
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(
            f"error: {field} must be a number that fits a float, got 1000")
        assert not out.exists()

    def test_gamma_zero_decouples_tasks(self, tmp_path):
        # joint fit with gamma 0 equals fitting each task's own manifest
        ds = generate_synthetic(
            SynthConfig(d=6, s=2, t=2, n_per_task=14, seed=8)
        )
        write_manifest(ds, tmp_path / "joint")
        from sfmc.dataset import MultiTaskDataset

        for l, task in enumerate(ds.tasks):
            write_manifest(
                MultiTaskDataset(tasks=(task,)), tmp_path / f"solo{l}"
            )
        flags = ["--gamma", "0", "--k", "4", "--max-iter", "25",
                 "--rel-tol", "0"]
        assert main(["fit", str(tmp_path / "joint" / "manifest.json"),
                     "--out", str(tmp_path / "joint.json")] + flags) == 0
        joint = load_selection_model(tmp_path / "joint.json")
        for l in range(2):
            assert main(["fit", str(tmp_path / f"solo{l}" / "manifest.json"),
                         "--out", str(tmp_path / f"solo{l}.json")] + flags) == 0
            solo = load_selection_model(tmp_path / f"solo{l}.json")
            assert np.abs(np.array(joint.W[l]) - np.array(solo.W[0])).max() <= 1e-10

    def test_rerun_byte_identical(self, synth_dir, tmp_path):
        args = ["fit", str(synth_dir / "manifest.json"), "--k", "5"]
        assert main(args + ["--out", str(tmp_path / "m1.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "m2.json")]) == 0
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


class TestSelect:
    @pytest.fixture()
    def model_path(self, synth_dir, tmp_path):
        path = tmp_path / "model.json"
        assert main(["fit", str(synth_dir / "manifest.json"), "--out",
                     str(path), "--k", "5"]) == 0
        return path

    def test_top_n_written(self, model_path, tmp_path):
        out = tmp_path / "sel.json"
        rc = main(["select", str(model_path), "--top", "4", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["top"] == 4
        for entry in doc["tasks"]:
            assert len(entry["selected"]) == 4
            assert entry["scores"] == sorted(entry["scores"], reverse=True)

    def test_top_full_dimension(self, model_path, tmp_path):
        out = tmp_path / "sel.json"
        assert main(["select", str(model_path), "--top", "10", "--out",
                     str(out)]) == 0
        doc = json.loads(out.read_text())
        for entry in doc["tasks"]:
            assert sorted(entry["selected"]) == list(range(10))

    def test_prefix_property(self, model_path, tmp_path):
        outs = []
        for n in (5, 10):
            out = tmp_path / f"sel{n}.json"
            assert main(["select", str(model_path), "--top", str(n), "--out",
                         str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        for small, big in zip(outs[0]["tasks"], outs[1]["tasks"]):
            assert big["selected"][:5] == small["selected"]

    def test_out_of_range_exit_1(self, model_path, tmp_path, capsys):
        rc = main(["select", str(model_path), "--top", "99", "--out",
                   str(tmp_path / "sel.json")])
        assert rc == 1

    def test_removed_w_update_variant_exit_1(self, model_path, tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["hyperparams"]["exact_w_update"] = False
        model_path.write_text(json.dumps(doc))
        rc = main(["select", str(model_path), "--top", "4", "--out",
                   str(tmp_path / "sel.json")])
        assert rc == 1
        assert "exact_w_update" in capsys.readouterr().err

    def test_non_finite_hyperparameter_in_model_exit_1(self, model_path, tmp_path,
                                                        capsys):
        doc = json.loads(model_path.read_text())
        doc["hyperparams"]["alpha"] = float("nan")
        model_path.write_text(json.dumps(doc))
        rc = main(["select", str(model_path), "--top", "4", "--out",
                   str(tmp_path / "sel.json")])
        assert rc == 1
        assert (f"error: model file {model_path}: hyperparams.alpha must be a finite "
                "number, got nan") in capsys.readouterr().err

    def test_removed_label_weight_exit_1(self, model_path, tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["hyperparams"]["inf_surrogate"] = 50
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "sel.json"
        rc = main(["select", str(model_path), "--top", "4", "--out", str(out)])
        assert rc == 1
        assert (f"error: model file {model_path}: hyperparams.inf_surrogate is 50, which "
                "is no longer supported") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("objective_trace", "xyz", "objective_trace must be a non-empty list"),
        ("objective_trace", [], "objective_trace must be a non-empty list"),
        ("converged", "no", "converged must be true or false"),
    ], ids=["trace-str", "trace-empty", "converged-str"])
    def test_malformed_trace_or_converged_exit_1(self, model_path, tmp_path, capsys,
                                                 key, value, message):
        # the iteration count is read off the trace, and "no" is not a bool
        doc = json.loads(model_path.read_text())
        doc[key] = value
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "sel.json"
        rc = main(["select", str(model_path), "--top", "4", "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["W", "alpha", "trace"])
    def test_number_too_large_for_float_exit_1(self, model_path, tmp_path, capsys,
                                               where):
        # JSON integers have no size limit: 10**400 overflows float(), and
        # abs(10**400) < inf holds for a Python int
        doc = json.loads(model_path.read_text())
        if where == "W":
            doc["tasks"][0]["W"][0][0] = 10**400
            location = "tasks[0].W[0][0]"
        elif where == "alpha":
            doc["hyperparams"]["alpha"] = 10**400
            location = "hyperparams.alpha"
        else:
            doc["objective_trace"][-1] = 10**400
            location = f"objective_trace[{len(doc['objective_trace']) - 1}]"
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "sel.json"
        rc = main(["select", str(model_path), "--top", "4", "--out", str(out)])
        assert rc == 1
        assert (f"error: model file {model_path}: {location} must be a number that fits "
                "a float") in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_task_name_exit_1(self, model_path, tmp_path, capsys):
        # task names key the selection's entries, so two tasks may not share one
        doc = json.loads(model_path.read_text())
        doc["tasks"][1]["name"] = doc["tasks"][0]["name"]
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "sel.json"
        rc = main(["select", str(model_path), "--top", "4", "--out", str(out)])
        assert rc == 1
        assert "repeats an earlier task's" in capsys.readouterr().err
        assert not out.exists()

    def test_stale_scores_in_model_ranked_by_w(self, model_path, tmp_path):
        # a file whose stored feature_scores disagree with its W selects as
        # the same file without them: the ranking comes from W
        assert main(["select", str(model_path), "--top", "10", "--out",
                     str(tmp_path / "fresh.json")]) == 0
        doc = json.loads(model_path.read_text())
        for task in doc["tasks"]:
            task["feature_scores"] = list(range(10))
        model_path.write_text(json.dumps(doc))
        assert main(["select", str(model_path), "--top", "10", "--out",
                     str(tmp_path / "stale.json")]) == 0
        assert ((tmp_path / "stale.json").read_bytes()
                == (tmp_path / "fresh.json").read_bytes())

    def test_legacy_model_file(self, tmp_path):
        # select on a model file of the older format writes what it wrote
        # when that format was current
        out = tmp_path / "sel.json"
        assert main(["select", str(LEGACY_MODEL), "--top", "5", "--out", str(out)]) == 0
        assert out.read_bytes() == LEGACY_SELECT.read_bytes()

    def test_top_1_is_max_row_norm(self, model_path, tmp_path):
        out = tmp_path / "sel.json"
        assert main(["select", str(model_path), "--top", "1", "--out",
                     str(out)]) == 0
        doc = json.loads(out.read_text())
        model = load_selection_model(model_path)
        for l, entry in enumerate(doc["tasks"]):
            scores = np.asarray(model.feature_scores[l])
            assert entry["selected"][0] == int(np.argmax(scores))


class TestEval:
    def test_report_contains_methods(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "eval", str(synth_dir / "manifest.json"), "--out", str(out),
            "--methods", "sfmc", "fisher", "--fractions", "0.3", "1.0",
            "--counts", "3", "6", "--repeats", "2", "--k", "5",
            "--max-iter", "10", "--seed", "1",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(c["method"] for c in doc["cells"]) == {"sfmc", "fisher"}
        printed = capsys.readouterr().out
        assert "MAP" in printed

    def test_repeats_populate_std(self, synth_dir, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "eval", str(synth_dir / "manifest.json"), "--out", str(out),
            "--methods", "fisher", "--fractions", "0.5", "--counts", "3",
            "--repeats", "5", "--k", "5", "--seed", "2",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        for cell in doc["cells"]:
            assert "map_std" in cell
            assert len(cell["map_per_repeat"]) == 5

    def test_rerun_byte_identical(self, synth_dir, tmp_path):
        args = [
            "eval", str(synth_dir / "manifest.json"), "--methods", "sfmc",
            "fisher", "--fractions", "0.4", "--counts", "3", "--repeats", "2",
            "--k", "5", "--max-iter", "8", "--seed", "9",
        ]
        assert main(args + ["--out", str(tmp_path / "r1.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2.json")]) == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_ridge_exit_1(self, synth_dir, tmp_path, capsys, value,
                                     monkeypatch):
        # NaN passes a positivity check: unchecked, the first classifier
        # fit failed as a numerical error (exit 2) after a whole fit had run
        import sfmc.select_eval as select_eval

        def no_graphs(*args, **kwargs):
            raise AssertionError("ridge must be checked before any graph")

        monkeypatch.setattr(select_eval, "build_graphs", no_graphs)
        out = tmp_path / "report.json"
        rc = main(["eval", str(synth_dir / "manifest.json"), "--out", str(out),
                   "--methods", "sfmc", "--fractions", "0.5", "--counts", "3",
                   "--k", "5", "--ridge", value])
        assert rc == 1
        assert f"error: ridge must be a finite number, got {value}" in capsys.readouterr().err
        assert not out.exists()

class TestErrorPaths:
    def test_numerical_failure_exit_2(self, synth_dir, tmp_path, monkeypatch):
        from sfmc.solver import NumericalError
        import sfmc.cli as cli

        def boom(*args, **kwargs):
            raise NumericalError("factorization failed")

        monkeypatch.setattr(cli, "fit", boom)
        rc = main(["fit", str(synth_dir / "manifest.json"), "--out",
                   str(tmp_path / "m.json")])
        assert rc == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["1e200", "1e-200"])
    def test_overflowing_alpha_beta_exit_2(self, synth_dir, tmp_path, capsys, value):
        # each value is finite and positive, but alpha beta overflows to inf
        # or underflows to 0; the precompute checks that itself, with no
        # finiteness scan of A
        out = tmp_path / "m.json"
        rc = main(["fit", str(synth_dir / "manifest.json"), "--out", str(out),
                   "--alpha", value, "--beta", value])
        assert rc == 2
        assert "over- or underflows" in capsys.readouterr().err
        assert not out.exists()

    def test_mismatched_graphs_exit_1(self, synth_dir, tmp_path, monkeypatch):
        from dataclasses import replace
        from sfmc.solver import build_graphs, fit, prepare
        import sfmc.cli as cli

        def fit_with_stale_graphs(ds, hp, **kwargs):
            graphs = build_graphs(ds, replace(hp, k=hp.k + 1))
            return fit(ds, hp, prepared=prepare(ds, hp, graphs=graphs), **kwargs)

        monkeypatch.setattr(cli, "fit", fit_with_stale_graphs)
        rc = main(["fit", str(synth_dir / "manifest.json"), "--out",
                   str(tmp_path / "m.json"), "--k", "5"])
        assert rc == 1

    def test_mismatched_prepared_exit_1(self, synth_dir, tmp_path, monkeypatch):
        from dataclasses import replace
        from sfmc.solver import fit, prepare
        import sfmc.cli as cli

        def fit_with_stale_caches(ds, hp, **kwargs):
            prepared = prepare(ds, replace(hp, alpha=2 * hp.alpha))
            return fit(ds, hp, prepared=prepared, **kwargs)

        monkeypatch.setattr(cli, "fit", fit_with_stale_caches)
        rc = main(["fit", str(synth_dir / "manifest.json"), "--out",
                   str(tmp_path / "m.json"), "--k", "5"])
        assert rc == 1

    def test_badly_scaled_input_exit_1(self, tmp_path, capsys):
        # X'X is of order 1e12 and lambda = 1e-6 is below its round-off: the
        # clique Gram matrices are not numerically positive definite, so the
        # fit fails before writing
        from sfmc.dataset import MultiTaskDataset
        from helpers import make_task

        task = make_task(np.random.default_rng(0), 4, 60, 2)
        task = replace(task, X=1e6 * task.X)
        manifest = write_manifest(MultiTaskDataset(tasks=(task,)), tmp_path / "big")
        model_path = tmp_path / "m.json"
        rc = main(["fit", str(manifest), "--out", str(model_path),
                   "--k", "15", "--lambda", "1e-6"])
        assert rc == 1
        assert "positive definite" in capsys.readouterr().err
        assert not model_path.exists()

    def test_malformed_manifest_exit_1(self, synth_dir, tmp_path, capsys):
        manifest = synth_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["tasks"][0]["features_csv"] = 3
        manifest.write_text(json.dumps(doc))
        model_path = tmp_path / "m.json"
        assert main(["fit", str(manifest), "--out", str(model_path), "--k", "5"]) == 1
        assert (f"error: manifest {manifest}: tasks[0].features_csv must be a string, "
                "got 3") in capsys.readouterr().err
        assert not model_path.exists()

    def test_non_string_task_name_exit_1(self, synth_dir, tmp_path, capsys):
        # str() would load a null name as "None" and write it to the model
        manifest = synth_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["tasks"][1]["name"] = None
        manifest.write_text(json.dumps(doc))
        model_path = tmp_path / "m.json"
        assert main(["fit", str(manifest), "--out", str(model_path), "--k", "5"]) == 1
        assert (f"error: manifest {manifest}: tasks[1].name must be a string, "
                "got None") in capsys.readouterr().err
        assert not model_path.exists()

    def test_duplicate_fractions_exit_1(self, synth_dir, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        rc = main(["eval", str(synth_dir / "manifest.json"), "--out", str(report_path),
                   "--methods", "fisher", "--fractions", "0.5", "0.5", "--counts", "3",
                   "--repeats", "1", "--k", "5"])
        assert rc == 1
        assert "duplicate label fractions" in capsys.readouterr().err
        assert not report_path.exists()

    def test_duplicate_methods_exit_1(self, synth_dir, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        rc = main(["eval", str(synth_dir / "manifest.json"), "--out", str(report_path),
                   "--methods", "fisher", "sfmc", "fisher", "all_features",
                   "--fractions", "0.5",
                   "--counts", "3", "--repeats", "1", "--k", "5"])
        assert rc == 1
        assert "duplicate methods" in capsys.readouterr().err
        assert not report_path.exists()

    def test_duplicate_grid_values_exit_1(self, synth_dir, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        rc = main(["eval", str(synth_dir / "manifest.json"), "--out", str(report_path),
                   "--methods", "sfmc", "--fractions", "0.5", "--counts", "3",
                   "--repeats", "1", "--k", "5", "--beta-grid", "1", "1",
                   "--gamma-grid", "1", "1"])
        assert rc == 1
        assert "duplicate beta grid values in [1.0, 1.0]" in capsys.readouterr().err
        assert not report_path.exists()

    def test_negative_seed_exit_1(self, synth_dir, tmp_path):
        rc = main(["eval", str(synth_dir / "manifest.json"), "--out",
                   str(tmp_path / "r.json"), "--methods", "fisher",
                   "--fractions", "0.5", "--counts", "3", "--repeats", "1",
                   "--k", "5", "--seed", "-4"])
        assert rc == 1

    def test_bad_support_exit_1(self, tmp_path, capsys):
        # recovery would count the impossible indices 99 and -1 in its
        # denominator, so the manifest is rejected before any work
        data = tmp_path / "data"
        assert main(["synth", "--out-dir", str(data), "--features", "20", "--support",
                     "4", "--tasks", "2", "--samples", "60", "--noise", "1.1",
                     "--seed", "0"]) == 0
        manifest = data / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["metadata"]["support"] = [0, 1, 2, 3, 99, -1]
        manifest.write_text(json.dumps(doc))
        report_path = tmp_path / "r.json"
        capsys.readouterr()
        rc = main(["eval", str(manifest), "--out", str(report_path), "--methods",
                   "fisher", "--counts", "4", "8", "--k", "5"])
        assert rc == 1
        assert (f"error: manifest {manifest}: metadata.support[4] = 99 is outside "
                "[0, 20)") in capsys.readouterr().err
        assert not report_path.exists()

    def test_bad_feature_names_exit_1(self, synth_dir, tmp_path, capsys):
        manifest = synth_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["feature_names"] = 5
        manifest.write_text(json.dumps(doc))
        model_path = tmp_path / "model.json"
        capsys.readouterr()
        rc = main(["fit", str(manifest), "--out", str(model_path), "--k", "5"])
        assert rc == 1
        assert (f"error: manifest {manifest}: feature_names must be a non-empty list, "
                "got 5") in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("command", ["synth", "fit", "select", "eval"])
    def test_threads_flag_rejected(self, synth_dir, tmp_path, capsys, command):
        # tasks run in order; there is no thread option to set
        _check_flag_rejected(synth_dir, tmp_path, capsys, command, ["--threads", "2"])

    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_inf_surrogate_flag_rejected(self, synth_dir, tmp_path, capsys, command):
        # the label weight is the constant solver.LABEL_WEIGHT
        _check_flag_rejected(synth_dir, tmp_path, capsys, command,
                             ["--inf-surrogate", "1e6"])

    @pytest.mark.parametrize("command", ["synth", "select", "eval"])
    def test_verbose_flag_rejected(self, synth_dir, tmp_path, capsys, command):
        # only fit has iterations to print
        _check_flag_rejected(synth_dir, tmp_path, capsys, command, ["--verbose"])

    def test_seed_flag_rejected_on_select(self, synth_dir, tmp_path, capsys):
        # select ranks a saved model's W; it draws nothing at random
        _check_flag_rejected(synth_dir, tmp_path, capsys, "select", ["--seed", "0"])

    def test_commands_do_not_mutate_inputs(self, synth_dir, tmp_path):
        before = {f.name: f.read_bytes() for f in sorted(synth_dir.iterdir())}
        assert main(["fit", str(synth_dir / "manifest.json"), "--out",
                     str(tmp_path / "m.json"), "--k", "5"]) == 0
        assert main(["eval", str(synth_dir / "manifest.json"), "--out",
                     str(tmp_path / "r.json"), "--methods", "fisher",
                     "--fractions", "0.5", "--counts", "3", "--repeats", "1",
                     "--k", "5"]) == 0
        after = {f.name: f.read_bytes() for f in sorted(synth_dir.iterdir())}
        assert before == after


# one input field at a time is set to one of these, or deleted
_DELETE = object()
_ODD_VALUES = [None, True, False, 0, -1, 2.5, 10**400, "", "x", [], {}, 1e308, 1e-320,
               _DELETE]


def _field_paths(doc, prefix=()):
    """Paths to every object key in a JSON document, and to each list's first entry."""
    items = (doc.items() if isinstance(doc, dict)
             else [(0, doc[0])] if isinstance(doc, list) and doc else [])
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _strict_json(text):
    """json.loads that rejects Infinity, -Infinity and NaN, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestMutationSweep:
    """Single-field mutations of a model file and of a manifest.

    Each mutated input must load, or be refused with exit 1 and one error
    line; no traceback, no warning, and no non-JSON number in an output.
    Every (field, value) pair runs; both sweeps take about a second.
    """

    def _sweep(self, doc, path, argv, out, capsys):
        for field, value in ((f, v) for f in _field_paths(doc) for v in _ODD_VALUES):
            label = ".".join(map(str, field)) + (
                " deleted" if value is _DELETE else f" = {value!r}")
            path.write_text(json.dumps(_mutated(doc, field, value)))
            out.unlink(missing_ok=True)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(argv)
            err = capsys.readouterr().err
            assert not caught, f"{label}: warned {[str(w.message) for w in caught]}"
            assert rc in (0, 1), f"{label}: exit {rc}"
            if rc == 1:
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                assert len(errors) == 1, f"{label}: {err!r}"
                # every error names the file it found at fault
                assert str(path) in errors[0], f"{label}: {err!r}"
            else:
                _strict_json(out.read_text())

    def test_model_file_mutations(self, tmp_path, capsys):
        doc = json.loads(LEGACY_MODEL.read_text())
        path, out = tmp_path / "model.json", tmp_path / "select.json"
        self._sweep(doc, path, ["select", str(path), "--top", "3", "--out", str(out)],
                    out, capsys)

    def test_manifest_mutations(self, tmp_path, capsys):
        ds = generate_synthetic(SynthConfig(d=6, s=2, t=2, n_per_task=12, seed=0))
        ds = replace(ds, feature_names=tuple(f"f{j}" for j in range(6)))
        path = write_manifest(apply_label_fraction(ds, 0.5, seed=0), tmp_path)
        doc = json.loads(path.read_text())
        for i, task in enumerate(load_manifest(path).tasks):
            # the mask file an older manifest names
            np.savetxt(tmp_path / f"task{i}_mask.csv", task.labeled_mask, fmt="%d")
            doc["tasks"][i]["labeled_mask_csv"] = f"task{i}_mask.csv"
        out = tmp_path / "model.json"
        self._sweep(doc, path, ["fit", str(path), "--out", str(out), "--k", "3",
                                "--max-iter", "3"], out, capsys)


def _run_module(*args):
    """python -m sfmc, importing the same sfmc package as this test run."""
    src = str(Path(sfmc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "sfmc", *args],
                          capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = _run_module("synth", "--out-dir", str(tmp_path / "d"), "--features",
                           "6", "--support", "2", "--tasks", "1", "--samples", "8")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "d" / "manifest.json").exists()

    def test_unknown_flag_exits_1(self):
        proc = _run_module("fit", "x.json", "--out", "y", "--bogus")
        assert proc.returncode == 1
