import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sfmc
from sfmc.cli import main
from sfmc.dataset import generate_synthetic, SynthConfig, write_manifest
from sfmc.solver import load_selection_model


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

    def test_bad_flag_value_exit_1(self, synth_dir, tmp_path, capsys):
        rc = main([
            "fit", str(synth_dir / "manifest.json"), "--out",
            str(tmp_path / "m.json"), "--alpha", "-1",
        ])
        assert rc == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--gamma", "--lambda",
                                      "--inf-surrogate", "--delta", "--rel-tol"])
    def test_non_finite_hyperparameter_exit_1(self, synth_dir, tmp_path, capsys,
                                              flag, value):
        # NaN passes every range check: unchecked, --rel-tol nan would never
        # stop and exit 0, and the others would fail as numerical errors
        # (exit 2) with numpy warnings
        out = tmp_path / "m.json"
        rc = main(["fit", str(synth_dir / "manifest.json"), "--out", str(out),
                   flag, value])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err
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
        assert "alpha must be finite" in capsys.readouterr().err

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
        assert "ridge must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_does_not_change_output(self, synth_dir, tmp_path):
        args = [
            "eval", str(synth_dir / "manifest.json"), "--methods", "fisher",
            "--fractions", "0.4", "1.0", "--counts", "3", "--repeats", "3",
            "--k", "5", "--seed", "6",
        ]
        assert main(args + ["--out", str(tmp_path / "r1.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2.json"), "--threads", "3"]) == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


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
        assert "CSV paths must be strings" in capsys.readouterr().err
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

    def test_negative_seed_exit_1(self, synth_dir, tmp_path):
        rc = main(["eval", str(synth_dir / "manifest.json"), "--out",
                   str(tmp_path / "r.json"), "--methods", "fisher",
                   "--fractions", "0.5", "--counts", "3", "--repeats", "1",
                   "--k", "5", "--seed", "-4"])
        assert rc == 1

    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_threads_below_one_exit_1(self, synth_dir, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        args = [command, str(synth_dir / "manifest.json"), "--out", str(out),
                "--k", "5", "--threads", "-3"]
        if command == "eval":
            args += ["--methods", "sfmc", "--fractions", "0.5", "--counts", "3",
                     "--repeats", "1"]
        assert main(args) == 1
        assert "thread count must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case,threads", [
        ("synth", "0"), ("select", "-2"), ("eval_fisher", "0"),
        ("eval_all_features", "-5")])
    def test_threads_below_one_exit_1_without_thread_pool(self, synth_dir, tmp_path,
                                                          capsys, case, threads):
        # these commands start no per-task pool, so the count is checked
        # when the command line is parsed
        out = tmp_path / "out"
        if case == "synth":
            args = ["synth", "--out-dir", str(out)]
        elif case == "select":
            model = tmp_path / "model.json"
            assert main(["fit", str(synth_dir / "manifest.json"), "--out", str(model),
                         "--k", "5"]) == 0
            args = ["select", str(model), "--top", "3", "--out", str(out)]
        else:
            args = ["eval", str(synth_dir / "manifest.json"), "--out", str(out),
                    "--methods", case[len("eval_"):], "--fractions", "0.5",
                    "--counts", "3", "--repeats", "1", "--k", "5"]
        capsys.readouterr()
        assert main(args + ["--threads", threads]) == 1
        assert f"thread count must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

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
