import json
import re

import numpy as np
import pytest

from sfmc.dataset import (MultiTaskDataset, SynthConfig, TaskData,
                          ValidationError, apply_label_fraction,
                          generate_synthetic, load_manifest, write_manifest)
from helpers import fisher_oracle


def small_manifest(tmp_path, d2=3):
    """Two tasks, 5 samples each, written by hand."""
    rng = np.random.default_rng(7)
    for i, d in enumerate((3, d2)):
        np.savetxt(tmp_path / f"f{i}.csv", rng.standard_normal((5, d)), delimiter=",")
        Y = np.zeros((5, 2))
        Y[np.arange(5), np.array([0, 1, 0, 1, 0])] = 1
        np.savetxt(tmp_path / f"y{i}.csv", Y, delimiter=",", fmt="%d")
    doc = {"tasks": [
        {"name": f"t{i}", "features_csv": f"f{i}.csv", "labels_csv": f"y{i}.csv"}
        for i in range(2)
    ]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


class TestLoadManifest:
    def test_round_trip_fixture(self, tmp_path):
        ds = load_manifest(small_manifest(tmp_path))
        assert ds.n_tasks == 2
        assert ds.n_features == 3
        assert all(t.n_samples == 5 for t in ds.tasks)
        assert all(t.labeled_mask.all() for t in ds.tasks)

    def test_dimension_mismatch(self, tmp_path):
        path = small_manifest(tmp_path, d2=4)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            load_manifest(path)

    def test_legacy_mask_file_checked_against_labels(self, tmp_path):
        # a mask file from an older manifest sets nothing: it loads when it
        # equals the mask the label rows give, and fails otherwise
        path = small_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["tasks"][0]["labeled_mask_csv"] = "m0.csv"
        path.write_text(json.dumps(doc))
        np.savetxt(tmp_path / "m0.csv", np.ones(5), fmt="%d")
        assert load_manifest(path).tasks[0].labeled_mask.all()
        # disagreeing, too short, too long, and holding a 2
        for mask in ([1, 1, 0, 1, 1], [1, 1, 1, 1], [1] * 6, [1, 1, 2, 1, 1]):
            np.savetxt(tmp_path / "m0.csv", mask, fmt="%d")
            with pytest.raises(ValidationError, match=re.escape(
                    f"manifest {path}: tasks[0].labeled_mask_csv: m0.csv must hold 1 for "
                    "each sample with a label, 0 for the rest")):
                load_manifest(path)

    def test_labeled_with_two_ones(self, tmp_path):
        path = small_manifest(tmp_path)
        Y = np.zeros((5, 2))
        Y[:, 0] = 1
        Y[0, 1] = 1
        np.savetxt(tmp_path / "y0.csv", Y, delimiter=",", fmt="%d")
        with pytest.raises(ValidationError, match="sample 0 must have at most one 1"):
            load_manifest(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(tasks=5), "tasks must be a non-empty list, got 5"),
        (lambda doc: doc.update(tasks=[5]), "tasks[0] must be an object, got 5"),
        (lambda doc: doc["tasks"][1].update(features_csv=3),
         "tasks[1].features_csv must be a string, got 3"),
        (lambda doc: doc["tasks"][0].update(labels_csv=None),
         "tasks[0].labels_csv must be a string, got null"),
        (lambda doc: doc["tasks"][0].update(labeled_mask_csv=["m.csv"]),
         "tasks[0].labeled_mask_csv must be a string, got [\"m.csv\"]"),
        *[(lambda doc, v=v: doc["tasks"][0].update(labeled_mask_csv=v),
           f"tasks[0].labeled_mask_csv must be a string, got {json.dumps(v)}" if v != ""
           else "tasks[0].labeled_mask_csv is an empty path")
          for v in (None, False, 0, "", [], {})],
        (lambda doc: doc["tasks"][1].update(features_csv=""),
         "tasks[1].features_csv is an empty path"),
        (lambda doc: doc["tasks"][1].update(features_csv="x"),
         "tasks[1].features_csv: file not found: {dir}/x"),
        (lambda doc: doc["tasks"][0].update(name=None),
         "tasks[0].name must be a string, got null"),
        (lambda doc: doc["tasks"][1].update(name=1), "tasks[1].name must be a string, got 1"),
        (lambda doc: doc["tasks"][0].update(name={"a": 1}),
         'tasks[0].name must be a string, got {"a": 1}'),
        (lambda doc: doc["tasks"][1].update(name=doc["tasks"][0]["name"]),
         "tasks[1].name 't0' repeats an earlier task's"),
    ], ids=["tasks-not-list", "task-not-object", "features-path-int",
            "labels-path-null", "mask-path-list", "mask-path-null", "mask-path-false",
            "mask-path-0", "mask-path-empty", "mask-path-empty-list",
            "mask-path-empty-object", "features-path-empty", "features-path-missing",
            "name-null", "name-int", "name-object", "name-repeated"])
    def test_malformed_entry(self, tmp_path, edit, message):
        path = small_manifest(tmp_path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        # every error names the manifest, then the JSON location at fault
        message = message.replace("{dir}", str(tmp_path))
        with pytest.raises(ValidationError, match=re.escape(f"manifest {path}: {message}") + "$"):
            load_manifest(path)

    @pytest.mark.parametrize("support, message", [
        ([0, 1, 3], "metadata.support[2] = 3 is outside [0, 3)"),
        ([-1, 0], "metadata.support[0] = -1 is outside [0, 3)"),
        ([0, 2, 0], "metadata.support[2] = 0 repeats an earlier entry"),
        ([0, True], "metadata.support[1] must be an integer, got true"),
        ([1.0], "metadata.support[0] must be an integer, got 1.0"),
        (["1"], 'metadata.support[0] must be an integer, got "1"'),
        (2, "metadata.support must be a non-empty list, got 2"),
        ([], "metadata.support must be a non-empty list, got []"),
    ], ids=["too-large", "negative", "repeated", "bool", "float", "string",
            "not-list", "empty"])
    def test_bad_support_rejected(self, tmp_path, support, message):
        path = small_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["metadata"] = {"support": support}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=re.escape(f"manifest {path}: {message}")):
            load_manifest(path)

    def test_metadata_not_object_rejected(self, tmp_path):
        path = small_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["metadata"] = [0, 1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="metadata must be an object"):
            load_manifest(path)

    @pytest.mark.parametrize("names, message", [
        (5, "feature_names must be a non-empty list, got 5"),
        ("abc", 'feature_names must be a non-empty list, got "abc"'),
        ({"x": 0, "y": 1, "z": 2}, 'feature_names must be a non-empty list, got {"x": 0, '),
        (["x", "y"], "feature_names must list 3 names, got 2"),
    ], ids=["int", "string", "object", "short-list"])
    def test_bad_feature_names_rejected(self, tmp_path, names, message):
        # d = 3: a 3-character string or a 3-key object is not 3 names
        path = small_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["feature_names"] = names
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=re.escape(f"manifest {path}: {message}")):
            load_manifest(path)

    @pytest.mark.parametrize("bad, shown", [(1, "1"), (None, "null"), ({"a": 1}, '{"a": 1}')],
                             ids=["int", "null", "object"])
    def test_non_string_feature_name_rejected(self, tmp_path, bad, shown):
        path = small_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["feature_names"] = ["x", bad, "z"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError,
                           match=re.escape(f"manifest {path}: feature_names[1] must be a "
                                           f"string, got {shown}")):
            load_manifest(path)

    def test_valid_support_kept(self, tmp_path):
        ds = load_manifest(small_manifest(tmp_path))
        for support in ([2, 0], (1,), [np.int64(0), 2]):
            back = MultiTaskDataset(tasks=ds.tasks, metadata={"support": support})
            assert back.support == [int(j) for j in support]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_manifest(tmp_path / "nope.json")
        path = small_manifest(tmp_path)
        (tmp_path / "f0.csv").unlink()
        with pytest.raises(ValidationError, match="not found"):
            load_manifest(path)

    @pytest.mark.parametrize("data", [b'{"tasks": ', b'\xff\xfe{"tasks": []}'],
                             ids=["truncated", "not-utf8"])
    def test_unreadable_manifest(self, tmp_path, data):
        path = tmp_path / "manifest.json"
        path.write_bytes(data)
        with pytest.raises(ValidationError, match=re.escape(f"manifest {path}: not valid JSON")):
            load_manifest(path)

    def test_non_numeric_cell(self, tmp_path):
        path = small_manifest(tmp_path)
        (tmp_path / "f0.csv").write_text("1,2,x\n4,5,6\n7,8,9\n1,2,3\n4,5,6\n")
        with pytest.raises(ValidationError, match="could not parse"):
            load_manifest(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["features", "labels", "mask"])
    def test_empty_csv(self, tmp_path, kind):
        # an empty file fails by name, without numpy's no-data warning and
        # before any length check can blame another file
        ds = generate_synthetic(SynthConfig(d=4, s=2, t=2, n_per_task=10, seed=0))
        manifest = write_manifest(ds, tmp_path)
        doc = json.loads(manifest.read_text())
        doc["tasks"][0]["labeled_mask_csv"] = "task0_mask.csv"
        manifest.write_text(json.dumps(doc))
        (tmp_path / f"task0_{kind}.csv").write_text("")
        with pytest.raises(ValidationError, match=f"task0_{kind}.csv holds no data"):
            load_manifest(manifest)

    def test_constant_feature_warns_not_rejects(self, tmp_path):
        path = small_manifest(tmp_path)
        arr = np.loadtxt(tmp_path / "f0.csv", delimiter=",", ndmin=2)
        arr[:, 1] = 2.5
        np.savetxt(tmp_path / "f0.csv", arr, delimiter=",")
        with pytest.warns(UserWarning, match="constant"):
            ds = load_manifest(path)
        assert ds.n_tasks == 2

    def test_in_memory_layout_matches_file(self, tmp_path):
        # file rows are samples; in memory samples are columns
        path = small_manifest(tmp_path)
        on_disk = np.loadtxt(tmp_path / "f0.csv", delimiter=",", ndmin=2)
        ds = load_manifest(path)
        np.testing.assert_array_equal(ds.tasks[0].X, on_disk.T)


class TestWriteManifest:
    def test_write_load_bit_exact(self, tmp_path):
        ds = generate_synthetic(SynthConfig(d=7, s=2, t=2, n_per_task=11, seed=3))
        manifest = write_manifest(ds, tmp_path / "out")
        back = load_manifest(manifest)
        for a, b in zip(ds.tasks, back.tasks):
            np.testing.assert_array_equal(a.X, b.X)
            np.testing.assert_array_equal(a.Y, b.Y)
            np.testing.assert_array_equal(a.labeled_mask, b.labeled_mask)
        assert back.support == ds.support

    def test_decimal_text_round_trip(self, tmp_path):
        # hand-written decimal text -> load -> write -> load: matrices equal
        np.savetxt(tmp_path / "f.csv",
                   [[0.1, 0.30000000000000004], [1e-300, 123456.789012345]],
                   delimiter=",", fmt="%.17g")
        Y = [[1, 0], [0, 1]]
        np.savetxt(tmp_path / "y.csv", Y, delimiter=",", fmt="%d")
        (tmp_path / "m.json").write_text(json.dumps({
            "tasks": [{"name": "t", "features_csv": "f.csv",
                       "labels_csv": "y.csv"}]
        }))
        first = load_manifest(tmp_path / "m.json")
        manifest = write_manifest(first, tmp_path / "out")
        second = load_manifest(manifest)
        np.testing.assert_array_equal(first.tasks[0].X, second.tasks[0].X)

    def test_second_write_identical_bytes(self, tmp_path):
        ds = generate_synthetic(SynthConfig(d=5, s=1, t=1, n_per_task=6, seed=9))
        m1 = write_manifest(ds, tmp_path / "a")
        m2 = write_manifest(ds, tmp_path / "b")
        assert m1.read_bytes() == m2.read_bytes()
        # two CSV files per task and the manifest; the labels give the mask
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
            "manifest.json", "task0_features.csv", "task0_labels.csv"]
        for name in ("task0_features.csv", "task0_labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestApplyLabelFraction:
    def test_fraction_one_keeps_everything(self):
        ds = generate_synthetic(SynthConfig(d=6, s=2, t=2, n_per_task=10, seed=0))
        out = apply_label_fraction(ds, 1.0, seed=0)
        for a, b in zip(ds.tasks, out.tasks):
            np.testing.assert_array_equal(a.X, b.X)
            np.testing.assert_array_equal(a.Y, b.Y)
            assert b.labeled_mask.all()

    def test_table_row_count(self):
        # 5% of 4000 must be exactly 200 labeled, all classes present
        rng = np.random.default_rng(1)
        n, c = 4000, 20
        labels = np.arange(n) % c
        Y = np.zeros((n, c))
        Y[np.arange(n), labels] = 1
        task = TaskData(name="big", X=rng.standard_normal((4, n)), Y=Y)
        out = apply_label_fraction(MultiTaskDataset(tasks=(task,)), 0.05, seed=0)
        t = out.tasks[0]
        assert t.n_labeled == 200
        kept_classes = np.argmax(t.Y[t.labeled_mask], axis=1)
        assert set(kept_classes) == set(range(c))

    def test_seed_determinism(self):
        ds = generate_synthetic(SynthConfig(d=6, s=2, t=2, n_per_task=40, seed=5))
        a = apply_label_fraction(ds, 0.3, seed=11)
        b = apply_label_fraction(ds, 0.3, seed=11)
        c = apply_label_fraction(ds, 0.3, seed=12)
        for ta, tb in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.labeled_mask, tb.labeled_mask)
        assert any(
            not np.array_equal(ta.labeled_mask, tc.labeled_mask)
            for ta, tc in zip(a.tasks, c.tasks)
        )

    def test_never_changes_x_or_dims(self):
        ds = generate_synthetic(SynthConfig(d=9, s=3, t=3, n_per_task=25, seed=2))
        out = apply_label_fraction(ds, 0.2, seed=4)
        assert out.n_features == ds.n_features
        for a, b in zip(ds.tasks, out.tasks):
            np.testing.assert_array_equal(a.X, b.X)
            assert b.n_samples == a.n_samples
            assert b.n_classes == a.n_classes

    def test_too_few_for_classes(self):
        ds = generate_synthetic(SynthConfig(d=4, s=1, t=1, n_per_task=30, c=5, seed=0))
        with pytest.raises(ValidationError, match="fewer"):
            apply_label_fraction(ds, 0.05, seed=0)  # ceil(1.5) = 2 < 5 classes

    def test_stratification_keeps_every_class(self):
        ds = generate_synthetic(SynthConfig(d=4, s=1, t=1, n_per_task=60, c=3, seed=8))
        for seed in range(10):
            out = apply_label_fraction(ds, 0.07, seed=seed)
            t = out.tasks[0]
            classes = np.argmax(t.Y[t.labeled_mask], axis=1)
            assert set(classes) == {0, 1, 2}


class TestGenerateSynthetic:
    def test_zero_noise_degenerate(self):
        cfg = SynthConfig(d=10, s=3, t=2, n_per_task=12, noise_sigma=0.0, seed=1)
        ds = generate_synthetic(cfg)
        sup = ds.support
        for task in ds.tasks:
            labels = np.argmax(task.Y, axis=1)
            for c in range(task.n_classes):
                block = task.X[np.ix_(sup, np.flatnonzero(labels == c))]
                assert np.ptp(block, axis=1).max() == 0.0

    def test_support_shared_and_sized(self):
        ds = generate_synthetic(SynthConfig(d=20, s=4, t=2, n_per_task=10, seed=3))
        assert len(ds.support) == 4
        assert all(0 <= j < 20 for j in ds.support)

    def test_fisher_separates_support(self):
        # oracle Fisher scores must rank every planted dim above every noise dim
        cfg = SynthConfig(d=30, s=5, t=2, n_per_task=120,
                          signal_strength=1.0, noise_sigma=0.2, seed=4)
        ds = generate_synthetic(cfg)
        sup = set(ds.support)
        for task in ds.tasks:
            labels = np.argmax(task.Y, axis=1)
            scores = fisher_oracle(task.X, labels)
            worst_support = min(scores[j] for j in sup)
            best_noise = max(scores[j] for j in range(cfg.d) if j not in sup)
            assert worst_support > best_noise

    def test_seed_bit_identical(self):
        cfg = SynthConfig(d=8, s=2, t=2, n_per_task=9, seed=42)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        for ta, tb in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.X, tb.X)
            np.testing.assert_array_equal(ta.Y, tb.Y)

    def test_config_invariants(self):
        with pytest.raises(ValidationError):
            SynthConfig(d=5, s=6)
        with pytest.raises(ValidationError):
            SynthConfig(signal_strength=0.0)
        with pytest.raises(ValidationError):
            SynthConfig(noise_sigma=-1.0)
        with pytest.raises(ValidationError):
            SynthConfig(c=1)


class TestTaskDataInvariants:
    def test_arrays_are_frozen(self):
        ds = generate_synthetic(SynthConfig(d=4, s=1, t=1, n_per_task=6, seed=0))
        with pytest.raises(ValueError):
            ds.tasks[0].X[0, 0] = 99.0

    def test_labeled_mask_derived_from_labels(self):
        # a sample is labeled iff its label row holds a 1; the mask is read
        # off Y, not set, and cannot be changed
        Y = np.array([[0, 1], [0, 0], [1, 0], [0, 0]])
        task = TaskData(name="t", X=np.zeros((2, 4)), Y=Y)
        np.testing.assert_array_equal(task.labeled_mask, [True, False, True, False])
        assert task.labeled_mask.dtype == bool and task.n_labeled == 2
        with pytest.raises(ValueError):
            task.labeled_mask[1] = True
        with pytest.raises(AttributeError):
            task.labeled_mask = np.ones(4, dtype=bool)
        with pytest.raises(TypeError):
            TaskData(name="t", X=np.zeros((2, 4)), Y=Y, labeled_mask=np.ones(4, dtype=bool))

    def test_no_labeled_sample_rejected(self):
        X = np.zeros((2, 3))
        Y = np.zeros((3, 2))
        with pytest.raises(ValidationError, match="at least one labeled"):
            TaskData(name="t", X=X, Y=Y)

    def test_label_entries_checked(self):
        X = np.zeros((2, 2))
        Y = np.array([[0.5, 0.5], [1, 0]])
        with pytest.raises(ValidationError, match="0 or 1"):
            TaskData(name="t", X=X, Y=Y)
