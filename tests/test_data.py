import numpy as np
import pytest

import recourselab as rl
from recourselab import explainers
from recourselab.adversary import Phase2Config, counterfactual_term_grad, phase2_fit
from recourselab.data import (
    CsvSchema, DataError, SchemaError, compute_mad, compute_mad_raw, load_csv,
    make_synthetic, mad_vector, split,
)
from recourselab.explainers import CfObjective, sensitivity_probe


class TestMad:
    def test_constant_column_substituted(self):
        assert compute_mad_raw([3, 3, 3]) == 0.0
        assert compute_mad([3, 3, 3]) == 1.0
        _, flags = mad_vector(np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 9.0]]))
        assert flags.tolist() == [True, False]

    def test_hand_example(self):
        # median 3, deviations {2,1,0,1,97}, median of those 1
        assert compute_mad([1, 2, 3, 4, 100]) == 1.0

    def test_two_element(self):
        # median 0.5, both deviations 0.5
        assert compute_mad([0, 1]) == 0.5

    def test_empty_column_rejected(self):
        with pytest.raises(DataError):
            compute_mad([])

    def test_translation_invariant_scale_equivariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(2, 30))
            if compute_mad_raw(v) == 0.0:
                continue
            a = rng.uniform(-5, 5)
            b = rng.uniform(-5, 5)
            if a == 0.0:
                continue
            assert compute_mad_raw(a * v + b) == pytest.approx(abs(a) * compute_mad_raw(v))


class TestSplit:
    def test_sizes_disjoint(self):
        ds = make_synthetic(25, seed=0)
        assert len(ds.train_idx) == 40 and len(ds.test_idx) == 10
        assert not set(ds.train_idx) & set(ds.test_idx)

    def test_deterministic(self):
        ds = make_synthetic(25, seed=0)
        again = split(ds, seed=11)
        twice = split(ds, seed=11)
        assert again.train_idx.tobytes() == twice.train_idx.tobytes()
        assert again.test_idx.tobytes() == twice.test_idx.tobytes()

    def test_different_seeds_differ(self):
        ds = make_synthetic(50, seed=0)
        a = split(ds, seed=1)
        b = split(ds, seed=2)
        assert not np.array_equal(a.train_idx, b.train_idx)

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            rl.data._finalize(np.zeros((4, 2)), np.zeros(4), np.zeros(4, bool),
                              ("a", "b"), seed=0)


class TestStandardization:
    def test_train_columns_centered_unit_variance(self):
        ds = make_synthetic(100, seed=5)
        tr = ds.train_features
        assert np.abs(tr.mean(axis=0)).max() < 1e-9
        assert np.abs(tr.var(axis=0) - 1.0).max() < 1e-6

    def test_round_trip(self):
        ds = make_synthetic(50, seed=2)
        raw = ds.destandardize(ds.features)
        back = ds.standardize(raw)
        assert np.abs(back - ds.features).max() < 1e-9

    def test_immutable(self):
        ds = make_synthetic(20, seed=2)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0


class TestSynthetic:
    def test_construction(self):
        ds = make_synthetic(50, seed=4)
        assert ds.n == 100 and ds.d == 2
        assert ds.labels.sum() == 50
        assert 0.3 < ds.protected.mean() < 0.7

    def test_cluster_means(self):
        n = 400
        ds = make_synthetic(n, seed=9)
        raw = ds.destandardize(ds.features)
        tol = 3.0 / np.sqrt(n)
        assert np.abs(raw[ds.labels == 0].mean(axis=0) - (-2, 0)).max() < tol
        assert np.abs(raw[ds.labels == 1].mean(axis=0) - (2, 0)).max() < tol

    def test_minimum_size(self):
        with pytest.raises(DataError):
            make_synthetic(5, seed=0)

    def test_default_baseline_reaches_95pct(self):
        ds = make_synthetic(50, seed=4)
        trained = rl.train_baseline(ds, steps=50, seed=0)
        assert rl.accuracy(trained.model, ds.test_features, ds.test_labels) >= 0.95


class TestGroupSlices:
    def test_partition(self, synth_small, baseline_small):
        slices = synth_small.group_slices(baseline_small, split="all")
        combined = np.sort(np.concatenate([s.indices for s in slices.values()]))
        assert np.array_equal(combined, np.arange(synth_small.n))

    def test_negative_slices_use_predictions(self, synth_small, baseline_small):
        slices = synth_small.group_slices(baseline_small, split="test")
        for role in ("protected-neg", "nonprotected-neg"):
            probs = baseline_small.forward(synth_small.features[slices[role].indices])
            assert (np.asarray(probs) <= 0.5).all()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_tiny(self, tmp_path):
        path = _write(tmp_path, "tiny.csv",
                      "a,b,y\n1,5,0\n-1,6,1\n2,7,0\n-2,8,1\n0,9,1\n")
        ds = load_csv(path, CsvSchema(label="y", protected_column="a", protected_op=">",
                                      protected_threshold=0.0))
        assert ds.n == 5 and ds.d == 2
        raw = ds.destandardize(ds.features)
        assert np.array_equal(ds.protected, raw[:, 0] > 0)

    def test_constant_column_maps_to_zero(self, tmp_path):
        path = _write(tmp_path, "const.csv",
                      "a,b,y\n7,1,0\n7,2,1\n7,3,0\n7,4,1\n7,5,1\n7,6,0\n")
        ds = load_csv(path, CsvSchema(label="y", protected_column="b",
                                      protected_threshold=3.0))
        col = list(ds.feature_names).index("a")
        train_vals = ds.features[ds.train_idx][:, col]
        assert np.all(train_vals == 0.0)
        assert ds.mad_substituted[col]
        assert ds.mad[col] == 1.0

    def test_credit_shaped_feature_subset(self, tmp_path, credit_csv=None):
        # 27 columns, 7 numeric ones selected by the schema
        rng = np.random.default_rng(0)
        cols = [f"c{i}" for i in range(26)] + ["risk"]
        lines = [",".join(cols)]
        for i in range(60):
            vals = [f"{v:.3f}" for v in rng.normal(size=26)]
            lines.append(",".join(vals + [str(rng.integers(0, 2))]))
        path = _write(tmp_path, "credit.csv", "\n".join(lines) + "\n")
        schema = CsvSchema(label="risk", protected_column="c0",
                           features=[f"c{i}" for i in range(7)])
        ds = load_csv(path, schema)
        assert ds.d == 7 and ds.n == 60

    def test_malformed_row_reports_line(self, tmp_path):
        path = _write(tmp_path, "bad.csv", "a,y\n1,0\nxx,1\n2,0\n3,1\n4,0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, CsvSchema(label="y", protected_column="a"))

    # a non-finite cell would make its column's centre and scale non-finite
    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "Infinity"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = _write(tmp_path, "inf.csv", f"a,b,y\n1,5,0\n2,{cell},1\n3,7,0\n4,8,1\n")
        with pytest.raises(DataError, match=f"^line 3: cannot parse b='{cell}' as a number$"):
            load_csv(path, CsvSchema(label="y", protected_column="a"))

    def test_non_binary_label_rejected(self, tmp_path):
        path = _write(tmp_path, "lab.csv", "a,y\n1,0\n2,2\n3,0\n4,1\n5,0\n")
        with pytest.raises(SchemaError, match="not binary"):
            load_csv(path, CsvSchema(label="y", protected_column="a"))

    def test_below_median_binarization(self, tmp_path):
        path = _write(tmp_path, "med.csv",
                      "a,crime\n1,10\n2,20\n3,30\n4,40\n5,50\n6,60\n")
        ds = load_csv(path, CsvSchema(label="crime", protected_column="a",
                                      label_rule="below-median"))
        raw = ds.destandardize(ds.features)[:, 0]
        order = np.argsort(raw)
        assert ds.labels[order].tolist() == [1, 1, 1, 0, 0, 0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "nope.csv", CsvSchema(label="y", protected_column="a"))

    def test_row_drop_on_missing_values(self, tmp_path):
        path = _write(tmp_path, "na.csv",
                      "a,b,y\n1,1,0\n2,,1\n3,3,0\n4,4,1\n5,5,0\n6,6,1\n")
        ds = load_csv(path, CsvSchema(label="y", protected_column="a"))
        assert ds.n == 5


def test_dataset_csv_snapshot(tmp_path):
    ds = make_synthetic(10, seed=1)
    path = tmp_path / "snapshot.csv"
    ds.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,label,protected,split"
    assert len(lines) == ds.n + 1
    cells = lines[1].split(",")
    assert float(cells[0]) == ds.features[0, 0]
    assert cells[4] in ("train", "test")


BAD_DELTAS = {"scalar": (0.3, r"got shape \(\)"),
              "one-value": (np.array([0.3]), r"got shape \(1,\)"),
              "three-values": ([0.1, 0.2, 0.3], r"got shape \(3,\)"),
              "nan": ([float("nan"), 0.0], "must be finite")}

# The entry points besides `run_audit` (checked in test_audit.py) that take
# a δ, called on the 2-feature data with one.
DELTA_ENTRY_POINTS = {
    "phase2_fit": lambda net, ds, delta: phase2_fit(
        net, delta, ds, Phase2Config(objective=CfObjective("wachter"), steps=1)),
    "counterfactual_term_grad": lambda net, ds, delta: counterfactual_term_grad(
        net, ds.features[0], delta, CfObjective("wachter"), ds),
    "sensitivity_probe": lambda net, ds, delta: sensitivity_probe(
        net, ds.features[0], delta, CfObjective("wachter"), ds),
}


class TestCheckedDelta:
    @pytest.mark.parametrize("bad", BAD_DELTAS)
    @pytest.mark.parametrize("entry", DELTA_ENTRY_POINTS)
    def test_every_entry_point_refuses_before_search(self, monkeypatch, synth_small,
                                                     baseline_small, entry, bad):
        def no_search(*args, **kwargs):
            raise AssertionError("searched with a malformed delta")

        monkeypatch.setattr(explainers, "_search_many", no_search)
        delta, reason = BAD_DELTAS[bad]
        with pytest.raises(DataError, match=f"^delta: .*{reason}"):
            DELTA_ENTRY_POINTS[entry](baseline_small, synth_small, delta)
