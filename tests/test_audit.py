import dataclasses
import json
import math

import numpy as np
import pytest

import recourselab as rl
from recourselab.audit import (
    AuditReport, cost_reduction, disparity, local_outlier_factor, outlier_percentage,
    report_to_csv, run_audit, true_positive_points,
)
from recourselab import explainers
from recourselab.explainers import (
    OBJECTIVE_KINDS, CfObjective, CfResult, Initializer, SearchBudget, batch_explain,
)

from conftest import negative_test_rows


def lof_oracle(x_cf, positives, weights):
    """Independent double-loop reimplementation used as the reference."""
    n = len(positives)
    dists = []
    for p in positives:
        total = 0.0
        for a, b, w in zip(x_cf, p, weights):
            total += abs(a - b) / w
        dists.append(total)
    a0 = 0
    for i in range(1, n):
        if dists[i] < dists[a0]:
            a0 = i
    if dists[a0] == 0.0:
        return 0.0
    best = math.inf
    for i in range(n):
        if i == a0:
            continue
        total = 0.0
        for a, b, w in zip(positives[a0], positives[i], weights):
            total += abs(a - b) / w
        best = min(best, total)
    if best == 0.0:
        return math.inf
    return dists[a0] / best


def make_result(x_cf, valid=True, cost=1.0):
    return CfResult(x_cf=None if x_cf is None else np.asarray(x_cf, dtype=float),
                    valid=valid, cost=cost, iterations=1, final_lam=1.0,
                    initializer="origin", optimizer="adam")


class TestDisparity:
    def test_reference_table_manipulated(self):
        # published manipulated-model group means
        assert disparity([35.68], [35.31]) == pytest.approx(0.37, abs=1e-9)

    def test_reference_table_unmodified(self):
        assert disparity([22.70], [19.11]) == pytest.approx(3.59, abs=1e-9)

    def test_identical_lists(self):
        assert disparity([3.0, 5.0], [3.0, 5.0]) == 0.0

    def test_symmetric(self):
        assert disparity([1.0, 2.0], [5.0]) == disparity([5.0], [1.0, 2.0])

    def test_empty_is_nan_not_zero(self):
        assert math.isnan(disparity([], [1.0]))
        assert math.isnan(disparity([1.0], []))


class TestCostReduction:
    def test_reference_ratio_large(self):
        r = cost_reduction([35.31], [1.76])
        assert r == pytest.approx(20.0625, abs=1e-9)
        assert abs(r - 20.1) < 0.3

    def test_reference_ratio_small(self):
        assert cost_reduction([5.08], [3.16]) == pytest.approx(1.6076, abs=1e-3)

    def test_identical_lists_give_one(self):
        assert cost_reduction([2.0, 4.0], [2.0, 4.0]) == 1.0

    def test_scale_invariance(self):
        a = [1.2, 3.4, 0.7]
        b = [0.5, 0.9]
        assert cost_reduction(a, b) == pytest.approx(
            cost_reduction([7 * v for v in a], [7 * v for v in b]))

    def test_zero_perturbed_mean_is_inf(self):
        assert cost_reduction([1.0], [0.0]) == math.inf

    def test_empty_is_nan(self):
        assert math.isnan(cost_reduction([], [1.0]))


class TestLocalOutlierFactor:
    def test_coincides_with_positive(self):
        positives = np.array([[0.0], [1.0]])
        assert local_outlier_factor([0.0], positives, [1.0]) == 0.0

    def test_hand_outlier(self):
        positives = np.array([[0.0], [1.0]])
        assert local_outlier_factor([3.0], positives, [1.0]) == pytest.approx(2.0)

    def test_hand_inlier(self):
        positives = np.array([[0.0], [1.0]])
        assert local_outlier_factor([0.4], positives, [1.0]) == pytest.approx(0.4)

    def test_too_few_positives(self):
        assert math.isnan(local_outlier_factor([0.0], np.array([[1.0]]), [1.0]))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(2, 21))
            positives = rng.normal(size=(n, d))
            mad = rng.uniform(0.5, 2.0, size=d)
            x_cf = rng.normal(size=d)
            ours = local_outlier_factor(x_cf, positives, mad)
            ref = lof_oracle(x_cf, positives.tolist(), mad.tolist())
            assert ours == ref

    def test_unweighted_option(self):
        positives = np.array([[0.0, 0.0], [2.0, 0.0]])
        weighted = local_outlier_factor([4.0, 0.0], positives, [2.0, 1.0])
        plain = local_outlier_factor([4.0, 0.0], positives, None)
        assert plain == pytest.approx(1.0)
        assert weighted == pytest.approx(1.0)


class TestOutlierPercentage:
    def test_counterfactuals_on_positives_are_inliers(self):
        positives = np.array([[0.0], [1.0], [2.0]])
        results = [make_result([0.0]), make_result([1.0])]
        assert outlier_percentage(results, positives, [1.0]) == 0.0

    def test_no_valid_results_is_nan(self):
        results = [make_result(None, valid=False)]
        assert math.isnan(outlier_percentage(results, np.zeros((3, 1)), [1.0]))

    def test_half_outliers(self):
        positives = np.array([[0.0], [1.0]])
        results = [make_result([0.1]), make_result([0.9]),
                   make_result([5.0]), make_result([-4.0])]
        assert outlier_percentage(results, positives, [1.0]) == 50.0


class TestTruePositives:
    def test_filtering(self, synth_small, baseline_small):
        pts = true_positive_points(baseline_small, synth_small)
        tr = synth_small.train_idx
        labeled = synth_small.features[tr][synth_small.labels[tr] == 1]
        assert pts.shape[0] <= labeled.shape[0]
        assert (baseline_small.forward(pts) > 0.5).all()


class TestRunAudit:
    def test_plain_model_zero_delta_reduction_is_one(self, synth_small, baseline_small):
        report = run_audit(baseline_small, synth_small, CfObjective("wachter"))
        assert report.cost_reduction == 1.0
        assert report.delta_l1 == 0.0
        assert report.fair == (report.disparity <= report.tau)

    def test_json_round_trip(self, synth_small, baseline_small):
        report = run_audit(baseline_small, synth_small, CfObjective("wachter"))
        again = AuditReport.from_json(report.to_json())
        assert again == report

    def test_purity(self, synth_small, baseline_small):
        before_model = baseline_small.flatten().tobytes()
        before_feats = synth_small.features.tobytes()
        delta = np.array([0.1, 0.2])
        before_delta = delta.tobytes()
        run_audit(baseline_small, synth_small, CfObjective("wachter"), delta=delta)
        assert baseline_small.flatten().tobytes() == before_model
        assert synth_small.features.tobytes() == before_feats
        assert delta.tobytes() == before_delta

    def test_csv_row(self, tmp_path, synth_small, baseline_small):
        report = run_audit(baseline_small, synth_small, CfObjective("wachter"))
        path = tmp_path / "report.csv"
        report_to_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("explainer,initializer,tau,fair")

    def test_details_expose_per_condition_results(self, synth_small, baseline_small):
        details = run_audit(baseline_small, synth_small, CfObjective("wachter"),
                            return_details=True)
        assert set(details.results) == {"protected", "nonprotected", "nonprotected_delta"}
        n_pr = details.report.n_queries["protected"]
        assert len(details.results["protected"]) == n_pr

    @pytest.mark.parametrize("delta, reason", [
        (0.3, r"expected shape \(2,\).*got shape \(\)"),
        ([0.5], r"expected shape \(2,\).*got shape \(1,\)"),
        ([0.1, 0.2, 0.3], r"got shape \(3,\)"),
        ([[0.1, 0.2]], r"got shape \(1, 2\)"),
        ([float("nan"), 0.0], "must be finite"),
        ([0.0, -float("inf")], "must be finite")],
        ids=["scalar", "one", "three", "row", "nan", "inf"])
    def test_malformed_delta_rejected_before_search(self, synth_small, baseline_small,
                                                    monkeypatch, delta, reason):
        def no_search(*args, **kwargs):
            raise AssertionError("searched with a malformed delta")

        monkeypatch.setattr(explainers, "_search_many", no_search)
        with pytest.raises(ValueError, match=f"^delta: .*{reason}"):
            run_audit(baseline_small, synth_small, CfObjective("wachter"), delta=delta)

    def test_reference_table_arithmetic(self):
        # recomputing disparity/reduction from published group means stays
        # within print rounding; two reference columns whose printed summary
        # rows were evidently produced from unrounded internals are excluded
        rows = [
            # (protected, nonprotected, nonprotected+delta, disparity, reduction)
            (35.68, 35.31, 1.76, 0.37, 20.1),
            (54.16, 52.05, 22.59, 2.12, 2.3),
            (22.35, 22.65, 8.50, 0.30, 2.6),
            (49.62, 42.63, 9.57, 6.99, 4.5),
            (8.35, 8.59, 4.12, 0.24, 2.0),
            (6.31, 6.81, 3.38, 0.5, 2.0),
        ]
        for pr, np_, npd, disp, red in rows:
            assert abs(disparity([pr], [np_]) - disp) <= 0.05
            assert abs(cost_reduction([np_], [npd]) - red) <= 0.3
        # row where only the reduction survives rounding of its means
        assert abs(cost_reduction([5.08], [3.16]) - 1.8) <= 0.3


def assert_close(a, b, rel=1e-9):
    assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b, rel=rel, abs=1e-12)


def three_searches(model, dataset, objective, initializer, budget, delta):
    """The audit's conditions searched one `batch_explain` call each."""
    slices = dataset.group_slices(model, split="test")
    pr = dataset.features[slices["protected-neg"].indices]
    np_ = dataset.features[slices["nonprotected-neg"].indices]
    return {
        "protected": batch_explain(model, pr, objective, dataset, initializer, budget),
        "nonprotected": batch_explain(model, np_, objective, dataset, initializer, budget),
        "nonprotected_delta": batch_explain(model, np_ + delta, objective, dataset,
                                            initializer, budget, cost_reference=np_),
    }


def assert_matches_three_searches(details, runs, model, dataset):
    """An audit's results and report equal those of its three searches."""
    for name, run in runs.items():
        merged = details.results[name]
        assert len(merged) == len(run.results) > 0
        for got, want in zip(merged, run.results):
            assert (got.found, got.valid, got.iterations, got.lam_attempts,
                    got.final_lam, got.optimizer) == (
                want.found, want.valid, want.iterations, want.lam_attempts,
                want.final_lam, want.optimizer)
            assert np.float64(got.cost).tobytes() == np.float64(want.cost).tobytes()
            if want.found:
                assert got.x_cf.tobytes() == want.x_cf.tobytes()
    report = details.report
    costs = {name: [r.cost for r in run.results if r.valid] for name, run in runs.items()}
    positives = true_positive_points(model, dataset)
    assert_close(report.mean_cost_protected, runs["protected"].mean_cost)
    assert_close(report.mean_cost_nonprotected, runs["nonprotected"].mean_cost)
    assert_close(report.mean_cost_nonprotected_delta, runs["nonprotected_delta"].mean_cost)
    assert_close(report.disparity, disparity(costs["protected"], costs["nonprotected"]))
    assert_close(report.cost_reduction,
                 cost_reduction(costs["nonprotected"], costs["nonprotected_delta"]))
    for name, run in runs.items():
        assert report.not_found[name] == run.not_found
        assert_close(report.outlier_pct[name],
                     outlier_percentage(run.results, positives, dataset.mad))


class TestMergedAudit:
    DELTA = np.array([0.3, -0.2])

    @pytest.mark.parametrize("init", ["origin", "random-uniform", "gaussian-jitter"])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_equals_three_searches(self, synth_small, baseline_small, kind, init):
        objective, initializer = CfObjective(kind), Initializer(init, seed=4)
        budget = SearchBudget(steps=150)
        details = run_audit(baseline_small, synth_small, objective, delta=self.DELTA,
                            initializer=initializer, budget=budget, return_details=True)
        runs = three_searches(baseline_small, synth_small, objective, initializer, budget,
                              self.DELTA)
        assert_matches_three_searches(details, runs, baseline_small, synth_small)

    @pytest.mark.parametrize("delta", [None, np.zeros(2)], ids=["none", "zeros"])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_zero_delta_searches_nonprotected_once(self, synth_small, baseline_small,
                                                    monkeypatch, kind, delta):
        objective = CfObjective(kind)
        initializer = Initializer("random-uniform" if kind == "dice" else "origin", seed=4)
        budget = SearchBudget(steps=150)
        runs = three_searches(baseline_small, synth_small, objective, initializer, budget,
                              np.zeros(2))
        calls = []
        search = explainers._search_many

        def counted(*args, **kwargs):
            calls.append(tuple(kwargs.get("segments")))
            return search(*args, **kwargs)

        monkeypatch.setattr(explainers, "_search_many", counted)
        details = run_audit(baseline_small, synth_small, objective, delta=delta,
                            initializer=initializer, budget=budget, return_details=True)
        n = details.report.n_queries
        assert calls == [(n["protected"], n["nonprotected"])]
        assert_matches_three_searches(details, runs, baseline_small, synth_small)
        assert details.report.cost_reduction == 1.0 and details.report.delta_l1 == 0.0
        clean, moved = details.results["nonprotected"], details.results["nonprotected_delta"]
        assert any(r.found for r in clean)
        for a, b in zip(clean, moved):
            assert a is not b
            for name in ("x_cf", "candidates"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x is None) == (y is None)
                if x is not None:
                    assert not np.shares_memory(x, y)
            if b.found:
                before = a.x_cf.tobytes()
                b.x_cf += 1.0
                assert a.x_cf.tobytes() == before

    def test_one_search_call(self, synth_small, baseline_small, monkeypatch):
        calls = []
        search = explainers._search_many

        def counted(*args, **kwargs):
            calls.append(kwargs.get("segments"))
            return search(*args, **kwargs)

        monkeypatch.setattr(explainers, "_search_many", counted)
        report = run_audit(baseline_small, synth_small, CfObjective("wachter"),
                           delta=self.DELTA, budget=SearchBudget(steps=100))
        n = report.n_queries
        assert calls == [(n["protected"], n["nonprotected"], n["nonprotected"])]

    @pytest.mark.parametrize("empty", ["protected", "nonprotected"])
    def test_empty_condition(self, synth_small, baseline_small, empty):
        everyone = np.full(synth_small.n, empty == "nonprotected")
        ds = dataclasses.replace(synth_small, protected=everyone)
        report = run_audit(baseline_small, ds, CfObjective("wachter"), delta=self.DELTA,
                           budget=SearchBudget(steps=100))
        assert report.n_queries[empty] == 0
        assert report.not_found[empty] == 0
        assert math.isnan(getattr(report, f"mean_cost_{empty}"))
        assert math.isnan(report.outlier_pct[empty])
        assert math.isnan(report.disparity) and report.fair is None
        other = "protected" if empty == "nonprotected" else "nonprotected"
        assert report.n_queries[other] > 0
        assert math.isfinite(getattr(report, f"mean_cost_{other}"))
