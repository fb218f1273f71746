"""Recourse fairness and realism metrics, and audit report assembly."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import explainers
from .data import Dataset, checked_delta
from .explainers import CfObjective, CfResult, Initializer, SearchBudget
from .model import MlpClassifier, accuracy

REPORT_CSV_HEADER = (
    "explainer", "initializer", "tau", "fair",
    "mean_cost_protected", "mean_cost_nonprotected", "mean_cost_nonprotected_delta",
    "disparity", "cost_reduction", "accuracy", "delta_l1",
    "outlier_pct_protected", "outlier_pct_nonprotected", "outlier_pct_nonprotected_delta",
    "not_found_protected", "not_found_nonprotected", "not_found_nonprotected_delta",
    "n_protected", "n_nonprotected",
)

CONDITIONS = ("protected", "nonprotected", "nonprotected_delta")


def disparity(costs_pr: Sequence[float], costs_np: Sequence[float]) -> float:
    """Absolute gap between per-group mean recourse costs; nan when undefined."""
    costs_pr = np.asarray(costs_pr, dtype=float)
    costs_np = np.asarray(costs_np, dtype=float)
    if costs_pr.size == 0 or costs_np.size == 0:
        return float("nan")
    return float(abs(costs_pr.mean() - costs_np.mean()))


def cost_reduction(clean_costs: Sequence[float], perturbed_costs: Sequence[float]) -> float:
    """Ratio of clean to perturbed mean cost; inf when the perturbed mean is 0."""
    clean = np.asarray(clean_costs, dtype=float)
    perturbed = np.asarray(perturbed_costs, dtype=float)
    if clean.size == 0 or perturbed.size == 0:
        return float("nan")
    denom = perturbed.mean()
    if denom == 0.0:
        return float("inf")
    return float(clean.mean() / denom)


def true_positive_points(model: MlpClassifier, dataset: Dataset) -> np.ndarray:
    """Train rows that are labeled positive and predicted positive."""
    tr = dataset.train_idx
    feats = dataset.features[tr]
    mask = (dataset.labels[tr] == 1) & (np.asarray(model.forward(feats)) > 0.5)
    return feats[mask]


def local_outlier_factor(x_cf, positives, mad=None) -> float:
    """Single-neighbor outlier score of a counterfactual among the positives.

    Distance of the counterfactual to its nearest positive, over that
    neighbor's distance to its own nearest other positive.  Scores above 1
    flag the counterfactual as out of distribution.  `mad=None` uses plain
    l1 instead of the MAD weighting.
    """
    positives = np.atleast_2d(np.asarray(positives, dtype=float))
    n, d = positives.shape
    if n < 2:
        return float("nan")
    x_cf = np.asarray(x_cf, dtype=float)
    weights = np.ones(d) if mad is None else np.asarray(mad, dtype=float)
    dists = (np.abs(positives - x_cf) / weights).sum(axis=1)
    a0 = int(np.argmin(dists))
    numerator = dists[a0]
    if numerator == 0.0:
        return 0.0
    neighbor = (np.abs(positives - positives[a0]) / weights).sum(axis=1)
    neighbor[a0] = np.inf
    denominator = neighbor.min()
    if denominator == 0.0:
        return float("inf")
    return float(numerator / denominator)


def outlier_percentage(results: Sequence[CfResult], positives, mad=None) -> float:
    """Percent of valid counterfactuals scoring above 1; nan with no valid results."""
    scores = [local_outlier_factor(r.x_cf, positives, mad) for r in results if r.valid]
    if not scores:
        return float("nan")
    return float(100.0 * np.mean([s > 1.0 for s in scores]))


@dataclass
class AuditReport:
    """Everything an auditor records for one model/explainer combination."""

    explainer: str
    initializer: str
    tau: float
    fair: bool | None
    mean_cost_protected: float
    mean_cost_nonprotected: float
    mean_cost_nonprotected_delta: float
    disparity: float
    cost_reduction: float
    accuracy: float
    delta_l1: float
    outlier_pct: dict[str, float]
    not_found: dict[str, int]
    n_queries: dict[str, int]
    seeds: dict[str, int]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, allow_nan=True)

    @classmethod
    def from_json(cls, text: str) -> "AuditReport":
        blob = json.loads(text)
        return cls(**blob)

    def to_csv_row(self) -> list:
        return [
            self.explainer, self.initializer, repr(self.tau),
            "" if self.fair is None else int(self.fair),
            repr(self.mean_cost_protected), repr(self.mean_cost_nonprotected),
            repr(self.mean_cost_nonprotected_delta),
            repr(self.disparity), repr(self.cost_reduction),
            repr(self.accuracy), repr(self.delta_l1),
            repr(self.outlier_pct["protected"]), repr(self.outlier_pct["nonprotected"]),
            repr(self.outlier_pct["nonprotected_delta"]),
            self.not_found["protected"], self.not_found["nonprotected"],
            self.not_found["nonprotected_delta"],
            self.n_queries["protected"], self.n_queries["nonprotected"],
        ]


@dataclass
class AuditDetails:
    report: AuditReport
    results: dict[str, list[CfResult]]


def run_audit(model: MlpClassifier, dataset: Dataset, objective: CfObjective,
              *, delta=None, tau: float = 1.0,
              initializer: Initializer = Initializer(),
              budget: SearchBudget = SearchBudget(),
              lof: bool = True, return_details: bool = False):
    """Definition-style audit on the test split.

    The three conditions (`_search_conditions`) on the model-predicted
    negatives of the test split.  `delta=None` audits a plain model (zero
    perturbation).  A δ that is not one finite value per feature raises a
    DataError (a ValueError) starting "delta:".  Inputs are never mutated.
    """
    dvec = np.zeros(dataset.d) if delta is None else checked_delta(delta, dataset.d)
    slices = dataset.group_slices(model, split="test")
    pr = dataset.features[slices["protected-neg"].indices]
    np_ = dataset.features[slices["nonprotected-neg"].indices]

    conditions = _search_conditions(model, pr, np_, dvec, objective, dataset, initializer,
                                    budget)
    runs = {name: run for name, (_, _, run) in zip(CONDITIONS, conditions)}

    costs = {name: [r.cost for r in run.results if r.valid] for name, run in runs.items()}
    disp = disparity(costs["protected"], costs["nonprotected"])
    reduction = cost_reduction(costs["nonprotected"], costs["nonprotected_delta"])

    outliers = {name: float("nan") for name in CONDITIONS}
    if lof:
        positives = true_positive_points(model, dataset)
        if positives.shape[0] >= 2:
            for name, run in runs.items():
                outliers[name] = outlier_percentage(run.results, positives, dataset.mad)

    report = AuditReport(
        explainer=objective.kind,
        initializer=initializer.kind,
        tau=float(tau),
        fair=None if math.isnan(disp) else bool(disp <= tau),
        mean_cost_protected=runs["protected"].mean_cost,
        mean_cost_nonprotected=runs["nonprotected"].mean_cost,
        mean_cost_nonprotected_delta=runs["nonprotected_delta"].mean_cost,
        disparity=disp,
        cost_reduction=reduction,
        accuracy=accuracy(model, dataset.test_features, dataset.test_labels),
        delta_l1=float(np.sum(np.abs(dvec))),
        outlier_pct=outliers,
        not_found={name: run.not_found for name, run in runs.items()},
        n_queries={"protected": int(pr.shape[0]), "nonprotected": int(np_.shape[0]),
                   "nonprotected_delta": int(np_.shape[0])},
        seeds={"initializer": initializer.seed},
    )
    if return_details:
        return AuditDetails(report=report,
                            results={name: run.results for name, run in runs.items()})
    return report


def _search_conditions(model, protected, nonprotected, delta, objective, dataset, initializer,
                       budget) -> list[tuple]:
    """The audit's three conditions (CONDITIONS) in one batch: `protected`,
    `nonprotected`, and `nonprotected` moved by `delta` with its costs still
    measured from the clean rows.  Returns each condition's (cost
    references, queries, `BatchExplainResult`).

    Each condition is one segment of the batch and draws its starts as a
    search of its own would, so the two non-protected conditions share
    theirs.  A zero δ repeats the non-protected segment, which
    `batch_explain` then searches once.
    """
    pairs = [(protected, protected), (nonprotected, nonprotected),
             (nonprotected, nonprotected + delta)]
    segments = tuple(len(queries) for _, queries in pairs)
    batch = explainers.batch_explain(
        model, np.concatenate([queries for _, queries in pairs]), objective, dataset,
        initializer, budget, cost_reference=np.concatenate([refs for refs, _ in pairs]),
        segments=segments)
    return [(refs, queries, run) for (refs, queries), run in zip(pairs, batch.split(segments))]


def report_to_csv(report: AuditReport, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_CSV_HEADER)
        writer.writerow(report.to_csv_row())
