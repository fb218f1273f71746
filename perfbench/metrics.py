"""Metric names, units, and the per-layer figures of a traced run.

End-to-end metrics come from untraced units only.  `GATED` are the ones every
workload defines and that repeat within their bounds; they form the result
line the regression check compares.  `wall_kref` is the median unit time in
thousands of reference loops timed on the same core during the unit (see
`worker.Speedometer`); `wall_s`, the same time in seconds, is printed and
kept but not gated, because on a shared host it moves with the host's load
by more than any bound.  `audit_s` and the single-query latencies exist on
some workloads only, and `fail_frac` is 0 on a healthy run, so those are
printed and written to the results file, and `fail_frac` also travels as the
result line's `attempted`/`failed` pair.

Which end-to-end metric each layer metric should move, per workload:
- model.*: wall_s on desk-attack and explain-mix; on full-scale-step only
  through grad_input_full.us_per_call.
- explainers.*: wall_s and audit_s everywhere; attempts_* and
  attempt_success_ratio also move explain_p50_s/explain_p90_s on explain-mix.
- adversary.phase1_fit.*, adversary.phase2_fit.*: wall_s on desk-attack.
- adversary.implicit_jacobian.*, hypergrad.skipped, jacobian_mb: wall_s and
  peak_rss_mb on full-scale-step; barely desk-attack; not explain-mix.
- audit.*: audit_s.  data.*: setup_s and wall_s.  cli.main.self_s: wall_s on
  desk-attack.
"""

from __future__ import annotations

import numpy as np

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_kref": "kref",
    "audit_s": "s",
    "explain_p50_s": "s",
    "explain_p90_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}
GATED = ("setup_s", "wall_kref", "peak_rss_mb")

PER_LAYER = {
    "model.grad_input_full.calls": "count",
    "model.grad_input_full.rows": "count",
    "model.grad_input_full.self_s": "s",
    "model.grad_input_full.us_per_call": "us",
    "model.grad_params.calls": "count",
    "model.grad_params.self_s": "s",
    "model.forward.calls": "count",
    "model.forward.self_s": "s",
    "model.adam_step.calls": "count",
    "model.adam_step.self_s": "s",
    "explainers.search.calls": "count",
    "explainers.search.self_s": "s",
    "explainers.queries": "count",
    "explainers.iterations": "count",
    "explainers.us_per_step": "us",
    "explainers.attempts_p50": "count",
    "explainers.attempts_p90": "count",
    "explainers.attempts_max": "count",
    "explainers.attempt_success_ratio": "ratio",
    "explainers.fallbacks": "count",
    "explainers.not_found": "count",
    "adversary.phase1_fit.s": "s",
    "adversary.phase1_fit.ms_per_step": "ms",
    "adversary.phase2_fit.s": "s",
    "adversary.phase2_fit.eval_s": "s",
    "adversary.phase2_fit.search_share": "ratio",
    "adversary.implicit_jacobian.calls": "count",
    "adversary.implicit_jacobian.self_s": "s",
    "adversary.implicit_jacobian.ms_p50": "ms",
    "adversary.implicit_jacobian.ms_p90": "ms",
    "adversary.implicit_jacobian.mode_full": "count",
    "adversary.implicit_jacobian.mode_diagonal": "count",
    "adversary.implicit_jacobian.approximate": "count",
    "adversary.implicit_jacobian.condition_errors": "count",
    "adversary.hypergrad.skipped": "count",
    "adversary.jacobian_mb": "MB-computed",
    "audit.run_audit.s": "s",
    "audit.outlier_percentage.self_s": "s",
    "audit.lof.scores": "count",
    "data.load_csv.s": "s",
    "data.make_synthetic.s": "s",
    "data.group_slices.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

CHECK_SPAN = "bench.check"
SEARCH_SPANS = ("explainers.find_counterfactual", "explainers.batch_explain")
OPTIMIZER_SPANS = ("model.adam_step", "model.sgd_momentum_step")
GRAD_PARAMS_SPANS = ("model.grad_params_bce", "model.grad_params_squared_push",
                     "model.grad_params_hinge_logit")


def layer_metrics(tracer, record, traced_wall: float, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced set-up plus unit, and the histograms."""
    spans = tracer.summary(CHECK_SPAN)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": np.empty(0), "parents": []}

    def get(name):
        return spans.get(name, empty)

    def total(names, field="total_s"):
        return sum(get(n)[field] for n in names)

    def calls_under(names, parents):
        return sum(p in parents for n in names for p in get(n)["parents"])

    m: dict[str, float] = {}
    gif = get("model.grad_input_full")
    m["model.grad_input_full.calls"] = gif["calls"]
    m["model.grad_input_full.rows"] = tracer.rows.get("model.grad_input_full", 0)
    m["model.grad_input_full.self_s"] = gif["self_s"]
    m["model.grad_input_full.us_per_call"] = 1e6 * gif["total_s"] / max(gif["calls"], 1)
    m["model.grad_params.calls"] = total(GRAD_PARAMS_SPANS, "calls")
    m["model.grad_params.self_s"] = total(GRAD_PARAMS_SPANS, "self_s")
    m["model.forward.calls"] = get("model.forward")["calls"]
    m["model.forward.self_s"] = get("model.forward")["self_s"]
    m["model.adam_step.calls"] = get("model.adam_step")["calls"]
    m["model.adam_step.self_s"] = get("model.adam_step")["self_s"]

    results = list(record.results())
    attempts = np.array([len(r.lam_attempts) for r in results], dtype=int)
    searched = attempts > 0
    batched_steps = calls_under(OPTIMIZER_SPANS, SEARCH_SPANS)
    m["explainers.search.calls"] = total(SEARCH_SPANS, "calls")
    m["explainers.search.self_s"] = total(SEARCH_SPANS, "self_s")
    m["explainers.queries"] = len(results)
    m["explainers.iterations"] = int(sum(r.iterations for r in results))
    m["explainers.us_per_step"] = 1e6 * total(SEARCH_SPANS) / max(batched_steps, 1)
    m["explainers.attempts_p50"] = _pct(attempts, 50)
    m["explainers.attempts_p90"] = _pct(attempts, 90)
    m["explainers.attempts_max"] = int(attempts.max()) if attempts.size else 0
    m["explainers.attempt_success_ratio"] = (
        sum(r.found for r, s in zip(results, searched) if s) / max(int(attempts.sum()), 1))
    m["explainers.fallbacks"] = sum(r.optimizer == "sgd-momentum-fallback" for r in results)
    m["explainers.not_found"] = sum(not r.found for r in results)

    p1 = get("adversary.phase1_fit")
    phase1_steps = calls_under(("model.adam_step",), ("adversary.phase1_fit",)) // 2
    m["adversary.phase1_fit.s"] = p1["total_s"]
    m["adversary.phase1_fit.ms_per_step"] = 1e3 * p1["total_s"] / max(phase1_steps, 1)
    p2 = get("adversary.phase2_fit")
    p2_search = sum(d for n in SEARCH_SPANS
                    for d, p in zip(get(n)["durations"], get(n)["parents"])
                    if p == "adversary.phase2_fit")
    m["adversary.phase2_fit.s"] = p2["total_s"]
    m["adversary.phase2_fit.eval_s"] = p2["total_s"] / max(record.phase2_evaluations, 1)
    m["adversary.phase2_fit.search_share"] = p2_search / p2["total_s"] if p2["total_s"] else 0.0

    jac = get("adversary.implicit_jacobian")
    m["adversary.implicit_jacobian.calls"] = jac["calls"]
    m["adversary.implicit_jacobian.self_s"] = jac["self_s"]
    m["adversary.implicit_jacobian.ms_p50"] = 1e3 * _pct(jac["durations"], 50)
    m["adversary.implicit_jacobian.ms_p90"] = 1e3 * _pct(jac["durations"], 90)
    m["adversary.implicit_jacobian.mode_full"] = record.jacobian_modes.count("full-inverse")
    m["adversary.implicit_jacobian.mode_diagonal"] = record.jacobian_modes.count(
        "diagonal-approximation")
    m["adversary.implicit_jacobian.approximate"] = record.jacobian_approximate
    m["adversary.implicit_jacobian.condition_errors"] = record.condition_errors
    m["adversary.hypergrad.skipped"] = record.hypergrad_skipped
    m["adversary.jacobian_mb"] = max((d * p * 8 / 1e6 for d, p in record.jacobian_dims),
                                     default=0.0)

    m["audit.run_audit.s"] = get("audit.run_audit")["total_s"]
    m["audit.outlier_percentage.self_s"] = get("audit.outlier_percentage")["self_s"]
    m["audit.lof.scores"] = get("audit.local_outlier_factor")["calls"]
    m["data.load_csv.s"] = get("data.load_csv")["total_s"]
    m["data.make_synthetic.s"] = get("data.make_synthetic")["total_s"]
    m["data.group_slices.self_s"] = get("data.group_slices")["self_s"]
    m["cli.main.self_s"] = sum(s["self_s"] for n, s in spans.items() if n.startswith("cli."))

    unit_s, covered_s = tracer.children_of("bench.unit", CHECK_SPAN)
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.coverage"] = covered_s / unit_s

    histograms = {
        "attempts": {int(k): int(v) for k, v in zip(*np.unique(attempts, return_counts=True))},
        "spans": {n: {"calls": s["calls"], "total_s": s["total_s"], "self_s": s["self_s"]}
                  for n, s in sorted(spans.items())},
    }
    return {k: float(v) for k, v in m.items()}, histograms


def _pct(values, q) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def latency_summary(latencies) -> dict:
    """Nearest-rank p50 and p90 of single-query latencies.

    A percentile is reported only when at least ten samples lie beyond it
    (20 samples for p50, 100 for p90); `tail` is the highest percentile that
    has ten beyond it.
    """
    lat = np.sort(np.asarray(latencies, dtype=float))
    n = lat.size

    def rank(q):
        k = int(np.ceil(q * n)) - 1
        return float(lat[k]) if n and n - 1 - k >= 10 else None

    out = {"count": int(n), "p50": rank(0.5), "p90": rank(0.9),
           "tail_pct": None, "tail": None}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = float(lat[n - 11])
    return out
