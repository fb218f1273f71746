"""What the program returned during one unit of work, and the checks on it.

The probe wraps a few public entry points in every run, traced or not: the
two search entry points, `implicit_jacobian`, `phase2_fit` and `run_audit`.
The wrappers keep the returned results and time the audits.  The work they do
for the checks (parameter snapshots, the hypergradient of each Jacobian) is
timed too and subtracted from the unit's wall time, and shows in a traced run
as `bench.check` spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from tracer import program_modules

SEARCH_ENTRY_POINTS = ("find_counterfactual", "batch_explain")


@dataclass
class SearchCapture:
    model: object               # the live model; `flat` is its state at call time
    flat: np.ndarray
    queries: np.ndarray
    refs: np.ndarray
    mad: np.ndarray
    results: list


@dataclass
class UnitRecord:
    """Everything one unit of work returned through the probe."""

    searches: list[SearchCapture] = field(default_factory=list)
    hypergrad_norms: list[float] = field(default_factory=list)
    jacobian_modes: list[str] = field(default_factory=list)
    jacobian_approximate: int = 0
    jacobian_dims: list[tuple[int, int]] = field(default_factory=list)
    condition_errors: int = 0
    hypergrad_chains: int = 0
    hypergrad_skipped: int = 0
    phase2_evaluations: int = 0
    phase2_aborted: int = 0
    phase2_steps: list = field(default_factory=list)
    audit_s: float = 0.0
    excluded_s: float = 0.0

    def results(self):
        for cap in self.searches:
            yield from cap.results


class Probe:
    def __init__(self, rl):
        self.rl = rl
        self.tracer = None
        self.record = UnitRecord()
        self._search_depth = 0
        self._batch = None
        self._retry_pending = False

    def reset(self) -> UnitRecord:
        done, self.record = self.record, UnitRecord()
        self._batch = None
        self._retry_pending = False
        return done

    @contextmanager
    def excluded(self):
        """Benchmark-side work inside a unit: timed, then taken off its wall."""
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span("bench.check"):
                    yield
        finally:
            self.record.excluded_s += time.perf_counter() - t0

    def install(self, patches) -> None:
        rl = self.rl
        modules = program_modules(rl)
        for name in SEARCH_ENTRY_POINTS:
            fn = getattr(rl.explainers, name)
            patches.everywhere(modules, fn, self._wrap_search(fn))
        for mod, name, make in ((rl.adversary, "implicit_jacobian", self._wrap_jacobian),
                                (rl.adversary, "phase2_fit", self._wrap_phase2),
                                (rl.audit, "run_audit", self._wrap_audit)):
            fn = getattr(mod, name)
            patches.everywhere(modules, fn, make(fn))

    # -- wrappers -----------------------------------------------------------------

    def _wrap_search(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def search(*args, **kwargs):
            self._search_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._search_depth -= 1
            if self._search_depth:
                return out
            with self.excluded():
                bound = signature.bind(*args, **kwargs)
                model = bound.arguments["model"]
                points = bound.arguments.get("points", bound.arguments.get("x"))
                queries = np.atleast_2d(np.asarray(points, dtype=float))
                ref = bound.arguments.get("cost_reference")
                refs = queries if ref is None else np.atleast_2d(np.asarray(ref, dtype=float))
                results = out.results if hasattr(out, "results") else [out]
                self.record.searches.append(SearchCapture(
                    model=model, flat=model.flatten(), queries=queries, refs=refs,
                    mad=np.asarray(bound.arguments["dataset"].mad), results=list(results)))
                self._batch = (queries, refs)
            return out

        return search

    def _wrap_jacobian(self, fn):
        rl = self.rl

        @functools.wraps(fn)
        def implicit_jacobian(model, x, objective, x_cf, dataset, **kwargs):
            mode = kwargs.get("mode", "auto")
            rec = self.record
            if not self._retry_pending:
                rec.hypergrad_chains += 1
            self._retry_pending = False
            try:
                est = fn(model, x, objective, x_cf, dataset, **kwargs)
            except rl.adversary.HessianConditionError:
                rec.condition_errors += 1
                if mode == "auto":
                    self._retry_pending = True   # the caller retries diagonally
                else:
                    rec.hypergrad_skipped += 1
                raise
            with self.excluded():
                rec.jacobian_modes.append(est.mode)
                rec.jacobian_approximate += int(est.approximate)
                rec.jacobian_dims.append(est.matrix.shape)
                origin = self._origin_of(x)
                v = np.sign(np.asarray(x_cf) - origin) / dataset.mad
                rec.hypergrad_norms.append(float(np.linalg.norm(v @ est.matrix)))
            return est

        return implicit_jacobian

    def _origin_of(self, x):
        """The cost reference of query `x` in the latest search batch."""
        x = np.asarray(x, dtype=float)
        if self._batch is not None:
            queries, refs = self._batch
            rows = np.flatnonzero((queries == x).all(axis=1))
            if rows.size:
                return refs[rows[0]]
        return x

    def _wrap_phase2(self, fn):
        rl = self.rl

        @functools.wraps(fn)
        def phase2_fit(*args, **kwargs):
            try:
                art = fn(*args, **kwargs)
            except rl.adversary.Phase2Aborted as exc:
                self.record.phase2_evaluations += exc.step + 1
                self.record.phase2_aborted += 1
                raise
            self.record.phase2_evaluations += len(art.phase2_steps)
            self.record.phase2_steps.extend(art.phase2_steps)
            return art

        return phase2_fit

    def _wrap_audit(self, fn):
        @functools.wraps(fn)
        def run_audit(*args, **kwargs):
            excluded_before = self.record.excluded_s
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record.audit_s += (time.perf_counter() - t0
                                        - (self.record.excluded_s - excluded_before))

        return run_audit


# -- checks ------------------------------------------------------------------------


@dataclass
class CheckReport:
    attempted: int
    failed: int
    problems: list[str]

    @property
    def correct(self) -> bool:
        return not self.problems


def check_unit(rl, rec: UnitRecord) -> CheckReport:
    """Re-verify every returned result; count operations and failures.

    Operations are searches, hypergradients and phase-2 evaluations.  A
    failure is a search not found or failing the re-check, a skipped
    hypergradient, an aborted phase 2, or a non-finite phase-2 cost or
    hypergradient norm.  Failed re-checks and non-finite values are also
    correctness problems.
    """
    problems: list[str] = []
    attempted = failed = 0
    for cap in rec.searches:
        model = cap.model.with_flat(cap.flat)
        for i, r in enumerate(cap.results):
            attempted += 1
            if not r.found:
                failed += 1
                continue
            prob = float(model.forward(r.x_cf))
            cost = rl.explainers.dist_wachter(cap.refs[i], r.x_cf, cap.mad)
            if not (r.valid and prob > 0.5):
                problems.append(f"counterfactual rejected by the model (p={prob!r})")
                failed += 1
            elif r.cost != cost:
                problems.append(f"cost {r.cost!r} != dist_wachter {cost!r}")
                failed += 1
    attempted += rec.hypergrad_chains
    failed += rec.hypergrad_skipped
    bad_norms = sum(not np.isfinite(v) for v in rec.hypergrad_norms)
    if bad_norms:
        problems.append(f"{bad_norms} non-finite hypergradient norms")
        failed += bad_norms
    attempted += rec.phase2_evaluations
    failed += rec.phase2_aborted
    for step in rec.phase2_steps:
        costs = (step.np_delta_cost, step.np_clean_cost, step.pr_clean_cost, step.objective)
        if not all(np.isfinite(c) for c in costs):
            problems.append(f"non-finite phase-2 costs {costs}")
            failed += 1
    return CheckReport(attempted=attempted, failed=failed, problems=problems)
