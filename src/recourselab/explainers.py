"""Hill-climbing counterfactual search.

Four objectives share one batched descent engine: a validity term pushing the
model output past 0.5 plus a distance term.  The weight on the validity term
escalates geometrically whenever a fixed-step search ends invalid, and a
momentum fallback rescues searches that freeze at their starting point.
Spare batch rows run a query's next escalation levels speculatively; each
query keeps the first level that succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import AdamState, MomentumState, adam_step, sgd_momentum_step

OBJECTIVE_KINDS = ("wachter", "sparse-wachter", "prototypes", "dice")
INITIALIZER_KINDS = ("origin", "random-uniform", "positive-mean", "gaussian-jitter")

RESULT_CSV_HEADER = ("index", "valid", "cost", "iterations", "lam", "initializer", "optimizer")

# Rows one batched attempt aims to carry when speculating on λ levels.  At
# desk scale a descent step costs about the same for 1 row as for 96, so
# spare rows run the next escalation levels at little extra cost.
SEARCH_ROWS = 96


class ExplainError(RuntimeError):
    """Raised when a search cannot even be set up (bad mask, no positives...)."""


@dataclass(frozen=True)
class CfObjective:
    """Objective selector plus its hyperparameters.

    Only the fields belonging to `kind` are consulted: `lam` for the three
    squared-loss objectives, (`lam1`, `lam2`, `k`) for dice, `beta` for
    prototypes.  `feature_mask` marks mutable features (None = all mutable).
    """

    kind: str
    lam: float = 1.0
    lam1: float = 10.0
    lam2: float = 1.0
    beta: float = 1.0
    k: int = 4
    feature_mask: tuple[bool, ...] | None = None

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.lam < 0 or self.lam1 <= 0 or self.lam2 <= 0 or self.beta <= 0:
            raise ValueError("objective weights must be positive (lam may be 0)")
        if self.k < 1:
            raise ValueError("dice needs at least one candidate")


@dataclass(frozen=True)
class Initializer:
    """Where the candidate starts: the query itself, a uniform draw inside the
    train box, the mean of positively predicted train points, or the query
    plus standard normal noise."""

    kind: str = "origin"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in INITIALIZER_KINDS:
            raise ValueError(f"unknown initializer {self.kind!r}")


@dataclass(frozen=True)
class SearchBudget:
    """Fixed-step search protocol.

    `snap_tol` is the terminal sparsity cleanup: coordinates the descent left
    within it of the query are rounded exactly onto the query (the l1 terms
    make true optima sparse; the optimizer dithers around those kinks at its
    step scale).  None means "use the learning rate"; 0 disables.  A snap
    that breaks validity is reverted.
    """

    steps: int = 1000
    lr: float = 0.01
    momentum: float = 0.9
    max_doublings: int = 20
    lam1_floor: float = 1e-3
    stall_window: int = 50
    stall_tol: float = 1e-8
    snap_tol: float | None = None

    @property
    def effective_snap_tol(self) -> float:
        return self.lr if self.snap_tol is None else self.snap_tol


@dataclass
class CfResult:
    """Outcome of one counterfactual search.

    `x_cf is None` marks an explicit not-found (escalation exhausted); such
    results are never fabricated points.  `cost` is the MAD-weighted l1
    distance from the cost reference point (by default the query)."""

    x_cf: np.ndarray | None
    valid: bool
    cost: float
    iterations: int
    final_lam: float
    initializer: str
    optimizer: str
    query_was_valid: bool = False
    lam_attempts: tuple[float, ...] = ()
    candidates: np.ndarray | None = None
    candidate_index: int | None = None
    objective_trace: np.ndarray | None = None

    @property
    def found(self) -> bool:
        return self.x_cf is not None


@dataclass
class BatchExplainResult:
    results: list[CfResult]
    mean_cost: float
    not_found: int

    @property
    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.results if r.valid])


# -- distance functions ---------------------------------------------------------

def dist_wachter(x, x_cf, mad) -> float:
    """MAD-weighted l1 distance, the recourse cost used everywhere."""
    x = np.asarray(x, dtype=float)
    x_cf = np.asarray(x_cf, dtype=float)
    mad = np.asarray(mad, dtype=float)
    if x.shape != x_cf.shape or x.shape != mad.shape:
        raise ValueError("vector lengths disagree")
    return float(np.sum(np.abs(x - x_cf) / mad))


def dist_sparse(x, x_cf) -> float:
    """Elastic-net style distance: l1 plus squared l2."""
    x = np.asarray(x, dtype=float)
    x_cf = np.asarray(x_cf, dtype=float)
    if x.shape != x_cf.shape:
        raise ValueError("vector lengths disagree")
    diff = x - x_cf
    return float(np.sum(np.abs(diff)) + np.sum(diff ** 2))


def dist_prototype(x, x_cf, proto, beta: float = 1.0) -> float:
    """Sparse distance pulled toward the nearest positively classified point."""
    x = np.asarray(x, dtype=float)
    x_cf = np.asarray(x_cf, dtype=float)
    proto = np.asarray(proto, dtype=float)
    diff = x - x_cf
    return float(beta * np.sum(np.abs(diff)) + np.sum(diff ** 2)
                 + np.sum((x_cf - proto) ** 2))


def dice_loss(model, x, candidates, mad, lam1: float, lam2: float) -> float:
    """Hinge validity over k candidates plus weighted proximity minus diversity."""
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    k = candidates.shape[0]
    if k == 0:
        raise ValueError("dice needs at least one candidate")
    x = np.asarray(x, dtype=float)
    mad = np.asarray(mad, dtype=float)
    logits = np.atleast_1d(model.logits(candidates))
    hinge = np.maximum(0.0, 1.0 - logits).sum()
    proximity = sum(dist_wachter(x, c, mad) for c in candidates)
    diversity = 0.0
    for i in range(k - 1):
        for j in range(i + 1, k):
            diversity += dist_wachter(candidates[i], candidates[j], mad)
    return float(hinge + (lam1 / k) * proximity - (lam2 / k ** 2) * diversity)


def nearest_predicted_positive(model, dataset, points: np.ndarray) -> np.ndarray:
    """Euclidean-nearest train point among those the model predicts positive.

    Brute force; ties break toward the lowest train-row index.
    """
    chosen = _nearest_prototypes(np.atleast_2d(points), _prototype_pool(model, dataset))
    return chosen[0] if np.asarray(points).ndim == 1 else chosen


def _predicted_positive_train(model, dataset) -> np.ndarray:
    tr = dataset.train_features
    pos = tr[np.asarray(model.forward(tr)) > 0.5]
    if pos.shape[0] == 0:
        raise ExplainError("no positively predicted training points")
    return pos


def _prototype_pool(model, dataset) -> tuple[np.ndarray, np.ndarray]:
    """The positively predicted train rows and their squared norms, computed
    once for every nearest-row lookup of a search."""
    pool = _predicted_positive_train(model, dataset)
    return pool, (pool ** 2).sum(axis=1)


def _nearest_prototypes(points: np.ndarray, proto_pool) -> np.ndarray:
    pool, pool_sq = proto_pool
    sq = (points ** 2).sum(axis=1)[:, None] - 2.0 * points @ pool.T + pool_sq
    return pool[np.argmin(sq, axis=1)]


# -- objective value/gradient kernels --------------------------------------------

def _objective_grads(model, queries, C, lam, objective, mad, proto_pool,
                     with_value=True):
    """Gradient, and value if `with_value`, of the search objective for a
    batch of candidates.

    `C` has shape (n, k, d) with k=1 for the single-candidate objectives.
    `lam` is the validity weight (dice: `lam1`), a scalar or one per query;
    each row's arithmetic is the same either way.  `proto_pool` is
    `_prototype_pool`'s pair (prototypes only).
    Returns (grad like C, value per query or None, probability per candidate).
    The l1 pieces use the sign subgradient (0 at kinks).  The gradient's
    arithmetic does not depend on `with_value`.
    """
    n, k, d = C.shape
    flat = C.reshape(n * k, d)
    D = C - queries[:, None, :]
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (n,):
        lam = np.broadcast_to(lam, (n,))
    value = None

    if objective.kind == "dice":
        glog, probs, logits = model.grad_input_full(flat, wrt="logit")
        grad = glog.reshape(n, k, d)
        probs = probs.reshape(n, k)
        logits = logits.reshape(n, k)
        lam1, lam2 = lam, objective.lam2
        pair = C[:, :, None, :] - C[:, None, :, :]
        if with_value:
            hinge = np.maximum(0.0, 1.0 - logits)
            d_w = (np.abs(D) / mad).sum(axis=2)
            pair_abs = (np.abs(pair) / mad).sum(axis=3)
            value = (hinge.sum(axis=1)
                     + (lam1 / k) * d_w.sum(axis=1)
                     - (lam2 / k ** 2) * pair_abs.sum(axis=(1, 2)) / 2.0)
        # -active * glog + (lam1 / k) * sign(D) / mad - (lam2 / k^2) * sum_b pair_sign
        grad *= -(logits < 1.0).astype(float)[:, :, None]
        prox = np.sign(D)
        prox *= (lam1 / k)[:, None, None]
        prox /= mad
        grad += prox
        pair_sign = np.sign(pair, out=pair)
        pair_sign /= mad
        div = pair_sign.sum(axis=2)
        div *= lam2 / k ** 2
        grad -= div
        return grad, value, probs

    grad, probs, _ = model.grad_input_full(flat, wrt="prob")
    grad = grad.reshape(n, k, d)
    probs = probs.reshape(n, k)
    p = probs[:, 0]
    pm1 = p - 1.0
    grad *= ((2.0 * lam) * pm1)[:, None, None]          # gradient of the push

    if objective.kind == "wachter":
        if with_value:
            dist = (np.abs(D) / mad).sum(axis=(1, 2))
        gdist = np.sign(D)
        gdist /= mad
    elif objective.kind == "sparse-wachter":
        if with_value:
            dist = np.abs(D).sum(axis=(1, 2)) + (D ** 2).sum(axis=(1, 2))
        gdist = np.sign(D)
        gdist += 2.0 * D
    elif objective.kind == "prototypes":
        PD = C - _nearest_prototypes(flat, proto_pool).reshape(n, k, d)
        if with_value:
            dist = (objective.beta * np.abs(D).sum(axis=2) + (D ** 2).sum(axis=2)
                    + (PD ** 2).sum(axis=2))[:, 0]
        gdist = np.sign(D)
        gdist *= objective.beta
        gdist += 2.0 * D
        gdist += 2.0 * PD
    else:  # pragma: no cover
        raise ValueError(objective.kind)
    grad += gdist
    if with_value:
        value = lam * pm1 ** 2 + dist
    return grad, value, probs


def objective_value(model, query, candidate, objective, dataset, lam=None,
                    dice_candidates=None, dice_index=None) -> float:
    """Scalar objective at one candidate, as the search sees it."""
    _, values = objective_grad_x_rows(model, query, np.asarray(candidate)[None, :],
                                      objective, dataset, lam, dice_candidates, dice_index)
    return float(values[0])


def objective_grad_x_rows(model, query, points, objective, dataset, lam=None,
                          dice_candidates=None, dice_index=None, proto_pool=None):
    """Candidate gradients and objective values at each row of `points`.

    One kernel call for all rows.  Each row stands in for the selected
    candidate; for dice that is slot `dice_index` of `dice_candidates`, the
    other candidates held fixed.  `proto_pool` defaults to
    `_prototype_pool(model, dataset)`.  Returns (gradients (n, d), values (n,)).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    queries = np.repeat(np.asarray(query, dtype=float)[None, :], n, axis=0)
    slot = 0
    if objective.kind == "dice" and dice_candidates is not None:
        C = np.repeat(np.asarray(dice_candidates, dtype=float)[None, :, :], n, axis=0)
        slot = int(dice_index or 0)
        C[:, slot] = points
    else:
        C = points[:, None, :]
    if objective.kind == "prototypes" and proto_pool is None:
        proto_pool = _prototype_pool(model, dataset)
    grad, value, _ = _objective_grads(model, queries, C, _lam_of(objective, lam),
                                      objective, dataset.mad, proto_pool)
    return grad[:, slot], value


def objective_grad_params(model, query, candidate, objective, lam=None) -> np.ndarray:
    """Gradient of the objective with respect to the model parameters.

    Only the validity term depends on the parameters: the squared push for
    the three distance objectives, the logit hinge for dice; prototype points
    are held fixed.
    """
    c = np.asarray(candidate, dtype=float)[None, :]
    if objective.kind == "dice":
        return model.grad_params_hinge_logit(c)
    return _lam_of(objective, lam) * model.grad_params_squared_push(c)


def _lam_of(objective, lam):
    if lam is not None:
        return float(lam)
    return objective.lam1 if objective.kind == "dice" else objective.lam


# -- candidate initialization -----------------------------------------------------

def _initial_candidates(initializer, queries, k, model, dataset, mutable):
    n, d = queries.shape
    base = np.repeat(queries[:, None, :], k, axis=1)
    if initializer.kind == "origin":
        starts = base.copy()
    elif initializer.kind == "gaussian-jitter":
        rng = np.random.default_rng([initializer.seed, 1])
        starts = base + rng.standard_normal((n, k, d))
    elif initializer.kind == "random-uniform":
        lo, hi = dataset.train_feature_bounds()
        rng = np.random.default_rng([initializer.seed, 2])
        starts = rng.uniform(lo, hi, size=(n, k, d))
    elif initializer.kind == "positive-mean":
        mean = _predicted_positive_train(model, dataset).mean(axis=0)
        starts = np.broadcast_to(mean, (n, k, d)).copy()
    else:  # pragma: no cover
        raise ValueError(initializer.kind)
    starts[:, :, ~mutable] = base[:, :, ~mutable]
    return starts


# -- descent engine -----------------------------------------------------------------

@dataclass
class _AttemptOutcome:
    candidates: np.ndarray     # (n, k, d)
    probs: np.ndarray          # (n, k)
    steps_used: np.ndarray     # (n,)
    fallback: np.ndarray       # (n,) bool, momentum rescue used
    traces: list


def _descend(model, queries, starts, lam, objective, mad, mutable, budget,
             optimizer: str, proto_pool, record_trace: bool):
    n, k, d = starts.shape
    C = starts.copy()
    if optimizer == "adam":
        state, step_fn = AdamState(lr=budget.lr), adam_step
    else:
        state, step_fn = MomentumState(lr=budget.lr, momentum=budget.momentum), sgd_momentum_step
    trace = np.empty((budget.steps + 1, n)) if record_trace else None
    frozen = None if mutable.all() else ~mutable
    stalled = np.zeros(n, dtype=bool)
    # Objective values are computed only for the trace.
    for step in range(budget.steps):
        grad, value, _ = _objective_grads(model, queries, C, lam, objective, mad,
                                          proto_pool, record_trace)
        if record_trace:
            trace[step] = value
        if frozen is not None:
            grad[:, :, frozen] = 0.0
        C = step_fn(state, C, grad)
        if optimizer == "adam" and step + 1 == budget.stall_window:
            moved = np.abs(C - starts).reshape(n, -1).max(axis=1)
            stalled = moved < budget.stall_tol
    _, value, probs = _objective_grads(model, queries, C, lam, objective, mad,
                                       proto_pool, record_trace)
    if record_trace:
        trace[-1] = value
    return C, probs, stalled, trace


def _run_attempt(model, queries, starts, lam, objective, mad, mutable, budget,
                 proto_pool, record_trace) -> _AttemptOutcome:
    n = queries.shape[0]
    C, probs, stalled, trace = _descend(
        model, queries, starts, lam, objective, mad, mutable, budget, "adam",
        proto_pool, record_trace)
    steps_used = np.full(n, budget.steps)
    fallback = np.zeros(n, dtype=bool)
    traces = [None] * n
    if record_trace:
        traces = [trace[:, i].copy() for i in range(n)]
    if stalled.any():
        sub = np.flatnonzero(stalled)
        C2, probs2, _, trace2 = _descend(
            model, queries[sub], starts[sub], lam[sub], objective, mad, mutable, budget,
            "sgd-momentum", proto_pool, record_trace)
        C[sub] = C2
        probs[sub] = probs2
        steps_used[sub] += budget.steps
        fallback[sub] = True
        if record_trace:
            for local, i in enumerate(sub):
                traces[i] = trace2[:, local].copy()
    C, probs = _snap_to_query(model, queries, C, probs, budget)
    return _AttemptOutcome(C, probs, steps_used, fallback, traces)


def _snap_to_query(model, queries, C, probs, budget):
    """Round near-kink coordinates exactly onto the query, keeping validity.

    Candidates are chosen per slot: the snapped point when the model still
    accepts it (or when the raw point was rejected anyway), the raw point
    otherwise.
    """
    tol = budget.effective_snap_tol
    if tol <= 0.0:
        return C, probs
    Q = np.repeat(queries[:, None, :], C.shape[1], axis=1)
    near = np.abs(C - Q) <= tol
    if not near.any():
        return C, probs
    snapped = np.where(near, Q, C)
    n, k, d = C.shape
    probs_snapped = model.forward(snapped.reshape(n * k, d)).reshape(n, k)
    use = (probs_snapped > 0.5) | (probs <= 0.5)
    C = np.where(use[:, :, None], snapped, C)
    probs = np.where(use, probs_snapped, probs)
    return C, probs


def _lam_schedule(objective, budget):
    if objective.kind == "dice":
        out, v = [], objective.lam1
        while v >= budget.lam1_floor * (1.0 - 1e-12):
            out.append(v)
            v /= 10.0
        return out
    return [objective.lam * 2.0 ** j for j in range(budget.max_doublings + 1)]


def _search_many(model, queries, objective, dataset, initializer, budget,
                 cost_reference, record_trace=False) -> list[CfResult]:
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    n, d = queries.shape
    if d != dataset.d:
        raise ExplainError(f"queries have {d} features, dataset has {dataset.d}")
    if objective.feature_mask is None:
        mutable = np.ones(d, dtype=bool)
    else:
        mutable = np.asarray(objective.feature_mask, dtype=bool)
        if mutable.shape != (d,):
            raise ExplainError("feature mask length does not match feature count")
    refs = queries if cost_reference is None else np.atleast_2d(np.asarray(cost_reference, dtype=float))
    if refs.shape != queries.shape:
        raise ExplainError("cost reference shape does not match queries")
    schedule = _lam_schedule(objective, budget)
    if not schedule:
        raise ExplainError(f"dice lam1 = {objective.lam1:g} is below the search budget's "
                           f"lam1_floor = {budget.lam1_floor:g}: no escalation level to run")
    mad = dataset.mad
    is_dice = objective.kind == "dice"
    k = objective.k if is_dice else 1
    proto_pool = (_prototype_pool(model, dataset)
                  if objective.kind == "prototypes" else None)
    starts = _initial_candidates(initializer, queries, k, model, dataset, mutable)

    results: list[CfResult | None] = [None] * n
    iterations = np.zeros(n, dtype=int)

    if initializer.kind == "origin":
        # A query the model already accepts needs no change: the zero-cost
        # point is the optimum and it is valid.
        already = np.asarray(model.forward(queries)) > 0.5
        for i in np.flatnonzero(already):
            results[i] = CfResult(
                x_cf=queries[i].copy(), valid=True,
                cost=dist_wachter(refs[i], queries[i], mad),
                iterations=0, final_lam=schedule[0],
                initializer=initializer.kind, optimizer="adam",
                query_was_valid=True, lam_attempts=())

    pending = [i for i in range(n) if results[i] is None]
    attempts_of = {i: [] for i in pending}
    last_outcome: dict[int, tuple] = {}

    # Rounds of speculative escalation: each pending query gets its next
    # `width` schedule levels as extra rows of one batched attempt, and keeps
    # the first level that succeeds.  Attempts are independent restarts from
    # the same start, so the outcome is the sequential schedule's.
    level = 0
    while pending and level < len(schedule):
        width = min(len(schedule) - level,
                    max(1, SEARCH_ROWS // (len(pending) * k)))
        lams = schedule[level:level + width]
        sub = np.array(pending)
        rows = np.repeat(sub, width)
        out = _run_attempt(model, queries[rows], starts[rows],
                           np.tile(lams, len(sub)), objective, mad, mutable,
                           budget, proto_pool, record_trace)
        still = []
        for q, i in enumerate(sub):
            for j, lam in enumerate(lams):
                r = q * width + j
                iterations[i] += out.steps_used[r]
                attempts_of[i].append(lam)
                cand = out.candidates[r]
                valid = out.probs[r] > 0.5
                optimizer = "sgd-momentum-fallback" if out.fallback[r] else "adam"
                success = valid.all() if is_dice else bool(valid[0])
                if success:
                    results[i] = _finish(queries[i], refs[i], cand, valid, mad, lam,
                                         initializer, optimizer, iterations[i],
                                         tuple(attempts_of[i]), is_dice, out.traces[r])
                    break
            else:
                last_outcome[i] = (cand, valid, optimizer, lam, out.traces[r])
                still.append(i)
        pending = still
        level += width

    for i in pending:
        cand, valid, optimizer, lam, trace = last_outcome[i]
        if is_dice and valid.any():
            # The escalation floor was reached with a partial candidate set;
            # accept the closest valid candidate rather than fail outright.
            results[i] = _finish(queries[i], refs[i], cand, valid, mad, lam,
                                 initializer, optimizer, iterations[i],
                                 tuple(attempts_of[i]), True, trace)
        else:
            results[i] = CfResult(
                x_cf=None, valid=False, cost=float("nan"),
                iterations=int(iterations[i]), final_lam=lam,
                initializer=initializer.kind, optimizer=optimizer,
                lam_attempts=tuple(attempts_of[i]), objective_trace=trace)
    return results  # type: ignore[return-value]


def _finish(query, ref, cand, valid, mad, lam, initializer, optimizer, iters,
            attempts, is_dice, trace) -> CfResult:
    if is_dice:
        l1 = np.abs(cand - query).sum(axis=1)
        l1[~valid] = np.inf
        pick = int(np.argmin(l1))
        x_cf = cand[pick].copy()
        extra = {"candidates": cand.copy(), "candidate_index": pick}
    else:
        x_cf = cand[0].copy()
        extra = {}
    return CfResult(
        x_cf=x_cf, valid=True, cost=dist_wachter(ref, x_cf, mad),
        iterations=int(iters), final_lam=lam, initializer=initializer.kind,
        optimizer=optimizer, lam_attempts=attempts, objective_trace=trace, **extra)


# -- public entry points --------------------------------------------------------------

def find_counterfactual(model, x, objective: CfObjective, dataset,
                        initializer: Initializer = Initializer(),
                        budget: SearchBudget = SearchBudget(),
                        cost_reference=None, record_trace: bool = False) -> CfResult:
    """Search for a counterfactual for a single query point.

    The model is never mutated.  Escalation restarts the fixed-step descent
    from the same initial candidate with a doubled validity weight (dice:
    `lam1` divided by 10) until the final iterate is valid or the schedule is
    exhausted.
    """
    ref = None if cost_reference is None else np.asarray(cost_reference, dtype=float)[None, :]
    return _search_many(model, np.asarray(x, dtype=float)[None, :], objective, dataset,
                        initializer, budget, ref, record_trace)[0]


def batch_explain(model, points, objective: CfObjective, dataset,
                  initializer: Initializer = Initializer(),
                  budget: SearchBudget = SearchBudget(),
                  cost_reference=None) -> BatchExplainResult:
    """Explain many points; results stay ordered by input index.

    The mean cost covers the found-valid subset only; failures are counted,
    not averaged.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        return BatchExplainResult(results=[], mean_cost=float("nan"), not_found=0)
    results = _search_many(model, points, objective, dataset, initializer, budget,
                           cost_reference)
    costs = [r.cost for r in results if r.valid]
    mean_cost = float(np.mean(costs)) if costs else float("nan")
    return BatchExplainResult(results=results, mean_cost=mean_cost,
                              not_found=sum(1 for r in results if not r.found))


def sensitivity_probe(model, x, delta, objective: CfObjective, dataset,
                      initializer: Initializer = Initializer(),
                      budget: SearchBudget = SearchBudget()) -> float:
    """l2 distance between the counterfactuals found at x and at x + delta.

    Reported as an observable: small for well-behaved models, large when a
    perturbation reroutes the search to a different minimum.
    """
    x = np.asarray(x, dtype=float)
    base = find_counterfactual(model, x, objective, dataset, initializer, budget)
    moved = find_counterfactual(model, x + np.asarray(delta, dtype=float), objective,
                                dataset, initializer, budget, cost_reference=x)
    if not (base.found and moved.found):
        return float("nan")
    return float(np.linalg.norm(base.x_cf - moved.x_cf))


def results_to_csv(results: Sequence[CfResult], path) -> None:
    """One row per query: index, valid, cost, iterations, lam, initializer."""
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(RESULT_CSV_HEADER)
        for i, r in enumerate(results):
            writer.writerow([i, int(r.valid), repr(float(r.cost)), r.iterations,
                             repr(float(r.final_lam)), r.initializer, r.optimizer])
