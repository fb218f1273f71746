"""Hill-climbing counterfactual search.

Four objectives share one batched descent engine: a validity term pushing the
model output past 0.5 plus a distance term.  An attempt is a fixed number of
Adam steps on the objective's gradient; the weight on the validity term
escalates geometrically whenever an attempt ends invalid.  Spare batch rows
run a query's next escalation levels speculatively.  One rule (`_settle`)
settles a query in the round that decides it: at the first level whose
candidates are all valid, or at the schedule's last level, where dice keeps
a partial set and anything else is not found.  Under any objective but
dice, a query that starts at itself first runs every level up to one past
its escape level, the first at which the kernel's gradient at the query
beats the objective's l1 weight (`_Objective.escape_levels`): failed
attempts end near their query, so that level predicts the first success.
Under the same conditions an attempt drops a row that has settled at its
query (`_run_attempt`): one whose escape margin there
(`_Objective.escape_margin`, whose sign the escape level reads) is at least
`SETTLE_MARGIN` and which is within `SETTLE_RADIUS`·lr of its query after
`SETTLE_STEP` steps.  The attempt counts as failed without running its
remaining steps.  That such a row would fail anyway is measured, not
proven, so the rule is part of the search protocol; a result's `iterations`
and `lam_attempts` still count the protocol's steps and levels, not the
steps run.  Every round carries every pending query: a planned first
round its levels up to one past its escape level, any other round an equal
share of the rows a round aims for, which follows from what a row costs,
read from the model's layer sizes (see `_row_target`).  The engine reads
an objective through one `_Objective` per search, which holds the model's
`model.FrozenNet`, so each row's bits are independent of its batch: however
a search's rows are grouped into rounds, each result keeps its bytes.  An
attempt is one descent on the calling thread.
The adversary's implicit step reads the objective through the same object, one
per hypergradient batch, and never branches on its kind.  One batch can carry
several searches as segments of rows, each with its own cost reference per row
and its own initializer draws: an audit and a phase-2 evaluation search their
three conditions (protected, non-protected, non-protected + δ) in one call.  A
segment whose queries and references repeat an earlier segment's bytes is
searched once: with δ = 0 the third condition gets copies of the second's
results.

Precision rule.  On a net of at least `FLOAT32_WEIGHTS` weights, where a
descent step is bound by FLOPs, a search's `_Objective` holds a float32
`FrozenNet`, MAD and prototypes pool, and the descent runs in float32: the
gradients, the λ values and Adam's state.  Each attempt then returns its
candidates to float64, with every frozen feature exactly its start's, and
the model's own float64 arrays decide their validity, before and after the
sparsity snap; `x_cf` and every cost are float64.  Smaller nets search in
float64.  The implicit step's objects are always float64: its central
differences would drown in float32 rounding.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import checked_delta
from .model import AdamState, FrozenNet, _row_matmul, adam_step

OBJECTIVE_KINDS = ("wachter", "sparse-wachter", "prototypes", "dice")
INITIALIZER_KINDS = ("origin", "random-uniform", "positive-mean", "gaussian-jitter")

RESULT_CSV_HEADER = ("index", "valid", "cost", "iterations", "lam", "initializer", "optimizer")

# The fewest rows one batched attempt aims to carry when speculating on λ
# levels, and about the number from which a 4x200 net's float32 descent step
# costs the same per row: on a 2-vCPU machine with one BLAS thread, that step
# (wachter gradient plus Adam) cost 7.9-9.3 µs a row from 96 to 480 rows and
# 9.5-12.2 µs at 960.
SEARCH_ROWS = 96

# Multiply-adds that cost about as much as one descent step's fixed per-call
# overhead.  On a 2-vCPU machine with one BLAS thread, a kernel call on a
# 32x32 net (1,120 weights) took 77 µs for 1 row, 136 µs for 96 and 306 µs
# for 384, while a float32 step on a 4x200 net (140,000 weights) cost about
# 8.3 µs a row at 96 rows and 21.8 µs at 18.  `_row_target` gives the first
# 468 rows and the second `SEARCH_ROWS`.
STEP_MACS = 1 << 19

# Weights (one row's multiply-adds) from which a search descends in float32
# (`_search_dtype`).  One descent step (wachter gradient plus Adam) on 96
# rows, one BLAS thread, float64 / float32: 219 / 269 µs on a 99-32-32 net
# (4,224 weights), 294 / 250 µs on 99-64-64 (10,496), 516 / 275 µs on
# 99-128-128 (29,184), 856 / 418 µs on 99-200-200 (60,000) and
# 1,690 / 788 µs on 4x200 (140,000).  A net on few features pays for
# float32's row padding (`model._sgemm_rows`) in its first layer: 2-200-200
# (40,600) took 559 / 636 µs and 2-256-256 (66,304) 826 / 782 µs, which at
# 48 rows still lost (459 / 613 µs), while 4x200 gained (919 / 480 µs).
# So float32 pays on every measured 96-row step from about 2^16 weights.
FLOAT32_WEIGHTS = 1 << 16

# The settle rule of `_run_attempt`: a single-candidate row that starts at its
# query is dropped, its attempt failed, once SETTLE_STEP steps have left it
# within SETTLE_RADIUS·lr of the query in every coordinate while its escape
# margin at the query (`_Objective.escape_margin`) is at least SETTLE_MARGIN.
# Measured, not proven, with seed 1 and one BLAS thread: over 1,000 steps a
# failed row's largest move from its query was 1.0·lr at the median and
# 1.4·lr at p90, and every success on the 4x200 net was past 5·lr by step 8.
# Rows that left their query only after step 10 (at steps 13, 48 and 75 on
# the desk workloads) had margins of 0.07 to 0.21; rows that stayed had
# 0.47 to 0.59 at p10, 0.93 to 0.98 at p50.  So the margin, not the step,
# separates them: with the step at 5 every explainer and audit test still
# passed, with the margin at 0 (a cut by time alone) two failed.  Of the
# 13,674 rows the rule dropped in one unit of each benchmark workload on
# seeds 1-5, each rerun for its full budget, checked and snapped, failed.
SETTLE_STEP = 25
SETTLE_MARGIN = 0.4
SETTLE_RADIUS = 5.0

# The escalation schedule: the validity weight doubles up to MAX_DOUBLINGS
# times; dice divides lam1 by 10 down to LAM1_FLOOR.
MAX_DOUBLINGS = 20
LAM1_FLOOR = 1e-3


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
            raise ValueError(f"kind: unknown kind {self.kind!r}")
        if not self.lam >= 0:
            raise ValueError("lam: must be non-negative")
        for name in ("lam1", "lam2", "beta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: must be positive")
        if not self.k >= 1:
            raise ValueError("k: dice needs at least one candidate")
        if self.kind == "dice" and not self.lam1 >= LAM1_FLOOR:
            raise ValueError(f"lam1: dice escalation divides lam1 by 10 down to "
                             f"{LAM1_FLOOR:g}, so it must be at least that")


@dataclass(frozen=True)
class Initializer:
    """Where the candidate starts: the query itself, a uniform draw inside the
    train box, the mean of positively predicted train points, or the query
    plus standard normal noise."""

    kind: str = "origin"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in INITIALIZER_KINDS:
            raise ValueError(f"kind: unknown initializer {self.kind!r}")
        if not self.seed >= 0:
            raise ValueError("seed: must be non-negative")


@dataclass(frozen=True)
class SearchBudget:
    """Fixed-step search protocol.

    Each attempt ends with a sparsity cleanup: coordinates the descent left
    within `lr` of the query are rounded exactly onto the query (the l1 terms
    make true optima sparse; the optimizer dithers around those kinks at its
    step scale).  A snap that breaks validity is reverted.  An attempt from
    the query ends early, as failed, when it settles there (`_run_attempt`);
    a result's `iterations` still counts `steps` for it.
    """

    steps: int = 1000
    lr: float = 0.01

    def __post_init__(self):
        if not self.steps >= 1:
            raise ValueError("steps: must be positive")
        if not self.lr > 0:
            raise ValueError("lr: must be positive")


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

    @property
    def found(self) -> bool:
        return self.x_cf is not None


@dataclass
class BatchExplainResult:
    results: list[CfResult]
    mean_cost: float
    not_found: int

    def split(self, segments) -> list["BatchExplainResult"]:
        """One summary per segment of the results (see `segment_slices`)."""
        return [_summarize(self.results[s])
                for s in segment_slices(segments, len(self.results))]


def _summarize(results: list[CfResult]) -> BatchExplainResult:
    costs = [r.cost for r in results if r.valid]
    return BatchExplainResult(results=results,
                              mean_cost=float(np.mean(costs)) if costs else float("nan"),
                              not_found=sum(1 for r in results if not r.found))


# -- distance functions ---------------------------------------------------------

def dist_wachter(x, x_cf, mad) -> float:
    """MAD-weighted l1 distance, the recourse cost used everywhere."""
    x = np.asarray(x, dtype=float)
    x_cf = np.asarray(x_cf, dtype=float)
    mad = np.asarray(mad, dtype=float)
    if x.shape != x_cf.shape or x.shape != mad.shape:
        raise ValueError("vector lengths disagree")
    return float(np.sum(np.abs(x - x_cf) / mad))


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


def _prototype_pool(model, dataset, dtype=np.float64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positively predicted train rows in `dtype`, a contiguous copy of
    their transpose and their squared norms, computed once for every
    nearest-row lookup of a search."""
    pool = _predicted_positive_train(model, dataset).astype(dtype, copy=False)
    return pool, np.ascontiguousarray(pool.T), (pool ** 2).sum(axis=1)


def _nearest_prototypes(points: np.ndarray, proto_pool) -> np.ndarray:
    pool, pool_t, pool_sq = proto_pool
    # |p|^2 - 2 p.q + |q|^2 in place; scaling by -2 is exact, so the sums
    # carry the same bits as the textbook expression.  The contiguous
    # transpose keeps each row's bits independent of its batch, as the
    # model's row rule does.
    sq = _row_matmul(-2.0 * points, pool_t)
    sq += (points ** 2).sum(axis=1)[:, None]
    sq += pool_sq
    return pool[np.argmin(sq, axis=1)]


# -- the objective on a net ---------------------------------------------------------

@dataclass(frozen=True)
class _Objective:
    """One objective on one net, as the search and the implicit step read it:
    the model's `FrozenNet`, the live model (for parameter gradients and the
    search's acceptance forward), the MAD, the checked feature mask and, for
    prototypes, `_prototype_pool`'s triple; the net, MAD and pool in the
    kernel's precision, `dtype`.  Built once per `_search_many` call and once
    per hypergradient batch or dense Jacobian.  The distance term's gradient
    has one implementation, `_distance_grad`, on one `l1_weight` per
    objective: the descent (`grads`) and the escape test at the query
    (`escape_levels`) both read it.  The escape margin at the query has one
    definition, `escape_margin`, which `escape_levels` and `_run_attempt`'s
    settle rule both read."""

    spec: CfObjective
    model: object
    net: FrozenNet
    mad: np.ndarray
    mutable: np.ndarray
    pool: tuple | None = None

    @classmethod
    def of(cls, model, spec: CfObjective, dataset, search: bool = False) -> "_Objective":
        """`spec` on `model`, in float64, or for a `search` in
        `_search_dtype(model)`; ExplainError when its mask has the wrong
        length."""
        mask = np.ones(dataset.d) if spec.feature_mask is None else spec.feature_mask
        mutable = np.asarray(mask, dtype=bool)
        if mutable.shape != (dataset.d,):
            raise ExplainError("feature mask length does not match feature count")
        dtype = _search_dtype(model) if search else np.float64
        pool = _prototype_pool(model, dataset, dtype) if spec.kind == "prototypes" else None
        return cls(spec, model, FrozenNet(model, dtype), dataset.mad.astype(dtype, copy=False),
                   mutable, pool)

    @property
    def dtype(self) -> np.dtype:
        return self.net.dtype

    def grads(self, queries, C, lam):
        """Gradient of the search objective for a batch of candidates.

        `C` has shape (n, k, d) with k=1 for the single-candidate objectives.
        `lam` is the validity weight (dice: `lam1`), a scalar or one per
        query; each row's arithmetic is the same either way.  Returns a
        gradient like `C`, in `dtype` when `queries` and `C` are.  The l1
        pieces use the sign subgradient (0 at kinks).
        """
        n, k, d = C.shape
        flat = C.reshape(n * k, d)
        D = C - queries[:, None, :]
        lam = np.asarray(lam, dtype=self.dtype)
        if lam.shape != (n,):
            lam = np.broadcast_to(lam, (n,))
        if self.spec.kind == "dice":
            mad = self.mad
            glog, _, logits = self.net.grad_input_full(flat, wrt="logit")
            grad = glog.reshape(n, k, d)
            logits = logits.reshape(n, k)
            lam1, lam2 = lam, self.spec.lam2
            pair = C[:, :, None, :] - C[:, None, :, :]
            # -active * glog + (lam1 / k) * sign(D) / mad - (lam2 / k^2) * sum_b pair_sign
            grad *= -(logits < 1.0).astype(grad.dtype)[:, :, None]
            prox = np.sign(D)
            prox *= (lam1 / k)[:, None, None]
            prox /= mad
            grad += prox
            pair_sign = np.sign(pair, out=pair)
            pair_sign /= mad
            div = pair_sign.sum(axis=2)
            div *= lam2 / k ** 2
            grad -= div
            return grad

        grad, probs, _ = self.net.grad_input_full(flat, wrt="prob")
        grad = grad.reshape(n, k, d)
        grad *= ((2.0 * lam) * (probs - 1.0))[:, None, None]   # gradient of the push
        grad += self._distance_grad(C, D)
        return grad

    @cached_property
    def l1_weight(self):
        """The weight on each coordinate's |c − x| in the distance term:
        1/mad in `dtype` (wachter; also dice, whose proximity `grads`
        further scales by lam1/k), 1 (sparse-wachter) or β (prototypes)."""
        return {"sparse-wachter": 1.0, "prototypes": self.spec.beta}.get(self.spec.kind,
                                                                          1.0 / self.mad)

    def _distance_grad(self, C, D):
        """Gradient of a squared-loss objective's distance term at candidates
        `C` (n, k, d), `D` being `C` minus their queries: sign(D)·`l1_weight`
        (0 at the kinks) plus the smooth pull, 2D for sparse-wachter and
        2D + 2(C − nearest prototype) for prototypes."""
        grad = np.sign(D)
        grad *= self.l1_weight
        if self.spec.kind != "wachter":
            grad += 2.0 * D
        if self.spec.kind == "prototypes":
            n, k, d = C.shape
            grad += 2.0 * (C - _nearest_prototypes(C.reshape(n * k, d), self.pool).reshape(n, k, d))
        return grad

    def at_queries(self, queries, starts) -> bool:
        """Whether the escape margin describes a search from `starts`: any
        objective but dice, every start its query.  Only then does a search
        plan from `escape_levels` and `_run_attempt` drop settled rows."""
        return self.spec.kind != "dice" and np.array_equal(starts[:, 0], queries)

    def escape_margin(self, grad) -> np.ndarray:
        """The escape margin of kernel gradients `grad` (..., d) taken at the
        query itself, where every l1 subgradient is 0: the least over
        mutable coordinates j of (w_j − |g_j|) / w_j, w being `l1_weight`.
        Negative where the gradient beats the l1 weight, so that the descent
        leaves the query; the sign is that of w − |g|, which is exact.
        +inf without a mutable coordinate."""
        w = self.l1_weight
        margin = (w - np.abs(grad)) / w
        return margin[..., self.mutable].min(axis=-1, initial=np.inf)

    def escape_levels(self, queries, starts) -> np.ndarray | None:
        """For each query, the index of the first escalation level at which
        the search would leave the query: the first whose `escape_margin` is
        negative, on the kernel's gradient at the query itself, the push at
        that level plus `_distance_grad` there.  A query that no level moves
        gets the last level's index.  Failed attempts end near their query,
        so this predicts the first level that succeeds.  One kernel call;
        None unless `at_queries`."""
        if not self.at_queries(queries, starts):
            return None
        Q = queries.astype(self.dtype, copy=False)[:, None, :]
        push, probs, _ = self.net.grad_input_full(Q[:, 0], wrt="prob")
        lams = np.asarray(_lam_schedule(self.spec), dtype=self.dtype)
        grad = push * ((2.0 * lams[:, None]) * (probs - 1.0))[:, :, None]   # (levels, n, d)
        grad += self._distance_grad(Q, np.zeros_like(Q))[:, 0]
        escaped = self.escape_margin(grad) < 0
        return np.where(escaped.any(axis=0), escaped.argmax(axis=0), len(lams) - 1)

    def grad_x_rows(self, query, points, lam, candidates=None, candidate_index=None):
        """Candidate gradients at each row of `points`, shape (n, d), in one
        kernel call.  Each row stands in for the selected candidate (dice:
        slot `candidate_index` of `candidates`, the others held fixed)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        queries = np.repeat(np.asarray(query, dtype=float)[None, :], n, axis=0)
        slot = 0
        if self.spec.kind == "dice" and candidates is not None:
            C = np.repeat(np.asarray(candidates, dtype=float)[None, :, :], n, axis=0)
            slot = int(candidate_index or 0)
            C[:, slot] = points
        else:
            C = points[:, None, :]
        return self.grads(queries, C, lam)[:, slot]

    def validity_scale(self, lam: float) -> float:
        """The factor on the validity term's parameter gradient at weight
        `lam`: the squared push is scaled by it, dice's hinge is not."""
        return 1.0 if self.spec.kind == "dice" else lam

    def validity_grad_params(self, X, weights=None) -> np.ndarray:
        """Mean (or `weights`-weighted sum) over the rows `X` of the parameter
        gradient of the validity term, the only term that depends on the
        parameters: the squared push, or dice's logit hinge."""
        if self.spec.kind == "dice":
            return self.model.grad_params_hinge_logit(X, weights=weights)
        return self.model.grad_params_squared_push(X, weights=weights)


# -- candidate initialization -----------------------------------------------------

def segment_slices(segments, n: int) -> list[slice]:
    """The row slices of consecutive segments of `segments[i]` rows each.

    None is one segment of all `n` rows.  Raises ExplainError unless the
    counts are non-negative integers summing to `n`.
    """
    if segments is None:
        return [slice(0, n)]
    counts = [int(c) for c in segments]
    if not counts or min(counts) < 0 or sum(counts) != n:
        raise ExplainError(f"segments {tuple(segments)} do not split {n} rows")
    bounds = np.cumsum([0, *counts]).tolist()
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _initial_candidates(initializer, queries, k, model, dataset, mutable, segments=None):
    """Start candidates, shape (n, k, d).

    Random starts are drawn per segment (see `segment_slices`), each as a
    call on that segment alone would draw them, so segments holding the
    same points, or the same points perturbed, start from the same draws.
    """
    n, d = queries.shape
    slices = segment_slices(segments, n)
    base = np.repeat(queries[:, None, :], k, axis=1)
    if initializer.kind == "origin":
        starts = base.copy()
    elif initializer.kind in ("gaussian-jitter", "random-uniform"):
        starts = np.concatenate([_random_starts(initializer, base[s], dataset)
                                 for s in slices])
    elif initializer.kind == "positive-mean":
        mean = _predicted_positive_train(model, dataset).mean(axis=0)
        starts = np.broadcast_to(mean, (n, k, d)).copy()
    else:  # pragma: no cover
        raise ValueError(initializer.kind)
    starts[:, :, ~mutable] = base[:, :, ~mutable]
    return starts


def _random_starts(initializer, base, dataset):
    """One segment's random starts; each segment restarts the seeded stream."""
    if initializer.kind == "gaussian-jitter":
        rng = np.random.default_rng([initializer.seed, 1])
        return base + rng.standard_normal(base.shape)
    lo, hi = dataset.train_feature_bounds()
    rng = np.random.default_rng([initializer.seed, 2])
    return rng.uniform(lo, hi, size=base.shape)


# -- descent engine -----------------------------------------------------------------

def _run_attempt(loss, queries, starts, lam, budget):
    """One escalation attempt per row on the search's `_Objective`:
    `budget.steps` Adam steps from `starts` in the kernel's precision, then
    the candidates in float64, their frozen features exactly the starts',
    checked by the model itself, then the sparsity snap.

    When the starts are the queries (`_Objective.at_queries`), a row whose
    step-0 gradient, taken at its query, has an escape margin of at least
    `SETTLE_MARGIN` and which is still within `SETTLE_RADIUS`·lr of its
    query after `SETTLE_STEP` steps is dropped: it returns its start with
    probability 0, a failed attempt.  The live rows go on alone, and each
    row's bits do not depend on its batch, so they keep their bytes.
    Returns (candidates (n, k, d), probabilities (n, k))."""
    n, k, d = starts.shape
    Q = queries.astype(loss.dtype, copy=False)
    C = starts.astype(loss.dtype, copy=False)
    lam = np.broadcast_to(np.asarray(lam, dtype=loss.dtype), (n,))
    state = AdamState(lr=budget.lr)
    frozen = None if loss.mutable.all() else ~loss.mutable
    settles = budget.steps > SETTLE_STEP and loss.at_queries(queries, starts)
    live = np.arange(n)
    for step in range(budget.steps):
        if step == SETTLE_STEP and settles:
            keep = margin < SETTLE_MARGIN
            keep |= (np.abs(C[:, 0] - Q) > SETTLE_RADIUS * budget.lr).any(axis=1)
            live, Q, C, lam, state.m, state.v = (a[keep] for a in
                                                 (live, Q, C, lam, state.m, state.v))
            if not live.size:
                break
        grad = loss.grads(Q, C, lam)
        if step == 0 and settles:
            margin = loss.escape_margin(grad[:, 0])
        if frozen is not None:
            grad[:, :, frozen] = 0.0
        C = adam_step(state, C, grad)
    C = C.astype(float, copy=False)
    if frozen is not None:
        C[:, :, frozen] = starts[live][:, :, frozen]
    probs = loss.model.forward(C.reshape(-1, d)).reshape(-1, k)
    out, out_probs = starts.astype(float), np.zeros((n, k))
    out[live], out_probs[live] = _snap_to_query(loss, queries[live], C, probs, budget)
    return out, out_probs


def _snap_to_query(loss, queries, C, probs, budget):
    """Round coordinates within `budget.lr` of the query exactly onto it,
    keeping validity by the verdict of `loss`'s model.

    Candidates are chosen per slot: the snapped point when the model still
    accepts it (or when the raw point was rejected anyway), the raw point
    otherwise.
    """
    Q = np.repeat(queries[:, None, :], C.shape[1], axis=1)
    near = np.abs(C - Q) <= budget.lr
    if not near.any():
        return C, probs
    snapped = np.where(near, Q, C)
    n, k, d = C.shape
    probs_snapped = loss.model.forward(snapped.reshape(n * k, d)).reshape(n, k)
    use = (probs_snapped > 0.5) | (probs <= 0.5)
    C = np.where(use[:, :, None], snapped, C)
    probs = np.where(use, probs_snapped, probs)
    return C, probs


def _lam_schedule(objective):
    if objective.kind == "dice":
        out, v = [], objective.lam1
        while v >= LAM1_FLOOR * (1.0 - 1e-12):
            out.append(v)
            v /= 10.0
        return out
    return [objective.lam * 2.0 ** j for j in range(MAX_DOUBLINGS + 1)]


def _row_target(model) -> int:
    """Rows a speculative round aims for: enough that a descent step's
    multiply-adds match its fixed per-call overhead, and at least
    `SEARCH_ROWS`.  Each pending query gets an equal share, except in a
    first round planned from escape levels, which may carry more.  It
    reads only the layer sizes, never a clock, so the schedule is the same
    on every run."""
    return max(SEARCH_ROWS, STEP_MACS // _weight_count(model))


def _search_dtype(model) -> np.dtype:
    """The precision of a search's descent: float32 on a net of at least
    `FLOAT32_WEIGHTS` weights, else float64.  Like `_row_target` it reads
    only the layer sizes."""
    return np.dtype(np.float32 if _weight_count(model) >= FLOAT32_WEIGHTS else np.float64)


def _weight_count(model) -> int:
    """Multiply-adds of one row's forward pass."""
    return sum(w.size for w in model.weights)


def _search_many(model, queries, objective, dataset, initializer, budget,
                 cost_reference, segments=None) -> list[CfResult]:
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.ndim != 2:
        raise ExplainError(f"queries must be points of {dataset.d} features, "
                           f"got shape {queries.shape}")
    n, d = queries.shape
    if d != dataset.d:
        raise ExplainError(f"queries have {d} features, dataset has {dataset.d}")
    loss = _Objective.of(model, objective, dataset, search=True)
    refs = queries if cost_reference is None else np.atleast_2d(np.asarray(cost_reference, dtype=float))
    if refs.shape != queries.shape:
        raise ExplainError("cost reference shape does not match queries")
    schedule = _lam_schedule(objective)
    dice = objective.kind == "dice"
    k = objective.k if dice else 1
    starts = _initial_candidates(initializer, queries, k, model, dataset, loss.mutable,
                                 segments)

    results: list[CfResult | None] = [None] * n

    if initializer.kind == "origin":
        # A query the model already accepts needs no change: the zero-cost
        # point is the optimum and it is valid.
        already = np.asarray(model.forward(queries)) > 0.5
        for i in np.flatnonzero(already):
            results[i] = CfResult(
                x_cf=queries[i].copy(), valid=True,
                cost=dist_wachter(refs[i], queries[i], dataset.mad),
                iterations=0, final_lam=schedule[0],
                initializer=initializer.kind, optimizer="adam",
                query_was_valid=True, lam_attempts=())

    pending = [i for i in range(n) if results[i] is None]

    # Rounds of speculative escalation: each pending query gets its next
    # schedule levels as extra rows of one batched attempt, and is settled
    # (`_settle`) by the first of them that succeeds, or by the schedule's
    # last level.  Attempts are independent restarts from the same start,
    # so the outcome is the sequential schedule's.  Each pending query's
    # width is the uniform `row_target // (pending * k)` levels, or in its
    # first round L + 2 when that is more, L being its escape level
    # (`_Objective.escape_levels`).  A round carries every pending query, so
    # at most the schedule's levels (k rows each) per query.
    row_target = _row_target(model)
    level = dict.fromkeys(pending, 0)
    escape = loss.escape_levels(queries[pending], starts[pending]) if pending else None
    planned = {} if escape is None else {i: int(e) + 2 for i, e in zip(pending, escape)}
    while pending:
        uniform = max(1, row_target // (len(pending) * k))
        rows = []
        for i in pending:
            width = min(len(schedule) - level[i], max(planned.pop(i, 0), uniform))
            rows += [(i, j) for j in range(level[i], level[i] + width)]
        at = np.array([i for i, _ in rows])
        cands, probs = _run_attempt(loss, queries[at], starts[at],
                                    np.array([schedule[j] for _, j in rows]), budget)
        for (i, j), cand, p in zip(rows, cands, probs):
            if results[i] is None:
                results[i] = _settle(cand, p > 0.5, queries[i], refs[i], j, schedule,
                                     dataset.mad, initializer, budget, dice)
            level[i] = j + 1
        pending = [i for i in pending if results[i] is None]
    return results  # type: ignore[return-value]


def _settle(cand, valid, query, ref, level, schedule, mad, initializer, budget,
            dice) -> CfResult | None:
    """A query's result from its attempt at schedule `level`, which returned
    the candidates `cand` (k, d) with verdicts `valid`, or None while its
    escalation goes on.  Found when every candidate is valid, or at the last
    level when some is: dice then keeps its closest valid candidate from a
    partial set.  Not found when none is at the last level.  The attempts
    are the schedule's levels up to `level`."""
    if not (valid.all() or level == len(schedule) - 1):
        return None
    run = dict(iterations=(level + 1) * budget.steps, final_lam=schedule[level],
               initializer=initializer.kind, optimizer="adam",
               lam_attempts=tuple(schedule[:level + 1]))
    if not valid.any():
        return CfResult(x_cf=None, valid=False, cost=float("nan"), **run)
    l1 = np.abs(cand - query).sum(axis=1)
    l1[~valid] = np.inf
    pick = int(np.argmin(l1))
    x_cf = cand[pick].copy()
    if dice:
        run.update(candidates=cand.copy(), candidate_index=pick)
    return CfResult(x_cf=x_cf, valid=True, cost=dist_wachter(ref, x_cf, mad), **run)


# -- public entry points --------------------------------------------------------------

def _checked_point(x, d: int) -> np.ndarray:
    """`x` as one float point of `d` features; ExplainError otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ExplainError(f"x must be one point of {d} features, got shape {x.shape}")
    return x


def find_counterfactual(model, x, objective: CfObjective, dataset,
                        initializer: Initializer = Initializer(),
                        budget: SearchBudget = SearchBudget(),
                        cost_reference=None) -> CfResult:
    """Search for a counterfactual for a single query point.

    The model is never mutated.  Escalation restarts the fixed-step descent
    from the same initial candidate with a doubled validity weight (dice:
    `lam1` divided by 10) until the final iterate is valid or the schedule is
    exhausted.  ExplainError unless `x` is one point of the dataset's
    features.
    """
    x = _checked_point(x, dataset.d)
    ref = None if cost_reference is None else np.asarray(cost_reference, dtype=float)[None, :]
    return _search_many(model, x[None, :], objective, dataset, initializer, budget, ref)[0]


def batch_explain(model, points, objective: CfObjective, dataset,
                  initializer: Initializer = Initializer(),
                  budget: SearchBudget = SearchBudget(),
                  cost_reference=None, *, segments=None) -> BatchExplainResult:
    """Explain many points; results stay ordered by input index.

    The mean cost covers the found-valid subset only; failures are counted,
    not averaged.  `segments` (row counts, see `segment_slices`) stacks
    several searches into this one: each segment draws its random starts as
    a call of its own would, and `split` recovers its summary.  A segment
    whose queries and cost references equal an earlier segment's, byte for
    byte, would find what that segment found, so it is not searched again:
    it gets copies of that segment's results, sharing no array with them.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    slices = segment_slices(segments, points.shape[0])
    if points.shape[0] == 0:
        return _summarize([])
    refs = (points if cost_reference is None
            else np.atleast_2d(np.asarray(cost_reference, dtype=float)))
    if refs.shape != points.shape:
        raise ExplainError("cost reference shape does not match queries")
    first = _first_equal_segments(points, refs, slices)
    kept = [i for i, j in enumerate(first) if i == j]
    counts = tuple(slices[i].stop - slices[i].start for i in kept)
    found = _search_many(model, np.concatenate([points[slices[i]] for i in kept]),
                         objective, dataset, initializer, budget,
                         np.concatenate([refs[slices[i]] for i in kept]), segments=counts)
    runs = dict(zip(kept, (found[s] for s in segment_slices(counts, len(found)))))
    results: list[CfResult] = []
    for i, j in enumerate(first):
        results += runs[i] if i == j else [copy.deepcopy(r) for r in runs[j]]
    return _summarize(results)


def _first_equal_segments(points, refs, slices) -> list[int]:
    """For each segment, the first segment holding the same bytes in its
    queries and cost references: itself when no earlier one does."""

    def same(a, b):   # rows have one length, so equal bytes mean equal row counts
        return (points[a].tobytes() == points[b].tobytes()
                and refs[a].tobytes() == refs[b].tobytes())

    return [next((j for j in range(i) if same(slices[j], s)), i)
            for i, s in enumerate(slices)]


def sensitivity_probe(model, x, delta, objective: CfObjective, dataset,
                      initializer: Initializer = Initializer(),
                      budget: SearchBudget = SearchBudget()) -> float:
    """l2 distance between the counterfactuals found at x and at x + delta.

    Reported as an observable: small for well-behaved models, large when a
    perturbation reroutes the search to a different minimum.  A δ that is
    not one finite value per feature raises a DataError starting "delta:",
    and an `x` that is not one point of the dataset's features an
    ExplainError.
    """
    x = _checked_point(x, dataset.d)
    base, moved = batch_explain(model, [x, x + checked_delta(delta, dataset.d)], objective,
                                dataset, initializer, budget, cost_reference=[x, x],
                                segments=(1, 1)).results
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
