"""Two-phase adversarial training against recourse audits.

Phase one jointly learns model parameters and a perturbation vector so that
perturbed non-protected inputs are already accepted; phase two fine-tunes the
parameters so clean recourse costs look balanced across groups while the
perturbed searches stay cheap.  The coupling between parameters and search
outcomes is differentiated implicitly: at a converged counterfactual the
objective's candidate-gradient vanishes, which turns the parameter sensitivity
into an inverse-Hessian times mixed-partial product, realized here with
central finite differences so only black-box access to the search is needed.
Phase two only needs the cost gradient chained through that product, so it
solves one Hessian system per point and takes the mixed partials as a single
weighted parameter backprop per batch (`batch_hypergradient`);
`implicit_jacobian` builds the dense matrix for inspection and tests.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from . import explainers
from .data import Dataset
from .explainers import CfObjective, Initializer, SearchBudget
from .model import AdamState, MlpClassifier, TrainingDiverged, adam_step, load_model, save_model

STATIONARITY_TOL = 1e-2
HESSIAN_FD_STEP = 1e-4
RCOND_MIN = 1e-10
FULL_INVERSE_MAX_DIM = 20
DIAG_MIN = 1e-12
IMPLICIT_MODES = ("auto", "full-inverse", "diagonal-approximation")


class HessianConditionError(RuntimeError):
    """The candidate Hessian was refused in every mode allowed."""


class Phase2Aborted(RuntimeError):
    def __init__(self, not_found_rate: float, step: int):
        self.not_found_rate = not_found_rate
        self.step = step
        super().__init__(
            f"counterfactual search failed on {not_found_rate:.0%} of audit points "
            f"at phase-2 step {step}; the explainer cannot audit this model")


@dataclass
class JacobianEstimate:
    """d x m sensitivity of the found counterfactual to the model parameters."""

    matrix: np.ndarray
    mode: str                      # "full-inverse" | "diagonal-approximation"
    hessian_rcond: float
    stationarity_inf_norm: float
    approximate: bool              # stationarity tolerance exceeded


@dataclass
class _ImplicitSystem:
    """The candidate Hessian on the moved coordinates of one counterfactual.

    `rows` holds the finite-difference points: x_cf + h e_j for each free
    coordinate j, then x_cf - h e_j in the same order.
    """

    free: np.ndarray
    rows: np.ndarray
    fd_step: float
    hessian: np.ndarray
    mode: str
    rcond: float
    stationarity: float
    approximate: bool

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """H^-1 rhs, or rhs / diag(H) in the diagonal approximation."""
        if self.free.size == 0:
            return np.zeros_like(rhs)
        if self.mode == "full-inverse":
            return np.linalg.solve(self.hessian, rhs)
        diag = np.diag(self.hessian)
        return rhs / (diag if rhs.ndim == 1 else diag[:, None])


def _implicit_system(model, x, objective, x_cf, dataset, *, lam, mode,
                     fd_step=HESSIAN_FD_STEP, stationarity_tol=STATIONARITY_TOL,
                     dice_candidates=None, dice_index=None,
                     proto_pool=None) -> _ImplicitSystem:
    """Pinned/free split, stationarity, Hessian and mode of one counterfactual.

    All four objectives carry an l1-at-query term, so their optima are
    sparse.  A coordinate within one finite-difference step of the query sits
    at a kink (its central difference would straddle it): it stays put under
    small parameter changes and is pinned, as are masked-off features.  The
    Hessian is a central difference of the candidate gradient over the free
    coordinates, all 2·dm points plus `x_cf` itself in one kernel call.
    Raises HessianConditionError when no allowed mode accepts it.
    """
    if mode not in IMPLICIT_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(x, dtype=float)
    x_cf = np.asarray(x_cf, dtype=float)
    d = dataset.d
    if objective.feature_mask is None:
        mutable = np.ones(d, dtype=bool)
    else:
        mutable = np.asarray(objective.feature_mask, dtype=bool)
    free = np.flatnonzero(mutable & (np.abs(x_cf - x) > fd_step))
    dm = free.size
    bumps = fd_step * np.eye(d)[free]
    rows = np.concatenate([x_cf + bumps, x_cf - bumps])
    grads, _ = explainers.objective_grad_x_rows(
        model, x, np.vstack([x_cf, rows]), objective, dataset, lam=lam,
        dice_candidates=dice_candidates, dice_index=dice_index, proto_pool=proto_pool)
    stationarity = float(np.max(np.abs(grads[0, free]))) if dm else 0.0
    hessian = (grads[1:dm + 1][:, free] - grads[dm + 1:][:, free]) / (2.0 * fd_step)
    hessian = 0.5 * (hessian + hessian.T)
    mode, rcond = _choose_mode(hessian, mode)
    return _ImplicitSystem(free=free, rows=rows, fd_step=fd_step, hessian=hessian,
                           mode=mode, rcond=rcond, stationarity=stationarity,
                           approximate=stationarity > stationarity_tol)


def _choose_mode(hessian: np.ndarray, mode: str) -> tuple[str, float]:
    """The mode that solves with `hessian`, and its reciprocal condition.

    `auto` takes the full inverse up to FULL_INVERSE_MAX_DIM moved
    coordinates and the diagonal approximation above that or when the full
    inverse is refused.
    """
    dm = hessian.shape[0]
    if mode == "auto":
        if dm <= FULL_INVERSE_MAX_DIM:
            try:
                return _choose_mode(hessian, "full-inverse")
            except HessianConditionError:
                pass
        return _choose_mode(hessian, "diagonal-approximation")
    if dm == 0:
        return mode, 1.0
    if mode == "full-inverse":
        cond = np.linalg.cond(hessian)
        rcond = 0.0 if not np.isfinite(cond) else (1.0 / cond if cond > 0 else 0.0)
        if rcond < RCOND_MIN:
            raise HessianConditionError(
                f"candidate Hessian reciprocal condition {rcond:.2e} below "
                f"{RCOND_MIN:.0e}; use mode='diagonal-approximation'")
        return mode, float(rcond)
    diag = np.abs(np.diag(hessian))
    if np.min(diag) < DIAG_MIN:
        raise HessianConditionError("candidate Hessian diagonal is numerically zero")
    return mode, float(np.min(diag) / np.max(diag))


def implicit_jacobian(model: MlpClassifier, x, objective: CfObjective, x_cf,
                      dataset: Dataset, *, lam: float | None = None, mode: str = "auto",
                      fd_step: float = HESSIAN_FD_STEP,
                      stationarity_tol: float = STATIONARITY_TOL,
                      dice_candidates=None, dice_index=None) -> JacobianEstimate:
    """Differentiate a converged counterfactual with respect to the parameters.

    The dense d x m matrix, for inspection and as the reference that
    `batch_hypergradient` is checked against; phase two never builds it.
    Both second-derivative blocks are central finite differences of the
    objective's first derivatives around `x_cf`, so nothing about the search
    optimizer is assumed.  Pinned and masked-off coordinates (see
    `_implicit_system`) get exact zero rows; the inverse-Hessian system is
    solved on the moved coordinates, where classical stationarity applies.
    A counterfactual whose moved coordinates are not stationary within
    `stationarity_tol` (inf-norm) yields an estimate flagged `approximate`.
    """
    system = _implicit_system(model, x, objective, x_cf, dataset, lam=lam, mode=mode,
                              fd_step=fd_step, stationarity_tol=stationarity_tol,
                              dice_candidates=dice_candidates, dice_index=dice_index)
    dm = system.free.size
    mixed = np.zeros((dm, model.param_count))
    for i in range(dm):
        gt_hi = explainers.objective_grad_params(model, x, system.rows[i], objective, lam=lam)
        gt_lo = explainers.objective_grad_params(model, x, system.rows[dm + i], objective,
                                                 lam=lam)
        mixed[i] = (gt_hi - gt_lo) / (2.0 * fd_step)
    matrix = np.zeros((dataset.d, model.param_count))
    matrix[system.free] = -system.solve(mixed)
    return JacobianEstimate(matrix=matrix, mode=system.mode, hessian_rcond=system.rcond,
                            stationarity_inf_norm=system.stationarity,
                            approximate=system.approximate)


@dataclass
class HypergradCounts:
    """What the implicit step did over a batch of found counterfactuals."""

    full_inverse: int = 0
    diagonal: int = 0
    approximate: int = 0           # stationarity tolerance exceeded
    skipped: int = 0               # Hessian refused: contributes zero


def batch_hypergradient(model: MlpClassifier, origins, queries, results,
                        objective: CfObjective, dataset: Dataset,
                        mode: str = "auto") -> tuple[np.ndarray, HypergradCounts]:
    """Mean over the found results of v @ J, without building any J.

    `v = sign(x_cf - origin) / mad` is the recourse cost's gradient and J the
    implicit Jacobian of `x_cf` at its query (`implicit_jacobian`).  With
    H w = v on the moved coordinates (w = v / diag H in the diagonal
    approximation), v @ J = -w^T M, and M's rows are central differences of
    the validity term's parameter gradient, so -w^T M is that gradient
    weighted by -/+ w_j / 2h at the points x_cf +/- h e_j.  All points of
    the batch go through one parameter backprop.  Queries the model already
    accepts and refused Hessians count as zero in the mean; not-found
    results are left out of it.
    """
    counts = HypergradCounts()
    n_found = sum(1 for r in results if r.found)
    pending = [(origin, query, r) for origin, query, r in zip(origins, queries, results)
               if r.found and not r.query_was_valid]
    proto_pool = None
    if objective.kind == "prototypes" and pending:
        proto_pool = explainers._prototype_pool(model, dataset)
    rows, weights = [np.empty((0, dataset.d))], [np.empty(0)]
    for origin, query, r in pending:
        dice = ({"dice_candidates": r.candidates, "dice_index": r.candidate_index}
                if objective.kind == "dice" else {})
        try:
            system = _implicit_system(model, query, objective, r.x_cf, dataset,
                                      lam=r.final_lam, mode=mode, proto_pool=proto_pool,
                                      **dice)
        except HessianConditionError:
            counts.skipped += 1
            continue
        if system.mode == "full-inverse":
            counts.full_inverse += 1
        else:
            counts.diagonal += 1
        counts.approximate += int(system.approximate)
        v = np.sign(r.x_cf - np.asarray(origin, dtype=float)) / dataset.mad
        w = system.solve(v[system.free]) / (2.0 * system.fd_step)
        if objective.kind != "dice":
            w = r.final_lam * w    # the squared push enters scaled by its weight
        rows.append(system.rows)
        weights.append(np.concatenate([-w, w]))
    X = np.concatenate(rows)
    if X.shape[0] == 0:
        return np.zeros(model.param_count), counts
    wts = np.concatenate(weights) / n_found
    if objective.kind == "dice":
        return model.grad_params_hinge_logit(X, weights=wts), counts
    return model.grad_params_squared_push(X, weights=wts), counts


@dataclass
class TermGrad:
    grad: np.ndarray
    found: bool
    cost: float
    result: explainers.CfResult
    skipped: bool = False


def counterfactual_term_grad(model: MlpClassifier, x, delta, objective: CfObjective,
                             dataset: Dataset, *,
                             initializer: Initializer = Initializer(),
                             budget: SearchBudget = SearchBudget(),
                             mode: str = "auto") -> TermGrad:
    """Parameter gradient of the recourse cost d_W(x, A(x + delta)).

    A one-row batch of the phase-two path: the search runs at the
    (optionally perturbed) query and the cost gradient at the found
    counterfactual is chained through the implicit step.  Failed searches
    contribute a zero gradient; queries the model already accepts have
    exactly zero sensitivity (the search returns the query itself, whose cost
    does not involve the parameters).
    """
    x = np.asarray(x, dtype=float)
    query = x if delta is None else x + np.asarray(delta, dtype=float)
    term = _batch_term_grads(model, x[None, :], query[None, :], objective, dataset,
                             initializer, budget, mode)
    result = term.results[0]
    return TermGrad(grad=term.grad, found=result.found, cost=result.cost, result=result,
                    skipped=term.counts.skipped > 0)


@dataclass
class _BatchTerm:
    results: list[explainers.CfResult]
    mean_cost: float               # over the found results
    grad: np.ndarray
    counts: HypergradCounts

    @property
    def not_found(self) -> int:
        return sum(1 for r in self.results if not r.found)


def _batch_term_grads(model, origins, queries, objective, dataset, initializer,
                      budget, mode) -> _BatchTerm:
    """Search a batch and chain the found counterfactuals through the implicit step."""
    batch = explainers.batch_explain(model, queries, objective, dataset,
                                     initializer, budget, cost_reference=origins)
    grad, counts = batch_hypergradient(model, origins, queries, batch.results, objective,
                                       dataset, mode)
    costs = [r.cost for r in batch.results if r.found]
    mean_cost = float(np.mean(costs)) if costs else float("nan")
    return _BatchTerm(results=batch.results, mean_cost=mean_cost, grad=grad, counts=counts)


# -- phase one -------------------------------------------------------------------


@dataclass
class Phase1Config:
    steps: int = 10_000
    lr: float = 0.01
    seed: int = 0
    hidden: tuple[int, ...] = (200, 200, 200, 200)
    bce_weight: float = 1.0
    counterfactual_weight: float = 1.0
    delta_size_weight: float = 1.0
    feature_mask: tuple[bool, ...] | None = None


@dataclass
class Phase1Result:
    model: MlpClassifier
    delta: np.ndarray
    loss_trace: np.ndarray
    delta_l1_trace: np.ndarray


def phase1_fit(dataset: Dataset, config: Phase1Config) -> Phase1Result:
    """Joint descent on parameters and perturbation.

    Per step: cross entropy on the train split, a squared push making
    perturbed non-protected negatives look accepted, and the MAD-weighted
    l1 size of the perturbation.  Both variables take Adam steps
    simultaneously; the perturbation starts at zero.

    The push set is the label-negative non-protected train rows: a fixed
    target the parameters cannot drain by re-predicting (audits slice by
    prediction instead, but the training push needs a stable population).
    """
    net = MlpClassifier([dataset.d, *config.hidden, 1], seed=config.seed)
    delta = np.zeros(dataset.d)
    if config.feature_mask is not None:
        mutable = np.asarray(config.feature_mask, dtype=bool)
    else:
        mutable = np.ones(dataset.d, dtype=bool)

    X = dataset.train_features
    y = dataset.train_labels
    tr = dataset.train_idx
    np_neg_rows = tr[(~dataset.protected[tr]) & (dataset.labels[tr] == 0)]
    X_np = dataset.features[np_neg_rows]

    theta_state = AdamState(lr=config.lr)
    delta_state = AdamState(lr=config.lr)
    losses = np.empty(config.steps)
    delta_l1 = np.empty(config.steps)

    for step in range(config.steps):
        B = X_np + delta
        bce = net.bce_loss(X, y)
        g_theta = config.bce_weight * net.grad_params_bce(X, y)
        g_delta = np.zeros(dataset.d)
        push = 0.0
        if B.shape[0]:
            push = net.squared_push_loss(B)
            g_theta += config.counterfactual_weight * net.grad_params_squared_push(B)
            gin, probs, _ = net.grad_input_full(B, wrt="prob")
            g_delta += config.counterfactual_weight * np.mean(
                2.0 * (probs - 1.0)[:, None] * gin, axis=0)
        size = float(np.sum(np.abs(delta) / dataset.mad))
        g_delta += config.delta_size_weight * np.sign(delta) / dataset.mad
        g_delta[~mutable] = 0.0

        loss = config.bce_weight * bce + config.counterfactual_weight * push \
            + config.delta_size_weight * size
        if not np.isfinite(loss):
            raise TrainingDiverged(step)
        losses[step] = loss
        delta_l1[step] = np.sum(np.abs(delta))

        net.set_flat(adam_step(theta_state, net.flatten(), g_theta))
        delta = adam_step(delta_state, delta, g_delta)
        delta[~mutable] = 0.0

    return Phase1Result(model=net, delta=delta, loss_trace=losses,
                        delta_l1_trace=delta_l1)


# -- phase two -------------------------------------------------------------------


@dataclass
class Phase2Config:
    objective: CfObjective
    steps: int = 15
    lr: float = 0.01
    seed: int = 0
    subsample: int = 256
    initializer: Initializer = field(default_factory=Initializer)
    budget: SearchBudget = field(default_factory=SearchBudget)
    bce_weight: float = 1.0
    np_cost_weight: float = 1.0
    disparity_weight: float = 1.0
    jacobian_mode: str = "auto"
    abort_not_found_rate: float = 0.5


@dataclass
class Phase2Step:
    disparity: float
    np_delta_cost: float
    np_clean_cost: float
    pr_clean_cost: float
    bce: float
    objective: float
    constraint_ok: bool
    not_found: int
    # the implicit step over the step's three batches (absent from older
    # telemetry files, hence the defaults)
    hypergrad_full_inverse: int = 0
    hypergrad_diagonal: int = 0
    hypergrad_approximate: int = 0
    hypergrad_skipped: int = 0


@dataclass
class AdversarialArtifact:
    model: MlpClassifier
    delta: np.ndarray
    phase1_loss_trace: np.ndarray
    phase1_delta_l1_trace: np.ndarray
    phase2_steps: list[Phase2Step]
    constraint_satisfied: bool
    explainer_kind: str

    @property
    def delta_l1(self) -> float:
        return float(np.sum(np.abs(self.delta)))


def phase2_fit(model: MlpClassifier, delta: np.ndarray, dataset: Dataset,
               config: Phase2Config) -> AdversarialArtifact:
    """Parameter-only refinement against the audit metrics.

    Each step searches a fixed audit subsample three ways (protected clean,
    non-protected clean, non-protected perturbed), descends on
    bce + E[np perturbed cost] + (clean disparity)^2, and keeps the best
    iterate that satisfies the perturbed-cheaper-than-protected constraint.
    The perturbation is never modified here.
    """
    net = model.clone()
    delta = np.asarray(delta, dtype=float)
    X = dataset.train_features
    y = dataset.train_labels

    slices = dataset.group_slices(net, split="train")
    rng = np.random.default_rng(config.seed)
    audit_idx = {}
    for role in ("protected-neg", "nonprotected-neg"):
        idx = slices[role].indices
        if idx.size > config.subsample:
            idx = np.sort(rng.choice(idx, size=config.subsample, replace=False))
        audit_idx[role] = idx
    pr = dataset.features[audit_idx["protected-neg"]]
    np_ = dataset.features[audit_idx["nonprotected-neg"]]

    state = AdamState(lr=config.lr)
    telemetry: list[Phase2Step] = []
    best_flat = None
    best_objective = np.inf
    constraint_ever = False

    for step in range(config.steps + 1):
        terms = [_batch_term_grads(net, origins, queries, config.objective, dataset,
                                   config.initializer, config.budget, config.jacobian_mode)
                 for origins, queries in ((np_, np_ + delta), (np_, np_), (pr, pr))]
        np_delta, np_clean, pr_clean = terms
        np_delta_cost = np_delta.mean_cost
        np_clean_cost = np_clean.mean_cost
        pr_clean_cost = pr_clean.mean_cost
        total = max(sum(len(t.results) for t in terms), 1)
        not_found = sum(t.not_found for t in terms)
        if not_found / total > config.abort_not_found_rate:
            raise Phase2Aborted(not_found / total, step)

        bce = net.bce_loss(X, y)
        disparity = pr_clean_cost - np_clean_cost
        objective_value = (config.bce_weight * bce
                           + config.np_cost_weight * np_delta_cost
                           + config.disparity_weight * disparity ** 2)
        constraint_ok = bool(np.isfinite(np_delta_cost) and np.isfinite(pr_clean_cost)
                             and np_delta_cost < pr_clean_cost)
        telemetry.append(Phase2Step(
            disparity=float(abs(disparity)) if np.isfinite(disparity) else float("nan"),
            np_delta_cost=np_delta_cost, np_clean_cost=np_clean_cost,
            pr_clean_cost=pr_clean_cost, bce=bce,
            objective=float(objective_value), constraint_ok=constraint_ok,
            not_found=not_found,
            hypergrad_full_inverse=sum(t.counts.full_inverse for t in terms),
            hypergrad_diagonal=sum(t.counts.diagonal for t in terms),
            hypergrad_approximate=sum(t.counts.approximate for t in terms),
            hypergrad_skipped=sum(t.counts.skipped for t in terms)))
        if constraint_ok:
            constraint_ever = True
            if objective_value < best_objective:
                best_objective = objective_value
                best_flat = net.flatten()

        if step == config.steps:
            break
        grad = config.bce_weight * net.grad_params_bce(X, y) \
            + config.np_cost_weight * np_delta.grad
        if np.isfinite(disparity):
            grad = grad + config.disparity_weight * 2.0 * disparity * (
                pr_clean.grad - np_clean.grad)
        net.set_flat(adam_step(state, net.flatten(), grad))

    if best_flat is not None:
        net.set_flat(best_flat)
    return AdversarialArtifact(
        model=net, delta=delta.copy(),
        phase1_loss_trace=np.empty(0), phase1_delta_l1_trace=np.empty(0),
        phase2_steps=telemetry, constraint_satisfied=constraint_ever,
        explainer_kind=config.objective.kind)


def run_attack(dataset: Dataset, phase1: Phase1Config, phase2: Phase2Config) -> AdversarialArtifact:
    """Phase one then phase two; returns the assembled artifact."""
    stage1 = phase1_fit(dataset, phase1)
    artifact = phase2_fit(stage1.model, stage1.delta, dataset, phase2)
    artifact.phase1_loss_trace = stage1.loss_trace
    artifact.phase1_delta_l1_trace = stage1.delta_l1_trace
    return artifact


# -- artifact serialization --------------------------------------------------------


def save_artifact(artifact: AdversarialArtifact, directory) -> dict[str, str]:
    """Checkpoint plus perturbation CSV plus telemetry JSON."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    model_path = directory / "model.npz"
    delta_path = directory / "delta.csv"
    telemetry_path = directory / "telemetry.json"
    save_model(artifact.model, model_path)
    write_delta_csv(artifact.delta, delta_path)
    telemetry = {
        "phase1": {
            "loss_trace": artifact.phase1_loss_trace.tolist(),
            "delta_l1_trace": artifact.phase1_delta_l1_trace.tolist(),
        },
        "phase2": {
            "explainer": artifact.explainer_kind,
            "constraint_satisfied": artifact.constraint_satisfied,
            "steps": [vars(s) for s in artifact.phase2_steps],
        },
    }
    telemetry_path.write_text(json.dumps(telemetry, indent=2, allow_nan=True))
    return {"model": str(model_path), "delta": str(delta_path),
            "telemetry": str(telemetry_path)}


def load_artifact(directory) -> AdversarialArtifact:
    directory = Path(directory)
    net = load_model(directory / "model.npz")
    delta = read_delta_csv(directory / "delta.csv")
    telemetry = json.loads((directory / "telemetry.json").read_text())
    steps = [Phase2Step(**s) for s in telemetry["phase2"]["steps"]]
    return AdversarialArtifact(
        model=net, delta=delta,
        phase1_loss_trace=np.array(telemetry["phase1"]["loss_trace"]),
        phase1_delta_l1_trace=np.array(telemetry["phase1"]["delta_l1_trace"]),
        phase2_steps=steps,
        constraint_satisfied=telemetry["phase2"]["constraint_satisfied"],
        explainer_kind=telemetry["phase2"]["explainer"])


def write_delta_csv(delta: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "delta"])
        for i, v in enumerate(np.asarray(delta, dtype=float)):
            writer.writerow([i, repr(float(v))])


def read_delta_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([float(row[1]) for row in reader])
