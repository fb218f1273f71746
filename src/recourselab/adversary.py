"""Two-phase adversarial training against recourse audits.

Phase one jointly learns model parameters and a perturbation vector so that
perturbed non-protected inputs are already accepted; phase two fine-tunes the
parameters so clean recourse costs look balanced across groups while the
perturbed searches stay cheap.  Each phase-two evaluation searches the
audit's own three conditions (`audit._search_conditions`) on a subsample of
the train split and differentiates each condition once.  The coupling
between parameters and search outcomes is differentiated implicitly: at a
converged counterfactual the objective's candidate-gradient vanishes, which
turns the parameter sensitivity into an inverse-Hessian times mixed-partial
product, realized here with central finite differences so only black-box
access to the search is needed.
Phase two only needs the cost gradient chained through that product, so it
solves one Hessian system per point and takes the mixed partials as a single
weighted parameter backprop per batch (`batch_hypergradient`);
`implicit_jacobian` builds the dense matrix for inspection and tests.  Both
read the objective through one `explainers._Objective` per call: one
`FrozenNet` per hypergradient batch, and no branch on the objective's kind.

One rule picks the solve for each point (`_choose_mode`): the full inverse
when at most FULL_INVERSE_MAX_DIM coordinates moved and its reciprocal
condition is at least RCOND_MIN; otherwise the diagonal of the Hessian,
unless an entry is below DIAG_MIN; otherwise the point is refused
(HessianConditionError), and the batch path counts it as skipped.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from . import audit, explainers
from .data import DataError, Dataset, checked_delta
from .explainers import CfObjective, Initializer, SearchBudget
from .model import (AdamState, MlpClassifier, NumericError, TrainingDiverged, Workspace,
                    adam_step, load_model, save_model)

STATIONARITY_TOL = 1e-2
HESSIAN_FD_STEP = 1e-4
RCOND_MIN = 1e-10
FULL_INVERSE_MAX_DIM = 20
DIAG_MIN = 1e-12
# Phase two stops when the search finds no counterfactual for more than this
# share of a step's audit points: the explainer cannot audit the model.
ABORT_NOT_FOUND_RATE = 0.5


class HessianConditionError(RuntimeError):
    """The candidate Hessian was refused by both the full and the diagonal solve."""


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


def _implicit_system(loss, x, x_cf, lam, candidates=None,
                     candidate_index=None) -> _ImplicitSystem:
    """Pinned/free split, stationarity, Hessian and mode of one counterfactual
    of `loss` (an `explainers._Objective`) at validity weight `lam`.

    All four objectives carry an l1-at-query term, so their optima are
    sparse.  A coordinate within one finite-difference step of the query sits
    at a kink (its central difference would straddle it): it stays put under
    small parameter changes and is pinned, as are masked-off features.  The
    Hessian is a central difference of the candidate gradient over the free
    coordinates, all 2·dm points plus `x_cf` itself in one kernel call.
    Raises HessianConditionError when `_choose_mode` refuses it.
    """
    x = np.asarray(x, dtype=float)
    x_cf = np.asarray(x_cf, dtype=float)
    free = np.flatnonzero(loss.mutable & (np.abs(x_cf - x) > HESSIAN_FD_STEP))
    dm = free.size
    bumps = HESSIAN_FD_STEP * np.eye(loss.mutable.size)[free]
    rows = np.concatenate([x_cf + bumps, x_cf - bumps])
    grads = loss.grad_x_rows(x, np.vstack([x_cf, rows]), lam, candidates, candidate_index)
    stationarity = float(np.max(np.abs(grads[0, free]))) if dm else 0.0
    hessian = (grads[1:dm + 1][:, free] - grads[dm + 1:][:, free]) / (2.0 * HESSIAN_FD_STEP)
    hessian = 0.5 * (hessian + hessian.T)
    mode, rcond = _choose_mode(hessian)
    return _ImplicitSystem(free=free, rows=rows, hessian=hessian, mode=mode, rcond=rcond,
                           stationarity=stationarity,
                           approximate=stationarity > STATIONARITY_TOL)


def _choose_mode(hessian: np.ndarray) -> tuple[str, float]:
    """The solve for `hessian`, and its reciprocal condition.

    The full inverse when at most FULL_INVERSE_MAX_DIM coordinates moved and
    its reciprocal condition is at least RCOND_MIN; otherwise the diagonal,
    unless an entry of it is below DIAG_MIN in magnitude; otherwise
    HessianConditionError.
    """
    dm = hessian.shape[0]
    if dm == 0:
        return "full-inverse", 1.0
    if dm <= FULL_INVERSE_MAX_DIM:
        cond = np.linalg.cond(hessian)
        rcond = 0.0 if not np.isfinite(cond) else (1.0 / cond if cond > 0 else 0.0)
        if rcond >= RCOND_MIN:
            return "full-inverse", float(rcond)
    diag = np.abs(np.diag(hessian))
    if np.min(diag) < DIAG_MIN:
        raise HessianConditionError(
            f"candidate Hessian on {dm} moved coordinates refused: no usable full "
            f"inverse and its diagonal is numerically zero")
    return "diagonal-approximation", float(np.min(diag) / np.max(diag))


def implicit_jacobian(model: MlpClassifier, x, objective: CfObjective, x_cf,
                      dataset: Dataset, *, lam: float,
                      dice_candidates=None, dice_index=None) -> JacobianEstimate:
    """Differentiate a converged counterfactual with respect to the parameters,
    at the validity weight `lam` it was found at (`CfResult.final_lam`).

    The dense d x m matrix, for inspection and as the reference that
    `batch_hypergradient` is checked against; phase two never builds it.
    Both second-derivative blocks are central finite differences of the
    objective's first derivatives around `x_cf`, so nothing about the search
    optimizer is assumed.  Pinned and masked-off coordinates (see
    `_implicit_system`) get exact zero rows; the inverse-Hessian system is
    solved on the moved coordinates, where classical stationarity applies.
    A counterfactual whose moved coordinates are not stationary within
    STATIONARITY_TOL (inf-norm) yields an estimate flagged `approximate`.
    Raises HessianConditionError when the solve rule refuses the Hessian,
    and ExplainError when the objective's mask does not fit the dataset.
    """
    loss = explainers._Objective.of(model, objective, dataset)
    system = _implicit_system(loss, x, x_cf, lam, dice_candidates, dice_index)
    dm = system.free.size
    scale = loss.validity_scale(lam)
    mixed = np.zeros((dm, model.param_count))
    for i in range(dm):
        gt_hi = scale * loss.validity_grad_params(system.rows[i][None, :])
        gt_lo = scale * loss.validity_grad_params(system.rows[dm + i][None, :])
        mixed[i] = (gt_hi - gt_lo) / (2.0 * HESSIAN_FD_STEP)
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
                        objective: CfObjective,
                        dataset: Dataset) -> tuple[np.ndarray, HypergradCounts]:
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
    if not pending:
        return np.zeros(model.param_count), counts
    loss = explainers._Objective.of(model, objective, dataset)
    rows, weights = [np.empty((0, dataset.d))], [np.empty(0)]
    for origin, query, r in pending:
        try:
            system = _implicit_system(loss, query, r.x_cf, r.final_lam, r.candidates,
                                      r.candidate_index)
        except HessianConditionError:
            counts.skipped += 1
            continue
        if system.mode == "full-inverse":
            counts.full_inverse += 1
        else:
            counts.diagonal += 1
        counts.approximate += int(system.approximate)
        v = np.sign(r.x_cf - np.asarray(origin, dtype=float)) / dataset.mad
        w = system.solve(v[system.free]) / (2.0 * HESSIAN_FD_STEP)
        w = loss.validity_scale(r.final_lam) * w
        rows.append(system.rows)
        weights.append(np.concatenate([-w, w]))
    X = np.concatenate(rows)
    if X.shape[0] == 0:
        return np.zeros(model.param_count), counts
    return loss.validity_grad_params(X, weights=np.concatenate(weights) / n_found), counts


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
                             budget: SearchBudget = SearchBudget()) -> TermGrad:
    """Parameter gradient of the recourse cost d_W(x, A(x + delta)).

    One search at the (optionally perturbed) query, with its cost measured
    from `x`, and the cost gradient at the found counterfactual chained
    through the implicit step (`batch_hypergradient`).  Failed searches
    contribute a zero gradient; queries the model already accepts have
    exactly zero sensitivity (the search returns the query itself, whose cost
    does not involve the parameters).  An `x` that is not one point of the
    dataset's features raises an ExplainError; a δ that is not one finite
    value per feature, a DataError starting "delta:".
    """
    x = explainers._checked_point(x, dataset.d)[None, :]
    query = x if delta is None else x + checked_delta(delta, dataset.d)
    result, = explainers.batch_explain(model, query, objective, dataset, initializer, budget,
                                       cost_reference=x).results
    grad, counts = batch_hypergradient(model, x, query, [result], objective, dataset)
    return TermGrad(grad=grad, found=result.found, cost=result.cost, result=result,
                    skipped=counts.skipped > 0)


# -- phase one -------------------------------------------------------------------


def _check_descent(config, weights) -> None:
    """The rules both phase configs share: steps, lr, seed and loss weights."""
    if not config.steps >= 0:
        raise ValueError("steps: must be non-negative")
    if not config.lr > 0:
        raise ValueError("lr: must be positive")
    if not config.seed >= 0:
        raise ValueError("seed: must be non-negative")
    for name in weights:
        if not getattr(config, name) >= 0:
            raise ValueError(f"{name}: must be non-negative")


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

    def __post_init__(self):
        _check_descent(self, ("bce_weight", "counterfactual_weight", "delta_size_weight"))
        if not all(h >= 1 for h in self.hidden):
            raise ValueError("hidden: layer widths must be positive")


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
    simultaneously; the perturbation starts at zero.  Each of the two
    batches gets one forward pass per step, which yields its loss and
    gradients; the backward passes overwrite that pass's hidden activations.
    Non-finite activations or loss raise TrainingDiverged, and a feature
    mask that is not one flag per feature a DataError, before any pass.

    The push set is the label-negative non-protected train rows: a fixed
    target the parameters cannot drain by re-predicting (audits slice by
    prediction instead, but the training push needs a stable population).
    """
    net = MlpClassifier([dataset.d, *config.hidden, 1], seed=config.seed)
    delta = np.zeros(dataset.d)
    if config.feature_mask is not None:
        mutable = np.asarray(config.feature_mask, dtype=bool)
        if mutable.shape != (dataset.d,):
            raise DataError("feature mask length does not match feature count")
    else:
        mutable = np.ones(dataset.d, dtype=bool)

    X = dataset.train_features
    y = dataset.train_labels
    tr = dataset.train_idx
    np_neg_rows = tr[(~dataset.protected[tr]) & (dataset.labels[tr] == 0)]
    X_np = dataset.features[np_neg_rows]

    theta_state = AdamState(lr=config.lr)
    theta = net.flatten()
    net.set_flat(theta)
    delta_state = AdamState(lr=config.lr)
    workspace = Workspace()
    losses = np.empty(config.steps)
    delta_l1 = np.empty(config.steps)

    for step in range(config.steps):
        try:
            bce, g_theta = net.bce_loss_and_grad(X, y, workspace)
            g_theta *= config.bce_weight
            g_delta = np.zeros(dataset.d)
            push = 0.0
            if X_np.shape[0]:
                push, g_push, g_rows = net.squared_push_loss_and_grads(X_np + delta, workspace)
                g_push *= config.counterfactual_weight
                g_theta += g_push
                del g_push      # not alive through the optimizer step
                g_delta += config.counterfactual_weight * np.mean(g_rows, axis=0)
        except NumericError:
            raise TrainingDiverged(step) from None
        size = float(np.sum(np.abs(delta) / dataset.mad))
        g_delta += config.delta_size_weight * np.sign(delta) / dataset.mad
        g_delta[~mutable] = 0.0

        loss = config.bce_weight * bce + config.counterfactual_weight * push \
            + config.delta_size_weight * size
        if not np.isfinite(loss):
            raise TrainingDiverged(step)
        losses[step] = loss
        delta_l1[step] = np.sum(np.abs(delta))

        theta = adam_step(theta_state, theta, g_theta)
        net.set_flat(theta)
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

    def __post_init__(self):
        _check_descent(self, ("bce_weight", "np_cost_weight", "disparity_weight"))
        if not self.subsample >= 1:
            raise ValueError("subsample: must be positive")


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
    # the implicit step over the step's three conditions (absent from older
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

    Each evaluation searches the audit's own three conditions
    (`audit._search_conditions`) on a fixed subsample of the train split's
    predicted negatives.  It raises Phase2Aborted when the search found no
    counterfactual for more than ABORT_NOT_FOUND_RATE of the points, before
    any implicit step.  Otherwise it takes one implicit step per condition,
    descends on bce + E[np perturbed cost] + (clean disparity)^2, and keeps
    the best iterate that satisfies the perturbed-cheaper-than-protected
    constraint.  The perturbation is never modified here; one that is not
    one finite value per feature raises a DataError starting "delta:".
    """
    delta = checked_delta(delta, dataset.d)
    net = model.clone()
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
    theta = net.flatten()
    net.set_flat(theta)
    telemetry: list[Phase2Step] = []
    best_flat = None
    best_objective = np.inf
    constraint_ever = False

    for step in range(config.steps + 1):
        conditions = audit._search_conditions(net, pr, np_, delta, config.objective, dataset,
                                              config.initializer, config.budget)
        runs = [run for _, _, run in conditions]
        total = max(sum(len(run.results) for run in runs), 1)
        not_found = sum(run.not_found for run in runs)
        if not_found / total > ABORT_NOT_FOUND_RATE:
            raise Phase2Aborted(not_found / total, step)
        pr_clean_cost, np_clean_cost, np_delta_cost = (run.mean_cost for run in runs)
        # One implicit step per condition.  With δ = 0 the perturbed condition
        # repeats the clean one's queries, and so its results: it reuses that step.
        terms = []
        for i, (refs, queries, run) in enumerate(conditions):
            if i and queries.tobytes() == conditions[i - 1][1].tobytes():
                terms.append(terms[-1])
            else:
                terms.append(batch_hypergradient(net, refs, queries, run.results,
                                                 config.objective, dataset))
        (pr_grad, _), (np_grad, _), (np_delta_grad, _) = terms
        counts = [c for _, c in terms]

        if step == config.steps:    # the last evaluation takes no step
            bce = net.bce_loss(X, y)
        else:
            bce, g_bce = net.bce_loss_and_grad(X, y)
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
            hypergrad_full_inverse=sum(c.full_inverse for c in counts),
            hypergrad_diagonal=sum(c.diagonal for c in counts),
            hypergrad_approximate=sum(c.approximate for c in counts),
            hypergrad_skipped=sum(c.skipped for c in counts)))
        if constraint_ok:
            constraint_ever = True
            if objective_value < best_objective:
                best_objective = objective_value
                best_flat = net.flatten()

        if step == config.steps:
            break
        grad = config.bce_weight * g_bce + config.np_cost_weight * np_delta_grad
        if np.isfinite(disparity):
            grad = grad + config.disparity_weight * 2.0 * disparity * (pr_grad - np_grad)
        theta = adam_step(state, theta, grad)
        net.set_flat(theta)

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
    """The artifact `save_artifact` wrote; a DataError naming the file that
    is not what it wrote there."""
    directory = Path(directory)
    net = load_model(directory / "model.npz")
    delta = read_delta_csv(directory / "delta.csv")
    telemetry_path = directory / "telemetry.json"
    try:
        telemetry = json.loads(telemetry_path.read_text())
        return AdversarialArtifact(
            model=net, delta=delta,
            phase1_loss_trace=np.array(telemetry["phase1"]["loss_trace"], dtype=float),
            phase1_delta_l1_trace=np.array(telemetry["phase1"]["delta_l1_trace"],
                                           dtype=float),
            phase2_steps=[Phase2Step(**s) for s in telemetry["phase2"]["steps"]],
            constraint_satisfied=telemetry["phase2"]["constraint_satisfied"],
            explainer_kind=telemetry["phase2"]["explainer"])
    except (KeyError, TypeError, ValueError):
        raise DataError(f"{telemetry_path} is not an attack's telemetry") from None


def write_delta_csv(delta: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "delta"])
        for i, v in enumerate(np.asarray(delta, dtype=float)):
            writer.writerow([i, repr(float(v))])


def read_delta_csv(path) -> np.ndarray:
    """The perturbation `write_delta_csv` wrote; a DataError starting
    "delta:" when a row after the header is not `feature,value` or its value
    is not finite."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    try:
        delta = np.array([float(row[1]) for row in rows])
    except (IndexError, ValueError):
        raise DataError(f"delta: {path} has a row that is not 'feature,value'") from None
    if not np.isfinite(delta).all():
        raise DataError(f"delta: {path} has a value that is not finite")
    return delta
