"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The end-to-end manipulation (criterion 5) and its dependents share
module-scoped fixtures; the whole module is fully seeded.  Nothing pins
the BLAS thread count.
"""

import math

import numpy as np
import pytest

import recourselab as rl
from recourselab.adversary import Phase1Config, Phase2Config, implicit_jacobian, run_attack
from recourselab.audit import cost_reduction, disparity, local_outlier_factor, run_audit
from recourselab.explainers import CfObjective, Initializer, SearchBudget, batch_explain

# -- criterion 5 attack configuration (desk scale), frozen after calibration --
# The early-stopped joint phase leaves the surface shallow enough that clean
# searches overshoot the boundary under weight escalation while perturbed
# queries ride the learned tunnel; longer schedules saturate the landscape
# and collapse or invert the effect at this dimensionality.
ATTACK_SEED = 7
ATTACK_N_PER_CLUSTER = 1000
ATTACK_HIDDEN = (32, 32)
BASELINE_STEPS = 50
PHASE1_STEPS = 600
PHASE1_WEIGHTS = dict(bce_weight=2.0, counterfactual_weight=1.0, delta_size_weight=0.25)
PHASE2_STEPS = 15
PHASE2_SUBSAMPLE = 96
WACHTER = CfObjective("wachter")

# implicit-vs-brute-force fixture instances satisfying the stationarity and
# stable-support preconditions (seeded; see the fixture builder below)
JACOBIAN_SEEDS = (1, 3, 10, 12, 16, 22, 30, 31, 42, 43)
JACOBIAN_BUDGET = SearchBudget(steps=2500, lr=0.002)
ORACLE_THETA_STEP = 3e-2


def announce(criterion: str, ok: bool, detail: str):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def synth():
    return rl.make_synthetic(ATTACK_N_PER_CLUSTER, seed=ATTACK_SEED)


@pytest.fixture(scope="module")
def baseline(synth):
    return rl.train_baseline(synth, steps=BASELINE_STEPS, seed=1,
                             hidden=ATTACK_HIDDEN).model


def attack_once(synth):
    phase1 = Phase1Config(steps=PHASE1_STEPS, seed=1, hidden=ATTACK_HIDDEN,
                          **PHASE1_WEIGHTS)
    phase2 = Phase2Config(objective=WACHTER, steps=PHASE2_STEPS,
                          subsample=PHASE2_SUBSAMPLE, seed=0)
    return run_attack(synth, phase1, phase2)


@pytest.fixture(scope="module")
def artifact(synth):
    return attack_once(synth)


# -- criterion 1: metric arithmetic against the reference tables ---------------

def test_criterion_1_metric_arithmetic():
    rows = [
        (35.68, 35.31, 1.76, 0.37),
        (54.16, 52.05, 22.59, 2.12),
        (22.35, 22.65, 8.50, 0.30),
        (49.62, 42.63, 9.57, 6.99),
        (8.35, 8.59, 4.12, 0.24),
        (6.31, 6.81, 3.38, 0.5),
    ]
    worst = 0.0
    for pr, np_, npd, disp in rows:
        worst = max(worst, abs(disparity([pr], [np_]) - disp))
    headline = cost_reduction([35.31], [1.76])
    ok = worst <= 0.05 and abs(headline - 20.1) <= 0.3 and headline == pytest.approx(20.0625)
    announce("1", ok, f"max disparity error {worst:.3f}, headline reduction {headline:.4f}")


# -- criterion 2: gradient suite -------------------------------------------------

def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        hidden = [int(rng.integers(2, 17)) for _ in range(int(rng.integers(1, 3)))]
        net = rl.MlpClassifier([d, *hidden, 1], seed=int(rng.integers(1 << 30)))
        X = rng.normal(size=(int(rng.integers(1, 6)), d))
        y = rng.integers(0, 2, size=X.shape[0]).astype(float)

        g = net.grad_params_bce(X, y)
        flat = net.flatten()
        fd = np.empty_like(flat)
        for i in range(flat.size):
            up = flat.copy(); up[i] += 1e-5
            dn = flat.copy(); dn[i] -= 1e-5
            fd[i] = (net.with_flat(up).bce_loss(X, y)
                     - net.with_flat(dn).bce_loss(X, y)) / 2e-5
        worst = max(worst, np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12))

        gx = net.grad_input(X[0])
        fdx = np.empty(d)
        for i in range(d):
            up = X[0].copy(); up[i] += 1e-5
            dn = X[0].copy(); dn[i] -= 1e-5
            fdx[i] = (net.forward(up) - net.forward(dn)) / 2e-5
        worst = max(worst, np.max(np.abs(gx - fdx)) / max(np.max(np.abs(fdx)), 1e-12))
    announce("2", worst <= 1e-4, f"worst relative gradient error {worst:.2e} over 100 probes")


# -- criterion 3: implicit jacobian vs brute-force re-search ----------------------

def jacobian_fixture(seed):
    """A converged tiny-net search instance satisfying the preconditions."""
    ds = rl.make_synthetic(30, seed=200 + seed)
    net = rl.train_baseline(ds, steps=12, seed=seed, hidden=(3,)).model
    negs = sorted((i for i in ds.test_idx if net.forward(ds.features[i]) <= 0.5),
                  key=lambda i: -net.forward(ds.features[i]))
    x = ds.features[negs[0]]
    res = rl.find_counterfactual(net, x, WACHTER, ds, budget=JACOBIAN_BUDGET)
    assert res.found
    delta = np.abs(res.x_cf - x)
    assert all(dj == 0.0 or dj > 0.05 for dj in delta), "support not settled"
    assert net.forward(res.x_cf) > 0.51, "marginal validity"
    return ds, net, x, res


def brute_force_jacobian(net, x, ds, budget, h):
    flat = net.flatten()
    J = np.empty((ds.d, flat.size))
    for i in range(flat.size):
        up = flat.copy(); up[i] += h
        dn = flat.copy(); dn[i] -= h
        r_up = rl.find_counterfactual(net.with_flat(up), x, WACHTER, ds, budget=budget)
        r_dn = rl.find_counterfactual(net.with_flat(dn), x, WACHTER, ds, budget=budget)
        assert r_up.found and r_dn.found
        J[:, i] = (r_up.x_cf - r_dn.x_cf) / (2 * h)
    return J


def test_criterion_3_jacobian_oracle():
    worst = 0.0
    for seed in JACOBIAN_SEEDS:
        ds, net, x, res = jacobian_fixture(seed)
        est = implicit_jacobian(net, x, WACHTER, res.x_cf, ds, lam=res.final_lam)
        assert est.stationarity_inf_norm < 1e-3, "stationarity precondition"
        oracle = brute_force_jacobian(net, x, ds, JACOBIAN_BUDGET, ORACLE_THETA_STEP)
        big = np.maximum(np.abs(est.matrix), np.abs(oracle)) > 1e-3
        if big.any():
            rel = (np.abs(est.matrix - oracle)[big]
                   / np.maximum(np.abs(est.matrix), np.abs(oracle))[big]).max()
            worst = max(worst, rel)
    announce("3", worst <= 5e-2,
             f"worst entrywise relative gap {worst:.4f} across {len(JACOBIAN_SEEDS)} seeds")


# -- criterion 4: explainer validity on the synthetic baseline --------------------

def negative_test_points(dataset, model):
    rows = [i for i in dataset.test_idx
            if model.forward(dataset.features[i]) <= 0.5]
    return dataset.features[np.array(rows)]


def run_criterion_4(synth, baseline):
    X = negative_test_points(synth, baseline)
    outcomes = {}
    for kind in ("wachter", "sparse-wachter", "prototypes", "dice"):
        init = (Initializer("random-uniform", seed=11) if kind == "dice"
                else Initializer())
        batch = batch_explain(baseline, X, CfObjective(kind), synth, init)
        valid = [r for r in batch.results if r.valid]
        rate = len(valid) / len(batch.results)
        min_cost = min((r.cost for r in valid), default=float("nan"))
        outcomes[kind] = (rate, min_cost, batch)
    return X, outcomes


@pytest.fixture(scope="module")
def criterion4(synth, baseline):
    return run_criterion_4(synth, baseline)


def test_criterion_4_explainer_validity(criterion4):
    X, outcomes = criterion4
    detail = ", ".join(f"{k}: {rate:.3f}" for k, (rate, _, _) in outcomes.items())
    ok = all(rate >= 0.95 for rate, _, _ in outcomes.values()) \
        and all(cost > 0.0 for _, cost, _ in outcomes.values())
    announce("4", ok, f"validity over {X.shape[0]} negative queries — {detail}")


# -- criterion 5: end-to-end manipulation -----------------------------------------

@pytest.fixture(scope="module")
def audits(synth, baseline, artifact):
    adv = run_audit(artifact.model, synth, WACHTER, delta=artifact.delta, lof=False)
    control = run_audit(baseline, synth, WACHTER, delta=artifact.delta, lof=False)
    base_clean = run_audit(baseline, synth, WACHTER, lof=False)
    return adv, control, base_clean


def test_criterion_5_end_to_end_manipulation(audits):
    adv, control, base_clean = audits
    mean_clean = 0.5 * (adv.mean_cost_protected + adv.mean_cost_nonprotected)
    checks = {
        "disparity": adv.disparity <= 0.25 * mean_clean,
        "reduction": adv.cost_reduction >= 1.5,
        "accuracy": abs(adv.accuracy - base_clean.accuracy) <= 0.05,
        "control": control.cost_reduction <= 1.2,
    }
    detail = (f"disparity={adv.disparity:.3f} vs mean clean {mean_clean:.3f}, "
              f"reduction={adv.cost_reduction:.2f}, "
              f"accuracy={adv.accuracy:.3f} (baseline {base_clean.accuracy:.3f}), "
              f"control reduction={control.cost_reduction:.2f}")
    announce("5", all(checks.values()),
             detail + " | failed: " + ",".join(k for k, v in checks.items() if not v))


# -- criterion 6: outlier-factor oracle --------------------------------------------

def test_criterion_6_lof_oracle():
    rng = np.random.default_rng(6)
    exact = True
    for _ in range(50):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(2, 21))
        positives = rng.normal(size=(n, d))
        mad = rng.uniform(0.5, 2.0, size=d)
        x_cf = rng.normal(size=d)
        ours = local_outlier_factor(x_cf, positives, mad)
        ref = _lof_double_loop(x_cf, positives.tolist(), mad.tolist())
        exact = exact and (ours == ref)
    coincident = local_outlier_factor(positives[0], positives, mad)
    announce("6", exact and coincident == 0.0,
             "double-loop equality on 50 fixtures, coincident point scores 0")


def _lof_double_loop(x_cf, positives, weights):
    dists = []
    for p in positives:
        dists.append(sum(abs(a - b) / w for a, b, w in zip(x_cf, p, weights)))
    a0 = 0
    for i in range(1, len(positives)):
        if dists[i] < dists[a0]:
            a0 = i
    if dists[a0] == 0.0:
        return 0.0
    best = math.inf
    for i, p in enumerate(positives):
        if i == a0:
            continue
        best = min(best, sum(abs(a - b) / w
                             for a, b, w in zip(positives[a0], p, weights)))
    return math.inf if best == 0.0 else dists[a0] / best


# -- criterion 7: initialization mitigation ----------------------------------------

def test_criterion_7_jitter_mitigation(synth, artifact, audits):
    adv_origin = audits[0]
    adv_jitter = run_audit(artifact.model, synth, WACHTER, delta=artifact.delta,
                           initializer=Initializer("gaussian-jitter", seed=5),
                           lof=False)
    ok = adv_jitter.cost_reduction < adv_origin.cost_reduction
    announce("7", ok, f"jitter reduction {adv_jitter.cost_reduction:.2f} < "
                      f"origin reduction {adv_origin.cost_reduction:.2f}")


# -- criterion 8: byte-identical determinism ----------------------------------------

def test_criterion_8_determinism(tmp_path, synth, baseline, artifact, criterion4):
    from recourselab.audit import report_to_csv
    from recourselab.explainers import results_to_csv

    # criterion-4 rerun (one representative explainer batch)
    X = negative_test_points(synth, baseline)
    again = batch_explain(baseline, X, WACHTER, synth)
    a_path, b_path = tmp_path / "c4_a.csv", tmp_path / "c4_b.csv"
    results_to_csv(criterion4[1]["wachter"][2].results, a_path)
    results_to_csv(again.results, b_path)
    same4 = a_path.read_bytes() == b_path.read_bytes()

    # criterion-5 rerun: full attack plus audit
    artifact2 = attack_once(synth)
    r1 = run_audit(artifact.model, synth, WACHTER, delta=artifact.delta, lof=False)
    r2 = run_audit(artifact2.model, synth, WACHTER, delta=artifact2.delta, lof=False)
    p1, p2 = tmp_path / "c5_a.csv", tmp_path / "c5_b.csv"
    report_to_csv(r1, p1)
    report_to_csv(r2, p2)
    same5 = p1.read_bytes() == p2.read_bytes()
    announce("8", same4 and same5,
             f"criterion-4 rerun identical: {same4}; criterion-5 rerun identical: {same5}")
