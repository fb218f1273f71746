import dataclasses
import json
import math

import numpy as np
import pytest

import recourselab as rl
from conftest import csv_dataset, negative_test_rows
from recourselab import adversary, audit, explainers
from recourselab.adversary import (
    AdversarialArtifact, HessianConditionError, Phase1Config, Phase2Aborted, Phase2Config,
    batch_hypergradient, counterfactual_term_grad, implicit_jacobian, load_artifact,
    phase1_fit, phase2_fit, save_artifact,
)
from recourselab.data import DataError
from recourselab.explainers import OBJECTIVE_KINDS, CfObjective, CfResult, Initializer, SearchBudget
from recourselab.model import AdamState, TrainingDiverged, adam_step


@pytest.fixture(scope="module")
def tiny_ds():
    return rl.make_synthetic(30, seed=201)


@pytest.fixture(scope="module")
def tiny_net(tiny_ds):
    return rl.train_baseline(tiny_ds, steps=12, seed=1, hidden=(3,)).model


@pytest.fixture(scope="module")
def tiny_search(tiny_ds, tiny_net):
    budget = SearchBudget(steps=2500, lr=0.002)
    negs = sorted((i for i in tiny_ds.test_idx
                   if tiny_net.forward(tiny_ds.features[i]) <= 0.5),
                  key=lambda i: -tiny_net.forward(tiny_ds.features[i]))
    x = tiny_ds.features[negs[0]]
    res = rl.find_counterfactual(tiny_net, x, CfObjective("wachter"), tiny_ds,
                                 budget=budget)
    assert res.found
    return x, res, budget


class TestImplicitJacobian:
    def test_zero_validity_weight_gives_zero_jacobian(self, tiny_ds, tiny_net):
        # pure-distance objective: no parameter dependence anywhere
        x = tiny_ds.features[0]
        x_cf = x + np.array([0.4, -0.3])
        obj = CfObjective("sparse-wachter", lam=0.0)
        est = implicit_jacobian(tiny_net, x, obj, x_cf, tiny_ds, lam=0.0)
        assert np.all(est.matrix == 0.0)

    def test_deterministic_for_identical_models(self, tiny_ds, tiny_net, tiny_search):
        x, res, _ = tiny_search
        obj = CfObjective("wachter")
        a = implicit_jacobian(tiny_net, x, obj, res.x_cf, tiny_ds, lam=res.final_lam)
        b = implicit_jacobian(tiny_net.clone(), x, obj, res.x_cf, tiny_ds,
                              lam=res.final_lam)
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_shape_and_finite(self, tiny_ds, tiny_net, tiny_search):
        x, res, _ = tiny_search
        est = implicit_jacobian(tiny_net, x, CfObjective("wachter"), res.x_cf,
                                tiny_ds, lam=res.final_lam)
        assert est.matrix.shape == (tiny_ds.d, tiny_net.param_count)
        assert np.isfinite(est.matrix).all()
        assert est.mode == "full-inverse"

    def test_pinned_coordinates_zero_rows(self, tiny_ds, tiny_net, tiny_search):
        x, res, _ = tiny_search
        est = implicit_jacobian(tiny_net, x, CfObjective("wachter"), res.x_cf,
                                tiny_ds, lam=res.final_lam)
        pinned = np.abs(res.x_cf - x) <= 1e-6
        if pinned.any():
            assert np.all(est.matrix[pinned] == 0.0)

    def test_diagonal_mode(self, tiny_ds, tiny_net, tiny_search, monkeypatch):
        x, res, _ = tiny_search
        monkeypatch.setattr(adversary, "FULL_INVERSE_MAX_DIM", 0)
        est = implicit_jacobian(tiny_net, x, CfObjective("wachter"), res.x_cf,
                                tiny_ds, lam=res.final_lam)
        assert est.mode == "diagonal-approximation"
        assert np.isfinite(est.matrix).all()

    def test_masked_rows_zero(self, tiny_ds, tiny_net, tiny_search):
        x, res, _ = tiny_search
        obj = CfObjective("wachter", feature_mask=(True, False))
        est = implicit_jacobian(tiny_net, x, obj, res.x_cf, tiny_ds, lam=res.final_lam)
        assert np.all(est.matrix[1] == 0.0)

    def test_singular_hessian_refused(self, tiny_ds, tiny_net):
        # a pure-distance wachter objective away from every kink has an
        # exactly zero candidate Hessian
        x = tiny_ds.features[0]
        x_cf = x + np.array([0.7, -0.6])
        obj = CfObjective("wachter", lam=0.0)
        with pytest.raises(HessianConditionError):
            implicit_jacobian(tiny_net, x, obj, x_cf, tiny_ds, lam=0.0)

    def test_coordinate_within_fd_step_stays_pinned(self, synth_small, baseline_small):
        # A coordinate closer to the query than one finite-difference step
        # sits at the l1 kink; treating it as free made its central
        # difference straddle the kink and wrecked the Hessian's condition.
        obj = CfObjective("wachter")
        X = synth_small.features[negative_test_rows(synth_small, baseline_small)]
        batch = rl.batch_explain(baseline_small, X, obj, synth_small)
        x, res = next((x, r) for x, r in zip(X, batch.results)
                      if r.found and np.sum(r.x_cf == x) == 1)
        j = int(np.flatnonzero(res.x_cf == x)[0])
        near = res.x_cf.copy()
        near[j] += 5e-5
        loss = explainers._Objective.of(baseline_small, obj, synth_small)
        at_kink = adversary._implicit_system(loss, x, res.x_cf, lam=res.final_lam)
        off_kink = adversary._implicit_system(loss, x, near, lam=res.final_lam)
        assert np.array_equal(off_kink.free, at_kink.free)
        assert j not in off_kink.free
        assert off_kink.rcond == at_kink.rcond
        est = implicit_jacobian(baseline_small, x, obj, near, synth_small, lam=res.final_lam)
        assert np.all(est.matrix[j] == 0.0)
        assert est.hessian_rcond == at_kink.rcond

    def test_refused_full_inverse_falls_back_to_diagonal(self, tiny_ds, monkeypatch):
        # one hidden unit: the candidate Hessian is rank one, so the full
        # inverse is refused while its diagonal is not
        net = rl.train_baseline(tiny_ds, steps=12, seed=1, hidden=(1,)).model
        x = tiny_ds.features[0]
        x_cf = x + np.array([0.3, -0.2])
        obj = CfObjective("wachter")
        system = adversary._implicit_system(explainers._Objective.of(net, obj, tiny_ds), x,
                                            x_cf, lam=4.0)
        assert system.free.size == 2 <= adversary.FULL_INVERSE_MAX_DIM
        assert 1.0 / np.linalg.cond(system.hessian) < adversary.RCOND_MIN
        chosen = implicit_jacobian(net, x, obj, x_cf, tiny_ds, lam=4.0)
        monkeypatch.setattr(adversary, "FULL_INVERSE_MAX_DIM", 0)
        diagonal = implicit_jacobian(net, x, obj, x_cf, tiny_ds, lam=4.0)
        assert chosen.mode == diagonal.mode == "diagonal-approximation"
        assert chosen.matrix.tobytes() == diagonal.matrix.tobytes()

    def test_mask_of_wrong_length_refused(self, tiny_ds, tiny_net, tiny_search):
        # the search refuses this mask; the Jacobian used to broadcast it
        x, res, _ = tiny_search
        obj = CfObjective("wachter", feature_mask=(True,))
        with pytest.raises(explainers.ExplainError, match="feature mask length"):
            rl.find_counterfactual(tiny_net, x, obj, tiny_ds)
        with pytest.raises(explainers.ExplainError, match="feature mask length"):
            implicit_jacobian(tiny_net, x, obj, res.x_cf, tiny_ds, lam=res.final_lam)

    def test_stationarity_flag(self, tiny_ds, tiny_net):
        x = tiny_ds.features[0]
        x_cf = x + np.array([0.5, -0.4])  # arbitrary, not converged
        est = implicit_jacobian(tiny_net, x, CfObjective("sparse-wachter"), x_cf,
                                tiny_ds, lam=4.0)
        assert est.approximate
        assert est.stationarity_inf_norm > 1e-2


class TestCounterfactualTermGrad:
    def test_zero_validity_weight_zero_grad(self, tiny_ds, tiny_net):
        obj = CfObjective("sparse-wachter", lam=0.0)
        out = counterfactual_term_grad(tiny_net, tiny_ds.features[0], None, obj, tiny_ds,
                                       budget=SearchBudget(steps=50))
        assert np.all(out.grad == 0.0)

    def test_several_points_rejected(self, tiny_ds, tiny_net):
        x = tiny_ds.features[:2]
        with pytest.raises(explainers.ExplainError, match=r"got shape \(2, 2\)"):
            counterfactual_term_grad(tiny_net, x, None, CfObjective("wachter"), tiny_ds)

    def test_nan_point_rejected(self, tiny_ds, tiny_net):
        """Refused before any search, not counted as a failed one."""
        with pytest.raises(explainers.ExplainError, match="queries must be finite"):
            counterfactual_term_grad(tiny_net, np.array([np.nan, 0.0]), None,
                                     CfObjective("wachter"), tiny_ds)

    @pytest.mark.parametrize("delta", [[0.1, 0.0], [0.1, 0.0, 0.0]])
    @pytest.mark.parametrize("d", [1, 3])
    def test_wrong_length_named(self, d, delta, tiny_ds, tiny_net):
        """A query of the wrong length is named, before any δ check."""
        with pytest.raises(explainers.ExplainError,
                           match=rf"one point of 2 features, got shape \({d},\)"):
            counterfactual_term_grad(tiny_net, np.zeros(d), delta, CfObjective("wachter"),
                                     tiny_ds)

    def test_shape_and_finite(self, tiny_ds, tiny_net, tiny_search):
        x, _, budget = tiny_search
        out = counterfactual_term_grad(tiny_net, x, None, CfObjective("wachter"),
                                       tiny_ds, budget=budget)
        assert out.grad.shape == (tiny_net.param_count,)
        assert np.isfinite(out.grad).all()
        assert out.found

    def test_already_valid_query_zero_grad(self, tiny_ds, tiny_net):
        pos = [i for i in tiny_ds.test_idx
               if tiny_net.forward(tiny_ds.features[i]) > 0.5]
        out = counterfactual_term_grad(tiny_net, tiny_ds.features[pos[0]], None,
                                       CfObjective("wachter"), tiny_ds)
        assert out.found and np.all(out.grad == 0.0)

    def test_matches_one_row_batch(self, tiny_ds, tiny_net, tiny_search):
        x, res, budget = tiny_search
        obj = CfObjective("wachter")
        out = counterfactual_term_grad(tiny_net, x, None, obj, tiny_ds, budget=budget)
        grad, counts = batch_hypergradient(tiny_net, x[None], x[None], [res], obj, tiny_ds)
        assert out.grad.tobytes() == grad.tobytes()
        assert out.cost == res.cost and not out.skipped
        assert counts.full_inverse == 1
        v = np.sign(res.x_cf - x) / tiny_ds.mad
        dense = v @ implicit_jacobian(tiny_net, x, obj, res.x_cf, tiny_ds,
                                      lam=res.final_lam).matrix
        assert_close(out.grad, dense)

    def test_directional_derivative_matches_research(self, tiny_ds, tiny_net, tiny_search):
        # full re-search finite differences along random parameter directions
        x, res, budget = tiny_search
        obj = CfObjective("wachter")
        out = counterfactual_term_grad(tiny_net, x, None, obj, tiny_ds, budget=budget)
        rng = np.random.default_rng(0)
        flat = tiny_net.flatten()
        h = 3e-2
        checked = 0
        for _ in range(3):
            u = rng.normal(size=flat.size)
            u /= np.linalg.norm(u)
            costs = []
            for sign in (+1, -1):
                net2 = tiny_net.with_flat(flat + sign * h * u)
                r2 = rl.find_counterfactual(net2, x, obj, tiny_ds, budget=budget)
                assert r2.found
                costs.append(r2.cost)
            fd = (costs[0] - costs[1]) / (2 * h)
            got = float(out.grad @ u)
            if abs(fd) > 1e-3:
                assert abs(got - fd) / abs(fd) <= 0.10
                checked += 1
        assert checked >= 1


def assert_close(got, want, rtol=1e-9):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.fixture(scope="module")
def wide_ds(tmp_path_factory):
    """Five features, so the implicit systems have off-diagonal structure."""
    return csv_dataset(tmp_path_factory.mktemp("wide"), d=5, seed=5)


@pytest.fixture(scope="module")
def wide_net(wide_ds):
    return rl.train_baseline(wide_ds, steps=30, seed=1, hidden=(8,)).model


def planted_batch(ds, objective, seed):
    """Origins, perturbed queries and found results around them.

    The counterfactuals are not converged: v @ J = -w^T M holds at any point,
    so the batch path must match the dense reference everywhere.  Some
    coordinates sit on the query (pinned); the batch also holds a query the
    model already accepts and a not-found search.
    """
    rng = np.random.default_rng(seed)
    d = ds.d
    mutable = (np.ones(d, dtype=bool) if objective.feature_mask is None
               else np.asarray(objective.feature_mask))
    origins = ds.features[ds.test_idx[:5]]
    queries = origins + 0.05 * rng.standard_normal(origins.shape)
    results = []
    for q in queries[:3]:
        k = 3 if objective.kind == "dice" else 1
        moves = 0.5 * rng.standard_normal((k, d))
        moves[:, ~mutable] = 0.0
        moves[:, rng.random(d) < 0.3] = 0.0
        cands = q + moves
        pick = k - 1
        extra = {"candidates": cands, "candidate_index": pick} if k > 1 else {}
        results.append(CfResult(x_cf=cands[pick], valid=True, cost=1.0, iterations=1,
                                final_lam=2.0, initializer="origin", optimizer="adam",
                                **extra))
    results.append(CfResult(x_cf=queries[3].copy(), valid=True, cost=0.0, iterations=0,
                            final_lam=1.0, initializer="origin", optimizer="adam",
                            query_was_valid=True))
    results.append(CfResult(x_cf=None, valid=False, cost=float("nan"), iterations=9,
                            final_lam=1.0, initializer="origin", optimizer="adam"))
    return origins, queries, results


def dense_mean_hypergradient(net, origins, queries, results, objective, ds):
    """Mean of v @ implicit_jacobian(...).matrix over the found results."""
    grads = []
    for origin, query, r in zip(origins, queries, results):
        if not r.found:
            continue
        if r.query_was_valid:
            grads.append(np.zeros(net.param_count))
            continue
        dice = ({"dice_candidates": r.candidates, "dice_index": r.candidate_index}
                if objective.kind == "dice" else {})
        try:
            est = implicit_jacobian(net, query, objective, r.x_cf, ds, lam=r.final_lam,
                                    **dice)
        except HessianConditionError:
            grads.append(np.zeros(net.param_count))
            continue
        grads.append(np.sign(r.x_cf - origin) / ds.mad @ est.matrix)
    return np.mean(grads, axis=0)


class TestBatchHypergradient:
    # The limit on moved coordinates for each case: on these five-feature
    # inputs the rule's own limit takes the full inverse for every point and
    # 0 sends every point to the diagonal.  The points move 1 to 5
    # coordinates, so a limit of 2 splits most batches between the branches
    # ("mixed"), and each point must take the branch implicit_jacobian takes.
    LIMITS = {"full-inverse": None, "diagonal-approximation": 0, "mixed": 2}

    @pytest.mark.parametrize("branch", ["full-inverse", "diagonal-approximation", "mixed"])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_matches_dense_jacobian(self, wide_ds, wide_net, kind, masked, branch,
                                    monkeypatch):
        if self.LIMITS[branch] is not None:
            monkeypatch.setattr(adversary, "FULL_INVERSE_MAX_DIM", self.LIMITS[branch])
        mask = (True, False, True, True, False) if masked else None
        obj = CfObjective(kind, feature_mask=mask)
        origins, queries, results = planted_batch(wide_ds, obj, seed=len(kind))
        grad, counts = batch_hypergradient(wide_net, origins, queries, results, obj,
                                           wide_ds)
        dense = dense_mean_hypergradient(wide_net, origins, queries, results, obj, wide_ds)
        assert np.linalg.norm(dense) > 0.0
        assert_close(grad, dense)
        modes = [implicit_jacobian(wide_net, q, obj, r.x_cf, wide_ds, lam=r.final_lam,
                                   **({"dice_candidates": r.candidates,
                                       "dice_index": r.candidate_index}
                                      if kind == "dice" else {})).mode
                 for q, r in zip(queries[:3], results[:3])]
        assert counts.full_inverse == modes.count("full-inverse")
        assert counts.diagonal == modes.count("diagonal-approximation")
        if branch != "mixed":
            assert modes == [branch] * 3
        assert counts.skipped == 0

    def test_uses_diagonal_above_max_dim(self, tmp_path):
        # One point moves exactly FULL_INVERSE_MAX_DIM coordinates, the other
        # one more.  sparse-wachter's squared distance keeps both Hessians
        # well conditioned, so only the count of moved coordinates decides.
        max_dim = adversary.FULL_INVERSE_MAX_DIM
        ds = csv_dataset(tmp_path, d=max_dim + 4, seed=6)
        net = rl.train_baseline(ds, steps=30, seed=1, hidden=(8,)).model
        obj = CfObjective("sparse-wachter")
        rng = np.random.default_rng(3)
        origins = ds.features[ds.test_idx[:2]]
        results = []
        for origin, moved in zip(origins, (max_dim, max_dim + 1)):
            x_cf = origin.copy()
            cols = rng.choice(ds.d, size=moved, replace=False)
            x_cf[cols] += rng.choice([-1.0, 1.0], moved) * rng.uniform(0.1, 0.5, moved)
            results.append(CfResult(x_cf=x_cf, valid=True, cost=1.0, iterations=1,
                                    final_lam=2.0, initializer="origin", optimizer="adam"))
        grad, counts = batch_hypergradient(net, origins, origins, results, obj, ds)
        assert counts.full_inverse == 1 and counts.diagonal == 1 and counts.skipped == 0
        assert_close(grad, dense_mean_hypergradient(net, origins, origins, results, obj, ds))

    def test_diagonal_after_refused_full_inverse(self, tiny_ds):
        # one hidden unit: two moved coordinates, but a rank-one Hessian
        net = rl.train_baseline(tiny_ds, steps=12, seed=1, hidden=(1,)).model
        obj = CfObjective("wachter")
        origins = tiny_ds.features[:2]
        results = [CfResult(x_cf=x + np.array([0.3, -0.2]), valid=True, cost=1.0,
                            iterations=1, final_lam=4.0, initializer="origin",
                            optimizer="adam") for x in origins]
        grad, counts = batch_hypergradient(net, origins, origins, results, obj, tiny_ds)
        assert counts.full_inverse == 0 and counts.diagonal == 2 and counts.skipped == 0
        assert_close(grad, dense_mean_hypergradient(net, origins, origins, results, obj,
                                                    tiny_ds))

    def test_refused_hessian_contributes_zero(self, tiny_ds, tiny_net, tiny_search):
        x, res, _ = tiny_search
        obj = CfObjective("wachter")
        # without the validity term the wachter Hessian is exactly zero: refused
        refused = CfResult(x_cf=x + np.array([0.7, -0.6]), valid=True, cost=1.0,
                           iterations=1, final_lam=0.0, initializer="origin",
                           optimizer="adam")
        origins = np.stack([x, x])
        grad, counts = batch_hypergradient(tiny_net, origins, origins, [res, refused], obj,
                                           tiny_ds)
        assert counts.skipped == 1 and counts.full_inverse == 1
        alone, _ = batch_hypergradient(tiny_net, x[None], x[None], [res], obj, tiny_ds)
        assert_close(grad, alone / 2.0)
        assert_close(grad, dense_mean_hypergradient(tiny_net, origins, origins,
                                                    [res, refused], obj, tiny_ds))

    def test_one_net_copy_and_pool_per_batch(self, wide_ds, wide_net, monkeypatch):
        built = {"FrozenNet": 0, "_prototype_pool": 0}
        for name in built:
            original = getattr(explainers, name)

            def counted(*args, name=name, original=original):
                built[name] += 1
                return original(*args)

            monkeypatch.setattr(explainers, name, counted)
        obj = CfObjective("prototypes")
        origins, queries, results = planted_batch(wide_ds, obj, seed=3)
        assert sum(r.found and not r.query_was_valid for r in results) >= 3
        _, counts = batch_hypergradient(wide_net, origins, queries, results, obj, wide_ds)
        assert counts.full_inverse + counts.diagonal >= 3
        assert built == {"FrozenNet": 1, "_prototype_pool": 1}

    def test_nothing_to_differentiate_gives_zero(self, tiny_ds, tiny_net):
        obj = CfObjective("wachter")
        _, _, results = planted_batch(tiny_ds, obj, seed=0)
        origins = tiny_ds.features[:2]
        grad, counts = batch_hypergradient(tiny_net, origins, origins, results[3:], obj,
                                           tiny_ds)
        assert grad.shape == (tiny_net.param_count,) and np.all(grad == 0.0)
        assert counts == adversary.HypergradCounts()


def mini_phase1(steps=300, seed=2):
    return Phase1Config(steps=steps, seed=seed, hidden=(8, 8),
                        bce_weight=2.0, counterfactual_weight=1.0,
                        delta_size_weight=0.25)


def reference_phase1(dataset, config):
    """Phase one with one public model call per loss and gradient."""
    net = rl.MlpClassifier([dataset.d, *config.hidden, 1], seed=config.seed)
    delta = np.zeros(dataset.d)
    mutable = (np.ones(dataset.d, dtype=bool) if config.feature_mask is None
               else np.asarray(config.feature_mask, dtype=bool))
    X, y = dataset.train_features, dataset.train_labels
    tr = dataset.train_idx
    X_np = dataset.features[tr[(~dataset.protected[tr]) & (dataset.labels[tr] == 0)]]
    theta_state, delta_state = AdamState(lr=config.lr), AdamState(lr=config.lr)
    losses, delta_l1 = [], []
    for _ in range(config.steps):
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
        losses.append(config.bce_weight * bce + config.counterfactual_weight * push
                      + config.delta_size_weight * size)
        delta_l1.append(np.sum(np.abs(delta)))
        net.set_flat(adam_step(theta_state, net.flatten(), g_theta))
        delta = adam_step(delta_state, delta, g_delta)
        delta[~mutable] = 0.0
    return net, delta, np.array(losses), np.array(delta_l1)


class TestPhase1:
    @pytest.mark.parametrize("mask", [None, (True, False)])
    @pytest.mark.parametrize("push_set", ["nonempty", "empty"])
    def test_matches_reference_loop_bitwise(self, synth_small, mask, push_set):
        ds = synth_small
        if push_set == "empty":     # every label-negative row protected
            ds = dataclasses.replace(ds, protected=ds.labels == 0)
        cfg = mini_phase1(steps=25)
        cfg.feature_mask = mask
        out = phase1_fit(ds, cfg)
        net, delta, losses, delta_l1 = reference_phase1(ds, cfg)
        assert out.model.flatten().tobytes() == net.flatten().tobytes()
        assert out.delta.tobytes() == delta.tobytes()
        assert out.loss_trace.tobytes() == losses.tobytes()
        assert out.delta_l1_trace.tobytes() == delta_l1.tobytes()

    def test_non_finite_activations_report_step(self, synth_small):
        raw = synth_small.features.copy()
        raw[synth_small.train_idx[0], 0] = np.nan
        poisoned = dataclasses.replace(synth_small, features=raw)
        with pytest.raises(TrainingDiverged) as err:
            phase1_fit(poisoned, mini_phase1(steps=5))
        assert err.value.step == 0

    def test_zero_steps_keeps_zero_delta(self, synth_small):
        out = phase1_fit(synth_small, mini_phase1(steps=0))
        assert np.all(out.delta == 0.0)
        fresh = rl.MlpClassifier([synth_small.d, 8, 8, 1], seed=2)
        assert out.model.flatten().tobytes() == fresh.flatten().tobytes()

    def test_perturbed_negatives_become_accepted(self, synth_small):
        out = phase1_fit(synth_small, Phase1Config(
            steps=1500, seed=2, hidden=(8, 8), bce_weight=1.0,
            counterfactual_weight=4.0, delta_size_weight=0.05))
        tr = synth_small.train_idx
        rows = tr[~synth_small.protected[tr]]
        X = synth_small.features[rows]
        neg = out.model.forward(X) <= 0.5
        if neg.sum() == 0:
            pytest.skip("no predicted negatives left to measure")
        frac = (out.model.forward(X[neg] + out.delta) > 0.5).mean()
        assert frac >= 0.9

    def test_delta_l1_reasonable_scale(self, synth_small):
        out = phase1_fit(synth_small, mini_phase1(steps=800))
        assert 0.0 < np.abs(out.delta).sum() < 5.0

    def test_deterministic(self, synth_small):
        a = phase1_fit(synth_small, mini_phase1())
        b = phase1_fit(synth_small, mini_phase1())
        assert a.model.flatten().tobytes() == b.model.flatten().tobytes()
        assert a.delta.tobytes() == b.delta.tobytes()

    def test_masked_delta_coordinates_stay_zero(self, synth_small):
        cfg = mini_phase1(steps=200)
        cfg.feature_mask = (True, False)
        out = phase1_fit(synth_small, cfg)
        assert out.delta[1] == 0.0

    def test_mask_of_wrong_length_refused_before_any_pass(self, synth_small, monkeypatch):
        def no_pass(*args, **kwargs):
            raise AssertionError("phase 1 ran a pass")

        monkeypatch.setattr(rl.MlpClassifier, "bce_loss_and_grad", no_pass)
        cfg = mini_phase1(steps=1)
        cfg.feature_mask = (True,)
        with pytest.raises(DataError, match="feature mask length"):
            phase1_fit(synth_small, cfg)


def mini_phase2(steps=2, subsample=12):
    return Phase2Config(objective=CfObjective("wachter"), steps=steps,
                        subsample=subsample, seed=0,
                        budget=SearchBudget(steps=150))


def phase2_record(bce, objective, np_delta_cost, np_clean_cost, pr_clean_cost, ok, not_found,
                  counts):
    """What `reference_phase2` records of one evaluation, as text: equal text
    means equal bits, a NaN cost included."""
    return repr((float(bce), float(objective), float(np_delta_cost), float(np_clean_cost),
                 float(pr_clean_cost), bool(ok), int(not_found), tuple(counts)))


def step_record(s):
    """`phase2_record` of a step `phase2_fit` reported."""
    return phase2_record(s.bce, s.objective, s.np_delta_cost, s.np_clean_cost,
                         s.pr_clean_cost, s.constraint_ok, s.not_found,
                         (s.hypergrad_full_inverse, s.hypergrad_diagonal,
                          s.hypergrad_approximate, s.hypergrad_skipped))


def reference_phase2(model, delta, dataset, config):
    """Phase two from public calls alone: per evaluation, one `batch_explain`
    for each audit condition (protected, non-protected, non-protected moved
    by δ with costs from the clean rows) and one model call for the loss;
    every evaluation but the last then takes one `batch_hypergradient` per
    condition and one model call for the loss gradient, and its hypergradient
    counts are those of that step (the last record's read 0).  Returns the
    kept parameters and each evaluation's `phase2_record`."""
    net = model.clone()
    X, y = dataset.train_features, dataset.train_labels
    slices = dataset.group_slices(net, split="train")
    rng = np.random.default_rng(config.seed)
    rows = []
    for role in ("protected-neg", "nonprotected-neg"):
        idx = slices[role].indices
        if idx.size > config.subsample:
            idx = np.sort(rng.choice(idx, size=config.subsample, replace=False))
        rows.append(dataset.features[idx])
    pr, np_ = rows
    state = AdamState(lr=config.lr)
    records, best_flat, best_objective = [], None, np.inf
    for step in range(config.steps + 1):
        conditions = [(refs, queries, rl.batch_explain(net, queries, config.objective, dataset,
                                                       config.initializer, config.budget,
                                                       cost_reference=refs))
                      for refs, queries in ((pr, pr), (np_, np_), (np_, np_ + delta))]
        pr_cost, np_cost, np_delta_cost = (run.mean_cost for _, _, run in conditions)
        not_found = sum(run.not_found for _, _, run in conditions)
        bce = net.bce_loss(X, y)
        disparity = pr_cost - np_cost
        objective = (config.bce_weight * bce + config.np_cost_weight * np_delta_cost
                     + config.disparity_weight * disparity ** 2)
        ok = np.isfinite(np_delta_cost) and np.isfinite(pr_cost) and np_delta_cost < pr_cost
        if ok and objective < best_objective:
            best_objective, best_flat = objective, net.flatten()
        counts = np.zeros(4, dtype=int)
        if step < config.steps:
            grads = []
            for refs, queries, run in conditions:
                grad, c = batch_hypergradient(net, refs, queries, run.results,
                                              config.objective, dataset)
                grads.append(grad)
                counts += dataclasses.astuple(c)
            pr_grad, np_grad, np_delta_grad = grads
            grad = config.bce_weight * net.grad_params_bce(X, y) \
                + config.np_cost_weight * np_delta_grad
            if np.isfinite(disparity):
                grad = grad + config.disparity_weight * 2.0 * disparity * (pr_grad - np_grad)
            net.set_flat(adam_step(state, net.flatten(), grad))
        records.append(phase2_record(bce, objective, np_delta_cost, np_cost, pr_cost, ok,
                                     not_found, counts.tolist()))
    if best_flat is not None:
        net.set_flat(best_flat)
    return net, records


def aborting_phase2(dataset):
    """`phase2_fit` arguments that abort at step 0: f == 0.5 everywhere with a
    zero gradient, so every point is a predicted negative and no search can
    leave its start."""
    net = rl.MlpClassifier([2, 4, 1], seed=0)
    net.set_flat(np.zeros(net.param_count))
    config = dataclasses.replace(mini_phase2(steps=3), budget=SearchBudget(steps=5))
    return net, np.array([0.3, -0.2]), dataset, config


class TestPhase2:
    def test_matches_reference_loop_bitwise(self, synth_small, baseline_small):
        delta = np.array([0.3, -0.2])
        cfg = mini_phase2(steps=2)
        art = phase2_fit(baseline_small, delta, synth_small, cfg)
        net, records = reference_phase2(baseline_small, delta, synth_small, cfg)
        assert [step_record(s) for s in art.phase2_steps] == records
        assert art.model.flatten().tobytes() == net.flatten().tobytes()

    def test_zero_steps_keeps_model(self, synth_small, baseline_small):
        delta = np.array([0.2, -0.1])
        art = phase2_fit(baseline_small, delta, synth_small, mini_phase2(steps=0))
        assert art.model.flatten().tobytes() == baseline_small.flatten().tobytes()
        assert len(art.phase2_steps) == 1

    def test_delta_never_mutated(self, synth_small, baseline_small):
        delta = np.array([0.3, -0.2])
        before = delta.tobytes()
        art = phase2_fit(baseline_small, delta, synth_small, mini_phase2())
        assert delta.tobytes() == before
        assert art.delta.tobytes() == before

    def test_input_model_not_mutated(self, synth_small, baseline_small):
        before = baseline_small.flatten().tobytes()
        phase2_fit(baseline_small, np.zeros(2), synth_small, mini_phase2())
        assert baseline_small.flatten().tobytes() == before

    def test_telemetry_fields(self, synth_small, baseline_small):
        art = phase2_fit(baseline_small, np.zeros(2), synth_small, mini_phase2())
        assert len(art.phase2_steps) == 3
        step = art.phase2_steps[0]
        assert np.isfinite(step.bce)
        assert step.not_found >= 0
        assert isinstance(step.constraint_ok, bool)

    def test_hypergradient_counts(self, synth_small, baseline_small):
        art = phase2_fit(baseline_small, np.zeros(2), synth_small, mini_phase2(steps=1))
        first, last = art.phase2_steps
        solved = first.hypergrad_full_inverse + first.hypergrad_diagonal
        assert solved > 0
        assert 0 <= first.hypergrad_approximate <= solved
        assert first.hypergrad_skipped >= 0
        assert (last.hypergrad_full_inverse, last.hypergrad_diagonal,
                last.hypergrad_approximate, last.hypergrad_skipped) == (0, 0, 0, 0)

    @pytest.mark.parametrize("steps", [0, 2])
    def test_hypergradients_only_for_steps(self, synth_small, baseline_small, monkeypatch,
                                           steps):
        calls = []
        hypergradient = adversary.batch_hypergradient

        def counted(*args):
            calls.append(args)
            return hypergradient(*args)

        monkeypatch.setattr(adversary, "batch_hypergradient", counted)
        art = phase2_fit(baseline_small, np.array([0.3, -0.2]), synth_small,
                         mini_phase2(steps=steps))
        assert len(art.phase2_steps) == steps + 1
        assert len(calls) == 3 * steps      # one per condition, per step taken

    def test_no_dense_jacobian(self, synth_small, baseline_small, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("phase 2 built a dense Jacobian")

        monkeypatch.setattr(adversary, "implicit_jacobian", refuse)
        art = phase2_fit(baseline_small, np.zeros(2), synth_small, mini_phase2(steps=1))
        assert len(art.phase2_steps) == 2

    def test_deterministic(self, synth_small, baseline_small):
        delta = np.array([0.1, 0.0])
        a = phase2_fit(baseline_small, delta, synth_small, mini_phase2())
        b = phase2_fit(baseline_small, delta, synth_small, mini_phase2())
        assert a.model.flatten().tobytes() == b.model.flatten().tobytes()

    def test_aborts_when_searches_fail(self, synth_small):
        with pytest.raises(Phase2Aborted) as info:
            phase2_fit(*aborting_phase2(synth_small))
        assert info.value.step == 0
        assert info.value.not_found_rate == 1.0

    def test_aborted_evaluation_takes_no_implicit_step(self, synth_small, monkeypatch):
        calls = []
        hypergradient = adversary.batch_hypergradient

        def counted(*args):
            calls.append(args)
            return hypergradient(*args)

        monkeypatch.setattr(adversary, "batch_hypergradient", counted)
        with pytest.raises(Phase2Aborted):
            phase2_fit(*aborting_phase2(synth_small))
        assert len(calls) == 0


def assert_steps_close(got, want, rel=1e-9):
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, float):
            assert (math.isnan(value) and math.isnan(other)) or \
                other == pytest.approx(value, rel=rel, abs=1e-12), name
        else:
            assert other == value, name


class TestMergedPhase2:
    DELTA = np.array([0.3, -0.2])

    @pytest.mark.parametrize("init", ["origin", "gaussian-jitter"])
    def test_step0_equals_three_searches(self, synth_small, baseline_small, monkeypatch,
                                         init):
        config = mini_phase2(steps=0, subsample=synth_small.n)   # every train negative
        config.initializer = Initializer(init, seed=2)
        merged = phase2_fit(baseline_small, self.DELTA, synth_small, config).phase2_steps[0]

        def three_searches(model, protected, nonprotected, delta, objective, *args):
            pairs = ((protected, protected), (nonprotected, nonprotected),
                     (nonprotected, nonprotected + delta))
            return [(refs, queries, rl.batch_explain(model, queries, objective, *args,
                                                     cost_reference=refs))
                    for refs, queries in pairs]

        monkeypatch.setattr(audit, "_search_conditions", three_searches)
        separate = phase2_fit(baseline_small, self.DELTA, synth_small, config)
        assert_steps_close(merged, separate.phase2_steps[0])

        slices = synth_small.group_slices(baseline_small, split="train")
        pr = synth_small.features[slices["protected-neg"].indices]
        np_ = synth_small.features[slices["nonprotected-neg"].indices]
        search = dict(objective=config.objective, dataset=synth_small,
                      initializer=config.initializer, budget=config.budget)
        for got, want in (
                (merged.pr_clean_cost, rl.batch_explain(baseline_small, pr, **search)),
                (merged.np_clean_cost, rl.batch_explain(baseline_small, np_, **search)),
                (merged.np_delta_cost, rl.batch_explain(baseline_small, np_ + self.DELTA,
                                                        cost_reference=np_, **search))):
            assert got == pytest.approx(want.mean_cost, rel=1e-9)

    def test_one_search_per_evaluation(self, synth_small, baseline_small, monkeypatch):
        calls = []
        search = explainers._search_many

        def counted(*args, **kwargs):
            calls.append(kwargs.get("segments"))
            return search(*args, **kwargs)

        monkeypatch.setattr(explainers, "_search_many", counted)
        art = phase2_fit(baseline_small, self.DELTA, synth_small, mini_phase2(steps=1))
        assert len(calls) == len(art.phase2_steps) == 2
        n_pr, n_np, n_np2 = calls[0]
        assert n_np == n_np2 and 0 < n_pr <= 12 and 0 < n_np <= 12

    def test_zero_delta_differentiates_each_condition(self, monkeypatch):
        ds = rl.make_synthetic(40, seed=3)
        phase1, config = mini_phase1(steps=0), mini_phase2(steps=1)
        calls = []
        hypergradient = adversary.batch_hypergradient

        def counted(*args):
            calls.append(args)
            return hypergradient(*args)

        monkeypatch.setattr(adversary, "batch_hypergradient", counted)
        art = adversary.run_attack(ds, phase1, config)
        assert not art.delta.any() and len(art.phase2_steps) == 2
        assert len(calls) == 3        # one per condition, for the one step
        net, records = reference_phase2(phase1_fit(ds, phase1).model, art.delta, ds, config)
        assert [step_record(s) for s in art.phase2_steps] == records
        assert art.model.flatten().tobytes() == net.flatten().tobytes()

    @pytest.mark.parametrize("empty", ["protected", "nonprotected"])
    def test_empty_condition_step(self, synth_small, baseline_small, empty):
        everyone = np.full(synth_small.n, empty == "nonprotected")
        ds = dataclasses.replace(synth_small, protected=everyone)
        art = phase2_fit(baseline_small, self.DELTA, ds, mini_phase2(steps=1))
        for step in art.phase2_steps:
            assert math.isnan(step.disparity) and not step.constraint_ok
            if empty == "protected":
                assert math.isnan(step.pr_clean_cost) and math.isfinite(step.np_clean_cost)
            else:
                assert math.isnan(step.np_clean_cost) and math.isnan(step.np_delta_cost)
                assert math.isfinite(step.pr_clean_cost)


class TestArtifactSerialization:
    def test_round_trip(self, tmp_path, synth_small, baseline_small):
        art = phase2_fit(baseline_small, np.array([0.05, -0.02]), synth_small,
                         mini_phase2(steps=1))
        art.phase1_loss_trace = np.array([1.0, 0.5])
        art.phase1_delta_l1_trace = np.array([0.0, 0.1])
        paths = save_artifact(art, tmp_path / "art")
        again = load_artifact(tmp_path / "art")
        assert again.model.flatten().tobytes() == art.model.flatten().tobytes()
        assert np.array_equal(again.delta, art.delta)
        assert again.constraint_satisfied == art.constraint_satisfied
        assert len(again.phase2_steps) == len(art.phase2_steps)
        assert set(paths) == {"model", "delta", "telemetry"}

    def test_telemetry_sections(self, tmp_path, synth_small, baseline_small):
        import json
        art = phase2_fit(baseline_small, np.zeros(2), synth_small, mini_phase2(steps=1))
        art.phase1_loss_trace = np.array([1.0])
        art.phase1_delta_l1_trace = np.array([0.0])
        save_artifact(art, tmp_path / "art")
        blob = json.loads((tmp_path / "art" / "telemetry.json").read_text())
        assert set(blob) == {"phase1", "phase2"}

    def test_reads_telemetry_without_hypergradient_counts(self, tmp_path, synth_small,
                                                          baseline_small):
        art = phase2_fit(baseline_small, np.zeros(2), synth_small, mini_phase2(steps=0))
        save_artifact(art, tmp_path / "art")
        path = tmp_path / "art" / "telemetry.json"
        blob = json.loads(path.read_text())
        for step in blob["phase2"]["steps"]:
            for key in [k for k in step if k.startswith("hypergrad_")]:
                del step[key]
        path.write_text(json.dumps(blob))
        again = load_artifact(tmp_path / "art")
        assert again.phase2_steps[0].hypergrad_skipped == 0
        assert again.phase2_steps[0].not_found == art.phase2_steps[0].not_found
