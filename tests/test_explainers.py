import hashlib

import numpy as np
import pytest

import recourselab as rl
from recourselab import explainers
from recourselab.explainers import (
    OBJECTIVE_KINDS, CfObjective, ExplainError, Initializer, SearchBudget,
    _initial_candidates, _objective_grads, _prototype_pool, batch_explain,
    dice_loss, dist_prototype, dist_sparse, dist_wachter, find_counterfactual,
    nearest_predicted_positive, results_to_csv, sensitivity_probe,
)

from conftest import negative_test_rows


class TestDistances:
    def test_wachter_zero_for_identical(self):
        assert dist_wachter([1, 2], [1, 2], [1, 1]) == 0.0

    def test_wachter_hand_value(self):
        assert dist_wachter([0, 0], [1, 2], [1, 2]) == pytest.approx(2.0)

    def test_wachter_ratio_invariance(self):
        base = dist_wachter([0.0, 0.0], [1.0, 2.0], [1.0, 2.0])
        scaled = dist_wachter([0.0, 0.0], [3.0, 2.0], [3.0, 2.0])
        assert base == pytest.approx(scaled)

    def test_wachter_length_mismatch(self):
        with pytest.raises(ValueError):
            dist_wachter([0, 0], [1], [1, 1])

    def test_sparse_hand_value(self):
        assert dist_sparse([0, 0], [0, 0]) == 0.0
        assert dist_sparse([0, 0], [1, 2]) == pytest.approx(8.0)

    def test_sparse_monotone_in_single_coordinate(self):
        vals = [dist_sparse([0.0], [t]) for t in (0.1, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals)
        assert dist_sparse([0.0], [2.0]) == pytest.approx(2 + 4)

    def test_prototype_hand_values(self):
        assert dist_prototype([0.0], [0.0], [0.0]) == 0.0
        assert dist_prototype([0.0], [1.0], [1.0], beta=1.0) == pytest.approx(2.0)

    def test_prototype_increases_with_proto_distance(self):
        near = dist_prototype([0.0], [1.0], [1.0])
        far = dist_prototype([0.0], [1.0], [3.0])
        assert far > near


class TestDiceLoss:
    def _net(self):
        net = rl.MlpClassifier([1, 1], seed=0)
        net.set_flat(np.array([1.0, 0.0]))  # logit(x) = x
        return net

    def test_zero_logit_contributes_unit_hinge(self):
        net = self._net()
        loss = dice_loss(net, [0.0], [[0.0]], [1.0], lam1=0.0 + 1e-12, lam2=1.0)
        assert loss == pytest.approx(1.0, abs=1e-9)

    def test_single_candidate_no_diversity(self):
        net = self._net()
        # k=1: hinge + lam1 * d_W, no diversity term
        loss = dice_loss(net, [0.0], [[2.0]], [1.0], lam1=10.0, lam2=1.0)
        assert loss == pytest.approx(max(0.0, 1 - 2.0) + 10.0 * 2.0)

    def test_identical_pair_diversity_vanishes(self):
        net = self._net()
        c = [[0.5], [0.5]]
        loss = dice_loss(net, [0.0], c, [1.0], lam1=10.0, lam2=1.0)
        hinge = max(0.0, 1 - 0.5)
        assert loss == pytest.approx(2 * hinge + 10.0 * 0.5)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            dice_loss(self._net(), [0.0], np.empty((0, 1)), [1.0], 1.0, 1.0)


class TestNearestPositive:
    def test_brute_force_match(self, synth_small, baseline_small):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(5, 2))
        protos = nearest_predicted_positive(baseline_small, synth_small, pts)
        tr = synth_small.train_features
        pos = tr[baseline_small.forward(tr) > 0.5]
        for p, proto in zip(pts, protos):
            d = ((pos - p) ** 2).sum(axis=1)
            assert np.allclose(proto, pos[np.argmin(d)])


class TestFindCounterfactual:
    def test_already_positive_returns_query(self, synth_small, baseline_small):
        pos_rows = [i for i in synth_small.test_idx
                    if baseline_small.forward(synth_small.features[i]) > 0.5]
        x = synth_small.features[pos_rows[0]]
        res = find_counterfactual(baseline_small, x, CfObjective("wachter"), synth_small)
        assert res.valid and res.query_was_valid
        assert np.array_equal(res.x_cf, x)
        assert res.cost == 0.0 and res.iterations == 0

    def test_negative_query_gets_valid_counterfactual(self, synth_small, baseline_small):
        rows = negative_test_rows(synth_small, baseline_small)
        x = synth_small.features[rows[0]]
        res = find_counterfactual(baseline_small, x, CfObjective("wachter"), synth_small)
        assert res.valid
        assert baseline_small.forward(res.x_cf) > 0.5
        assert res.cost > 0.0

    def test_boundary_proximity_steep_logistic(self):
        # logistic in one standardized feature with the decision point at 0.4
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(40, 1))
        ds = rl.data._finalize(raw, (raw[:, 0] > 0).astype(int),
                               raw[:, 0] > 0, ("x",), seed=0)
        net = rl.MlpClassifier([1, 1], seed=0)
        net.set_flat(np.array([100.0, -40.0]))
        x = np.array([0.32])
        res = find_counterfactual(net, x, CfObjective("wachter"), ds)
        assert res.valid
        assert abs(res.x_cf[0] - 0.40) < 0.1

    def test_not_found_with_fallback_on_flat_model(self, synth_small):
        net = rl.MlpClassifier([2, 4, 1], seed=0)
        net.set_flat(np.zeros(net.param_count))  # f == 0.5 everywhere, gradient 0
        budget = SearchBudget(steps=40, stall_window=10)
        res = find_counterfactual(net, synth_small.features[0],
                                  CfObjective("wachter"), synth_small, budget=budget)
        assert not res.found and not res.valid
        assert res.x_cf is None
        assert np.isnan(res.cost)
        assert res.optimizer == "sgd-momentum-fallback"
        assert len(res.lam_attempts) == budget.max_doublings + 1

    def test_lambda_escalation_monotone_doubling(self, synth_small):
        net = rl.MlpClassifier([2, 4, 1], seed=0)
        net.set_flat(np.zeros(net.param_count))
        budget = SearchBudget(steps=20, stall_window=5, max_doublings=6)
        res = find_counterfactual(net, synth_small.features[0],
                                  CfObjective("wachter"), synth_small, budget=budget)
        attempts = res.lam_attempts
        assert list(attempts) == [2.0 ** j for j in range(7)]
        assert len(set(attempts)) == len(attempts)

    def test_masked_features_untouched(self, synth_small, baseline_small):
        rows = negative_test_rows(synth_small, baseline_small)
        x = synth_small.features[rows[0]]
        obj = CfObjective("wachter", feature_mask=(True, False))
        res = find_counterfactual(baseline_small, x, obj, synth_small)
        if res.found:
            assert res.x_cf[1] == x[1]

    def test_model_not_mutated(self, synth_small, baseline_small):
        rows = negative_test_rows(synth_small, baseline_small)
        before = hashlib.sha256(baseline_small.flatten().tobytes()).hexdigest()
        find_counterfactual(baseline_small, synth_small.features[rows[0]],
                            CfObjective("prototypes"), synth_small)
        after = hashlib.sha256(baseline_small.flatten().tobytes()).hexdigest()
        assert before == after

    def test_objective_trace_descends(self, synth_small, baseline_small):
        rows = negative_test_rows(synth_small, baseline_small)
        res = find_counterfactual(baseline_small, synth_small.features[rows[0]],
                                  CfObjective("wachter"), synth_small, record_trace=True)
        trace = res.objective_trace
        assert trace is not None
        assert trace[-1] <= trace[0] + 1e-9

    def test_dice_selects_closest_valid(self, synth_small, baseline_small):
        rows = negative_test_rows(synth_small, baseline_small)
        x = synth_small.features[rows[0]]
        res = find_counterfactual(baseline_small, x, CfObjective("dice", k=4),
                                  synth_small, Initializer("random-uniform", seed=2))
        assert res.valid
        assert res.candidates.shape == (4, 2)
        valid = baseline_small.forward(res.candidates) > 0.5
        l1 = np.abs(res.candidates - x).sum(axis=1)
        l1[~valid] = np.inf
        assert res.candidate_index == int(np.argmin(l1))
        assert np.array_equal(res.x_cf, res.candidates[res.candidate_index])

    def test_wrong_dimension_rejected(self, synth_small, baseline_small):
        with pytest.raises(ExplainError):
            find_counterfactual(baseline_small, np.zeros(3), CfObjective("wachter"),
                                synth_small)


class TestObjectiveKernel:
    """`_objective_grads` checked against finite differences and the scalar
    distance functions, at candidates away from every kink."""

    LAMS = np.array([0.5, 2.0, 8.0, 32.0])
    MASKS = [None, (True, False)]

    def _batch(self, kind, dataset, model):
        k = 3 if kind == "dice" else 1
        rng = np.random.default_rng(11)
        queries = dataset.features[negative_test_rows(dataset, model)[:len(self.LAMS)]]
        C = queries[:, None, :] + rng.uniform(0.2, 1.0, size=(len(queries), k, 2)) \
            * rng.choice([-1.0, 1.0], size=(len(queries), k, 2))
        # away from the l1 kinks (|c - x| and pairwise |c_a - c_b|) and the hinge
        assert np.abs(C - queries[:, None, :]).min() > 0.1
        if kind == "dice":
            pairs = np.abs(C[:, :, None, :] - C[:, None, :, :])
            assert pairs[:, ~np.eye(k, dtype=bool)].min() > 1e-3
            assert np.abs(model.logits(C.reshape(-1, 2)) - 1.0).min() > 1e-3
        return queries, C

    def _kernel(self, kind, dataset, model, queries, C, lam, mask=None, with_value=True):
        obj = CfObjective(kind, feature_mask=mask)
        pool = _prototype_pool(model, dataset)
        return _objective_grads(model, queries, C, lam, obj, dataset.mad, pool, with_value)

    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_gradient_matches_central_differences(self, kind, mask, synth_small,
                                                  baseline_small):
        queries, C = self._batch(kind, synth_small, baseline_small)
        grad, _, probs = self._kernel(kind, synth_small, baseline_small, queries, C,
                                      self.LAMS, mask)
        # the gradient-only path (a search step that is not tracing) skips
        # the value and changes no bit of the gradient
        lean_grad, lean_value, lean_probs = self._kernel(
            kind, synth_small, baseline_small, queries, C, self.LAMS, mask, with_value=False)
        assert lean_value is None
        assert lean_grad.tobytes() == grad.tobytes()
        assert lean_probs.tobytes() == probs.tobytes()
        obj = CfObjective(kind, feature_mask=mask)
        init = Initializer("random-uniform", seed=1) if kind == "dice" else Initializer()
        traced, plain = (find_counterfactual(baseline_small, queries[0], obj, synth_small,
                                             init, SearchBudget(steps=60), record_trace=trace)
                         for trace in (True, False))
        assert traced.objective_trace is not None and plain.objective_trace is None
        assert traced.x_cf.tobytes() == plain.x_cf.tobytes()
        assert (traced.iterations, traced.lam_attempts, traced.final_lam) == \
            (plain.iterations, plain.lam_attempts, plain.final_lam)
        mutable = np.ones(2, bool) if mask is None else np.array(mask)
        h = 1e-6
        for slot in range(C.shape[1]):
            for j in np.flatnonzero(mutable):
                up, down = C.copy(), C.copy()
                up[:, slot, j] += h
                down[:, slot, j] -= h
                _, v_up, _ = self._kernel(kind, synth_small, baseline_small, queries,
                                          up, self.LAMS, mask)
                _, v_down, _ = self._kernel(kind, synth_small, baseline_small, queries,
                                            down, self.LAMS, mask)
                fd = (v_up - v_down) / (2 * h)
                np.testing.assert_allclose(grad[:, slot, j], fd, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_values_match_distance_functions(self, kind, synth_small, baseline_small):
        queries, C = self._batch(kind, synth_small, baseline_small)
        _, value, _ = self._kernel(kind, synth_small, baseline_small, queries, C, self.LAMS)
        mad = synth_small.mad
        for i, (x, lam) in enumerate(zip(queries, self.LAMS)):
            c = C[i, 0]
            push = lam * (baseline_small.forward(c) - 1.0) ** 2
            if kind == "wachter":
                expected = push + dist_wachter(x, c, mad)
            elif kind == "sparse-wachter":
                expected = push + dist_sparse(x, c)
            elif kind == "prototypes":
                proto = nearest_predicted_positive(baseline_small, synth_small, c)
                expected = push + dist_prototype(x, c, proto, beta=1.0)
            else:
                expected = dice_loss(baseline_small, x, C[i], mad, lam1=lam, lam2=1.0)
            assert value[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_per_row_lambda_equals_scalar_calls(self, kind, synth_small, baseline_small):
        queries, C = self._batch(kind, synth_small, baseline_small)
        out = self._kernel(kind, synth_small, baseline_small, queries, C, self.LAMS)
        for i, lam in enumerate(self.LAMS):
            ref = self._kernel(kind, synth_small, baseline_small, queries, C, float(lam))
            for got, want in zip(out, ref):
                assert got[i].tobytes() == want[i].tobytes()


def _outcome(r):
    return (r.found, r.valid, r.lam_attempts, r.iterations, r.final_lam, r.optimizer,
            r.candidate_index)


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert _outcome(a) == _outcome(b)
        if a.found:
            np.testing.assert_allclose(a.x_cf, b.x_cf, rtol=1e-9, atol=1e-12)
            assert a.cost == pytest.approx(b.cost, rel=1e-9, abs=1e-12)
        for ta, tb in ((a.objective_trace, b.objective_trace), (a.candidates, b.candidates)):
            assert (ta is None) == (tb is None)
            if ta is not None:
                np.testing.assert_allclose(ta, tb, rtol=1e-9, atol=1e-12)


def _sequential(monkeypatch, search, *args, **kwargs):
    """`search` with one λ level per attempt: the reference schedule."""
    with monkeypatch.context() as m:
        m.setattr(explainers, "SEARCH_ROWS", 1)
        return search(*args, **kwargs)


class TestSpeculativeEscalation:
    """Running the next λ levels as extra rows gives each query the outcome of
    the sequential schedule, up to rounding from the changed batch."""

    BUDGET = SearchBudget(steps=60)

    @pytest.mark.parametrize("init", ["origin", "random-uniform", "gaussian-jitter"])
    @pytest.mark.parametrize("mask", [None, (True, False)])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_matches_sequential_schedule(self, kind, mask, init, monkeypatch,
                                         synth_small, baseline_small):
        X = synth_small.features[negative_test_rows(synth_small, baseline_small)[:8]]
        args = (baseline_small, X, CfObjective(kind, feature_mask=mask), synth_small,
                Initializer(init, seed=1), self.BUDGET)
        got = batch_explain(*args).results
        want = _sequential(monkeypatch, batch_explain, *args).results
        assert max(len(r.lam_attempts) for r in want) > 1
        _assert_same_results(got, want)

    def test_schedule_exhaustion(self, monkeypatch, synth_small, baseline_small):
        X = synth_small.features[negative_test_rows(synth_small, baseline_small)[:8]]
        args = (baseline_small, X, CfObjective("wachter"), synth_small,
                Initializer(), self.BUDGET)
        got = batch_explain(*args).results
        _assert_same_results(got, _sequential(monkeypatch, batch_explain, *args).results)
        exhausted = [r for r in got if not r.found]
        assert exhausted
        assert all(len(r.lam_attempts) == self.BUDGET.max_doublings + 1 for r in exhausted)

    def test_flat_model_fallback(self, monkeypatch, synth_small):
        net = rl.MlpClassifier([2, 4, 1], seed=0)
        net.set_flat(np.zeros(net.param_count))
        budget = SearchBudget(steps=40, stall_window=10, max_doublings=6)
        args = (net, synth_small.features[:3], CfObjective("wachter"), synth_small,
                Initializer(), budget)
        got = batch_explain(*args).results
        _assert_same_results(got, _sequential(monkeypatch, batch_explain, *args).results)
        for r in got:
            assert not r.found and r.optimizer == "sgd-momentum-fallback"
            assert r.iterations == 2 * budget.steps * (budget.max_doublings + 1)

    def test_dice_partial_acceptance(self, monkeypatch, synth_small, baseline_small):
        # a descent too short to move: candidates stay at their uniform starts,
        # so queries end the schedule with some but not all candidates valid
        budget = SearchBudget(steps=2, lr=1e-6, lam1_floor=1e-2)
        X = synth_small.features[negative_test_rows(synth_small, baseline_small)[:8]]
        args = (baseline_small, X, CfObjective("dice", k=4), synth_small,
                Initializer("random-uniform", seed=3), budget)
        got = batch_explain(*args).results
        _assert_same_results(got, _sequential(monkeypatch, batch_explain, *args).results)
        partial = [r for r in got if r.found and len(r.lam_attempts) == 4
                   and not (baseline_small.forward(r.candidates) > 0.5).all()]
        assert partial

    def test_record_trace(self, monkeypatch, synth_small, baseline_small):
        x = synth_small.features[negative_test_rows(synth_small, baseline_small)[0]]
        args = (baseline_small, x, CfObjective("wachter"), synth_small, Initializer(),
                self.BUDGET)
        got = find_counterfactual(*args, record_trace=True)
        want = _sequential(monkeypatch, find_counterfactual, *args, record_trace=True)
        assert len(want.lam_attempts) > 1
        assert got.objective_trace.shape == (self.BUDGET.steps + 1,)
        _assert_same_results([got], [want])

    def test_attempt_rows_follow_their_own_lambda(self):
        # logistic net: the query at -800 sits where the sigmoid underflows,
        # so its gradient is exactly zero and its rows take the fallback
        net = rl.MlpClassifier([1, 1], seed=0)
        net.set_flat(np.array([1.0, 0.0]))
        queries = np.array([[-800.0], [0.1], [-800.0], [0.1]])
        lams = np.array([1.0, 2.0, 4.0, 8.0])
        budget = SearchBudget(steps=30, stall_window=10)
        args = (CfObjective("wachter"), np.ones(1), np.ones(1, bool), budget, None, True)
        out = explainers._run_attempt(net, queries, queries[:, None, :], lams, *args)
        assert list(out.fallback) == [True, False, True, False]
        for r in range(len(lams)):
            one = explainers._run_attempt(net, queries[r:r + 1], queries[r:r + 1, None, :],
                                          lams[r:r + 1], *args)
            assert out.steps_used[r] == one.steps_used[0]
            np.testing.assert_allclose(out.candidates[r], one.candidates[0], rtol=1e-12)
            np.testing.assert_allclose(out.traces[r], one.traces[0], rtol=1e-12)

    def test_one_round_of_kernel_calls_for_single_query(self, monkeypatch, synth_small,
                                                         baseline_small):
        x = synth_small.features[negative_test_rows(synth_small, baseline_small)[0]]
        calls = []

        def counting(*args):
            calls.append(args[2].shape[0])
            return _objective_grads(*args)

        monkeypatch.setattr(explainers, "_objective_grads", counting)
        args = (baseline_small, x, CfObjective("wachter"), synth_small, Initializer(),
                self.BUDGET)
        want = _sequential(monkeypatch, find_counterfactual, *args)
        assert len(want.lam_attempts) > 2 and want.optimizer == "adam"
        assert len(calls) == len(want.lam_attempts) * (self.BUDGET.steps + 1)
        calls.clear()
        find_counterfactual(*args)
        assert len(calls) <= self.BUDGET.steps + 1


@pytest.mark.parametrize("origin_valid", [False, True])
def test_empty_dice_schedule_is_explain_error(origin_valid, monkeypatch, synth_small,
                                              baseline_small):
    # lam1 below the floor leaves no escalation level: a rejected query used
    # to raise KeyError and an accepted one IndexError
    accepted = [i for i in synth_small.test_idx
                if baseline_small.forward(synth_small.features[i]) > 0.5]
    row = accepted[0] if origin_valid else negative_test_rows(synth_small, baseline_small)[0]

    def no_search(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(explainers, "_objective_grads", no_search)
    with pytest.raises(ExplainError, match="lam1.*lam1_floor"):
        find_counterfactual(baseline_small, synth_small.features[row],
                            CfObjective("dice", lam1=1e-4), synth_small)


class TestValidityContract:
    def test_all_valid_results_recheck(self, synth_small, baseline_small):
        rows = negative_test_rows(synth_small, baseline_small)[:8]
        for kind in ("wachter", "sparse-wachter", "prototypes", "dice"):
            init = (Initializer("random-uniform", seed=1) if kind == "dice"
                    else Initializer())
            batch = batch_explain(baseline_small, synth_small.features[rows],
                                  CfObjective(kind), synth_small, init)
            for r in batch.results:
                if r.valid:
                    assert baseline_small.forward(r.x_cf) > 0.5


class TestBatchExplain:
    def test_empty_points(self, synth_small, baseline_small):
        out = batch_explain(baseline_small, np.empty((0, 2)), CfObjective("wachter"),
                            synth_small)
        assert out.results == [] and np.isnan(out.mean_cost) and out.not_found == 0

    def test_all_positive_mean_zero(self, synth_small, baseline_small):
        pos = [i for i in synth_small.test_idx
               if baseline_small.forward(synth_small.features[i]) > 0.5][:5]
        out = batch_explain(baseline_small, synth_small.features[pos],
                            CfObjective("wachter"), synth_small)
        assert out.mean_cost == 0.0

    def test_mean_is_arithmetic_mean(self, synth_small, baseline_small):
        rows = negative_test_rows(synth_small, baseline_small)[:6]
        out = batch_explain(baseline_small, synth_small.features[rows],
                            CfObjective("wachter"), synth_small)
        costs = [r.cost for r in out.results if r.valid]
        assert out.mean_cost == pytest.approx(np.mean(costs))

    def test_perturbed_cost_reference(self, synth_small, baseline_small):
        rows = negative_test_rows(synth_small, baseline_small)[:4]
        X = synth_small.features[rows]
        delta = np.array([0.3, -0.1])
        out = batch_explain(baseline_small, X + delta, CfObjective("wachter"),
                            synth_small, cost_reference=X)
        for x, r in zip(X, out.results):
            if r.valid:
                assert r.cost == pytest.approx(dist_wachter(x, r.x_cf, synth_small.mad))

    def test_csv_export(self, tmp_path, synth_small, baseline_small):
        rows = negative_test_rows(synth_small, baseline_small)[:3]
        out = batch_explain(baseline_small, synth_small.features[rows],
                            CfObjective("wachter"), synth_small)
        path = tmp_path / "results.csv"
        results_to_csv(out.results, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,valid,cost,iterations,lam,initializer,optimizer"
        assert len(lines) == 4


class TestInitializers:
    def test_origin_starts_at_query(self, synth_small, baseline_small):
        q = synth_small.features[:3]
        starts = _initial_candidates(Initializer("origin"), q, 1, baseline_small,
                                     synth_small, np.ones(2, bool))
        assert np.array_equal(starts[:, 0, :], q)

    def test_random_uniform_within_train_bounds(self, synth_small, baseline_small):
        q = synth_small.features[:5]
        starts = _initial_candidates(Initializer("random-uniform", seed=4), q, 3,
                                     baseline_small, synth_small, np.ones(2, bool))
        lo, hi = synth_small.train_feature_bounds()
        assert (starts >= lo).all() and (starts <= hi).all()

    def test_positive_mean(self, synth_small, baseline_small):
        tr = synth_small.train_features
        mean = tr[baseline_small.forward(tr) > 0.5].mean(axis=0)
        starts = _initial_candidates(Initializer("positive-mean"), synth_small.features[:2],
                                     1, baseline_small, synth_small, np.ones(2, bool))
        assert np.allclose(starts[0, 0], mean)

    def test_gaussian_jitter_centered_on_query(self, synth_small, baseline_small):
        q = synth_small.features[:200 if synth_small.n >= 200 else synth_small.n]
        starts = _initial_candidates(Initializer("gaussian-jitter", seed=0), q, 1,
                                     baseline_small, synth_small, np.ones(2, bool))
        noise = starts[:, 0, :] - q
        assert abs(noise.mean()) < 0.2
        assert 0.7 < noise.std() < 1.3

    def test_masked_coordinates_start_at_query(self, synth_small, baseline_small):
        q = synth_small.features[:4]
        starts = _initial_candidates(Initializer("random-uniform", seed=4), q, 2,
                                     baseline_small, synth_small,
                                     np.array([True, False]))
        assert np.array_equal(starts[:, :, 1], np.repeat(q[:, 1][:, None], 2, axis=1))

    def test_deterministic_draws(self, synth_small, baseline_small):
        q = synth_small.features[:4]
        a = _initial_candidates(Initializer("random-uniform", seed=9), q, 2,
                                baseline_small, synth_small, np.ones(2, bool))
        b = _initial_candidates(Initializer("random-uniform", seed=9), q, 2,
                                baseline_small, synth_small, np.ones(2, bool))
        assert a.tobytes() == b.tobytes()


def test_sensitivity_probe(synth_small, baseline_small):
    rows = negative_test_rows(synth_small, baseline_small)
    x = synth_small.features[rows[0]]
    gap = sensitivity_probe(baseline_small, x, np.array([0.05, 0.0]),
                            CfObjective("wachter"), synth_small)
    assert np.isfinite(gap) and gap >= 0.0


def test_objective_validation():
    with pytest.raises(ValueError):
        CfObjective("nope")
    with pytest.raises(ValueError):
        CfObjective("dice", k=0)
    with pytest.raises(ValueError):
        Initializer("bad-init")
