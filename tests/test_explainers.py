import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import recourselab as rl
from recourselab import explainers
from recourselab.model import AdamState, FrozenNet, adam_step
from recourselab.explainers import (
    INITIALIZER_KINDS, LAM1_FLOOR, MAX_DOUBLINGS, OBJECTIVE_KINDS, SETTLE_STEP, CfObjective,
    CfResult, ExplainError, Initializer, SearchBudget,
    _initial_candidates, _Objective, _snap_to_query, batch_explain,
    dist_wachter, find_counterfactual, nearest_predicted_positive, results_to_csv,
    sensitivity_probe,
)

from conftest import csv_dataset, negative_test_rows


# Reference definitions of the objectives' distance and loss terms, written
# one point at a time and independently of the batched kernel
# `_Objective.grads`, whose gradient `TestObjectiveKernel` checks against
# central differences of `objective_value`.


def _on_net(model, spec, mad, mutable=None, pool=None) -> _Objective:
    """`spec` on `model` with the MAD, mask and prototypes pool given, for a
    model without a dataset."""
    mutable = np.ones(model.d, dtype=bool) if mutable is None else mutable
    return _Objective(spec, model, FrozenNet(model), mad, mutable, pool)


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


def objective_value(kind, model, dataset, x, candidates, lam, proto=None) -> float:
    """The search objective at one query's candidates, shape (k, d): the
    squared push plus a distance, or the dice loss.  `proto` holds the
    prototypes objective's nearest prototype fixed; None looks it up."""
    if kind == "dice":
        return dice_loss(model, x, candidates, dataset.mad, lam1=lam, lam2=1.0)
    c = candidates[0]
    push = lam * (model.forward(c) - 1.0) ** 2
    if kind == "wachter":
        return push + dist_wachter(x, c, dataset.mad)
    if kind == "sparse-wachter":
        return push + dist_sparse(x, c)
    if proto is None:
        proto = nearest_predicted_positive(model, dataset, c)
    return push + dist_prototype(x, c, proto, beta=1.0)


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

    def test_choice_equals_textbook_expansion(self):
        # The in-place |p|^2 - 2 p.q + |q|^2 keeps the textbook expression's
        # bits, so near ties (a row nudged in its last bits) and exact ties
        # (a row mirrored across a plane holding the points) resolve alike.
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n, m, d = rng.integers(1, 7, size=3)
            scale = 10.0 ** rng.uniform(-3, 3)
            points = scale * rng.standard_normal((n, d))
            pool = scale * rng.standard_normal((m, d))
            if rng.random() < 0.3:
                points[:, 0] = 0.0
            near = pool[np.argmin(((pool - points[0]) ** 2).sum(axis=1))]
            twin = near * (1.0 + rng.integers(-4, 5, size=d) * np.finfo(float).eps)
            mirror = near.copy()
            mirror[0] = -mirror[0]
            pool = np.vstack([pool, twin, mirror])
            pool_t = np.ascontiguousarray(pool.T)
            pool_sq = (pool ** 2).sum(axis=1)
            # each row's product as a batch of two or more rows computes it
            prod = (np.vstack([points, points]) @ pool_t)[:n]
            textbook = (points ** 2).sum(axis=1)[:, None] - 2.0 * prod + pool_sq
            got = explainers._nearest_prototypes(points, (pool, pool_t, pool_sq))
            assert np.array_equal(got, pool[np.argmin(textbook, axis=1)])


class TestSnapToQuery:
    BUDGET = SearchBudget(lr=0.01)

    @staticmethod
    def _net(w0, w1):
        net = rl.MlpClassifier([2, 1], seed=0)
        net.set_flat(np.array([w0, w1, 0.0]))  # logit(x) = w0 x0 + w1 x1
        return net

    def _snap(self, net, query, C):
        C = np.asarray(C, dtype=float)
        n, k, d = C.shape
        probs = net.forward(C.reshape(n * k, d)).reshape(n, k)
        queries = np.asarray(query, dtype=float)[None, :].repeat(n, axis=0)
        loss = _on_net(net, CfObjective("wachter"), np.ones(d))
        return _snap_to_query(loss, queries, C.copy(), probs, self.BUDGET)

    def test_coordinates_within_lr_land_on_query(self):
        net = self._net(0.0, 10.0)                 # accepts x1 > 0
        query = [1.0, -2.0]
        C = [[[1.0 + 0.004, 0.5]], [[1.0 - 0.008, 0.4]], [[1.02, -2.0 + 2.5]]]
        snapped, probs = self._snap(net, query, C)
        assert snapped[0, 0].tolist() == [1.0, 0.5]
        assert snapped[1, 0].tolist() == [1.0, 0.4]
        assert snapped[2, 0].tolist() == [1.02, 0.5]
        assert np.array_equal(probs, net.forward(snapped[:, 0]).reshape(3, 1))

    def test_snap_the_model_rejects_is_reverted(self):
        net = self._net(1000.0, 0.0)               # accepts x0 > 0
        query = [0.0, 0.0]
        # two dice slots: the first stays valid only off the query, the
        # second is valid either way
        C = np.array([[[0.005, 0.3], [0.5, 0.002]]])
        raw_probs = net.forward(C[0])
        snapped, probs = self._snap(net, query, C)
        assert snapped[0, 0].tobytes() == C[0, 0].tobytes()
        assert probs[0, 0] == raw_probs[0] > 0.5
        assert snapped[0, 1].tolist() == [0.5, 0.0]
        assert probs[0, 1] > 0.5

    def test_rejected_raw_point_takes_the_snap(self):
        net = self._net(1000.0, 0.0)
        query = [0.0, 0.0]
        C = [[[-0.005, 0.3]]]                      # rejected before and after
        snapped, probs = self._snap(net, query, C)
        assert snapped[0, 0].tolist() == [0.0, 0.3]
        assert probs[0, 0] == net.forward(np.array([0.0, 0.3])) <= 0.5


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
        assert res.iterations == SearchBudget().steps * len(res.lam_attempts)

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

    def test_not_found_on_flat_model(self, synth_small):
        net = rl.MlpClassifier([2, 4, 1], seed=0)
        net.set_flat(np.zeros(net.param_count))  # f == 0.5 everywhere, gradient 0
        budget = SearchBudget(steps=40)
        res = find_counterfactual(net, synth_small.features[0],
                                  CfObjective("wachter"), synth_small, budget=budget)
        assert not res.found and not res.valid
        assert res.x_cf is None
        assert np.isnan(res.cost)
        assert res.optimizer == "adam"
        assert len(res.lam_attempts) == MAX_DOUBLINGS + 1
        assert res.iterations == budget.steps * len(res.lam_attempts)

    def test_lambda_escalation_monotone_doubling(self, synth_small):
        net = rl.MlpClassifier([2, 4, 1], seed=0)
        net.set_flat(np.zeros(net.param_count))
        budget = SearchBudget(steps=20)
        res = find_counterfactual(net, synth_small.features[0],
                                  CfObjective("wachter"), synth_small, budget=budget)
        attempts = res.lam_attempts
        assert MAX_DOUBLINGS == 20
        assert list(attempts) == [2.0 ** j for j in range(21)]
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

    @pytest.mark.parametrize("kind", ["wachter", "sparse-wachter", "prototypes"])
    def test_objective_descends(self, kind, synth_small, baseline_small):
        x = synth_small.features[negative_test_rows(synth_small, baseline_small)[0]]
        res = find_counterfactual(baseline_small, x, CfObjective(kind), synth_small)
        assert res.found and len(res.lam_attempts) > 1

        def objective(c):
            return objective_value(kind, baseline_small, synth_small, x, c[None, :],
                                   res.final_lam)

        assert objective(res.x_cf) <= objective(x) + 1e-9

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
        for d in (1, 3):
            with pytest.raises(ExplainError,
                               match=rf"one point of 2 features, got shape \({d},\)"):
                find_counterfactual(baseline_small, np.zeros(d), CfObjective("wachter"),
                                    synth_small)

    def test_several_points_rejected(self, synth_small, baseline_small):
        with pytest.raises(ExplainError, match="one point of 2 features"):
            find_counterfactual(baseline_small, synth_small.features[:2],
                                CfObjective("wachter"), synth_small)


class TestObjectiveKernel:
    """`_Objective.grads` checked against central differences of the
    test-side `objective_value`, at candidates away from every kink."""

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

    def _kernel(self, kind, dataset, model, queries, C, lam, mask=None):
        obj = CfObjective(kind, feature_mask=mask)
        return _Objective.of(model, obj, dataset).grads(queries, C, lam)

    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_gradient_matches_central_differences(self, kind, mask, synth_small,
                                                  baseline_small):
        queries, C = self._batch(kind, synth_small, baseline_small)
        grad = self._kernel(kind, synth_small, baseline_small, queries, C, self.LAMS, mask)
        # the kernel differentiates with each candidate's nearest prototype
        # held fixed
        protos = nearest_predicted_positive(baseline_small, synth_small, C[:, 0])
        mutable = np.ones(2, bool) if mask is None else np.array(mask)
        h = 1e-6
        for i, (x, lam) in enumerate(zip(queries, self.LAMS)):
            for slot in range(C.shape[1]):
                for j in np.flatnonzero(mutable):
                    up, down = C[i].copy(), C[i].copy()
                    up[slot, j] += h
                    down[slot, j] -= h
                    v_up, v_down = (objective_value(kind, baseline_small, synth_small, x,
                                                    c, lam, protos[i]) for c in (up, down))
                    fd = (v_up - v_down) / (2 * h)
                    assert grad[i, slot, j] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_per_row_lambda_equals_scalar_calls(self, kind, synth_small, baseline_small):
        queries, C = self._batch(kind, synth_small, baseline_small)
        out = self._kernel(kind, synth_small, baseline_small, queries, C, self.LAMS)
        for i, lam in enumerate(self.LAMS):
            ref = self._kernel(kind, synth_small, baseline_small, queries, C, float(lam))
            assert out[i].tobytes() == ref[i].tobytes()


def _assert_same_results(got, want):
    """Every `CfResult` field equal, the arrays and the cost to the byte."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(CfResult):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if f.name in ("x_cf", "candidates", "cost"):
                assert (x is None) == (y is None), f.name
                if x is not None:
                    assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), f.name
            else:
                assert x == y, f.name


def _kernel_rows(monkeypatch) -> list:
    """For each batched attempt (one per round) while the patch holds, the
    rows that reached `_Objective.grads` at each of its steps: its first
    entry is the round's row count."""
    attempts, inside = [], []
    run_attempt, grads = explainers._run_attempt, _Objective.grads

    def attempt(*a):
        inside.append([])
        try:
            return run_attempt(*a)
        finally:
            attempts.append(inside.pop())

    def counting(self, queries, C, lam):
        if inside:
            inside[-1].append(C.shape[0])
        return grads(self, queries, C, lam)

    monkeypatch.setattr(explainers, "_run_attempt", attempt)
    monkeypatch.setattr(_Objective, "grads", counting)
    return attempts


# The objectives whose origin-start rows settle at their query in these
# tests.  Dice gets no settle rule, and a prototypes row is pulled off its
# query toward its nearest positive prototype, so its margin is negative.
SETTLING_KINDS = ("wachter", "sparse-wachter")


def _assert_rows_dropped(attempts):
    """The settle rule fired: over the attempts `_kernel_rows` recorded, fewer
    rows reached the kernel after step `SETTLE_STEP` than at step 0 (none
    when an attempt dropped every row)."""
    first = sum(rows[0] for rows in attempts)
    after = sum(rows[SETTLE_STEP] for rows in attempts if len(rows) > SETTLE_STEP)
    assert after < first


def _reference_descent(loss, queries, starts, lam, budget, steps=None):
    """One attempt of each query's start (rows of `starts`, shape (n, k, d))
    at validity weight `lam` (one, or one per query): `steps` (by default
    `budget.steps`) Adam steps on `_Objective.grads` in the kernel's
    precision, frozen coordinates' gradients zeroed; the candidates then in
    float64, frozen coordinates exactly the starts'."""
    C = starts.astype(loss.dtype)
    Q = queries.astype(loss.dtype)
    lam = np.full(len(queries), lam, dtype=loss.dtype)
    frozen = ~loss.mutable
    state = AdamState(lr=budget.lr)
    for _ in range(budget.steps if steps is None else steps):
        grad = loss.grads(Q, C, lam)
        grad[:, :, frozen] = 0.0
        C = adam_step(state, C, grad)
    C = C.astype(float)
    C[:, :, frozen] = starts[:, :, frozen]
    return C


def reference_search(model, points, objective, dataset, initializer=Initializer(),
                     budget=SearchBudget(), cost_reference=None, *, segments=None) -> list:
    """The escalation of Wachter et al. one λ level at a time, written apart
    from the search's scheduler and with no settle rule: every attempt runs
    its full budget.  What `batch_explain(...).results` should be, to the
    byte, wherever the settle rule drops only rows that fail.

    At each of the schedule's levels in order, every query not yet settled
    makes an attempt from its start (`_reference_descent`), then gets the
    model's float64 verdict and `_snap_to_query`.  A query settles when
    every candidate is valid or the levels run out; dice keeps its closest
    valid candidate (least l1 to the query), also from a partial set at the
    last level.  An origin start the model already accepts is its own
    counterfactual."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    refs = X if cost_reference is None else np.atleast_2d(np.asarray(cost_reference, dtype=float))
    loss = _search_objective(model, objective, dataset.mad, dataset.train_features)
    dice = objective.kind == "dice"
    k = objective.k if dice else 1
    schedule = explainers._lam_schedule(objective)
    starts = _initial_candidates(initializer, X, k, model, dataset, loss.mutable, segments)
    results = [None] * len(X)
    if initializer.kind == "origin":
        for i in np.flatnonzero(model.forward(X) > 0.5):
            results[i] = CfResult(X[i].copy(), True, dist_wachter(refs[i], X[i], dataset.mad),
                                  0, schedule[0], initializer.kind, "adam",
                                  query_was_valid=True)
    for attempts, lam in enumerate(schedule, start=1):
        live = [i for i, r in enumerate(results) if r is None]
        if not live:
            break
        C = _reference_descent(loss, X[live], starts[live], lam, budget)
        probs = model.forward(C.reshape(-1, X.shape[1])).reshape(len(live), k)
        C, probs = _snap_to_query(loss, X[live], C, probs, budget)
        for i, cands, valid in zip(live, C, probs > 0.5):
            if not (valid.all() or attempts == len(schedule)):
                continue
            run = dict(iterations=attempts * budget.steps, final_lam=lam,
                       initializer=initializer.kind, optimizer="adam",
                       lam_attempts=tuple(schedule[:attempts]))
            if not valid.any():
                results[i] = CfResult(None, False, float("nan"), **run)
                continue
            l1 = [np.abs(c - X[i]).sum() if v else np.inf for c, v in zip(cands, valid)]
            pick = int(np.argmin(l1))
            extra = dict(candidates=cands.copy(), candidate_index=pick) if dice else {}
            results[i] = CfResult(cands[pick].copy(), True,
                                  dist_wachter(refs[i], cands[pick], dataset.mad), **run, **extra)
    return results


class TestSpeculativeEscalation:
    """Running the next λ levels as extra rows, and dropping rows that settle
    at their query, gives each query the outcome of the sequential schedule
    (`reference_search`), to the byte.  With origin starts the settle rule
    fires in each comparison (`_assert_rows_dropped`)."""

    BUDGET = SearchBudget(steps=60)

    @pytest.mark.parametrize("init", ["origin", "random-uniform", "gaussian-jitter"])
    @pytest.mark.parametrize("mask", [None, (True, False)])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_matches_sequential_schedule(self, kind, mask, init, monkeypatch, synth_small,
                                         baseline_small):
        X = synth_small.features[negative_test_rows(synth_small, baseline_small)[:8]]
        args = (baseline_small, X, CfObjective(kind, feature_mask=mask), synth_small,
                Initializer(init, seed=1), self.BUDGET)
        want = reference_search(*args)
        attempts = _kernel_rows(monkeypatch)
        got = batch_explain(*args).results
        assert max(len(r.lam_attempts) for r in want) > 1
        _assert_same_results(got, want)
        if init == "origin" and kind in SETTLING_KINDS:
            _assert_rows_dropped(attempts)

    def test_schedule_exhaustion(self, monkeypatch, synth_small, baseline_small):
        X = synth_small.features[negative_test_rows(synth_small, baseline_small)[:8]]
        args = (baseline_small, X, CfObjective("wachter"), synth_small,
                Initializer(), self.BUDGET)
        want = reference_search(*args)
        attempts = _kernel_rows(monkeypatch)
        got = batch_explain(*args).results
        _assert_same_results(got, want)
        _assert_rows_dropped(attempts)
        exhausted = [r for r in got if not r.found]
        assert exhausted
        assert all(len(r.lam_attempts) == MAX_DOUBLINGS + 1 for r in exhausted)

    def test_flat_model_not_found(self, monkeypatch, synth_small):
        net = rl.MlpClassifier([2, 4, 1], seed=0)
        net.set_flat(np.zeros(net.param_count))
        budget = SearchBudget(steps=40)
        args = (net, synth_small.features[:3], CfObjective("wachter"), synth_small,
                Initializer(), budget)
        want = reference_search(*args)
        attempts = _kernel_rows(monkeypatch)
        got = batch_explain(*args).results
        _assert_same_results(got, want)
        _assert_rows_dropped(attempts)
        for r in got:
            assert not r.found and r.x_cf is None and r.optimizer == "adam"
            assert r.iterations == budget.steps * (MAX_DOUBLINGS + 1)

    def test_dice_partial_acceptance(self, synth_small, baseline_small):
        # a descent too short to move: candidates stay at their uniform starts,
        # so queries end the schedule with some but not all candidates valid
        # (lam1 1 down to the floor 1e-3: four levels)
        budget = SearchBudget(steps=2, lr=1e-6)
        X = synth_small.features[negative_test_rows(synth_small, baseline_small)[:8]]
        args = (baseline_small, X, CfObjective("dice", k=4, lam1=1.0), synth_small,
                Initializer("random-uniform", seed=3), budget)
        got = batch_explain(*args).results
        _assert_same_results(got, reference_search(*args))
        partial = [r for r in got if r.found and len(r.lam_attempts) == 4
                   and not (baseline_small.forward(r.candidates) > 0.5).all()]
        assert partial

    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_accepted_queries_are_their_own_counterfactuals(self, kind, monkeypatch,
                                                            synth_small, baseline_small):
        accepted = np.asarray(baseline_small.forward(synth_small.features)) > 0.5
        X = np.concatenate([synth_small.features[accepted][:2],
                            synth_small.features[~accepted][:3]])[[0, 2, 3, 1, 4]]
        args = (baseline_small, X, CfObjective(kind, k=2), synth_small, Initializer(),
                self.BUDGET)
        want = reference_search(*args)
        attempts = _kernel_rows(monkeypatch)
        got = batch_explain(*args).results
        _assert_same_results(got, want)
        if kind in SETTLING_KINDS:
            _assert_rows_dropped(attempts)
        assert [r.query_was_valid for r in got] == [True, False, False, True, False]

    def test_attempt_rows_follow_their_own_lambda(self):
        # logistic net: the query at -800 sits where the sigmoid underflows,
        # so its gradient is exactly zero and Adam leaves it at its start
        net = rl.MlpClassifier([1, 1], seed=0)
        net.set_flat(np.array([1.0, 0.0]))
        queries = np.array([[-800.0], [0.1], [-800.0], [0.1]])
        lams = np.array([1.0, 2.0, 4.0, 8.0])
        budget = SearchBudget(steps=30)
        loss = _on_net(net, CfObjective("wachter"), np.ones(1))
        cands, probs = explainers._run_attempt(loss, queries, queries[:, None, :], lams,
                                               budget)
        assert cands[[0, 2], 0, 0].tolist() == [-800.0, -800.0]
        assert (probs[[0, 2]] <= 0.5).all()
        for r in range(len(lams)):
            one, one_probs = explainers._run_attempt(
                loss, queries[r:r + 1], queries[r:r + 1, None, :], lams[r:r + 1], budget)
            assert cands[r].tobytes() == one[0].tobytes()
            assert probs[r].tobytes() == one_probs[0].tobytes()
        raw = np.random.default_rng(5).normal(size=(40, 1))
        ds = rl.data._finalize(raw, (raw[:, 0] > 0).astype(int), raw[:, 0] > 0, ("x",), seed=0)
        res = find_counterfactual(net, queries[0], CfObjective("wachter"), ds, budget=budget)
        assert not res.found and res.x_cf is None and res.optimizer == "adam"
        assert res.iterations == budget.steps * (MAX_DOUBLINGS + 1)

    def test_one_round_of_kernel_calls_for_single_query(self, monkeypatch, synth_small,
                                                         baseline_small):
        x = synth_small.features[negative_test_rows(synth_small, baseline_small)[0]]
        calls = []
        grads = _Objective.grads

        def counting(self, queries, C, lam):
            calls.append(C.shape[0])
            return grads(self, queries, C, lam)

        monkeypatch.setattr(_Objective, "grads", counting)
        args = (baseline_small, x, CfObjective("wachter"), synth_small, Initializer(),
                self.BUDGET)
        want = reference_search(*args)[0]
        assert len(want.lam_attempts) > 2 and want.optimizer == "adam"
        assert len(calls) == len(want.lam_attempts) * self.BUDGET.steps
        calls.clear()
        find_counterfactual(*args)
        assert len(calls) == self.BUDGET.steps


FULL_SCALE_LAYERS = [99, 200, 200, 200, 200, 1]


class TestRowTarget:
    """How many rows a speculative round aims for, and in which precision
    it descends, read from the layer sizes."""

    def test_reads_only_layer_sizes(self):
        a = rl.MlpClassifier([2, 32, 32, 1], seed=0)
        b = rl.MlpClassifier([2, 32, 32, 1], seed=5)
        b.set_flat(np.zeros(b.param_count))
        assert explainers._row_target(a) == explainers._row_target(b)
        assert explainers._search_dtype(a) == explainers._search_dtype(b) == np.float64

        class Shapes:
            weights = [np.empty((2, 32)), np.empty((32, 32)), np.empty((32, 1))]

        assert explainers._row_target(Shapes()) == explainers._row_target(a)
        assert explainers._search_dtype(Shapes()) == np.float64

    def test_full_scale_net_keeps_search_rows(self):
        net = rl.MlpClassifier(FULL_SCALE_LAYERS, seed=0)
        assert explainers._row_target(net) == explainers.SEARCH_ROWS
        assert explainers._search_dtype(net) == np.float32

    def test_desk_net(self):
        assert explainers._row_target(rl.MlpClassifier([2, 32, 32, 1], seed=0)) == 468

    @pytest.mark.parametrize("layers, dtype", [([2, 32, 32, 1], np.float64),
                                               (FULL_SCALE_LAYERS, np.float32)])
    def test_search_builds_one_kernel(self, monkeypatch, layers, dtype):
        built = []
        frozen_net = explainers.FrozenNet

        def recorded(net, precision):
            built.append(np.dtype(precision))
            return frozen_net(net, precision)

        monkeypatch.setattr(explainers, "FrozenNet", recorded)
        net = rl.MlpClassifier(layers, seed=0)
        ds = SimpleNamespace(d=net.d, mad=np.ones(net.d))
        find_counterfactual(net, np.zeros(net.d), CfObjective("wachter"), ds,
                            budget=SearchBudget(steps=1))
        assert built == [dtype]


@pytest.fixture(scope="module")
def desk_audit():
    """A desk baseline (32x32 net) and 80 of its negatives, an audit-sized
    batch: with 96 rows a round, each query would get one level per round."""
    ds = rl.make_synthetic(250, seed=7)
    net = rl.train_baseline(ds, steps=50, seed=1, hidden=(32, 32)).model
    rows = np.flatnonzero(np.asarray(net.forward(ds.features)) <= 0.5)[:80]
    return ds, net, ds.features[rows]


@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_wide_rounds_match_sequential_schedule(kind, monkeypatch, desk_audit):
    ds, net, X = desk_audit
    assert len(X) >= 76 and explainers.SEARCH_ROWS // len(X) == 1
    init = Initializer("random-uniform", seed=1) if kind == "dice" else Initializer()
    args = (net, X, CfObjective(kind), ds, init, SearchBudget(steps=100))
    want = reference_search(*args)
    attempts = _kernel_rows(monkeypatch)
    got = batch_explain(*args).results
    assert len(attempts) < max(len(r.lam_attempts) for r in want)
    _assert_same_results(got, want)
    if kind in SETTLING_KINDS:
        _assert_rows_dropped(attempts)


def test_late_escaper_matches_reference(monkeypatch, desk_audit):
    """Row 153 of the desk audit data, searched with sparse-wachter at 300
    steps an attempt as the explain-mix benchmark searches it, fails seven
    levels and leaves its query at the eighth only after step 10 (at step
    48): the search settles it where the reference does, although the
    settle rule drops rows of the same search."""
    ds, net, _ = desk_audit
    X = ds.features[[153, 170, 94, 236]]
    spec, budget = CfObjective("sparse-wachter"), SearchBudget(steps=300)
    want = reference_search(net, X, spec, ds, Initializer(), budget)
    attempts = _kernel_rows(monkeypatch)
    got = batch_explain(net, X, spec, ds, Initializer(), budget).results
    _assert_same_results(got, want)
    _assert_rows_dropped(attempts)
    assert len(want[0].lam_attempts) == 8
    loss = _search_objective(net, spec, ds.mad, ds.train_features)
    early = _reference_descent(loss, X[:1], X[:1, None], want[0].final_lam, budget, steps=10)
    assert np.abs(early - X[0]).max() <= 5 * budget.lr


PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

def _pinned(function: str):
    """`function()` of this module, run in a fresh interpreter with BLAS
    pinned to one thread, since BLAS reads its thread count once, at load:
    a threaded BLAS may split rows among its own threads, and then its bits
    could depend on how many rows a call carries (numpy 2.4.6's bundled
    OpenBLAS 0.3.31 with two threads moved none).  Returns its JSON result."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(p for p in (str(here), str(here.parent / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    code = f"import json, test_explainers as t; print(json.dumps(t.{function}()))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, **PINNED_BLAS, "PYTHONPATH": path}, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _search_objective(model, spec, mad, train_rows) -> _Objective:
    """`spec` on `model` as `_search_many` builds it, in the search's
    precision, from a dataset holding only the MAD and the train rows (the
    prototypes pool is those the model accepts)."""
    return _Objective.of(model, spec, SimpleNamespace(d=model.d, mad=mad, train_features=train_rows),
                         search=True)


def row_cut_mismatches() -> list:
    """Every place a batch of about 100 rows can be cut, on a desk-shaped and
    a 4x200 net, where the two halves' outputs differ in any byte from the
    whole batch's: `grad_input_full` for both `wrt` values,
    `_Objective.grads` for each objective (dice with k = 4 candidates a
    row), and `_nearest_prototypes`; in float64, and on the 4x200 net also
    in float32, with each objective built as a search builds it.  Run with
    BLAS pinned (`_pinned`)."""
    bad = []
    for layers, n in (([2, 32, 32, 1], 101), (FULL_SCALE_LAYERS, 98)):
        model = rl.MlpClassifier(layers, seed=3)
        d = model.d
        rng = np.random.default_rng(6)
        X = 2.0 * rng.normal(size=(n, d))
        mad = rng.uniform(0.5, 2.0, d)
        pool = rng.normal(size=(37, d))
        proto_pool = (pool, np.ascontiguousarray(pool.T), (pool ** 2).sum(axis=1))
        lam = 2.0 ** rng.integers(0, 12, n)
        Cs = {kind: X[:, None, :] + rng.normal(size=(n, 4 if kind == "dice" else 1, d))
              for kind in OBJECTIVE_KINDS}
        kernels = [("float64", {kind: _on_net(model, CfObjective(kind, k=C.shape[1]), mad,
                                              pool=proto_pool) for kind, C in Cs.items()})]
        if explainers._search_dtype(model) == np.float32:
            kernels.append(("float32", {kind: _search_objective(
                model, CfObjective(kind, k=C.shape[1]), mad, X) for kind, C in Cs.items()}))
        for precision, losses in kernels:
            dtype = losses["wachter"].dtype
            Xp, lam_p = X.astype(dtype), lam.astype(dtype)
            net, pool_p = losses["wachter"].net, losses["prototypes"].pool
            calls = {f"grad_input_full {wrt}":
                     (lambda s, wrt=wrt, net=net, Xp=Xp: net.grad_input_full(Xp[s], wrt))
                     for wrt in ("prob", "logit")}
            calls["_nearest_prototypes"] = lambda s, Xp=Xp, pool_p=pool_p: (
                explainers._nearest_prototypes(Xp[s], pool_p),)
            for kind, loss in losses.items():
                calls[kind] = lambda s, C=Cs[kind].astype(dtype), loss=loss, Xp=Xp, lam_p=lam_p: (
                    loss.grads(Xp[s], C[s], lam_p[s]),)
            for what, call in calls.items():
                whole = call(slice(None))
                assert all(w.dtype == dtype for w in whole)
                for cut in range(1, n):
                    halves = zip(call(slice(None, cut)), call(slice(cut, None)))
                    if any(np.concatenate(h).tobytes() != w.tobytes()
                           for h, w in zip(halves, whole)):
                        bad.append([layers, precision, what, cut])
    return bad


def test_each_row_independent_of_its_batch():
    assert _pinned("row_cut_mismatches") == []


def test_dice_lam1_below_floor_rejected(synth_small, baseline_small):
    # below the floor no escalation level would be left to run
    with pytest.raises(ValueError, match="^lam1: "):
        CfObjective("dice", lam1=LAM1_FLOOR / 10)
    CfObjective("wachter", lam1=LAM1_FLOOR / 10)      # lam1 only weighs dice
    x = synth_small.features[negative_test_rows(synth_small, baseline_small)[0]]
    res = find_counterfactual(baseline_small, x, CfObjective("dice", lam1=LAM1_FLOOR),
                              synth_small, Initializer("random-uniform", seed=1),
                              SearchBudget(steps=5))
    assert res.lam_attempts == (LAM1_FLOOR,)


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


@pytest.fixture(scope="module")
def full_scale(tmp_path_factory):
    """An untrained 4x200 net on 99 features, and the five rows it rejects
    most narrowly (a trained one rejects every row with p < 0.001)."""
    ds = csv_dataset(tmp_path_factory.mktemp("full"), d=99, seed=8)
    net = rl.MlpClassifier(FULL_SCALE_LAYERS, seed=1)
    p = np.asarray(net.forward(ds.features))
    p[p > 0.5] = -1.0
    return ds, net, ds.features[np.argsort(-p)[:5]]


@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_full_scale_search_checks_in_float64(full_scale, kind):
    """A float32 descent hands back float64 points that the model itself
    accepts, costed in float64, with every frozen feature exactly the
    query's."""
    ds, net, X = full_scale
    assert explainers._search_dtype(net) == np.float32 and len(X) == 5
    mask = np.arange(ds.d) % 4 > 0
    init = Initializer("random-uniform", seed=1) if kind == "dice" else Initializer()
    refs = X + 0.25
    results = batch_explain(net, X, CfObjective(kind, feature_mask=tuple(mask.tolist())), ds,
                            init, SearchBudget(steps=30), cost_reference=refs).results
    assert all(r.found for r in results)
    for x, ref, r in zip(X, refs, results):
        assert r.x_cf.dtype == np.float64
        assert net.forward(r.x_cf) > 0.5
        assert r.cost == dist_wachter(ref, r.x_cf, ds.mad)
        assert np.array_equal(r.x_cf[~mask], x[~mask])



def test_full_scale_search_starts_no_thread(monkeypatch, full_scale):
    """A search on the 4x200 net runs every round on the calling thread, also
    with BLAS pinned to one thread and two CPUs usable."""
    ds, net, X = full_scale
    for name, value in PINNED_BLAS.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def refuse(thread):
        raise AssertionError(f"a search started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    results = batch_explain(net, X, CfObjective("wachter"), ds,
                            budget=SearchBudget(steps=5)).results
    assert len(results) == len(X)


def _escape_by_levels(loss, queries) -> list:
    """`_Objective.escape_levels` one query and one schedule level at a
    time: the first level at which the kernel's gradient at the query itself
    (where every l1 subgradient is 0) beats the l1 weight in a mutable
    coordinate, or the last level."""
    weight = {"wachter": 1.0 / loss.mad, "sparse-wachter": 1.0,
              "prototypes": loss.spec.beta}[loss.spec.kind]
    schedule = explainers._lam_schedule(loss.spec)
    levels = []
    for q in queries.astype(loss.dtype):
        for j, lam in enumerate(schedule):
            g = loss.grads(q[None], q[None, None], lam)[0, 0]
            if (np.abs(g) > weight)[loss.mutable].any():
                break
        levels.append(j)
    return levels


def _logistic(w0: float) -> rl.MlpClassifier:
    """A logistic net on two features that reads only the first."""
    net = rl.MlpClassifier([2, 1], seed=0)
    net.set_flat(np.array([w0, 0.0, 0.0]))
    return net


class TestEscapeLevels:
    """`_Objective.escape_levels` against a loop over the schedule."""

    SQUARED = ("wachter", "sparse-wachter", "prototypes")

    @pytest.mark.parametrize("mask", [None, (True, False), (False, True)])
    @pytest.mark.parametrize("kind", SQUARED)
    def test_desk_matches_loop(self, kind, mask, synth_small, baseline_small):
        X = synth_small.features[negative_test_rows(synth_small, baseline_small)]
        loss = _Objective.of(baseline_small, CfObjective(kind, feature_mask=mask),
                             synth_small, search=True)
        assert loss.dtype == np.float64
        got = loss.escape_levels(X, X[:, None, :])
        assert got.tolist() == _escape_by_levels(loss, X)

    @pytest.mark.parametrize("kind", SQUARED)
    def test_full_scale_float32_matches_loop(self, kind, full_scale):
        ds, net, X = full_scale
        mask = tuple((np.arange(ds.d) % 4 > 0).tolist())
        loss = _search_objective(net, CfObjective(kind, feature_mask=mask), ds.mad,
                                 ds.train_features)
        assert loss.dtype == np.float32
        got = loss.escape_levels(X, X[:, None, :])
        assert got.tolist() == _escape_by_levels(loss, X)

    def test_escape_level_is_first_negative_margin(self, synth_small, baseline_small,
                                                   full_scale):
        """On each fixture above, `escape_levels` is the first level whose
        `escape_margin`, read from an attempt's step-0 gradient at the query,
        is negative; the margin is (w − |g|) / w at its least over the
        mutable coordinates."""
        ds, net, X_full = full_scale
        full_mask = tuple((np.arange(ds.d) % 4 > 0).tolist())
        X_desk = synth_small.features[negative_test_rows(synth_small, baseline_small)]
        flat = rl.MlpClassifier([2, 4, 1], seed=0)
        flat.set_flat(np.zeros(flat.param_count))
        train = np.array([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.0]])
        logistic = np.array([[-3.0, 0.0], [-6.0, 1.0]])
        cases = [(_Objective.of(baseline_small, CfObjective(kind, feature_mask=mask),
                                synth_small, search=True), X_desk)
                 for kind in self.SQUARED for mask in (None, (True, False), (False, True))]
        cases += [(_search_objective(net, CfObjective(kind, feature_mask=full_mask), ds.mad,
                                     ds.train_features), X_full) for kind in self.SQUARED]
        cases += [(_on_net(_logistic(1.0), CfObjective("wachter"), np.ones(2), mutable),
                   logistic) for mutable in (None, np.array([False, True]))]
        cases += [(_Objective.of(flat, CfObjective(kind), synth_small, search=True),
                   synth_small.features[:3]) for kind in ("wachter", "sparse-wachter")]
        cases += [(_search_objective(_logistic(1.0), CfObjective(kind), np.ones(2), train),
                   logistic[:1]) for kind in ("sparse-wachter", "prototypes")]
        for loss, X in cases:
            Q = X.astype(loss.dtype)
            weight = {"wachter": 1.0 / loss.mad, "sparse-wachter": 1.0,
                      "prototypes": loss.spec.beta}[loss.spec.kind]
            margins = []
            for lam in explainers._lam_schedule(loss.spec):
                g = loss.grads(Q, Q[:, None], lam)[:, 0]
                margin = loss.escape_margin(g)
                assert margin.dtype == loss.dtype
                by_hand = ((weight - np.abs(g)) / weight)[:, loss.mutable].min(axis=1)
                assert margin.tobytes() == by_hand.tobytes()
                margins.append(margin)
            negative = np.array(margins) < 0
            first = np.where(negative.any(axis=0), negative.argmax(axis=0), MAX_DOUBLINGS)
            assert loss.escape_levels(X, X[:, None, :]).tolist() == first.tolist()

    def test_margin_without_mutable_coordinate(self):
        net = _logistic(1.0)
        loss = _on_net(net, CfObjective("wachter"), np.ones(2), np.array([False, False]))
        assert loss.escape_margin(np.full((3, 2), 7.0)).tolist() == [np.inf] * 3
        free = _on_net(net, CfObjective("wachter"), np.full(2, 0.5))
        assert free.escape_margin(np.array([[1.5, 0.5], [-3.0, 0.0]])).tolist() == [0.25, -0.5]

    def test_masked_coordinates_ignored(self):
        net = _logistic(1.0)
        X = np.array([[-3.0, 0.0], [-6.0, 1.0]])
        free = _on_net(net, CfObjective("wachter"), np.ones(2))
        frozen = _on_net(net, CfObjective("wachter"), np.ones(2), np.array([False, True]))
        assert free.escape_levels(X, X[:, None, :]).tolist() == _escape_by_levels(free, X)
        assert max(free.escape_levels(X, X[:, None, :])) < MAX_DOUBLINGS
        assert frozen.escape_levels(X, X[:, None, :]).tolist() == [MAX_DOUBLINGS] * 2

    def test_query_that_never_escapes_gets_last_level(self, synth_small):
        net = rl.MlpClassifier([2, 4, 1], seed=0)
        net.set_flat(np.zeros(net.param_count))
        X = synth_small.features[:3]
        for kind in ("wachter", "sparse-wachter"):
            loss = _Objective.of(net, CfObjective(kind), synth_small, search=True)
            assert loss.escape_levels(X, X[:, None, :]).tolist() == [MAX_DOUBLINGS] * 3

    def test_prototypes_count_their_pull(self):
        # positives of the net sit at x0 > 0, so the query at x0 = -3 is
        # pulled toward a prototype more than 3 away: level 0, while the
        # push alone escapes only at λ = 16
        net = _logistic(1.0)
        X = np.array([[-3.0, 0.0]])
        train = np.array([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.0]])
        levels = {kind: _search_objective(net, CfObjective(kind), np.ones(2), train)
                  .escape_levels(X, X[:, None, :]).tolist()
                  for kind in ("sparse-wachter", "prototypes")}
        assert levels == {"sparse-wachter": [4], "prototypes": [0]}

    def test_dice_and_other_starts_get_no_plan(self, synth_small, baseline_small):
        X = synth_small.features[negative_test_rows(synth_small, baseline_small)[:6]]
        dice = _Objective.of(baseline_small, CfObjective("dice", k=1), synth_small)
        assert dice.escape_levels(X, X[:, None, :]) is None
        loss = _Objective.of(baseline_small, CfObjective("wachter"), synth_small)
        assert loss.escape_levels(X, X[:, None, :]) is not None
        for init in ("random-uniform", "positive-mean", "gaussian-jitter"):
            starts = _initial_candidates(Initializer(init, seed=1), X, 1, baseline_small,
                                         synth_small, loss.mutable)
            assert loss.escape_levels(X, starts) is None, init


# Plans forced on every pending query, from the level at which it first
# succeeds in the reference search (`reference_search`).
FORCED_PLANS = {
    "too low": lambda first: first - 3,
    "exact": lambda first: first,
    "too high": lambda first: first + 4,
    "mixed": lambda first: first + np.where(np.arange(len(first)) % 2, 3, -2),
    "past the last level": lambda first: first + 2 * MAX_DOUBLINGS,
    "empty": lambda first: None,
}


def _assert_plans_keep_results(monkeypatch, args):
    """The search `batch_explain(*args)` under each forced plan has the
    reference schedule's results to the byte."""
    want = reference_search(*args)
    first = np.array([len(r.lam_attempts) - 1 for r in want if not r.query_was_valid])
    assert first.max() > 1
    for name, plan in FORCED_PLANS.items():
        with monkeypatch.context() as m:
            levels = plan(first)
            m.setattr(_Objective, "escape_levels", lambda self, queries, starts: levels)
            attempts = _kernel_rows(m)
            got = batch_explain(*args).results
        _assert_same_results(got, want)
        if name == "past the last level":
            assert len(attempts) == 1


@pytest.mark.parametrize("init", ["origin", "gaussian-jitter"])
@pytest.mark.parametrize("mask", [None, (True, False)])
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_plans_never_change_results(kind, mask, init, monkeypatch, synth_small,
                                    baseline_small):
    X = synth_small.features[negative_test_rows(synth_small, baseline_small)[:8]]
    args = (baseline_small, X, CfObjective(kind, k=2, feature_mask=mask), synth_small,
            Initializer(init, seed=1), SearchBudget(steps=60))
    _assert_plans_keep_results(monkeypatch, args)


@pytest.mark.parametrize("init", ["origin", "gaussian-jitter"])
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_full_scale_plans_never_change_results(kind, init, monkeypatch, full_scale):
    ds, net, X = full_scale
    mask = tuple((np.arange(ds.d) % 4 > 0).tolist())
    args = (net, X, CfObjective(kind, k=2, feature_mask=mask), ds, Initializer(init, seed=1),
            SearchBudget(steps=30))
    _assert_plans_keep_results(monkeypatch, args)


def test_full_scale_round_carries_every_query(monkeypatch, full_scale):
    """Fifteen queries on the 4x200 net (the five rows three times), each
    planned past the schedule's last level, run as one round of all their
    levels and keep the reference schedule's results to the byte."""
    ds, net, X = full_scale
    args = (net, np.tile(X, (3, 1)), CfObjective("wachter"), ds, Initializer(),
            SearchBudget(steps=30))
    want = reference_search(*args)
    monkeypatch.setattr(_Objective, "escape_levels",
                        lambda self, queries, starts: np.full(len(queries), 2 * MAX_DOUBLINGS))
    attempts = _kernel_rows(monkeypatch)
    _assert_same_results(batch_explain(*args).results, want)
    assert [rows[0] for rows in attempts] == [15 * (MAX_DOUBLINGS + 1)]


@pytest.mark.parametrize("init", ["origin", "gaussian-jitter"])
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_full_scale_unmasked_matches_reference(kind, init, monkeypatch, full_scale):
    ds, net, X = full_scale
    args = (net, X, CfObjective(kind, k=2), ds, Initializer(init, seed=1),
            SearchBudget(steps=30))
    want = reference_search(*args)
    attempts = _kernel_rows(monkeypatch)
    _assert_same_results(batch_explain(*args).results, want)
    if init == "origin" and kind in SETTLING_KINDS:
        _assert_rows_dropped(attempts)


def _record_attempts(monkeypatch) -> list:
    """For each batched attempt while the patch holds, its objective, queries,
    starts and λ values, and which rows the settle rule dropped: those
    returned with probability exactly 0, which the clipped model never
    gives."""
    attempts = []
    run_attempt = explainers._run_attempt

    def recording(loss, queries, starts, lam, budget):
        cands, probs = run_attempt(loss, queries, starts, lam, budget)
        dropped = probs[:, 0] == 0.0
        assert cands[dropped].tobytes() == starts[dropped].tobytes()
        attempts.append((loss, queries, starts, np.asarray(lam), dropped))
        return cands, probs

    monkeypatch.setattr(explainers, "_run_attempt", recording)
    return attempts


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("kind", SETTLING_KINDS)
@pytest.mark.parametrize("scale", ["desk_audit", "full_scale"])
def test_dropped_rows_fail_their_full_budget(scale, kind, masked, monkeypatch, request):
    """Every attempt the settle rule ends, rerun from its start for the whole
    budget (`_reference_descent`), then checked by the model and snapped,
    fails: on the desk net in float64 and on the 4x200 net in float32."""
    ds, net, X = request.getfixturevalue(scale)
    mask = tuple((np.arange(ds.d) % 4 != 1).tolist()) if masked else None
    budget = SearchBudget(steps=60)
    attempts = _record_attempts(monkeypatch)
    batch_explain(net, X, CfObjective(kind, feature_mask=mask), ds, Initializer(), budget)
    dropped = 0
    for loss, queries, starts, lam, drop in attempts:
        if not drop.any():
            continue
        C = _reference_descent(loss, queries[drop], starts[drop], lam[drop], budget)
        probs = net.forward(C.reshape(-1, ds.d)).reshape(-1, 1)
        _, probs = _snap_to_query(loss, queries[drop], C, probs, budget)
        assert (probs <= 0.5).all()
        dropped += int(drop.sum())
    assert dropped > 0


@pytest.mark.parametrize("scale", ["desk_audit", "full_scale"])
def test_kept_rows_independent_of_dropped_batch_mates(scale, request):
    """A row the settle rule keeps has the same bytes whichever of its batch
    mates were dropped: alone, among the kept rows only, or in the whole
    batch in either order; a dropped row is dropped alone too.  Float64 on
    the desk net, float32 on the 4x200 net."""
    ds, net, X = request.getfixturevalue(scale)
    loss = _search_objective(net, CfObjective("wachter"), ds.mad, ds.train_features)
    assert loss.dtype == (np.float64 if scale == "desk_audit" else np.float32)
    schedule = explainers._lam_schedule(loss.spec)
    queries = np.repeat(X[:5], 12, axis=0)
    lam = np.tile(schedule[:12], 5)
    budget = SearchBudget(steps=40)
    whole = explainers._run_attempt(loss, queries, queries[:, None], lam, budget)
    dropped = whole[1][:, 0] == 0.0
    assert dropped.any() and not dropped.all()
    batches = [[r] for r in range(len(queries))]
    batches += [np.flatnonzero(~dropped), np.arange(len(queries))[::-1]]
    for rows in batches:
        part = explainers._run_attempt(loss, queries[rows], queries[rows, None], lam[rows],
                                       budget)
        for got, want in zip(part, whole):
            assert got.tobytes() == want[rows].tobytes()


class TestBatchExplain:
    def test_empty_points(self, synth_small, baseline_small):
        out = batch_explain(baseline_small, np.empty((0, 2)), CfObjective("wachter"),
                            synth_small)
        assert out.results == [] and np.isnan(out.mean_cost) and out.not_found == 0

    def test_empty_points_check_segments(self, synth_small, baseline_small):
        with pytest.raises(ExplainError, match="do not split 0 rows"):
            batch_explain(baseline_small, np.empty((0, 2)), CfObjective("wachter"),
                          synth_small, segments=(1,))

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

    def test_points_of_wrong_rank_rejected(self, synth_small, baseline_small):
        points = synth_small.features[:4].reshape(2, 2, 2)
        with pytest.raises(ExplainError, match=r"points of 2 features, got shape \(2, 2, 2\)"):
            batch_explain(baseline_small, points, CfObjective("wachter"), synth_small)

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


class TestSegments:
    @pytest.mark.parametrize("kind", INITIALIZER_KINDS)
    def test_each_segment_draws_as_if_alone(self, synth_small, baseline_small, kind):
        q = synth_small.features[:5]
        queries = np.concatenate([q[:2], q[2:], q[2:] + 0.3])
        segments = (2, 3, 3)
        init = Initializer(kind, seed=5)
        mutable = np.array([True, False])
        merged = _initial_candidates(init, queries, 2, baseline_small, synth_small,
                                     mutable, segments)
        alone = [_initial_candidates(init, queries[s], 2, baseline_small, synth_small,
                                     mutable)
                 for s in explainers.segment_slices(segments, len(queries))]
        assert merged.tobytes() == np.concatenate(alone).tobytes()

    def test_perturbed_segment_shares_draws(self, synth_small, baseline_small):
        q = synth_small.features[:3]
        starts = _initial_candidates(Initializer("random-uniform", seed=2),
                                     np.concatenate([q, q + 0.3]), 1, baseline_small,
                                     synth_small, np.ones(2, bool), (3, 3))
        assert np.array_equal(starts[:3], starts[3:])

    @pytest.mark.parametrize("segments", [(1, 1), (2, 2), (4, -1), ()])
    def test_segments_must_split_the_rows(self, synth_small, baseline_small, segments):
        rows = negative_test_rows(synth_small, baseline_small)[:3]
        with pytest.raises(ExplainError):
            batch_explain(baseline_small, synth_small.features[rows], CfObjective("wachter"),
                          synth_small, budget=SearchBudget(steps=50), segments=segments)

    def test_split_summaries(self, synth_small, baseline_small):
        rows = negative_test_rows(synth_small, baseline_small)[:5]
        out = batch_explain(baseline_small, synth_small.features[rows],
                            CfObjective("wachter"), synth_small,
                            budget=SearchBudget(steps=200), segments=(2, 0, 3))
        parts = out.split((2, 0, 3))
        assert [len(p.results) for p in parts] == [2, 0, 3]
        assert parts[0].results == out.results[:2] and parts[2].results == out.results[2:]
        assert np.isnan(parts[1].mean_cost) and parts[1].not_found == 0
        assert parts[2].mean_cost == np.mean([r.cost for r in out.results[2:] if r.valid])


def _field_bits(r) -> tuple:
    """Every field of a result, arrays as their bytes."""
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else repr(v)
                 for v in (getattr(r, f.name) for f in dataclasses.fields(r)))


def _record_searches(monkeypatch) -> list:
    """(queries, references, segments) of each `_search_many` call."""
    calls = []
    search = explainers._search_many

    def recording(model, queries, objective, dataset, initializer, budget, cost_reference,
                  segments=None):
        refs = queries if cost_reference is None else cost_reference
        calls.append((np.array(queries), np.array(refs),
                      None if segments is None else tuple(segments)))
        return search(model, queries, objective, dataset, initializer, budget,
                      cost_reference, segments=segments)

    monkeypatch.setattr(explainers, "_search_many", recording)
    return calls


class TestRepeatedSegments:
    """A segment whose queries and cost references repeat an earlier
    segment's bytes is searched once and gets copies of its results."""

    BUDGET = SearchBudget(steps=60)

    @staticmethod
    def _queries(dataset, model):
        rows = negative_test_rows(dataset, model)
        return dataset.features[rows[:4]], dataset.features[rows[4:7]]

    @pytest.mark.parametrize("layout", ["aba", "abb"])
    @pytest.mark.parametrize("init", ["origin", "random-uniform", "gaussian-jitter"])
    @pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
    def test_equals_per_segment_calls(self, kind, init, layout, monkeypatch,
                                      synth_small, baseline_small):
        a, b = self._queries(synth_small, baseline_small)
        parts = [{"a": a, "b": b}[c] for c in layout]
        segments = [len(p) for p in parts]
        objective, initializer = CfObjective(kind), Initializer(init, seed=2)
        args = (objective, synth_small, initializer, self.BUDGET)
        alone = [batch_explain(baseline_small, p, *args).results for p in parts]
        calls = _record_searches(monkeypatch)
        out = batch_explain(baseline_small, np.concatenate(parts), *args, segments=segments)
        assert len(calls) == 1
        queries, refs, searched = calls[0]
        assert searched == (len(a), len(b))
        assert queries.tobytes() == refs.tobytes() == np.concatenate([a, b]).tobytes()
        split = out.split(segments)
        for got, want in zip(split, alone):
            _assert_same_results(got.results, want)
        source = split[layout.index(layout[2])].results
        assert [_field_bits(r) for r in split[2].results] == [_field_bits(r) for r in source]

    @pytest.mark.parametrize("kind", ["wachter", "dice"])
    def test_copies_share_no_array(self, kind, synth_small, baseline_small):
        a, b = self._queries(synth_small, baseline_small)
        segments = (len(a), len(b), len(a))
        out = batch_explain(baseline_small, np.concatenate([a, b, a]), CfObjective(kind),
                            synth_small, Initializer("random-uniform", seed=2), self.BUDGET,
                            segments=segments)
        first, _, again = out.split(segments)
        assert any(r.found for r in first.results)
        for r, c in zip(first.results, again.results):
            assert c is not r
            for name in ("x_cf", "candidates"):
                x, y = getattr(r, name), getattr(c, name)
                assert (x is None) == (y is None)
                if x is not None:
                    assert not np.shares_memory(x, y)
            if c.found:
                before = r.x_cf.tobytes()
                c.x_cf += 1.0
                assert r.x_cf.tobytes() == before

    def test_equal_queries_other_references_both_searched(self, monkeypatch, synth_small,
                                                          baseline_small):
        a, _ = self._queries(synth_small, baseline_small)
        refs = np.concatenate([a, a + 0.25])
        calls = _record_searches(monkeypatch)
        out = batch_explain(baseline_small, np.concatenate([a, a]), CfObjective("wachter"),
                            synth_small, budget=self.BUDGET, cost_reference=refs,
                            segments=(len(a), len(a)))
        assert [c[2] for c in calls] == [(len(a), len(a))]
        assert calls[0][1].tobytes() == refs.tobytes()
        assert any(r.found for r in out.results)
        for ref, r in zip(refs, out.results):
            if r.found:
                assert r.cost == dist_wachter(ref, r.x_cf, synth_small.mad)

    def test_no_repeat_searches_every_segment_once(self, monkeypatch, synth_small,
                                                    baseline_small):
        a, b = self._queries(synth_small, baseline_small)
        calls = _record_searches(monkeypatch)
        batch_explain(baseline_small, np.concatenate([a, b, a + 0.1]), CfObjective("wachter"),
                      synth_small, budget=self.BUDGET,
                      cost_reference=np.concatenate([a, b, a]), segments=[4, 3, 4])
        assert [c[2] for c in calls] == [(4, 3, 4)]


def test_sensitivity_probe(synth_small, baseline_small):
    rows = negative_test_rows(synth_small, baseline_small)
    x = synth_small.features[rows[0]]
    gap = sensitivity_probe(baseline_small, x, np.array([0.05, 0.0]),
                            CfObjective("wachter"), synth_small)
    assert np.isfinite(gap) and gap >= 0.0


def test_sensitivity_probe_rejects_several_points(synth_small, baseline_small):
    with pytest.raises(ExplainError, match=r"got shape \(2, 2\)"):
        sensitivity_probe(baseline_small, synth_small.features[:2], np.array([0.05, 0.0]),
                          CfObjective("wachter"), synth_small)


@pytest.mark.parametrize("delta", [[0.05, 0.0], [0.05, 0.0, 0.0]])
@pytest.mark.parametrize("d", [1, 3])
def test_sensitivity_probe_rejects_wrong_length(d, delta, synth_small, baseline_small):
    """A query of the wrong length is named, before any δ check."""
    with pytest.raises(ExplainError, match=rf"one point of 2 features, got shape \({d},\)"):
        sensitivity_probe(baseline_small, np.zeros(d), delta, CfObjective("wachter"),
                          synth_small)


@pytest.mark.parametrize("init", [Initializer(), Initializer("gaussian-jitter", seed=3),
                                  Initializer("random-uniform", seed=1)])
def test_sensitivity_probe_matches_two_searches(synth_small, baseline_small, init):
    rows = negative_test_rows(synth_small, baseline_small)
    x = synth_small.features[rows[1]]
    delta = np.array([0.2, -0.1])
    obj, budget = CfObjective("wachter"), SearchBudget(steps=300)
    gap = sensitivity_probe(baseline_small, x, delta, obj, synth_small, init, budget)
    base = find_counterfactual(baseline_small, x, obj, synth_small, init, budget)
    moved = find_counterfactual(baseline_small, x + delta, obj, synth_small, init, budget,
                                cost_reference=x)
    assert base.found and moved.found
    assert gap == pytest.approx(float(np.linalg.norm(base.x_cf - moved.x_cf)), rel=1e-9)


def test_objective_validation():
    with pytest.raises(ValueError):
        CfObjective("nope")
    with pytest.raises(ValueError):
        CfObjective("dice", k=0)
    with pytest.raises(ValueError):
        Initializer("bad-init")
    # each config dataclass rejects its own bad field when built, so no
    # search runs on it; the message starts with the field's name
    nan = float("nan")
    cases = [
        ("steps", lambda: SearchBudget(steps=0)),
        ("lr", lambda: SearchBudget(lr=-0.01)),
        ("lr", lambda: SearchBudget(lr=nan)),
        ("lam", lambda: CfObjective("wachter", lam=nan)),
        ("lam1", lambda: CfObjective("dice", lam1=1e-4)),
        ("seed", lambda: Initializer(seed=-1)),
        ("lr", lambda: rl.Phase1Config(lr=0)),
        ("subsample", lambda: rl.Phase2Config(objective=CfObjective("wachter"), subsample=0)),
    ]
    for field, build in cases:
        with pytest.raises(ValueError, match=f"^{field}: "):
            build()
