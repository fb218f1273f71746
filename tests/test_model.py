import re

import numpy as np
import pytest

import recourselab as rl
from recourselab.data import DataError
from recourselab.model import (
    BCE_CLIP, PROB_CLIP, AdamState, FrozenNet, MlpClassifier, TrainingDiverged, Workspace, accuracy,
    adam_step, load_model, save_model, sigmoid, train_baseline,
)


def fd_param_grad(net, loss_fn, h=1e-6):
    flat = net.flatten()
    out = np.empty_like(flat)
    for i in range(flat.size):
        up = flat.copy(); up[i] += h
        dn = flat.copy(); dn[i] -= h
        out[i] = (loss_fn(net.with_flat(up)) - loss_fn(net.with_flat(dn))) / (2 * h)
    return out


def rel_err(a, b, floor=1e-8):
    return np.max(np.abs(a - b) / (np.abs(b) + floor))


class TestForward:
    def test_zero_weights_give_half(self):
        net = MlpClassifier([3, 4, 1], seed=0)
        net.set_flat(np.zeros(net.param_count))
        for x in (np.zeros(3), np.ones(3), np.array([5.0, -3.0, 2.0])):
            assert net.forward(x) == 0.5

    def test_single_linear_layer(self):
        net = MlpClassifier([1, 1], seed=0)
        net.set_flat(np.array([1.0, 0.0]))   # weight 1, bias 0: just a tanh-free logit
        assert net.forward(np.array([0.0])) == 0.5
        assert net.logits(np.array([2.0])) == pytest.approx(2.0)

    def test_matches_hand_rolled_forward(self):
        net = MlpClassifier([2, 5, 1], seed=42)
        x = np.array([0.3, -1.2])
        a = np.tanh(x @ net.weights[0] + net.biases[0])
        z = a @ net.weights[1] + net.biases[1]
        expected = 1.0 / (1.0 + np.exp(-z[0]))
        assert net.forward(x) == pytest.approx(expected, rel=1e-12)

    def test_bounded_open_interval(self):
        net = MlpClassifier([2, 8, 1], seed=1)
        big = np.array([1e6, -1e6])
        p = net.forward(big)
        assert 0.0 < p < 1.0
        assert np.isfinite(net.logits(big))

    def test_dimension_mismatch(self):
        net = MlpClassifier([3, 2, 1], seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros(4))


class TestFlatten:
    def test_round_trip_exact(self):
        net = MlpClassifier([4, 7, 3, 1], seed=5)
        vec = net.flatten()
        other = net.with_flat(vec)
        for (w1, b1), (w2, b2) in zip(zip(net.weights, net.biases),
                                      zip(other.weights, other.biases)):
            assert w1.tobytes() == w2.tobytes()
            assert b1.tobytes() == b2.tobytes()
        assert net.unflatten(vec)[0][0].tobytes() == net.weights[0].tobytes()

    def test_wrong_length_rejected(self):
        net = MlpClassifier([2, 2, 1], seed=0)
        with pytest.raises(ValueError):
            net.set_flat(np.zeros(net.param_count + 1))

    def test_set_flat_uses_the_vector_itself(self):
        net = MlpClassifier([4, 7, 3, 1], seed=5)
        vec = np.random.default_rng(0).normal(size=net.param_count)
        copied = net.with_flat(vec)
        net.set_flat(vec)
        assert net.flatten().tobytes() == vec.tobytes() == copied.flatten().tobytes()
        assert all(np.shares_memory(a, vec) for a in net.weights + net.biases)
        assert not any(np.shares_memory(a, vec) for a in copied.weights + copied.biases)


class TestGradParams:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        net = MlpClassifier([3, 4, 3, 1], seed=3)
        X = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4).astype(float)
        g = net.grad_params_bce(X, y)
        fd = fd_param_grad(net, lambda n: n.bce_loss(X, y), h=1e-5)
        assert rel_err(g, fd, floor=1e-6) < 1e-5

    def test_squared_push_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        net = MlpClassifier([2, 5, 1], seed=9)
        X = rng.normal(size=(3, 2))
        g = net.grad_params_squared_push(X)
        fd = fd_param_grad(net, lambda n: n.squared_push_loss(X), h=1e-5)
        assert rel_err(g, fd, floor=1e-6) < 1e-5

    def test_row_weights_sum_single_row_gradients(self):
        rng = np.random.default_rng(10)
        net = MlpClassifier([3, 4, 1], seed=2)
        X = rng.normal(size=(4, 3))
        w = rng.normal(size=4)
        for grad in (net.grad_params_squared_push, net.grad_params_hinge_logit):
            summed = sum(wi * grad(x[None]) for wi, x in zip(w, X))
            for got, want in ((grad(X, weights=w), summed),
                              (grad(X, weights=np.full(4, 0.25)), grad(X))):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_saturated_batch_has_tiny_gradient(self):
        ds = rl.make_synthetic(40, seed=0)
        trained = train_baseline(ds, steps=2500, seed=0, hidden=(8,), lr=0.05)
        g = trained.model.grad_params_bce(ds.train_features, ds.train_labels)
        assert np.linalg.norm(g) <= 1e-3

    def test_symmetric_batch_zero_input_layer_gradient(self):
        net = MlpClassifier([2, 3, 1], seed=0)
        net.set_flat(np.zeros(net.param_count))
        X = np.array([[1.0, -2.0], [-1.0, 2.0]])
        y = np.array([1.0, 1.0])
        g = net.grad_params_bce(X, y)
        w0_size = net.weights[0].size
        assert np.abs(g[:w0_size]).max() == 0.0

    def test_empty_batch_rejected(self):
        net = MlpClassifier([2, 2, 1], seed=0)
        with pytest.raises(ValueError):
            net.grad_params_bce(np.empty((0, 2)), np.empty(0))


class TestGradInput:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = MlpClassifier([4, 6, 1], seed=2)
        x = rng.normal(size=4)
        g = net.grad_input(x)
        h = 1e-5
        fd = np.empty(4)
        for i in range(4):
            up = x.copy(); up[i] += h
            dn = x.copy(); dn[i] -= h
            fd[i] = (net.forward(up) - net.forward(dn)) / (2 * h)
        assert rel_err(g, fd, floor=1e-8) < 1e-5

    def test_zero_model_zero_gradient(self):
        net = MlpClassifier([3, 4, 1], seed=0)
        net.set_flat(np.zeros(net.param_count))
        assert np.all(net.grad_input(np.array([1.0, 2.0, 3.0])) == 0.0)

    def test_monotone_net_positive_derivative(self):
        net = MlpClassifier([1, 3, 1], seed=0)
        net.weights[0] = np.array([[0.5, 0.8, 0.3]])
        net.biases[0] = np.zeros(3)
        net.weights[1] = np.array([[0.7], [0.2], [0.9]])
        net.biases[1] = np.zeros(1)
        for x in (-2.0, -0.5, 0.0, 0.5, 2.0):
            assert net.grad_input(np.array([x]))[0] > 0.0

    def test_logit_gradient(self):
        net = MlpClassifier([2, 3, 1], seed=4)
        x = np.array([0.2, -0.7])
        g = net.grad_input(x, wrt="logit")
        h = 1e-6
        fd = np.empty(2)
        for i in range(2):
            up = x.copy(); up[i] += h
            dn = x.copy(); dn[i] -= h
            fd[i] = (net.logits(up) - net.logits(dn)) / (2 * h)
        assert rel_err(g, fd) < 1e-6


class TestFrozenNet:
    def test_float32_holds_nothing_in_float64(self):
        net = MlpClassifier([5, 7, 6, 1], seed=1)
        frozen = FrozenNet(net, np.float32)
        arrays = frozen.weights + frozen.biases + frozen._back + [frozen._first]
        assert all(a.dtype == np.float32 for a in arrays)
        assert not any(np.shares_memory(a, w) for a in arrays for w in net.weights + net.biases)
        X = np.random.default_rng(2).normal(size=(9, 5))
        g, p, z = frozen.grad_input_full(X.astype(np.float32), "logit")
        assert g.dtype == p.dtype == z.dtype == np.float32
        g64 = net.grad_input_full(X, wrt="logit")[0]
        assert np.allclose(g, g64, rtol=1e-4, atol=1e-6)

    def test_float64_keeps_the_net_arrays(self):
        net = MlpClassifier([5, 7, 1], seed=1)
        frozen = FrozenNet(net)
        assert all(a is b for a, b in zip(frozen.weights + frozen.biases,
                                           net.weights + net.biases))


class TestRandomizedGradientSuite:
    def test_many_probes(self):
        # randomized nets up to two hidden layers of 16, d <= 5
        rng = np.random.default_rng(123)
        probes = 0
        while probes < 100:
            d = int(rng.integers(1, 6))
            hidden = [int(rng.integers(2, 17)) for _ in range(int(rng.integers(1, 3)))]
            net = MlpClassifier([d, *hidden, 1], seed=int(rng.integers(1 << 30)))
            X = rng.normal(size=(int(rng.integers(1, 6)), d))
            y = rng.integers(0, 2, size=X.shape[0]).astype(float)
            g = net.grad_params_bce(X, y)
            fd = fd_param_grad(net, lambda n: n.bce_loss(X, y), h=1e-5)
            assert np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-4
            gx = net.grad_input(X[0])
            fdx = np.empty(d)
            for i in range(d):
                up = X[0].copy(); up[i] += 1e-5
                dn = X[0].copy(); dn[i] -= 1e-5
                fdx[i] = (net.forward(up) - net.forward(dn)) / 2e-5
            assert np.max(np.abs(gx - fdx)) / max(np.max(np.abs(fdx)), 1e-12) < 1e-4
            probes += 1


class TestOptimizers:
    def test_adam_first_step_magnitude(self):
        state = AdamState(lr=0.01)
        params = np.array([1.0])
        new = adam_step(state, params, np.array([4.0]))
        assert new[0] == pytest.approx(1.0 - 0.01, abs=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(AdamState(), np.zeros(3), np.zeros(2))

    def test_deterministic_trajectories(self):
        ds = rl.make_synthetic(30, seed=1)
        a = train_baseline(ds, steps=30, seed=7, hidden=(6,))
        b = train_baseline(ds, steps=30, seed=7, hidden=(6,))
        assert a.model.flatten().tobytes() == b.model.flatten().tobytes()
        assert a.loss_trace.tobytes() == b.loss_trace.tobytes()


class TestInPlaceKernelsBitIdentical:
    """The in-place network and optimizer kernels against the textbook
    out-of-place formulas, written in the row rule's forms where the model
    keeps it (the output layer a per-row dot product; `grad_input_full`'s
    chain through contiguous transposes, the last one zero-padded to 8
    columns): equal to the bit, and their arguments untouched."""

    def _textbook_forward(self, net, X):
        acts, a = [X], X
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            a = np.tanh(a @ w + b)
            acts.append(a)
        z = np.vecdot(a, net.weights[-1][:, 0]) + net.biases[-1]
        return acts, z

    def test_forward_and_input_gradient(self):
        rng = np.random.default_rng(5)
        net = MlpClassifier([3, 16, 8, 1], seed=2)
        for scale in (0.5, 3.0, 30.0):
            X = rng.normal(size=(40, 3)) * scale
            X_before = X.copy()
            acts, z = self._textbook_forward(net, X)
            p = _sigmoid_two_formulas(z)
            clipped = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
            assert np.array_equal(net.forward(X), clipped)
            assert np.array_equal(net.logits(X), z)
            for wrt, g0 in (("prob", (p * (1.0 - p))[:, None]), ("logit", np.ones((40, 1)))):
                g = self._textbook_grad_input(net, acts, g0)
                got_g, got_p, got_z = net.grad_input_full(X, wrt=wrt)
                assert np.array_equal(got_g, g)
                assert np.array_equal(got_p, clipped)
                assert np.array_equal(got_z, z)
            assert np.array_equal(X, X_before)

    def _textbook_grad_params(self, net, acts, dz):
        g, grads = dz[:, None], []
        for i in range(len(net.weights) - 1, -1, -1):
            grads.insert(0, (acts[i].T @ g, g.sum(axis=0)))
            if i > 0:
                g = (g @ net.weights[i].T) * (1.0 - acts[i] ** 2)
        return np.concatenate([part.ravel() for pair in grads for part in pair])

    def _textbook_grad_input(self, net, acts, g, row_rule=True):
        """In the row rule's forms (`grad_input_full`), or through transposed
        views (phase one's push, whose rows are summed)."""
        for i in range(len(net.weights) - 1, 0, -1):
            w_t = net.weights[i].T
            g = (g @ (np.ascontiguousarray(w_t) if row_rule else w_t)) * (1.0 - acts[i] ** 2)
        if not row_rule:
            return g @ net.weights[0].T
        d = net.d
        padded = np.zeros((net.weights[0].shape[1], -(-d // 8) * 8))
        padded[:, :d] = net.weights[0].T
        return (g @ padded)[:, :d]

    # gain 40 saturates the output, so the probability clips come into play
    @pytest.mark.parametrize("gain", [1.0, 40.0])
    @pytest.mark.parametrize("scale", [0.5, 3.0, 30.0])
    def test_parameter_gradients_and_fused_losses(self, scale, gain):
        rng = np.random.default_rng(8)
        net = MlpClassifier([3, 16, 8, 1], seed=4)
        net.weights[-1] *= gain
        n = 40
        X = rng.normal(size=(n, 3)) * scale
        y = (rng.random(n) < 0.5).astype(float)
        weights = rng.random(n)
        X_before = X.copy()
        acts, z = self._textbook_forward(net, X)
        p = _sigmoid_two_formulas(z)
        clipped = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
        assert gain == 1.0 or not np.array_equal(clipped, p)

        bce_dz = (p - y) / n
        bce_grad = self._textbook_grad_params(net, acts, bce_dz)
        pb = np.clip(clipped, BCE_CLIP, 1.0 - BCE_CLIP)
        bce = float(-np.mean(y * np.log(pb) + (1.0 - y) * np.log(1.0 - pb)))
        assert np.array_equal(net.grad_params_bce(X, y), bce_grad)
        assert net.bce_loss(X, y) == bce
        got_bce, got_bce_grad = net.bce_loss_and_grad(X, y)
        assert got_bce == bce and np.array_equal(got_bce_grad, bce_grad)

        push_dz = 2.0 * (p - 1.0) * p * (1.0 - p)
        push_grad = self._textbook_grad_params(net, acts, push_dz / n)
        assert np.array_equal(net.grad_params_squared_push(X), push_grad)
        assert np.array_equal(net.grad_params_squared_push(X, weights=weights),
                              self._textbook_grad_params(net, acts, push_dz * weights))
        push = float(np.mean((clipped - 1.0) ** 2))
        rows = 2.0 * (clipped - 1.0)[:, None] * self._textbook_grad_input(
            net, acts, (p * (1.0 - p))[:, None], row_rule=False)
        assert net.squared_push_loss(X) == push
        got_push, got_push_grad, got_rows = net.squared_push_loss_and_grads(X)
        assert got_push == push
        assert np.array_equal(got_push_grad, push_grad)
        assert np.array_equal(got_rows, rows)

        active = (z < 1.0).astype(float)
        assert np.array_equal(net.grad_params_hinge_logit(X),
                              self._textbook_grad_params(net, acts, -active / n))
        assert np.array_equal(net.grad_params_hinge_logit(X, weights=weights),
                              self._textbook_grad_params(net, acts, -active * weights))
        assert np.array_equal(X, X_before)

    def test_one_workspace_across_row_counts(self):
        rng = np.random.default_rng(9)
        net = MlpClassifier([3, 16, 8, 1], seed=4)
        workspace = Workspace()
        earlier = []
        for n in (40, 15, 60, 40):      # shrinks, then grows past the first size
            X = rng.normal(size=(n, 3)) * 3.0
            y = (rng.random(n) < 0.5).astype(float)
            X_before = X.copy()
            acts, z = self._textbook_forward(net, X)
            p = _sigmoid_two_formulas(z)
            clipped = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
            pb = np.clip(clipped, BCE_CLIP, 1.0 - BCE_CLIP)
            bce = float(-np.mean(y * np.log(pb) + (1.0 - y) * np.log(1.0 - pb)))
            push_dz = 2.0 * (p - 1.0) * p * (1.0 - p)
            rows = 2.0 * (clipped - 1.0)[:, None] * self._textbook_grad_input(
                net, acts, (p * (1.0 - p))[:, None], row_rule=False)

            got_bce, got_bce_grad = net.bce_loss_and_grad(X, y, workspace)
            assert got_bce == bce
            assert np.array_equal(got_bce_grad, self._textbook_grad_params(net, acts, (p - y) / n))
            got_push, got_push_grad, got_rows = net.squared_push_loss_and_grads(X, workspace)
            assert got_push == float(np.mean((clipped - 1.0) ** 2))
            assert np.array_equal(got_push_grad, self._textbook_grad_params(net, acts, push_dz / n))
            assert np.array_equal(got_rows, rows)
            assert np.array_equal(X, X_before)

            buffers = list(workspace._flat.values())
            assert buffers and all(buf.size >= n * min(net.layer_dims[1:-1]) for buf in buffers)
            results = (got_bce_grad, got_push_grad, got_rows)
            assert not any(np.shares_memory(r, buf) for r in results for buf in buffers)
            for result, copy in earlier:
                assert np.array_equal(result, copy)
            earlier += [(r, r.copy()) for r in results]

    def test_phase1_model_holds_no_workspace(self, monkeypatch):
        made = []

        class Recorded(Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(rl.adversary, "Workspace", Recorded)
        ds = rl.make_synthetic(60, seed=1)
        out = rl.adversary.phase1_fit(ds, rl.adversary.Phase1Config(steps=3, hidden=(8, 8)))
        assert len(made) == 1 and made[0]._flat
        buffers = list(made[0]._flat.values())
        for net in (out.model, out.model.clone(), out.model.with_flat(out.model.flatten())):
            assert not any(isinstance(v, Workspace) for v in vars(net).values())
            params = net.weights + net.biases
            assert not any(np.shares_memory(a, buf) for a in params for buf in buffers)

    def test_adam_steps(self):
        self._check_adam_steps(np.float64)

    def test_adam_steps_keep_float32(self):
        self._check_adam_steps(np.float32)

    @staticmethod
    def _check_adam_steps(dtype):
        # the textbook formulas in the parameters' precision, to the bit; the
        # float64 gradient is taken in that precision
        rng = np.random.default_rng(6)
        state, ref = AdamState(lr=0.05), AdamState(lr=0.05)
        params = rng.normal(size=(12, 3, 2)).astype(dtype)
        ref_params = params.copy()
        for _ in range(6):
            grad = rng.normal(size=params.shape) * rng.choice([1e-6, 1.0, 1e3])
            params_before, grad_before = params.copy(), grad.copy()
            new = adam_step(state, params, grad)
            assert np.array_equal(params, params_before)
            assert np.array_equal(grad, grad_before)
            if ref.m is None:
                ref.m, ref.v = np.zeros_like(ref_params), np.zeros_like(ref_params)
            ref.step += 1
            grad = grad.astype(dtype)
            ref.m = ref.beta1 * ref.m + (1.0 - ref.beta1) * grad
            ref.v = ref.beta2 * ref.v + (1.0 - ref.beta2) * grad ** 2
            m_hat = ref.m / (1.0 - ref.beta1 ** ref.step)
            v_hat = ref.v / (1.0 - ref.beta2 ** ref.step)
            ref_params = ref_params - ref.lr * m_hat / (np.sqrt(v_hat) + ref.eps)
            assert np.array_equal(new, ref_params)
            assert np.array_equal(state.m, ref.m) and np.array_equal(state.v, ref.v)
            assert new.dtype == state.m.dtype == state.v.dtype == dtype
            params = new


class TestTrainBaseline:
    def test_synthetic_accuracy(self):
        ds = rl.make_synthetic(100, seed=4)
        trained = train_baseline(ds, steps=50, seed=0, hidden=(16, 16))
        assert accuracy(trained.model, ds.test_features, ds.test_labels) >= 0.9

    def test_zero_steps_is_initialization(self):
        ds = rl.make_synthetic(20, seed=0)
        trained = train_baseline(ds, steps=0, seed=5, hidden=(4,))
        fresh = MlpClassifier([ds.d, 4, 1], seed=5)
        assert trained.model.flatten().tobytes() == fresh.flatten().tobytes()

    def test_matches_reference_loop_bitwise(self):
        ds = rl.make_synthetic(50, seed=4)
        trained = train_baseline(ds, steps=25, seed=3, hidden=(8, 8), lr=0.02)
        X, y = ds.train_features, ds.train_labels
        net, state, losses = MlpClassifier([ds.d, 8, 8, 1], seed=3), AdamState(lr=0.02), []
        for _ in range(25):
            losses.append(net.bce_loss(X, y))
            net.set_flat(adam_step(state, net.flatten(), net.grad_params_bce(X, y)))
        assert trained.model.flatten().tobytes() == net.flatten().tobytes()
        assert trained.loss_trace.tobytes() == np.array(losses).tobytes()

    def test_divergence_reports_step(self):
        ds = rl.make_synthetic(20, seed=0)
        raw = ds.destandardize(ds.features).copy()
        raw[3, 0] = np.nan
        poisoned = rl.data._finalize(raw, ds.labels, ds.protected, ds.feature_names, seed=0)
        with pytest.raises(TrainingDiverged) as err:
            train_baseline(poisoned, steps=10, seed=0, hidden=(4,))
        assert err.value.step == 0

    def test_credit_shaped_accuracy_low_seventies(self, tmp_path):
        # overlapping class-conditional gaussians calibrated near 71% accuracy
        rng = np.random.default_rng(13)
        n, d_used = 1000, 7
        mu = 2 * 0.62 / np.sqrt(d_used)
        y = rng.integers(0, 2, size=n)
        informative = rng.normal(size=(n, d_used)) + np.where(y[:, None] == 1, mu / 2, -mu / 2)
        label_col = y.astype(float)
        cols = [f"f{i}" for i in range(d_used)] + ["y"]
        lines = [",".join(cols)]
        for i in range(n):
            lines.append(",".join(f"{v:.6f}" for v in informative[i]) + f",{int(label_col[i])}")
        path = tmp_path / "credit_shaped.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = rl.load_csv(path, rl.CsvSchema(label="y", protected_column="f0",
                                            protected_threshold=0.0))
        trained = train_baseline(ds, steps=50, seed=0, hidden=(32, 32))
        acc = accuracy(trained.model, ds.test_features, ds.test_labels)
        assert 0.661 <= acc <= 0.761


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        net = MlpClassifier([3, 5, 2, 1], seed=8)
        path = tmp_path / "model.npz"
        save_model(net, path)
        loaded = load_model(path)
        assert loaded.layer_dims == net.layer_dims
        assert loaded.seed == net.seed
        assert loaded.flatten().tobytes() == net.flatten().tobytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.npz")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_refused(self, tmp_path, value):
        net = MlpClassifier([3, 5, 1], seed=8)
        flat = net.flatten()
        flat[7] = value
        net.set_flat(flat)
        path = tmp_path / "model.npz"
        save_model(net, path)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: non-finite parameters$"):
            load_model(path)


def test_sigmoid_stable():
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0
    assert sigmoid(np.array([0.0]))[0] == 0.5


def _sigmoid_two_formulas(z):
    """The masked two-branch form `sigmoid` replaced, kept as its reference."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("scale", [1.0, 10.0, 100.0, 800.0])
def test_sigmoid_matches_two_formulas_bitwise(scale):
    z = np.random.default_rng(int(scale)).standard_normal(5000) * scale
    assert sigmoid(z).tobytes() == _sigmoid_two_formulas(z).tobytes()


def test_sigmoid_matches_two_formulas_on_special_values():
    z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    assert sigmoid(z).tobytes() == _sigmoid_two_formulas(z).tobytes()
