import numpy as np
import pytest

import recourselab as rl
from recourselab.model import (
    PROB_CLIP, AdamState, MlpClassifier, MomentumState, TrainingDiverged, accuracy,
    adam_step, load_model, save_model, sgd_momentum_step, sigmoid, train_baseline,
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

    def test_sgd_zero_gradient_noop(self):
        state = MomentumState(lr=0.01)
        params = np.array([1.0, -2.0])
        new = sgd_momentum_step(state, params, np.zeros(2))
        assert np.array_equal(new, params)

    def test_momentum_accumulates(self):
        state = MomentumState(lr=0.1, momentum=0.9)
        params = np.zeros(1)
        params = sgd_momentum_step(state, params, np.ones(1))
        params = sgd_momentum_step(state, params, np.ones(1))
        assert params[0] == pytest.approx(-0.1 - 0.19)

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
    out-of-place formulas: equal to the bit, and their arguments untouched."""

    def _textbook_forward(self, net, X):
        acts, a = [X], X
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            a = np.tanh(a @ w + b)
            acts.append(a)
        z = (a @ net.weights[-1] + net.biases[-1])[:, 0]
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
                g = g0
                for i in range(len(net.weights) - 1, 0, -1):
                    g = (g @ net.weights[i].T) * (1.0 - acts[i] ** 2)
                g = g @ net.weights[0].T
                got_g, got_p, got_z = net.grad_input_full(X, wrt=wrt)
                assert np.array_equal(got_g, g)
                assert np.array_equal(got_p, clipped)
                assert np.array_equal(got_z, z)
            assert np.array_equal(X, X_before)

    def test_adam_steps(self):
        rng = np.random.default_rng(6)
        state, ref = AdamState(lr=0.05), AdamState(lr=0.05)
        params = rng.normal(size=(12, 3, 2))
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
            ref.m = ref.beta1 * ref.m + (1.0 - ref.beta1) * grad
            ref.v = ref.beta2 * ref.v + (1.0 - ref.beta2) * grad ** 2
            m_hat = ref.m / (1.0 - ref.beta1 ** ref.step)
            v_hat = ref.v / (1.0 - ref.beta2 ** ref.step)
            ref_params = ref_params - ref.lr * m_hat / (np.sqrt(v_hat) + ref.eps)
            assert np.array_equal(new, ref_params)
            assert np.array_equal(state.m, ref.m) and np.array_equal(state.v, ref.v)
            params = new

    def test_momentum_steps(self):
        rng = np.random.default_rng(7)
        state = MomentumState(lr=0.05, momentum=0.9)
        params = rng.normal(size=(12, 3, 2))
        ref_params, velocity = params.copy(), np.zeros_like(params)
        for _ in range(6):
            grad = rng.normal(size=params.shape)
            params_before, grad_before = params.copy(), grad.copy()
            new = sgd_momentum_step(state, params, grad)
            assert np.array_equal(params, params_before)
            assert np.array_equal(grad, grad_before)
            velocity = 0.9 * velocity + grad
            ref_params = ref_params - 0.05 * velocity
            assert np.array_equal(new, ref_params)
            assert np.array_equal(state.velocity, velocity)
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
