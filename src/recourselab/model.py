"""Feed-forward tanh classifier with analytic gradients and the two optimizers.

The network is a stack of tanh layers feeding a single sigmoid output.  All
gradients (with respect to parameters and to inputs) are exact reverse-mode
passes written against numpy, so they can be validated against central finite
differences and reused by the counterfactual search and the adversarial
trainer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

CHECKPOINT_VERSION = 1
DEFAULT_HIDDEN = (200, 200, 200, 200)
DEFAULT_LR = 0.01
PROB_CLIP = 1e-12   # keeps forward() strictly inside (0, 1)
BCE_CLIP = 1e-7     # probability clamp before the log in the loss value


class NumericError(ArithmeticError):
    """Non-finite activations; carries the offending layer index."""

    def __init__(self, layer: int):
        self.layer = layer
        super().__init__(f"non-finite activations in layer {layer}")


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int):
        self.step = step
        super().__init__(f"training loss became non-finite at step {step}")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below.

    Whole-array `where` rather than masked indexing, which costs more than
    the arithmetic at search batch sizes.  `minimum(z, -z)` rather than
    `-|z|` keeps even the sign of a nan that of the two formulas.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    q = 1.0 + e
    return np.where(z >= 0, 1.0 / q, e / q)


def _clip_prob(p: np.ndarray) -> np.ndarray:
    """`np.clip(p, PROB_CLIP, 1 - PROB_CLIP)` written into `p`: the same
    maximum-then-minimum, nan kept, without `np.clip`'s call overhead."""
    np.maximum(p, PROB_CLIP, out=p)
    return np.minimum(p, 1.0 - PROB_CLIP, out=p)


class MlpClassifier:
    """tanh MLP with sigmoid output probability.

    `layer_dims` runs [d, h_1, ..., h_L, 1].  The flat parameter vector
    enumerates (W, b) pairs layer by layer, weights row-major, and
    `unflatten(flatten())` is an exact round-trip.
    """

    def __init__(self, layer_dims: Sequence[int], seed: int = 0):
        dims = tuple(int(v) for v in layer_dims)
        if len(dims) < 2 or dims[-1] != 1 or any(v < 1 for v in dims):
            raise ValueError(f"bad layer dims {dims}: need [d, ..., 1]")
        self.layer_dims = dims
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def d(self) -> int:
        return self.layer_dims[0]

    @property
    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    # -- parameter vector -------------------------------------------------
    def flatten(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def unflatten(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.param_count,):
            raise ValueError(f"expected {self.param_count} parameters, got {vec.shape}")
        layers, offset = [], 0
        for w, b in zip(self.weights, self.biases):
            wv = vec[offset:offset + w.size].reshape(w.shape).copy()
            offset += w.size
            bv = vec[offset:offset + b.size].copy()
            offset += b.size
            layers.append((wv, bv))
        return layers

    def set_flat(self, vec: np.ndarray) -> None:
        layers = self.unflatten(vec)
        self.weights = [w for w, _ in layers]
        self.biases = [b for _, b in layers]

    def with_flat(self, vec: np.ndarray) -> "MlpClassifier":
        clone = MlpClassifier(self.layer_dims, self.seed)
        clone.set_flat(vec)
        return clone

    def clone(self) -> "MlpClassifier":
        return self.with_flat(self.flatten())

    # -- forward ------------------------------------------------------------
    def _forward(self, X: np.ndarray, check: bool = False):
        """Returns (activations per layer starting at the input, final logits)."""
        a = np.asarray(X, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.d:
            raise ValueError(f"expected (n, {self.d}) inputs, got {a.shape}")
        acts = [a]
        for i, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            a = a @ w
            a += b
            np.tanh(a, out=a)
            if check and not np.isfinite(a).all():
                raise NumericError(i)
            acts.append(a)
        z = a @ self.weights[-1]
        z += self.biases[-1]
        if check and not np.isfinite(z).all():
            raise NumericError(len(self.weights) - 1)
        return acts, z[:, 0]

    @staticmethod
    def _as_batch(x):
        x = np.asarray(x, dtype=float)
        return (x[None, :], True) if x.ndim == 1 else (x, False)

    def forward(self, x):
        """Positive-class probability, clipped to the open interval (0, 1)."""
        X, single = self._as_batch(x)
        _, z = self._forward(X)
        p = _clip_prob(sigmoid(z))
        return float(p[0]) if single else p

    def logits(self, x):
        X, single = self._as_batch(x)
        _, z = self._forward(X)
        return float(z[0]) if single else z

    def predict(self, x):
        p = self.forward(x)
        return p > 0.5

    # -- gradients with respect to the input --------------------------------
    def grad_input_full(self, X: np.ndarray, wrt: str = "prob"):
        """Input gradients for a 2-d batch; also returns (probs, logits).

        `wrt='prob'` differentiates the sigmoid probability, `wrt='logit'`
        the pre-sigmoid score (used by hinge objectives).
        """
        acts, z = self._forward(X)
        p = sigmoid(z)
        if wrt == "prob":
            g = (p * (1.0 - p))[:, None]
        elif wrt == "logit":
            g = np.ones((X.shape[0], 1))
        else:
            raise ValueError(f"unknown wrt {wrt!r}")
        for i in range(len(self.weights) - 1, 0, -1):
            g = g @ self.weights[i].T
            # 1 - a^2 overwrites the hidden activation, which nothing reads after
            da = np.square(acts[i], out=acts[i])
            g *= np.subtract(1.0, da, out=da)
        g = g @ self.weights[0].T
        return g, _clip_prob(p), z

    def grad_input(self, x, wrt: str = "prob"):
        X, single = self._as_batch(x)
        g, _, _ = self.grad_input_full(X, wrt=wrt)
        return g[0] if single else g

    # -- gradients with respect to the parameters ----------------------------
    def _grad_params_from_dz(self, acts, dz: np.ndarray) -> np.ndarray:
        """Backpropagate per-row output-logit gradients into a flat vector."""
        g = dz[:, None]
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = acts[i].T @ g
            grads_b[i] = g.sum(axis=0)
            if i > 0:
                g = (g @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        parts = []
        for gw, gb in zip(grads_w, grads_b):
            parts.append(gw.ravel())
            parts.append(gb.ravel())
        return np.concatenate(parts)

    def grad_params_bce(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of the mean binary cross entropy over the batch."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] == 0:
            raise ValueError("empty batch")
        acts, z = self._forward(X, check=True)
        p = sigmoid(z)
        return self._grad_params_from_dz(acts, (p - y) / X.shape[0])

    def grad_params_squared_push(self, X: np.ndarray, weights=None) -> np.ndarray:
        """Gradient of mean (f(x) - 1)^2 over the batch.

        With per-row `weights`, the gradient of sum_r weights[r] * (f(x_r) - 1)^2.
        """
        X = np.asarray(X, dtype=float)
        if X.shape[0] == 0:
            raise ValueError("empty batch")
        acts, z = self._forward(X, check=True)
        p = sigmoid(z)
        dz = 2.0 * (p - 1.0) * p * (1.0 - p)
        dz = dz / X.shape[0] if weights is None else dz * weights
        return self._grad_params_from_dz(acts, dz)

    def grad_params_hinge_logit(self, X: np.ndarray, weights=None) -> np.ndarray:
        """Gradient of mean max(0, 1 - logit(x)) over the batch.

        With per-row `weights`, the gradient of sum_r weights[r] * max(0, 1 - logit(x_r)).
        """
        X = np.asarray(X, dtype=float)
        if X.shape[0] == 0:
            raise ValueError("empty batch")
        acts, z = self._forward(X, check=True)
        active = (z < 1.0).astype(float)
        dz = -active / X.shape[0] if weights is None else -active * weights
        return self._grad_params_from_dz(acts, dz)

    # -- losses ------------------------------------------------------------
    def bce_loss(self, X: np.ndarray, y: np.ndarray) -> float:
        p = np.clip(self.forward(np.asarray(X, dtype=float)), BCE_CLIP, 1.0 - BCE_CLIP)
        y = np.asarray(y, dtype=float)
        return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    def squared_push_loss(self, X: np.ndarray) -> float:
        return float(np.mean((self.forward(np.asarray(X, dtype=float)) - 1.0) ** 2))


def accuracy(model: MlpClassifier, X: np.ndarray, y: np.ndarray) -> float:
    preds = model.forward(X) > 0.5
    return float(np.mean(preds == (np.asarray(y) == 1)))


# -- optimizers ---------------------------------------------------------------

@dataclass
class AdamState:
    lr: float = DEFAULT_LR
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One bias-corrected update; works on arrays of any shape.

    Updates `state.m` and `state.v` in place and returns new parameters;
    `params` and `grad` are not written.
    """
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.step += 1
    # Each product and sum in the textbook formulas' order: the same bits.
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    g2 = np.square(grad)
    g2 *= 1.0 - state.beta2
    state.v *= state.beta2
    state.v += g2
    update = state.m / (1.0 - state.beta1 ** state.step)       # m_hat
    update *= state.lr
    denom = state.v / (1.0 - state.beta2 ** state.step)        # v_hat
    np.sqrt(denom, out=denom)
    denom += state.eps
    update /= denom
    return np.subtract(params, update, out=update)


@dataclass
class MomentumState:
    lr: float = DEFAULT_LR
    momentum: float = 0.9
    step: int = 0
    velocity: np.ndarray | None = None


def sgd_momentum_step(state: MomentumState, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Heavy-ball update; `state.velocity` changes in place, `params` and
    `grad` are not written."""
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
    if state.velocity is None:
        state.velocity = np.zeros_like(params)
    state.step += 1
    state.velocity *= state.momentum
    state.velocity += grad
    update = state.lr * state.velocity
    return np.subtract(params, update, out=update)


# -- training -----------------------------------------------------------------

@dataclass
class TrainResult:
    model: MlpClassifier
    loss_trace: np.ndarray


def train_baseline(dataset, steps: int = 50, seed: int = 0,
                   hidden: Sequence[int] = DEFAULT_HIDDEN, lr: float = DEFAULT_LR,
                   batch_size: int | None = None) -> TrainResult:
    """Train an unmodified classifier with full-batch Adam steps.

    `batch_size=None` uses the whole train split each step (the default
    reading of an "optimization step"); a minibatch size samples rows with a
    seeded generator.
    """
    X = dataset.train_features
    y = dataset.train_labels
    net = MlpClassifier([dataset.d, *hidden, 1], seed=seed)
    state = AdamState(lr=lr)
    rng = np.random.default_rng(seed)
    losses = np.empty(steps)
    for step in range(steps):
        if batch_size is None:
            bx, by = X, y
        else:
            pick = rng.choice(X.shape[0], size=min(batch_size, X.shape[0]), replace=False)
            bx, by = X[pick], y[pick]
        loss = net.bce_loss(bx, by)
        if not np.isfinite(loss):
            raise TrainingDiverged(step)
        losses[step] = loss
        grad = net.grad_params_bce(bx, by)
        net.set_flat(adam_step(state, net.flatten(), grad))
    return TrainResult(model=net, loss_trace=losses)


# -- checkpoints ---------------------------------------------------------------

def save_model(model: MlpClassifier, path) -> None:
    """Versioned checkpoint: dims, flat float64 parameters, and seed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(
            fh,
            format_version=np.array(CHECKPOINT_VERSION),
            layer_dims=np.array(model.layer_dims, dtype=np.int64),
            params=model.flatten().astype("<f8"),
            seed=np.array(model.seed, dtype=np.int64),
        )


def load_model(path) -> MlpClassifier:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    with np.load(path) as blob:
        version = int(blob["format_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        net = MlpClassifier(blob["layer_dims"].tolist(), seed=int(blob["seed"]))
        net.set_flat(blob["params"].astype(float))
    return net
