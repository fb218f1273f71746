"""Feed-forward tanh classifier with analytic gradients and the Adam optimizer.

The network is a stack of tanh layers feeding a single sigmoid output.  All
gradients (with respect to parameters and to inputs) are exact reverse-mode
passes written against numpy, so they can be validated against central finite
differences and reused by the counterfactual search and the adversarial
trainer.

The trainers get a loss and its gradients from one forward pass per batch
(`bce_loss_and_grad`, `squared_push_loss_and_grads`).  Every backward pass
overwrites the hidden activations of its own forward pass with the tanh
slopes 1 - a^2, which nothing reads afterwards; the caller's input is never
written.

Workspace rule.  A training loop that makes the same passes on every step
creates one `Workspace` and hands it to each pass; the passes then write the
hidden activations and the backward `g @ W.T` products into its flat float64
buffers instead of fresh arrays, with the same arithmetic and so the same
bits.  The loop that creates the workspace owns it, and it lives no longer
than that loop: no `MlpClassifier` keeps one, so `clone` and `with_flat`
cannot share one.  A pass of n rows uses the view of each buffer's leading
n rows, so batches of different sizes share one workspace, and a buffer
grows when a larger batch arrives.  No returned array aliases a buffer: the
parameter gradient, the probabilities and the input gradients are fresh
arrays, and the next pass may overwrite every buffer.  A pass without a
workspace runs the same lines and allocates each product.

`set_flat` makes the vector it receives the model's parameter storage, with
no copy, so a trainer that steps one flat vector out of place (`adam_step`)
holds one copy of the parameters; `with_flat` copies.

Row rule.  With BLAS pinned to one thread, a row's logit, probability and
input gradient have the same bits in every batch that holds it, wherever it
sits and however many rows the batch has.  BLAS computes a matrix-vector
product's tail rows, a product with a transposed view, and a product with
few columns each in other kernels, whose bits depend on where a row falls.
So every product goes through `_row_matmul`, which takes a one-column
product (the one-unit output layer) as a per-row dot product and runs any
other product on at least two rows, zero rows appended; and the
input-gradient chain (`_input_grad`) multiplies by contiguous copies of the
transposed weights, the last of them, `W_0.T` with one column per feature,
zero-padded to a multiple of 8 columns.  Single precision needs one more
step: on AVX-512, OpenBLAS's sgemm computes a product of at most 100^3
multiply-adds in a small-matrix kernel that gives a row other bits than its
blocked kernel, so `_row_matmul` zero-pads a float32 product's rows past
`SMALL_GEMM_MACS` (`_sgemm_rows`).  A product whose inner dimension is 1
rounds each entry once in either kernel and is not padded.  Without the
padding, 509 of 582 cut checks of a 98-row float32 batch on a 4x200 net
moved bits.  A `FrozenNet` holds the copies, in float64 or, for a search on
a big net (see `explainers`), in float32, and
`MlpClassifier.grad_input_full` builds one per call.  Packing a 4x200 net
costs 0.4-0.7 ms, more than half of a 96-row float32 descent step (about
0.8 ms), so a search builds one and keeps it through every step, as does a
hypergradient batch.
No `MlpClassifier` keeps one: its weights may be rewritten in place, and
the copies would go stale.  The trainers sum their rows, so they need no
rule: their backward products, phase one's input gradients among them,
multiply by transposed views of weights that change every step.  A threaded
BLAS may divide a product's rows among its threads, and then no rule holds
by construction; numpy 2.4.6's bundled OpenBLAS 0.3.31 with two threads on
2 CPUs moved no bit in any cut of the test suite's row-cut check.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import DataError

CHECKPOINT_VERSION = 1
DEFAULT_HIDDEN = (200, 200, 200, 200)
DEFAULT_LR = 0.01
PROB_CLIP = 1e-12   # keeps forward() strictly inside (0, 1)
BCE_CLIP = 1e-7     # probability clamp before the log in the loss value

# OpenBLAS's single-precision gemm on AVX-512 takes a product of at most
# 100^3 multiply-adds to a small-matrix kernel; `_sgemm_rows` pads past it.
SMALL_GEMM_MACS = 1 << 20
_FLOAT32 = np.dtype(np.float32)   # numpy's one float32 dtype: `is` compares


class NumericError(ArithmeticError):
    """Non-finite activations; carries the offending layer index."""

    def __init__(self, layer: int):
        self.layer = layer
        super().__init__(f"non-finite activations in layer {layer}")


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int):
        self.step = step
        super().__init__(f"training loss became non-finite at step {step}")


def _as_floats(x) -> np.ndarray:
    """`x` as an array: float32 stays float32, anything else is float64."""
    return x if getattr(x, "dtype", None) is _FLOAT32 else np.asarray(x, dtype=float)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below, in
    the input's precision (`_as_floats`).

    Whole-array `where` rather than masked indexing, which costs more than
    the arithmetic at search batch sizes.  `minimum(z, -z)` rather than
    `-|z|` keeps even the sign of a nan that of the two formulas.
    """
    z = _as_floats(z)
    e = np.exp(np.minimum(z, -z))
    q = 1.0 + e
    return np.where(z >= 0, 1.0 / q, e / q)


def _clip_prob(p: np.ndarray) -> np.ndarray:
    """`np.clip(p, PROB_CLIP, 1 - PROB_CLIP)` written into `p`: the same
    maximum-then-minimum, nan kept, without `np.clip`'s call overhead."""
    np.maximum(p, PROB_CLIP, out=p)
    return np.minimum(p, 1.0 - PROB_CLIP, out=p)


def _bce(p: np.ndarray, y) -> float:
    """Mean binary cross entropy of clipped probabilities `p` against `y`."""
    p = np.clip(p, BCE_CLIP, 1.0 - BCE_CLIP)
    y = np.asarray(y, dtype=float)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _squared_push(p: np.ndarray) -> float:
    """Mean (p - 1)^2 of clipped probabilities `p`."""
    return float(np.mean((p - 1.0) ** 2))


def _tanh_slope(a: np.ndarray) -> np.ndarray:
    """1 - a^2 written into the spent activation `a`."""
    np.square(a, out=a)
    return np.subtract(1.0, a, out=a)


class Workspace:
    """Flat float64 scratch buffers that one training loop reuses on every
    step; see the module's workspace rule."""

    def __init__(self):
        self._flat: dict[object, np.ndarray] = {}

    def rows(self, key, n: int, h: int) -> np.ndarray:
        """The (n, h) view of the leading n*h entries of buffer `key`."""
        flat = self._flat.get(key)
        if flat is None or flat.size < n * h:
            flat = self._flat[key] = np.empty(n * h)
        return flat[:n * h].reshape(n, h)


def _row_matmul(a: np.ndarray, w: np.ndarray, key=None,
                workspace: Workspace | None = None) -> np.ndarray:
    """`a @ w`, each row computed as the rows of a batch are (the module's
    row rule); with a workspace, a product of more than one column goes into
    its buffer `key`.

    numpy hands a product with one column, or with one row, to BLAS's
    matrix-vector kernel, which gives a row other bits than a batch does.
    So one column is a per-row dot product, and any other product runs on
    at least two rows (float32: `_sgemm_rows`), zero rows appended.
    """
    n, m = a.shape[0], w.shape[1]
    if m == 1:
        return np.vecdot(a, w[:, 0])[:, None]
    rows = _sgemm_rows(n, a.shape[1], m) if a.dtype is _FLOAT32 else n if n > 1 else 2
    out = None if workspace is None else workspace.rows(key, rows, m)
    if rows == n:
        return np.matmul(a, w, out=out)
    padded = np.zeros((rows, a.shape[1]), a.dtype)
    padded[:n] = a
    return np.matmul(padded, w, out=out)[:n]


def _sgemm_rows(n: int, inner: int, m: int) -> int:
    """Rows that a float32 (n, inner) @ (inner, m) product must run on to
    take BLAS's blocked kernel: at least two, and more than
    `SMALL_GEMM_MACS` multiply-adds, since single-precision gemm computes a
    smaller product in a kernel that gives its rows other bits.  A product
    whose inner dimension is 1 rounds each entry once in any kernel, so it
    needs no more (padding the output layer's backward product would give
    it 5,243 rows)."""
    if inner == 1:
        return max(n, 2)
    return max(n, 2, SMALL_GEMM_MACS // (inner * m) + 1)


def _forward(weights, biases, X: np.ndarray, check: bool, workspace: Workspace | None):
    """Returns (activations per layer starting at the input, final logits).

    In the input's precision (`_as_floats`) when the weights share it.  With
    a `workspace`, the hidden activations are views of its buffers.
    """
    a = _as_floats(X)
    d = weights[0].shape[0]
    if a.ndim != 2 or a.shape[1] != d:
        raise ValueError(f"expected (n, {d}) inputs, got {a.shape}")
    acts = [a]
    for i, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
        a = _row_matmul(a, w, ("act", i), workspace)
        a += b
        np.tanh(a, out=a)
        if check and not np.isfinite(a).all():
            raise NumericError(i)
        acts.append(a)
    z = _row_matmul(a, weights[-1])[:, 0]
    z += biases[-1]
    if check and not np.isfinite(z).all():
        raise NumericError(len(weights) - 1)
    return acts, z


def _input_grad(slopes, g: np.ndarray, back, first: np.ndarray, d: int,
                workspace: Workspace | None = None) -> np.ndarray:
    """Chain per-row output gradients `g` (n x 1) to the inputs through the
    tanh slopes held in `slopes[1:]`: times `back[i - 1]`, which is `W_i.T`,
    for each layer i from the last down to 1, then times `first`, which is
    `W_0.T` with at least `d` columns.  The result is a fresh (n, d) array.
    With a workspace, consecutive layers' products alternate between two of
    its buffers."""
    for i in range(len(back), 0, -1):
        g = _row_matmul(g, back[i - 1], ("prod", i % 2), workspace)
        g *= slopes[i]
    # contiguous: the search's element-wise steps on the padded product's
    # view ran 8% slower per desk step (two of eight columns used)
    return np.ascontiguousarray(_row_matmul(g, first)[:, :d])


class FrozenNet:
    """One net's weights as they were when it was built, with the copies that
    make each row's bits independent of its batch (the module's row rule).

    It computes in `dtype`.  In float64 it keeps the net's own weight and
    bias arrays; in float32 it keeps float32 copies of them, and nothing in
    float64.  Either way it adds contiguous copies of the weights'
    transposes, the first zero-padded to a multiple of 8 columns.  A write
    into the net's arrays after it was built would reach the net's own
    arrays but not the copies, so build one when the weights are final and
    drop it when they change.  It writes nothing.
    """

    def __init__(self, net: "MlpClassifier", dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.weights = [w.astype(self.dtype, copy=False) for w in net.weights]
        self.biases = [b.astype(self.dtype, copy=False) for b in net.biases]
        self.d = net.d
        self._back = [np.ascontiguousarray(w.T) for w in self.weights[1:]]
        w0 = self.weights[0]
        self._first = np.zeros((w0.shape[1], -(-self.d // 8) * 8), self.dtype)
        self._first[:, :self.d] = w0.T

    def grad_input_full(self, X: np.ndarray, wrt: str = "prob"):
        """`MlpClassifier.grad_input_full` of the net as it was, in its
        `dtype` for inputs of that dtype."""
        acts, z = _forward(self.weights, self.biases, X, False, None)
        p = sigmoid(z)
        if wrt == "prob":
            g = (p * (1.0 - p))[:, None]
        elif wrt == "logit":
            g = np.ones((z.shape[0], 1), self.dtype)
        else:
            raise ValueError(f"unknown wrt {wrt!r}")
        for a in acts[1:]:
            _tanh_slope(a)
        return _input_grad(acts, g, self._back, self._first, self.d), _clip_prob(p), z


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
        return [(w.copy(), b.copy()) for w, b in self._layer_views(vec)]

    def _layer_views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weights, bias) views into a vector in the flat parameter layout."""
        views, offset = [], 0
        for w, b in zip(self.weights, self.biases):
            views.append((vec[offset:offset + w.size].reshape(w.shape),
                          vec[offset + w.size:offset + w.size + b.size]))
            offset += w.size + b.size
        return views

    def set_flat(self, vec: np.ndarray) -> None:
        """Take `vec` itself as the parameter storage, without a copy: the
        weights and biases become views of it, so the caller must not write
        to it afterwards."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.param_count,):
            raise ValueError(f"expected {self.param_count} parameters, got {vec.shape}")
        views = self._layer_views(vec)
        self.weights = [w for w, _ in views]
        self.biases = [b for _, b in views]

    def with_flat(self, vec: np.ndarray) -> "MlpClassifier":
        """A new model holding a copy of `vec`."""
        clone = MlpClassifier(self.layer_dims, self.seed)
        clone.set_flat(np.array(vec, dtype=float))
        return clone

    def clone(self) -> "MlpClassifier":
        return self.with_flat(self.flatten())

    # -- forward ------------------------------------------------------------
    def _forward(self, X: np.ndarray, check: bool = False, workspace: Workspace | None = None):
        return _forward(self.weights, self.biases, X, check, workspace)

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

    # -- gradients with respect to the input --------------------------------
    def grad_input_full(self, X: np.ndarray, wrt: str = "prob"):
        """Input gradients for a 2-d batch; also returns (probs, logits).

        `wrt='prob'` differentiates the sigmoid probability, `wrt='logit'`
        the pre-sigmoid score (used by hinge objectives).  Builds a
        `FrozenNet` for the one call; a search builds its own once.
        """
        return FrozenNet(self).grad_input_full(X, wrt)

    def grad_input(self, x, wrt: str = "prob"):
        X, single = self._as_batch(x)
        g, _, _ = self.grad_input_full(X, wrt=wrt)
        return g[0] if single else g

    # -- gradients with respect to the parameters ----------------------------
    def _grad_params_from_dz(self, acts, dz: np.ndarray,
                             workspace: Workspace | None = None) -> np.ndarray:
        """Backpropagate per-row output-logit gradients into a fresh flat
        vector, each layer's products written straight into its slice.

        Leaves the tanh slopes in `acts[1:]`, which the caller owns; `acts[0]`
        is the caller's input and is not written.
        """
        grad = np.empty(self.param_count)
        views = self._layer_views(grad)
        g = dz[:, None]
        for i in range(len(self.weights) - 1, -1, -1):
            gw, gb = views[i]
            np.matmul(acts[i].T, g, out=gw)
            np.sum(g, axis=0, out=gb)
            if i > 0:
                g = _row_matmul(g, self.weights[i].T, ("prod", i % 2), workspace)
                g *= _tanh_slope(acts[i])
        return grad

    def bce_loss_and_grad(self, X: np.ndarray, y: np.ndarray,
                          workspace: Workspace | None = None) -> tuple[float, np.ndarray]:
        """`bce_loss` and `grad_params_bce` from one forward pass, in the
        `workspace`'s buffers when given; raises NumericError on non-finite
        activations."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] == 0:
            raise ValueError("empty batch")
        acts, z = self._forward(X, check=True, workspace=workspace)
        p = sigmoid(z)
        grad = self._grad_params_from_dz(acts, (p - y) / X.shape[0], workspace)
        return _bce(_clip_prob(p), y), grad

    def grad_params_bce(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of the mean binary cross entropy over the batch."""
        return self.bce_loss_and_grad(X, y)[1]

    def _squared_push_pass(self, X: np.ndarray, weights, workspace: Workspace | None = None):
        """(parameter gradient, tanh slopes, unclipped probabilities) of the
        squared push; see `grad_params_squared_push`."""
        X = np.asarray(X, dtype=float)
        if X.shape[0] == 0:
            raise ValueError("empty batch")
        acts, z = self._forward(X, check=True, workspace=workspace)
        p = sigmoid(z)
        dz = 2.0 * (p - 1.0) * p * (1.0 - p)
        dz = dz / X.shape[0] if weights is None else dz * weights
        return self._grad_params_from_dz(acts, dz, workspace), acts, p

    def grad_params_squared_push(self, X: np.ndarray, weights=None) -> np.ndarray:
        """Gradient of mean (f(x) - 1)^2 over the batch.

        With per-row `weights`, the gradient of sum_r weights[r] * (f(x_r) - 1)^2.
        """
        return self._squared_push_pass(X, weights)[0]

    def squared_push_loss_and_grads(self, X: np.ndarray, workspace: Workspace | None = None):
        """`squared_push_loss`, `grad_params_squared_push` and each row's input
        gradient of (f(x_r) - 1)^2, from one forward pass, in the
        `workspace`'s buffers when given.

        The input gradients are `2 (f(x_r) - 1) grad_input(x_r)`; both backward
        chains go through the same tanh slopes.  Raises NumericError on
        non-finite activations.
        """
        grad, slopes, p = self._squared_push_pass(X, None, workspace)
        # transposed views (the module's row rule): copies of weights that
        # change every step cost a 4x200 net 6% of its phase-one step
        back = [w.T for w in self.weights[1:]]
        g_in = _input_grad(slopes, (p * (1.0 - p))[:, None], back, self.weights[0].T, self.d,
                           workspace)
        probs = _clip_prob(p)
        return _squared_push(probs), grad, 2.0 * (probs - 1.0)[:, None] * g_in

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
        return _bce(self.forward(np.asarray(X, dtype=float)), y)

    def squared_push_loss(self, X: np.ndarray) -> float:
        return _squared_push(self.forward(np.asarray(X, dtype=float)))


def accuracy(model: MlpClassifier, X: np.ndarray, y: np.ndarray) -> float:
    preds = model.forward(X) > 0.5
    return float(np.mean(preds == (np.asarray(y) == 1)))


# -- optimizer ----------------------------------------------------------------

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
    """One bias-corrected update; works on arrays of any shape, in the
    parameters' precision (`_as_floats`), the state's moments included.

    Updates `state.m` and `state.v` in place and returns new parameters;
    `params` and `grad` are not written.
    """
    params = _as_floats(params)
    grad = np.asarray(grad, dtype=params.dtype)
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.step += 1
    # Each product and sum in the textbook formulas' order: the same bits.
    # One scratch array holds each term in turn, so a step allocates two
    # parameter-sized arrays, the scratch and the result.
    scratch = np.multiply(grad, 1.0 - state.beta1)
    state.m *= state.beta1
    state.m += scratch
    np.square(grad, out=scratch)
    scratch *= 1.0 - state.beta2
    state.v *= state.beta2
    state.v += scratch
    update = state.m / (1.0 - state.beta1 ** state.step)       # m_hat
    update *= state.lr
    denom = np.divide(state.v, 1.0 - state.beta2 ** state.step, out=scratch)   # v_hat
    np.sqrt(denom, out=denom)
    denom += state.eps
    update /= denom
    return np.subtract(params, update, out=update)


# -- training -----------------------------------------------------------------

@dataclass
class TrainResult:
    model: MlpClassifier
    loss_trace: np.ndarray


def train_baseline(dataset, steps: int = 50, seed: int = 0,
                   hidden: Sequence[int] = DEFAULT_HIDDEN,
                   lr: float = DEFAULT_LR) -> TrainResult:
    """Train an unmodified classifier with full-batch Adam steps: each step
    uses the whole train split, in one forward pass."""
    X = dataset.train_features
    y = dataset.train_labels
    net = MlpClassifier([dataset.d, *hidden, 1], seed=seed)
    state = AdamState(lr=lr)
    theta = net.flatten()
    net.set_flat(theta)
    workspace = Workspace()
    losses = np.empty(steps)
    for step in range(steps):
        try:
            loss, grad = net.bce_loss_and_grad(X, y, workspace)
        except NumericError:
            raise TrainingDiverged(step) from None
        if not np.isfinite(loss):
            raise TrainingDiverged(step)
        losses[step] = loss
        theta = adam_step(state, theta, grad)
        net.set_flat(theta)
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
    """The model `save_model` wrote: FileNotFoundError when there is no file,
    a DataError naming it unless it holds such a checkpoint, all finite."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    try:
        with np.load(path) as blob:
            version = int(blob["format_version"])
            if version == CHECKPOINT_VERSION:
                net = MlpClassifier(blob["layer_dims"].tolist(), seed=int(blob["seed"]))
                net.set_flat(blob["params"].astype(float))
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        raise DataError(f"{path} is not a model checkpoint") from None
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if not np.isfinite(net.flatten()).all():
        raise DataError(f"{path}: non-finite parameters")
    return net
