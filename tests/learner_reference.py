"""The learner's per-step numerics as they stood before the in-place
rewrite: every forward pass, backward pass and Adam step allocated fresh
arrays, and the gradient was laid out through `_unflatten` on each call.

Kept only as the reference of the bitwise differential tests in
test_learner.py: QFunction.forward, q_values, loss_and_grads and
_adam_run must reproduce these values byte for byte.  The functions take
the QFunction as their first argument, in the place of self.
"""

import numpy as np

from safegov.learner import LearnerError


def _unflatten(flat: np.ndarray, sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    weights, biases, i = [], [], 0
    for a, b in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[i:i + a * b].reshape(a, b))
        i += a * b
    for b in sizes[1:]:
        biases.append(flat[i:i + b])
        i += b
    return weights, biases


def _normalize(q, X: np.ndarray) -> np.ndarray:
    return (X - q.in_lo) / q._span * 2.0 - 1.0


def forward(q, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    h = _normalize(q, X)
    for W, b in zip(q.weights[:-1], q.biases[:-1]):
        h = np.tanh(h @ W + b)
    out = h @ q.weights[-1] + q.biases[-1]
    return out[:, 0]


def q_values(q, x, actions: np.ndarray) -> np.ndarray:
    actions = np.atleast_2d(np.asarray(actions, dtype=float).reshape(len(actions), -1))
    x = np.asarray(x, dtype=float).ravel()
    X = np.hstack([np.tile(x, (actions.shape[0], 1)), actions])
    return forward(q, X)


def loss_and_grads(q, X, y) -> tuple[float, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    acts = [_normalize(q, X)]
    for W, b in zip(q.weights[:-1], q.biases[:-1]):
        acts.append(np.tanh(acts[-1] @ W + b))
    pred = (acts[-1] @ q.weights[-1] + q.biases[-1])[:, 0]
    err = pred - y
    n = y.size
    loss = float(err @ err / n)
    delta = (2.0 * err / n)[:, None]
    grad = np.empty_like(q.theta)
    gW, gb = _unflatten(grad, q.sizes)
    for li in range(len(q.weights) - 1, -1, -1):
        gW[li][...] = acts[li].T @ delta
        gb[li][...] = delta.sum(axis=0)
        if li > 0:
            delta = (delta @ q.weights[li].T) * (1.0 - acts[li] ** 2)
    return loss, grad


def _adam_run(q, X, y, train_idx, epochs, batch, lr, rng):
    m = np.zeros_like(q.theta)
    v = np.zeros_like(q.theta)
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0
    idx = np.array(train_idx)
    for _ in range(epochs):
        rng.shuffle(idx)
        for s in range(0, idx.size, batch):
            sel = idx[s:s + batch]
            loss, g = loss_and_grads(q, X[sel], y[sel])
            if not np.isfinite(loss):
                raise LearnerError(f"non-finite training loss {loss!r} (batch of {sel.size})")
            t += 1
            corr = np.sqrt(1 - b2 ** t) / (1 - b1 ** t)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g ** 2
            q.theta -= lr * corr * m / (np.sqrt(v) + eps)
