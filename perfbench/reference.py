"""Independent re-implementations that the benchmark checks outputs against.

Each recomputes a workload's trajectory from the same inputs, written
differently from the package: one stacked (n, d) array per state buffer
instead of per-agent objects, mixing by a neighbour gather built from the
graph's edge list instead of the dense weight matrix, and the gradients
written out here.  The gradient stream is drawn with the package's
documented keying, one generator per (seed, agent, round).  A change that
alters a rule, the mixing or the gradient stream shows as a mismatch far
above the float reordering between the two versions.
"""

from __future__ import annotations

import numpy as np


def gather_mixer(W):
    """Uniform-weight mixing X -> W X from the edge list of a regular graph."""
    nbrs: list[list[int]] = [[] for _ in range(W.n)]
    for a, b in W.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    degrees = {len(row) for row in nbrs}
    if len(degrees) != 1:
        raise ValueError(f"expected a regular graph, got degrees {sorted(degrees)}")
    idx = np.array(nbrs)
    peers = idx.shape[1] + 1

    def mix(X: np.ndarray) -> np.ndarray:
        out = X.copy()
        for k in range(idx.shape[1]):
            out += X[idx[:, k]]
        return out / peers

    return mix


def _substream(seed: int, agent: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(agent, rnd)))


def initial_point(seed: int, d: int, scale: float = 0.1) -> np.ndarray:
    """The shared starting parameters run_training draws for ``seed``."""
    return scale * np.random.default_rng(seed).standard_normal(d)


def step_size(eta: float, T: int, t: int) -> float:
    """Step at round t with 10x drops at 50% and 75% of T."""
    if t >= (3 * T) // 4:
        return eta * 0.1 * 0.1
    if t >= T // 2:
        return eta * 0.1
    return eta


def consensus_error(X: np.ndarray) -> float:
    centered = X - X.mean(axis=0)
    return float(np.sum(centered * centered) / X.shape[0])


def quadratic_gut(problem, W, eta: float, mu: float, T: int, seed: int) -> np.ndarray:
    """Final parameters of full-batch GUT on f_i(x) = 0.5||x - b_i||^2 + noise."""
    mix = gather_mixer(W)
    n, d = problem.b.shape
    X = np.tile(initial_point(seed, d), (n, 1))
    Y_prev = np.zeros_like(X)
    D_prev = np.zeros_like(X)
    for t in range(T):
        lr = step_size(eta, T, t)
        S = mix(X)
        noise = np.stack([_substream(seed, i, t).standard_normal(d) for i in range(n)])
        G = S - problem.b + problem.sigma * noise
        disp = (S - X) / lr
        delta = G - disp
        Y = delta + mu * (mix(Y_prev) - disp - D_prev)
        X, Y_prev, D_prev = X - lr * Y, Y, delta
    return X


def consensus_gut(W, X0: np.ndarray, mu: float, T: int) -> np.ndarray:
    """Final X of tracked averaging: X' = X + (W - I)X + mu[W Y' - (W - I)(X' - X)]."""
    mix = gather_mixer(W)
    X = X0.copy()
    X_prev = X0.copy()
    Y_prev = np.zeros_like(X)
    for _ in range(T):
        step = mix(X) - X
        Y = step + mu * (mix(Y_prev) - (mix(X_prev) - X_prev - step))
        X_prev, X, Y_prev = X, X + Y, Y
    return X


def _softmax_loss_grad(feats, labels, w):
    logits = feats @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    rows = np.arange(len(labels))
    probs = np.exp(log_probs)
    probs[rows, labels] -= 1.0
    return float(-log_probs[rows, labels].mean()), probs.T @ feats / len(labels)


def softmax_test_loss(problem, params: np.ndarray) -> float:
    w = params.reshape(problem.spec.n_classes, problem.spec.d)
    return _softmax_loss_grad(problem.test_features, problem.test_labels, w)[0]


def softmax_qg_gutm(
    problem, W, eta: float, mu: float, beta: float, T: int, batch: int, seed: int
) -> np.ndarray:
    """Final parameters of QG-GUTm on per-agent minibatch softmax regression."""
    mix = gather_mixer(W)
    k, d = problem.spec.n_classes, problem.spec.d
    n = len(problem.assignments)
    X = np.tile(initial_point(seed, k * d), (n, 1))
    M_prev = np.zeros_like(X)
    D_prev = np.zeros_like(X)
    for t in range(T):
        lr = step_size(eta, T, t)
        S = mix(X)
        G = np.empty_like(X)
        for i, local in enumerate(problem.assignments):
            if batch < len(local):
                local = local[_substream(seed, i, t).integers(0, len(local), size=batch)]
            _, g = _softmax_loss_grad(
                problem.features[local], problem.labels[local], S[i].reshape(k, d)
            )
            G[i] = g.ravel()
        disp = (S - X) / lr
        delta = G - disp
        Y = delta + mu * (mix(M_prev) - disp - D_prev)
        M = beta * M_prev + (1.0 - beta) * Y
        X_next = beta * X + (1.0 - beta) * (X - lr * Y) - lr * beta * M_prev
        X, M_prev, D_prev = X_next, M, delta
    return X


def softmax_centralized(problem, eta: float, T: int, seed: int) -> np.ndarray:
    """Full-batch gradient descent on all training data, same start and steps."""
    k, d = problem.spec.n_classes, problem.spec.d
    x = initial_point(seed, k * d)
    for t in range(T):
        _, g = _softmax_loss_grad(problem.features, problem.labels, x.reshape(k, d))
        x = x - step_size(eta, T, t) * g.ravel()
    return x
