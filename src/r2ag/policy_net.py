"""Two-layer softmax policy with hand-derived gradients.

The forward pass projects the explored-concept average with M, concatenates
it with the group state, pushes the result through W2 . ReLU(W1 . x), and
scores each candidate action by dot product with its action embedding. The
backward pass returns exact gradients of log pi(action) with respect to
W1, W2 and M, suitable for REINFORCE-style updates without an autodiff
framework; a weighted sum over many steps is one matrix product per
parameter.

Shapes for embedding dimension d: the group state is 4d, the projected
concept state is d, so W1 is (4d, 5d), W2 is (4d, 4d) and M is (d, d);
action embeddings are rows of length 4d.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .atomic_file import atomic_open
from .errors import DataFormatError

CHECKPOINT_VERSION = 1


@dataclass
class PolicyParams:
    d: int
    seed: int
    W1: np.ndarray  # (4d, 5d)
    W2: np.ndarray  # (4d, 4d)
    M: np.ndarray  # (d, d)


@dataclass
class ForwardCache:
    x: np.ndarray  # (5d,) concatenated input
    h1: np.ndarray  # (4d,) pre-activation
    a1: np.ndarray  # (4d,) post-ReLU
    z: np.ndarray  # (4d,)
    actions: np.ndarray  # (n, 4d) action embedding matrix
    logits: np.ndarray  # (n,)
    dist: np.ndarray  # (n,) softmax over logits
    c_avg: np.ndarray  # (d,) raw concept average, pre-projection


@dataclass
class GradientBundle:
    dW1: np.ndarray
    dW2: np.ndarray
    dM: np.ndarray

    @classmethod
    def zeros(cls, params: PolicyParams) -> "GradientBundle":
        return cls(
            np.zeros_like(params.W1),
            np.zeros_like(params.W2),
            np.zeros_like(params.M),
        )


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    a = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols))


def init_params(d: int, seed: int) -> PolicyParams:
    """Glorot-uniform initialization, deterministic per seed."""
    if d < 2:
        raise ValueError("embedding dimension must be >= 2")
    rng = np.random.default_rng(seed)
    W1 = _glorot(rng, 4 * d, 5 * d)
    W2 = _glorot(rng, 4 * d, 4 * d)
    M = _glorot(rng, d, d)
    return PolicyParams(d, seed, W1, W2, M)


def forward(
    params: PolicyParams,
    s_k: np.ndarray,
    c_avg: np.ndarray,
    actions: np.ndarray,
) -> ForwardCache:
    """Compute the action distribution and cache activations for backward."""
    d = params.d
    s_k = np.asarray(s_k, dtype=np.float64)
    c_avg = np.asarray(c_avg, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if s_k.shape != (4 * d,):
        raise ValueError(f"group state must have shape ({4 * d},), got {s_k.shape}")
    if c_avg.shape != (d,):
        raise ValueError(f"concept average must have shape ({d},), got {c_avg.shape}")
    if actions.ndim != 2 or actions.shape[1] != 4 * d:
        raise ValueError(f"action matrix must be (n, {4 * d}), got {actions.shape}")
    if actions.shape[0] < 1:
        raise ValueError("action matrix must have at least one row")

    s_c = params.M @ c_avg
    x = np.concatenate([s_k, s_c])
    h1 = params.W1 @ x
    a1 = np.maximum(h1, 0.0)
    z = params.W2 @ a1
    logits = actions @ z
    shifted = logits - logits.max()
    e = np.exp(shifted)
    dist = e / e.sum()
    return ForwardCache(x, h1, a1, z, actions, logits, dist, c_avg)


def sample_action(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF sample from the distribution using one uniform draw."""
    u = rng.random()
    cum = np.cumsum(dist)
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, len(dist) - 1)


def greedy_action(dist: np.ndarray) -> int:
    """Argmax action; ties resolve to the smallest index."""
    return int(np.argmax(dist))


def logprob_backward(
    params: PolicyParams, cache: ForwardCache, action: int
) -> GradientBundle:
    """Exact gradient of log dist[action] with respect to W1, W2, M.

    The one-step, weight-1 case of ``logprob_backward_batch``.
    """
    return logprob_backward_batch(params, [cache], [action], [1.0])


def logprob_backward_batch(
    params: PolicyParams,
    caches: list[ForwardCache],
    actions: list[int],
    weights: np.ndarray | list[float],
) -> GradientBundle:
    """sum_k weights[k] * gradient of log dist_k[actions[k]], for K cached steps.

    The K steps are stacked as rows (dz, a1, dh1, x, c_avg), so each
    parameter gradient is one weighted matrix product over them:
    dW2 = (w dZ)^T A1, dW1 = (w dH1)^T X and dM = (w dX[:, 4d:])^T C.
    K = 0 gives zeros. The ReLU subgradient at exactly zero is taken as zero.
    """
    d = params.d
    k = len(caches)
    if len(actions) != k or len(weights) != k:
        raise ValueError("need one action and one weight per cached step")
    if k == 0:
        return GradientBundle.zeros(params)
    dZ = np.empty((k, 4 * d))
    for row, (cache, action) in enumerate(zip(caches, actions)):
        if cache.x.shape != (5 * d,) or cache.actions.shape[1] != 4 * d:
            raise ValueError("cache does not match parameter shapes")
        n = cache.dist.shape[0]
        if not (0 <= action < n):
            raise ValueError(f"action index {action} out of range for {n} actions")
        dlogits = -cache.dist
        dlogits[action] += 1.0
        dZ[row] = cache.actions.T @ dlogits
    w = np.asarray(weights, dtype=np.float64)[:, None]
    X = np.stack([c.x for c in caches])
    H1 = np.stack([c.h1 for c in caches])
    A1 = np.stack([c.a1 for c in caches])
    C = np.stack([c.c_avg for c in caches])
    dW2 = (w * dZ).T @ A1
    dH1 = (dZ @ params.W2) * (H1 > 0.0)
    dW1 = (w * dH1).T @ X
    dM = (w * (dH1 @ params.W1[:, 4 * d :])).T @ C
    return GradientBundle(dW1, dW2, dM)


def save_checkpoint(params: PolicyParams, path) -> None:
    """Write {version, d, seed, W1, W2, M} as JSON; floats round-trip exactly.

    The bytes are those of ``json.dump`` of the whole payload, but each
    matrix row goes through the C encoder on its own, so the nested float
    lists are never built. The file is replaced atomically.
    """
    header = {"version": CHECKPOINT_VERSION, "d": params.d, "seed": params.seed}
    with atomic_open(path) as fh:
        fh.write(json.dumps(header)[:-1])
        for name in ("W1", "W2", "M"):
            fh.write(f', "{name}": [')
            for i, row in enumerate(getattr(params, name)):
                if i:
                    fh.write(", ")
                fh.write(json.dumps(row.tolist()))
            fh.write("]")
        fh.write("}\n")


def load_checkpoint(path) -> PolicyParams:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read file: {exc}", path=path) from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}", path=path) from exc
    if not isinstance(payload, dict) or payload.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"unsupported checkpoint version {payload.get('version')!r}", path=path
        )
    try:
        d = int(payload["d"])
        seed = int(payload["seed"])
        W1 = np.array(payload["W1"], dtype=np.float64)
        W2 = np.array(payload["W2"], dtype=np.float64)
        M = np.array(payload["M"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed checkpoint: {exc}", path=path) from exc
    expected = {"W1": (4 * d, 5 * d), "W2": (4 * d, 4 * d), "M": (d, d)}
    for name, arr in (("W1", W1), ("W2", W2), ("M", M)):
        if arr.shape != expected[name]:
            raise DataFormatError(
                f"{name} has shape {arr.shape}, expected {expected[name]}", path=path
            )
        if not np.all(np.isfinite(arr)):
            raise DataFormatError(f"{name} contains non-finite values", path=path)
    return PolicyParams(d, seed, W1, W2, M)
