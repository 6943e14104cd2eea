"""Two-layer softmax policy with hand-derived gradients.

The forward pass projects the explored-concept average with M, concatenates
it with the group state, pushes the result through W2 . ReLU(W1 . x), and
scores each candidate action by dot product with its action embedding. It
runs on a block of R states at once, one row each, against one action
matrix shared by every row. The backward pass returns exact gradients of
log pi(action) with respect to W1, W2 and M, suitable for REINFORCE-style
updates without an autodiff framework; a weighted sum over many steps is
one ``dlogits @ A`` product per action matrix A, then one per parameter,
formed in row blocks. ``block_ascent`` adds each block into the weights as
it is formed, so a training step holds no second copy of the weights.

Shapes for embedding dimension d: the group state is 4d, the projected
concept state is d, so W1 is (4d, 5d), W2 is (4d, 4d) and M is (d, d);
action embeddings are rows of length 4d. The rollouts score group a with
the row [0 || group vector a] (see ``gro_trainer.run_rollouts``).
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
from dataclasses import dataclass

import numpy as np

from .atomic_file import atomic_open
from .errors import DataFormatError

# the first line of a version-3 checkpoint; no JSON text starts with "R"
CHECKPOINT_MAGIC = b"R2AG-CHECKPOINT 3\n"
# bytes of a matrix written, or read, at a time by the checkpoint I/O
CHECKPOINT_BLOCK_BYTES = 24 << 12
# rows of a parameter's gradient formed at a time by ``block_backward`` and
# ``block_ascent``: one block, not a second copy of the weights, is held by a
# training step. Part of the trained weights' bytes (see ``_gradient_blocks``)
GRADIENT_BLOCK_ROWS = 64
# longest header line read: far above any the writer makes, whose longest
# part, the seed, has at most 4300 digits (Python's int-to-text limit)
_HEADER_BYTES = 1 << 16


@dataclass
class PolicyParams:
    d: int
    seed: int
    W1: np.ndarray  # (4d, 5d)
    W2: np.ndarray  # (4d, 4d)
    M: np.ndarray  # (d, d)
    # fingerprint of the embedding table the weights were trained on (see
    # ``embeddings.fingerprint``); None when unknown, as for fresh weights
    embeddings: str | None = None


def param_shapes(d: int) -> dict[str, tuple[int, int]]:
    """Shapes of W1, W2 and M for embedding dimension ``d``, in that order."""
    return {"W1": (4 * d, 5 * d), "W2": (4 * d, 4 * d), "M": (d, d)}


@dataclass
class ForwardCache:
    """Activations of a block of R states, or of one state as 1-D rows."""

    x: np.ndarray  # (R, 5d) concatenated input
    h1: np.ndarray  # (R, 4d) pre-activation
    z: np.ndarray  # (R, 4d)
    actions: np.ndarray  # (n, 4d) action embedding matrix, shared by every row
    dist: np.ndarray  # (R, n) softmax over each row's logits
    c_avg: np.ndarray  # (R, d) raw concept average, pre-projection

    def row(self, i: int) -> "ForwardCache":
        """State ``i`` of a block as a one-state cache of row views; it
        refers to the block's action matrix, not a copy."""
        return ForwardCache(
            self.x[i], self.h1[i], self.z[i], self.actions,
            self.dist[i], self.c_avg[i],
        )


@dataclass
class GradientBundle:
    dW1: np.ndarray
    dW2: np.ndarray
    dM: np.ndarray


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    a = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols))


def init_params(d: int, seed: int) -> PolicyParams:
    """Glorot-uniform initialization, deterministic per seed."""
    if d < 2:
        raise ValueError("embedding dimension must be >= 2")
    rng = np.random.default_rng(seed)
    W1, W2, M = (_glorot(rng, *shape) for shape in param_shapes(d).values())
    return PolicyParams(d, seed, W1, W2, M)


def forward(
    params: PolicyParams,
    s_k: np.ndarray,
    c_avg: np.ndarray,
    actions: np.ndarray,
) -> ForwardCache:
    """Compute the action distributions of a block of states and cache
    activations for backward.

    ``s_k`` is (R, 4d) and ``c_avg`` (R, d), one row per state; every row is
    scored against the one (n, 4d) ``actions`` matrix. All products run on
    the last axis, so 1-D ``s_k`` and ``c_avg`` are the one-state case and
    give 1-D activations and an (n,) ``dist``. A row of a block rounds
    differently, in the last bits, from the same state run alone.
    """
    d = params.d
    s_k = np.asarray(s_k, dtype=np.float64)
    c_avg = np.asarray(c_avg, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if s_k.ndim not in (1, 2) or s_k.shape[-1] != 4 * d:
        raise ValueError(f"group state must have shape (R, {4 * d}), got {s_k.shape}")
    if c_avg.shape != s_k.shape[:-1] + (d,):
        raise ValueError(
            f"concept average must have shape {s_k.shape[:-1] + (d,)}, got {c_avg.shape}"
        )
    if actions.ndim != 2 or actions.shape[1] != 4 * d:
        raise ValueError(f"action matrix must be (n, {4 * d}), got {actions.shape}")
    if actions.shape[0] < 1:
        raise ValueError("action matrix must have at least one row")

    x = np.concatenate([s_k, c_avg @ params.M.T], axis=-1)
    h1 = x @ params.W1.T
    z = np.maximum(h1, 0.0) @ params.W2.T
    logits = z @ actions.T
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    dist = e / e.sum(axis=-1, keepdims=True)
    return ForwardCache(x, h1, z, actions, dist, c_avg)


def sample_action(dist: np.ndarray, u: float) -> int:
    """Inverse-CDF sample from the distribution at the uniform draw ``u``."""
    idx = int(dist.cumsum().searchsorted(u, side="right"))
    return min(idx, len(dist) - 1)


def greedy_action(dist: np.ndarray) -> int:
    """Argmax action; ties resolve to the smallest index."""
    return int(np.argmax(dist))


def logprob_backward(
    params: PolicyParams, cache: ForwardCache, action: int
) -> GradientBundle:
    """Exact gradient of log dist[action] with respect to W1, W2, M for a
    one-state cache (1-D rows, such as ``ForwardCache.row`` of a block): the
    one-row, weight-1 case of ``block_backward``."""
    if cache.x.ndim != 1:
        raise ValueError("cache does not match parameter shapes: one state per cache")
    return block_backward(params, [([cache], [0], [action], [1.0])])


def block_backward(params: PolicyParams, parts: list[tuple]) -> GradientBundle:
    """sum_k w_k * gradient of log pi(a_k | state k) over K cached rows.

    Each part is (blocks, rows, actions, weights): forward caches that share
    one action matrix A, the rows taken from their concatenation (a one-state
    cache is one row), and each row's action and weight. A part's dZ is one
    ``dlogits @ A`` product; the K rows are then stacked (dz, h1, x, c_avg),
    so each parameter gradient is one weighted matrix product over them:
    dW2 = (w dZ)^T A1, dW1 = (w dH1)^T X and dM = (w dX[:, 4d:])^T C,
    formed in blocks of ``GRADIENT_BLOCK_ROWS`` rows (see ``_gradient_blocks``)
    and written into a new bundle. No parts give zeros. The ReLU subgradient
    at exactly zero is taken as zero.
    """
    grads = {name: np.empty_like(getattr(params, name)) for name in ("W1", "W2", "M")}
    for name, rows, blk in _gradient_blocks(params, parts):
        grads[name][rows] = blk
    return GradientBundle(*grads.values())


def block_ascent(params: PolicyParams, parts: list[tuple], lr: float) -> None:
    """One gradient-ascent step in place: W += lr * the ``block_backward``
    gradient of ``parts``, for W1, W2 then M.

    Each row block of a gradient is scaled and added as it is formed
    (``blk *= lr; W[rows] += blk``) and freed before the next is formed, so
    a step holds one block, not a second copy of the weights, and gives the
    floats of ``block_backward`` followed by ``dW *= lr; W += dW``.
    """
    for name, rows, blk in _gradient_blocks(params, parts):
        blk *= lr
        getattr(params, name)[rows] += blk
        del blk


def _gradient_blocks(params: PolicyParams, parts: list[tuple]):
    """Yield (name, rows, block): the gradient of parameter ``name`` (W1, W2,
    then M) at the row slice ``rows``, in blocks of ``GRADIENT_BLOCK_ROWS``.

    Every factor that reads the weights (dH1 reads W2, the M path W1) is
    formed before the first block is yielded, so a caller may update the
    weights block by block. The stacked rows are freed once the factors are
    formed, and each parameter's factors once its last block is yielded. A
    block of a product rounds as BLAS rounds it, which for some shapes
    differs in the last bits from one product over all rows, so the block
    size is part of the trained weights' bytes.
    """
    d = params.d
    stacks = [_part_rows(d, *part) for part in parts]
    if not stacks:  # K = 0 rows: every product is zeros
        stacks.append(tuple(np.empty((0, n)) for n in (4 * d, 5 * d, 4 * d, d)) + ([],))
    dZ, X, H1, C, w = (np.concatenate(m) for m in zip(*stacks))
    w = w[:, None]
    dH1 = (dZ @ params.W2) * (H1 > 0.0)
    factors = {
        "W1": ((w * dH1).T, X),
        "W2": ((w * dZ).T, np.maximum(H1, 0.0)),
        "M": ((w * (dH1 @ params.W1[:, 4 * d :])).T, C),
    }
    del stacks, dZ, X, H1, C, dH1
    step = GRADIENT_BLOCK_ROWS
    for name in ("W1", "W2", "M"):
        left, right = factors.pop(name)
        for start in range(0, len(left), step):
            rows = slice(start, start + step)
            yield name, rows, left[rows] @ right


def _part_rows(d: int, blocks, rows, acts, weights) -> tuple:
    """dZ, x, h1 and c_avg of one part's rows (see ``block_backward``), and
    their weights."""
    A = blocks[0].actions
    if blocks[0].x.shape[-1] != 5 * d or A.shape[1] != 4 * d:
        raise ValueError("cache does not match parameter shapes")
    bad = [a for a in acts if not 0 <= a < len(A)]
    if bad:
        raise ValueError(f"action index {bad[0]} out of range for {len(A)} actions")
    dist, x, h1, c_avg = (
        np.concatenate([getattr(b, name) for b in blocks]).reshape(-1, width)[rows]
        for name, width in (("dist", len(A)), ("x", 5 * d), ("h1", 4 * d), ("c_avg", d))
    )
    dlogits = -dist
    dlogits[np.arange(len(acts)), acts] += 1.0
    return dlogits @ A, x, h1, c_avg, weights


def save_checkpoint(params: PolicyParams, path) -> None:
    """Write a version-3 checkpoint: the line ``CHECKPOINT_MAGIC``, one JSON
    header line {d, seed, embeddings, weights}, then W1, W2 and M as their
    C-order little-endian float64 bytes, back to back.

    ``weights`` is ``sha256:<hex>`` of those bytes. Floats round-trip
    bit-exactly and equal parameters give equal bytes. Each matrix is hashed
    and written from a view of its bytes, in blocks of
    ``CHECKPOINT_BLOCK_BYTES``, so no copy of a matrix is made. The file is
    replaced atomically.
    """
    views = [
        np.ascontiguousarray(getattr(params, name), dtype="<f8").reshape(-1).view(np.uint8)
        for name in param_shapes(params.d)
    ]
    digest = hashlib.sha256()
    for raw in views:
        digest.update(raw)
    header = {
        "d": params.d, "seed": params.seed, "embeddings": params.embeddings,
        "weights": "sha256:" + digest.hexdigest(),
    }
    block = CHECKPOINT_BLOCK_BYTES
    with atomic_open(path) as fh:
        fh.write(CHECKPOINT_MAGIC.decode("ascii") + json.dumps(header) + "\n")
        fh.flush()
        for raw in views:
            for start in range(0, len(raw), block):
                fh.buffer.write(raw[start : start + block])


def load_checkpoint(path) -> PolicyParams:
    """Read a version-3 checkpoint; malformed content of any kind raises
    ``DataFormatError``. A ``null`` fingerprint loads as ``embeddings=None``.

    The file is read in one pass: each matrix goes straight into its array in
    blocks of ``CHECKPOINT_BLOCK_BYTES``, hashed as it is read, so a loaded
    checkpoint costs one copy of its weights plus a block. A file that does
    not start with ``CHECKPOINT_MAGIC``, such as one of versions 1 and 2, is
    refused.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
                raise DataFormatError(
                    'not a version-3 checkpoint (no "R2AG-CHECKPOINT 3" line); '
                    "versions 1 and 2 are no longer read",
                    path=path,
                )
            return _read_v3(fh, path)
    except OSError as exc:
        raise DataFormatError(f"cannot read file: {exc}", path=path) from exc


def _read_v3(fh, path) -> PolicyParams:
    """The rest of a version-3 checkpoint, after its magic line."""
    line = fh.readline(_HEADER_BYTES)
    if not line.endswith(b"\n"):
        raise DataFormatError(
            f"checkpoint header is not a line of at most {_HEADER_BYTES} bytes", path=path
        )
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise DataFormatError(f"invalid checkpoint header: {exc}", path=path) from exc
    if not isinstance(header, dict):
        raise DataFormatError("invalid checkpoint header: not a JSON object", path=path)
    d, seed, embeddings = _read_header(header, path)
    shapes = param_shapes(d)
    size = 8 * sum(rows * cols for rows, cols in shapes.values())
    # a file's length is checked before any array is made for its d
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode) and info.st_size - fh.tell() != size:
        raise DataFormatError(
            f"weights hold {info.st_size - fh.tell()} bytes, expected {size} for d={d}",
            path=path,
        )
    block = CHECKPOINT_BLOCK_BYTES
    digest = hashlib.sha256()
    mats, at = [], 0
    for shape in shapes.values():
        try:  # a stream's length is known only at its end
            arr = np.empty(shape, dtype="<f8")
        except (MemoryError, ValueError) as exc:
            raise DataFormatError(f"weights of d={d} do not fit in memory", path=path) from exc
        raw = arr.reshape(-1).view(np.uint8)
        for start in range(0, len(raw), block):
            chunk = raw[start : start + block]
            got = fh.readinto(chunk)
            digest.update(chunk[:got])
            at += got
            if got < len(chunk):
                raise DataFormatError(
                    f"weights hold {at} bytes, expected {size} for d={d}", path=path
                )
        mats.append(arr)
    if fh.read(1):
        raise DataFormatError(f"weights hold more than the {size} bytes of d={d}", path=path)
    if header["weights"] != "sha256:" + digest.hexdigest():
        raise DataFormatError("weights do not match the sha256 in the header", path=path)
    for name, arr in zip(shapes, mats):
        _check_finite(arr, name, path)
    # native float64: a copy only on a big-endian host
    return PolicyParams(d, seed, *(m.astype(np.float64, copy=False) for m in mats), embeddings)


def _read_header(payload: dict, path) -> tuple[int, int, str | None]:
    """``d``, ``seed`` and ``embeddings`` of a checkpoint's JSON header, once
    it is checked to hold them and ``weights``."""
    missing = [key for key in ("d", "seed", "embeddings", "weights") if key not in payload]
    if missing:
        raise DataFormatError(f"malformed checkpoint: missing {missing}", path=path)
    d, seed = payload["d"], payload["seed"]
    if type(d) is not int or d < 2 or type(seed) is not int:
        raise DataFormatError(
            f"d must be an int >= 2 and seed an int, got {d!r} and {seed!r}", path=path
        )
    embeddings = payload["embeddings"]
    if embeddings is not None and not isinstance(embeddings, str):
        raise DataFormatError(f"embeddings must be a string, got {embeddings!r}", path=path)
    return d, seed, embeddings


def _check_finite(arr: np.ndarray, name: str, path) -> None:
    # min and max carry any NaN or inf, without a full-size mask
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise DataFormatError(f"{name} contains non-finite values", path=path)
