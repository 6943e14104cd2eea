"""Two-layer softmax policy with hand-derived gradients.

The forward pass projects the explored-concept average with M, concatenates
it with the group state, pushes the result through W2 . ReLU(W1 . x), and
scores each candidate action by dot product with its action embedding. It
runs on a block of R states at once, one row each, against one action
matrix shared by every row. The backward pass returns exact gradients of
log pi(action) with respect to W1, W2 and M, suitable for REINFORCE-style
updates without an autodiff framework; a weighted sum over many steps is
one ``dlogits @ A`` product per action matrix A, then one per parameter.

Shapes for embedding dimension d: the group state is 4d, the projected
concept state is d, so W1 is (4d, 5d), W2 is (4d, 4d) and M is (d, d);
action embeddings are rows of length 4d. The rollouts score group a with
the row [0 || group vector a] (see ``gro_trainer.run_rollouts``).
"""

from __future__ import annotations

import base64
import binascii
import io
import json
import re
import sys
from dataclasses import dataclass

import numpy as np

from .atomic_file import atomic_open
from .errors import DataFormatError

CHECKPOINT_VERSION = 2
# bytes of a matrix base64-encoded at a time by ``save_checkpoint``
CHECKPOINT_BLOCK_BYTES = 24 << 12


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


def block_backward(
    params: PolicyParams, parts: list[tuple], out: GradientBundle | None = None
) -> GradientBundle:
    """sum_k w_k * gradient of log pi(a_k | state k) over K cached rows.

    Each part is (blocks, rows, actions, weights): forward caches that share
    one action matrix A, the rows taken from their concatenation (a one-state
    cache is one row), and each row's action and weight. A part's dZ is one
    ``dlogits @ A`` product; the K rows are then stacked (dz, h1, x, c_avg),
    so each parameter gradient is one weighted matrix product over them:
    dW2 = (w dZ)^T A1, dW1 = (w dH1)^T X and dM = (w dX[:, 4d:])^T C.
    No parts give zeros. The ReLU subgradient at exactly zero is taken as zero.
    The three products are written into ``out``, a bundle of the parameters'
    shapes, when one is given (a trainer reuses one bundle for every update),
    else into a new one; either way the bundle is returned.
    """
    d = params.d
    if out is None:
        out = GradientBundle(*(np.empty_like(m) for m in (params.W1, params.W2, params.M)))
    if not parts:
        for m in (out.dW1, out.dW2, out.dM):
            m.fill(0.0)
        return out
    stacks = []  # per part: dZ, x, h1 and c_avg of its rows, and their weights
    for blocks, rows, acts, weights in parts:
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
        stacks.append((dlogits @ A, x, h1, c_avg, weights))
    dZ, X, H1, C, w = (np.concatenate(m) for m in zip(*stacks))
    w = w[:, None]
    np.matmul((w * dZ).T, np.maximum(H1, 0.0), out=out.dW2)
    dH1 = (dZ @ params.W2) * (H1 > 0.0)
    np.matmul((w * dH1).T, X, out=out.dW1)
    np.matmul((w * (dH1 @ params.W1[:, 4 * d :])).T, C, out=out.dM)
    return out


def save_checkpoint(params: PolicyParams, path) -> None:
    """Write a version-2 checkpoint: one JSON object {version, d, seed,
    embeddings, W1, W2, M}.

    Each matrix is the base64 of its C-order little-endian float64 bytes,
    so floats round-trip bit-exactly and equal parameters give equal bytes.
    Each matrix is encoded from a view of its bytes in blocks of
    ``CHECKPOINT_BLOCK_BYTES``, rounded down to whole floats and whole
    base64 groups (24 bytes), so the blocks' base64 is the whole matrix's
    and no copy of a matrix is made. The file is replaced atomically.
    """
    header = {
        "version": CHECKPOINT_VERSION, "d": params.d, "seed": params.seed,
        "embeddings": params.embeddings,
    }
    block = max(24, CHECKPOINT_BLOCK_BYTES // 24 * 24)
    with atomic_open(path) as fh:
        fh.write(json.dumps(header)[:-1])
        for name in param_shapes(params.d):
            m = np.ascontiguousarray(getattr(params, name), dtype="<f8")
            raw = memoryview(m.reshape(-1).view(np.uint8))
            fh.write(f', "{name}": "')
            for start in range(0, len(raw), block):
                fh.write(base64.b64encode(raw[start : start + block]).decode("ascii"))
            fh.write('"')
        fh.write("}\n")


_NAMES = ("W1", "W2", "M")
_NAME_BYTES = 12  # "W2" spelt with two \u escapes
_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
# a string's quote, or a structural character outside a string
_TOKEN = re.compile(rb'["{}\[\]:,]')


def _key(raw: bytearray) -> str | None:
    """The text of a JSON key from its raw bytes between the quotes, or
    None when they are too many to spell a matrix name, escapes and all."""
    if len(raw) > _NAME_BYTES:
        return None
    try:
        return json.loads(b'"' + raw + b'"')
    except ValueError:
        return None


def _matrix_spans(fh, block: int) -> list[tuple[str, int, int, int]]:
    """Pass 1 of ``load_checkpoint``: (name, start, stop, byte count) of each
    top-level W1, W2 or M string value that base64-decodes as it stands,
    in file order, as file offsets of its content between the quotes.

    Such a string holds only base64 alphabet characters, at most two
    trailing ``=`` and a multiple of 4 of them. Every other value (escapes,
    non-ASCII, bad padding, arrays, null) is left in place for ``json``.
    The file is read in blocks of ``block`` bytes; an open string and a
    pending escape carry over from one block to the next.
    """
    spans = []
    depth = 0
    expect = None  # what comes next at depth 1 ("key", "colon", "value"); None deeper
    key = None  # the last depth-1 key, when its raw text is short enough to be a name
    in_string = False
    skip = off = 0  # bytes to skip at the next block's start; chunk[0]'s offset
    while chunk := fh.read(block):
        i, n, skip = skip, len(chunk), 0
        while i < n:
            if not in_string:
                m = _TOKEN.search(chunk, i)
                if m is None:
                    break
                i, c = m.end(), m.group()
                if c == b'"':
                    in_string, start = True, off + i
                    stream = expect == "value" and key in _NAMES
                    text = bytearray() if expect == "key" else None  # a key's raw bytes
                    eqs, first_eq = 0, -1
                elif c in b"{[":
                    depth += 1
                    expect = "key" if depth == 1 else None
                elif c in b"}]":
                    depth -= 1
                    expect = None
                elif depth == 1:
                    expect = "key" if c == b"," else "value" if expect == "colon" else None
                continue
            q = chunk.find(b'"', i)
            end = n if q < 0 else q
            esc = chunk.find(b"\\", i, end)
            if esc >= 0:  # the escaped byte may be a quote: skip it
                end, stream = esc + 2, False
            elif stream:
                rest = chunk[i:end].translate(None, _ALPHABET)
                if rest.strip(b"="):
                    stream = False
                elif rest:
                    first_eq = first_eq if eqs else off + chunk.find(b"=", i, end)
                    eqs += len(rest)
            if text is not None and len(text) <= _NAME_BYTES:
                text += chunk[i : min(end, i + _NAME_BYTES + 1)]
            if esc >= 0 or q < 0:
                i, skip = min(end, n), max(end - n, 0)
                continue
            in_string, i, stop = False, q + 1, off + q
            if text is not None:
                key, expect = _key(text), "colon"
                continue
            expect = None
            if stream and (stop - start) % 4 == 0 and eqs <= 2 and (
                    not eqs or first_eq == stop - eqs):
                spans.append((key, start, stop, (stop - start) // 4 * 3 - eqs))
        off += n
    return spans


def _json_error(exc: json.JSONDecodeError, sites) -> str:
    """``exc``'s message with its position moved from the skeleton into the
    file's text: each (site, length) put ``length`` characters back in
    front of skeleton offset ``site``."""
    def shift(x: int) -> int:
        return x + sum(length for site, length in sites if site <= x)

    pos = shift(exc.pos)
    col = pos - shift(exc.doc.rfind("\n", 0, exc.pos))
    return f"{exc.msg}: line {exc.lineno} column {col} (char {pos})"


def _utf8_error(exc: UnicodeDecodeError, offset: int) -> str:
    """``exc``'s message for bytes that start at file offset ``offset``."""
    start = exc.start + offset
    if exc.end == exc.start + 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{exc.end + offset - 1}"
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


def _read_skeleton(fh, spans, path):
    """The file's JSON value with each span's content cut out, so that a
    streamed matrix reads as ``""``. The text is decoded as strict UTF-8
    with universal newlines, as ``open(path, encoding="utf-8")`` reads it,
    and any error names its place in the whole file."""
    parts, sites, at = [], [], 0
    for lo, hi in zip([0] + [stop for _, _, stop, _ in spans],
                      [start for _, start, _, _ in spans] + [None]):
        fh.seek(lo)
        raw = fh.read() if hi is None else fh.read(hi - lo)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"invalid JSON: {_utf8_error(exc, lo)}", path=path) from exc
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        parts.append(text)
        at += len(text)
        if hi is not None:
            sites.append((at, spans[len(sites)][2] - hi))
    try:
        return json.loads("".join(parts))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {_json_error(exc, sites)}", path=path) from exc
    except RecursionError as exc:
        raise DataFormatError(f"invalid JSON: {exc}", path=path) from exc


def _check_finite(arr: np.ndarray, name: str, path) -> np.ndarray:
    # min and max carry any NaN or inf, without a full-size mask
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise DataFormatError(f"{name} contains non-finite values", path=path)
    return arr


def _read_matrix(value, name: str, shape: tuple[int, int], path) -> np.ndarray:
    """Matrix ``name`` from the base64 of its C-order little-endian float64
    bytes, held in the JSON value ``value``."""
    if not isinstance(value, str):
        raise DataFormatError(f"{name} must be a base64 string", path=path)
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DataFormatError(f"{name} is not valid base64: {exc}", path=path) from exc
    _check_size(len(raw), name, shape, path)
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    return _check_finite(arr, name, path)


def _check_size(nbytes: int, name: str, shape: tuple[int, int], path) -> None:
    size = 8 * shape[0] * shape[1]
    if nbytes != size:
        raise DataFormatError(
            f"{name} has {nbytes} bytes, expected {size} for shape {shape}", path=path
        )


def _stream_matrix(fh, span, name: str, shape: tuple[int, int], block: int, path):
    """Pass 2 of ``load_checkpoint``: matrix ``name`` decoded from the file
    span of its base64, one block at a time, straight into its array."""
    _, start, stop, nbytes = span
    _check_size(nbytes, name, shape, path)
    arr = np.empty(shape, dtype=np.float64)
    out = memoryview(arr).cast("B")
    fh.seek(start)
    at = 0
    try:
        for pos in range(start, stop, block):
            raw = binascii.a2b_base64(fh.read(min(block, stop - pos)))
            out[at : at + len(raw)] = raw
            at += len(raw)
    except ValueError:  # the bytes no longer decode, or decode to too many
        at = -1
    if at != nbytes:
        raise DataFormatError(f"{name} changed while it was read", path=path)
    if sys.byteorder == "big":
        arr.byteswap(inplace=True)
    return _check_finite(arr, name, path)


def load_checkpoint(path) -> PolicyParams:
    """Read a version-2 checkpoint; any other version, and malformed content
    of any kind, raises ``DataFormatError``. A ``null`` fingerprint loads as
    ``embeddings=None``.

    The file is read in blocks of ``CHECKPOINT_BLOCK_BYTES``, twice: pass 1
    finds each matrix's base64 (``_matrix_spans``), ``json`` parses the rest,
    and pass 2 decodes each matrix block by block into its array, so a
    loaded checkpoint costs one copy of its weights plus a few blocks. A
    matrix string that does not decode as it stands goes through ``json``
    and ``base64`` whole. Either way every file loads the same bits, or
    fails with the same message, as a ``json.load`` of the whole file would.
    """
    block = max(4, CHECKPOINT_BLOCK_BYTES // 4 * 4)
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():  # a pipe is read whole, as json.load would read it
                fh = io.BytesIO(fh.read())
            spans = _matrix_spans(fh, block)
            payload = _read_skeleton(fh, spans, path)
            d, seed, embeddings = _read_header(payload, path)
            streamed = {span[0]: span for span in spans}  # the last of a repeated key wins
            mats = {}
            for name, shape in param_shapes(d).items():
                value = payload.pop(name)
                if value == "" and name in streamed:
                    mats[name] = _stream_matrix(fh, streamed[name], name, shape, block, path)
                else:
                    mats[name] = _read_matrix(value, name, shape, path)
    except OSError as exc:
        raise DataFormatError(f"cannot read file: {exc}", path=path) from exc
    return PolicyParams(d, seed, mats["W1"], mats["W2"], mats["M"], embeddings)


def _read_header(payload, path) -> tuple[int, int, str | None]:
    """``d``, ``seed`` and ``embeddings`` of a checkpoint's JSON value, once
    its version and keys are checked."""
    version = payload.get("version") if isinstance(payload, dict) else None
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version!r}", path=path)
    missing = [key for key in ("d", "seed", "embeddings", "W1", "W2", "M") if key not in payload]
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
