"""Concept embedding tables and pooled group vectors.

Concept vectors come either from a flat file or from a seeded generator
that stands in for a neural text encoder. Stored vectors are unit-norm;
group vectors concatenate a mean-pool and a max-pool over the member
vectors, so a table of dimension d yields group vectors of dimension 2d.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DataFormatError, read_lines
from .kg_store import KnowledgeGraph

_DIM_RE = re.compile(r"^dim=(\d+)$")

# rows gathered at a time by ``cosines`` (candidate rows) and
# ``avg_embeddings`` (padded set rows): a batched call holds one chunk of
# gathered vectors, whatever its number of rows
GATHER_ROWS = 128


@dataclass
class EmbeddingTable:
    """Unit-norm concept vectors as one ``(n, d)`` matrix in a graph's int
    order: row ``i`` is concept ``kg.ids[i]``, so graph ints index it."""

    dim: int
    matrix: np.ndarray  # (len(kg.ids), dim)

    def __post_init__(self):
        self.norms = np.linalg.norm(self.matrix, axis=1)


def fingerprint(table: EmbeddingTable) -> str:
    """``sha256:<hex>`` of the table matrix as C-order little-endian float64
    bytes: the same rule for file and pseudo tables, so it also tells apart
    pseudo tables built on different graphs."""
    data = np.ascontiguousarray(table.matrix, dtype="<f8")
    return "sha256:" + hashlib.sha256(data).hexdigest()


def check_table_rows(kg: KnowledgeGraph, table: EmbeddingTable) -> None:
    """Refuse a table whose row count is not the graph's concept count.

    Graph ints index table rows (see ``EmbeddingTable``), so every function
    that indexes a table with graph ints reaches this check first.
    """
    if len(table.matrix) != len(kg.ids):
        raise DataFormatError(
            f"embedding table has {len(table.matrix)} rows, the graph "
            f"{len(kg.ids)} concepts"
        )


def load_embeddings(path, kg: KnowledgeGraph) -> EmbeddingTable:
    """Load ``dim=<d>`` header plus one ``id\\tf1 f2 ... fd`` row per concept.

    Vectors are re-normalized to unit norm. Every graph concept must be
    covered; rows for ids outside the graph are checked like the rest and
    then dropped.
    """
    lines = read_lines(path)
    if not lines:
        raise DataFormatError("empty embedding file", path=path, line=1)
    m = _DIM_RE.match(lines[0])
    if not m:
        raise DataFormatError("expected 'dim=<d>' header", path=path, line=1)
    dim = int(m.group(1))
    if dim < 1:
        raise DataFormatError("dimension must be positive", path=path, line=1)

    matrix = None  # allocated once a row has confirmed the header's dimension
    seen: set[str] = set()
    for no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise DataFormatError("expected 'id\\t<floats>'", path=path, line=no)
        cid, blob = parts
        if cid in seen:
            raise DataFormatError(f"duplicate embedding row for {cid!r}", path=path, line=no)
        fields = blob.split()
        if len(fields) != dim:
            raise DataFormatError(
                f"dimension mismatch: expected {dim} values, got {len(fields)}",
                path=path,
                line=no,
            )
        if matrix is None:
            matrix = np.empty((len(kg.ids), dim), dtype=np.float64)
        try:
            v = np.array([float(f) for f in fields], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"bad float value: {exc}", path=path, line=no) from exc
        if not np.all(np.isfinite(v)):
            raise DataFormatError("non-finite embedding value", path=path, line=no)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise DataFormatError("zero vector cannot be normalized", path=path, line=no)
        seen.add(cid)
        i = kg.index.get(cid)
        if i is not None:
            matrix[i] = v / norm

    missing = [cid for cid in kg.ids if cid not in seen]
    if missing:
        raise DataFormatError(
            f"embeddings missing for {len(missing)} graph concept(s), "
            f"first missing: {missing[0]!r}",
            path=path,
        )
    return EmbeddingTable(dim, matrix)


def _hash_rng(*parts: str) -> np.random.Generator:
    digest = hashlib.blake2b("\x1f".join(parts).encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


# Strength of the shared per-group direction mixed into each concept vector.
# Kept well under the unit noise so that exact concept overlap between two
# averaged sets moves their cosine more than mere group co-membership does.
_GROUP_BIAS_WEIGHT = 0.5


def pseudo_embeddings(kg: KnowledgeGraph, d: int, seed: int) -> EmbeddingTable:
    """Deterministic stand-in for an encoder.

    Each concept vector is a keyed-hash expansion of (seed, id, group) with
    a group-dependent bias added before unit normalization, so same-group
    concepts have higher expected pairwise cosine than cross-group ones.
    Pure function of (kg, d, seed): identical inputs give identical tables.
    """
    if d < 2:
        raise ValueError("embedding dimension must be >= 2")
    # each group's weighted bias, scaled once; a norm is sqrt(v . v), as
    # np.linalg.norm computes it for a 1-D vector
    bias = []
    for gid in kg.groups:
        raw = _hash_rng(str(seed), "group-bias", gid).standard_normal(d)
        bias.append(_GROUP_BIAS_WEIGHT * (raw / math.sqrt(raw.dot(raw))))
    matrix = np.empty((len(kg.ids), d), dtype=np.float64)
    for i, (cid, g) in enumerate(zip(kg.ids, kg.group_at)):
        raw = _hash_rng(str(seed), "concept", cid, kg.groups[g]).standard_normal(d)
        v = bias[g] + raw / math.sqrt(raw.dot(raw))
        matrix[i] = v / math.sqrt(v.dot(v))
    return EmbeddingTable(d, matrix)


def avg_embedding(table: EmbeddingTable, concepts) -> np.ndarray:
    """Arithmetic mean of the vectors of graph ints ``concepts``; not
    re-normalized.

    Summation runs in ascending-int (sorted-id) order so the result is
    reproducible for any iterable of ints. The one-set case of
    ``avg_embeddings``.
    """
    return avg_embeddings(table, [sorted(concepts)])[0]


def avg_embeddings(table: EmbeddingTable, sets: list[list[int]]) -> np.ndarray:
    """Row ``p`` is the mean of the vectors of ``sets[p]``, a non-empty list
    of distinct graph ints in ascending order: a ``(len(sets), d)`` array.

    Consecutive sets are gathered together as ``(P, L, d)`` rows, each set
    padded to the longest with zero rows, at most ``GATHER_ROWS`` padded
    rows at a time (a longer set alone is one gather), then summed over the
    set axis. That sum adds the rows of a set one after another in ascending
    order, as a sum over the rows of one set alone does, and the padding
    adds exactly nothing (a NumPy sum starts from +0.0, so it is never
    -0.0), so each row is the same to the bit for any mix of sets.
    """
    counts = [len(s) for s in sets]
    if not all(counts):
        raise ValueError("cannot average an empty concept set")
    if len(sets) * max(counts) <= GATHER_ROWS:
        return _padded_mean(table, sets, counts)
    out = np.empty((len(sets), table.dim))
    start, longest = 0, 0
    for end, n in enumerate(counts):
        if (end - start + 1) * max(longest, n) > GATHER_ROWS and end > start:
            out[start:end] = _padded_mean(table, sets[start:end], counts[start:end])
            start, longest = end, 0
        longest = max(longest, n)
    out[start:] = _padded_mean(table, sets[start:], counts[start:])
    return out


def _padded_mean(table: EmbeddingTable, sets: list[list[int]], counts: list[int]) -> np.ndarray:
    """The means of ``sets`` (of ``counts`` members each) from one padded gather."""
    n = np.array(counts)[:, None]
    real = np.arange(max(counts)) < n  # (P, L): which slots hold a set member
    idx = np.zeros(real.shape, dtype=np.int64)
    idx[real] = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=sum(counts))
    rows = table.matrix[idx]
    rows[~real] = 0.0
    return rows.sum(axis=1) / n


def cosine(u, v) -> float | list[float]:
    """Cosine similarity in [-1, 1]; zero-norm inputs return 0.0.

    Returning 0.0 for degenerate vectors avoids NaN propagation in
    synthetic fixtures where averages can cancel exactly. Each input is
    first divided by its largest magnitude, so squaring inside the norm
    neither underflows nor overflows for very small or very large vectors.
    A (k, d) block ``u`` gives the list of its rows' cosines with ``v``,
    each to the bit what the row alone gives; ``v``'s side is computed once.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or u.ndim not in (1, 2) or u.shape[-1] != len(v):
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    rows = np.atleast_2d(u)
    out = [0.0] * len(rows)
    sv = float(np.abs(v).max(initial=0.0))
    if sv != 0.0:
        v = v / sv
        # sqrt(x . x) is how np.linalg.norm computes a vector's 2-norm; a
        # scaled vector's largest entry is exactly +-1, so its norm is not 0
        nv = math.sqrt(v.dot(v))
        su = np.abs(rows).max(axis=1, initial=0.0)
        for i in su.nonzero()[0].tolist():
            r = rows[i] / su[i]
            out[i] = min(max(float(r.dot(v)) / (math.sqrt(r.dot(r)) * nv), -1.0), 1.0)
    return out if u.ndim == 2 else out[0]


def cosines(table: EmbeddingTable, rows, V: np.ndarray, lens=None) -> np.ndarray:
    """Cosine of table row ``rows[i]`` against each row of ``V[i]``, for
    ``V`` of shape ``(len(rows), k, d)``: a ``(len(rows), k)`` array.

    With ``lens``, ``V[p]`` serves the next ``lens[p]`` rows, as
    ``np.repeat(V, lens, axis=0)`` would; its norms are taken before the
    repeat, so no squared copy of the repeated block is made.
    The same clipping and zero-norm rule as ``cosine``. The rows are scored
    ``GATHER_ROWS`` at a time, each chunk gathering its table rows and its
    rows of ``V``, so a call holds one chunk of those, not one per row. Each
    entry depends only on its own pair, so it is the same to the bit in any
    batch and any chunk.
    """
    rows = np.asarray(rows)
    norms = np.linalg.norm(V, axis=-1)
    owner = None if lens is None else np.repeat(np.arange(len(V)), lens)
    served = len(V) if owner is None else len(owner)
    if served != len(rows):
        raise ValueError(f"{len(rows)} rows but vectors for {served}")
    den = table.norms[rows][:, None] * (norms if owner is None else norms[owner])
    dots = np.empty_like(den)
    for start in range(0, len(rows), GATHER_ROWS):
        part = slice(start, start + GATHER_ROWS)
        vecs = V[part] if owner is None else V[owner[part]]
        np.einsum("cd,ckd->ck", table.matrix[rows[part]], vecs, out=dots[part])
    out = np.zeros_like(dots)
    np.divide(dots, den, out=out, where=den != 0.0)
    return np.clip(out, -1.0, 1.0, out=out)


def group_vectors(kg: KnowledgeGraph, table: EmbeddingTable) -> np.ndarray:
    """[mean-pool || max-pool] over each group's member vectors.

    One row per group in ``kg.group_index`` order: shape ``(n_groups, 2d)``.
    """
    check_table_rows(kg, table)
    group_at = np.asarray(kg.group_at)
    pooled = []
    for g in range(len(kg.groups)):
        rows = table.matrix[group_at == g]  # members in ascending-int order
        pooled.append(np.concatenate([rows.mean(axis=0), rows.max(axis=0)]))
    return np.stack(pooled)
