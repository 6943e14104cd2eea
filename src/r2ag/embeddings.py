"""Concept embedding tables and pooled group vectors.

Concept vectors come either from a flat file or from a seeded generator
that stands in for a neural text encoder. Stored vectors are unit-norm;
group vectors concatenate a mean-pool and a max-pool over the member
vectors, so a table of dimension d yields group vectors of dimension 2d.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .kg_store import KnowledgeGraph

_DIM_RE = re.compile(r"^dim=(\d+)$")


@dataclass
class EmbeddingTable:
    """Unit-norm concept vectors as one ``(n, d)`` matrix.

    ``ids[r]`` names row ``r``. A table built for a graph keeps the graph's
    concepts first, in its int order (row ``i`` is ``kg.ids[i]``), so graph
    ints index the matrix directly; rows for ids outside the graph follow.
    """

    dim: int
    ids: tuple[str, ...]
    matrix: np.ndarray  # (len(ids), dim)

    def __post_init__(self):
        self.row: dict[str, int] = {cid: r for r, cid in enumerate(self.ids)}
        self.norms = np.linalg.norm(self.matrix, axis=1)

    def vec(self, cid: str) -> np.ndarray:
        try:
            return self.matrix[self.row[cid]]
        except KeyError:
            raise KeyError(f"no embedding for concept {cid!r}") from None


def load_embeddings(path, kg: KnowledgeGraph) -> EmbeddingTable:
    """Load ``dim=<d>`` header plus one ``id\\tf1 f2 ... fd`` row per concept.

    Vectors are re-normalized to unit norm. Every graph concept must be
    covered; rows for ids outside the graph are kept untouched.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read file: {exc}", path=path) from exc
    if not lines:
        raise DataFormatError("empty embedding file", path=path, line=1)
    m = _DIM_RE.match(lines[0])
    if not m:
        raise DataFormatError("expected 'dim=<d>' header", path=path, line=1)
    dim = int(m.group(1))
    if dim < 1:
        raise DataFormatError("dimension must be positive", path=path, line=1)

    matrix = np.empty((len(kg.ids), dim), dtype=np.float64)
    seen: set[str] = set()
    extra_ids: list[str] = []
    extra_rows: list[np.ndarray] = []
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
        if i is None:
            extra_ids.append(cid)
            extra_rows.append(v / norm)
        else:
            matrix[i] = v / norm

    missing = [cid for cid in kg.ids if cid not in seen]
    if missing:
        raise DataFormatError(
            f"embeddings missing for {len(missing)} graph concept(s), "
            f"first missing: {missing[0]!r}",
            path=path,
        )
    if extra_rows:
        matrix = np.vstack([matrix, *extra_rows])
    return EmbeddingTable(dim, kg.ids + tuple(extra_ids), matrix)


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
    bias: dict[str, np.ndarray] = {}
    for gid in kg.all_groups():
        raw = _hash_rng(str(seed), "group-bias", gid).standard_normal(d)
        bias[gid] = raw / np.linalg.norm(raw)
    matrix = np.empty((len(kg.ids), d), dtype=np.float64)
    for i, cid in enumerate(kg.ids):
        group = kg.concepts[cid].group
        raw = _hash_rng(str(seed), "concept", cid, group).standard_normal(d)
        v = _GROUP_BIAS_WEIGHT * bias[group] + raw / np.linalg.norm(raw)
        matrix[i] = v / np.linalg.norm(v)
    return EmbeddingTable(d, kg.ids, matrix)


def avg_embedding(table: EmbeddingTable, concepts) -> np.ndarray:
    """Arithmetic mean of the concept vectors; not re-normalized.

    Summation runs in sorted-id order so the result is reproducible for
    any iterable of ids.
    """
    ids = sorted(concepts)
    if not ids:
        raise ValueError("cannot average an empty concept set")
    try:
        rows = [table.row[cid] for cid in ids]
    except KeyError as exc:
        raise KeyError(f"no embedding for concept {exc.args[0]!r}") from None
    return table.matrix[rows].sum(axis=0) / len(ids)


def cosine(u, v) -> float:
    """Cosine similarity in [-1, 1]; zero-norm inputs return 0.0.

    Returning 0.0 for degenerate vectors avoids NaN propagation in
    synthetic fixtures where averages can cancel exactly. Each input is
    first divided by its largest magnitude, so squaring inside the norm
    neither underflows nor overflows for very small or very large vectors.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    su = float(np.max(np.abs(u), initial=0.0))
    sv = float(np.max(np.abs(v), initial=0.0))
    if su == 0.0 or sv == 0.0:
        return 0.0
    u = u / su
    v = v / sv
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def cosines(table: EmbeddingTable, rows, X: np.ndarray) -> np.ndarray:
    """Cosine of table rows ``rows`` against each column of ``X`` (d, k).

    One matrix product; the same clipping and zero-norm rule as ``cosine``.
    Returns a ``(len(rows), k)`` array.
    """
    dots = table.matrix[rows] @ X
    den = table.norms[rows][:, None] * np.linalg.norm(X, axis=0)
    out = np.zeros_like(dots)
    np.divide(dots, den, out=out, where=den != 0.0)
    return np.clip(out, -1.0, 1.0, out=out)


def group_vector(kg: KnowledgeGraph, table: EmbeddingTable, gid: str) -> np.ndarray:
    """[mean-pool || max-pool] over the group's member vectors (length 2d)."""
    members = kg.group_members(gid)
    if not members:
        raise ValueError(f"group {gid!r} has no members")
    rows = np.stack([table.vec(cid) for cid in members])
    return np.concatenate([rows.mean(axis=0), rows.max(axis=0)])


@dataclass
class GroupVectorIndex:
    """All group vectors stacked for fast action-matrix assembly."""

    groups: tuple[str, ...]
    matrix: np.ndarray  # (n_groups, 2d), row order matches `groups`
    row: dict[str, int]

    def vec(self, gid: str) -> np.ndarray:
        return self.matrix[self.row[gid]]


def group_vectors(kg: KnowledgeGraph, table: EmbeddingTable) -> GroupVectorIndex:
    groups = tuple(kg.all_groups())
    matrix = np.stack([group_vector(kg, table, g) for g in groups])
    return GroupVectorIndex(groups, matrix, {g: i for i, g in enumerate(groups)})
