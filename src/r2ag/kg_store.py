"""In-memory knowledge graph partitioned into semantic groups.

Concepts and directed, labelled relation edges load from two TSV files.
A graph is immutable after load and safe to share across any number of
readers; every derived index iterates in a fixed lexicographic order so
downstream walks are reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

CONCEPTS_HEADER = "id\tname\tgroup"
RELATIONS_HEADER = "src\trelation\tdst"

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def normalize_name(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace.

    Single normalization point shared with the concept linker.
    """
    return " ".join(_TOKEN_RE.findall(text.lower()))


@dataclass(frozen=True)
class Concept:
    id: str
    name: str
    group: str
    name_norm: str


@dataclass(frozen=True)
class RelationEdge:
    src: str
    label: str
    dst: str


class KnowledgeGraph:
    """Concept map, deduplicated edge list and the CSR neighbour index.

    Concepts are numbered once, in sorted-id order: ``ids[i]`` is concept
    ``i`` and ``index`` maps back, so the smallest int is the smallest id.
    Groups are numbered in sorted order too (``group_index``), and
    ``group_at[i]`` is the group int of concept ``i``. Forward neighbours
    are stored in CSR form, one slice per (source concept, destination
    group) pair: slot ``i * len(groups) + g`` spans
    ``indptr[slot]:indptr[slot + 1]`` of ``indices`` (destination ints) and
    ``labels`` (relation labels), in sorted (label, id) order. Slots of one
    source are adjacent, so with ``G = len(groups)`` concept ``i``'s
    neighbours in every group span ``indptr[i * G]:indptr[(i + 1) * G]``.
    """

    def __init__(self, concepts: dict[str, Concept], edges: list[RelationEdge]):
        self.concepts = dict(concepts)
        self.edges = list(edges)

        self.ids: tuple[str, ...] = tuple(sorted(self.concepts))
        self.index: dict[str, int] = {cid: i for i, cid in enumerate(self.ids)}
        members: dict[str, list[str]] = {}
        for cid in self.ids:
            members.setdefault(self.concepts[cid].group, []).append(cid)
        self.groups: dict[str, tuple[str, ...]] = {
            g: tuple(ids) for g, ids in sorted(members.items())
        }
        self.group_index: dict[str, int] = {g: k for k, g in enumerate(self.groups)}

        n_groups = len(self.groups)
        self.group_at: tuple[int, ...] = tuple(
            self.group_index[self.concepts[cid].group] for cid in self.ids
        )
        slots: list[tuple[int, str, int]] = []  # (slot, label, dst) per edge
        for e in self.edges:
            d = self.index[e.dst]
            slots.append((self.index[e.src] * n_groups + self.group_at[d], e.label, d))
        slots.sort()
        self.indptr = np.searchsorted(
            np.array([s for s, _, _ in slots], dtype=np.int64),
            np.arange(len(self.ids) * n_groups + 1),
        )
        self.indices = np.array([d for _, _, d in slots], dtype=np.int64)
        self.labels: list[str] = [label for _, label, _ in slots]

    def __contains__(self, cid: str) -> bool:
        return cid in self.concepts

    def name_of(self, cid: str) -> str:
        return self._concept(cid).name

    def group_of(self, cid: str) -> str:
        return self._concept(cid).group

    def all_groups(self) -> list[str]:
        return list(self.groups)

    def group_members(self, gid: str) -> tuple[str, ...]:
        """Sorted member ids of group ``gid``."""
        if gid not in self.groups:
            raise KeyError(f"unknown semantic group {gid!r}")
        return self.groups[gid]

    def neighbor_slice(self, i: int, g: int) -> tuple[int, int]:
        """CSR bounds of concept ``i``'s forward neighbours in group ``g``."""
        slot = i * len(self.groups) + g
        return int(self.indptr[slot]), int(self.indptr[slot + 1])

    def neighbors_in_group(self, cid: str, gid: str) -> list[tuple[str, str]]:
        """Forward neighbors of ``cid`` inside group ``gid``.

        Returned as (relation label, concept id) pairs in lexicographic
        order.
        """
        self._concept(cid)
        g = self.group_index.get(gid)
        if g is None:
            return []
        lo, hi = self.neighbor_slice(self.index[cid], g)
        return [(self.labels[k], self.ids[self.indices[k]]) for k in range(lo, hi)]

    def _concept(self, cid: str) -> Concept:
        try:
            return self.concepts[cid]
        except KeyError:
            raise KeyError(f"unknown concept id {cid!r}") from None


def _read_lines(path) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read file: {exc}", path=path) from exc


def load_kg(concepts_path, relations_path) -> KnowledgeGraph:
    """Load a graph from ``concepts.tsv`` and ``relations.tsv``.

    Rejects malformed lines (with line numbers), duplicate concept ids,
    edges whose endpoints are missing, and self-loop edges. Duplicate
    (src, relation, dst) triples are dropped silently.
    """
    lines = _read_lines(concepts_path)
    if not lines or lines[0] != CONCEPTS_HEADER:
        raise DataFormatError(
            "expected header 'id\\tname\\tgroup'", path=concepts_path, line=1
        )
    concepts: dict[str, Concept] = {}
    for no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not all(parts):
            raise DataFormatError(
                "expected 3 non-empty tab-separated fields", path=concepts_path, line=no
            )
        cid, name, group = parts
        if cid in concepts:
            raise DataFormatError(
                f"duplicate concept id {cid!r}", path=concepts_path, line=no
            )
        concepts[cid] = Concept(cid, name, group, normalize_name(name))
    if not concepts:
        raise DataFormatError("no concepts loaded (empty graph)", path=concepts_path)

    lines = _read_lines(relations_path)
    if not lines or lines[0] != RELATIONS_HEADER:
        raise DataFormatError(
            "expected header 'src\\trelation\\tdst'", path=relations_path, line=1
        )
    edges: list[RelationEdge] = []
    seen: set[tuple[str, str, str]] = set()
    for no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not all(parts):
            raise DataFormatError(
                "expected 3 non-empty tab-separated fields", path=relations_path, line=no
            )
        src, label, dst = parts
        if src not in concepts:
            raise DataFormatError(
                f"edge references unknown concept {src!r}", path=relations_path, line=no
            )
        if dst not in concepts:
            raise DataFormatError(
                f"edge references unknown concept {dst!r}", path=relations_path, line=no
            )
        if src == dst:
            raise DataFormatError(
                f"self-loop edge on concept {src!r}", path=relations_path, line=no
            )
        triple = (src, label, dst)
        if triple in seen:
            continue
        seen.add(triple)
        edges.append(RelationEdge(src, label, dst))

    kg = KnowledgeGraph(concepts, edges)
    if len(kg.groups) < 2:
        raise DataFormatError(
            "graph must span at least 2 semantic groups", path=concepts_path
        )
    return kg
