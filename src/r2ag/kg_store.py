"""In-memory knowledge graph partitioned into semantic groups.

Concepts and directed, labelled relation edges load from two TSV files.
A graph is immutable after load and safe to share across any number of
readers; every derived index iterates in a fixed lexicographic order so
downstream walks are reproducible.
"""

from __future__ import annotations

import re
import sys
from array import array

import numpy as np

from .errors import DataFormatError, read_tsv

CONCEPTS_HEADER = "id\tname\tgroup"
RELATIONS_HEADER = "src\trelation\tdst"

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokens(text: str) -> list[str]:
    """The lowercase alphanumeric tokens of ``text``: the one token rule of
    concept names, concept linking and evaluation. Text is lowercased before
    it is split, so a character whose lowercase is ASCII (such as U+212A
    KELVIN SIGN) tokenizes the same everywhere."""
    return _TOKEN_RE.findall(text.lower())


def normalize_name(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return " ".join(tokens(text))


def concept_ints(ids) -> dict[str, int]:
    """Graph int of each concept id: its position in sorted order."""
    return {cid: i for i, cid in enumerate(sorted(ids))}


class KnowledgeGraph:
    """Concept columns and the CSR neighbour index, all over graph ints.

    Concepts are numbered once, in sorted-id order (``concept_ints``):
    ``ids[i]`` and ``names[i]`` are concept ``i`` and ``index`` maps back,
    so the smallest int is the smallest id. ``groups`` holds the group
    names in sorted order, ``group_index`` maps back, and ``group_at[i]`` is
    the group int of concept ``i``. Forward neighbours are stored in CSR
    form, one slice per (source concept, destination group) pair: slot
    ``i * len(groups) + g`` spans ``indptr[slot]:indptr[slot + 1]`` of
    ``indices`` (destination ints) and ``labels`` (relation codes into
    ``label_names``, which is sorted), in sorted (label, id) order. Slots of
    one source are adjacent, so with ``G = len(groups)`` concept ``i``'s
    neighbours in every group span ``indptr[i * G]:indptr[(i + 1) * G]``.
    """

    def __init__(self, concepts: dict[str, tuple[str, str]], src, labels, dst):
        """``concepts`` maps each id to its (name, group); edge ``k`` runs
        from concept int ``src[k]`` to ``dst[k]`` under relation
        ``labels[k]``. Repeated (src, label, dst) triples are kept once."""
        self.index = concept_ints(concepts)
        self.ids: tuple[str, ...] = tuple(self.index)
        self.names: tuple[str, ...] = tuple(concepts[cid][0] for cid in self.ids)
        self.groups: tuple[str, ...] = tuple(sorted({g for _, g in concepts.values()}))
        self.group_index = {g: k for k, g in enumerate(self.groups)}
        self.group_at: tuple[int, ...] = tuple(
            self.group_index[concepts[cid][1]] for cid in self.ids
        )
        # Python string order: a NumPy "<U" array would drop trailing NULs
        self.label_names: tuple[str, ...] = tuple(sorted(set(labels)))
        code = {label: k for k, label in enumerate(self.label_names)}

        n_groups = len(self.groups)
        dst = np.asarray(dst, dtype=np.int64)
        lab = np.array([code[label] for label in labels], dtype=np.int64)
        slot = np.asarray(src, dtype=np.int64) * n_groups + np.asarray(
            self.group_at, dtype=np.int64
        )[dst]
        order = np.lexsort((dst, lab, slot))
        slot, lab, dst = slot[order], lab[order], dst[order]
        # (slot, label, dst) fixes the triple; keep the first of equal rows
        first = np.ones(len(order), dtype=bool)
        first[1:] = (np.diff(slot) != 0) | (np.diff(lab) != 0) | (np.diff(dst) != 0)
        self.indptr = np.searchsorted(slot[first], np.arange(len(self.ids) * n_groups + 1))
        self.indices = dst[first]
        self.labels = lab[first]

    def neighbor_slice(self, i, g):
        """CSR bounds ``(lo, hi)`` of concept ``i``'s forward neighbours in
        group ``g``; for int arrays ``i`` and ``g``, two arrays of bounds,
        one pair per position."""
        slot = i * len(self.groups) + g
        return self.indptr[slot], self.indptr[slot + 1]


def load_kg(concepts_path, relations_path) -> KnowledgeGraph:
    """Load a graph from ``concepts.tsv`` and ``relations.tsv``.

    Rejects malformed lines (with line numbers), duplicate concept ids,
    edges whose endpoints are missing, and self-loop edges. Duplicate
    (src, relation, dst) triples are dropped silently.
    """
    concepts: dict[str, tuple[str, str]] = {}
    for no, (cid, name, group) in read_tsv(concepts_path, CONCEPTS_HEADER):
        if cid in concepts:
            raise DataFormatError(
                f"duplicate concept id {cid!r}", path=concepts_path, line=no
            )
        concepts[cid] = (name, group)
    if not concepts:
        raise DataFormatError("no concepts loaded (empty graph)", path=concepts_path)

    index = concept_ints(concepts)
    src = array("q")
    labels: list[str] = []
    dst = array("q")
    # the reader frees each file's text once its last row is read
    for no, (s_id, label, d_id) in read_tsv(relations_path, RELATIONS_HEADER):
        s, d = index.get(s_id), index.get(d_id)
        if s is None or d is None:
            unknown = s_id if s is None else d_id
            raise DataFormatError(
                f"edge references unknown concept {unknown!r}", path=relations_path, line=no
            )
        if s == d:
            raise DataFormatError(
                f"self-loop edge on concept {s_id!r}", path=relations_path, line=no
            )
        src.append(s)
        labels.append(sys.intern(label))  # one string per distinct label
        dst.append(d)

    kg = KnowledgeGraph(concepts, src, labels, dst)
    if len(kg.groups) < 2:
        raise DataFormatError(
            "graph must span at least 2 semantic groups", path=concepts_path
        )
    return kg
