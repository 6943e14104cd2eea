"""Lexicon-based concept linking and per-patient group statistics.

Maps free text onto graph concepts by greedy longest-match over normalized
concept names, then derives the dominant (most keywords) and scarce (fewest
keywords) semantic groups that drive retrieval.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, read_records
from .kg_store import KnowledgeGraph, tokens


@dataclass
class PatientInput:
    """One patient record: id, pre-admission text, optional reference text."""

    id: str
    pre_admission: str
    reference: str | None = None


class _Lexicon:
    """Token-tuple lookup of concept names, to graph ints."""

    def __init__(self, kg: KnowledgeGraph):
        entries: dict[tuple[str, ...], int] = {}
        for c, name in enumerate(kg.names):
            key = tuple(tokens(name))
            if not key:
                continue
            # smallest int (so smallest id) wins when two concepts share a
            # normalized name
            entries.setdefault(key, c)
        self.entries = entries
        self.max_len = max((len(t) for t in entries), default=0)


_lexicon_cache: "weakref.WeakKeyDictionary[KnowledgeGraph, _Lexicon]" = (
    weakref.WeakKeyDictionary()
)


def _lexicon(kg: KnowledgeGraph) -> _Lexicon:
    lex = _lexicon_cache.get(kg)
    if lex is None:
        lex = _Lexicon(kg)
        _lexicon_cache[kg] = lex
    return lex


def link_concepts(text: str, kg: KnowledgeGraph) -> list[int]:
    """Graph ints of the concepts in ``text``, distinct, in first-occurrence
    order, by greedy longest-match, left-to-right, non-overlapping linking.

    Matching runs over ``kg_store.tokens``, the rule that also splits the
    concept names, so punctuation, whitespace and case differences are
    ignored.
    """
    return link_tokens(tokens(text), kg)


def link_tokens(toks: list[str], kg: KnowledgeGraph) -> list[int]:
    """``link_concepts`` of a text whose ``kg_store.tokens`` are ``toks``."""
    lex = _lexicon(kg)
    found: dict[int, None] = {}
    i = 0
    n = len(toks)
    while i < n:
        for length in range(min(lex.max_len, n - i), 0, -1):
            c = lex.entries.get(tuple(toks[i : i + length]))
            if c is not None:
                found.setdefault(c)
                i += length
                break
        else:
            i += 1
    return list(found)


def _group_counts(keywords: list[int], kg: KnowledgeGraph) -> np.ndarray:
    """Keywords per group int, over every graph group."""
    groups = np.array([kg.group_at[c] for c in keywords], dtype=np.int64)
    return np.bincount(groups, minlength=len(kg.groups))


def initial_group(keywords: list[int], kg: KnowledgeGraph) -> int:
    """Group int covering the most keywords; ties go to the smallest group
    int, which is the smallest group name."""
    if not keywords:
        raise ValueError("keyword list is empty")
    return int(np.argmax(_group_counts(keywords, kg)))


def scarce_group(keywords: list[int], kg: KnowledgeGraph) -> int:
    """Group int with the fewest keywords over ALL graph groups (zeros
    count); ties go to the smallest group int."""
    return int(np.argmin(_group_counts(keywords, kg)))


def load_corpus(path) -> list[PatientInput]:
    """Read a JSON-lines patient corpus: {id, pre_admission, reference?},
    under the record rule of ``errors.read_records``."""
    patients: list[PatientInput] = []
    for no, obj in read_records(path):
        pre = obj.get("pre_admission")
        ref = obj.get("reference")
        if not isinstance(pre, str) or not pre:
            raise DataFormatError("missing or empty 'pre_admission'", path=path, line=no)
        if ref is not None and not isinstance(ref, str):
            raise DataFormatError("'reference' must be a string", path=path, line=no)
        patients.append(PatientInput(obj["id"], pre, ref))
    return patients
