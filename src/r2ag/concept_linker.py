"""Lexicon-based concept linking and per-patient group statistics.

Maps free text onto graph concepts by greedy longest-match over normalized
concept names, then derives the dominant (most keywords) and scarce (fewest
keywords) semantic groups that drive retrieval.
"""

from __future__ import annotations

import json
import re
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, read_text
from .kg_store import KnowledgeGraph, normalize_name

_WORD_RE = re.compile(r"[A-Za-z0-9]+")


@dataclass
class PatientInput:
    """One patient record: id, pre-admission text, optional reference text."""

    id: str
    pre_admission: str
    reference: str | None = None


class _Lexicon:
    """Token-tuple lookup of normalized concept names, to graph ints."""

    def __init__(self, kg: KnowledgeGraph):
        entries: dict[tuple[str, ...], int] = {}
        for c, name in enumerate(kg.names):
            tokens = tuple(normalize_name(name).split())
            if not tokens:
                continue
            # smallest int (so smallest id) wins when two concepts share a
            # normalized name
            entries.setdefault(tokens, c)
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

    Matching runs over lowercase alphanumeric tokens, so punctuation and
    whitespace differences are ignored.
    """
    lex = _lexicon(kg)
    tokens = [t.lower() for t in _WORD_RE.findall(text)]
    found: dict[int, None] = {}
    i = 0
    n = len(tokens)
    while i < n:
        for length in range(min(lex.max_len, n - i), 0, -1):
            c = lex.entries.get(tuple(tokens[i : i + length]))
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
    """Read a JSON-lines patient corpus: {id, pre_admission, reference?}."""
    lines = read_text(path).splitlines()
    patients: list[PatientInput] = []
    seen: set[str] = set()
    for no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataFormatError(f"invalid JSON: {exc}", path=path, line=no) from exc
        if not isinstance(obj, dict):
            raise DataFormatError("expected a JSON object", path=path, line=no)
        pid = obj.get("id")
        pre = obj.get("pre_admission")
        ref = obj.get("reference")
        if not isinstance(pid, str) or not pid:
            raise DataFormatError("missing or empty 'id'", path=path, line=no)
        if not isinstance(pre, str) or not pre:
            raise DataFormatError("missing or empty 'pre_admission'", path=path, line=no)
        if ref is not None and not isinstance(ref, str):
            raise DataFormatError("'reference' must be a string", path=path, line=no)
        if pid in seen:
            raise DataFormatError(f"duplicate patient id {pid!r}", path=path, line=no)
        seen.add(pid)
        patients.append(PatientInput(pid, pre, ref))
    if not patients:
        raise DataFormatError("empty corpus", path=path)
    return patients
