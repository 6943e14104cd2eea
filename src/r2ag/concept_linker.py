"""Lexicon-based concept linking and per-patient group statistics.

Maps free text onto graph concepts by greedy longest-match over normalized
concept names, then derives the dominant (most keywords) and scarce (fewest
keywords) semantic groups that drive retrieval.
"""

from __future__ import annotations

import json
import re
import weakref
from dataclasses import dataclass, field

from .errors import DataFormatError, read_text
from .kg_store import KnowledgeGraph, normalize_name

_WORD_RE = re.compile(r"[A-Za-z0-9]+")


@dataclass
class PatientInput:
    """One patient record: id, pre-admission text, optional reference text."""

    id: str
    pre_admission: str
    reference: str | None = None


@dataclass(frozen=True)
class KeywordMatch:
    concept_id: str
    surface: str
    start: int
    end: int


@dataclass
class KeywordSet:
    """Ordered set of linked concepts with a per-group count histogram."""

    matches: list[KeywordMatch] = field(default_factory=list)
    group_counts: dict[str, int] = field(default_factory=dict)

    def concept_ids(self) -> list[str]:
        return [m.concept_id for m in self.matches]

    def __len__(self) -> int:
        return len(self.matches)

    def __bool__(self) -> bool:
        return bool(self.matches)


class _Lexicon:
    """Token-tuple lookup of normalized concept names."""

    def __init__(self, kg: KnowledgeGraph):
        entries: dict[tuple[str, ...], str] = {}
        for cid, name in zip(kg.ids, kg.names):
            tokens = tuple(normalize_name(name).split())
            if not tokens:
                continue
            # smallest id wins when two concepts share a normalized name
            entries.setdefault(tokens, cid)
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


def link_concepts(text: str, kg: KnowledgeGraph) -> KeywordSet:
    """Greedy longest-match, left-to-right, non-overlapping linking.

    Matching runs over lowercase alphanumeric tokens, so punctuation and
    whitespace differences are ignored. Each concept appears once, at its
    first occurrence; the histogram counts unique concepts per group.
    """
    lex = _lexicon(kg)
    tokens = [(m.group(0).lower(), m.start(), m.end()) for m in _WORD_RE.finditer(text)]
    ks = KeywordSet()
    seen: set[str] = set()
    i = 0
    n = len(tokens)
    while i < n:
        matched = False
        for length in range(min(lex.max_len, n - i), 0, -1):
            key = tuple(tokens[j][0] for j in range(i, i + length))
            cid = lex.entries.get(key)
            if cid is None:
                continue
            start = tokens[i][1]
            end = tokens[i + length - 1][2]
            if cid not in seen:
                seen.add(cid)
                ks.matches.append(KeywordMatch(cid, text[start:end], start, end))
                group = kg.group_of(cid)
                ks.group_counts[group] = ks.group_counts.get(group, 0) + 1
            i += length
            matched = True
            break
        if not matched:
            i += 1
    return ks


def initial_group(ks: KeywordSet) -> str:
    """Group covering the most keywords; ties go to the smallest group id."""
    if not ks:
        raise ValueError("keyword set is empty")
    return sorted(ks.group_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def scarce_group(ks: KeywordSet, kg: KnowledgeGraph) -> str:
    """Group with the fewest keywords over ALL graph groups (zeros count).

    Ties go to the smallest group id.
    """
    best_gid = None
    best_count = None
    for gid in kg.all_groups():
        count = ks.group_counts.get(gid, 0)
        if best_count is None or count < best_count:
            best_gid, best_count = gid, count
    if best_gid is None:
        raise ValueError("graph has no groups")
    return best_gid


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
