from __future__ import annotations

import json

import numpy as np
import pytest

from helpers import make_kg

from r2ag.concept_linker import (
    KeywordSet,
    initial_group,
    link_concepts,
    load_corpus,
    scarce_group,
)
from r2ag.errors import DataFormatError
from r2ag.kg_store import normalize_name


def test_single_concept_match(tiny_kg):
    ks = link_concepts("The patient reported chest pain at rest.", tiny_kg)
    assert ks.concept_ids() == ["D1"]
    assert ks.group_counts == {"Disorders": 1}


def test_longest_match_wins(tiny_kg):
    ks = link_concepts("History of exertional chest pain for two weeks.", tiny_kg)
    assert ks.concept_ids() == ["D2"]  # not the shorter "chest pain"


def test_matching_ignores_case_and_punctuation(tiny_kg):
    ks = link_concepts("CHEST... pain! plus COUGH,cough", tiny_kg)
    assert ks.concept_ids() == ["D1", "D3"]  # deduplicated


def test_spans_do_not_overlap_and_are_ordered(tiny_kg):
    text = "fatigue then chest pain then cough; later exertional chest pain."
    ks = link_concepts(text, tiny_kg)
    spans = [(m.start, m.end) for m in ks.matches]
    assert spans == sorted(spans)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2
    for m in ks.matches:
        assert text[m.start : m.end] == m.surface


def test_relink_is_deterministic(tiny_kg):
    text = "cough and fatigue with chest pain"
    a = link_concepts(text, tiny_kg)
    b = link_concepts(text, tiny_kg)
    assert a.concept_ids() == b.concept_ids()
    assert [m.surface for m in a.matches] == [m.surface for m in b.matches]


def _oracle_greedy(text, kg):
    """Enumerate every substring match, then apply the same greedy rule."""
    import re

    tokens = [(m.group(0).lower(), m.start(), m.end()) for m in re.finditer(r"[A-Za-z0-9]+", text)]
    names = {}
    for cid in sorted(kg.ids):
        toks = tuple(normalize_name(kg.name_of(cid)).split())
        if toks and toks not in names:
            names[toks] = cid
    all_matches = []  # (start_token, length, cid) for every occurrence
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens) + 1):
            key = tuple(t[0] for t in tokens[i:j])
            if key in names:
                all_matches.append((i, j - i, names[key]))
    chosen = []
    pos = 0
    while pos < len(tokens):
        here = [m for m in all_matches if m[0] == pos]
        if here:
            best = max(here, key=lambda m: m[1])
            chosen.append(best[2])
            pos += best[1]
        else:
            pos += 1
    out, seen = [], set()
    for cid in chosen:
        if cid not in seen:
            seen.add(cid)
            out.append(cid)
    return out


def test_matches_exhaustive_oracle_on_long_note():
    concepts = [
        ("C01", "beta blocker", "Drugs"),
        ("C02", "beta", "Drugs"),
        ("C03", "blocker", "Drugs"),
        ("C04", "acute beta blocker overdose", "Disorders"),
        ("C05", "overdose", "Disorders"),
        ("C06", "renal failure", "Disorders"),
        ("C07", "failure", "Disorders"),
        ("C08", "dialysis", "Procedures"),
    ]
    kg = make_kg(concepts, [])
    sentences = [
        "Patient arrived after acute beta blocker overdose last night.",
        "A beta blocker was restarted; overdose risk was discussed.",
        "Chronic renal failure managed with dialysis.",
        "The word failure alone, then beta alone, then blocker alone.",
        "No mention here.",
    ] * 4
    text = " ".join(sentences)
    assert link_concepts(text, kg).concept_ids() == _oracle_greedy(text, kg)


def _ks_with_counts(counts: dict[str, int]) -> KeywordSet:
    ks = KeywordSet()
    ks.group_counts = dict(counts)
    i = 0
    for gid, n in counts.items():
        for _ in range(n):
            from r2ag.concept_linker import KeywordMatch

            ks.matches.append(KeywordMatch(f"{gid}-{i}", "x", i, i + 1))
            i += 1
    return ks


def test_initial_group_argmax():
    assert initial_group(_ks_with_counts({"A": 3, "B": 1})) == "A"


def test_initial_group_tie_breaks_to_smallest_id():
    assert initial_group(_ks_with_counts({"B": 2, "A": 2})) == "A"


def test_initial_group_empty_raises():
    with pytest.raises(ValueError):
        initial_group(KeywordSet())


def test_initial_group_matches_linear_scan():
    rng = np.random.default_rng(21)
    for _ in range(25):
        counts = {f"G{i}": int(rng.integers(1, 6)) for i in range(int(rng.integers(2, 7)))}
        ks = _ks_with_counts(counts)
        best = initial_group(ks)
        m = max(counts.values())
        assert counts[best] == m
        assert best == min(g for g, c in counts.items() if c == m)


def test_scarce_group_includes_zero_count_groups():
    kg = make_kg(
        [("1", "x1", "A"), ("2", "x2", "B"), ("3", "x3", "C")],
        [],
    )
    assert scarce_group(_ks_with_counts({"A": 3}), kg) == "B"


def test_scarce_group_all_nonzero():
    kg = make_kg([("1", "x1", "A"), ("2", "x2", "B")], [])
    assert scarce_group(_ks_with_counts({"A": 2, "B": 1}), kg) == "B"


def test_scarce_group_matches_linear_scan():
    rng = np.random.default_rng(8)
    rows = [(f"c{i}", f"n{i}", f"G{i}") for i in range(6)]
    kg = make_kg(rows, [])
    for _ in range(25):
        counts = {
            f"G{i}": int(rng.integers(0, 5))
            for i in range(6)
            if rng.random() < 0.7
        }
        got = scarce_group(_ks_with_counts(counts), kg)
        full = {g: counts.get(g, 0) for g in kg.all_groups()}
        m = min(full.values())
        assert full[got] == m
        assert got == min(g for g, c in full.items() if c == m)


def test_initial_and_scarce_bounds(tiny_kg):
    ks = link_concepts("cough with chest pain near the coronary artery", tiny_kg)
    ini, sca = initial_group(ks), scarce_group(ks, tiny_kg)
    counts = {g: ks.group_counts.get(g, 0) for g in tiny_kg.all_groups()}
    assert all(counts[ini] >= c for c in counts.values())
    assert all(counts[sca] <= c for c in counts.values())


def test_load_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "P1", "pre_admission": "text one", "reference": "ref one"},
        {"id": "P2", "pre_admission": "text two"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    patients = load_corpus(path)
    assert [p.id for p in patients] == ["P1", "P2"]
    assert patients[0].reference == "ref one"
    assert patients[1].reference is None


def test_load_corpus_rejects_duplicate_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    row = json.dumps({"id": "P1", "pre_admission": "x"})
    path.write_text(row + "\n" + row + "\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        load_corpus(path)


def test_load_corpus_rejects_bad_json_with_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "P1", "pre_admission": "x"}\nnot json\n')
    with pytest.raises(DataFormatError) as exc:
        load_corpus(path)
    assert ":2:" in str(exc.value)


def test_load_corpus_rejects_missing_fields(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "P1"}\n')
    with pytest.raises(DataFormatError, match="pre_admission"):
        load_corpus(path)


def test_load_corpus_rejects_empty_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n\n")
    with pytest.raises(DataFormatError, match="empty"):
        load_corpus(path)
