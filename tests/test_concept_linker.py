from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ints, make_kg

from r2ag.concept_linker import (
    initial_group,
    link_concepts,
    link_tokens,
    load_corpus,
    scarce_group,
)
from r2ag.errors import DataFormatError
from r2ag.kg_store import normalize_name, tokens


def test_single_concept_match(tiny_kg):
    got = link_concepts("The patient reported chest pain at rest.", tiny_kg)
    assert got == ints(tiny_kg, ["D1"])
    assert [tiny_kg.groups[tiny_kg.group_at[c]] for c in got] == ["Disorders"]


def test_longest_match_wins(tiny_kg):
    got = link_concepts("History of exertional chest pain for two weeks.", tiny_kg)
    assert got == ints(tiny_kg, ["D2"])  # not the shorter "chest pain"


def test_matching_ignores_case_and_punctuation(tiny_kg):
    got = link_concepts("CHEST... pain! plus COUGH,cough", tiny_kg)
    assert got == ints(tiny_kg, ["D1", "D3"])  # deduplicated


def test_relink_is_deterministic(tiny_kg):
    text = "cough and fatigue with chest pain"
    assert link_concepts(text, tiny_kg) == link_concepts(text, tiny_kg)


def test_shared_name_links_the_smallest_id():
    kg = make_kg([("C2", "Chest Pain", "A"), ("C1", "chest pain", "B"), ("C3", "x", "A")], [])
    assert link_concepts("chest pain", kg) == ints(kg, ["C1"])


def test_names_whose_lowercase_is_ascii_link_from_themselves():
    # U+212A KELVIN SIGN lowercases to "k"; U+0130 to "i" and a combining dot
    kg = make_kg([("C1", "\u212aidney stone", "A"), ("C2", "\u0130leus", "A"),
                  ("C3", "fever", "B")], [])
    assert [link_concepts(name, kg) for name in kg.names] == [[0], [1], [2]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="ab9K\u212a\u0130\u0307 -.", min_size=1, max_size=10),
                min_size=1, max_size=6))
def test_every_concept_links_from_its_own_name(names):
    kg = make_kg([(f"C{i}", name, "AB"[i % 2]) for i, name in enumerate(names)], [])
    for c, name in enumerate(kg.names):
        key = normalize_name(name)
        if key:
            # the whole name is the longest match; of the concepts sharing
            # its tokens the smallest int wins
            owner = min(o for o, other in enumerate(kg.names) if normalize_name(other) == key)
            assert link_concepts(name, kg) == [owner]


def _oracle_greedy(text, kg):
    """Enumerate every substring match, then apply the same greedy rule.
    Returns concept ids."""
    import re

    tokens = [(m.group(0).lower(), m.start(), m.end()) for m in re.finditer(r"[A-Za-z0-9]+", text)]
    names = {}
    for cid, name in sorted(zip(kg.ids, kg.names)):
        toks = tuple(normalize_name(name).split())
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
    assert link_concepts(text, kg) == ints(kg, _oracle_greedy(text, kg))


def _keywords_with_counts(counts: dict[str, int], groups=()):
    """A graph over the groups named in ``counts`` and ``groups``, and a
    keyword list with ``counts[g]`` concepts of group ``g``, in ``counts``
    order."""
    names = sorted(set(counts) | set(groups))
    rows = [(f"{g}-{i}", f"x {g} {i}", g) for g in names for i in range(max(counts.get(g, 0), 1))]
    kg = make_kg(rows, [])
    return kg, ints(kg, [f"{g}-{i}" for g, n in counts.items() for i in range(n)])


def test_initial_group_argmax():
    kg, keywords = _keywords_with_counts({"A": 3, "B": 1})
    assert kg.groups[initial_group(keywords, kg)] == "A"


def test_initial_group_tie_breaks_to_smallest_id():
    kg, keywords = _keywords_with_counts({"B": 2, "A": 2})
    assert kg.groups[initial_group(keywords, kg)] == "A"


def test_initial_group_empty_raises(tiny_kg):
    with pytest.raises(ValueError):
        initial_group([], tiny_kg)


def test_initial_group_matches_linear_scan():
    rng = np.random.default_rng(21)
    for _ in range(25):
        counts = {f"G{i}": int(rng.integers(1, 6)) for i in range(int(rng.integers(2, 7)))}
        kg, keywords = _keywords_with_counts(counts)
        best = kg.groups[initial_group(keywords, kg)]
        m = max(counts.values())
        assert counts[best] == m
        assert best == min(g for g, c in counts.items() if c == m)


def test_scarce_group_includes_zero_count_groups():
    kg, keywords = _keywords_with_counts({"A": 3}, groups=("B", "C"))
    assert kg.groups[scarce_group(keywords, kg)] == "B"


def test_scarce_group_all_nonzero():
    kg, keywords = _keywords_with_counts({"A": 2, "B": 1})
    assert kg.groups[scarce_group(keywords, kg)] == "B"


def test_scarce_group_matches_linear_scan():
    rng = np.random.default_rng(8)
    all_groups = [f"G{i}" for i in range(6)]
    for _ in range(25):
        counts = {
            g: int(rng.integers(0, 5))
            for g in all_groups
            if rng.random() < 0.7
        }
        kg, keywords = _keywords_with_counts(counts, groups=all_groups)
        got = kg.groups[scarce_group(keywords, kg)]
        full = {g: counts.get(g, 0) for g in all_groups}
        m = min(full.values())
        assert full[got] == m
        assert got == min(g for g, c in full.items() if c == m)


def test_group_ints_follow_the_string_rule_on_random_graphs():
    # the dominant group is the first in (-count, group name) order and the
    # scarce group the first minimum over sorted group names
    rng = np.random.default_rng(9)
    letters = list("abzAZ09")
    for _ in range(200):
        names = sorted({"".join(rng.choice(letters, 2)) for _ in range(int(rng.integers(2, 8)))})
        rows = [
            (f"c{i:03d}", f"w{i}", names[int(rng.integers(len(names)))])
            for i in range(int(rng.integers(1, 40)))
        ]
        group_of = {cid: g for cid, _, g in rows}
        kg = make_kg(rows, [])
        keyword_ids = [kg.ids[i] for i in rng.permutation(len(rows))[: int(rng.integers(1, 9))]]
        counts = {g: 0 for g in sorted(set(group_of.values()))}
        for cid in keyword_ids:
            counts[group_of[cid]] += 1
        dominant = sorted(
            ((g, n) for g, n in counts.items() if n), key=lambda kv: (-kv[1], kv[0])
        )[0][0]
        scarce = None
        for g in sorted(counts):
            if scarce is None or counts[g] < counts[scarce]:
                scarce = g
        keywords = ints(kg, keyword_ids)
        assert kg.groups[initial_group(keywords, kg)] == dominant
        assert kg.groups[scarce_group(keywords, kg)] == scarce


def test_initial_and_scarce_bounds(tiny_kg):
    keywords = link_concepts("cough with chest pain near the coronary artery", tiny_kg)
    ini, sca = initial_group(keywords, tiny_kg), scarce_group(keywords, tiny_kg)
    counts = [
        sum(1 for c in keywords if tiny_kg.group_at[c] == g) for g in range(len(tiny_kg.groups))
    ]
    assert all(counts[ini] >= c for c in counts)
    assert all(counts[sca] <= c for c in counts)


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


def test_corpus_lines_break_at_newline_only(tmp_path):
    # a raw U+2028 inside a JSON string is part of the record, and a bad
    # record's line number is the one `sed -n` shows; CRLF reads as LF
    rows = [{"id": "P1", "pre_admission": "fever\u2028cough\x85"},
            {"id": "P2", "pre_admission": "x"}]
    text = "\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n"
    path = tmp_path / "corpus.jsonl"
    for end in ("\n", "\r\n"):
        path.write_text(text.replace("\n", end), encoding="utf-8", newline="")
        patients = load_corpus(path)
        assert [(p.id, p.pre_admission) for p in patients] == [
            ("P1", "fever\u2028cough\x85"), ("P2", "x")]
    path.write_text(text + "not json\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"corpus\.jsonl:3: invalid JSON"):
        load_corpus(path)


def test_link_tokens_is_link_concepts_of_the_text(tiny_kg):
    for text in ("Exertional chest pain, then cough.", "", "lung heart LUNG"):
        assert link_tokens(tokens(text), tiny_kg) == link_concepts(text, tiny_kg)
