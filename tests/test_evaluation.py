from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_kg

import r2ag.concept_linker
import r2ag.evaluation
from r2ag import kg_store
from r2ag.concept_linker import PatientInput
from r2ag.errors import DataFormatError
from r2ag.evaluation import (
    STOPWORDS,
    _lcs_len,
    bleu_n,
    ce_metrics,
    evaluate_corpus,
    evaluate_pair,
    extract_tokens,
    rouge_l,
    rouge_n,
)


def oracle_lcs_len(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by the textbook O(len(a) * len(b))
    dynamic programme, one row at a time."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def test_stopword_list_has_exactly_100_words():
    assert len(STOPWORDS) == 100
    assert all(w == w.lower() for w in STOPWORDS)


def test_extract_tokens_normalizes_and_dedupes():
    assert extract_tokens("Chest pain, chest PAIN.") == {"chest", "pain"}


def test_extract_tokens_empty_string():
    assert extract_tokens("") == set()


def test_extract_tokens_drops_stopwords_and_short_tokens():
    assert extract_tokens("the cat sat on a mat") == {"cat", "sat", "mat"}


def test_extract_tokens_matches_independent_pipeline():
    text = (
        "You were admitted for chest pain; ECG at 9 am was negative. "
        "Continue aspirin 81 mg daily and follow up with Dr. Chen."
    )
    # independent oracle: split on non-alphanumerics, filter, dedupe
    words = [w for w in re.split(r"[^A-Za-z0-9]+", text.lower()) if w]
    oracle = set()
    for w in words:
        if len(w) >= 2 and w not in STOPWORDS:
            oracle.add(w)
    assert extract_tokens(text) == oracle


def test_ce_identity_row():
    row = ce_metrics({"a", "b"}, {"a", "b"})
    assert (row.precision, row.recall, row.f1, row.jaccard) == (1.0, 1.0, 1.0, 1.0)
    assert row.hamming_loss == 0.0


def test_ce_disjoint_row():
    row = ce_metrics({"a"}, {"b"})
    assert (row.precision, row.recall, row.f1, row.jaccard) == (0.0, 0.0, 0.0, 0.0)
    assert row.hamming_loss == 1.0


def test_ce_empty_prediction_flagged():
    row = ce_metrics(set(), {"a"})
    assert row.precision == 0.0 and row.recall == 0.0
    assert row.pred_empty is True


def test_ce_empty_reference_raises():
    with pytest.raises(ValueError):
        ce_metrics({"a"}, set())


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.integers(0, 15), min_size=0, max_size=10),
    st.sets(st.integers(0, 15), min_size=1, max_size=10),
)
def test_ce_row_invariants(pred, ref):
    row = ce_metrics(pred, ref)
    assert row.hamming_loss == 1.0 - row.recall  # exact identity
    assert 0.0 <= row.jaccard <= 1.0
    if pred:
        lo, hi = min(row.precision, row.recall), max(row.precision, row.recall)
        assert row.jaccard <= lo + 1e-12
        assert lo - 1e-12 <= row.f1 <= hi + 1e-12


def test_rouge_identical_texts():
    assert rouge_n("a b c", "a b c", 1) == 1.0
    assert rouge_n("a b c", "a b c", 2) == 1.0
    assert rouge_l("a b c", "a b c") == 1.0


def test_rouge1_hand_value():
    assert rouge_n("a b c", "a b d", 1) == pytest.approx(2 / 3, abs=1e-12)


def test_rouge_l_subsequence():
    # LCS("the cat sat", "the dog sat") = 2 -> P = R = 2/3
    assert rouge_l("the cat sat", "the dog sat") == pytest.approx(2 / 3, abs=1e-12)


def test_bleu_identical_texts():
    assert bleu_n("a b c", "a b c", 1) == 1.0
    assert bleu_n("a b c", "a b c", 2) == 1.0


def test_bleu_brevity_penalty_hand_value():
    got = bleu_n("the cat sat", "the cat sat down", 1)
    assert got == pytest.approx(math.exp(1 - 4 / 3), abs=1e-4)


def test_bleu_clips_repeated_ngrams():
    # pred repeats "a" 4 times; ref has it twice -> p1 = 2/4
    assert bleu_n("a a a a", "a b a", 1) == pytest.approx(0.5, abs=1e-12)


def test_nlg_metrics_zero_on_no_overlap_or_empty():
    assert rouge_n("x y", "a b", 1) == 0.0
    assert rouge_l("", "a b") == 0.0
    assert bleu_n("", "a b", 2) == 0.0
    assert bleu_n("x y", "a b", 1) == 0.0


def _corpus_kg():
    return make_kg([("K1", "alpha", "G1"), ("K2", "beta", "G2")], [])


def test_evaluate_corpus_identical_pairs():
    kg = _corpus_kg()
    patients = [
        PatientInput("P1", "x", "alpha beta gamma"),
        PatientInput("P2", "x", "beta delta"),
    ]
    generated = [
        {"id": "P1", "generated": "alpha beta gamma"},
        {"id": "P2", "generated": "beta delta"},
    ]
    report = evaluate_corpus(generated, patients, kg)
    for macro in (report.ce_ngram, report.ce_concept):
        assert macro.precision == 1.0
        assert macro.recall == 1.0
        assert macro.f1 == 1.0
        assert macro.jaccard == 1.0
        assert macro.hamming_loss == 0.0
    assert report.nlg.rouge1 == 1.0
    assert report.nlg.bleu2 == 1.0


def test_evaluate_corpus_macro_matches_hand_rows():
    kg = _corpus_kg()
    patients = [
        PatientInput("PA", "x", "alpha gamma"),
        PatientInput("PB", "x", "alpha beta"),
    ]
    generated = [
        {"id": "PA", "generated": "alpha beta"},
        {"id": "PB", "generated": "alpha beta"},
    ]
    report = evaluate_corpus(generated, patients, kg)
    # row PA: inter {alpha}: P=1/2 R=1/2 F1=1/2 J=1/3 HL=1/2; row PB: perfect
    assert report.ce_ngram.precision == pytest.approx(0.75)
    assert report.ce_ngram.recall == pytest.approx(0.75)
    assert report.ce_ngram.f1 == pytest.approx(0.75)
    assert report.ce_ngram.jaccard == pytest.approx((1 / 3 + 1.0) / 2)
    assert report.ce_ngram.hamming_loss == pytest.approx(0.25)
    # nlg hand rows: PA rouge1=1/2, rouge2=0, rougeL=1/2, bleu1=1/2, bleu2=0
    assert report.nlg.rouge1 == pytest.approx(0.75)
    assert report.nlg.rouge2 == pytest.approx(0.5)
    assert report.nlg.rougeL == pytest.approx(0.75)
    assert report.nlg.bleu1 == pytest.approx(0.75)
    assert report.nlg.bleu2 == pytest.approx(0.5)
    # concept level: PA ref links {K1}, pred links {K1, K2} -> P=1/2 R=1 HL=0
    assert report.ce_concept.rows == 2
    assert report.ce_concept.recall == pytest.approx(1.0)
    assert report.ce_concept.precision == pytest.approx(0.75)


def test_evaluate_corpus_concept_level_uses_linker():
    kg = _corpus_kg()
    patients = [PatientInput("P1", "x", "alpha and beta today")]
    generated = [{"id": "P1", "generated": "beta then alpha"}]
    report = evaluate_corpus(generated, patients, kg)
    assert report.ce_concept.precision == 1.0
    assert report.ce_concept.recall == 1.0


def test_evaluate_corpus_macro_permutation_invariant():
    kg = _corpus_kg()
    patients = [
        PatientInput("PA", "x", "alpha gamma"),
        PatientInput("PB", "x", "alpha beta"),
    ]
    generated = [
        {"id": "PA", "generated": "alpha beta"},
        {"id": "PB", "generated": "alpha beta"},
    ]
    r1 = evaluate_corpus(generated, patients, kg)
    r2 = evaluate_corpus(list(reversed(generated)), patients, kg)
    assert r1.ce_ngram == r2.ce_ngram
    assert r1.nlg == r2.nlg


def test_evaluate_corpus_id_mismatch():
    kg = _corpus_kg()
    patients = [PatientInput("P1", "x", "alpha")]
    with pytest.raises(DataFormatError, match="P9"):
        evaluate_corpus([{"id": "P9", "generated": "alpha"}], patients, kg)


def test_evaluate_corpus_empty():
    kg = _corpus_kg()
    with pytest.raises(DataFormatError):
        evaluate_corpus([], [PatientInput("P1", "x", "alpha")], kg)


def test_evaluate_corpus_skips_missing_reference():
    kg = _corpus_kg()
    patients = [PatientInput("P1", "x", None), PatientInput("P2", "x", "alpha")]
    generated = [
        {"id": "P1", "generated": "alpha"},
        {"id": "P2", "generated": "alpha"},
    ]
    report = evaluate_corpus(generated, patients, kg)
    assert report.skipped_patients == 1
    assert len(report.per_patient) == 1


def test_evaluate_corpus_counts_empty_reference_rows():
    kg = _corpus_kg()
    # reference made only of stopwords/short tokens: the ngram row is
    # skipped with a count; nothing links, so the concept row skips too
    patients = [
        PatientInput("P1", "x", "to be or not to be"),
        PatientInput("P2", "x", "alpha beta"),
    ]
    generated = [
        {"id": "P1", "generated": "alpha"},
        {"id": "P2", "generated": "alpha beta"},
    ]
    report = evaluate_corpus(generated, patients, kg)
    assert report.ce_ngram.rows == 1
    assert report.ce_ngram.skipped == 1
    assert report.ce_concept.rows == 1
    assert report.ce_concept.skipped == 1
    assert report.nlg.rows == 2  # NLG still runs on raw texts


def test_csv_rows_shape():
    kg = _corpus_kg()
    patients = [PatientInput("P1", "x", "alpha beta")]
    generated = [{"id": "P1", "generated": "alpha"}]
    report = evaluate_corpus(generated, patients, kg)
    rows = report.csv_rows()
    assert rows[0][0] == "id"
    assert len(rows) == 2
    assert all(len(r) == len(rows[0]) for r in rows)


def test_lcs_len_matches_dynamic_programme_oracle():
    # random token lists of length 0-200 over small alphabets, so that
    # matches are dense and most lists span several 64-bit words
    rng = random.Random(2024)
    long_pairs = 0
    for _ in range(600):
        alphabet = [f"t{k}" for k in range(rng.randint(1, 8))]
        a = [rng.choice(alphabet) for _ in range(rng.randint(0, 200))]
        b = [rng.choice(alphabet) for _ in range(rng.randint(0, 200))]
        expect = oracle_lcs_len(a, b)
        assert _lcs_len(a, b) == expect
        assert _lcs_len(b, a) == expect
        long_pairs += len(a) > 64 and len(b) > 64
    assert long_pairs > 200
    for a, b in (([], []), (["x"], []), ([], ["x"]), (["x"] * 70, ["x"] * 70),
                 (["x"] * 130, ["y"] * 130), (["x", "y"] * 65, ["y", "x"] * 65)):
        assert _lcs_len(a, b) == oracle_lcs_len(a, b)


def test_evaluate_pair_equals_the_one_text_metrics():
    # evaluate_pair tokenizes each text once; every metric equals the public
    # function that tokenizes on its own
    kg = make_kg([("C1", "chest pain", "Disorders")], [])
    rng = random.Random(7)
    words = ["chest", "pain", "the", "a", "cough", "x", "fever", "9"]
    for _ in range(200):
        gen = " ".join(rng.choice(words) for _ in range(rng.randint(0, 30)))
        ref = " ".join(rng.choice(words) for _ in range(rng.randint(0, 30)))
        pe = evaluate_pair(gen, ref, kg)
        assert pe.nlg == {
            "rouge1": rouge_n(gen, ref, 1), "rouge2": rouge_n(gen, ref, 2),
            "rougeL": rouge_l(gen, ref), "bleu1": bleu_n(gen, ref, 1),
            "bleu2": bleu_n(gen, ref, 2),
        }
        ref_set = extract_tokens(ref)
        assert pe.ngram == (ce_metrics(extract_tokens(gen), ref_set) if ref_set else None)


def test_evaluate_pair_tokenizes_each_text_once(monkeypatch):
    # the concept level links the tokens the other metrics use, so a pair
    # costs two `tokens` calls, not four
    kg = make_kg([("C1", "chest pain", "Disorders"), ("C2", "cough", "Disorders")], [])
    evaluate_pair("", "cough", kg)  # builds the graph's lexicon
    calls = []

    def counted(text):
        calls.append(text)
        return kg_store.tokens(text)

    for module in (r2ag.evaluation, r2ag.concept_linker):
        monkeypatch.setattr(module, "tokens", counted)
    pe = evaluate_pair("chest pain and cough", "cough, then chest pain", kg)
    assert sorted(calls) == ["chest pain and cough", "cough, then chest pain"]
    assert pe.concept.precision == pe.concept.recall == 1.0
