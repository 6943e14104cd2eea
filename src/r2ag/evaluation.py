"""Set-overlap and n-gram metrics for generated vs reference instructions.

Two token pipelines on purpose: the set metrics (precision/recall/F1/
Jaccard/Hamming loss) drop stopwords to focus on content words, while the
n-gram metrics (ROUGE, BLEU) keep every token. Hamming loss is defined as
1 - recall over the reference set. Corpus numbers are macro averages of
per-patient rows, never recomputed from macro precision/recall.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .concept_linker import PatientInput, link_tokens
from .errors import DataFormatError
from .kg_store import KnowledgeGraph, tokens

# 100 words; tokens shorter than 2 characters are dropped before this filter.
STOPWORDS = frozenset(
    """
    about above after again all you an and any are
    as at be because been before being below between both
    but by can could did do does down during each
    few for from had has have having he her here
    him his how if in into is it its just
    me more most my no nor not of off on
    once only or other our out over your she should
    so some such than that the their them then there
    these they this those through to too under until up
    was we were what when where which who will with
    """.split()
)


def extract_tokens(text: str) -> set[str]:
    """Lowercased content tokens: length >= 2, stopwords removed, deduped."""
    return _content_tokens(tokens(text))


def _content_tokens(toks: list[str]) -> set[str]:
    return {tok for tok in toks if len(tok) >= 2 and tok not in STOPWORDS}


@dataclass
class CeRow:
    precision: float
    recall: float
    f1: float
    jaccard: float
    hamming_loss: float
    pred_empty: bool = False


def ce_metrics(pred: set, ref: set) -> CeRow:
    """Per-row set metrics; the reference set must be non-empty."""
    if not ref:
        raise ValueError("reference set must be non-empty (skip such rows)")
    inter = len(pred & ref)
    if pred:
        p = inter / len(pred)
    else:
        p = 0.0
    r = inter / len(ref)
    f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
    j = inter / len(pred | ref)
    return CeRow(p, r, f1, j, 1.0 - r, pred_empty=not pred)


def _ngrams(toks: list[str], n: int) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for i in range(len(toks) - n + 1):
        g = tuple(toks[i : i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def rouge_n(pred_text: str, ref_text: str, n: int) -> float:
    """F1 over clipped n-gram multiset overlap."""
    return _rouge_n(tokens(pred_text), tokens(ref_text), n)


def _rouge_n(pred_tokens: list[str], ref_tokens: list[str], n: int) -> float:
    pred = _ngrams(pred_tokens, n)
    ref = _ngrams(ref_tokens, n)
    n_pred = sum(pred.values())
    n_ref = sum(ref.values())
    if n_pred == 0 or n_ref == 0:
        return 0.0
    match = sum(min(c, ref.get(g, 0)) for g, c in pred.items())
    p = match / n_pred
    r = match / n_ref
    return 2 * p * r / (p + r) if (p + r) > 0 else 0.0


def _lcs_len(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence of ``a`` and ``b``.

    Bit-parallel (Allison-Dix): bit i of a Python int stands for ``a[i]``,
    and one pass over ``b`` updates the vector ``v`` with a few whole-int
    operations per token; the zero bits of the final ``v`` count the LCS.
    """
    if not a or not b:
        return 0
    match: dict[str, int] = {}  # token -> bits of the positions it holds in a
    for i, tok in enumerate(a):
        match[tok] = match.get(tok, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for tok in b:
        u = v & match.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(pred_text: str, ref_text: str) -> float:
    """LCS-based F-measure with equal precision/recall weighting."""
    return _rouge_l(tokens(pred_text), tokens(ref_text))


def _rouge_l(pred: list[str], ref: list[str]) -> float:
    if not pred or not ref:
        return 0.0
    lcs = _lcs_len(pred, ref)
    p = lcs / len(pred)
    r = lcs / len(ref)
    return 2 * p * r / (p + r) if (p + r) > 0 else 0.0


def bleu_n(pred_text: str, ref_text: str, n: int) -> float:
    """Geometric mean of modified 1..n-gram precisions times brevity penalty."""
    return _bleu_n(tokens(pred_text), tokens(ref_text), n)


def _bleu_n(pred: list[str], ref: list[str], n: int) -> float:
    if not pred or not ref:
        return 0.0
    precisions: list[float] = []
    for k in range(1, n + 1):
        pk = _ngrams(pred, k)
        rk = _ngrams(ref, k)
        total = sum(pk.values())
        if total == 0:
            return 0.0
        match = sum(min(c, rk.get(g, 0)) for g, c in pk.items())
        precisions.append(match / total)
    if any(p == 0.0 for p in precisions):
        return 0.0
    geo = 1.0
    for p in precisions:
        geo *= p
    geo **= 1.0 / n
    bp = math.exp(1.0 - len(ref) / len(pred)) if len(pred) < len(ref) else 1.0
    return bp * geo


@dataclass
class CeMacro:
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    jaccard: float = 0.0
    hamming_loss: float = 0.0
    rows: int = 0
    skipped: int = 0


@dataclass
class NlgMacro:
    rouge1: float = 0.0
    rouge2: float = 0.0
    rougeL: float = 0.0
    bleu1: float = 0.0
    bleu2: float = 0.0
    rows: int = 0


@dataclass
class PatientEval:
    id: str
    ngram: CeRow | None
    concept: CeRow | None
    nlg: dict | None


@dataclass
class EvalReport:
    ce_ngram: CeMacro
    ce_concept: CeMacro
    nlg: NlgMacro
    per_patient: list[PatientEval] = field(default_factory=list)
    skipped_patients: int = 0

    def to_dict(self) -> dict:
        return {
            "ce": {"ngram": asdict(self.ce_ngram), "concept": asdict(self.ce_concept)},
            "nlg": asdict(self.nlg),
            "patients": len(self.per_patient),
            "skipped_patients": self.skipped_patients,
        }

    CSV_FIELDS = (
        "id",
        "ngram_precision", "ngram_recall", "ngram_f1", "ngram_jaccard", "ngram_hamming_loss",
        "concept_precision", "concept_recall", "concept_f1", "concept_jaccard",
        "concept_hamming_loss",
        "rouge1", "rouge2", "rougeL", "bleu1", "bleu2",
    )

    def csv_rows(self) -> list[list[str]]:
        rows = [list(self.CSV_FIELDS)]
        for pe in self.per_patient:
            row = [pe.id]
            for ce in (pe.ngram, pe.concept):
                if ce is None:
                    row.extend([""] * 5)
                else:
                    row.extend(
                        str(v)
                        for v in (ce.precision, ce.recall, ce.f1, ce.jaccard, ce.hamming_loss)
                    )
            if pe.nlg is None:
                row.extend([""] * 5)
            else:
                row.extend(
                    str(pe.nlg[k]) for k in ("rouge1", "rouge2", "rougeL", "bleu1", "bleu2")
                )
            rows.append(row)
        return rows


def _macro_ce(rows: list[CeRow], skipped: int) -> CeMacro:
    if not rows:
        return CeMacro(skipped=skipped)
    n = len(rows)
    return CeMacro(
        precision=sum(r.precision for r in rows) / n,
        recall=sum(r.recall for r in rows) / n,
        f1=sum(r.f1 for r in rows) / n,
        jaccard=sum(r.jaccard for r in rows) / n,
        hamming_loss=sum(r.hamming_loss for r in rows) / n,
        rows=n,
        skipped=skipped,
    )


def evaluate_pair(generated: str, reference: str, kg: KnowledgeGraph) -> PatientEval:
    """Metric row for one (generated, reference) pair; levels with an empty
    reference set come back as None. Each text is tokenized once."""
    gen_tokens, ref_tokens = tokens(generated), tokens(reference)
    ngram_ref = _content_tokens(ref_tokens)
    ngram = ce_metrics(_content_tokens(gen_tokens), ngram_ref) if ngram_ref else None
    concept_ref = set(link_tokens(ref_tokens, kg))
    concept = ce_metrics(set(link_tokens(gen_tokens, kg)), concept_ref) if concept_ref else None
    nlg = {
        "rouge1": _rouge_n(gen_tokens, ref_tokens, 1),
        "rouge2": _rouge_n(gen_tokens, ref_tokens, 2),
        "rougeL": _rouge_l(gen_tokens, ref_tokens),
        "bleu1": _bleu_n(gen_tokens, ref_tokens, 1),
        "bleu2": _bleu_n(gen_tokens, ref_tokens, 2),
    }
    return PatientEval("", ngram, concept, nlg)


def evaluate_corpus(
    generated: list[dict],
    patients: list[PatientInput],
    kg: KnowledgeGraph,
) -> EvalReport:
    """Macro-average metric rows for every generated record.

    Every generated id must exist in the reference corpus and carry a
    reference text (records without one are skipped and counted).
    """
    if not generated:
        raise DataFormatError("no generated records to evaluate")
    by_id = {p.id: p for p in patients}
    missing = [g.get("id") for g in generated if g.get("id") not in by_id]
    if missing:
        raise DataFormatError(
            f"{len(missing)} generated id(s) missing from the reference corpus, "
            f"first: {missing[0]!r}"
        )

    def _one(rec: dict) -> PatientEval | None:
        patient = by_id[rec["id"]]
        if not patient.reference:
            return None
        text = rec.get("generated")
        if not isinstance(text, str):
            raise DataFormatError(f"record {rec['id']!r} has no 'generated' text")
        pe = evaluate_pair(text, patient.reference, kg)
        pe.id = patient.id
        return pe

    results = [_one(rec) for rec in generated]

    per_patient = [pe for pe in results if pe is not None]
    skipped_patients = len(results) - len(per_patient)
    ngram_rows = [pe.ngram for pe in per_patient if pe.ngram is not None]
    concept_rows = [pe.concept for pe in per_patient if pe.concept is not None]
    nlg_rows = [pe.nlg for pe in per_patient if pe.nlg is not None]
    nlg = NlgMacro(rows=len(nlg_rows))
    if nlg_rows:
        for key in ("rouge1", "rouge2", "rougeL", "bleu1", "bleu2"):
            setattr(nlg, key, sum(r[key] for r in nlg_rows) / len(nlg_rows))
    return EvalReport(
        ce_ngram=_macro_ce(ngram_rows, len(per_patient) - len(ngram_rows)),
        ce_concept=_macro_ce(concept_rows, len(per_patient) - len(concept_rows)),
        nlg=nlg,
        per_patient=per_patient,
        skipped_patients=skipped_patients,
    )
