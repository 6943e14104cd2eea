"""Seeded input generator for the benchmark workloads.

It follows the information-gap design of ``r2ag.synthetic_data`` (keywords
concentrated in one dominant group plus anchors in corpus-wide supplement
groups, reference concepts spread into those supplement groups within a few
hops of the keywords) but is owned by the benchmark, so a change to the
package's own generator never changes what the other stages measure.

Edges are drawn per source: a binomial count of intra-group and of
cross-group destinations, then that many distinct destinations, so the cost
is O(E) instead of the O(n^2) dense mask ``gen_kg`` draws. It imports
nothing from ``r2ag``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REACH_HOPS = 5
RELATION_LABELS = (
    "associated_with", "caused_by", "finding_of", "located_in", "part_of", "treated_by",
)
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
# words of the text templates below, plus the one English stopword that the
# syllable alphabet can spell; a concept name must never collide with them
_RESERVED = frozenset(
    """
    allergies chief complaint history present illness the patient reports with
    prior episodes on record you were admitted after an episode of acute
    symptoms testing confirmed we treated during your stay please monitor
    discharge and follow up doctor before
    """.split()
)


@dataclass(frozen=True)
class Shape:
    groups: int
    concepts_per_group: int
    p_intra: float
    p_cross: float
    patients: int
    keywords_per_patient: int = 8
    gt_per_patient: int = 10
    skew: float = 0.9

    def synth_flags(self) -> list[str]:
        """The same shape as ``r2ag synth`` flags."""
        return [
            "--groups", str(self.groups),
            "--concepts-per-group", str(self.concepts_per_group),
            "--p-intra", repr(self.p_intra),
            "--p-cross", repr(self.p_cross),
            "--patients", str(self.patients),
            "--keywords-per-patient", str(self.keywords_per_patient),
            "--gt-per-patient", str(self.gt_per_patient),
            "--skew", repr(self.skew),
        ]


class Graph:
    """Concepts and labelled edges, with the CSR out-index the corpus
    builder walks."""

    def __init__(self, ids, names, group_of, group_names, src, dst, labels):
        self.ids = ids
        self.names = names
        self.group_of = np.asarray(group_of)
        self.group_names = group_names
        self.members = [np.flatnonzero(self.group_of == g) for g in range(len(group_names))]
        order = np.lexsort((dst, src))
        self.src = np.asarray(src)[order]
        self.dst = np.asarray(dst)[order]
        self.labels = np.asarray(labels)[order]
        self.indptr = np.searchsorted(self.src, np.arange(len(ids) + 1))

    def out(self, nodes) -> np.ndarray:
        """All out-neighbours of ``nodes``, concatenated."""
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.indptr[nodes]
        lens = self.indptr[nodes + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        base = np.repeat(starts - (np.cumsum(lens) - lens), lens)
        return self.dst[base + np.arange(total)]

    def reach(self, starts, hops: int) -> np.ndarray:
        """Boolean mask of nodes within ``hops`` forward hops of ``starts``."""
        seen = np.zeros(len(self.ids), dtype=bool)
        frontier = np.unique(np.asarray(starts, dtype=np.int64))
        seen[frontier] = True
        for _ in range(hops):
            nxt = self.out(frontier)
            nxt = np.unique(nxt[~seen[nxt]])
            if nxt.size == 0:
                break
            seen[nxt] = True
            frontier = nxt
        return seen


def _new_word(rng: np.random.Generator, used: set[str]) -> str:
    while True:
        n = int(rng.integers(3, 5))
        word = "".join(_SYLLABLES[int(rng.integers(len(_SYLLABLES)))] for _ in range(n))
        if word not in used and word not in _RESERVED:
            used.add(word)
            return word


def _distinct(rng: np.random.Generator, size: int, k: int) -> np.ndarray:
    """``k`` distinct integers from ``range(size)``, in draw order."""
    return rng.choice(size, size=k, replace=False) if k else np.empty(0, dtype=np.int64)


def build_graph(shape: Shape, seed: int) -> Graph:
    rng = np.random.default_rng([seed, 0])
    used: set[str] = set()
    group_names = [_new_word(rng, used).capitalize() for _ in range(shape.groups)]
    ids, names, group_of = [], [], []
    for gi in range(shape.groups):
        for ci in range(shape.concepts_per_group):
            ids.append(f"C{gi:02d}{ci:03d}")
            if rng.random() < 0.2:
                names.append(f"{_new_word(rng, used)} {_new_word(rng, used)}")
            else:
                names.append(_new_word(rng, used))
            group_of.append(gi)

    n, per = len(ids), shape.concepts_per_group
    src: list[int] = []
    dst: list[int] = []
    for i in range(n):
        g = i // per
        k_in = int(rng.binomial(per - 1, shape.p_intra))
        for j in _distinct(rng, per - 1, k_in).tolist():
            # skip over i itself inside its own group block
            src.append(i)
            dst.append(g * per + j + (j >= i - g * per))
        k_out = int(rng.binomial(n - per, shape.p_cross))
        for j in _distinct(rng, n - per, k_out).tolist():
            src.append(i)
            dst.append(j + per if j >= g * per else j)
    pairs = set(zip(src, dst))
    # a random spanning tree per group keeps each group internally connected
    for g in range(shape.groups):
        for pos in range(1, per):
            pair = (g * per + int(rng.integers(pos)), g * per + pos)
            if pair not in pairs:
                pairs.add(pair)
                src.append(pair[0])
                dst.append(pair[1])
    labels = rng.integers(0, len(RELATION_LABELS), size=len(src))
    return Graph(ids, names, group_of, group_names, src, dst, labels)


def _sample(rng: np.random.Generator, pool, k: int) -> list[int]:
    pool = list(pool)
    if k >= len(pool):
        return pool
    return [pool[i] for i in rng.permutation(len(pool))[:k].tolist()]


def _join(names: list[str]) -> str:
    return names[0] if len(names) == 1 else ", ".join(names[:-1]) + " and " + names[-1]


def _pre_admission(names: list[str]) -> str:
    return (
        f"Allergies: {_join(names[:2])}. Chief complaint: {names[2]}. "
        f"History of present illness: the patient reports {_join(names[3:])} "
        "with prior episodes on record."
    )


def _reference(names: list[str]) -> str:
    third = max(1, len(names) // 3)
    parts = ["You were admitted after an episode of acute symptoms."]
    parts.append(f"Testing confirmed {_join(names[:third])}.")
    if names[third : 2 * third]:
        parts.append(f"We treated {_join(names[third:2 * third])} during your stay.")
    if names[2 * third :]:
        parts.append(
            f"Please monitor {_join(names[2 * third:])} after discharge "
            "and follow up with your doctor."
        )
    return " ".join(parts)


def build_corpus(graph: Graph, shape: Shape, seed: int) -> list[dict]:
    """Patients whose keywords sit in one dominant group plus two supplement
    groups, and whose reference concepts lean into the supplement groups."""
    if shape.keywords_per_patient < 7:
        raise ValueError("the templates need at least 7 keywords per patient")
    rng = np.random.default_rng([seed, 1])
    n_groups = len(graph.group_names)
    supplements = sorted(rng.permutation(n_groups)[:2].tolist())
    per_sup = 2
    kw_dom = shape.keywords_per_patient - per_sup * len(supplements)
    records = []
    for i in range(shape.patients):
        dominant = int(rng.integers(n_groups))
        keywords = _sample(rng, graph.members[dominant].tolist(), kw_dom)
        anchors: dict[int, list[int]] = {}
        for g in supplements:
            pool = [c for c in graph.members[g].tolist() if c not in keywords]
            anchors[g] = _sample(rng, pool, per_sup)
            keywords.extend(anchors[g])
        reach = graph.reach(keywords, REACH_HOPS)
        taken = set(keywords)

        def take(pools, want):
            got: list[int] = []
            for pool in pools:
                if len(got) >= want:
                    break
                fresh = sorted(c for c in pool if c not in taken)
                picked = _sample(rng, fresh, want - len(got))
                got.extend(picked)
                taken.update(picked)
            return got

        out_groups = [g for g in supplements if g != dominant]
        out_count = int(round(shape.skew * shape.gt_per_patient)) if out_groups else 0
        dom = graph.members[dominant]
        gt = take([dom[reach[dom]].tolist(), dom.tolist()], shape.gt_per_patient - out_count)
        for j in range(out_count):
            g = out_groups[j % len(out_groups)]
            nbrs = graph.out(anchors[g])
            one_hop = set(nbrs[graph.group_of[nbrs] == g].tolist())
            members = graph.members[g]
            gt.extend(take([one_hop, members[reach[members]].tolist(), members.tolist()], 1))
        records.append({
            "id": f"P{i:04d}",
            "pre_admission": _pre_admission([graph.names[c] for c in keywords]),
            "reference": _reference([graph.names[c] for c in gt]),
        })
    return records


def write_graph(graph: Graph, out_dir: Path) -> None:
    with open(out_dir / "concepts.tsv", "w", encoding="utf-8") as fh:
        fh.write("id\tname\tgroup\n")
        for cid, name, g in zip(graph.ids, graph.names, graph.group_of.tolist()):
            fh.write(f"{cid}\t{name}\t{graph.group_names[g]}\n")
    with open(out_dir / "relations.tsv", "w", encoding="utf-8") as fh:
        fh.write("src\trelation\tdst\n")
        for s, lab, d in zip(graph.src.tolist(), graph.labels.tolist(), graph.dst.tolist()):
            fh.write(f"{graph.ids[s]}\t{RELATION_LABELS[lab]}\t{graph.ids[d]}\n")


def write_jsonl(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_inputs(shape: Shape, seed: int, out_dir,
                 train_patients: int | None = None) -> dict[str, Path]:
    """Write every input file of one workload; same seed, same bytes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph = build_graph(shape, seed)
    write_graph(graph, out_dir)
    corpus = build_corpus(graph, shape, seed)
    files = {
        "concepts": out_dir / "concepts.tsv",
        "relations": out_dir / "relations.tsv",
        "corpus": out_dir / "patients.jsonl",
    }
    write_jsonl(corpus, files["corpus"])
    if train_patients is not None:
        files["train_corpus"] = out_dir / "train_patients.jsonl"
        write_jsonl(corpus[:train_patients], files["train_corpus"])
    return files
