"""Seeded generator for desk-scale graphs and patient corpora.

The corpus mirrors the information-gap shape the retriever is meant to
bridge: each patient's keywords concentrate in one dominant group (plus one
keyword in each of a few corpus-wide supplement groups), while the
reference text spreads its concepts across those groups, placed within a
few forward hops of the keywords so a competent retriever can reach them.

Concept names are pronounceable nonsense words, globally unique at the
token level, so every name in a generated text links back unambiguously.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic_file import atomic_open
from .evaluation import STOPWORDS
from .kg_store import CONCEPTS_HEADER, RELATIONS_HEADER, KnowledgeGraph

REACH_HOPS = 5

# bytes of one row block of gen_kg's n x n draws (float64 uniforms, then
# int64 labels); a memory bound, not an option: no output byte depends on it
SYNTH_BLOCK_BYTES = 1 << 20

RELATION_LABELS = (
    "associated_with",
    "caused_by",
    "finding_of",
    "located_in",
    "part_of",
    "treated_by",
)

_SYLLABLES = [
    c + v
    for c in "bdfgklmnprstvz"
    for v in "aeiou"
]

# words the text templates use; the name generator must never emit these
_TEMPLATE_WORDS = frozenset(
    """
    allergies chief complaint history present illness patient reports
    episodes prior records mention note noted alongside admitted episode
    acute symptoms testing confirmed treated during stay please monitor
    discharge follow up doctor none recorded
    """.split()
)


@dataclass
class SynthSpec:
    groups: int = 15
    concepts_per_group: int = 50
    p_intra: float = 0.08
    p_cross: float = 0.01
    patients: int = 50
    keywords_per_patient: int = 8
    gt_per_patient: int = 10
    skew: float = 0.9  # fraction of ground-truth concepts outside the dominant group
    seed: int = 0

    def validate(self) -> None:
        if self.groups < 2:
            raise ValueError("need at least 2 groups")
        if self.concepts_per_group < 1:
            raise ValueError("need at least 1 concept per group")
        if self.groups > 100 and self.concepts_per_group > 1000:
            # ids are C{group:02d}{concept:03d}; once both fields outgrow
            # their widths, group 10's concept 1000 and group 101's concept 0
            # are both C101000
            raise ValueError("more than 100 groups needs at most 1000 concepts per group")
        for name in ("p_intra", "p_cross", "skew"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.patients < 1:
            raise ValueError("need at least 1 patient")
        if self.keywords_per_patient < 1:
            raise ValueError("need at least 1 keyword per patient")
        if self.gt_per_patient < 1:
            raise ValueError("need at least 1 ground-truth concept per patient")


def _new_word(rng: np.random.Generator, used: set[str]) -> str:
    while True:
        n = int(rng.integers(3, 5))
        word = "".join(_SYLLABLES[int(rng.integers(len(_SYLLABLES)))] for _ in range(n))
        if word not in used and word not in STOPWORDS and word not in _TEMPLATE_WORDS:
            used.add(word)
            return word


def gen_kg(spec: SynthSpec, out_dir) -> tuple[Path, Path]:
    """Write concepts.tsv and relations.tsv; deterministic per seed."""
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([spec.seed, 0])
    used_words: set[str] = set()

    group_names = [_new_word(rng, used_words).capitalize() for _ in range(spec.groups)]
    concept_rows: list[tuple[str, str, str]] = []
    ids: list[str] = []
    for gi, gname in enumerate(group_names):
        for ci in range(spec.concepts_per_group):
            cid = f"C{gi:02d}{ci:03d}"
            if rng.random() < 0.2:
                name = f"{_new_word(rng, used_words)} {_new_word(rng, used_words)}"
            else:
                name = _new_word(rng, used_words)
            concept_rows.append((cid, name, gname))
            ids.append(cid)

    # Bernoulli edge draws for every ordered pair, then a label for every
    # pair, each drawn in blocks of rows: row blocks of one stream give the
    # same numbers as one (n, n) draw. Each block keeps the row-major flat
    # positions of its edges, so memory grows with n * rows, not n * n.
    n = len(ids)
    gvec = np.arange(n) // spec.concepts_per_group  # group of each concept
    rows = max(1, SYNTH_BLOCK_BYTES // (8 * n))
    starts = range(0, n, rows)
    hits = []
    for lo in starts:
        probs = np.where(gvec[lo : lo + rows, None] == gvec, spec.p_intra, spec.p_cross)
        hit = rng.random(probs.shape) < probs
        hit.reshape(-1)[lo :: n + 1] = False  # the block's diagonal: no self-loops
        hits.append(np.flatnonzero(hit))
    label = np.concatenate([
        rng.integers(0, len(RELATION_LABELS), size=(min(rows, n - lo), n)).reshape(-1)[h]
        for lo, h in zip(starts, hits)
    ])
    key = np.concatenate([h + lo * n for lo, h in zip(starts, hits)])
    drawn = np.stack([key // n, label, key % n], axis=1)  # (src, label, dst) rows

    # forced spanning tree keeps every group internally connected; pairs the
    # draws already cover need no extra edge
    tree = []  # (parent, label, child)
    for gi in range(spec.groups):
        first = gi * spec.concepts_per_group
        for pos in range(1, spec.concepts_per_group):
            parent = first + int(rng.integers(pos))
            tree.append((parent, int(rng.integers(len(RELATION_LABELS))), first + pos))
    tree = np.array(tree, dtype=np.int64).reshape(-1, 3)
    t_key = tree[:, 0] * n + tree[:, 2]
    new = np.searchsorted(key, t_key) == np.searchsorted(key, t_key, side="right")

    concepts_path = out_dir / "concepts.tsv"
    relations_path = out_dir / "relations.tsv"
    with atomic_open(concepts_path) as fh:
        fh.write(CONCEPTS_HEADER + "\n")
        for cid, name, gname in concept_rows:
            fh.write(f"{cid}\t{name}\t{gname}\n")
    with atomic_open(relations_path) as fh:
        fh.write(RELATIONS_HEADER + "\n")
        for s, lab, d in np.concatenate([drawn, tree[new]]).tolist():
            fh.write(f"{ids[s]}\t{RELATION_LABELS[lab]}\t{ids[d]}\n")
    return concepts_path, relations_path


def _bfs(kg: KnowledgeGraph, starts, depth: int) -> np.ndarray:
    """Sorted concept ints within ``depth`` forward hops of ``starts``,
    walked over the CSR one frontier array per hop."""
    bounds = kg.indptr[:: len(kg.groups)]  # concept i's edges: bounds[i]:bounds[i + 1]
    seen = np.zeros(len(kg.ids), dtype=bool)
    frontier = np.asarray(starts, dtype=np.int64)
    seen[frontier] = True
    for _ in range(depth):
        lo, lens = bounds[frontier], bounds[frontier + 1] - bounds[frontier]
        # CSR position of every out-edge of the frontier, node after node
        pos = np.repeat(lo + lens - np.cumsum(lens), lens) + np.arange(lens.sum())
        hit = np.zeros_like(seen)
        hit[kg.indices[pos]] = True
        frontier = np.flatnonzero(hit & ~seen)
        if not frontier.size:
            break
        seen[frontier] = True
    return np.flatnonzero(seen)


def _sample(rng: np.random.Generator, pool: list[int], k: int) -> list[int]:
    if k >= len(pool):
        return list(pool)
    idx = rng.permutation(len(pool))[:k]
    return [pool[i] for i in idx.tolist()]


def _join_names(names: list[str]) -> str:
    if len(names) == 1:
        return names[0]
    return ", ".join(names[:-1]) + " and " + names[-1]


def _pre_admission_text(kg: KnowledgeGraph, keywords: list[int]) -> str:
    names = [kg.names[c] for c in keywords]
    allergy = names[:2]
    chief = names[2:3]
    rest = names[3:] or names[:1]
    sentences = []
    if allergy:
        sentences.append(f"Allergies: {_join_names(allergy)}.")
    if chief:
        sentences.append(f"Chief complaint: {chief[0]}.")
    sentences.append(
        "History of present illness: the patient reports "
        f"{_join_names(rest)} with prior episodes on record."
    )
    return " ".join(sentences)


def _reference_text(kg: KnowledgeGraph, gt: list[int]) -> str:
    names = [kg.names[c] for c in gt]
    third = max(1, len(names) // 3)
    confirmed = names[:third]
    treated = names[third : 2 * third]
    monitor = names[2 * third :]
    sentences = ["You were admitted after an episode of acute symptoms."]
    if confirmed:
        sentences.append(f"Testing confirmed {_join_names(confirmed)}.")
    if treated:
        sentences.append(f"We treated {_join_names(treated)} during your stay.")
    if monitor:
        sentences.append(
            f"Please monitor {_join_names(monitor)} after discharge "
            "and follow up with your doctor."
        )
    return " ".join(sentences)


def _keyword_split(k: int, n_groups: int) -> tuple[int, int]:
    """(supplement group count, keywords per supplement) for k keywords.

    The dominant group must keep a strict plurality of keywords.
    """
    n_sup = min(2, n_groups - 1, max(0, k - 2))
    if n_sup == 0:
        return 0, 0
    per_sup = 2 if k - 2 * n_sup >= 3 else 1
    while n_sup > 0 and k - n_sup * per_sup < per_sup + 1:
        n_sup -= 1
    return n_sup, per_sup


def gen_corpus(spec: SynthSpec, kg: KnowledgeGraph, out_path) -> Path:
    """Write the patient JSONL corpus; deterministic per seed.

    Keywords concentrate in a per-patient dominant group, with a couple of
    anchor keywords in each corpus-wide supplement group. Ground-truth
    concepts split skew/1-skew between the supplement groups and the
    dominant group; supplement-side concepts sit preferentially on direct
    out-neighbors of the anchors (and always inside BFS reach of the
    keywords when possible), so a retriever that leaps to the right groups
    can actually collect them.
    """
    spec.validate()
    rng = np.random.default_rng([spec.seed, 1])
    n_groups = len(kg.groups)
    if n_groups != spec.groups:
        raise ValueError(
            f"graph has {n_groups} groups but the spec declares {spec.groups}"
        )
    # sorted concept ints of each group int, which follow sorted ids
    members: list[list[int]] = [[] for _ in range(n_groups)]
    for c, g in enumerate(kg.group_at):
        members[g].append(c)
    group_at = np.asarray(kg.group_at)
    n_sup, per_sup = _keyword_split(spec.keywords_per_patient, n_groups)
    supplements = sorted(rng.permutation(n_groups)[:n_sup].tolist())

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(out_path) as fh:
        for i in range(spec.patients):
            dominant = int(rng.integers(n_groups))
            kw_dom_count = spec.keywords_per_patient - n_sup * per_sup
            keywords = _sample(rng, members[dominant], kw_dom_count)
            anchors: dict[int, list[int]] = {}
            for g in supplements:
                pool = [c for c in members[g] if c not in keywords]
                anchors[g] = _sample(rng, pool, per_sup)
                keywords.extend(anchors[g])

            reach = _bfs(kg, keywords, REACH_HOPS)
            taken = set(keywords)
            out_groups = [g for g in supplements if g != dominant]
            out_count = int(round(spec.skew * spec.gt_per_patient)) if out_groups else 0
            in_count = spec.gt_per_patient - out_count

            def _take(pools, want):
                got: list[int] = []
                for pool in pools:
                    if len(got) >= want:
                        break
                    fresh = sorted(c for c in pool if c not in taken)
                    picked = _sample(rng, fresh, want - len(got))
                    got.extend(picked)
                    taken.update(picked)
                return got

            reach_group = group_at[reach]
            gt = _take([reach[reach_group == dominant].tolist(), members[dominant]], in_count)
            # each supplement group's pools in order of preference, built once
            pools = {}
            for g in out_groups:
                one_hop = set()
                for a in anchors[g]:
                    lo, hi = kg.neighbor_slice(a, g)
                    one_hop.update(kg.indices[lo:hi].tolist())
                pools[g] = [one_hop, reach[reach_group == g].tolist(), members[g]]
            for j in range(out_count):
                gt.extend(_take(pools[out_groups[j % len(out_groups)]], 1))

            record = {
                "id": f"P{i:04d}",
                "pre_admission": _pre_admission_text(kg, keywords),
                "reference": _reference_text(kg, gt),
            }
            fh.write(json.dumps(record) + "\n")
    return out_path
