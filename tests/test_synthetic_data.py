from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from helpers import int_neighbors, ints, make_kg, random_graph_rows

import r2ag.synthetic_data
from r2ag.concept_linker import initial_group, link_concepts, load_corpus
from r2ag.kg_store import load_kg
from r2ag.synthetic_data import REACH_HOPS, SynthSpec, _bfs, gen_corpus, gen_kg


SMALL = dict(
    groups=4, concepts_per_group=12, p_intra=0.15, p_cross=0.02,
    patients=8, keywords_per_patient=6, gt_per_patient=6, skew=0.5,
)


def _generate(tmp_path, seed=0, subdir="d", **overrides):
    spec = SynthSpec(**{**SMALL, **overrides, "seed": seed})
    cpath, rpath = gen_kg(spec, tmp_path / subdir)
    kg = load_kg(cpath, rpath)
    corpus_path = gen_corpus(spec, kg, tmp_path / subdir / "patients.jsonl")
    return spec, kg, cpath, rpath, corpus_path


def test_same_seed_identical_files(tmp_path):
    _, _, c1, r1, p1 = _generate(tmp_path, seed=5, subdir="a")
    _, _, c2, r2, p2 = _generate(tmp_path, seed=5, subdir="b")
    assert c1.read_bytes() == c2.read_bytes()
    assert r1.read_bytes() == r2.read_bytes()
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seed_differs(tmp_path):
    _, _, c1, _, _ = _generate(tmp_path, seed=5, subdir="a")
    _, _, c2, _, _ = _generate(tmp_path, seed=6, subdir="b")
    assert c1.read_bytes() != c2.read_bytes()


def test_p_intra_one_gives_complete_within_group_digraphs(tmp_path):
    spec = SynthSpec(
        groups=2, concepts_per_group=3, p_intra=1.0, p_cross=0.0,
        patients=1, keywords_per_patient=2, gt_per_patient=2, skew=0.0, seed=1,
    )
    cpath, rpath = gen_kg(spec, tmp_path)
    kg = load_kg(cpath, rpath)
    assert len(kg.indices) == 2 * 3 * 2  # both groups complete: n*(n-1) each
    for g in range(len(kg.groups)):
        members = {c for c, k in enumerate(kg.group_at) if k == g}
        for src in members:
            assert {d for _, d in int_neighbors(kg, src, g)} == members - {src}


def test_edge_count_near_binomial_expectation(tmp_path):
    # mean over 20 fixed seeds vs the closed-form expectation
    spec0 = SynthSpec(**{**SMALL, "seed": 0})
    K, n = spec0.groups, spec0.concepts_per_group
    N = K * n
    intra_pairs = K * n * (n - 1)
    cross_pairs = N * (N - 1) - intra_pairs
    tree = K * (n - 1)
    # tree pairs always end up with exactly one edge; other pairs are Bernoulli
    expect = (
        tree
        + (intra_pairs - tree) * spec0.p_intra
        + cross_pairs * spec0.p_cross
    )
    var = (
        (intra_pairs - tree) * spec0.p_intra * (1 - spec0.p_intra)
        + cross_pairs * spec0.p_cross * (1 - spec0.p_cross)
    )
    counts = []
    for seed in range(20):
        spec = SynthSpec(**{**SMALL, "seed": seed})
        cpath, rpath = gen_kg(spec, tmp_path / f"s{seed}")
        kg = load_kg(cpath, rpath)
        counts.append(len(kg.indices))
    mean = sum(counts) / len(counts)
    sigma_mean = math.sqrt(var / len(counts))
    assert abs(mean - expect) <= 3 * sigma_mean


def test_generated_names_link_back(tmp_path):
    spec, kg, _, _, corpus_path = _generate(tmp_path)
    patients = load_corpus(corpus_path)
    assert len(patients) == spec.patients
    for p in patients:
        keywords = link_concepts(p.pre_admission, kg)
        assert len(keywords) == spec.keywords_per_patient
        gt = link_concepts(p.reference, kg)
        assert len(gt) == spec.gt_per_patient
        assert set(gt).isdisjoint(keywords)


def test_skew_zero_keeps_ground_truth_in_dominant_group(tmp_path):
    spec, kg, _, _, corpus_path = _generate(tmp_path, skew=0.0)
    for p in load_corpus(corpus_path):
        dominant = initial_group(link_concepts(p.pre_admission, kg), kg)
        gt = link_concepts(p.reference, kg)
        assert all(kg.group_at[c] == dominant for c in gt)


def test_skew_one_moves_ground_truth_out_of_dominant_group(tmp_path):
    spec, kg, _, _, corpus_path = _generate(tmp_path, skew=1.0)
    for p in load_corpus(corpus_path):
        dominant = initial_group(link_concepts(p.pre_admission, kg), kg)
        gt = link_concepts(p.reference, kg)
        assert gt, "skew=1 should still produce ground-truth concepts"
        assert all(kg.group_at[c] != dominant for c in gt)


def _oracle_reach(relations_path, starts, hops):
    # independent BFS over the forward edges of the relations file
    edges_by_src = {}
    for line in relations_path.read_text(encoding="utf-8").splitlines()[1:]:
        src, _, dst = line.split("\t")
        edges_by_src.setdefault(src, []).append(dst)
    seen = set(starts)
    frontier = list(starts)
    for _ in range(hops):
        nxt = []
        for src in frontier:
            for dst in edges_by_src.get(src, ()):
                if dst not in seen:
                    seen.add(dst)
                    nxt.append(dst)
        frontier = nxt
    return seen


def test_ground_truth_mostly_reachable_within_hops(tmp_path):
    spec = SynthSpec(seed=3)  # default desk-scale spec
    cpath, rpath = gen_kg(spec, tmp_path)
    kg = load_kg(cpath, rpath)
    corpus_path = gen_corpus(spec, kg, tmp_path / "patients.jsonl")
    total = reachable = 0
    for p in load_corpus(corpus_path):
        keywords = [kg.ids[c] for c in link_concepts(p.pre_admission, kg)]
        gt = [kg.ids[c] for c in link_concepts(p.reference, kg)]
        reach = _oracle_reach(rpath, keywords, REACH_HOPS)
        total += len(gt)
        reachable += sum(1 for c in gt if c in reach)
    assert total > 0
    assert reachable / total >= 0.8


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(groups=1).validate()
    with pytest.raises(ValueError):
        SynthSpec(p_intra=1.5).validate()
    with pytest.raises(ValueError):
        SynthSpec(skew=-0.1).validate()
    SynthSpec().validate()


def test_spec_refuses_shapes_whose_ids_outgrow_both_widths():
    # ids are C{group:02d}{concept:03d}: unique while either field keeps its
    # width; past both they collide from 102 groups of 1001 concepts on
    def ids(groups, per_group):
        return {f"C{g:02d}{c:03d}" for g in range(groups) for c in range(per_group)}

    for groups, per_group in ((100, 1001), (101, 1000)):
        SynthSpec(groups=groups, concepts_per_group=per_group).validate()
        assert len(ids(groups, per_group)) == groups * per_group
    assert len(ids(102, 1001)) < 102 * 1001  # group 10's C101000 is group 101's
    for groups in (101, 102):
        with pytest.raises(ValueError, match="at most 1000 concepts per group"):
            SynthSpec(groups=groups, concepts_per_group=1001).validate()


def test_corpus_rejects_mismatched_graph(tmp_path):
    spec, kg, _, _, _ = _generate(tmp_path)
    other = SynthSpec(**{**SMALL, "groups": 5, "seed": 0})
    with pytest.raises(ValueError, match="groups"):
        gen_corpus(other, kg, tmp_path / "x.jsonl")


def test_bfs_matches_brute_force_reach():
    # reach after h hops = reach after h-1 hops plus every edge target
    # leaving it, recomputed from the raw edge list
    rng = np.random.default_rng(17)
    for _ in range(6):
        rows, edge_rows = random_graph_rows(
            rng, n_groups=3, per_group=12, p_intra=0.08, p_cross=0.02
        )
        kg = make_kg(rows, edge_rows)
        starts = rng.choice(kg.ids, size=3, replace=False).tolist()
        reach = set(starts)
        for depth in range(6):
            assert {kg.ids[c] for c in _bfs(kg, ints(kg, starts), depth)} == reach
            reach |= {dst for src, _, dst in edge_rows if src in reach}


def test_bfs_edge_cases():
    # A0 -> A1 -> B0 -> A0 is a cycle across groups; B1 has no out-edges
    kg = make_kg(
        [("A0", "a zero", "GA"), ("A1", "a one", "GA"),
         ("B0", "b zero", "GB"), ("B1", "b one", "GB")],
        [("A0", "r", "A1"), ("A1", "r", "B0"), ("B0", "r", "A0")],
    )

    def reach(starts, depth):
        return sorted(kg.ids[c] for c in _bfs(kg, ints(kg, starts), depth))

    assert reach(["A1", "A0", "A1"], 0) == ["A0", "A1"]  # duplicates, depth 0
    assert reach(["A0", "A0"], 1) == ["A0", "A1"]
    assert reach(["A0"], 5) == ["A0", "A1", "B0"]  # the cycle ends the walk
    assert reach(["B1"], 3) == ["B1"]  # no out-edges
    assert reach(["B1", "A1"], 1) == ["A1", "B0", "B1"]


# sha256 of each synth file at 12 groups x 100 concepts, made before gen_kg
# drew its n x n edges in row blocks: 1,200 concepts span 11 default blocks
BLOCK_SPEC = dict(
    groups=12, concepts_per_group=100, p_intra=0.08, p_cross=0.01, patients=20,
)
PINNED = {
    5: {
        "concepts.tsv": "84459734ffa94ea3932c26f4bbef23321a9cfbc53909c62767d876b463ec207c",
        "relations.tsv": "651fde1375d3d73e302911fe3157212ad8ff4acd2fc101e6cecf52c5db796826",
        "patients.jsonl": "804f53a98ab3a5275522ec3fa9f89f38dd3cfde87f23207267eaf3dc9f21e8cc",
    },
    11: {
        "concepts.tsv": "c9d61e1400309701d9c47d13e81801a1a23f36d1dd27f3478a7bdcde25b38928",
        "relations.tsv": "bf9805f1c7c94bcc86a1208f24f9605040dcf30742f2cf90a8c4b0f80a0996f1",
        "patients.jsonl": "7b6896cf5a62ea23a697b157201a0d37a2dc5e02f3cc378f7b6b237815fe6ef2",
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED))
@pytest.mark.parametrize("block_rows", [None, 1, 7, 1200])  # default, one row, prime, whole
def test_multi_block_synth_matches_pinned_bytes(tmp_path, monkeypatch, seed, block_rows):
    n = BLOCK_SPEC["groups"] * BLOCK_SPEC["concepts_per_group"]
    if block_rows is not None:
        monkeypatch.setattr(r2ag.synthetic_data, "SYNTH_BLOCK_BYTES", 8 * n * block_rows)
    spec = SynthSpec(**BLOCK_SPEC, seed=seed)
    cpath, rpath = gen_kg(spec, tmp_path)
    corpus_path = gen_corpus(spec, load_kg(cpath, rpath), tmp_path / "patients.jsonl")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (cpath, rpath, corpus_path)}
    assert got == PINNED[seed]


def test_gen_kg_memory_grows_slower_than_concept_pairs(tmp_path):
    # one (n, n) float64 or int64 draw alone would be 8 bytes per pair
    spec = SynthSpec(groups=20, concepts_per_group=100, seed=2)
    n = spec.groups * spec.concepts_per_group
    tracemalloc.start()
    try:
        gen_kg(spec, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n
