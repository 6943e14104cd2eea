from __future__ import annotations

import numpy as np
import pytest

from helpers import random_kg

from r2ag.errors import DataFormatError
from r2ag.kg_store import load_kg, normalize_name


MINI_CONCEPTS = [("C1", "aspirin", "Drugs"), ("C2", "chest pain", "Disorders")]
MINI_EDGES = [("C1", "treats", "C2")]


def test_load_minimal_fixture(write_kg):
    kg = load_kg(*write_kg(MINI_CONCEPTS, MINI_EDGES))
    assert len(kg.concepts) == 2
    assert len(kg.edges) == 1
    assert kg.name_of("C1") == "aspirin"
    assert kg.group_of("C2") == "Disorders"


def test_load_rejects_bad_concept_header(write_kg, tmp_path):
    cpath = tmp_path / "bad.tsv"
    cpath.write_text("identifier\tname\tgroup\nC1\ta\tG\n")
    _, rpath = write_kg(MINI_CONCEPTS, MINI_EDGES)
    with pytest.raises(DataFormatError) as exc:
        load_kg(cpath, rpath)
    assert ":1:" in str(exc.value)


def test_load_reports_malformed_line_number(write_kg, tmp_path):
    cpath = tmp_path / "bad2.tsv"
    cpath.write_text("id\tname\tgroup\nC1\taspirin\tDrugs\nC2\tmissing-group\n")
    _, rpath = write_kg(MINI_CONCEPTS, [])
    with pytest.raises(DataFormatError) as exc:
        load_kg(cpath, rpath)
    assert ":3:" in str(exc.value)


def test_load_rejects_duplicate_concept_id(write_kg):
    rows = MINI_CONCEPTS + [("C1", "aspirin again", "Drugs")]
    with pytest.raises(DataFormatError, match="duplicate concept id 'C1'"):
        load_kg(*write_kg(rows, MINI_EDGES))


def test_load_rejects_unknown_edge_endpoint(write_kg):
    with pytest.raises(DataFormatError, match="X9"):
        load_kg(*write_kg(MINI_CONCEPTS, [("C1", "treats", "X9")]))


def test_load_rejects_self_loop(write_kg):
    with pytest.raises(DataFormatError, match="self-loop"):
        load_kg(*write_kg(MINI_CONCEPTS, [("C1", "treats", "C1")]))


def test_load_rejects_empty_graph(write_kg):
    with pytest.raises(DataFormatError, match="empty graph"):
        load_kg(*write_kg([], []))


def test_load_rejects_single_group(write_kg):
    rows = [("C1", "a", "G"), ("C2", "b", "G")]
    with pytest.raises(DataFormatError, match="at least 2 semantic groups"):
        load_kg(*write_kg(rows, []))


def test_load_dedupes_repeated_triples(write_kg):
    kg = load_kg(*write_kg(MINI_CONCEPTS, MINI_EDGES + MINI_EDGES))
    assert len(kg.edges) == 1


def test_unknown_ids_raise_keyerror(tiny_kg):
    with pytest.raises(KeyError, match="ZZ"):
        tiny_kg.group_of("ZZ")
    with pytest.raises(KeyError):
        tiny_kg.neighbors_in_group("ZZ", "Anatomy")
    with pytest.raises(KeyError):
        tiny_kg.group_members("NoSuchGroup")


def test_neighbors_empty_without_out_edges(tiny_kg):
    assert tiny_kg.neighbors_in_group("D4", "Disorders") == []


def test_neighbors_filter_and_order(tiny_kg):
    # D1 has 3 out-edges; two go into Anatomy
    assert tiny_kg.neighbors_in_group("D1", "Anatomy") == [
        ("located_in", "A1"),
        ("located_in", "A3"),
    ]
    assert tiny_kg.neighbors_in_group("D1", "Disorders") == [("finding_of", "D3")]


def test_neighbors_match_edge_list_scan():
    rng = np.random.default_rng(5)
    kg = random_kg(rng, n_groups=5, per_group=10, p_intra=0.2, p_cross=0.05)
    for cid in kg.concepts:
        for gid in kg.all_groups():
            oracle = sorted(
                (e.label, e.dst)
                for e in kg.edges
                if e.src == cid and kg.group_of(e.dst) == gid
            )
            assert kg.neighbors_in_group(cid, gid) == oracle


def test_group_partition_roundtrip(tiny_kg):
    for cid in tiny_kg.concepts:
        assert cid in tiny_kg.group_members(tiny_kg.group_of(cid))


def test_groups_cover_all_concepts(tiny_kg):
    union = set()
    for gid in tiny_kg.all_groups():
        union |= set(tiny_kg.group_members(gid))
    assert union == set(tiny_kg.concepts)


def test_groups_pairwise_disjoint():
    rng = np.random.default_rng(9)
    kg = random_kg(rng, n_groups=4, per_group=8, p_intra=0.3, p_cross=0.1)
    groups = [set(kg.group_members(g)) for g in kg.all_groups()]
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            assert groups[i] & groups[j] == set()


def test_adjacency_flattens_back_to_edge_list(tiny_kg):
    flattened = sorted(
        (src, label, dst)
        for src, nbrs in tiny_kg.adjacency.items()
        for label, dst in nbrs
    )
    assert flattened == sorted((e.src, e.label, e.dst) for e in tiny_kg.edges)


def test_load_is_deterministic(write_kg):
    rows = [
        ("C3", "zeta", "G2"),
        ("C1", "alpha", "G1"),
        ("C2", "beta", "G2"),
    ]
    edges = [("C3", "rel", "C1"), ("C1", "rel", "C2")]
    kg1 = load_kg(*write_kg(rows, edges, suffix="a"))
    kg2 = load_kg(*write_kg(rows, edges, suffix="b"))
    assert list(kg1.concepts) == list(kg2.concepts)
    assert kg1.edges == kg2.edges
    assert kg1.groups == kg2.groups
    assert kg1.adjacency == kg2.adjacency


def test_normalize_name():
    assert normalize_name("  Chest   PAIN, (acute)! ") == "chest pain acute"
    assert normalize_name("---") == ""


def test_load_handles_larger_graphs_quickly(tmp_path):
    # sanity for the production-scale intent: far beyond desk fixtures,
    # still loads in interactive time
    import time

    n, per_group = 10_000, 500
    cpath = tmp_path / "c.tsv"
    rpath = tmp_path / "r.tsv"
    with open(cpath, "w") as fh:
        fh.write("id\tname\tgroup\n")
        for i in range(n):
            fh.write(f"C{i}\tname {i}\tG{i // per_group}\n")
    with open(rpath, "w") as fh:
        fh.write("src\trelation\tdst\n")
        for i in range(n):
            for k in (1, 7, 13, 29):
                fh.write(f"C{i}\trel{k % 3}\tC{(i + k) % n}\n")
    start = time.monotonic()
    kg = load_kg(cpath, rpath)
    elapsed = time.monotonic() - start
    assert len(kg.concepts) == n
    assert len(kg.edges) == 4 * n
    assert len(kg.groups) == n // per_group
    assert elapsed < 30.0
