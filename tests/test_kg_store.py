from __future__ import annotations

import numpy as np
import pytest

from helpers import int_neighbors, make_kg, random_graph_rows

from r2ag.errors import DataFormatError
from r2ag.kg_store import load_kg, normalize_name


MINI_CONCEPTS = [("C1", "aspirin", "Drugs"), ("C2", "chest pain", "Disorders")]
MINI_EDGES = [("C1", "treats", "C2")]


def _neighbors(kg, cid, gid):
    """Forward neighbours of concept ``cid`` in group ``gid``, as
    (label, concept id) pairs."""
    nbrs = int_neighbors(kg, kg.index[cid], kg.group_index[gid])
    return [(label, kg.ids[d]) for label, d in nbrs]


def _members(kg, gid):
    """Ids of the concepts in group ``gid``."""
    g = kg.group_index[gid]
    return [cid for cid, k in zip(kg.ids, kg.group_at) if k == g]


def test_load_minimal_fixture(write_kg):
    kg = load_kg(*write_kg(MINI_CONCEPTS, MINI_EDGES))
    assert kg.ids == ("C1", "C2")
    assert kg.names == ("aspirin", "chest pain")
    assert len(kg.indices) == 1
    assert kg.groups == ("Disorders", "Drugs")
    assert kg.group_at == (1, 0)


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
    assert len(kg.indices) == 1


def test_load_dedupes_triples_on_non_adjacent_lines(write_kg):
    rows = MINI_CONCEPTS + [("C3", "ibuprofen", "Drugs")]
    edges = [
        ("C1", "treats", "C2"),
        ("C3", "treats", "C2"),
        ("C1", "causes", "C2"),
        ("C1", "treats", "C2"),  # repeats line 2
        ("C1", "treats", "C3"),
    ]
    kg = load_kg(*write_kg(rows, edges))
    assert len(kg.indices) == 4
    assert _neighbors(kg, "C1", "Disorders") == [("causes", "C2"), ("treats", "C2")]
    assert _neighbors(kg, "C1", "Drugs") == [("treats", "C3")]


def test_labels_get_distinct_codes_in_python_string_order(write_kg):
    # NumPy "<U" arrays drop trailing NULs, which would merge "x" and "x\x00"
    labels = ["\u00c4x", "xZ", "x\x00", "x"]
    edges = [("C1", label, "C2") for label in labels]
    kg = load_kg(*write_kg(MINI_CONCEPTS, edges))
    assert kg.label_names == ("x", "x\x00", "xZ", "\u00c4x")
    assert len(set(kg.labels.tolist())) == 4
    assert _neighbors(kg, "C1", "Disorders") == [(l, "C2") for l in sorted(labels)]


def test_unknown_ids_raise_keyerror(tiny_kg):
    with pytest.raises(KeyError, match="ZZ"):
        tiny_kg.index["ZZ"]
    with pytest.raises(KeyError):
        tiny_kg.group_index["NoSuchGroup"]


def test_neighbors_empty_without_out_edges(tiny_kg):
    assert _neighbors(tiny_kg, "D4", "Disorders") == []


def test_neighbors_filter_and_order(tiny_kg):
    # D1 has 3 out-edges; two go into Anatomy
    assert _neighbors(tiny_kg, "D1", "Anatomy") == [
        ("located_in", "A1"),
        ("located_in", "A3"),
    ]
    assert _neighbors(tiny_kg, "D1", "Disorders") == [("finding_of", "D3")]


def test_neighbors_match_edge_list_scan():
    rng = np.random.default_rng(5)
    rows, edge_rows = random_graph_rows(rng, n_groups=5, per_group=10, p_intra=0.2, p_cross=0.05)
    kg = make_kg(rows, edge_rows)
    group = {cid: g for cid, _, g in rows}
    for cid, _, _ in rows:
        for gid in kg.groups:
            oracle = sorted(
                (label, dst)
                for src, label, dst in edge_rows
                if src == cid and group[dst] == gid
            )
            assert _neighbors(kg, cid, gid) == oracle


def test_group_partition_roundtrip(tiny_kg):
    for cid in tiny_kg.ids:
        assert cid in _members(tiny_kg, tiny_kg.groups[tiny_kg.group_at[tiny_kg.index[cid]]])


def test_groups_cover_all_concepts(tiny_kg):
    union = set()
    for gid in tiny_kg.groups:
        union |= set(_members(tiny_kg, gid))
    assert union == set(tiny_kg.ids)


def test_groups_pairwise_disjoint():
    rng = np.random.default_rng(9)
    kg = make_kg(*random_graph_rows(rng, n_groups=4, per_group=8, p_intra=0.3, p_cross=0.1))
    groups = [set(_members(kg, g)) for g in kg.groups]
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            assert groups[i] & groups[j] == set()


def test_csr_slices_flatten_back_to_edge_list(tiny_rows):
    rng = np.random.default_rng(5)
    random_rows = random_graph_rows(rng, n_groups=4, per_group=10, p_intra=0.3, p_cross=0.05)
    for rows, edge_rows in (tiny_rows, random_rows):
        kg = make_kg(rows, edge_rows)
        n_groups = len(kg.groups)
        flattened = []
        for i, src in enumerate(kg.ids):
            for g, gid in enumerate(kg.groups):
                lo, hi = int(kg.indptr[i * n_groups + g]), int(kg.indptr[i * n_groups + g + 1])
                assert kg.neighbor_slice(i, g) == (lo, hi)
                block = [
                    (kg.label_names[kg.labels[k]], kg.ids[kg.indices[k]]) for k in range(lo, hi)
                ]
                assert block == sorted(block)
                assert all(kg.group_at[kg.index[dst]] == g for _, dst in block)
                flattened.extend((src, label, dst) for label, dst in block)
        assert len(flattened) == len(edge_rows)
        assert sorted(flattened) == sorted(edge_rows)
        # the batched lookup returns the same bounds for every pair at once
        pairs = np.array([(i, g) for i in range(len(kg.ids)) for g in range(n_groups)])
        lo, hi = kg.neighbor_slice(pairs[:, 0], pairs[:, 1])
        assert list(zip(lo.tolist(), hi.tolist())) == [kg.neighbor_slice(i, g) for i, g in pairs]


def test_load_is_deterministic(write_kg):
    # neither the ids nor the groups come in sorted order, and the smallest
    # id lies in the larger group
    rows = [
        ("C3", "zeta", "G1"),
        ("C1", "alpha", "G2"),
        ("C2", "beta", "G2"),
    ]
    edges = [("C3", "rel", "C1"), ("C1", "rel", "C2")]
    kg1 = load_kg(*write_kg(rows, edges, suffix="a"))
    kg2 = load_kg(*write_kg(rows, edges, suffix="b"))
    assert kg1.names == kg2.names
    assert kg1.groups == kg2.groups
    assert kg1.ids == kg2.ids
    assert kg1.group_at == kg2.group_at
    assert np.array_equal(kg1.indptr, kg2.indptr)
    assert np.array_equal(kg1.indices, kg2.indices)
    assert np.array_equal(kg1.labels, kg2.labels)
    assert kg1.label_names == kg2.label_names
    # ints follow sorted ids and sorted groups, whatever the row order
    assert kg1.ids == ("C1", "C2", "C3")
    assert kg1.names == ("alpha", "beta", "zeta")
    assert kg1.index == {"C1": 0, "C2": 1, "C3": 2}
    assert kg1.groups == ("G1", "G2")
    assert kg1.group_index == {"G1": 0, "G2": 1}
    assert kg1.group_at == (1, 1, 0)
    group = {cid: gid for cid, _, gid in rows}
    for i, cid in enumerate(kg1.ids):
        assert kg1.groups[kg1.group_at[i]] == group[cid]


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
    assert len(kg.ids) == n
    assert len(kg.indices) == 4 * n
    assert len(kg.groups) == n // per_group
    assert elapsed < 30.0


def test_tsv_lines_break_at_newline_only(write_kg):
    # a concept name holding U+2028 (or U+0085) stays one row, a bad row's
    # line number is the one `sed -n` shows, and CRLF reads as LF
    rows = [("C1", "aspirin\u2028tablet", "Drugs"), ("C2", "chest\x85pain", "Disorders")]
    cpath, rpath = write_kg(rows, MINI_EDGES)
    kg = load_kg(cpath, rpath)
    assert kg.names == ("aspirin\u2028tablet", "chest\x85pain")
    for path in (cpath, rpath):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_kg(cpath, rpath).names == kg.names
    cpath.write_bytes(cpath.read_bytes() + b"C3\tno group\n")
    with pytest.raises(DataFormatError, match=r"concepts\.tsv:4: expected 3"):
        load_kg(cpath, rpath)
