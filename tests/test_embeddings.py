from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_table
from helpers import make_kg, oracle_cosine

from r2ag.embeddings import (
    avg_embedding,
    cosine,
    group_vector,
    group_vectors,
    load_embeddings,
    pseudo_embeddings,
)
from r2ag.errors import DataFormatError


def _write_embeddings(tmp_path, dim, rows, name="emb.tsv"):
    path = tmp_path / name
    lines = [f"dim={dim}"] + [f"{cid}\t{' '.join(str(x) for x in vec)}" for cid, vec in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def two_group_kg():
    return make_kg(
        [("C1", "one", "G1"), ("C2", "two", "G1"), ("C3", "three", "G2")],
        [],
    )


def test_load_small_table(tmp_path, two_group_kg):
    path = _write_embeddings(
        tmp_path, 4,
        [("C1", [1, 0, 0, 0]), ("C2", [0, 2, 0, 0]), ("C3", [0, 0, 0.5, 0])],
    )
    table = load_embeddings(path, two_group_kg)
    assert table.dim == 4
    # re-normalized on load
    assert np.allclose(table.vec("C2"), [0, 1, 0, 0])
    assert abs(np.linalg.norm(table.vec("C3")) - 1.0) < 1e-6


def test_load_rejects_dimension_mismatch(tmp_path, two_group_kg):
    path = _write_embeddings(tmp_path, 4, [("C1", [1, 0, 0])])
    with pytest.raises(DataFormatError, match="dimension mismatch"):
        load_embeddings(path, two_group_kg)


def test_load_rejects_missing_concept(tmp_path, two_group_kg):
    path = _write_embeddings(tmp_path, 2, [("C1", [1, 0]), ("C2", [0, 1])])
    with pytest.raises(DataFormatError, match="C3"):
        load_embeddings(path, two_group_kg)


def test_load_rejects_non_finite(tmp_path, two_group_kg):
    path = _write_embeddings(
        tmp_path, 2, [("C1", [1, 0]), ("C2", [0, 1]), ("C3", ["nan", 1])]
    )
    with pytest.raises(DataFormatError, match="non-finite"):
        load_embeddings(path, two_group_kg)


def test_load_rejects_duplicate_row(tmp_path, two_group_kg):
    path = _write_embeddings(
        tmp_path, 2, [("C1", [1, 0]), ("C1", [0, 1]), ("C2", [1, 0]), ("C3", [0, 1])]
    )
    with pytest.raises(DataFormatError, match="duplicate"):
        load_embeddings(path, two_group_kg)


def test_load_rejects_bad_header(tmp_path, two_group_kg):
    path = tmp_path / "bad.tsv"
    path.write_text("dimension: 4\n")
    with pytest.raises(DataFormatError, match="dim="):
        load_embeddings(path, two_group_kg)


def test_pseudo_embeddings_deterministic(two_group_kg):
    t1 = pseudo_embeddings(two_group_kg, 8, seed=3)
    t2 = pseudo_embeddings(two_group_kg, 8, seed=3)
    assert t1.dim == t2.dim
    for cid in t1.ids:
        assert np.array_equal(t1.vec(cid), t2.vec(cid))


def test_pseudo_embeddings_seed_changes_vectors(two_group_kg):
    t1 = pseudo_embeddings(two_group_kg, 8, seed=3)
    t2 = pseudo_embeddings(two_group_kg, 8, seed=4)
    assert any(not np.array_equal(t1.vec(c), t2.vec(c)) for c in t1.ids)


def test_pseudo_embeddings_unit_norm(two_group_kg):
    table = pseudo_embeddings(two_group_kg, 16, seed=0)
    for cid in two_group_kg.concepts:
        assert abs(np.linalg.norm(table.vec(cid)) - 1.0) < 1e-9


def test_pseudo_embeddings_rejects_tiny_dim(two_group_kg):
    with pytest.raises(ValueError):
        pseudo_embeddings(two_group_kg, 1, seed=0)


def test_pseudo_embeddings_at_production_dimension(two_group_kg):
    table = pseudo_embeddings(two_group_kg, 768, seed=0)
    assert table.dim == 768
    assert table.vec("C1").shape == (768,)
    assert abs(np.linalg.norm(table.vec("C1")) - 1.0) < 1e-9


def test_pseudo_group_structure_beats_cross_group():
    # 4 groups x 10 concepts; exhaustive pairwise cosines as the oracle
    rows = [
        (f"C{g}{i}", f"name {g}{i}", f"G{g}") for g in range(4) for i in range(10)
    ]
    kg = make_kg(rows, [])
    table = pseudo_embeddings(kg, 8, seed=7)
    within, cross = [], []
    ids = sorted(kg.concepts)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            sim = oracle_cosine(table.vec(a), table.vec(b))
            if kg.group_of(a) == kg.group_of(b):
                within.append(sim)
            else:
                cross.append(sim)
    assert sum(within) / len(within) > sum(cross) / len(cross)


def test_avg_singleton():
    table = direct_table({"A": [0.6, 0.8]})
    assert np.allclose(avg_embedding(table, {"A"}), [0.6, 0.8])


def test_avg_opposite_vectors_cancel():
    table = direct_table({"A": [1.0, 0.0], "B": [-1.0, 0.0]})
    assert np.array_equal(avg_embedding(table, {"A", "B"}), [0.0, 0.0])


def test_avg_matches_independent_summation():
    rng = np.random.default_rng(12)
    vecs = {f"C{i}": rng.standard_normal(5).tolist() for i in range(3)}
    table = direct_table(vecs)
    got = avg_embedding(table, set(vecs))
    expected = [
        sum(vecs[c][k] for c in sorted(vecs)) / 3 for k in range(5)
    ]
    assert np.allclose(got, expected, atol=1e-12)


def test_avg_empty_set_raises():
    table = direct_table({"A": [1.0, 0.0]})
    with pytest.raises(ValueError):
        avg_embedding(table, set())


def test_cosine_hand_values():
    assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert cosine([1.0, 0.0], [-1.0, 0.0]) == -1.0
    assert abs(cosine([1.0, 0.0], [1.0, 1.0]) - 1 / math.sqrt(2)) < 1e-4
    assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=6),
    st.lists(st.floats(-10, 10), min_size=2, max_size=6),
    st.floats(0.1, 100.0),
)
def test_cosine_symmetric_bounded_scale_invariant(u, v, alpha):
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    c = cosine(u, v)
    assert -1.0 <= c <= 1.0
    assert cosine(v, u) == pytest.approx(c, abs=1e-12)
    assert cosine([alpha * x for x in u], v) == pytest.approx(c, abs=1e-9)


def test_group_vector_singleton():
    kg = make_kg([("A", "a", "G1"), ("B", "b", "G2")], [])
    table = direct_table({"A": [0.6, 0.8], "B": [1.0, 0.0]})
    assert np.allclose(group_vector(kg, table, "G1"), [0.6, 0.8, 0.6, 0.8])


def test_group_vector_opposite_members():
    kg = make_kg([("A", "a", "G1"), ("B", "b", "G1"), ("C", "c", "G2")], [])
    table = direct_table({"A": [1.0, 0.0], "B": [-1.0, 0.0], "C": [0.0, 1.0]})
    gv = group_vector(kg, table, "G1")
    assert np.allclose(gv[:2], [0.0, 0.0])
    assert np.allclose(gv[2:], [1.0, 0.0])


def test_group_vector_matches_pooling_oracle():
    rng = np.random.default_rng(3)
    rows = [(f"C{i}", f"c{i}", "G1") for i in range(5)] + [("X", "x", "G2")]
    kg = make_kg(rows, [])
    vecs = {cid: rng.standard_normal(4).tolist() for cid, _, _ in rows}
    table = direct_table(vecs)
    gv = group_vector(kg, table, "G1")
    members = sorted(c for c in vecs if c != "X")
    for k in range(4):
        mean_k = sum(vecs[c][k] for c in members) / len(members)
        max_k = max(vecs[c][k] for c in members)
        assert gv[k] == pytest.approx(mean_k, abs=1e-12)
        assert gv[4 + k] == pytest.approx(max_k, abs=1e-12)


def test_group_vectors_index(tiny_kg, tiny_table):
    gv = group_vectors(tiny_kg, tiny_table)
    assert gv.groups == ("Anatomy", "Disorders")
    assert gv.matrix.shape == (2, 2 * tiny_table.dim)
    assert np.array_equal(gv.vec("Anatomy"), group_vector(tiny_kg, tiny_table, "Anatomy"))
