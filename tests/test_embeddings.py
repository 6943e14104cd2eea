from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_table
from helpers import make_kg, oracle_cosine

import r2ag.embeddings
from r2ag.embeddings import (
    EmbeddingTable,
    avg_embedding,
    avg_embeddings,
    cosine,
    cosines,
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
    assert np.allclose(table.matrix[two_group_kg.index["C2"]], [0, 1, 0, 0])
    assert abs(np.linalg.norm(table.matrix[two_group_kg.index["C3"]]) - 1.0) < 1e-6


@pytest.mark.parametrize(
    "extra, match",
    [
        ([("X9", ["one", 0, 0, 0])], "bad float"),
        ([("X9", [1, 0, 0])], "dimension mismatch"),
        ([("X9", [1, 0, 0, 0]), ("X9", [0, 1, 0, 0])], "duplicate"),
        ([("X9", ["inf", 0, 0, 0])], "non-finite"),
        ([("X9", [0, 0, 0, 0])], "zero vector"),
    ],
)
def test_load_checks_rows_outside_the_graph(tmp_path, two_group_kg, extra, match):
    # X9 is not a graph concept: its rows are checked before they are dropped
    rows = [("C1", [1, 0, 0, 0]), ("C2", [0, 1, 0, 0]), ("C3", [0, 0, 1, 0])]
    path = _write_embeddings(tmp_path, 4, rows + extra)
    with pytest.raises(DataFormatError, match=match):
        load_embeddings(path, two_group_kg)


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


def test_load_refuses_a_huge_header_dimension_before_allocating(tmp_path, two_group_kg):
    # (3, 1e15) float64s are 24 PB: the matrix waits until a row has
    # confirmed the header's dimension, so the first row's mismatch is reported
    path = _write_embeddings(tmp_path, 10**15, [("C1", [1, 0])])
    with pytest.raises(DataFormatError, match=r"emb\.tsv:2: dimension mismatch"):
        load_embeddings(path, two_group_kg)


def test_pseudo_embeddings_deterministic(two_group_kg):
    t1 = pseudo_embeddings(two_group_kg, 8, seed=3)
    t2 = pseudo_embeddings(two_group_kg, 8, seed=3)
    assert t1.dim == t2.dim
    assert np.array_equal(t1.matrix, t2.matrix)


def test_pseudo_embeddings_seed_changes_vectors(two_group_kg):
    t1 = pseudo_embeddings(two_group_kg, 8, seed=3)
    t2 = pseudo_embeddings(two_group_kg, 8, seed=4)
    assert any(not np.array_equal(r1, r2) for r1, r2 in zip(t1.matrix, t2.matrix))


def test_pseudo_embeddings_unit_norm(two_group_kg):
    table = pseudo_embeddings(two_group_kg, 16, seed=0)
    assert table.matrix.shape == (len(two_group_kg.ids), 16)
    for row in table.matrix:
        assert abs(np.linalg.norm(row) - 1.0) < 1e-9


def test_pseudo_embeddings_rejects_tiny_dim(two_group_kg):
    with pytest.raises(ValueError):
        pseudo_embeddings(two_group_kg, 1, seed=0)


def test_pseudo_embeddings_at_production_dimension(two_group_kg):
    table = pseudo_embeddings(two_group_kg, 768, seed=0)
    assert table.dim == 768
    assert table.matrix[0].shape == (768,)
    assert abs(np.linalg.norm(table.matrix[0]) - 1.0) < 1e-9


def test_pseudo_group_structure_beats_cross_group():
    # 4 groups x 10 concepts; exhaustive pairwise cosines as the oracle
    rows = [
        (f"C{g}{i}", f"name {g}{i}", f"G{g}") for g in range(4) for i in range(10)
    ]
    kg = make_kg(rows, [])
    table = pseudo_embeddings(kg, 8, seed=7)
    within, cross = [], []
    ids = sorted(kg.ids)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            sim = oracle_cosine(table.matrix[kg.index[a]], table.matrix[kg.index[b]])
            if kg.group_at[kg.index[a]] == kg.group_at[kg.index[b]]:
                within.append(sim)
            else:
                cross.append(sim)
    assert sum(within) / len(within) > sum(cross) / len(cross)


def test_avg_singleton():
    table = direct_table({"A": [0.6, 0.8]})
    assert np.allclose(avg_embedding(table, {0}), [0.6, 0.8])


def test_avg_opposite_vectors_cancel():
    table = direct_table({"A": [1.0, 0.0], "B": [-1.0, 0.0]})
    assert np.array_equal(avg_embedding(table, {0, 1}), [0.0, 0.0])


def test_avg_matches_independent_summation():
    rng = np.random.default_rng(12)
    vecs = {f"C{i}": rng.standard_normal(5).tolist() for i in range(3)}
    table = direct_table(vecs)
    got = avg_embedding(table, {2, 0, 1})
    expected = [
        sum(vecs[c][k] for c in sorted(vecs)) / 3 for k in range(5)
    ]
    assert np.allclose(got, expected, atol=1e-12)


def test_avg_empty_set_raises():
    table = direct_table({"A": [1.0, 0.0]})
    with pytest.raises(ValueError):
        avg_embedding(table, set())
    with pytest.raises(ValueError):
        avg_embeddings(table, [[0], []])


@pytest.mark.parametrize("d", [2, 5, 8, 32, 128])
def test_avg_embeddings_equal_one_set_sums_bit_for_bit(d):
    # the padded batched gather against the plain sum over one set's rows,
    # signed zeros included
    rng = np.random.default_rng(d)
    matrix = rng.standard_normal((60, d))
    matrix[rng.random((60, d)) < 0.2] = -0.0
    table = EmbeddingTable(d, matrix)
    for _ in range(40):
        sets = [
            sorted(set(rng.integers(0, 60, size=int(rng.integers(1, 16))).tolist()))
            for _ in range(int(rng.integers(1, 12)))
        ]
        got = avg_embeddings(table, sets)
        assert got.shape == (len(sets), d)
        for row, s in zip(got, sets):
            assert row.tobytes() == (matrix[s].sum(axis=0) / len(s)).tobytes()


def test_cosine_hand_values():
    assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert cosine([1.0, 0.0], [-1.0, 0.0]) == -1.0
    assert abs(cosine([1.0, 0.0], [1.0, 1.0]) - 1 / math.sqrt(2)) < 1e-4
    assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0


def _norm_based_cosine(u, v) -> float:
    u_s, v_s = u / np.max(np.abs(u)), v / np.max(np.abs(v))
    den = float(np.linalg.norm(u_s)) * float(np.linalg.norm(v_s))
    return float(np.clip(np.dot(u_s, v_s) / den, -1.0, 1.0))


def test_cosine_equals_its_norm_based_form_bit_for_bit():
    # a (k, d) block gives each row's cosine, rows of their own scales
    rng = np.random.default_rng(31)
    for d in (2, 8, 32, 128):
        for _ in range(200):
            u = rng.standard_normal(d) * 10.0 ** int(rng.integers(-300, 300))
            v = rng.standard_normal(d)
            assert cosine(u, v) == _norm_based_cosine(u, v)
            w = rng.standard_normal(d) * 10.0 ** int(rng.integers(-300, 300))
            assert cosine(np.stack([u, np.zeros(d), w]), v) == [
                _norm_based_cosine(u, v), 0.0, _norm_based_cosine(w, v)]
        assert cosine(np.ones((2, d)), np.zeros(d)) == [0.0, 0.0]


@pytest.mark.parametrize("d", [2, 7, 8, 32, 128])
def test_cosines_entries_equal_each_pair_alone_bit_for_bit(d):
    # a row-wise score depends only on its own pair, whatever the batch
    rng = np.random.default_rng(100 + d)
    table = EmbeddingTable(d, rng.standard_normal((50, d)) * rng.uniform(0.1, 10.0, (50, 1)))
    for c in (1, 2, 3, 17, 3000):
        rows = rng.integers(0, 50, size=c)
        V = rng.standard_normal((c, 2, d))
        got = cosines(table, rows, V)
        assert got.shape == (c, 2)
        alone = [
            cosines(table, rows[i : i + 1], V[i : i + 1, j : j + 1])[0, 0]
            for i in range(c)
            for j in range(2)
        ]
        assert got.ravel().tobytes() == np.array(alone).tobytes()
        for i in range(min(c, 20)):
            for j in range(2):
                want = oracle_cosine(table.matrix[rows[i]], V[i, j])
                assert abs(got[i, j] - want) <= 1e-12


def test_cosines_zero_rows_give_zero():
    table = direct_table({"A": [0.0, 0.0, 0.0], "B": [0.6, 0.8, 0.0]})
    V = np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.6, 0.8, 0.0]]])
    got = cosines(table, [0, 1], V)
    assert got.tolist() == [[0.0, 0.0], [0.0, 1.0]]


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        cosine(np.ones((2, 2)), [1.0, 0.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=2, max_size=6),
    st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=2, max_size=6),
    st.floats(0.1, 100.0),
)
def test_cosine_symmetric_bounded_scale_invariant(u, v, alpha):
    # without subnormal entries, alpha * u is the zero vector only if u is
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    c = cosine(u, v)
    assert -1.0 <= c <= 1.0
    assert cosine(v, u) == pytest.approx(c, abs=1e-12)
    assert cosine([alpha * x for x in u], v) == pytest.approx(c, abs=1e-9)


def test_cosine_of_a_vector_scaled_to_zero_is_zero():
    # 5e-324 * 0.5 underflows, so the scaled input is the zero vector
    assert cosine([5e-324, 0.0], [1.0, 0.0]) == 1.0
    assert cosine([0.5 * 5e-324, 0.0], [1.0, 0.0]) == 0.0


def test_group_vector_singleton():
    kg = make_kg([("A", "a", "G1"), ("B", "b", "G2")], [])
    table = direct_table({"A": [0.6, 0.8], "B": [1.0, 0.0]})
    assert np.allclose(group_vectors(kg, table)[kg.group_index["G1"]], [0.6, 0.8, 0.6, 0.8])


def test_group_vector_opposite_members():
    kg = make_kg([("A", "a", "G1"), ("B", "b", "G1"), ("C", "c", "G2")], [])
    table = direct_table({"A": [1.0, 0.0], "B": [-1.0, 0.0], "C": [0.0, 1.0]})
    gv = group_vectors(kg, table)[kg.group_index["G1"]]
    assert np.allclose(gv[:2], [0.0, 0.0])
    assert np.allclose(gv[2:], [1.0, 0.0])


def test_group_vector_matches_pooling_oracle():
    rng = np.random.default_rng(3)
    rows = [(f"C{i}", f"c{i}", "G1") for i in range(5)] + [("X", "x", "G2")]
    kg = make_kg(rows, [])
    vecs = {cid: rng.standard_normal(4).tolist() for cid, _, _ in rows}
    table = direct_table(vecs)
    gv = group_vectors(kg, table)[kg.group_index["G1"]]
    members = sorted(c for c in vecs if c != "X")
    for k in range(4):
        mean_k = sum(vecs[c][k] for c in members) / len(members)
        max_k = max(vecs[c][k] for c in members)
        assert gv[k] == pytest.approx(mean_k, abs=1e-12)
        assert gv[4 + k] == pytest.approx(max_k, abs=1e-12)


def test_group_vectors_index(tiny_kg, tiny_table):
    gv = group_vectors(tiny_kg, tiny_table)
    assert tiny_kg.group_index == {"Anatomy": 0, "Disorders": 1}
    assert gv.shape == (2, 2 * tiny_table.dim)
    for gid, g in tiny_kg.group_index.items():
        rows = tiny_table.matrix[[i for i, k in enumerate(tiny_kg.group_at) if k == g]]
        assert np.array_equal(gv[g], np.concatenate([rows.mean(axis=0), rows.max(axis=0)]))


def test_embedding_lines_break_at_newline_only(tmp_path):
    kg = make_kg([("C\u20281", "one", "G1"), ("C2", "two", "G2")], [])
    path = _write_embeddings(tmp_path, 2, [("C\u20281", [1, 0]), ("C2", [0, 3])])
    for text in (path.read_text(), path.read_text().replace("\n", "\r\n")):
        path.write_text(text, newline="")
        table = load_embeddings(path, kg)
        assert table.matrix[kg.index["C\u20281"]].tolist() == [1.0, 0.0]
        assert table.matrix[kg.index["C2"]].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("d", [2, 7, 128])
def test_cosines_with_lens_equal_the_repeated_block_bit_for_bit(d):
    # norms taken before the repeat are the norms of the repeated rows
    rng = np.random.default_rng(200 + d)
    table = EmbeddingTable(d, rng.standard_normal((50, d)))
    lens = np.array([1, 4, 2, 9, 1])
    V = rng.standard_normal((len(lens), 2, d)) * rng.uniform(0.1, 10.0, (len(lens), 1, 1))
    V[2, 1] = 0.0
    rows = rng.integers(0, 50, size=lens.sum())
    got = cosines(table, rows, V, lens)
    assert got.tobytes() == cosines(table, rows, np.repeat(V, lens, axis=0)).tobytes()


def _one_gather_cosines(table, rows, V, lens=None):
    """``cosines`` as one gather of every row, before its rows were chunked."""
    norms = np.linalg.norm(V, axis=-1)
    if lens is not None:
        V, norms = np.repeat(V, lens, axis=0), np.repeat(norms, lens, axis=0)
    dots = np.einsum("cd,ckd->ck", table.matrix[rows], V)
    den = table.norms[rows][:, None] * norms
    out = np.zeros_like(dots)
    np.divide(dots, den, out=out, where=den != 0.0)
    return np.clip(out, -1.0, 1.0, out=out)


@pytest.mark.parametrize("chunk", [1, 3, None])  # None: the default
@pytest.mark.parametrize("d", [2, 7, 128])
def test_chunked_cosines_equal_one_gather_bit_for_bit(monkeypatch, d, chunk):
    if chunk is not None:
        monkeypatch.setattr(r2ag.embeddings, "GATHER_ROWS", chunk)
    chunk = r2ag.embeddings.GATHER_ROWS
    rng = np.random.default_rng(300 + d)
    table = EmbeddingTable(d, rng.standard_normal((80, d)) * rng.uniform(0.1, 10.0, (80, 1)))
    table.matrix[3] = 0.0
    table.norms[3] = 0.0
    for c in sorted({1, max(1, chunk - 1), chunk, chunk + 1, 2 * chunk + 5}):
        rows = rng.integers(0, 80, size=c)
        rows[0] = 3
        V = rng.standard_normal((c, 2, d))
        V[-1, 1] = 0.0
        got = cosines(table, rows, V)
        assert got.tobytes() == _one_gather_cosines(table, rows, V).tobytes()
    # runs of rows served by one V[p], several of them across chunk boundaries
    for _ in range(5):
        lens = rng.integers(1, 2 * chunk + 2, size=int(rng.integers(1, 9)))
        V = rng.standard_normal((len(lens), 2, d)) * rng.uniform(0.1, 10.0, (len(lens), 1, 1))
        V[0, 1] = 0.0
        rows = rng.integers(0, 80, size=lens.sum())
        got = cosines(table, rows, V, lens)
        assert got.tobytes() == _one_gather_cosines(table, rows, V, lens).tobytes()


@pytest.mark.parametrize("chunk", [1, 3, None])  # None: the default
@pytest.mark.parametrize("d", [2, 7, 128])
def test_chunked_avg_embeddings_equal_one_gather_bit_for_bit(monkeypatch, d, chunk):
    rng = np.random.default_rng(400 + d)
    matrix = rng.standard_normal((300, d))
    matrix[rng.random((300, d)) < 0.2] = -0.0
    table = EmbeddingTable(d, matrix)
    chunk = chunk or r2ag.embeddings.GATHER_ROWS
    cases = []
    for _ in range(10):
        # set lengths around the chunk, so that gathers split between sets
        # and a set longer than a chunk is gathered alone
        lengths = rng.integers(1, min(300, 2 * chunk + 2), size=int(rng.integers(1, 12)))
        sets = [sorted(rng.choice(300, size=n, replace=False).tolist()) for n in lengths]
        cases.append((sets, avg_embeddings(table, sets)))  # one gather
    monkeypatch.setattr(r2ag.embeddings, "GATHER_ROWS", chunk)
    for sets, whole in cases:
        got = avg_embeddings(table, sets)
        assert got.tobytes() == whole.tobytes()
        for row, s in zip(got, sets):
            assert row.tobytes() == (matrix[s].sum(axis=0) / len(s)).tobytes()


def test_cosines_refuses_vectors_for_another_number_of_rows(monkeypatch):
    # a chunk reads only its own rows of V, so a count that does not match
    # is refused up front rather than left unread
    monkeypatch.setattr(r2ag.embeddings, "GATHER_ROWS", 1)
    table = EmbeddingTable(2, np.eye(2))
    with pytest.raises(ValueError, match="2 rows but vectors for 3"):
        cosines(table, [0, 1], np.ones((3, 1, 2)))
    with pytest.raises(ValueError, match="2 rows but vectors for 3"):
        cosines(table, [0, 1], np.ones((2, 1, 2)), [1, 2])


def test_chunked_avg_embeddings_gather_at_most_a_chunk_of_rows(monkeypatch):
    monkeypatch.setattr(r2ag.embeddings, "GATHER_ROWS", 6)
    gathers = []
    real = r2ag.embeddings._padded_mean

    def spy(table, sets, counts):
        gathers.append(len(sets) * max(counts))
        return real(table, sets, counts)

    monkeypatch.setattr(r2ag.embeddings, "_padded_mean", spy)
    table = EmbeddingTable(2, np.arange(40.0).reshape(20, 2))
    sets = [[0], [1, 2], [3], [4, 5, 6, 7, 8, 9, 10], [11], [12, 13, 14], [15]]
    got = avg_embeddings(table, sets)
    assert gathers == [6, 7, 6, 1]  # the 7-row set is gathered alone
    for row, s in zip(got, sets):
        assert row.tolist() == table.matrix[s].mean(axis=0).tolist()
