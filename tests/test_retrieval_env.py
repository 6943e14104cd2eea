from __future__ import annotations

import copy

import numpy as np
import pytest

from conftest import direct_table
from helpers import (
    ks_of,
    make_kg,
    oracle_connect_choice,
    oracle_retrieve_choice,
)

from r2ag.embeddings import (
    avg_embedding,
    group_vectors,
    load_embeddings,
    pseudo_embeddings,
)
from r2ag.retrieval_env import (
    GROUP_LEAP,
    PathStep,
    action_space,
    candidate_pool,
    connect,
    group_state,
    init_rollout,
    raw_concept_avg,
    retrieve,
    step,
)


@pytest.fixture
def env_kg():
    concepts = [(f"A{i}", f"alpha {i}", "GA") for i in range(4)]
    concepts += [(f"B{i}", f"beta {i}", "GB") for i in range(10)]
    concepts += [("Z0", "zulu 0", "GZ")]
    edges = [
        ("A0", "r1", "A1"),
        ("A1", "r2", "A2"),
        ("A2", "r1", "A3"),
        ("A3", "r2", "A0"),
        ("A2", "r3", "A0"),
    ]
    edges += [("B0", f"s{i}", f"B{i}") for i in range(1, 9)]  # 8 neighbors of B0
    edges += [("B1", "s1", "B2"), ("B2", "s1", "B3")]
    return make_kg(concepts, edges)


@pytest.fixture
def env_table(env_kg):
    return pseudo_embeddings(env_kg, 8, seed=23)


def _sq_avg(table, ks):
    return avg_embedding(table, ks.concept_ids())


def test_init_rollout_filters_origins(env_kg):
    ks = ks_of(env_kg, ["A0", "A2", "B0"])
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)
    assert [p.origin for p in rs.paths] == ["A0", "A2"]
    assert rs.explored == {"A0", "A2"}
    assert rs.t == 0
    assert rs.current_group == rs.prev_group == "GA"


def test_init_rollout_requires_origin_in_group(env_kg):
    ks = ks_of(env_kg, ["B0"])
    with pytest.raises(ValueError, match="GA"):
        init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)


def test_init_rollout_matches_filter_oracle(env_kg):
    ids = ["A0", "B0", "A1", "B1", "A3"]
    ks = ks_of(env_kg, ids)
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=3)
    assert [p.origin for p in rs.paths] == [
        c for c in ids if env_kg.group_of(c) == "GA"
    ]


def test_group_state_identical_halves_when_scarce_is_current():
    kg = make_kg([("P", "p", "X"), ("Q", "q", "Y")], [])
    table = direct_table({"P": [1.0, 0.0], "Q": [0.0, 1.0]})
    gv = group_vectors(kg, table)
    ks = ks_of(kg, ["P"])
    rs = init_rollout(ks, kg, "X", "X", max_steps=1)
    s = group_state(rs, gv)
    assert np.array_equal(s[:4], s[4:])


def test_group_state_manual_concatenation():
    kg = make_kg([("P", "p", "X"), ("Q", "q", "Y")], [])
    table = direct_table({"P": [1.0, 0.0], "Q": [0.0, 1.0]})
    gv = group_vectors(kg, table)
    ks = ks_of(kg, ["P"])
    rs = init_rollout(ks, kg, "X", "Y", max_steps=1)
    s = group_state(rs, gv)
    # groups are singletons: group vec = [member || member]
    assert np.allclose(s, [1, 0, 1, 0, 0, 1, 0, 1])
    assert s.shape == (8,)


def test_raw_concept_avg_matches_avg_embedding(env_kg, env_table):
    ks = ks_of(env_kg, ["A0", "A2"])
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=2)
    assert np.array_equal(
        raw_concept_avg(rs, env_table), avg_embedding(env_table, {"A0", "A2"})
    )


def test_connect_single_candidate_leaps_everywhere(env_kg, env_table):
    ks = ks_of(env_kg, ["A0", "A2", "B5"])
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)
    leaps = connect(rs, env_kg, env_table, "GB")
    assert leaps == ["B5", "B5"]
    for path in rs.paths:
        assert path.steps[-1].label == GROUP_LEAP
        assert path.steps[-1].concept == "B5"
    assert "B5" in rs.explored


def test_step_with_empty_pool_degrades_to_stay(env_kg, env_table):
    ks = ks_of(env_kg, ["A0", "A2"])
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)
    assert candidate_pool(rs, env_kg, "GZ") == []
    step(rs, "GZ", env_kg, env_table, _sq_avg(env_table, ks))
    assert rs.current_group == "GA"  # group unchanged
    for path in rs.paths:
        assert all(s.label != GROUP_LEAP for s in path.steps)
        assert len(path.steps) == 2  # retrieve still ran within GA


def test_connect_matches_bruteforce_oracle(env_kg, env_table):
    # ten unexplored GB keywords form the candidate pool
    ids = ["A0", "A2"] + [f"B{i}" for i in range(10)]
    ks = ks_of(env_kg, ids)
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)
    # grow paths a little first so the averages differ per path
    step(rs, "GA", env_kg, env_table, _sq_avg(env_table, ks))
    pool = candidate_pool(rs, env_kg, "GB")
    assert len(pool) == 10
    before = copy.deepcopy(rs.paths)
    leaps = connect(rs, env_kg, env_table, "GB", pool)
    for prior, leap in zip(before, leaps):
        assert leap == oracle_connect_choice(env_table, prior, pool)


def test_retrieve_single_neighbor_is_selected(env_kg, env_table):
    ks = ks_of(env_kg, ["B1"])
    rs = init_rollout(ks, env_kg, "GB", "GZ", max_steps=5)
    retrieve(rs, env_kg, env_table, _sq_avg(env_table, ks))
    assert rs.paths[0].steps[-1].concept == "B2"
    assert rs.paths[0].steps[-1].label == "s1"


def test_retrieve_freezes_paths_without_neighbors(env_kg, env_table):
    ks = ks_of(env_kg, ["Z0"])
    rs = init_rollout(ks, env_kg, "GZ", "GA", max_steps=5)
    sq = _sq_avg(env_table, ks)
    retrieve(rs, env_kg, env_table, sq)
    assert rs.frozen == [True]
    snapshot = copy.deepcopy(rs.paths[0])
    step(rs, "GZ", env_kg, env_table, sq)
    step(rs, "GA", env_kg, env_table, sq)  # leap would need candidates anyway
    assert rs.paths[0] == snapshot


def test_retrieve_matches_scoring_oracle_including_leap(env_kg, env_table):
    ks = ks_of(env_kg, ["A0", "B0"])
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)
    sq = _sq_avg(env_table, ks)
    before = copy.deepcopy(rs.paths[0])
    step(rs, "GB", env_kg, env_table, sq)  # leap to B0, retrieve among 8 nbrs
    leap_step, new_step = rs.paths[0].steps[-2], rs.paths[0].steps[-1]
    assert leap_step.label == GROUP_LEAP
    assert leap_step.concept == "B0"
    # oracle: path average must include the just-appended leap concept
    with_leap = copy.deepcopy(before)
    from r2ag.retrieval_env import PathStep

    with_leap.steps.append(PathStep(GROUP_LEAP, "B0"))
    nbrs = env_kg.neighbors_in_group("B0", "GB")
    assert len(nbrs) == 8
    expected = oracle_retrieve_choice(env_table, with_leap, nbrs, sq)
    assert (new_step.label, new_step.concept) == expected


def test_stay_action_adds_no_leap_markers(env_kg, env_table):
    ks = ks_of(env_kg, ["A0", "A2"])
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)
    step(rs, "GA", env_kg, env_table, _sq_avg(env_table, ks))
    for path in rs.paths:
        assert all(s.label != GROUP_LEAP for s in path.steps)
        assert len(path.steps) == 2


def test_leap_step_grows_path_by_two(env_kg, env_table):
    ks = ks_of(env_kg, ["A0", "B0"])
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)
    step(rs, "GB", env_kg, env_table, _sq_avg(env_table, ks))
    assert len(rs.paths[0].steps) == 3  # origin + leap + retrieved
    assert rs.current_group == "GB"
    assert rs.prev_group == "GA"


def test_full_episode_explored_equals_union(env_kg, env_table):
    ks = ks_of(env_kg, ["A0", "A2", "B0"])
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)
    sq = _sq_avg(env_table, ks)
    actions = ["GA", "GB", "GB", "GA", "GB"]
    for a in actions:
        step(rs, a, env_kg, env_table, sq)
    assert rs.t == 5
    union = {s.concept for p in rs.paths for s in p.steps}
    assert rs.explored == union
    with pytest.raises(ValueError, match="finished"):
        step(rs, "GA", env_kg, env_table, sq)


def test_action_space_covers_all_groups(env_kg, env_table):
    gv = group_vectors(env_kg, env_table)
    ks = ks_of(env_kg, ["A0"])
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)
    space = action_space(rs, gv)
    assert space.groups == ("GA", "GB", "GZ")
    assert space.matrix.shape == (3, 4 * env_table.dim)
    for i, gid in enumerate(space.groups):
        assert np.array_equal(space.matrix[i, : 2 * env_table.dim], gv.vec("GA"))
        assert np.array_equal(space.matrix[i, 2 * env_table.dim :], gv.vec(gid))


def test_rollout_is_deterministic(env_kg, env_table):
    def run():
        ks = ks_of(env_kg, ["A0", "A2", "B0"])
        rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)
        sq = _sq_avg(env_table, ks)
        for a in ["GB", "GA", "GB", "GA", "GA"]:
            step(rs, a, env_kg, env_table, sq)
        return rs.paths

    assert run() == run()


def test_nonleap_steps_follow_graph_edges(env_kg, env_table):
    ks = ks_of(env_kg, ["A0", "A2", "B0"])
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=5)
    sq = _sq_avg(env_table, ks)
    for a in ["GA", "GB", "GB", "GA", "GB"]:
        step(rs, a, env_kg, env_table, sq)
    edge_set = {(e.src, e.label, e.dst) for e in env_kg.edges}
    for path in rs.paths:
        for prev, cur in zip(path.steps, path.steps[1:]):
            if cur.label != GROUP_LEAP:
                assert (prev.concept, cur.label, cur.concept) in edge_set


def test_path_dump_shape(env_kg, env_table):
    ks = ks_of(env_kg, ["A0"])
    rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=2)
    sq = _sq_avg(env_table, ks)
    step(rs, "GA", env_kg, env_table, sq)
    d = rs.paths[0].to_dict()
    assert d["origin"] == "A0"
    assert d["steps"][0] == {"label": "r1", "concept": "A1"}


# exact ties: identical candidate vectors must score identically in the
# batched product, so the first maximum in sorted order wins


@pytest.mark.parametrize("tied", [(0, 1), (2, 7), (5, 8), (3, 11)])
def test_retrieve_exact_tie_goes_to_smallest_label_then_id(tied):
    # O has 12 neighbours in GB; two of them share the best vector
    rng = np.random.default_rng(sum(tied))
    nbrs = [(f"r{k // 4}", f"N{k:02d}") for k in range(12)]  # sorted (label, id)
    vecs = {"O": [1.0, 0.0, 0.0, 0.0], "P": [0.9, 0.1, 0.0, 0.0]}
    for k, (_, cid) in enumerate(nbrs):
        vecs[cid] = [0.0, *rng.uniform(-1, 1, 3)]
    best = [1.0, 0.3, -0.2, 0.1]
    for k in tied:
        vecs[nbrs[k][1]] = list(best)
    concepts = [("O", "o", "GB"), ("P", "p", "GA")]
    concepts += [(cid, cid.lower(), "GB") for _, cid in nbrs]
    edges = [("O", label, cid) for label, cid in reversed(nbrs)]
    edges += [("N00", "q", "N05"), ("N00", "q", "N06")]
    kg = make_kg(concepts, edges)
    table = direct_table(vecs)
    # N00's path is scored in the same product, ahead of O's
    ks = ks_of(kg, ["N00", "O"])
    rs = init_rollout(ks, kg, "GB", "GA", max_steps=2)
    sq = _sq_avg(table, ks)
    before = copy.deepcopy(rs.paths)
    retrieve(rs, kg, table, sq)
    assert rs.frozen == [False, False]
    for prior, path in zip(before, rs.paths):
        got = (path.steps[-1].label, path.steps[-1].concept)
        assert got == oracle_retrieve_choice(
            table, prior, kg.neighbors_in_group(prior.origin, "GB"), sq
        )
    assert rs.paths[1].steps[-1] == PathStep(*nbrs[tied[0]])


@pytest.mark.parametrize("tied", [(0, 1), (1, 6), (4, 9)])
def test_connect_exact_tie_goes_to_smallest_id(tied):
    rng = np.random.default_rng(10 + sum(tied))
    pool_ids = [f"B{k:02d}" for k in range(10)]
    vecs = {"A0": [1.0, 0.5, 0.0], "A1": [0.2, 1.0, 0.3]}
    for cid in pool_ids:
        vecs[cid] = [-1.0, *rng.uniform(-1, 1, 2)]
    for k in tied:
        vecs[pool_ids[k]] = [1.0, 0.7, 0.1]
    concepts = [("A0", "a0", "GA"), ("A1", "a1", "GA")]
    concepts += [(cid, cid.lower(), "GB") for cid in pool_ids]
    kg = make_kg(concepts, [])
    table = direct_table(vecs)
    rs = init_rollout(ks_of(kg, ["A0", "A1", *pool_ids]), kg, "GA", "GB", max_steps=1)
    pool = candidate_pool(rs, kg, "GB")
    assert pool == pool_ids
    before = copy.deepcopy(rs.paths)
    leaps = connect(rs, kg, table, "GB", pool)
    assert leaps[0] == pool_ids[tied[0]]
    for prior, leap in zip(before, leaps):
        assert leap == oracle_connect_choice(table, prior, pool)


def test_file_table_with_extra_rows_scores_like_one_without(tmp_path, env_kg):
    rng = np.random.default_rng(4)
    rows = {cid: rng.standard_normal(8) for cid in env_kg.ids}
    extra = {"AAA": rng.standard_normal(8), "ZZZ": rng.standard_normal(8)}

    def write(name, items):
        path = tmp_path / name
        path.write_text(
            "dim=8\n"
            + "".join(f"{cid}\t{' '.join(repr(float(x)) for x in v)}\n" for cid, v in items)
        )
        return load_embeddings(path, env_kg)

    plain = write("plain.tsv", sorted(rows.items()))
    # extra ids first in the file, graph rows in reverse order
    padded = write("padded.tsv", [*extra.items(), *reversed(sorted(rows.items()))])
    n = len(env_kg.ids)
    assert padded.ids == env_kg.ids + ("AAA", "ZZZ")
    assert np.array_equal(padded.matrix[:n], plain.matrix)
    assert np.array_equal(padded.vec("AAA"), extra["AAA"] / np.linalg.norm(extra["AAA"]))

    def run(table):
        ks = ks_of(env_kg, ["A0", "A2", "B0", "B3"])
        rs = init_rollout(ks, env_kg, "GA", "GZ", max_steps=6)
        sq = _sq_avg(table, ks)
        for a in ["GA", "GB", "GB", "GA", "GB", "GA"]:
            step(rs, a, env_kg, table, sq)
        return rs.paths

    assert run(padded) == run(plain)
