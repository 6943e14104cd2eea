from __future__ import annotations

import copy

import numpy as np
import pytest

from conftest import direct_table
from helpers import (
    int_neighbors,
    ints,
    make_kg,
    oracle_connect_choice,
    oracle_retrieve_choice,
)

from r2ag.embeddings import (
    avg_embedding,
    load_embeddings,
    pseudo_embeddings,
)
from r2ag.retrieval_env import (
    GROUP_LEAP,
    PathStep,
    candidate_pool,
    connect,
    init_rollout,
    retrieve,
    step,
)


ENV_CONCEPTS = (
    [(f"A{i}", f"alpha {i}", "GA") for i in range(4)]
    + [(f"B{i}", f"beta {i}", "GB") for i in range(10)]
    + [("Z0", "zulu 0", "GZ")]
)
ENV_EDGES = (
    [
        ("A0", "r1", "A1"),
        ("A1", "r2", "A2"),
        ("A2", "r1", "A3"),
        ("A3", "r2", "A0"),
        ("A2", "r3", "A0"),
    ]
    + [("B0", f"s{i}", f"B{i}") for i in range(1, 9)]  # 8 neighbors of B0
    + [("B1", "s1", "B2"), ("B2", "s1", "B3")]
)


@pytest.fixture
def env_kg():
    return make_kg(ENV_CONCEPTS, ENV_EDGES)


@pytest.fixture
def env_table(env_kg):
    return pseudo_embeddings(env_kg, 8, seed=23)


def _rollout(kg, keywords, k_init, k_scarce, max_steps):
    """``init_rollout`` from concept and group ids."""
    g = kg.group_index
    return init_rollout(ints(kg, keywords), kg, g[k_init], g[k_scarce], max_steps)


def _sq_avg(table, kg, keywords):
    return avg_embedding(table, ints(kg, keywords))


def _step(rs, gid, kg, table, sq):
    step([rs], [kg.group_index[gid]], kg, table, [sq])


def test_init_rollout_filters_origins(env_kg):
    rs = _rollout(env_kg, ["A0", "A2", "B0"], "GA", "GZ", max_steps=5)
    assert [p.origin for p in rs.paths] == ints(env_kg, ["A0", "A2"])
    assert rs.explored == sorted(ints(env_kg, ["A0", "A2"]))
    assert rs.t == 0
    assert rs.current_group == env_kg.group_index["GA"]


def test_init_rollout_requires_origin_in_group(env_kg):
    with pytest.raises(ValueError, match="GA"):
        _rollout(env_kg, ["B0"], "GA", "GZ", max_steps=5)


def test_init_rollout_matches_filter_oracle(env_kg):
    ids = ["A0", "B0", "A1", "B1", "A3"]
    rs = _rollout(env_kg, ids, "GA", "GZ", max_steps=3)
    assert [env_kg.ids[p.origin] for p in rs.paths] == [
        c for c in ids if env_kg.group_at[env_kg.index[c]] == env_kg.group_index["GA"]
    ]


def test_connect_single_candidate_leaps_everywhere(env_kg, env_table):
    rs = _rollout(env_kg, ["A0", "A2", "B5"], "GA", "GZ", max_steps=5)
    pool = candidate_pool(rs, env_kg, env_kg.group_index["GB"])
    [leaps] = connect([rs], env_table, [pool])
    b5 = env_kg.index["B5"]
    assert leaps == [b5, b5]
    for path in rs.paths:
        assert path.steps[-1].label == GROUP_LEAP
        assert path.steps[-1].concept == b5
    assert b5 in rs.explored


def test_step_with_empty_pool_degrades_to_stay(env_kg, env_table):
    rs = _rollout(env_kg, ["A0", "A2"], "GA", "GZ", max_steps=5)
    assert candidate_pool(rs, env_kg, env_kg.group_index["GZ"]) == []
    _step(rs, "GZ", env_kg, env_table, _sq_avg(env_table, env_kg, ["A0", "A2"]))
    assert rs.current_group == env_kg.group_index["GA"]  # group unchanged
    for path in rs.paths:
        assert all(s.label != GROUP_LEAP for s in path.steps)
        assert len(path.steps) == 2  # retrieve still ran within GA


def test_connect_matches_bruteforce_oracle(env_kg, env_table):
    # ten unexplored GB keywords form the candidate pool
    ids = ["A0", "A2"] + [f"B{i}" for i in range(10)]
    rs = _rollout(env_kg, ids, "GA", "GZ", max_steps=5)
    # grow paths a little first so the averages differ per path
    _step(rs, "GA", env_kg, env_table, _sq_avg(env_table, env_kg, ids))
    pool = candidate_pool(rs, env_kg, env_kg.group_index["GB"])
    assert len(pool) == 10
    before = copy.deepcopy(rs.paths)
    [leaps] = connect([rs], env_table, [pool])
    for prior, leap in zip(before, leaps):
        assert leap == oracle_connect_choice(env_table, prior, pool)


def test_retrieve_single_neighbor_is_selected(env_kg, env_table):
    rs = _rollout(env_kg, ["B1"], "GB", "GZ", max_steps=5)
    retrieve([rs], env_kg, env_table, [_sq_avg(env_table, env_kg, ["B1"])])
    assert rs.paths[0].steps[-1].concept == env_kg.index["B2"]
    assert rs.paths[0].steps[-1].label == "s1"


def test_mixed_step_equals_each_rollout_stepped_alone(env_kg, env_table):
    # three patients with 3, 1 and 2 rollouts, each rollout taking its own
    # actions: one step over all of them grows every path as a step over
    # that rollout alone does
    patients = [
        (["A0", "A2", "B0"], "GA", 3),
        (["B1", "B0"], "GB", 1),
        (["A0", "B3", "Z0"], "GA", 2),
    ]
    plans = [
        ["GB", "GA", "GB", "GB", "GA"],
        ["GA", "GA", "GB", "GA", "GB"],
        ["GZ", "GB", "GA", "GB", "GB"],
        ["GB", "GA", "GA", "GB", "GA"],
        ["GA", "GB", "GB", "GZ", "GA"],
        ["GB", "GB", "GA", "GA", "GB"],
    ]

    def start():
        states, sqs = [], []
        for keywords, k_init, n in patients:
            sq = _sq_avg(env_table, env_kg, keywords)
            for _ in range(n):
                states.append(_rollout(env_kg, keywords, k_init, "GZ", max_steps=5))
                sqs.append(sq)
        return states, sqs

    mixed, sqs = start()
    alone, _ = start()
    for t in range(5):
        step(mixed, [env_kg.group_index[p[t]] for p in plans], env_kg, env_table, sqs)
        for rs, sq, plan in zip(alone, sqs, plans):
            _step(rs, plan[t], env_kg, env_table, sq)
    assert any(any(s.label == GROUP_LEAP for s in p.steps) for rs in mixed for p in rs.paths)
    for got, want in zip(mixed, alone):
        assert got.paths == want.paths
        assert (got.frozen, got.explored, got.current_group) == (
            want.frozen, want.explored, want.current_group
        )
    with pytest.raises(ValueError, match="6 rollouts but 5 keyword averages"):
        retrieve(mixed, env_kg, env_table, sqs[:5])


@pytest.mark.parametrize("n_actions, n_sqs", [(2, 0), (1, 2), (3, 2)])
def test_step_with_mismatched_arguments_changes_no_rollout(env_kg, env_table, n_actions, n_sqs):
    # two rollouts, each asked to leap: a mismatch must raise before the
    # first leap, not after connect has moved some of them
    keywords = ["A0", "A2", "B4"]
    states = [_rollout(env_kg, keywords, "GA", "GZ", max_steps=5) for _ in range(2)]
    sq = _sq_avg(env_table, env_kg, keywords)
    before = copy.deepcopy(states)
    leap = env_kg.group_index["GB"]
    with pytest.raises(ValueError, match="2 rollouts but"):
        step(states, [leap] * n_actions, env_kg, env_table, [sq] * n_sqs)
    assert states == before


def test_retrieve_freezes_paths_without_neighbors(env_kg, env_table):
    rs = _rollout(env_kg, ["Z0"], "GZ", "GA", max_steps=5)
    sq = _sq_avg(env_table, env_kg, ["Z0"])
    retrieve([rs], env_kg, env_table, [sq])
    assert rs.frozen == [True]
    snapshot = copy.deepcopy(rs.paths[0])
    _step(rs, "GZ", env_kg, env_table, sq)
    _step(rs, "GA", env_kg, env_table, sq)  # leap would need candidates anyway
    assert rs.paths[0] == snapshot


def test_retrieve_matches_scoring_oracle_including_leap(env_kg, env_table):
    rs = _rollout(env_kg, ["A0", "B0"], "GA", "GZ", max_steps=5)
    sq = _sq_avg(env_table, env_kg, ["A0", "B0"])
    before = copy.deepcopy(rs.paths[0])
    _step(rs, "GB", env_kg, env_table, sq)  # leap to B0, retrieve among 8 nbrs
    leap_step, new_step = rs.paths[0].steps[-2], rs.paths[0].steps[-1]
    b0 = env_kg.index["B0"]
    assert leap_step.label == GROUP_LEAP
    assert leap_step.concept == b0
    # oracle: path average must include the just-appended leap concept
    with_leap = copy.deepcopy(before)
    with_leap.steps.append(PathStep(GROUP_LEAP, b0))
    nbrs = int_neighbors(env_kg, b0, env_kg.group_index["GB"])
    assert len(nbrs) == 8
    expected = oracle_retrieve_choice(env_table, with_leap, nbrs, sq)
    assert (new_step.label, new_step.concept) == expected


def test_stay_action_adds_no_leap_markers(env_kg, env_table):
    rs = _rollout(env_kg, ["A0", "A2"], "GA", "GZ", max_steps=5)
    _step(rs, "GA", env_kg, env_table, _sq_avg(env_table, env_kg, ["A0", "A2"]))
    for path in rs.paths:
        assert all(s.label != GROUP_LEAP for s in path.steps)
        assert len(path.steps) == 2


def test_leap_step_grows_path_by_two(env_kg, env_table):
    rs = _rollout(env_kg, ["A0", "B0"], "GA", "GZ", max_steps=5)
    _step(rs, "GB", env_kg, env_table, _sq_avg(env_table, env_kg, ["A0", "B0"]))
    assert len(rs.paths[0].steps) == 3  # origin + leap + retrieved
    assert rs.current_group == env_kg.group_index["GB"]


def test_full_episode_explored_equals_union(env_kg, env_table):
    rs = _rollout(env_kg, ["A0", "A2", "B0"], "GA", "GZ", max_steps=5)
    sq = _sq_avg(env_table, env_kg, ["A0", "A2", "B0"])
    actions = ["GA", "GB", "GB", "GA", "GB"]
    for a in actions:
        _step(rs, a, env_kg, env_table, sq)
    assert rs.t == 5
    union = {s.concept for p in rs.paths for s in p.steps}
    assert rs.explored == sorted(union)
    with pytest.raises(ValueError, match="finished"):
        _step(rs, "GA", env_kg, env_table, sq)


def test_rollout_is_deterministic(env_kg, env_table):
    def run():
        rs = _rollout(env_kg, ["A0", "A2", "B0"], "GA", "GZ", max_steps=5)
        sq = _sq_avg(env_table, env_kg, ["A0", "A2", "B0"])
        for a in ["GB", "GA", "GB", "GA", "GA"]:
            _step(rs, a, env_kg, env_table, sq)
        return rs.paths

    assert run() == run()


def test_nonleap_steps_follow_graph_edges(env_kg, env_table):
    rs = _rollout(env_kg, ["A0", "A2", "B0"], "GA", "GZ", max_steps=5)
    sq = _sq_avg(env_table, env_kg, ["A0", "A2", "B0"])
    for a in ["GA", "GB", "GB", "GA", "GB"]:
        _step(rs, a, env_kg, env_table, sq)
    edge_set = set(ENV_EDGES)
    ids = env_kg.ids
    for path in rs.paths:
        for prev, cur in zip(path.steps, path.steps[1:]):
            if cur.label != GROUP_LEAP:
                assert (ids[prev.concept], cur.label, ids[cur.concept]) in edge_set


def test_path_dump_shape(env_kg, env_table):
    rs = _rollout(env_kg, ["A0"], "GA", "GZ", max_steps=2)
    _step(rs, "GA", env_kg, env_table, _sq_avg(env_table, env_kg, ["A0"]))
    d = rs.paths[0].to_dict(env_kg)
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
    rs = _rollout(kg, ["N00", "O"], "GB", "GA", max_steps=2)
    sq = _sq_avg(table, kg, ["N00", "O"])
    before = copy.deepcopy(rs.paths)
    retrieve([rs], kg, table, [sq])
    assert rs.frozen == [False, False]
    for prior, path in zip(before, rs.paths):
        got = (path.steps[-1].label, path.steps[-1].concept)
        assert got == oracle_retrieve_choice(
            table, prior, int_neighbors(kg, prior.origin, kg.group_index["GB"]), sq
        )
    label, cid = nbrs[tied[0]]
    assert rs.paths[1].steps[-1] == PathStep(label, kg.index[cid])


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
    rs = _rollout(kg, ["A0", "A1", *pool_ids], "GA", "GB", max_steps=1)
    pool = candidate_pool(rs, kg, kg.group_index["GB"])
    assert pool == ints(kg, pool_ids)
    before = copy.deepcopy(rs.paths)
    [leaps] = connect([rs], table, [pool])
    assert leaps[0] == kg.index[pool_ids[tied[0]]]
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
    # rows outside the graph are dropped: row i is concept ids[i]
    assert padded.matrix.shape == (len(env_kg.ids), 8)
    assert np.array_equal(padded.matrix, plain.matrix)

    def run(table):
        keywords = ["A0", "A2", "B0", "B3"]
        rs = _rollout(env_kg, keywords, "GA", "GZ", max_steps=6)
        sq = _sq_avg(table, env_kg, keywords)
        for a in ["GA", "GB", "GB", "GA", "GB", "GA"]:
            _step(rs, a, env_kg, table, sq)
        return rs.paths

    assert run(padded) == run(plain)
