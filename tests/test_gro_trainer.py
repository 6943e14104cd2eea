from __future__ import annotations

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_table
from helpers import (
    make_kg,
    oracle_avg,
    oracle_cosine,
    per_rollout_dist,
    random_kg,
    rowwise_gradient,
)

from r2ag import gro_trainer
from r2ag.concept_linker import PatientInput, initial_group, scarce_group
from r2ag.embeddings import (
    EmbeddingTable,
    avg_embedding,
    group_vectors,
    pseudo_embeddings,
)
from r2ag.errors import (
    DataFormatError,
    MissingReferenceError,
    NoTrainablePatientsError,
    UnlinkableInputError,
)
from r2ag.gro_trainer import (
    GroundTruthConcepts,
    PatientContext,
    TrainConfig,
    TrainingDivergedError,
    accumulate_gradient,
    build_ground_truth,
    link_patient,
    patient_context,
    path_rewards,
    relative_rewards,
    rollout_reward,
    rollout_rewards,
    run_rollout,
    run_rollouts,
    train,
    train_patient,
)
from r2ag.policy_net import (
    init_params,
    logprob_backward,
    param_shapes,
    sample_action,
)
from r2ag.retrieval_env import GROUP_LEAP, PathStep, ReasoningPath


def _table(vectors):
    """``direct_table`` and the row int of each id (its sorted-id position)."""
    return direct_table(vectors), {cid: i for i, cid in enumerate(sorted(vectors))}


def _path(ix, *ids):
    steps = [PathStep(None, ix[ids[0]])]
    steps += [PathStep("rel", ix[c]) for c in ids[1:]]
    return ReasoningPath(ix[ids[0]], steps)


def _path_reward(path, gt, table, reward_weight):
    return path_rewards([path], gt, table, reward_weight)[0]


def _gt(table, ix, ids):
    rows = {ix[c] for c in ids}
    return GroundTruthConcepts(rows, avg_embedding(table, rows) if rows else None)


@pytest.fixture
def trainer_kg():
    concepts = [
        ("F1", "foo", "GA"), ("F2", "fog", "GA"), ("F3", "fum", "GA"),
        ("B1", "bar", "GB"), ("B2", "bop", "GB"),
        ("C1", "caz", "GC"), ("C2", "cog", "GC"),
    ]
    edges = [
        ("F1", "r", "F2"), ("F2", "r", "F3"), ("F3", "r", "F1"),
        ("B1", "r", "B2"), ("B2", "r", "B1"),
        ("C1", "r", "C2"), ("C2", "r", "C1"),
    ]
    return make_kg(concepts, edges)


@pytest.fixture
def trainer_table(trainer_kg):
    return pseudo_embeddings(trainer_kg, 6, seed=2)


@pytest.fixture
def trainer_patient():
    return PatientInput(
        id="P1",
        pre_admission="foo then fog, with bar present.",
        reference="Treating fum and bop; caz improved.",
    )


def test_path_reward_zero_when_disjoint_and_orthogonal():
    table, ix = _table({"X": [1.0, 0.0], "Y": [0.0, 1.0]})
    assert _path_reward(_path(ix, "X"), _gt(table, ix, {"Y"}), table, 10.0) == 0.0


def test_path_reward_direct_substitution():
    # two hits and an exact 0.5 cosine between averages: 2 + 10 * 0.5 = 7
    table, ix = _table(
        {"P1": [1.0, 0.0], "P2": [1.0, 0.0], "R": [-1.0, math.sqrt(3.0)]}
    )
    gt = _gt(table, ix, {"P1", "P2", "R"})
    reward = _path_reward(_path(ix, "P1", "P2"), gt, table, 10.0)
    assert reward == pytest.approx(7.0, abs=1e-9)


def test_path_reward_counts_distinct_concepts_once():
    table, ix = _table({"P1": [1.0, 0.0], "P2": [1.0, 0.0]})
    gt = _gt(table, ix, {"P1", "P2"})
    looped = _path(ix, "P1", "P2", "P1", "P2", "P1")
    assert _path_reward(looped, gt, table, 0.0) == 2.0


def test_path_reward_empty_ground_truth_is_zero(caplog):
    table, ix = _table({"X": [1.0, 0.0]})
    assert _path_reward(_path(ix, "X"), _gt(table, ix, set()), table, 10.0) == 0.0


def test_path_reward_matches_bruteforce():
    rng = np.random.default_rng(4)
    ids = [f"K{i}" for i in range(12)]
    table, ix = _table({cid: rng.standard_normal(5).tolist() for cid in ids})
    path = _path(ix, *ids[:6])
    gt_ids = set(ids[4:8])
    gt = _gt(table, ix, gt_ids)
    got = _path_reward(path, gt, table, 10.0)
    hits = sum(1 for c in dict.fromkeys(ids[:6]) if c in gt_ids)
    expected = hits + 10.0 * oracle_cosine(
        oracle_avg(table, {ix[c] for c in ids[:6]}), oracle_avg(table, gt.concepts)
    )
    assert got == pytest.approx(expected, abs=1e-9)


class _FakeRecord:
    def __init__(self, paths):
        self.paths = paths


def test_rollout_reward_single_path():
    table, ix = _table({"P1": [1.0, 0.0], "Q": [0.0, 1.0]})
    gt = _gt(table, ix, {"P1"})
    rec = _FakeRecord([_path(ix, "P1")])
    assert rollout_reward(rec, gt, table, 0.0) == _path_reward(
        _path(ix, "P1"), gt, table, 0.0
    )


def test_rollout_reward_is_mean_over_paths():
    # with weight 0 the rewards are pure hit counts: {2, 4} -> 3
    table, ix = _table({c: [1.0, 0.0] for c in "abcd"})
    gt = _gt(table, ix, set("abcd"))
    rec = _FakeRecord([_path(ix, "a", "b"), _path(ix, "a", "b", "c", "d")])
    assert rollout_reward(rec, gt, table, 0.0) == 3.0


def test_rollout_reward_matches_explicit_loop():
    rng = np.random.default_rng(9)
    ids = [f"K{i}" for i in range(9)]
    table, ix = _table({cid: rng.standard_normal(4).tolist() for cid in ids})
    gt = _gt(table, ix, set(ids[3:7]))
    paths = [_path(ix, *ids[0:3]), _path(ix, *ids[2:6]), _path(ix, *ids[5:9])]
    rec = _FakeRecord(paths)
    expected = sum(_path_reward(p, gt, table, 10.0) for p in paths) / 3
    assert rollout_reward(rec, gt, table, 10.0) == pytest.approx(expected, abs=1e-12)


def test_rollout_reward_no_paths_raises():
    table, ix = _table({"X": [1.0, 0.0]})
    with pytest.raises(ValueError):
        rollout_reward(_FakeRecord([]), _gt(table, ix, {"X"}), table, 1.0)


def test_relative_rewards_equal_inputs():
    out = relative_rewards([3.0, 3.0, 3.0, 3.0])
    assert np.allclose(out, 0.25)


def test_relative_rewards_hand_value():
    out = relative_rewards([0.0, math.log(3.0)])
    assert out[0] == pytest.approx(0.25, abs=1e-10)
    assert out[1] == pytest.approx(0.75, abs=1e-10)


def test_relative_rewards_rejects_non_finite():
    with pytest.raises(ValueError):
        relative_rewards([1.0, float("inf")])
    with pytest.raises(ValueError):
        relative_rewards([1.0])


@settings(max_examples=50, deadline=None)
@given(
    # spreads beyond ~36 saturate float64 softmax to exactly 1.0
    st.lists(st.floats(-15, 15), min_size=2, max_size=8),
    st.floats(-100, 100),
)
def test_relative_rewards_properties(rewards, shift):
    out = relative_rewards(rewards)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(out > 0) and np.all(out < 1)
    shifted = relative_rewards([r + shift for r in rewards])
    assert np.allclose(out, shifted, atol=1e-12)


def _scripted(seq):
    it = iter(list(seq))
    return lambda dist: next(it)


def _context(kg, table, patient):
    return patient_context(patient.pre_admission, kg, table)


def test_run_rollout_records_T_actions(trainer_kg, trainer_table, trainer_patient):
    params = init_params(trainer_table.dim, seed=0)
    gv = group_vectors(trainer_kg, trainer_table)
    ctx = _context(trainer_kg, trainer_table, trainer_patient)
    rec = run_rollout(params, ctx, trainer_kg, trainer_table, gv, 4, _scripted([0, 1, 2, 0]))
    assert len(rec.actions) == 4
    assert len(rec.caches) == 4
    assert rec.state.t == 4


def test_lockstep_group_equals_separate_rollouts():
    # criterion-3-style random graphs and random action scripts: G rollouts
    # stepped together end exactly as G one-rollout runs of the same scripts.
    # Their policy scores come from one (G, 5d) product instead of G
    # one-row ones, so they agree to rounding, not to the bit
    rng = np.random.default_rng(808)
    rollouts = leaps = frozen = 0
    for _ in range(100):
        n_groups = int(rng.integers(3, 7))
        per_group = int(rng.integers(4, min(34, 200 // n_groups + 1)))
        kg = random_kg(rng, n_groups, per_group, p_intra=0.15, p_cross=0.03)
        table = pseudo_embeddings(kg, 8, seed=int(rng.integers(100_000)))
        gv = group_vectors(kg, table)
        keywords = rng.permutation(len(kg.ids))[: int(rng.integers(3, 8))].tolist()
        ctx = PatientContext(
            keywords, initial_group(keywords, kg), scarce_group(keywords, kg),
            avg_embedding(table, keywords),
        )
        params = init_params(8, seed=int(rng.integers(1000)))
        G, T = int(rng.integers(2, 7)), int(rng.integers(1, 7))
        scripts = rng.integers(n_groups, size=(G, T)).tolist()
        group = run_rollouts(params, [ctx], kg, table, gv, T, lambda i, t, d: scripts[i][t], G)
        assert len(group) == G
        for script, rec in zip(scripts, group):
            alone = run_rollout(params, ctx, kg, table, gv, T, _scripted(script))
            assert rec.actions == alone.actions == script
            assert rec.paths == alone.paths
            assert rec.state.frozen == alone.state.frozen
            assert rec.state.explored == alone.state.explored
            assert rec.state.current_group == alone.state.current_group
            for cache, single in zip(rec.caches, alone.caches):
                np.testing.assert_allclose(cache.dist, single.dist, rtol=1e-12)
                np.testing.assert_allclose(cache.x, single.x, rtol=1e-12)
            rollouts += 1
            leaps += sum(s.label == GROUP_LEAP for p in rec.paths for s in p.steps)
            frozen += sum(rec.state.frozen)
    assert rollouts > 300 and leaps > 100 and frozen > 100


@pytest.mark.parametrize("d", [2, 8, 32, 128])
@pytest.mark.parametrize("R", [1, 2, 4, 50])
def test_block_forward_matches_per_rollout_oracle(d, R):
    # a serving block of R random patients: every step's one block forward
    # against [0 || gv] gives each rollout the distribution of its own
    # matrix-vector forward against [gv[current] || gv]
    rng = np.random.default_rng([d, R])
    kg = random_kg(rng, 6, 12, p_intra=0.2, p_cross=0.05)
    table = pseudo_embeddings(kg, d, seed=int(rng.integers(100_000)))
    gv = group_vectors(kg, table)
    params = init_params(d, seed=int(rng.integers(1000)))
    ctxs = []
    for _ in range(R):
        keywords = rng.permutation(len(kg.ids))[: int(rng.integers(2, 7))].tolist()
        ctxs.append(PatientContext(
            keywords, initial_group(keywords, kg), scarce_group(keywords, kg),
            avg_embedding(table, keywords),
        ))
    u = rng.random((R, 4))
    records = run_rollouts(
        params, ctxs, kg, table, gv, 4, lambda i, t, dist: sample_action(dist, u[i, t])
    )
    shared = records[0].caches[0].actions
    for ctx, rec in zip(ctxs, records):
        assert np.array_equal(rec.caches[0].x[: 2 * d], gv[ctx.k_init])
        for cache in rec.caches:
            assert cache.actions is shared
            assert np.array_equal(cache.x[2 * d : 4 * d], gv[ctx.k_scarce])
            oracle = per_rollout_dist(params, gv, cache.x[: 4 * d], cache.c_avg)
            np.testing.assert_allclose(cache.dist, oracle, rtol=1e-12)


def _two_singleton_groups():
    kg = make_kg([("P", "p", "X"), ("Q", "q", "Y")], [])
    return kg, direct_table({"P": [1.0, 0.0], "Q": [0.0, 1.0]})


def _first_cache(kg, table, scarce):
    # one rollout from keyword P in group X, staying put for one step
    p, x = kg.index["P"], kg.group_index["X"]
    ctx = PatientContext([p], x, kg.group_index[scarce], avg_embedding(table, [p]))
    rec = run_rollout(init_params(2, seed=0), ctx, kg, table, group_vectors(kg, table),
                      1, _scripted([x]))
    return rec.caches[0]


def test_rollout_group_state_identical_halves_when_scarce_is_current():
    kg, table = _two_singleton_groups()
    s = _first_cache(kg, table, "X").x[:8]
    assert np.array_equal(s[:4], s[4:])


def test_rollout_group_state_manual_concatenation():
    kg, table = _two_singleton_groups()
    s = _first_cache(kg, table, "Y").x[:8]
    # groups are singletons: group vec = [member || member]
    assert np.array_equal(s, [1, 0, 1, 0, 0, 1, 0, 1])


def test_rollout_action_matrix_covers_all_groups_and_is_shared(
    trainer_kg, trainer_table, trainer_patient
):
    d = trainer_table.dim
    gv = group_vectors(trainer_kg, trainer_table)
    ctx = _context(trainer_kg, trainer_table, trainer_patient)
    records = run_rollouts(init_params(d, seed=0), [ctx], trainer_kg, trainer_table, gv, 3,
                           lambda i, t, dist: (i + t) % 3, 2)
    actions = records[0].caches[0].actions
    assert actions.shape == (len(trainer_kg.groups), 4 * d)
    assert np.all(actions[:, : 2 * d] == 0.0)
    assert np.array_equal(actions[:, 2 * d :], gv)
    assert all(cache.actions is actions for rec in records for cache in rec.caches)


@pytest.mark.parametrize("G,T", [(2, 1), (4, 5), (3, 8)])
def test_uniform_block_equals_sequential_draws(G, T):
    # train_patient draws a (G, T) block where rollouts once drew one by one
    block, single = np.random.default_rng([G, T]), np.random.default_rng([G, T])
    u = block.random((G, T))
    assert u.tolist() == [[single.random() for _ in range(T)] for _ in range(G)]
    assert block.bit_generator.state == single.bit_generator.state


def test_identical_records_match_single_rollout_gradient(
    trainer_kg, trainer_table, trainer_patient
):
    params = init_params(trainer_table.dim, seed=1)
    gv = group_vectors(trainer_kg, trainer_table)
    ctx = _context(trainer_kg, trainer_table, trainer_patient)
    rec = run_rollout(params, ctx, trainer_kg, trainer_table, gv, 3, _scripted([0, 1, 0]))
    twice = accumulate_gradient(params, [rec, rec], np.array([0.5, 0.5]), 0.5)
    once = accumulate_gradient(params, [rec], np.array([0.5]), 0.5)
    assert np.allclose(twice.dW1, once.dW1, atol=1e-15)
    assert np.allclose(twice.dW2, once.dW2, atol=1e-15)
    assert np.allclose(twice.dM, once.dM, atol=1e-15)


def test_gradient_scales_linearly_with_relative_rewards(
    trainer_kg, trainer_table, trainer_patient
):
    params = init_params(trainer_table.dim, seed=1)
    gv = group_vectors(trainer_kg, trainer_table)
    ctx = _context(trainer_kg, trainer_table, trainer_patient)
    recs = [
        run_rollout(params, ctx, trainer_kg, trainer_table, gv, 3, _scripted(seq))
        for seq in ([0, 1, 0], [2, 2, 1])
    ]
    rel = np.array([0.3, 0.7])
    g1 = accumulate_gradient(params, recs, rel, 0.1)
    g3 = accumulate_gradient(params, recs, 3.0 * rel, 0.1)
    assert np.allclose(3.0 * g1.dW1, g3.dW1, atol=1e-12)
    assert np.allclose(3.0 * g1.dM, g3.dM, atol=1e-12)


def test_train_patient_gamma_zero_uses_only_final_step(
    trainer_kg, trainer_table, trainer_patient
):
    cfg = TrainConfig(max_steps=3, gamma=0.0, group_size=2, seed=5)
    params = init_params(trainer_table.dim, seed=5)
    rng = np.random.default_rng(7)
    upd = train_patient(
        params, *link_patient(trainer_patient, trainer_kg, trainer_table),
        trainer_kg, trainer_table, cfg, rng, group_vectors(trainer_kg, trainer_table),
    )
    finals = [
        (rel, logprob_backward(params, rec.caches[-1], rec.actions[-1]))
        for rel, rec in zip(upd.relative, upd.records)
    ]
    for name in ("dW1", "dW2", "dM"):
        expected = sum(rel * getattr(g, name) for rel, g in finals) / cfg.group_size
        assert np.allclose(getattr(upd.grad, name), expected, atol=1e-15)
    for rel in upd.relative:
        assert 0.0 < rel < 1.0


def _sampled_records(kg, table, patient, params, G, T, seed):
    gv = group_vectors(kg, table)
    ctx = _context(kg, table, patient)
    rng = np.random.default_rng(seed)
    return [
        run_rollout(params, ctx, kg, table, gv, T, lambda dist: sample_action(dist, rng.random()))
        for _ in range(G)
    ]


@pytest.mark.parametrize("gamma", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("G", [2, 4])
@pytest.mark.parametrize("T", [1, 3, 5])
def test_batched_gradient_equals_sum_of_single_step_backwards(
    trainer_kg, trainer_table, trainer_patient, gamma, G, T
):
    params = init_params(trainer_table.dim, seed=11)
    records = _sampled_records(trainer_kg, trainer_table, trainer_patient, params, G, T, 3)
    rel = relative_rewards(np.random.default_rng(G * 10 + T).uniform(0.0, 5.0, size=G))
    batched = accumulate_gradient(params, records, rel, gamma)
    for name in ("dW1", "dW2", "dM"):
        expected = np.zeros_like(getattr(batched, name))
        for rec, rel_i in zip(records, rel):
            for j, (cache, a) in enumerate(zip(rec.caches, rec.actions)):
                g = getattr(logprob_backward(params, cache, a), name)
                expected += (gamma ** (T - 1 - j)) * rel_i * g
        expected /= G
        assert np.abs(expected).max() > 0.0
        np.testing.assert_allclose(getattr(batched, name), expected, rtol=1e-12)


def test_gradient_with_every_step_dropped_is_exactly_zero(
    trainer_kg, trainer_table, trainer_patient
):
    params = init_params(trainer_table.dim, seed=11)
    records = _sampled_records(trainer_kg, trainer_table, trainer_patient, params, 3, 3, 4)
    grad = accumulate_gradient(params, records, np.zeros(3), 0.5)
    for name, shape in (("dW1", params.W1.shape), ("dW2", params.W2.shape),
                        ("dM", params.M.shape)):
        arr = getattr(grad, name)
        assert arr.shape == shape
        assert np.all(arr == 0.0)


def test_accumulate_gradient_rejects_mismatched_cache_and_bad_action(
    trainer_kg, trainer_table, trainer_patient
):
    params = init_params(trainer_table.dim, seed=11)
    records = _sampled_records(trainer_kg, trainer_table, trainer_patient, params, 2, 2, 5)
    rel = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="cache does not match"):
        accumulate_gradient(init_params(trainer_table.dim + 1, seed=0), records, rel, 0.5)
    n_actions = records[1].caches[0].dist.shape[0]
    records[1].actions[0] = n_actions
    with pytest.raises(ValueError, match="out of range"):
        accumulate_gradient(params, records, rel, 0.5)


def _random_contexts(rng, kg, table, n):
    ctxs = []
    for _ in range(n):
        keywords = rng.permutation(len(kg.ids))[: int(rng.integers(2, 7))].tolist()
        ctxs.append(PatientContext(
            keywords, initial_group(keywords, kg), scarce_group(keywords, kg),
            avg_embedding(table, keywords),
        ))
    return ctxs


@pytest.mark.parametrize("d", [2, 8, 32, 128])
def test_block_gradient_matches_rowwise_oracle(d):
    # accumulate_gradient takes each group's rows from its step blocks and
    # forms dZ as one dlogits @ A product; the oracle forms it one row at a
    # time from row views. Records come from two run_rollouts calls (two
    # block lists and two action matrices), and one record is repeated
    rng = np.random.default_rng(d)
    kg = random_kg(rng, 6, 10, p_intra=0.2, p_cross=0.05)
    table = pseudo_embeddings(kg, d, seed=d)
    gv = group_vectors(kg, table)
    params = init_params(d, seed=d)
    cases = 0
    for G in (2, 4, 7):
        for T in (1, 5):
            ctx_a, ctx_b = _random_contexts(rng, kg, table, 2)
            u = rng.random((G, T))
            pick = lambda i, t, dist: sample_action(dist, u[i, t])  # noqa: E731
            first = run_rollouts(params, [ctx_a], kg, table, gv, T, pick, G)
            second = run_rollouts(params, [ctx_b], kg, table, gv, T, pick, G)
            assert first[0].blocks is not second[0].blocks
            for records in (first, first + second[:2] + first[:1]):
                rel = rng.uniform(0.05, 1.0, size=len(records))
                for gamma in (0.0, 0.1, 1.0):
                    got = accumulate_gradient(params, records, rel, gamma)
                    want = rowwise_gradient(params, records, rel, gamma)
                    for name, expected in zip(("dW1", "dW2", "dM"), want):
                        # entries that cancel to far below the largest round
                        # apart in relative terms, so each matrix also gets an
                        # absolute floor of 1e-12 of its largest entry
                        scale = np.abs(expected).max()
                        assert scale > 0.0
                        np.testing.assert_allclose(getattr(got, name), expected,
                                                   rtol=1e-12, atol=1e-12 * scale)
                    cases += 1
    assert cases == 36


def test_rollout_caches_are_row_views_of_the_step_blocks(
    trainer_kg, trainer_table, trainer_patient
):
    gv = group_vectors(trainer_kg, trainer_table)
    ctx = _context(trainer_kg, trainer_table, trainer_patient)
    records = run_rollouts(init_params(trainer_table.dim, seed=0), [ctx], trainer_kg,
                           trainer_table, gv, 3, lambda i, t, dist: (i + t) % 3, 2)
    blocks = records[0].blocks
    assert len(blocks) == 3 and all(rec.blocks is blocks for rec in records)
    for rec in records:
        for block, cache in zip(blocks, rec.caches):
            assert np.shares_memory(cache.x, block.x)
            assert np.array_equal(cache.dist, block.dist[rec.row])
    served = run_rollouts(init_params(trainer_table.dim, seed=0), [ctx], trainer_kg,
                          trainer_table, gv, 3, lambda i, t, dist: 0, keep_caches=False)
    assert served[0].caches == []


def test_group_reward_pass_equals_per_rollout_rewards():
    # one gather per group gives each rollout the bits rollout_reward gives
    # it alone, with paths frozen on a sparse graph
    rng = np.random.default_rng(77)
    frozen = 0
    for trial in range(20):
        kg = random_kg(rng, 4, 12, p_intra=0.06, p_cross=0.05)
        table = pseudo_embeddings(kg, 8, seed=trial)
        gv = group_vectors(kg, table)
        ctx, = _random_contexts(rng, kg, table, 1)
        records = run_rollouts(init_params(8, seed=trial), [ctx], kg, table, gv, 4,
                               lambda i, t, dist: int(rng.integers(len(dist))), 5)
        frozen += sum(sum(rec.state.frozen) for rec in records)
        concepts = rng.permutation(len(kg.ids))[: int(rng.integers(0, 6))].tolist()
        gt = GroundTruthConcepts(set(concepts),
                                 avg_embedding(table, concepts) if concepts else None)
        for weight in (0.0, 10.0):
            expected = [rollout_reward(rec, gt, table, weight) for rec in records]
            assert rollout_rewards(records, gt, table, weight) == expected
            if not concepts:
                assert expected == [0.0] * len(records)
    assert frozen > 0


def test_train_patient_gradient_matches_finite_differences(
    trainer_kg, trainer_table, trainer_patient
):
    # frozen action sequences; d=6 table, T=2, G=2
    kg, table = trainer_kg, trainer_table
    gv = group_vectors(kg, table)
    ctx = _context(kg, table, trainer_patient)
    gt = build_ground_truth(trainer_patient.reference, kg, table)
    params = init_params(table.dim, seed=3)
    T, gamma = 2, 0.1
    seqs = [[0, 1], [2, 0]]

    records = [
        run_rollout(params, ctx, kg, table, gv, T, _scripted(seq)) for seq in seqs
    ]
    rewards = [rollout_reward(r, gt, table, 10.0) for r in records]
    rel = relative_rewards(rewards)
    analytic = accumulate_gradient(params, records, rel, gamma)

    def objective() -> float:
        total = 0.0
        for seq, rel_i in zip(seqs, rel):
            rec = run_rollout(params, ctx, kg, table, gv, T, _scripted(seq))
            for j, (cache, a) in enumerate(zip(rec.caches, rec.actions)):
                total += (gamma ** (T - 1 - j)) * float(rel_i) * math.log(cache.dist[a])
        return total / len(seqs)

    eps = 1e-5
    for name, grad in (("W1", analytic.dW1), ("W2", analytic.dW2), ("M", analytic.dM)):
        mat = getattr(params, name)
        it = np.nditer(mat, flags=["multi_index"])
        worst = 0.0
        while not it.finished:
            idx = it.multi_index
            orig = mat[idx]
            mat[idx] = orig + eps
            up = objective()
            mat[idx] = orig - eps
            down = objective()
            mat[idx] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(fd - grad[idx]) / denom)
            it.iternext()
        assert worst <= 1e-4, f"{name}: rel err {worst}"


def test_train_stops_at_the_end_of_an_epoch_that_left_a_weight_non_finite(
    trainer_kg, trainer_table, trainer_patient, monkeypatch
):
    # a NaN gradient raises no floating-point error on its way into the
    # weights, so each epoch ends with a check that every weight is finite
    calls = []
    ascent = gro_trainer.block_ascent

    def nan_ascent(params, parts, lr):
        calls.append(1)
        ascent(params, parts, np.nan)  # every gradient entry times NaN

    monkeypatch.setattr(gro_trainer, "block_ascent", nan_ascent)
    cfg = TrainConfig(epochs=3, group_size=2, seed=1)
    with pytest.raises(TrainingDivergedError,
                       match=r"diverged in epoch 0 \(non-finite weights\)"):
        train([trainer_patient] * 2, trainer_kg, trainer_table, cfg)
    assert calls == [1, 1]


def test_train_patient_requires_reference(trainer_kg, trainer_table):
    patient = PatientInput("P", "foo and bar", None)
    with pytest.raises(MissingReferenceError):
        link_patient(patient, trainer_kg, trainer_table)


def test_train_patient_requires_keywords(trainer_kg, trainer_table):
    patient = PatientInput("P", "nothing to see here", "fum")
    with pytest.raises(UnlinkableInputError):
        link_patient(patient, trainer_kg, trainer_table)


def test_train_lr_zero_is_noop(trainer_kg, trainer_table, trainer_patient):
    cfg = TrainConfig(max_steps=2, group_size=2, lr=0.0, epochs=1, seed=9)
    result = train([trainer_patient], trainer_kg, trainer_table, cfg)
    fresh = init_params(trainer_table.dim, cfg.seed)
    assert np.array_equal(result.params.W1, fresh.W1)
    assert np.array_equal(result.params.W2, fresh.W2)
    assert np.array_equal(result.params.M, fresh.M)
    assert result.episodes == 1


def test_train_is_deterministic(trainer_kg, trainer_table, trainer_patient):
    cfg = TrainConfig(max_steps=3, group_size=2, lr=0.01, epochs=2, seed=4)
    r1 = train([trainer_patient], trainer_kg, trainer_table, cfg)
    r2 = train([trainer_patient], trainer_kg, trainer_table, cfg)
    assert np.array_equal(r1.params.W1, r2.params.W1)
    assert np.array_equal(r1.params.W2, r2.params.W2)
    assert np.array_equal(r1.params.M, r2.params.M)
    assert r1.log == r2.log


def test_train_keeps_one_gradient_alive(trainer_kg, trainer_patient):
    # the weights plus one gradient are 2x the parameter bytes; a second
    # gradient, kept from the previous patient, or a full-size lr * dW
    # temporary would take the traced peak past 2.6x
    d = 128
    table = pseudo_embeddings(trainer_kg, d, seed=2)
    cfg = TrainConfig(max_steps=3, group_size=4, lr=0.01, epochs=1, seed=1)
    param_bytes = sum(8 * rows * cols for rows, cols in param_shapes(d).values())
    tracemalloc.start()
    try:
        result = train([trainer_patient] * 4, trainer_kg, table, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.episodes == 4
    assert peak <= 2.6 * param_bytes


def test_train_holds_one_copy_of_the_weights(trainer_kg, trainer_patient):
    # each gradient goes into the weights a row block at a time, so at
    # d=384 the traced peak is the weights plus blocks; a full-size gradient
    # bundle made it 2.1x the parameter bytes
    d = 384
    table = pseudo_embeddings(trainer_kg, d, seed=2)
    cfg = TrainConfig(max_steps=3, group_size=4, lr=0.01, epochs=1, seed=1)
    param_bytes = sum(8 * rows * cols for rows, cols in param_shapes(d).values())
    tracemalloc.start()
    try:
        result = train([trainer_patient] * 3, trainer_kg, table, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.episodes == 3
    assert peak <= 1.3 * param_bytes


def test_train_logs_skipped_patients(trainer_kg, trainer_table, trainer_patient):
    cfg = TrainConfig(max_steps=2, group_size=2, epochs=1, seed=0)
    no_ref = PatientInput("P2", "foo again", None)
    result = train([trainer_patient, no_ref], trainer_kg, trainer_table, cfg)
    assert result.skipped == 1
    entries = {e["patient"]: e for e in result.log}
    assert entries["P2"]["skipped"] is True
    assert entries["P1"]["skipped"] is False
    assert isinstance(entries["P1"]["mean_R"], float)
    assert len(entries["P1"]["relative_rewards"]) == cfg.group_size
    assert sum(entries["P1"]["relative_rewards"]) == pytest.approx(1.0)


def test_train_links_each_patient_once_per_call(
    trainer_kg, trainer_table, trainer_patient, monkeypatch, caplog
):
    linked = []
    link = gro_trainer.link_concepts
    monkeypatch.setattr(
        gro_trainer, "link_concepts", lambda text, kg: linked.append(text) or link(text, kg)
    )
    no_keywords = PatientInput("P2", "nothing to see here", "fum")
    no_reference = PatientInput("P3", "foo again", None)
    cfg = TrainConfig(max_steps=2, group_size=2, epochs=3, seed=1)
    with caplog.at_level(logging.WARNING, logger="r2ag.gro_trainer"):
        result = train([trainer_patient, no_keywords, no_reference], trainer_kg,
                       trainer_table, cfg)
    # over 3 epochs: the trainable patient's two texts and the input that
    # links to nothing, each linked once; a missing reference is seen unlinked
    assert sorted(linked) == sorted(
        [trainer_patient.pre_admission, trainer_patient.reference, no_keywords.pre_admission]
    )
    assert len(linked) == 2 * 1 + 1
    assert result.episodes == 3 and result.skipped == 6
    for pid in ("P2", "P3"):
        entries = [e for e in result.log if e["patient"] == pid]
        assert [e["epoch"] for e in entries] == [0, 1, 2]
        assert all(e["skipped"] and e["mean_R"] is None for e in entries)
        warned = [r for r in caplog.records if f"skipping patient {pid}" in r.getMessage()]
        assert len(warned) == 3


def test_train_raises_when_all_skipped(trainer_kg, trainer_table):
    cfg = TrainConfig(max_steps=2, group_size=2, epochs=1)
    corpus = [PatientInput("P1", "nothing linkable", "also nothing")]
    with pytest.raises(NoTrainablePatientsError):
        train(corpus, trainer_kg, trainer_table, cfg)


def _other_row_counts(table):
    return [
        EmbeddingTable(table.dim, rows)
        for rows in (table.matrix[:-1], np.vstack([table.matrix] * 2))
    ]


def test_patient_context_rejects_table_of_another_row_count(
    trainer_kg, trainer_table, trainer_patient
):
    # the env indexes table rows with graph ints, so a row count that differs
    # from the graph's concept count is refused before any rollout
    for table in _other_row_counts(trainer_table):
        with pytest.raises(DataFormatError, match="rows"):
            patient_context(trainer_patient.pre_admission, trainer_kg, table)


def test_train_rejects_table_of_another_row_count(
    trainer_kg, trainer_table, trainer_patient
):
    # refused with the row-count message before group_vectors indexes rows
    cfg = TrainConfig(max_steps=2, group_size=2, epochs=1)
    for table in _other_row_counts(trainer_table):
        with pytest.raises(DataFormatError, match="rows, the graph 7 concepts"):
            train([trainer_patient], trainer_kg, table, cfg)


def test_build_ground_truth_links_reference(trainer_kg, trainer_table, trainer_patient):
    gt = build_ground_truth(trainer_patient.reference, trainer_kg, trainer_table)
    assert gt.concepts == {trainer_kg.index[c] for c in ("F3", "B2", "C1")}
    assert gt.avg_vec is not None


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.5).validate()
    with pytest.raises(ValueError):
        TrainConfig(group_size=1).validate()
    with pytest.raises(ValueError):
        TrainConfig(max_steps=0).validate()
    for bad in ({"lr": math.nan}, {"lr": math.inf}, {"lr": -math.inf},
                {"reward_weight": math.nan}, {"reward_weight": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**bad).validate()
    TrainConfig().validate()
    limit = gro_trainer.COUNT_LIMIT
    TrainConfig(max_steps=limit, group_size=limit).validate()
    for name in ("max_steps", "group_size"):
        for value in (limit + 1, 10**20):
            with pytest.raises(ValueError, match=f"{name} must be <= {limit}$"):
                TrainConfig(**{name: value}).validate()
