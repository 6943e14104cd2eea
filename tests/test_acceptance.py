"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. The learning-signal criterion trains 5 seeds at full desk
scale and is the slow one (about two minutes).
"""

from __future__ import annotations

import copy
import json
import time

import numpy as np
import pytest

from helpers import (
    fd_logprob_grads,
    int_neighbors,
    max_rel_err,
    oracle_connect_choice,
    oracle_retrieve_choice,
    random_kg,
)

from r2ag.cli import main
from r2ag.concept_linker import initial_group, load_corpus, scarce_group
from r2ag.embeddings import avg_embedding, group_vectors, pseudo_embeddings
from r2ag.evaluation import ce_metrics, evaluate_corpus, evaluate_pair
from r2ag.generation import build_prompt_bundle, stub_generate
from r2ag.gro_trainer import (
    TrainConfig,
    build_ground_truth,
    patient_context,
    relative_rewards,
    rollout_reward,
    run_rollout,
    train,
)
from r2ag.kg_store import load_kg
from r2ag.policy_net import forward, init_params, logprob_backward
from r2ag.retrieval_env import (
    GROUP_LEAP,
    PathStep,
    ReasoningPath,
    candidate_pool,
    init_rollout,
    step,
)
from r2ag.synthetic_data import SynthSpec, gen_corpus, gen_kg


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} ({detail})")


# -------------------------------------------------------------------- 1


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    fixtures = [3] * 14 + [8] * 6  # 20 fixtures across both dimensions
    worst = 0.0
    for d in fixtures:
        params = init_params(d, seed=int(rng.integers(10_000)))
        s_k = rng.standard_normal(4 * d)
        c_avg = rng.standard_normal(d)
        n_actions = int(rng.integers(2, 7))
        actions = rng.standard_normal((n_actions, 4 * d))
        action = int(rng.integers(n_actions))
        cache = forward(params, s_k, c_avg, actions)
        analytic = logprob_backward(params, cache, action)
        fd = fd_logprob_grads(params, s_k, c_avg, actions, action, eps=1e-5)
        worst = max(
            worst,
            max_rel_err(analytic.dW1, fd["W1"]),
            max_rel_err(analytic.dW2, fd["W2"]),
            max_rel_err(analytic.dM, fd["M"]),
        )
    elapsed = time.monotonic() - started
    ok = worst <= 1e-4 and elapsed < 10.0
    _verdict(1, "gradient correctness", ok,
             f"20 fixtures, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 10.0


# -------------------------------------------------------------------- 2


def test_criterion_2_gro_normalization():
    rng = np.random.default_rng(202)
    sum_ok = shift_ok = True
    for _ in range(200):
        g = int(rng.integers(2, 9))
        rewards = rng.uniform(-10, 10, size=g)
        rel = relative_rewards(rewards)
        sum_ok &= abs(float(rel.sum()) - 1.0) <= 1e-9
        shifted = relative_rewards(rewards + float(rng.uniform(-100, 100)))
        shift_ok &= float(np.max(np.abs(rel - shifted))) <= 1e-12
    equal = relative_rewards([7.0, 7.0, 7.0, 7.0])
    equal_ok = all(x == 1.0 / 4.0 for x in equal)
    ok = sum_ok and shift_ok and equal_ok
    _verdict(2, "GRO normalization", ok,
             f"sum to 1 +-1e-9: {sum_ok}, equal -> 1/G exact: {equal_ok}, "
             f"shift invariance <=1e-12: {shift_ok}")
    assert sum_ok and shift_ok and equal_ok


# -------------------------------------------------------------------- 3


def test_criterion_3_retrieval_oracle_equivalence():
    rng = np.random.default_rng(303)
    graphs = comparisons = mismatches = 0
    while graphs < 100:
        n_groups = int(rng.integers(3, 7))
        per_group = int(rng.integers(4, min(34, 200 // n_groups + 1)))
        kg = random_kg(rng, n_groups, per_group, p_intra=0.15, p_cross=0.03)
        assert len(kg.ids) <= 200
        table = pseudo_embeddings(kg, 8, seed=int(rng.integers(100_000)))
        n_kw = int(rng.integers(3, 8))
        keywords = rng.permutation(len(kg.ids))[:n_kw].tolist()
        k_init = initial_group(keywords, kg)
        k_scarce = scarce_group(keywords, kg)
        rs = init_rollout(keywords, kg, k_init, k_scarce, 5)
        sq = avg_embedding(table, keywords)
        for _ in range(5):
            action = int(rng.integers(len(kg.groups)))
            prior_paths = copy.deepcopy(rs.paths)
            prior_frozen = list(rs.frozen)
            current = rs.current_group
            pool = candidate_pool(rs, kg, action) if action != current else []
            leap = action != current and bool(pool)
            effective = action if leap else current
            step([rs], [action], kg, table, [sq])
            for idx, (old, new) in enumerate(zip(prior_paths, rs.paths)):
                if prior_frozen[idx]:
                    assert new == old
                    continue
                expected = list(old.steps)
                if leap:
                    comparisons += 1
                    expected.append(
                        PathStep(GROUP_LEAP, oracle_connect_choice(table, old, pool))
                    )
                nbrs = int_neighbors(kg, expected[-1].concept, effective)
                if nbrs:
                    comparisons += 1
                    probe = ReasoningPath(old.origin, list(expected))
                    label, c = oracle_retrieve_choice(table, probe, nbrs, sq)
                    expected.append(PathStep(label, c))
                if new.steps != expected:
                    mismatches += 1
        graphs += 1
    ok = mismatches == 0 and comparisons > 1000
    _verdict(3, "retrieval oracle equivalence", ok,
             f"{graphs} graphs, {comparisons} argmax comparisons, "
             f"{mismatches} mismatches")
    assert mismatches == 0
    assert comparisons > 1000


# -------------------------------------------------------------------- 4


def _learning_run(seed: int, tmp_base) -> tuple[float, float]:
    """Train 2000 episodes on the default spec; return (trained, random) means."""
    spec = SynthSpec(seed=seed)  # defaults: 15 groups, 50 concepts/group
    out = tmp_base / f"seed{seed}"
    cpath, rpath = gen_kg(spec, out)
    kg = load_kg(cpath, rpath)
    corpus = load_corpus(gen_corpus(spec, kg, out / "patients.jsonl"))
    table = pseudo_embeddings(kg, 16, seed)
    gv = group_vectors(kg, table)

    cfg = TrainConfig(max_steps=5, gamma=0.1, reward_weight=10.0, group_size=4,
                      lr=0.05, epochs=40, seed=seed)
    result = train(corpus, kg, table, cfg)
    rewards = [e["mean_R"] for e in result.log if not e["skipped"]]
    assert len(rewards) == 2000
    tail = rewards[-200:]  # last 10% of episodes
    tail_patients = [e["patient"] for e in result.log if not e["skipped"]][-200:]

    # frozen uniform-random policy evaluated on the same patients
    rng = np.random.default_rng([seed, 99])
    params0 = init_params(16, seed)
    by_id = {p.id: p for p in corpus}
    random_scores = []
    for pid in tail_patients:
        patient = by_id[pid]
        ctx = patient_context(patient.pre_admission, kg, table)
        gt = build_ground_truth(patient.reference, kg, table)
        per = [
            rollout_reward(
                run_rollout(params0, ctx, kg, table, gv, cfg.max_steps,
                            lambda dist: int(rng.integers(len(dist)))),
                gt, table, cfg.reward_weight,
            )
            for _ in range(cfg.group_size)
        ]
        random_scores.append(float(np.mean(per)))
    return float(np.mean(tail)), float(np.mean(random_scores))


def test_criterion_4_learning_signal(tmp_path):
    started = time.monotonic()
    trained, baseline = [], []
    for seed in range(5):
        t, r = _learning_run(seed, tmp_path)
        trained.append(t)
        baseline.append(r)
    elapsed = time.monotonic() - started
    ratio = float(np.mean(trained)) / float(np.mean(baseline))
    ok = ratio >= 1.5 and elapsed < 300.0
    _verdict(4, "learning signal", ok,
             f"trained {np.mean(trained):.3f} vs random {np.mean(baseline):.3f}, "
             f"ratio {ratio:.2f} over 5 seeds, {elapsed:.0f}s")
    assert ratio >= 1.5
    assert elapsed < 300.0


# -------------------------------------------------------------------- 5


def test_criterion_5_metric_identities():
    # the published row pattern: R = 23.66% pairs with HL = 76.34%
    ref = {f"t{i:04d}" for i in range(10_000)}
    pred = {f"t{i:04d}" for i in range(2_366)}
    row = ce_metrics(pred, ref)
    pattern_ok = (
        row.hamming_loss == 1.0 - row.recall
        and row.recall == pytest.approx(0.2366, abs=1e-12)
        and row.hamming_loss == pytest.approx(0.7634, abs=1e-12)
    )

    rng = np.random.default_rng(404)
    identity_ok = True
    for _ in range(200):
        universe = [f"w{i}" for i in range(30)]
        ref_set = {w for w in universe if rng.random() < 0.4}
        if not ref_set:
            continue
        pred_set = {w for w in universe if rng.random() < 0.4}
        r = ce_metrics(pred_set, ref_set)
        identity_ok &= r.hamming_loss == 1.0 - r.recall

    text = "You were admitted for chest pain and treated with aspirin daily."
    kg = random_kg(np.random.default_rng(1), 2, 4, 0.5, 0.1)
    pe = evaluate_pair(text, text, kg)
    identical_ok = (
        pe.ngram is not None
        and (pe.ngram.precision, pe.ngram.recall, pe.ngram.f1, pe.ngram.jaccard)
        == (1.0, 1.0, 1.0, 1.0)
        and pe.ngram.hamming_loss == 0.0
        and all(pe.nlg[k] == 1.0 for k in ("rouge1", "rouge2", "rougeL", "bleu1", "bleu2"))
    )
    ok = pattern_ok and identity_ok and identical_ok
    _verdict(5, "metric identities", ok,
             f"HL=1-R rows: {identity_ok}, published pattern: {pattern_ok}, "
             f"identical texts all 1: {identical_ok}")
    assert pattern_ok and identity_ok and identical_ok


# -------------------------------------------------------------------- 6


SMALL_LOOP = [
    "--groups", "6", "--concepts-per-group", "20", "--patients", "12",
    "--keywords-per-patient", "6", "--gt-per-patient", "8",
]


def _run_cli(args):
    assert main(args) == 0


def test_criterion_6_end_to_end_stub_loop(tmp_path):
    data = tmp_path / "data"
    run = tmp_path / "run"
    seed = ["--seed", "13"]
    _run_cli(seed + ["synth", "--out-dir", str(data)] + SMALL_LOOP)
    kg_args = [
        "--concepts", str(data / "concepts.tsv"),
        "--relations", str(data / "relations.tsv"),
    ]
    _run_cli(
        seed + ["train"] + kg_args
        + ["--corpus", str(data / "patients.jsonl"), "--out-dir", str(run),
           "--epochs", "25", "--embed-dim", "16", "--lr", "0.05"]
    )
    _run_cli(
        seed + ["retrieve"] + kg_args
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "paths.jsonl")]
    )
    _run_cli(
        seed + ["generate"] + kg_args
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "generated.jsonl"), "--stub"]
    )
    _run_cli(
        seed + ["eval"] + kg_args
        + ["--generated", str(run / "generated.jsonl"),
           "--corpus", str(data / "patients.jsonl"),
           "--out-dir", str(run / "eval")]
    )
    with_paths = json.loads((run / "eval" / "report.json").read_text())
    recall_with = with_paths["ce"]["concept"]["recall"]

    # same loop with retrieval disabled: stub sees an empty path block
    kg = load_kg(data / "concepts.tsv", data / "relations.tsv")
    patients = load_corpus(data / "patients.jsonl")
    no_path_records = [
        {"id": p.id,
         "generated": stub_generate(build_prompt_bundle(p, [], kg)),
         "paths": []}
        for p in patients
    ]
    report_no = evaluate_corpus(no_path_records, patients, kg)
    recall_without = report_no.ce_concept.recall

    ok = recall_with > recall_without
    _verdict(6, "end-to-end stub loop", ok,
             f"concept recall with retrieval {recall_with:.4f} > "
             f"without {recall_without:.4f}")
    assert recall_with > recall_without


# -------------------------------------------------------------------- 7


def test_criterion_7_pipeline_determinism(tmp_path):
    outputs = []
    for tag in ("run1", "run2"):
        base = tmp_path / tag
        data = base / "data"
        run = base / "run"
        seed = ["--seed", "21"]
        _run_cli(seed + ["synth", "--out-dir", str(data)] + SMALL_LOOP)
        kg_args = [
            "--concepts", str(data / "concepts.tsv"),
            "--relations", str(data / "relations.tsv"),
        ]
        _run_cli(
            seed + ["train"] + kg_args
            + ["--corpus", str(data / "patients.jsonl"), "--out-dir", str(run),
               "--epochs", "4", "--embed-dim", "16"]
        )
        _run_cli(
            seed + ["retrieve"] + kg_args
            + ["--checkpoint", str(run / "checkpoint.json"),
               "--corpus", str(data / "patients.jsonl"),
               "--out", str(run / "paths.jsonl")]
        )
        _run_cli(
            seed + ["generate"] + kg_args
            + ["--checkpoint", str(run / "checkpoint.json"),
               "--corpus", str(data / "patients.jsonl"),
               "--out", str(run / "generated.jsonl"), "--stub"]
        )
        _run_cli(
            seed + ["eval"] + kg_args
            + ["--generated", str(run / "generated.jsonl"),
               "--corpus", str(data / "patients.jsonl"),
               "--out-dir", str(run / "eval")]
        )
        outputs.append({
            "checkpoint": (run / "checkpoint.json").read_bytes(),
            "paths": (run / "paths.jsonl").read_bytes(),
            "generated": (run / "generated.jsonl").read_bytes(),
            "report": (run / "eval" / "report.json").read_bytes(),
            "csv": (run / "eval" / "per_patient.csv").read_bytes(),
        })
    same = {k: outputs[0][k] == outputs[1][k] for k in outputs[0]}
    ok = all(same.values())
    _verdict(7, "pipeline determinism", ok,
             "byte-identical: " + ", ".join(f"{k}={v}" for k, v in same.items()))
    assert ok
