from __future__ import annotations

import json

import numpy as np
import pytest

from r2ag.cli import main
from r2ag.policy_net import init_params, load_checkpoint

SMALL_SYNTH = [
    "--groups", "5", "--concepts-per-group", "15", "--patients", "8",
    "--keywords-per-patient", "6", "--gt-per-patient", "6",
]


def _synth(tmp_path, seed=3):
    data = tmp_path / "data"
    rc = main(["--seed", str(seed), "synth", "--out-dir", str(data)] + SMALL_SYNTH)
    assert rc == 0
    return data


def _kg_args(data):
    return [
        "--concepts", str(data / "concepts.tsv"),
        "--relations", str(data / "relations.tsv"),
    ]


def _train(tmp_path, data, seed=3, extra=()):
    run = tmp_path / "run"
    rc = main(
        ["--seed", str(seed), "train"] + _kg_args(data)
        + ["--corpus", str(data / "patients.jsonl"), "--out-dir", str(run),
           "--epochs", "2", "--embed-dim", "8"] + list(extra)
    )
    assert rc == 0
    return run


def test_full_offline_loop(tmp_path, capsys):
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    assert (run / "checkpoint.json").exists()
    assert (run / "train_log.jsonl").exists()

    rc = main(
        ["--seed", "3", "retrieve"] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "paths.jsonl")]
    )
    assert rc == 0
    paths = [json.loads(l) for l in (run / "paths.jsonl").read_text().splitlines()]
    assert paths and {"patient", "origin", "steps"} <= set(paths[0])

    rc = main(
        ["--seed", "3", "generate"] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "generated.jsonl"), "--stub"]
    )
    assert rc == 0

    rc = main(
        ["--seed", "3", "eval"] + _kg_args(data)
        + ["--generated", str(run / "generated.jsonl"),
           "--corpus", str(data / "patients.jsonl"),
           "--out-dir", str(run / "eval")]
    )
    assert rc == 0
    report = json.loads((run / "eval" / "report.json").read_text())
    assert set(report["ce"]) == {"ngram", "concept"}
    assert (run / "eval" / "per_patient.csv").exists()
    out = capsys.readouterr().out
    assert "%" in out  # percent formatting happens at the CLI layer


def test_validate_reports_stats(tmp_path, capsys):
    data = _synth(tmp_path)
    rc = main(
        ["validate"] + _kg_args(data) + ["--corpus", str(data / "patients.jsonl")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "concepts: 75" in out
    assert "groups: 5" in out
    assert "8 patients" in out


def test_validate_broken_relations_exits_2(tmp_path, capsys):
    data = _synth(tmp_path)
    bad = data / "broken.tsv"
    lines = (data / "relations.tsv").read_text().splitlines()
    lines[3] = "C00000\tbad_rel\tX9"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(
        ["validate", "--concepts", str(data / "concepts.tsv"), "--relations", str(bad)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "X9" in err and ":4:" in err


def test_train_lr_zero_checkpoint_equals_init(tmp_path):
    data = _synth(tmp_path)
    run = _train(tmp_path, data, extra=["--lr", "0"])
    params = load_checkpoint(run / "checkpoint.json")
    fresh = init_params(8, seed=3)
    assert np.array_equal(params.W1, fresh.W1)
    assert np.array_equal(params.W2, fresh.W2)
    assert np.array_equal(params.M, fresh.M)


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["train"]) == 1  # missing required options
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    rc = main(
        ["generate"] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "g.jsonl")]
    )
    assert rc == 1  # neither --stub nor --endpoint
    err = capsys.readouterr().err
    assert "usage error" in err


def test_unknown_command_exits_1():
    assert main(["frobnicate"]) == 1


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(
        ["validate", "--concepts", str(tmp_path / "nope.tsv"),
         "--relations", str(tmp_path / "nope2.tsv")]
    )
    assert rc == 2


def test_retrieve_unknown_patient_exits_2(tmp_path, capsys):
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    rc = main(
        ["retrieve"] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "p.jsonl"), "--patient", "NOPE"]
    )
    assert rc == 2


def test_retrieve_single_patient(tmp_path):
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    rc = main(
        ["retrieve"] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "p1.jsonl"), "--patient", "P0000"]
    )
    assert rc == 0
    rows = [json.loads(l) for l in (run / "p1.jsonl").read_text().splitlines()]
    assert rows and all(r["patient"] == "P0000" for r in rows)


def test_config_file_supplies_options_and_flags_win(tmp_path):
    data = _synth(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "train.lr": 0.0,
        "train.epochs": 1,
        "train.embed_dim": 8,
        "train.concepts": str(data / "concepts.tsv"),
        "train.relations": str(data / "relations.tsv"),
        "train.corpus": str(data / "patients.jsonl"),
        "train.out_dir": str(tmp_path / "runA"),
    }))
    # config-only invocation: lr 0 -> params unchanged
    assert main(["--config", str(cfg_path), "--seed", "3", "train"]) == 0
    a = load_checkpoint(tmp_path / "runA" / "checkpoint.json")
    assert np.array_equal(a.W1, init_params(8, seed=3).W1)
    # flag overrides config lr
    assert main(
        ["--config", str(cfg_path), "--seed", "3", "train",
         "--out-dir", str(tmp_path / "runB"), "--lr", "0.5"]
    ) == 0
    b = load_checkpoint(tmp_path / "runB" / "checkpoint.json")
    assert not np.array_equal(b.W1, init_params(8, seed=3).W1)


def test_retrieve_sampled_mode_is_seed_deterministic(tmp_path):
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    for out in ("s1.jsonl", "s2.jsonl"):
        assert main(
            ["--seed", "9", "retrieve"] + _kg_args(data)
            + ["--checkpoint", str(run / "checkpoint.json"),
               "--corpus", str(data / "patients.jsonl"),
               "--out", str(run / out), "--sample"]
        ) == 0
    assert (run / "s1.jsonl").read_bytes() == (run / "s2.jsonl").read_bytes()


def _embedding_file(tmp_path, data, dim):
    """Random unit vectors for every concept in the synth graph."""
    ids = [
        line.split("\t")[0]
        for line in (data / "concepts.tsv").read_text().splitlines()[1:]
        if line
    ]
    rng = np.random.default_rng(0)
    emb = tmp_path / f"emb{dim}.tsv"
    with open(emb, "w") as fh:
        fh.write(f"dim={dim}\n")
        for cid in ids:
            vec = rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            fh.write(cid + "\t" + " ".join(repr(float(x)) for x in vec) + "\n")
    return emb


def test_file_embeddings_through_train_and_retrieve(tmp_path):
    data = _synth(tmp_path)
    emb = _embedding_file(tmp_path, data, 8)
    run = tmp_path / "run"
    assert main(
        ["--seed", "3", "train"] + _kg_args(data)
        + ["--corpus", str(data / "patients.jsonl"), "--out-dir", str(run),
           "--epochs", "1", "--embeddings", str(emb)]
    ) == 0
    assert main(
        ["--seed", "3", "retrieve"] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "paths.jsonl"), "--embeddings", str(emb)]
    ) == 0
    assert (run / "paths.jsonl").read_text().strip()


@pytest.mark.parametrize("command", ["retrieve", "generate"])
def test_embedding_dimension_mismatch_with_checkpoint_exits_2(tmp_path, capsys, command):
    data = _synth(tmp_path)
    run = _train(tmp_path, data)  # an 8-d checkpoint
    emb = _embedding_file(tmp_path, data, 16)
    rc = main(
        ["--seed", "3", command] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "out.jsonl"), "--embeddings", str(emb)]
        + (["--stub"] if command == "generate" else [])
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "embedding dimension 16" in err and "dimension 8" in err
    assert not (run / "out.jsonl").exists()


def test_generate_max_paths_truncates_records(tmp_path):
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    assert main(
        ["--seed", "3", "generate"] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "g.jsonl"), "--stub", "--max-paths", "1"]
    ) == 0
    records = [json.loads(l) for l in (run / "g.jsonl").read_text().splitlines()]
    assert records
    for rec in records:
        assert len(rec["paths"]) <= 1


def test_default_scale_loop_is_fast(tmp_path):
    # synth -> validate -> train -> retrieve -> generate --stub -> eval on
    # the default spec (15 groups x 50 concepts, 50 patients) in one epoch
    import time

    start = time.monotonic()
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert main(["--seed", "1", "synth", "--out-dir", str(data)]) == 0
    args = _kg_args(data)
    assert main(["--seed", "1", "validate"] + args) == 0
    assert main(
        ["--seed", "1", "train"] + args
        + ["--corpus", str(data / "patients.jsonl"), "--out-dir", str(run),
           "--epochs", "1", "--embed-dim", "16"]
    ) == 0
    assert main(
        ["--seed", "1", "retrieve"] + args
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "paths.jsonl")]
    ) == 0
    assert main(
        ["--seed", "1", "generate"] + args
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "generated.jsonl"), "--stub"]
    ) == 0
    assert main(
        ["--seed", "1", "eval"] + args
        + ["--generated", str(run / "generated.jsonl"),
           "--corpus", str(data / "patients.jsonl"),
           "--out-dir", str(run / "eval")]
    ) == 0
    assert time.monotonic() - start < 300.0


def test_eval_jobs_pool_matches_serial(tmp_path):
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    assert main(
        ["--seed", "3", "generate"] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "generated.jsonl"), "--stub"]
    ) == 0
    for jobs, out in (("1", "e1"), ("4", "e4")):
        assert main(
            ["--jobs", jobs, "eval"] + _kg_args(data)
            + ["--generated", str(run / "generated.jsonl"),
               "--corpus", str(data / "patients.jsonl"),
               "--out-dir", str(run / out)]
        ) == 0
    assert (run / "e1" / "report.json").read_bytes() == (
        run / "e4" / "report.json"
    ).read_bytes()
    assert (run / "e1" / "per_patient.csv").read_bytes() == (
        run / "e4" / "per_patient.csv"
    ).read_bytes()


def test_pipeline_outputs_are_byte_identical_across_runs(tmp_path):
    outs = []
    for name in ("one", "two"):
        base = tmp_path / name
        base.mkdir()
        data = _synth(base, seed=11)
        run = _train(base, data, seed=11)
        assert main(
            ["--seed", "11", "retrieve"] + _kg_args(data)
            + ["--checkpoint", str(run / "checkpoint.json"),
               "--corpus", str(data / "patients.jsonl"),
               "--out", str(run / "paths.jsonl")]
        ) == 0
        outs.append(
            (
                (run / "checkpoint.json").read_bytes(),
                (run / "paths.jsonl").read_bytes(),
            )
        )
    assert outs[0] == outs[1]
