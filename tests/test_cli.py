from __future__ import annotations

import json
import logging
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from r2ag.cli import DEFAULTS, _load_config, _load_generated, _write_jsonl, build_parser, main
from r2ag.concept_linker import load_corpus
from r2ag.embeddings import load_embeddings, pseudo_embeddings
from r2ag.errors import DataFormatError
from r2ag.generation import GeneratorConfig, load_template
from r2ag.gro_trainer import TrainConfig
from r2ag.kg_store import load_kg
from r2ag.policy_net import init_params, load_checkpoint, save_checkpoint
from r2ag.synthetic_data import SynthSpec

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


def _train(tmp_path, data, seed=3, extra=(), rc=0):
    run = tmp_path / "run"
    got = main(
        ["--seed", str(seed), "train"] + _kg_args(data)
        + ["--corpus", str(data / "patients.jsonl"), "--out-dir", str(run),
           "--epochs", "2", "--embed-dim", "8"] + list(extra)
    )
    assert got == rc
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


def test_trained_w2_current_group_rows_stay_at_init(tmp_path):
    # action rows are [0 || group vector], so every dZ row starts with 2d
    # exact zeros and W2's first 2d rows never move; the rest do
    data = _synth(tmp_path)
    run = _train(tmp_path, data, extra=["--lr", "0.05"])
    params = load_checkpoint(run / "checkpoint.json")
    fresh = init_params(8, seed=3)
    assert np.array_equal(params.W2[:16], fresh.W2[:16])
    assert not np.array_equal(params.W2[16:], fresh.W2[16:])


@pytest.mark.parametrize("extra,message", [
    (["--lr", "nan"], "lr must be finite"),
    (["--lr", "inf"], "lr must be finite"),
    (["--reward-weight", "nan"], "reward_weight must be finite"),
    (["--reward-weight", "inf"], "reward_weight must be finite"),
])
def test_non_finite_train_option_is_a_usage_error(tmp_path, capsys, extra, message):
    data = _synth(tmp_path)
    capsys.readouterr()
    _train(tmp_path, data, extra=extra, rc=1)
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_diverged_training_writes_no_checkpoint(tmp_path, capsys):
    data = _synth(tmp_path)
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        _train(tmp_path, data, extra=["--lr", "1e300"], rc=1)
    err = capsys.readouterr().err
    assert "usage error: training diverged" in err and "lower --lr" in err
    assert not (tmp_path / "run" / "checkpoint.json").exists()
    assert not (tmp_path / "run" / "train_log.jsonl").exists()


def test_diverged_training_stops_at_the_first_overflow(tmp_path, monkeypatch):
    # the first update that overflows ends training: no later patient is
    # trained, no RuntimeWarning is printed and neither file is written
    import subprocess
    import sys

    from r2ag import gro_trainer

    data = _synth(tmp_path)
    trained = []
    real = gro_trainer.train_patient

    def spy(params, ctx, gt, *args):
        trained.append(ctx)
        return real(params, ctx, gt, *args)

    monkeypatch.setattr(gro_trainer, "train_patient", spy)
    corpus = load_corpus(data / "patients.jsonl")
    kg = load_kg(data / "concepts.tsv", data / "relations.tsv")
    with pytest.raises(gro_trainer.TrainingDivergedError) as caught:
        gro_trainer.train(corpus, kg, pseudo_embeddings(kg, 8, 3),
                          gro_trainer.TrainConfig(lr=1e300, epochs=2, seed=3))
    # the first update overflows or leaves weights so large that the next
    # patient's forward does; either way that is the patient named
    assert 1 <= len(trained) <= 2
    assert f"epoch 0, patient {corpus[len(trained) - 1].id!r} (overflow" in str(caught.value)
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-m", "r2ag.cli", "--seed", "3", "train"] + _kg_args(data)
        + ["--corpus", str(data / "patients.jsonl"), "--out-dir", str(tmp_path / "run"),
           "--epochs", "2", "--embed-dim", "8", "--lr", "1e300"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 1
    assert "usage error: training diverged at epoch 0, patient 'P" in out.stderr
    assert "lower --lr than 1e+300" in out.stderr
    assert "RuntimeWarning" not in out.stderr and "Traceback" not in out.stderr
    assert not (tmp_path / "run" / "checkpoint.json").exists()
    assert not (tmp_path / "run" / "train_log.jsonl").exists()


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


def test_synth_shape_past_both_id_widths_exits_1_before_writing(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["synth", "--out-dir", str(out), "--groups", "101", "--concepts-per-group", "1001"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "at most 1000 concepts per group" in err
    assert not out.exists()


def test_unknown_command_exits_1():
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exits_1(tmp_path, capsys, jobs):
    data = _synth(tmp_path)
    capsys.readouterr()
    assert main(["--jobs", jobs, "validate"] + _kg_args(data)) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--jobs" in err


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(
        ["validate", "--concepts", str(tmp_path / "nope.tsv"),
         "--relations", str(tmp_path / "nope2.tsv")]
    )
    assert rc == 2


@pytest.mark.parametrize("loader", [_load_config, _load_generated, load_corpus, load_template])
def test_json_nested_past_the_decoder_limit_is_a_data_error(tmp_path, loader):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "\n")
    with pytest.raises(DataFormatError, match="invalid JSON"):
        loader(path)


@pytest.mark.parametrize(
    "reader",
    [lambda p: load_kg(p, p), load_corpus, _load_config, _load_generated, load_template,
     lambda p: load_embeddings(p, None)],
    ids=["load_kg", "load_corpus", "_load_config", "_load_generated", "load_template",
         "load_embeddings"],
)
def test_bytes_that_are_not_utf8_are_a_data_error(tmp_path, reader):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"id\tname\tgroup\nC1\t\xff\xfe\tG\n")
    with pytest.raises(DataFormatError, match="not UTF-8"):
        reader(path)


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


@pytest.mark.parametrize("command, key, value, expected", [
    ("synth", "synth.groups", "many", "int"),
    ("synth", "synth.groups", 2.5, "int"),
    ("train", "train.lr", "fast", "float"),
    ("train", "train.lr", True, "float"),
])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, key, value, expected):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    rc = main(["--config", str(cfg_path), command, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    assert f"config key {key!r} has value {value!r}, expected {expected}" in err
    assert not (tmp_path / "out").exists()


def test_config_values_are_cast_to_option_types(tmp_path):
    data = _synth(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "synth.groups": "4", "synth.concepts_per_group": 12.0, "synth.patients": 5,
        "train.lr": "0", "train.epochs": 1.0, "train.embed_dim": "8",
        "train.max_steps": None,
    }))
    assert main(["--config", str(cfg_path), "synth", "--out-dir", str(tmp_path / "d")]) == 0
    assert len((tmp_path / "d" / "patients.jsonl").read_text().splitlines()) == 5
    assert main(
        ["--config", str(cfg_path), "--seed", "3", "train"] + _kg_args(data)
        + ["--corpus", str(data / "patients.jsonl"), "--out-dir", str(tmp_path / "run")]
    ) == 0
    ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.json")
    assert np.array_equal(ckpt.W1, init_params(8, seed=3).W1)


@pytest.mark.parametrize("key", ["trian.lr", "train.learning_rate", "lr", "train.help",
                                 "config", "train.lr.x"])
def test_config_key_naming_no_option_exits_2(tmp_path, capsys, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 7, key: 9}))
    rc = main(["--config", str(cfg_path), "synth", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config key {key!r} names no option" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_keys_of_other_commands_are_allowed_and_unused(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "train.lr": 0.5, "generate.stub": True, "eval.out_dir": str(tmp_path / "eval"),
    }))
    assert main(["--config", str(cfg_path), "synth", "--out-dir", str(tmp_path / "a")]
                + SMALL_SYNTH) == 0
    assert main(["synth", "--out-dir", str(tmp_path / "b")] + SMALL_SYNTH) == 0
    assert (tmp_path / "a" / "patients.jsonl").read_bytes() == (
        tmp_path / "b" / "patients.jsonl").read_bytes()


def test_config_supplies_top_level_options_and_flags_win(tmp_path, capsys, monkeypatch):
    import r2ag.cli

    def corpus(flags, config):
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["--config", str(tmp_path / "cfg.json")] + flags
                    + ["synth", "--out-dir", str(out)] + SMALL_SYNTH) == 0
        return (out / "patients.jsonl").read_bytes()

    assert corpus([], {"seed": 7}) == corpus(["--seed", "7"], {})
    assert corpus([], {"seed": "7"}) == corpus(["--seed", "7"], {})
    assert corpus(["--seed", "8"], {"seed": 7}) == corpus(["--seed", "8"], {})
    assert corpus([], {"seed": None}) == corpus([], {})
    assert corpus([], {"seed": 7}) != corpus([], {})
    levels = []
    monkeypatch.setattr(r2ag.cli.logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    corpus([], {"verbose": True})
    corpus([], {"verbose": False})
    assert levels == [logging.INFO, logging.WARNING]
    capsys.readouterr()
    (tmp_path / "cfg.json").write_text(json.dumps({"jobs": 0}))
    assert main(["--config", str(tmp_path / "cfg.json"), "synth"]) == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "cfg.json"), "--jobs", "2", "synth"]) == 1
    assert "missing required option --out-dir" in capsys.readouterr().err
    (tmp_path / "cfg.json").write_text(json.dumps({"verbose": 1}))
    assert main(["--config", str(tmp_path / "cfg.json"), "synth"]) == 2
    assert "config key 'verbose' has value 1, expected bool" in capsys.readouterr().err


def test_option_defaults_have_the_option_types():
    parser = build_parser()
    for command, defaults in DEFAULTS.items():
        types = parser.commands[command].option_types
        for name, default in defaults.items():
            if default is not None:
                assert types[name] is type(default), (command, name)


class _Built(Exception):
    """Carries the object a command built out of ``validate``."""


@pytest.fixture(scope="module")
def plumbing_data(tmp_path_factory):
    return _synth(tmp_path_factory.mktemp("plumbing"))


def _field_cases():
    for command, cls in (("synth", SynthSpec), ("train", TrainConfig),
                         ("generate", GeneratorConfig)):
        for f in fields(cls):
            if f.name != "seed":
                yield pytest.param(command, cls, f, id=f"{command}.{f.name}")


@pytest.mark.parametrize("command, cls, field", _field_cases())
def test_each_field_option_resolves_flag_over_config_over_default(
        tmp_path, monkeypatch, plumbing_data, command, cls, field):
    def validate(self):
        raise _Built(self)

    monkeypatch.setattr(cls, "validate", validate)
    name = {"timeout_s": "timeout", "max_retries": "retries"}.get(field.name, field.name)
    key, flag = f"{command}.{name}", "--" + name.replace("_", "-")
    base = {
        "synth": ["synth", "--out-dir", str(tmp_path / "out")],
        "train": ["train"] + _kg_args(plumbing_data)
        + ["--corpus", str(plumbing_data / "patients.jsonl"),
           "--out-dir", str(tmp_path / "out")],
        "generate": ["generate", "--stub", "--out", str(tmp_path / "out.jsonl")],
    }[command]

    def built(flags, config=None):
        head = ["--seed", "5"]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            head += ["--config", str(tmp_path / "cfg.json")]
        with pytest.raises(_Built) as caught:
            main(head + base + flags)
        obj = caught.value.args[0]
        if hasattr(obj, "seed"):
            assert obj.seed == 5
        value = getattr(obj, field.name)
        assert type(value) is type(field.default)
        return value

    if isinstance(field.default, str):
        by_flag, by_config = "flag-" + field.default, "config-" + field.default
    else:
        by_flag, by_config = field.default + 1, field.default + 2
    assert built([flag, str(by_flag)]) == by_flag
    assert built([], {key: by_config}) == by_config
    assert built([flag, str(by_flag)], {key: by_config}) == by_flag
    assert built([], {key: None}) == field.default
    assert not (tmp_path / "out").exists()


def test_refused_train_leaves_no_out_dir(tmp_path, capsys):
    data = _synth(tmp_path)
    run = _train(tmp_path, data, extra=["--lr", "nan"], rc=1)
    assert "lr must be finite" in capsys.readouterr().err
    assert not run.exists()


def test_diverged_train_removes_the_out_dir_it_made(tmp_path, capsys):
    data = _synth(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        run = _train(tmp_path, data, extra=["--lr", "1e300"], rc=1)
    assert "no checkpoint written" in capsys.readouterr().err
    assert not run.exists()


def test_train_with_every_patient_skipped_removes_the_out_dirs_it_made(tmp_path, capsys):
    data = _synth(tmp_path)
    corpus = tmp_path / "no_reference.jsonl"
    _write_jsonl(corpus, [{"id": p.id, "pre_admission": p.pre_admission}
                          for p in load_corpus(data / "patients.jsonl")])
    out = tmp_path / "new" / "nested" / "run"
    rc = main(["train"] + _kg_args(data)
              + ["--corpus", str(corpus), "--out-dir", str(out), "--embed-dim", "8"])
    assert rc == 2
    assert "all patients were skipped" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_failed_train_leaves_an_existing_out_dir_as_it_was(tmp_path, capsys):
    data = _synth(tmp_path)
    run = tmp_path / "run"
    run.mkdir()
    with np.errstate(over="ignore", invalid="ignore"):
        _train(tmp_path, data, extra=["--lr", "1e300"], rc=1)
    assert run.is_dir() and not any(run.iterdir())
    (run / "notes.txt").write_text("kept\n")
    inner = run / "inner"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train"] + _kg_args(data)
                    + ["--corpus", str(data / "patients.jsonl"), "--out-dir", str(inner),
                       "--embed-dim", "8", "--lr", "1e300"]) == 1
    assert sorted(p.name for p in run.iterdir()) == ["notes.txt"]
    assert (run / "notes.txt").read_text() == "kept\n"


def test_refused_eval_leaves_no_out_dir(tmp_path, capsys):
    data = _synth(tmp_path)
    gen = tmp_path / "generated.jsonl"
    _write_jsonl(gen, [{"id": "nobody", "generated": "text"}])
    rc = main(
        ["eval"] + _kg_args(data)
        + ["--generated", str(gen), "--corpus", str(data / "patients.jsonl"),
           "--out-dir", str(tmp_path / "eval")]
    )
    assert rc == 2
    assert "missing from the reference corpus, first: 'nobody'" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_jsonl_write_that_fails_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.jsonl"
    _write_jsonl(path, [{"id": "old"}])
    before = path.read_bytes()
    real, calls = json.dumps, []

    def dumps(obj, *args, **kwargs):
        calls.append(obj)
        if len(calls) > 3:
            raise RuntimeError("encoder failed")
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    records = [{"id": str(i)} for i in range(10)]
    with pytest.raises(RuntimeError, match="encoder failed"):
        _write_jsonl(path, records)
    assert len(calls) == 4
    assert path.read_bytes() == before
    with pytest.raises(RuntimeError):
        _write_jsonl(tmp_path / "new.jsonl", records)
    assert [f.name for f in tmp_path.iterdir()] == ["out.jsonl"]
    monkeypatch.undo()
    _write_jsonl(path, records)
    assert path.read_text() == "".join(json.dumps(r) + "\n" for r in records)


def test_report_write_that_fails_keeps_previous_report(tmp_path, monkeypatch):
    data = _synth(tmp_path)
    patients = [json.loads(l) for l in (data / "patients.jsonl").read_text().splitlines()]
    out = tmp_path / "eval"

    def evaluate(text_of):
        generated = tmp_path / "generated.jsonl"
        generated.write_text("".join(
            json.dumps({"id": p["id"], "generated": text_of(p)}) + "\n" for p in patients
        ))
        return main(
            ["eval"] + _kg_args(data)
            + ["--generated", str(generated), "--corpus", str(data / "patients.jsonl"),
               "--out-dir", str(out)]
        )

    assert evaluate(lambda p: p["reference"]) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    real = json.dump

    def dump(obj, fh, **kwargs):
        fh.write('{"ce": ')  # part of the report reaches the file, then it fails
        raise RuntimeError("encoder failed")

    monkeypatch.setattr(json, "dump", dump)
    with pytest.raises(RuntimeError, match="encoder failed"):
        evaluate(lambda p: p["pre_admission"])
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    monkeypatch.setattr(json, "dump", real)
    assert evaluate(lambda p: p["pre_admission"]) == 0
    assert (out / "report.json").read_bytes() != before["report.json"]


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


def _embedding_file(tmp_path, data, dim, seed=0):
    """Random unit vectors for every concept in the synth graph."""
    ids = [
        line.split("\t")[0]
        for line in (data / "concepts.tsv").read_text().splitlines()[1:]
        if line
    ]
    rng = np.random.default_rng(seed)
    emb = tmp_path / f"emb{dim}_{seed}.tsv"
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


def _serve(command, data, run, extra=()):
    return main(
        ["--seed", "3", command] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "out.jsonl")]
        + (["--stub"] if command == "generate" else []) + list(extra)
    )


@pytest.mark.parametrize("command", ["retrieve", "generate"])
def test_checkpoint_refuses_a_table_other_than_the_trained_one(tmp_path, capsys, command):
    data = _synth(tmp_path)
    emb = _embedding_file(tmp_path, data, 8)
    run = _train(tmp_path, data, extra=["--embeddings", str(emb)])
    expected = load_checkpoint(run / "checkpoint.json").embeddings
    assert expected.startswith("sha256:") and len(expected) == 7 + 64
    assert _serve(command, data, run, ["--embeddings", str(emb)]) == 0
    (run / "out.jsonl").unlink()
    other = _embedding_file(tmp_path, data, 8, seed=1)  # same d, other vectors
    for extra in ([], ["--embeddings", str(other)]):  # pseudo fallback, other file
        capsys.readouterr()
        assert _serve(command, data, run, extra) == 2
        err = capsys.readouterr().err
        assert "r2ag: data error" in err and f"trained on the embedding table {expected}" in err
        assert not (run / "out.jsonl").exists()


def test_checkpoint_refuses_pseudo_table_of_another_graph(tmp_path, capsys):
    run = _train(tmp_path, _synth(tmp_path / "a", seed=3))
    other = _synth(tmp_path / "b", seed=4)  # same sizes, other graph
    assert _serve("retrieve", other, run) == 2
    assert "trained on the embedding table sha256:" in capsys.readouterr().err


def test_serve_refuses_checkpoint_that_names_no_table(tmp_path, capsys):
    # only a checkpoint with a fingerprint is served: a v1 one (no
    # fingerprint) and a copy whose fingerprint is null exit 2, with or
    # without an --embeddings file of the right dimension
    data = _synth(tmp_path)
    emb = _embedding_file(tmp_path, data, 8)
    run = _train(tmp_path, data, extra=["--embeddings", str(emb)])
    ckpt = run / "checkpoint.json"
    unnamed = load_checkpoint(ckpt)
    unnamed.embeddings = None
    save_checkpoint(unnamed, tmp_path / "unnamed.json")
    v1 = Path(__file__).parent / "data" / "checkpoint_v1_d2.json"
    for copy, message in ((v1, "unsupported checkpoint version 1"),
                          (tmp_path / "unnamed.json", "the checkpoint names no embedding table")):
        ckpt.write_bytes(copy.read_bytes())
        for command in ("retrieve", "generate"):
            for extra in ([], ["--embeddings", str(emb)]):
                capsys.readouterr()
                assert _serve(command, data, run, extra) == 2
                err = capsys.readouterr().err
                assert f"r2ag: data error: {ckpt}: {message}" in err
                assert "Traceback" not in err
                assert not (run / "out.jsonl").exists()


def test_serve_refuses_checkpoint_with_a_changed_weight_byte(tmp_path, capsys):
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    ckpt = run / "checkpoint.json"
    raw = bytearray(ckpt.read_bytes())
    raw[-100] = ord("A") if raw[-100] != ord("A") else ord("B")  # a byte of M
    ckpt.write_bytes(bytes(raw))
    capsys.readouterr()
    assert _serve("retrieve", data, run) == 2
    err = capsys.readouterr().err
    assert f"r2ag: data error: {ckpt}: weights do not match the sha256 in the header" in err
    assert "Traceback" not in err
    assert not (run / "out.jsonl").exists()


def test_retrieval_setup_refuses_table_of_another_row_count(tmp_path, capsys, monkeypatch):
    import r2ag.cli as cli
    from r2ag.embeddings import EmbeddingTable, fingerprint

    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    real = cli.pseudo_embeddings

    def short_table(kg, d, seed):
        table = real(kg, d, seed)
        return EmbeddingTable(table.dim, table.matrix[:-1])

    # the checkpoint names the short table, so the row count is the check that fires
    p = load_checkpoint(run / "checkpoint.json")
    kg = load_kg(data / "concepts.tsv", data / "relations.tsv")
    p.embeddings = fingerprint(short_table(kg, p.d, p.seed))
    save_checkpoint(p, run / "checkpoint.json")
    monkeypatch.setattr(cli, "pseudo_embeddings", short_table)
    assert _serve("retrieve", data, run) == 2
    err = capsys.readouterr().err
    assert "r2ag: data error" in err and "74 rows, the graph 75 concepts" in err


def test_truncated_checkpoint_exits_2(tmp_path, capsys):
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    ckpt = run / "checkpoint.json"
    full = ckpt.read_bytes()
    for cut in np.unique(np.linspace(0, len(full) - 1, 30).astype(int)):
        # a cut ends inside the magic line, the header line or the weights;
        # bytes put after it leave the weights short, long or changed
        for content in (full[:cut], full[:cut] + b'"}\n'):
            ckpt.write_bytes(content)
            capsys.readouterr()
            assert _serve("retrieve", data, run) == 2, content[-40:]
            assert "r2ag: data error" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["retrieve", "generate"])
def test_serve_max_steps_below_one_is_a_usage_error(tmp_path, capsys, command):
    # and above COUNT_LIMIT: a huge count failed an allocation with a
    # traceback in a sampled run, and never ended in a greedy one
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    sample = ["--sample"] if command == "retrieve" else []
    for value, bound in (("0", ">= 1"), ("100000000000000000000", "<= 1000")):
        capsys.readouterr()
        assert _serve(command, data, run, ["--max-steps", value] + sample) == 1
        err = capsys.readouterr().err
        assert f"usage error: max_steps must be {bound}" in err and "Traceback" not in err
        assert not (run / "out.jsonl").exists()


@pytest.mark.parametrize("flag", ["--max-steps", "--group-size"])
def test_train_count_above_limit_is_a_usage_error(tmp_path, capsys, flag):
    # refused before the out dir is made: a huge count used to fail an
    # allocation with a traceback and leave an empty out dir behind
    data = _synth(tmp_path)
    for value in ("1000000000000", "100000000000000000000"):
        capsys.readouterr()
        run = _train(tmp_path, data, extra=[flag, value], rc=1)
        err = capsys.readouterr().err
        assert f"usage error: {flag[2:].replace('-', '_')} must be <= 1000" in err
        assert "Traceback" not in err
        assert not run.exists()


def test_generate_negative_max_paths_is_a_usage_error(tmp_path, capsys):
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    capsys.readouterr()
    assert _serve("generate", data, run, ["--max-paths", "-1"]) == 1
    assert "usage error: max_paths must be >= 0" in capsys.readouterr().err
    assert not (run / "out.jsonl").exists()
    # 0 keeps its meaning: every prompt goes out with no paths
    assert _serve("generate", data, run, ["--max-paths", "0"]) == 0
    records = [json.loads(l) for l in (run / "out.jsonl").read_text().splitlines()]
    assert records and all(rec["paths"] == [] for rec in records)


@pytest.mark.parametrize("flags,message", [
    (["--endpoint", "http://127.0.0.1:9/v1", "--timeout", "0"], "timeout must be > 0"),
    (["--stub", "--timeout", "0", "--retries", "-1"], "timeout must be > 0"),
    (["--stub", "--retries", "-1"], "max_retries must be >= 0"),
    (["--stub", "--temperature", "-1"], "temperature must be >= 0"),
    (["--endpoint", "http://127.0.0.1:9/v1", "--max-tokens", "0"], "max_tokens must be >= 1"),
    (["--stub", "--max-tokens", "-5"], "max_tokens must be >= 1"),
])
def test_generate_bad_generator_config_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                        flags, message):
    import r2ag.cli

    def no_setup(*args, **kwargs):
        raise AssertionError("the generator config is checked before any data loads")

    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    monkeypatch.setattr(r2ag.cli, "_retrieval_setup", no_setup)
    capsys.readouterr()
    rc = main(
        ["--seed", "3", "generate"] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"), "--out", str(run / "out.jsonl")]
        + flags
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"usage error: {message}" in err and "Traceback" not in err
    assert not (run / "out.jsonl").exists()


def test_train_embed_dim_below_two_is_a_usage_error(tmp_path, capsys):
    data = _synth(tmp_path)
    capsys.readouterr()
    rc = main(
        ["train"] + _kg_args(data)
        + ["--corpus", str(data / "patients.jsonl"), "--out-dir", str(tmp_path / "run"),
           "--embed-dim", "1"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error: embed_dim must be >= 2" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_cli_import_leaves_the_http_client_and_thread_pool_unloaded():
    # only generate --endpoint posts and only --jobs > 1 starts a pool; every
    # other command should not pay for importing them
    import subprocess
    import sys

    probe = (
        "import sys, r2ag.cli; "
        "print(sorted(m for m in ('http.client', 'urllib.request', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("endpoint", ["not-a-url", "ftp://127.0.0.1/x", "http://", "http://[::1"])
def test_generate_endpoint_that_is_not_an_http_url_exits_3(tmp_path, capsys, monkeypatch,
                                                           endpoint):
    import urllib.request

    def no_request(*args, **kwargs):
        raise AssertionError("no request may be opened for a malformed endpoint")

    # generate() imports urlopen from urllib.request when it is called
    monkeypatch.setattr(urllib.request, "urlopen", no_request)
    data = _synth(tmp_path)
    run = _train(tmp_path, data)
    capsys.readouterr()
    rc = main(
        ["--seed", "3", "generate"] + _kg_args(data)
        + ["--checkpoint", str(run / "checkpoint.json"),
           "--corpus", str(data / "patients.jsonl"),
           "--out", str(run / "out.jsonl"), "--endpoint", endpoint, "--retries", "0"]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "r2ag: endpoint error" in err and "Traceback" not in err


def test_eval_generated_repeated_id_exits_2(tmp_path, capsys):
    data = _synth(tmp_path)
    ids = [p.id for p in load_corpus(data / "patients.jsonl")][:3]
    gen = tmp_path / "generated.jsonl"
    _write_jsonl(gen, [{"id": pid, "generated": "text"} for pid in ids + ids[1:2]])
    with pytest.raises(DataFormatError, match=r":4: duplicate patient id"):
        _load_generated(gen)
    rc = main(
        ["eval"] + _kg_args(data)
        + ["--generated", str(gen), "--corpus", str(data / "patients.jsonl"),
           "--out-dir", str(tmp_path / "eval")]
    )
    assert rc == 2
    assert f"generated.jsonl:4: duplicate patient id {ids[1]!r}" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "report.json").exists()


def test_generated_record_with_empty_id_is_refused_at_its_line(tmp_path):
    gen = tmp_path / "generated.jsonl"
    _write_jsonl(gen, [{"id": "P1", "generated": "x"}, {"id": "", "generated": "y"}])
    with pytest.raises(DataFormatError, match=r"generated\.jsonl:2: missing or empty 'id'"):
        _load_generated(gen)


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
