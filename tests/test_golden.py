"""Golden outputs of a pinned toy CLI loop.

The loop has the shape of the CI quickstart: seed 7, 5 groups x 15
concepts, 8 patients, 2 epochs at d=8. Outputs that depend only on argmax
picks and text (the synth files, ``validate`` stdout, greedy and
``--sample`` paths, ``generate --stub`` text and the eval report) must hash
to the sha256 in ``golden/manifest.json``. The checkpoint matrices and the
``train_log.jsonl`` floats follow BLAS summation order, so they are compared
to ``golden/checkpoint.json`` and ``golden/train_log.jsonl`` at a relative
tolerance of 1e-12 instead.

A change that alters these outputs on purpose rewrites the golden files in
the same commit, with ``write_golden(scratch_dir)`` from this module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from r2ag.cli import main
from r2ag.policy_net import load_checkpoint

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12

# files hashed exactly, relative to the loop's output directory
HASHED = (
    "data/concepts.tsv",
    "data/relations.tsv",
    "data/patients.jsonl",
    "validate.out",
    "run/paths.jsonl",
    "run/paths_sample.jsonl",
    "run/generated.jsonl",
    "run/eval/report.json",
    "run/eval/per_patient.csv",
)


def _run_loop(out: Path) -> None:
    data, run = out / "data", out / "run"
    kg = ["--concepts", str(data / "concepts.tsv"), "--relations", str(data / "relations.tsv")]
    corpus = ["--corpus", str(data / "patients.jsonl")]
    ckpt = ["--checkpoint", str(run / "checkpoint.json")]
    steps = [
        ["synth", "--out-dir", str(data), "--groups", "5", "--concepts-per-group", "15",
         "--patients", "8", "--keywords-per-patient", "6", "--gt-per-patient", "6"],
        ["validate"] + kg + corpus,
        ["train"] + kg + corpus + ["--out-dir", str(run), "--epochs", "2",
                                   "--embed-dim", "8", "--lr", "0.05"],
        ["retrieve"] + kg + ckpt + corpus + ["--out", str(run / "paths.jsonl")],
        ["retrieve"] + kg + ckpt + corpus + ["--out", str(run / "paths_sample.jsonl"),
                                             "--sample"],
        ["generate"] + kg + ckpt + corpus + ["--out", str(run / "generated.jsonl"), "--stub"],
        ["eval"] + kg + corpus + ["--generated", str(run / "generated.jsonl"),
                                  "--out-dir", str(run / "eval")],
    ]
    for argv in steps:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main(["--seed", "7"] + argv)
        assert rc == 0, argv
        if argv[0] == "validate":  # the only stdout free of output paths
            (out / "validate.out").write_text(stdout.getvalue(), encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _log_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def write_golden(out) -> None:
    """Rerun the loop under directory ``out`` and rewrite every golden file."""
    out = Path(out)
    _run_loop(out)
    manifest = {"sha256": {name: _sha256(out / name) for name in HASHED}}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for name in ("checkpoint.json", "train_log.jsonl"):
        shutil.copyfile(out / "run" / name, GOLDEN / name)


def test_pinned_loop_matches_golden_outputs(tmp_path):
    _run_loop(tmp_path)

    expected = json.loads((GOLDEN / "manifest.json").read_text())["sha256"]
    assert set(expected) == set(HASHED)
    changed = [name for name in HASHED if _sha256(tmp_path / name) != expected[name]]
    assert changed == []

    got, want = (load_checkpoint(p) for p in (tmp_path / "run" / "checkpoint.json",
                                              GOLDEN / "checkpoint.json"))
    assert (got.d, got.seed, got.embeddings) == (want.d, want.seed, want.embeddings)
    for name in ("W1", "W2", "M"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=RTOL, atol=0)

    got_log = _log_records(tmp_path / "run" / "train_log.jsonl")
    want_log = _log_records(GOLDEN / "train_log.jsonl")
    assert len(got_log) == len(want_log)
    for g, w in zip(got_log, want_log):
        assert g.keys() == w.keys()
        for key, value in w.items():
            if isinstance(value, (float, list)):  # mean_R, relative_rewards
                np.testing.assert_allclose(g[key], value, rtol=RTOL, atol=0, err_msg=key)
            else:
                assert g[key] == value, key
