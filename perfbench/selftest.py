"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the package's own test run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from gen_inputs import write_inputs  # noqa: E402
from spans import Recorder, self_times  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tree(tmp_path, seed):
    files = write_inputs(run.TOY["wide-train"].shape, seed, tmp_path / str(seed),
                         train_patients=3)
    return {name: path.read_bytes() for name, path in files.items()}


def test_same_seed_gives_identical_inputs(tmp_path):
    first = _tree(tmp_path / "a", 5)
    assert first == _tree(tmp_path / "b", 5)
    assert first != _tree(tmp_path / "c", 6)


def test_self_time_of_a_hand_built_span_tree():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25)
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    assert self_times(parent, start, end).tolist() == [30, 20, 10, 40]


def test_recorder_nests_spans_and_counts_calls():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: next(ticks))

    def inner():
        return 1

    inner_t = rec.wrap("inner", inner)
    outer_t = rec.wrap("outer", lambda: inner_t() + inner_t())
    assert outer_t() == 2
    cols = rec.arrays()
    assert [rec.names[i] for i in cols["name_id"]] == ["outer", "inner", "inner"]
    assert cols["parent"].tolist() == [-1, 0, 0]
    assert self_times(cols["parent"], cols["start"], cols["end"]).tolist() == [3, 1, 1]


def test_names_are_well_formed_and_match_the_code():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME_RE.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]


def test_path_check_rejects_non_edges_and_wrong_leaps(tmp_path):
    (tmp_path / "c.tsv").write_text(
        "id\tname\tgroup\nA1\ta\tA\nA2\tb\tA\nB1\tc\tB\nB2\td\tB\n")
    (tmp_path / "r.tsv").write_text(
        "src\trelation\tdst\nA1\tpart_of\tA2\nB1\tcaused_by\tB2\n")
    gi = run.GraphIndex({"concepts": tmp_path / "c.tsv", "relations": tmp_path / "r.tsv"})

    def path(*steps):
        return {"origin": "A1", "steps": [{"label": l, "concept": c} for l, c in steps]}

    assert gi.path_errors(path(("part_of", "A2"), ("group leap", "B1"),
                               ("caused_by", "B2"))) == []
    assert gi.path_errors(path(("caused_by", "A2")))  # wrong label
    assert gi.path_errors(path(("group leap", "A2")))  # leap inside its own group
    assert gi.path_errors(path(("group leap", "B1"), ("part_of", "A2")))


def _bench(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["retrieval_env.step.calls"] > 0
        assert values["embeddings.cosine.calls"] > 0
        assert values["retrieval_env.leaps_taken"] <= values["retrieval_env.leaps_requested"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _bench("--workload", "desk-loop", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
