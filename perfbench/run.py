"""Benchmark of the r2ag command-line loop, end to end and per layer.

    python3 perfbench/run.py --workload desk-loop --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout: the program under test is the
``src/r2ag`` package next to this directory. Each stage (``synth``,
``train``, ``retrieve``, ``generate --stub``, ``eval``) is a fresh child
process started from this single-threaded process, one at a time, with
``--jobs 1``. The inputs are written from ``--seed`` by ``gen_inputs``.

``--trace 0`` repeats the workload's stages while ``--seconds`` allow (at
least once) and reports the end-to-end metrics over all the passes: set-up
as the median of its probes, the other timings as work over summed walls.
``--trace 1`` runs the stages once untraced and once in-process under the
span recorder of ``spans.py``, and reports the per-layer metrics plus the
tracing overhead. Every pass checks the outputs; the last stdout line is
one JSON object ``{correct, attempted, failed, metrics}``, and the exit code
is 1 when any check or stage failed. ``--workload all`` runs every workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from gen_inputs import Shape, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
LR = "0.05"
REPEATS = 2  # synth runs and set-up probes per pass
STAGES = ("synth", "train", "retrieve", "generate", "eval")

DESK = Shape(groups=15, concepts_per_group=50, p_intra=0.08, p_cross=0.01, patients=50)


@dataclass(frozen=True)
class Workload:
    shape: Shape  # the graph and corpus of every stage; synth writes the same shape
    dim: int  # embedding dimension
    epochs: int
    train_patients: int | None  # train on the first n patients; None: all


WORKLOADS = {
    # The README quickstart: env work (scalar cosine) dominates training.
    "desk-loop": Workload(DESK, dim=32, epochs=3, train_patients=None),
    # d=128: gradient accumulation and the JSON checkpoint dominate training
    # and checkpoint loads the serve stages; env work is a few percent.
    "wide-train": Workload(DESK, dim=128, epochs=1, train_patients=10),
}

# The same workloads at a size that runs in seconds, for the self-tests.
_TOY = Shape(groups=4, concepts_per_group=12, p_intra=0.3, p_cross=0.05, patients=6)
TOY = {
    "desk-loop": replace(WORKLOADS["desk-loop"], shape=_TOY, dim=8, epochs=2),
    "wide-train": replace(WORKLOADS["wide-train"], shape=_TOY, dim=16, train_patients=3),
}

END_TO_END = {
    "setup_s": "s",
    "synth_s": "s",
    "train_episodes_per_s": "1/s",
    "serve_patients_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one BLAS thread: the stages run one at a time on 2 cores
    return env


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _terminate(signum, frame):
    sys.exit(128 + signum)


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str


class Runner:
    """Starts children one at a time and reaps each with ``wait4`` for its
    own peak RSS; every child ends before the next starts."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        self.started = 0
        self.failed = 0

    def run(self, argv: list[str], log: Path) -> Child:
        self.started += 1
        budget = self.deadline - time.perf_counter()
        if budget <= 0:
            self.failed += 1
            return Child(-1, 0.0, 0.0, "")
        signal.signal(signal.SIGALRM, _alarm)
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            try:
                signal.setitimer(signal.ITIMER_REAL, budget)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # SIGTERM or Ctrl-C: the child ends with us
                proc.kill()
                with contextlib.suppress(ChildProcessError):
                    os.wait4(proc.pid, 0)
                raise
            wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if rc != 0:
            self.failed += 1
        return Child(rc, wall, usage.ru_maxrss / 1024.0, log.read_text(errors="replace"))


def cli_args(wl: Workload, seed: int, files: dict, out: Path) -> dict[str, list[str]]:
    kg = ["--concepts", str(files["concepts"]), "--relations", str(files["relations"])]
    serve = kg + ["--checkpoint", str(out / "train" / "checkpoint.json"),
                  "--corpus", str(files["corpus"])]
    head = ["--seed", str(seed), "--jobs", "1"]
    return {
        "synth": head + ["synth", "--out-dir", str(out / "synth")] + wl.shape.synth_flags(),
        "train": head + ["train"] + kg + [
            "--corpus", str(files.get("train_corpus", files["corpus"])),
            "--out-dir", str(out / "train"), "--embed-dim", str(wl.dim),
            "--epochs", str(wl.epochs), "--lr", LR,
        ],
        "retrieve": head + ["retrieve"] + serve + ["--out", str(out / "paths.jsonl")],
        "generate": head + ["generate"] + serve + ["--out", str(out / "generated.jsonl"),
                                                  "--stub"],
        "eval": head + ["eval"] + kg + ["--generated", str(out / "generated.jsonl"),
                                        "--corpus", str(files["corpus"]),
                                        "--out-dir", str(out / "eval")],
    }


OUTPUTS = (
    "synth/concepts.tsv", "synth/relations.tsv", "synth/patients.jsonl",
    "train/checkpoint.json", "train/train_log.jsonl",
    "paths.jsonl", "generated.jsonl", "eval/report.json", "eval/per_patient.csv",
)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class GraphIndex:
    """Edge set and concept groups of the workload's input graph."""

    def __init__(self, files: dict):
        with open(files["concepts"], encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh][1:]
        self.group = {cid: g for cid, _, g in rows}
        with open(files["relations"], encoding="utf-8") as fh:
            self.edges = {tuple(line.rstrip("\n").split("\t")) for line in fh}

    def path_errors(self, path: dict) -> list[str]:
        """Non-leap steps must be graph edges with their label; a group leap
        leaves the previous step's group and lands in the group of the step
        that follows it."""
        errors = []
        steps = path["steps"]
        prev = path["origin"]
        for i, st in enumerate(steps):
            cid, label = st["concept"], st["label"]
            if label == "group leap":
                nxt = steps[i + 1]["concept"] if i + 1 < len(steps) else None
                if self.group.get(cid) == self.group.get(prev) or (
                    nxt is not None and self.group.get(nxt) != self.group.get(cid)
                ):
                    errors.append(f"leap {prev}->{cid} not into its step's group")
            elif (prev, label, cid) not in self.edges:
                errors.append(f"step {prev} -{label}-> {cid} is not a graph edge")
            prev = cid
        return errors


def check_outputs(out: Path, files: dict, gi: GraphIndex, checks: Checks) -> int:
    """Check one pass's outputs; returns the number of patients skipped."""
    corpus_ids = [r["id"] for r in read_jsonl(files["corpus"])]
    paths = read_jsonl(out / "paths.jsonl")
    generated = read_jsonl(out / "generated.jsonl")
    bad = [e for p in paths for e in gi.path_errors(p)]
    bad += [e for g in generated for p in g["paths"] for e in gi.path_errors(p)]
    checks.expect(not bad, f"path checks: {bad[:3]}")
    by_patient: dict[str, list] = {}
    for p in paths:
        by_patient.setdefault(p["patient"], []).append(
            {"origin": p["origin"], "steps": p["steps"]})
    checks.expect(
        all(by_patient.get(g["id"]) == g["paths"] for g in generated),
        "generate --stub paths differ from retrieve paths",
    )
    report = json.loads((out / "eval" / "report.json").read_text())
    sections = report.get("ce", {})
    checks.expect(
        isinstance(sections.get("ngram"), dict) and isinstance(sections.get("concept"), dict)
        and isinstance(report.get("nlg"), dict),
        "report.json lacks a ce.ngram, ce.concept or nlg section",
    )
    log = read_jsonl(out / "train" / "train_log.jsonl")
    return (
        sum(1 for e in log if e["skipped"])
        + len(corpus_ids) - len(by_patient)
        + len(corpus_ids) - len(generated)
        + len(corpus_ids) - int(report.get("patients", 0))
    )


def output_hashes(out: Path) -> dict[str, str]:
    return {name: sha256(out / name) for name in OUTPUTS if (out / name).exists()}


def train_final_reward(out: Path) -> float:
    log = [e for e in read_jsonl(out / "train" / "train_log.jsonl") if not e["skipped"]]
    last = max(e["epoch"] for e in log)
    return statistics.fmean(e["mean_R"] for e in log if e["epoch"] == last)


@dataclass
class Pass:
    walls: dict[str, list[float]] = field(default_factory=dict)  # stage -> samples
    rss: dict[str, float] = field(default_factory=dict)  # stage -> largest
    setup: list[float] = field(default_factory=list)
    episodes: int = 0
    patients: int = 0
    skipped: int = 0
    hashes: dict[str, str] = field(default_factory=dict)
    ok: bool = True

    def wall(self, stage: str) -> float:
        return statistics.median(self.walls[stage])


def run_pass(name: str, wl: Workload, seed: int, files: dict, out: Path, runner: Runner,
             checks: Checks, gi: GraphIndex, trace: bool = False, timed: bool = True) -> Pass:
    """Run every stage once; when ``timed``, run synth ``REPEATS`` times and
    then ``REPEATS`` set-up probes."""
    repeats = {"synth": REPEATS} if timed else {}
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    res = Pass()
    for stage, args in cli_args(wl, seed, files, out).items():
        if trace:
            argv = [sys.executable, str(BENCH / "trace_stage.py"), str(out / stage), "--"]
        else:
            argv = [sys.executable, "-m", "r2ag.cli"]
        first: dict[str, str] = {}
        for k in range(repeats.get(stage, 1)):
            child = runner.run(argv + args, out / f"{stage}.log")
            checks.expect(child.rc == 0, f"{name}: {stage} exited {child.rc}")
            if child.rc != 0:
                res.ok = False
                print(child.stdout[-2000:], file=sys.stderr)
                return res
            res.walls.setdefault(stage, []).append(child.wall_s)
            res.rss[stage] = max(res.rss.get(stage, 0.0), child.rss_mb)
            hashes = {n: h for n, h in output_hashes(out).items() if n.startswith(stage + "/")}
            if k == 0:
                first = hashes
            else:
                checks.expect(hashes == first, f"{name}: {stage} outputs differ across repeats")
    res.skipped = check_outputs(out, files, gi, checks)
    res.patients = len(read_jsonl(files["corpus"]))
    res.episodes = sum(1 for e in read_jsonl(out / "train" / "train_log.jsonl")
                       if not e["skipped"])
    res.hashes = output_hashes(out)
    probe = [sys.executable, str(BENCH / "setup_probe.py"), str(files["concepts"]),
             str(files["relations"]), str(files["corpus"]),
             str(out / "train" / "checkpoint.json")]
    for k in range(REPEATS if timed else 0):
        child = runner.run(probe, out / f"setup{k}.log")
        checks.expect(child.rc == 0, f"{name}: setup probe exited {child.rc}")
        if child.rc != 0:
            res.ok = False
            return res
        res.setup.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return res


def record_hashes(key: str, input_hash: str, hashes: dict, checks: Checks) -> None:
    """Outputs must repeat byte for byte across runs of one workload, seed and
    program in this checkout; the record also lets two commits' outputs be
    diffed."""
    rec_path = WORK / "hashes" / f"{key}.json"
    rec_path.parent.mkdir(parents=True, exist_ok=True)
    if rec_path.exists():
        old = json.loads(rec_path.read_text())
        if old.get("inputs") == input_hash:
            diff = sorted(k for k in hashes if old["outputs"].get(k) != hashes[k])
            checks.expect(not diff, f"outputs differ from an earlier run: {diff}")
    rec_path.write_text(json.dumps({"inputs": input_hash, "outputs": hashes}, indent=1,
                                   sort_keys=True) + "\n")


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    """Set-up is the median of its probes; the other timings pool every
    sample of the run, as work done over the summed stage walls."""
    walls = {st: [w for p in passes for w in p.walls[st]] for st in STAGES}
    serve_s = sum(sum(walls[st]) for st in ("retrieve", "generate", "eval"))
    return {
        "setup_s": statistics.median([s for p in passes for s in p.setup]),
        "synth_s": statistics.fmean(walls["synth"]),
        "train_episodes_per_s": sum(p.episodes for p in passes) / sum(walls["train"]),
        "serve_patients_per_s": sum(p.patients for p in passes) / serve_s,
        "peak_rss_mb": max(max(p.rss.values()) for p in passes),
    }


class Spans:
    """The span summaries ``trace_stage.py`` wrote for each stage of a pass."""

    def __init__(self, out: Path):
        self.stage = {st: json.loads((out / f"{st}.json").read_text()) for st in STAGES}

    def _sum(self, name: str, key: str) -> int:
        return sum(s["spans"].get(name, {}).get(key, 0) for s in self.stage.values())

    def calls(self, name):
        return self._sum(name, "calls")

    def mean_s(self, name):
        n = self.calls(name)
        return self._sum(name, "total_ns") / n / 1e9 if n else 0.0

    def us_per_call(self, name):
        return self.mean_s(name) * 1e6

    def self_ms(self, name):
        return self._sum(name, "self_ns") / 1e6

    def pct_ms(self, name, stage, key):
        return self.stage[stage]["spans"].get(name, {}).get(key, 0.0) / 1e6

    def share(self, name, stage):
        """Time in ``name`` over the wall of one stage."""
        s = self.stage[stage]
        return s["spans"].get(name, {}).get("total_ns", 0) / s["wall_ns"]

    def counter(self, key):
        return sum(s[key] for s in self.stage.values())


def per_layer(sp: Spans, plain: Pass, traced: Pass, out: Path) -> dict:
    m: dict[str, float] = {"cli.import_s": sp.mean_s("cli.import")}
    for name in ("kg_store.load_kg", "embeddings.pseudo_embeddings", "concept_linker.load_corpus",
                 "policy_net.save_checkpoint", "policy_net.load_checkpoint",
                 "evaluation.evaluate_corpus", "synthetic_data.gen_kg",
                 "synthetic_data.gen_corpus"):
        m[f"{name}.s"] = sp.mean_s(name)
    for name in ("kg_store.neighbors_in_group", "embeddings.cosine", "embeddings.avg_embedding",
                 "concept_linker.link_concepts", "policy_net.forward",
                 "policy_net.logprob_backward"):
        m[f"{name}.calls"] = sp.calls(name)
        m[f"{name}.us_per_call"] = sp.us_per_call(name)
    for name in ("retrieval_env.connect", "retrieval_env.retrieve", "retrieval_env.candidate_pool",
                 "gro_trainer.rollout_reward", "gro_trainer.patient_context",
                 "generation.build_prompt_bundle", "generation.stub_generate",
                 "evaluation.evaluate_pair"):
        m[f"{name}.us_per_call"] = sp.us_per_call(name)
    for name, stage in (("gro_trainer.train_patient", "train"),
                        ("generation.retrieve_for_patient", "retrieve")):
        m[f"{name}.ms_p50"] = sp.pct_ms(name, stage, "p50_ns")
        m[f"{name}.ms_p90"] = sp.pct_ms(name, stage, "p90_ns")
    m["embeddings.group_vectors.calls"] = sp.calls("embeddings.group_vectors")
    m["embeddings.group_vectors.s"] = sp.mean_s("embeddings.group_vectors")
    m["embeddings.group_vectors.share"] = sp.share("embeddings.group_vectors", "retrieve")
    m["embeddings.cosine.share"] = sp.share("embeddings.cosine", "train")
    m["gro_trainer.gradient.share"] = sp.share("gro_trainer.accumulate_gradient", "train")
    m["policy_net.save_checkpoint.share"] = sp.share("policy_net.save_checkpoint", "train")
    m["policy_net.checkpoint.bytes"] = (out / "train" / "checkpoint.json").stat().st_size
    n_acc = sp.calls("gro_trainer.accumulate_gradient")
    m["gro_trainer.accumulate_gradient.self_ms_per_call"] = (
        sp.self_ms("gro_trainer.accumulate_gradient") / n_acc if n_acc else 0.0)
    m["retrieval_env.step.calls"] = sp.calls("retrieval_env.step")
    m["retrieval_env.step.self_ms"] = sp.self_ms("retrieval_env.step")
    requested, taken = sp.counter("leaps_requested"), sp.counter("leaps_taken")
    live = sp.counter("live_paths")
    m["retrieval_env.leaps_requested"] = requested
    m["retrieval_env.leaps_taken"] = taken
    m["retrieval_env.leap_success_ratio"] = taken / requested if requested else 0.0
    m["retrieval_env.frozen_path_share"] = sp.counter("frozen_paths") / live if live else 0.0
    for stage in STAGES:
        m[f"{stage}.peak_rss_mb"] = plain.rss[stage]
        m[f"{stage}.untraced_share"] = sp.stage[stage]["untraced_share"]
    plain_wall = sum(plain.wall(stage) for stage in STAGES)
    m["trace.overhead_s"] = sum(traced.wall(stage) for stage in STAGES) - plain_wall
    m["trace.overhead_share"] = m["trace.overhead_s"] / plain_wall
    m["quality.train_final_reward"] = train_final_reward(out)
    report = json.loads((out / "eval" / "report.json").read_text())
    m["quality.concept_recall"] = report["ce"]["concept"]["recall"]
    return m


def per_layer_units() -> dict[str, str]:
    """Unit of each per-layer metric, read from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    wl = (TOY if toy else WORKLOADS)[name]
    t_start = time.perf_counter()
    runner = Runner(t_start + RUN_LIMIT_S)
    checks = Checks()
    base = WORK / (f"toy-{name}" if toy else name)
    shutil.rmtree(base, ignore_errors=True)
    files = write_inputs(wl.shape, seed, base / "inputs", train_patients=wl.train_patients)
    # the record of earlier outputs is keyed by the inputs and the program
    sources = sorted((ROOT / "src" / "r2ag").rglob("*.py"))
    input_hash = hashlib.sha256("".join(
        sha256(p) for p in [*sorted(files.values()), *sources]).encode()).hexdigest()
    gi = GraphIndex(files)
    # compile the package's bytecode and warm the file cache before timing
    runner.run([sys.executable, "-c", "import r2ag.cli"], base / "warmup.log")

    passes: list[Pass] = []
    if trace:
        plain = run_pass(name, wl, seed, files, base / "plain", runner, checks, gi, timed=False)
        passes.append(plain)
        if plain.ok:
            traced = run_pass(name, wl, seed, files, base / "traced", runner, checks, gi,
                              trace=True, timed=False)
            passes.append(traced)
    else:
        t_measure = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(name, wl, seed, files, base / f"pass{len(passes)}",
                                   runner, checks, gi))
            now = time.perf_counter()
            # another pass only while one as long as the last still fits
            if not passes[-1].ok or now - t_measure + (now - t_pass) > seconds:
                break

    ok = all(p.ok for p in passes)
    if ok:
        first = passes[0].hashes
        for k, p in enumerate(passes[1:], start=1):
            diff = sorted(n for n in first if p.hashes.get(n) != first[n])
            checks.expect(not diff, f"pass {k} outputs differ from pass 0: {diff}")
        key = f"{'toy-' if toy else ''}{name}-seed{seed}"
        record_hashes(key, input_hash, first, checks)
        (base / "hashes.json").write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")

    metrics: dict[str, dict] = {}
    if ok and trace:
        values = per_layer(Spans(base / "traced"), passes[0], passes[1], base / "plain")
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()}
    elif ok:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(passes).items()}

    skipped = sum(p.skipped for p in passes)
    served = sum(p.patients for p in passes) * 3
    attempted = runner.started + checks.attempted + served
    failed = runner.failed + len(checks.failures) + skipped
    correct = ok and not checks.failures and skipped == 0

    print(f"== {name} seed={seed} trace={int(trace)} passes={len(passes)} "
          f"elapsed={time.perf_counter() - t_start:.1f}s")
    for k, p in enumerate(passes):
        walls = " ".join(f"{s}={'/'.join(f'{w:.3f}' for w in ws)}s"
                         for s, ws in p.walls.items())
        print(f"   pass {k}: {walls} setup={[round(s, 4) for s in p.setup]}")
    for k, v in metrics.items():
        print(f"   {k} = {v['value']:.6g} {v['unit']}")
    print(f"   error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for msg in checks.failures:
        print(f"   CHECK FAILED: {msg}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny shapes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "r2ag" / "cli.py").is_file():
        print(f"perfbench: no r2ag sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.toy)
        correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
