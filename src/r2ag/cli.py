"""Command-line entry point: synth | validate | train | retrieve | generate | eval.

Exit codes: 0 success, 1 usage error, 2 data error, 3 endpoint error.
Options resolve as flags > config file (flat dotted keys like
``train.lr``) > built-in defaults. All randomness hangs off --seed; output
files carry no timestamps, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .concept_linker import link_concepts, load_corpus
from .embeddings import group_vectors, load_embeddings, pseudo_embeddings
from .errors import (
    DataFormatError,
    EndpointError,
    R2agError,
    UnlinkableInputError,
)
from .evaluation import evaluate_corpus
from .generation import (
    DEFAULT_TEMPLATE,
    GeneratorConfig,
    build_prompt_bundle,
    generate,
    load_template,
    retrieve_for_patient,
    select_paths,
    stub_generate,
)
from .gro_trainer import TrainConfig, train
from .kg_store import load_kg
from .policy_net import load_checkpoint, save_checkpoint
from .synthetic_data import SynthSpec, gen_corpus, gen_kg

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit(1)
        raise UsageError(message)


DEFAULTS: dict[str, dict] = {
    "synth": {
        "groups": 15, "concepts_per_group": 50, "p_intra": 0.08, "p_cross": 0.01,
        "patients": 50, "keywords_per_patient": 8, "gt_per_patient": 10, "skew": 0.9,
    },
    "validate": {},
    "train": {
        "embed_dim": 32, "epochs": 1, "max_steps": 5, "gamma": 0.1,
        "reward_weight": 10.0, "group_size": 4, "lr": 1e-3,
    },
    "retrieve": {"max_steps": 5, "sample": False},
    "generate": {
        "max_steps": 5, "stub": False, "endpoint": "", "model": "local-model",
        "temperature": 0.0, "max_tokens": 512, "timeout": 30.0, "retries": 2,
        "auth_env": "R2AG_API_KEY", "max_paths": None, "prompt_template": None,
    },
    "eval": {},
}


def build_parser() -> _Parser:
    parser = _Parser(prog="r2ag", description=__doc__)
    parser.add_argument("--config", help="JSON config file with flat dotted keys")
    parser.add_argument("--seed", type=int, default=0, help="global random seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="concurrent endpoint requests in generate")
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic graph and corpus")
    p.add_argument("--out-dir")
    p.add_argument("--groups", type=int)
    p.add_argument("--concepts-per-group", type=int)
    p.add_argument("--p-intra", type=float)
    p.add_argument("--p-cross", type=float)
    p.add_argument("--patients", type=int)
    p.add_argument("--keywords-per-patient", type=int)
    p.add_argument("--gt-per-patient", type=int)
    p.add_argument("--skew", type=float)

    p = sub.add_parser("validate", help="load data files and report statistics")
    p.add_argument("--concepts")
    p.add_argument("--relations")
    p.add_argument("--embeddings")
    p.add_argument("--corpus")

    p = sub.add_parser("train", help="train the retrieval policy")
    p.add_argument("--concepts")
    p.add_argument("--relations")
    p.add_argument("--corpus")
    p.add_argument("--out-dir")
    p.add_argument("--embeddings")
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--reward-weight", type=float)
    p.add_argument("--group-size", type=int)
    p.add_argument("--lr", type=float)

    p = sub.add_parser("retrieve", help="dump greedy reasoning paths")
    p.add_argument("--concepts")
    p.add_argument("--relations")
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--embeddings")
    p.add_argument("--max-steps", type=int)
    p.add_argument("--patient", help="retrieve for one patient id only")
    p.add_argument("--sample", action="store_true", default=None,
                   help="sample actions instead of greedy selection")

    p = sub.add_parser("generate", help="generate instructions for a corpus")
    p.add_argument("--concepts")
    p.add_argument("--relations")
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--embeddings")
    p.add_argument("--max-steps", type=int)
    p.add_argument("--stub", action="store_true", default=None,
                   help="use the offline stub generator")
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--temperature", type=float)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--retries", type=int)
    p.add_argument("--auth-env")
    p.add_argument("--max-paths", type=int)
    p.add_argument("--prompt-template")

    p = sub.add_parser("eval", help="score generated vs reference instructions")
    p.add_argument("--concepts")
    p.add_argument("--relations")
    p.add_argument("--generated")
    p.add_argument("--corpus")
    p.add_argument("--out-dir")
    return parser


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read config: {exc}", path=path) from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON config: {exc}", path=path) from exc
    if not isinstance(cfg, dict):
        raise DataFormatError("config must be a JSON object", path=path)
    return cfg


class _Options:
    """Flag > config["cmd.key"] > default."""

    def __init__(self, args: argparse.Namespace, config: dict, command: str):
        self._args = vars(args)
        self._config = config
        self._command = command
        self._defaults = DEFAULTS[command]

    def get(self, name, default=None):
        flag = self._args.get(name)
        if flag is not None:
            return flag
        key = f"{self._command}.{name}"
        if key in self._config:
            return self._config[key]
        if name in self._defaults:
            return self._defaults[name]
        return default

    def require(self, name):
        value = self.get(name)
        if value is None:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"missing required option {flag}")
        return value


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _load_generated(path) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read file: {exc}", path=path) from exc
    records = []
    for no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"invalid JSON: {exc}", path=path, line=no) from exc
        if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
            raise DataFormatError("expected an object with an 'id'", path=path, line=no)
        records.append(obj)
    if not records:
        raise DataFormatError("no generated records", path=path)
    return records


def _table_for_checkpoint(opts: _Options, kg, params):
    emb = opts.get("embeddings")
    if not emb:
        return pseudo_embeddings(kg, params.d, params.seed)
    table = load_embeddings(emb, kg)
    if table.dim != params.d:
        raise DataFormatError(
            f"embedding dimension {table.dim} does not match the checkpoint's "
            f"dimension {params.d}",
            path=emb,
        )
    return table


def cmd_synth(args, opts: _Options) -> int:
    out_dir = Path(opts.require("out_dir"))
    spec = SynthSpec(
        groups=int(opts.get("groups")),
        concepts_per_group=int(opts.get("concepts_per_group")),
        p_intra=float(opts.get("p_intra")),
        p_cross=float(opts.get("p_cross")),
        patients=int(opts.get("patients")),
        keywords_per_patient=int(opts.get("keywords_per_patient")),
        gt_per_patient=int(opts.get("gt_per_patient")),
        skew=float(opts.get("skew")),
        seed=args.seed,
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    concepts_path, relations_path = gen_kg(spec, out_dir)
    kg = load_kg(concepts_path, relations_path)
    corpus_path = gen_corpus(spec, kg, out_dir / "patients.jsonl")
    print(
        f"wrote {concepts_path} ({len(kg.concepts)} concepts), "
        f"{relations_path} ({len(kg.edges)} edges), "
        f"{corpus_path} ({spec.patients} patients)"
    )
    return 0


def cmd_validate(args, opts: _Options) -> int:
    kg = load_kg(opts.require("concepts"), opts.require("relations"))
    print(f"concepts: {len(kg.concepts)}")
    print(f"edges: {len(kg.edges)}")
    labels = sorted({e.label for e in kg.edges})
    print(f"relation labels: {len(labels)}")
    print(f"groups: {len(kg.groups)}")
    for gid, members in kg.groups.items():
        print(f"  {gid}: {len(members)} concepts")
    emb = opts.get("embeddings")
    if emb:
        table = load_embeddings(emb, kg)
        print(f"embeddings: dim={table.dim}, rows={len(table.ids)}")
    corpus = opts.get("corpus")
    if corpus:
        patients = load_corpus(corpus)
        linkable = sum(1 for p in patients if link_concepts(p.pre_admission, kg))
        with_ref = sum(1 for p in patients if p.reference)
        print(
            f"corpus: {len(patients)} patients, {linkable} linkable, "
            f"{with_ref} with reference"
        )
    return 0


def cmd_train(args, opts: _Options) -> int:
    kg = load_kg(opts.require("concepts"), opts.require("relations"))
    corpus = load_corpus(opts.require("corpus"))
    out_dir = Path(opts.require("out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    emb = opts.get("embeddings")
    if emb:
        table = load_embeddings(emb, kg)
    else:
        table = pseudo_embeddings(kg, int(opts.get("embed_dim")), args.seed)
    cfg = TrainConfig(
        max_steps=int(opts.get("max_steps")),
        gamma=float(opts.get("gamma")),
        reward_weight=float(opts.get("reward_weight")),
        group_size=int(opts.get("group_size")),
        lr=float(opts.get("lr")),
        epochs=int(opts.get("epochs")),
        seed=args.seed,
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = train(corpus, kg, table, cfg)
    ckpt = out_dir / "checkpoint.json"
    save_checkpoint(result.params, ckpt)
    _write_jsonl(out_dir / "train_log.jsonl", result.log)
    rewards = [e["mean_R"] for e in result.log if not e["skipped"]]
    print(
        f"trained {result.episodes} episodes ({result.skipped} skipped); "
        f"final-epoch mean reward "
        f"{np.mean(rewards[-max(1, len(rewards) // max(1, cfg.epochs)):]):.4f}; "
        f"checkpoint: {ckpt}"
    )
    return 0


def _retrieval_setup(args, opts: _Options):
    kg = load_kg(opts.require("concepts"), opts.require("relations"))
    params = load_checkpoint(opts.require("checkpoint"))
    corpus = load_corpus(opts.require("corpus"))
    table = _table_for_checkpoint(opts, kg, params)
    return kg, params, corpus, table, group_vectors(kg, table)


def cmd_retrieve(args, opts: _Options) -> int:
    kg, params, corpus, table, gv = _retrieval_setup(args, opts)
    out = opts.require("out")
    max_steps = int(opts.get("max_steps"))
    sample = bool(opts.get("sample"))
    rng = np.random.default_rng([args.seed, 2]) if sample else None
    only = opts.get("patient")
    if only is not None:
        corpus = [p for p in corpus if p.id == only]
        if not corpus:
            raise DataFormatError(f"patient id {only!r} not found in corpus")
    records = []
    skipped = 0
    for patient in corpus:
        try:
            paths = retrieve_for_patient(
                params, patient, kg, table,
                max_steps=max_steps, greedy=not sample, rng=rng, gv=gv,
            )
        except UnlinkableInputError:
            if only is not None:
                raise
            skipped += 1
            logger.warning("skipping unlinkable patient %s", patient.id)
            continue
        for path in paths:
            records.append({"patient": patient.id} | path.to_dict())
    _write_jsonl(out, records)
    print(f"wrote {len(records)} paths for {len(corpus) - skipped} patients to {out}")
    return 0


def cmd_generate(args, opts: _Options) -> int:
    kg, params, corpus, table, gv = _retrieval_setup(args, opts)
    out = opts.require("out")
    max_steps = int(opts.get("max_steps"))
    stub = bool(opts.get("stub"))
    endpoint = opts.get("endpoint")
    if not stub and not endpoint:
        raise UsageError("choose --stub or provide --endpoint")
    tpl_path = opts.get("prompt_template")
    template = load_template(tpl_path) if tpl_path else DEFAULT_TEMPLATE
    max_paths = opts.get("max_paths")
    gen_cfg = GeneratorConfig(
        endpoint=endpoint or "",
        model=str(opts.get("model")),
        temperature=float(opts.get("temperature")),
        max_tokens=int(opts.get("max_tokens")),
        auth_env=str(opts.get("auth_env")),
        timeout_s=float(opts.get("timeout")),
        max_retries=int(opts.get("retries")),
    )

    prepared = []
    skipped = 0
    for patient in corpus:
        try:
            paths = retrieve_for_patient(
                params, patient, kg, table, max_steps=max_steps, gv=gv
            )
        except UnlinkableInputError:
            skipped += 1
            logger.warning("skipping unlinkable patient %s", patient.id)
            continue
        # the dumped record carries exactly the paths the prompt saw
        paths = select_paths(paths, int(max_paths) if max_paths is not None else None)
        bundle = build_prompt_bundle(patient, paths, kg, template=template)
        prepared.append((patient, paths, bundle))

    if stub:
        texts = [stub_generate(bundle) for _, _, bundle in prepared]
    else:
        def _call(item):
            return generate(gen_cfg, item[2])

        if args.jobs > 1:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                texts = list(pool.map(_call, prepared))
        else:
            texts = [_call(item) for item in prepared]

    records = [
        {
            "id": patient.id,
            "generated": text,
            "paths": [p.to_dict() for p in paths],
        }
        for (patient, paths, _), text in zip(prepared, texts)
    ]
    _write_jsonl(out, records)
    print(f"generated {len(records)} instructions ({skipped} skipped) to {out}")
    return 0


def cmd_eval(args, opts: _Options) -> int:
    kg = load_kg(opts.require("concepts"), opts.require("relations"))
    generated = _load_generated(opts.require("generated"))
    patients = load_corpus(opts.require("corpus"))
    out_dir = Path(opts.require("out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    report = evaluate_corpus(generated, patients, kg)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    with open(out_dir / "per_patient.csv", "w", encoding="utf-8") as fh:
        for row in report.csv_rows():
            fh.write(",".join(row) + "\n")
    for label, ce in (("ngram", report.ce_ngram), ("concept", report.ce_concept)):
        print(
            f"{label:8s} P={ce.precision * 100:.2f}% R={ce.recall * 100:.2f}% "
            f"F1={ce.f1 * 100:.2f}% J={ce.jaccard * 100:.2f}% "
            f"HL={ce.hamming_loss * 100:.2f}% ({ce.rows} rows)"
        )
    n = report.nlg
    print(
        f"nlg      ROUGE-1={n.rouge1 * 100:.2f} ROUGE-2={n.rouge2 * 100:.2f} "
        f"ROUGE-L={n.rougeL * 100:.2f} BLEU-1={n.bleu1 * 100:.2f} "
        f"BLEU-2={n.bleu2 * 100:.2f}"
    )
    print(f"report: {out_dir / 'report.json'}")
    return 0


_HANDLERS = {
    "synth": cmd_synth,
    "validate": cmd_validate,
    "train": cmd_train,
    "retrieve": cmd_retrieve,
    "generate": cmd_generate,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"r2ag: usage error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _load_config(args.config)
        opts = _Options(args, config, args.command)
        return _HANDLERS[args.command](args, opts)
    except UsageError as exc:
        print(f"r2ag: usage error: {exc}", file=sys.stderr)
        return 1
    except EndpointError as exc:
        print(f"r2ag: endpoint error: {exc}", file=sys.stderr)
        return 3
    except R2agError as exc:
        print(f"r2ag: data error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"r2ag: data error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
