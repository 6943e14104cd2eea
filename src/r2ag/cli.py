"""Command-line entry point: synth | validate | train | retrieve | generate | eval.

Exit codes: 0 success, 1 usage error, 2 data error, 3 endpoint error.
Options resolve as flags > config file (flat dotted keys like
``train.lr``) > built-in defaults. All randomness hangs off --seed; output
files carry no timestamps, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .atomic_file import atomic_open
from .concept_linker import link_concepts, load_corpus
from .embeddings import fingerprint, group_vectors, load_embeddings, pseudo_embeddings
from .errors import (
    DataFormatError,
    EndpointError,
    R2agError,
    UnlinkableInputError,
    parse_json,
    read_records,
    read_text,
)
from .evaluation import evaluate_corpus
from .generation import (
    DEFAULT_TEMPLATE,
    GeneratorConfig,
    build_prompt_bundle,
    generate,
    load_template,
    retrieve_corpus,
    select_paths,
    stub_generate,
)
from .gro_trainer import COUNT_LIMIT, TrainConfig, TrainingDivergedError, train
from .kg_store import load_kg
from .policy_net import load_checkpoint, save_checkpoint
from .synthetic_data import SynthSpec, gen_corpus, gen_kg

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting, and records the value type of
    each option a config file may set and the parser of each subcommand."""

    def __init__(self, *args, **kwargs):
        self.option_types: dict[str, type] = {}
        self.commands: dict[str, _Parser] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.dest not in ("help", "config"):
            # a store_true switch has const True and no type; others parse text
            self.option_types[action.dest] = bool if action.const is True else action.type or str
        return action

    def add_subparsers(self, **kwargs):
        sub = super().add_subparsers(**kwargs)
        self.commands = sub.choices
        return sub

    def error(self, message):  # argparse would exit(2); we want exit(1)
        raise UsageError(message)


# dataclass fields whose option has a shorter name
_OPTION_NAME = {"timeout_s": "timeout", "max_retries": "retries"}


def _field_options(cls) -> list[tuple[dataclasses.Field, str]]:
    """Each field of dataclass ``cls`` with its option name; its ``seed``
    comes from --seed instead."""
    return [
        (f, _OPTION_NAME.get(f.name, f.name))
        for f in dataclasses.fields(cls)
        if f.name != "seed"
    ]


def _field_defaults(cls) -> dict:
    """Field defaults of dataclass ``cls`` keyed by option name."""
    return {name: f.default for f, name in _field_options(cls)}


def _add_field_options(p: _Parser, cls) -> None:
    """One option per field of ``cls``, typed like the field's default."""
    for f, name in _field_options(cls):
        p.add_argument("--" + name.replace("_", "-"), type=type(f.default))


def _from_args(cls, args: argparse.Namespace, **extra):
    """``cls`` built from its field options in ``args``; a value its
    ``validate`` refuses is a usage error."""
    built = cls(**{f.name: getattr(args, name) for f, name in _field_options(cls)}, **extra)
    try:
        built.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return built


_TRAIN_DEFAULTS = _field_defaults(TrainConfig)

DEFAULTS: dict[str, dict] = {
    "synth": _field_defaults(SynthSpec),
    "validate": {},
    "train": {**_TRAIN_DEFAULTS, "embed_dim": 32},
    "retrieve": {"max_steps": _TRAIN_DEFAULTS["max_steps"], "sample": False},
    "generate": {
        **_field_defaults(GeneratorConfig),
        "max_steps": _TRAIN_DEFAULTS["max_steps"], "stub": False,
        "max_paths": None, "prompt_template": None,
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
    _add_field_options(p, SynthSpec)

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
    _add_field_options(p, TrainConfig)

    p = sub.add_parser("retrieve", help="dump greedy reasoning paths")
    p.add_argument("--concepts")
    p.add_argument("--relations")
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--embeddings")
    p.add_argument("--max-steps", type=int)
    p.add_argument("--patient", help="retrieve for one patient id only")
    p.add_argument("--sample", action="store_true",
                   help="sample actions instead of greedy selection")

    p = sub.add_parser("generate", help="generate instructions for a corpus")
    p.add_argument("--concepts")
    p.add_argument("--relations")
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--embeddings")
    p.add_argument("--max-steps", type=int)
    p.add_argument("--stub", action="store_true",
                   help="use the offline stub generator")
    _add_field_options(p, GeneratorConfig)
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
    cfg = parse_json(read_text(path), path)
    if not isinstance(cfg, dict):
        raise DataFormatError("config must be a JSON object", path=path)
    return cfg


def _cast_config(key: str, value, typ: type, path):
    """``value`` of config ``key`` as option type ``typ``. A number may also
    come as the text a flag would carry; an int never from a fractional
    float; a switch or a string only from itself."""
    if typ in (bool, str):
        if isinstance(value, typ):
            return value
    elif isinstance(value, (int, float, str)) and not isinstance(value, bool):
        if not (typ is int and isinstance(value, float) and not value.is_integer()):
            try:
                return typ(value)
            except ValueError:
                pass
    raise DataFormatError(
        f"config key {key!r} has value {value!r}, expected {typ.__name__}", path=path
    )


def require(args: argparse.Namespace, name: str):
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"missing required option --{name.replace('_', '-')}")
    return value


def _write_jsonl(path, records) -> None:
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _load_generated(path) -> list[dict]:
    return [obj for _, obj in read_records(path)]


def _table_for_checkpoint(args, kg, params):
    """The embedding table the checkpoint's weights were trained on: the
    ``--embeddings`` file, else the pseudo table from the checkpoint's d and
    seed. Its fingerprint must match the checkpoint's, so a checkpoint that
    names no table is refused."""
    if params.embeddings is None:
        raise DataFormatError(
            "the checkpoint names no embedding table (its embeddings fingerprint "
            "is null); serve a checkpoint written by train",
            path=args.checkpoint,
        )
    emb = args.embeddings
    if emb:
        table = load_embeddings(emb, kg)
        if table.dim != params.d:
            raise DataFormatError(
                f"embedding dimension {table.dim} does not match the checkpoint's "
                f"dimension {params.d}",
                path=emb,
            )
        built = f"the table in {emb}"
    else:
        table = pseudo_embeddings(kg, params.d, params.seed)
        built = f"the pseudo-embedding table (d={params.d}, seed={params.seed})"
    found = fingerprint(table)
    if found != params.embeddings:
        raise DataFormatError(
            f"the checkpoint was trained on the embedding table {params.embeddings}, "
            f"but {built} is {found}; pass the graph and --embeddings file "
            "(or none, for pseudo-embeddings) that train used",
            path=args.checkpoint,
        )
    return table


def cmd_synth(args) -> int:
    out_dir = Path(require(args, "out_dir"))
    spec = _from_args(SynthSpec, args, seed=args.seed)
    concepts_path, relations_path = gen_kg(spec, out_dir)
    kg = load_kg(concepts_path, relations_path)
    corpus_path = gen_corpus(spec, kg, out_dir / "patients.jsonl")
    print(
        f"wrote {concepts_path} ({len(kg.ids)} concepts), "
        f"{relations_path} ({len(kg.indices)} edges), "
        f"{corpus_path} ({spec.patients} patients)"
    )
    return 0


def cmd_validate(args) -> int:
    kg = load_kg(require(args, "concepts"), require(args, "relations"))
    print(f"concepts: {len(kg.ids)}")
    print(f"edges: {len(kg.indices)}")
    print(f"relation labels: {len(kg.label_names)}")
    print(f"groups: {len(kg.groups)}")
    for gid, n in zip(kg.groups, np.bincount(kg.group_at, minlength=len(kg.groups))):
        print(f"  {gid}: {n} concepts")
    emb = args.embeddings
    if emb:
        table = load_embeddings(emb, kg)
        print(f"embeddings: dim={table.dim}, rows={len(table.matrix)}")
    corpus = args.corpus
    if corpus:
        patients = load_corpus(corpus)
        linkable = sum(1 for p in patients if link_concepts(p.pre_admission, kg))
        with_ref = sum(1 for p in patients if p.reference)
        print(
            f"corpus: {len(patients)} patients, {linkable} linkable, "
            f"{with_ref} with reference"
        )
    return 0


def cmd_train(args) -> int:
    emb = args.embeddings
    if not emb and args.embed_dim < 2:
        raise UsageError("embed_dim must be >= 2")
    kg = load_kg(require(args, "concepts"), require(args, "relations"))
    corpus = load_corpus(require(args, "corpus"))
    out_dir = Path(require(args, "out_dir"))
    if emb:
        table = load_embeddings(emb, kg)
    else:
        table = pseudo_embeddings(kg, args.embed_dim, args.seed)
    cfg = _from_args(TrainConfig, args, seed=args.seed)
    # a refused command leaves no out dir; one that cannot be made fails
    # before training starts, and a failed run removes the dirs it made
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.json"
    try:
        result = train(corpus, kg, table, cfg)
        save_checkpoint(result.params, ckpt)
        _write_jsonl(out_dir / "train_log.jsonl", result.log)
    except BaseException as exc:
        for d in made:  # deepest first; a dir that holds anything stays
            try:
                d.rmdir()
            except OSError:
                break
        if isinstance(exc, TrainingDivergedError):
            raise UsageError(
                f"{exc}; try a lower --lr than {cfg.lr:g} (no checkpoint written)"
            ) from exc
        raise
    rewards = [e["mean_R"] for e in result.log if not e["skipped"]]
    print(
        f"trained {result.episodes} episodes ({result.skipped} skipped); "
        f"final-epoch mean reward "
        f"{np.mean(rewards[-max(1, len(rewards) // max(1, cfg.epochs)):]):.4f}; "
        f"checkpoint: {ckpt}"
    )
    return 0


def _retrieval_setup(args):
    if args.max_steps < 1:
        raise UsageError("max_steps must be >= 1")
    if args.max_steps > COUNT_LIMIT:
        raise UsageError(f"max_steps must be <= {COUNT_LIMIT}")
    kg = load_kg(require(args, "concepts"), require(args, "relations"))
    params = load_checkpoint(require(args, "checkpoint"))
    corpus = load_corpus(require(args, "corpus"))
    table = _table_for_checkpoint(args, kg, params)
    return kg, params, corpus, table, group_vectors(kg, table)


def cmd_retrieve(args) -> int:
    kg, params, corpus, table, gv = _retrieval_setup(args)
    out = require(args, "out")
    rng = np.random.default_rng([args.seed, 2]) if args.sample else None
    only = args.patient
    if only is not None:
        corpus = [p for p in corpus if p.id == only]
        if not corpus:
            raise DataFormatError(f"patient id {only!r} not found in corpus")
    results = retrieve_corpus(
        params, corpus, kg, table, gv,
        max_steps=args.max_steps, greedy=not args.sample, rng=rng,
    )
    records = []
    skipped = 0
    for patient, paths in zip(corpus, results):
        if isinstance(paths, UnlinkableInputError):
            if only is not None:
                raise paths
            skipped += 1
            logger.warning("skipping unlinkable patient %s", patient.id)
            continue
        for path in paths:
            records.append({"patient": patient.id} | path.to_dict(kg))
    _write_jsonl(out, records)
    print(f"wrote {len(records)} paths for {len(corpus) - skipped} patients to {out}")
    return 0


def cmd_generate(args) -> int:
    out = require(args, "out")
    if not args.stub and not args.endpoint:
        raise UsageError("choose --stub or provide --endpoint")
    max_paths = args.max_paths
    if max_paths is not None and max_paths < 0:
        raise UsageError("max_paths must be >= 0")
    tpl_path = args.prompt_template
    template = load_template(tpl_path) if tpl_path else DEFAULT_TEMPLATE
    gen_cfg = _from_args(GeneratorConfig, args)
    kg, params, corpus, table, gv = _retrieval_setup(args)

    results = retrieve_corpus(params, corpus, kg, table, gv, max_steps=args.max_steps)
    prepared = []
    skipped = 0
    for patient, paths in zip(corpus, results):
        if isinstance(paths, UnlinkableInputError):
            skipped += 1
            logger.warning("skipping unlinkable patient %s", patient.id)
            continue
        # the dumped record carries exactly the paths the prompt saw
        paths = select_paths(paths, max_paths)
        bundle = build_prompt_bundle(patient, paths, kg, template=template)
        prepared.append((patient, paths, bundle))

    if args.stub:
        texts = [stub_generate(bundle) for _, _, bundle in prepared]
    else:
        def _call(item):
            return generate(gen_cfg, item[2])

        if args.jobs > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                texts = list(pool.map(_call, prepared))
        else:
            texts = [_call(item) for item in prepared]

    records = [
        {
            "id": patient.id,
            "generated": text,
            "paths": [p.to_dict(kg) for p in paths],
        }
        for (patient, paths, _), text in zip(prepared, texts)
    ]
    _write_jsonl(out, records)
    print(f"generated {len(records)} instructions ({skipped} skipped) to {out}")
    return 0


def cmd_eval(args) -> int:
    kg = load_kg(require(args, "concepts"), require(args, "relations"))
    generated = _load_generated(require(args, "generated"))
    patients = load_corpus(require(args, "corpus"))
    out_dir = Path(require(args, "out_dir"))
    report = evaluate_corpus(generated, patients, kg)
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_open(out_dir / "report.json") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    with atomic_open(out_dir / "per_patient.csv") as fh:
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


def _apply_config(parser: _Parser, command: str, path) -> None:
    """Config values, cast to their option's type, as defaults of ``parser``
    (undotted keys) and of subcommand ``command`` (``command.key``). Other
    commands' keys are allowed and unused, so one config can drive every
    stage; a null value leaves the option unset."""
    defaults = {parser: {}, parser.commands[command]: dict(DEFAULTS[command])}
    for key, value in _load_config(path).items():
        cmd, dot, name = key.rpartition(".")
        target = parser.commands.get(cmd) if dot else parser
        if target is None or name not in target.option_types:
            raise DataFormatError(f"config key {key!r} names no option", path=path)
        if target in defaults and value is not None:
            defaults[target][name] = _cast_config(key, value, target.option_types[name], path)
    for target, values in defaults.items():
        target.set_defaults(**values)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"r2ag: usage error: {exc}", file=sys.stderr)
        return 1
    try:
        # flag > config > default: a second parse over the config's defaults
        _apply_config(parser, args.command, args.config)
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if args.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        return _HANDLERS[args.command](args)
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
