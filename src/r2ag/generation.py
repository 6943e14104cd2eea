"""Prompt assembly and the pluggable text-generation endpoint.

Reasoning paths render one per line as
``name [Group] --relation--> name [Group] --group leap--> ...``; the block
goes into a chat-completion request together with the patient text. A
deterministic stub generator echoes every path concept name plus the first
sentence of the input, which keeps the end-to-end loop testable offline.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

import numpy as np

from .concept_linker import PatientInput
from .embeddings import EmbeddingTable
from .errors import (
    DataFormatError,
    EndpointNetworkError,
    EndpointResponseError,
    EndpointStatusError,
    EndpointTimeoutError,
    UnlinkableInputError,
    parse_json,
    read_text,
)
from .gro_trainer import PatientContext, patient_context, run_rollouts
from .kg_store import KnowledgeGraph
from .policy_net import PolicyParams, greedy_action, sample_action
from .retrieval_env import ReasoningPath

PROMPT_TEMPLATE_VERSION = "v1"

DEFAULT_TEMPLATE = {
    "version": PROMPT_TEMPLATE_VERSION,
    "system": (
        "You are a clinical assistant. Using the patient's pre-admission "
        "information and the reasoning paths from a medical knowledge graph, "
        "write the patient's discharge instruction."
    ),
    "instruction": (
        "Write the discharge instruction now as one plain-text paragraph."
    ),
}

_RETRY_BACKOFF_S = 0.05

# the budget that sizes retrieve_corpus's lockstep blocks. A block is
# estimated at (patients) x (largest explored set) x d floats, a patient's
# explored set holding at most 1 + 2T concepts per initial path (each step
# adds a leap and a neighbour to each path). A block closes before that
# estimate would pass this budget; a patient whose own estimate passes it
# runs alone, as a one-patient rollout. The gathers themselves run in
# chunks of embeddings.GATHER_ROWS rows, so what this bounds is the number
# of rollouts in a block, and with it the block's policy forward. The
# partition is part of the output: a block's forward rounds differently, in
# the last bits, from one row run alone, which could decide an exact tie.
SERVE_GATHER_BYTES = 32 << 20


@dataclass
class GeneratorConfig:
    endpoint: str = ""
    model: str = "local-model"
    temperature: float = 0.0
    max_tokens: int = 512
    auth_env: str = "R2AG_API_KEY"
    timeout_s: float = 30.0
    max_retries: int = 2

    def validate(self) -> None:
        if self.temperature < 0.0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.timeout_s <= 0.0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass
class PromptBundle:
    system: str
    patient_text: str
    path_block: str  # one rendered line per path; "" when retrieval is off
    instruction: str
    concept_names: tuple[str, ...]  # path concept names, deduped in path order

    def user_message(self) -> str:
        parts = ["Pre-admission information:", self.patient_text.strip(), ""]
        parts.append("Reasoning paths from a medical knowledge graph:")
        parts.append(self.path_block if self.path_block else "(none)")
        parts.extend(["", self.instruction])
        return "\n".join(parts)


def render_paths(paths: list[ReasoningPath], kg: KnowledgeGraph) -> str:
    """One line per path: concept names with [Group] tags joined by arrows."""
    if not paths:
        raise ValueError("no paths to render")
    lines = []
    for path in paths:
        pieces = []
        for i, step in enumerate(path.steps):
            c = step.concept
            seg = f"{kg.names[c]} [{kg.groups[kg.group_at[c]]}]"
            if i == 0:
                pieces.append(seg)
            else:
                pieces.append(f"--{step.label}--> {seg}")
        lines.append(" ".join(pieces))
    return "\n".join(lines)


def select_paths(
    paths: list[ReasoningPath], max_paths: int | None
) -> list[ReasoningPath]:
    """Truncate to ``max_paths`` keeping the smallest origin ints, which are
    the smallest origin ids."""
    use = list(paths)
    if max_paths is not None and len(use) > max_paths:
        use = sorted(use, key=lambda p: p.origin)[:max_paths]
    return use


def build_prompt_bundle(
    patient: PatientInput,
    paths: list[ReasoningPath],
    kg: KnowledgeGraph,
    template: dict | None = None,
) -> PromptBundle:
    """Assemble the prompt from every path in ``paths``."""
    tpl = template or DEFAULT_TEMPLATE
    block = render_paths(paths, kg) if paths else ""
    names = dict.fromkeys(kg.names[st.concept] for path in paths for st in path.steps)
    return PromptBundle(
        system=tpl["system"],
        patient_text=patient.pre_admission,
        path_block=block,
        instruction=tpl["instruction"],
        concept_names=tuple(names),
    )


def load_template(path) -> dict:
    tpl = parse_json(read_text(path), path)
    if not isinstance(tpl, dict):
        raise DataFormatError("expected a JSON object", path=path)
    for key in ("version", "system", "instruction"):
        if not isinstance(tpl.get(key), str):
            raise DataFormatError(f"template missing string field {key!r}", path=path)
    return tpl


def retrieve_corpus(
    params: PolicyParams,
    patients: list[PatientInput],
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    gv: np.ndarray,
    max_steps: int = 5,
    greedy: bool = True,
    rng: np.random.Generator | None = None,
) -> list[list[ReasoningPath] | UnlinkableInputError]:
    """One inference rollout per patient (greedy by default; sampled behind
    a flag): each patient's paths in corpus order, or the
    ``UnlinkableInputError`` of a patient with no linkable keyword.

    ``gv`` is ``group_vectors(kg, table)``, built once per table. Each
    patient is linked once, and consecutive linkable patients run in
    lockstep blocks within ``SERVE_GATHER_BYTES``. A sampled block draws one
    (patients, T) uniform block: the same values, in the same order, as T
    draws per linkable patient in corpus order.
    """
    if not greedy and rng is None:
        raise ValueError("sampled inference needs an rng")
    results: list = []

    def serve(block: list[tuple[int, PatientContext]]) -> None:
        if greedy:
            select = lambda i, t, dist: greedy_action(dist)  # noqa: E731
        else:
            u = rng.random((len(block), max_steps))
            select = lambda i, t, dist: sample_action(dist, u[i, t])  # noqa: E731
        ctxs = [ctx for _, ctx in block]
        records = run_rollouts(params, ctxs, kg, table, gv, max_steps, select, keep_caches=False)
        for (pos, _), rec in zip(block, records):
            results[pos] = rec.paths

    path_bytes = (1 + 2 * max_steps) * table.dim * 8  # one path's explored bound
    block: list[tuple[int, PatientContext]] = []  # (position in results, context)
    widest = 0  # the block's largest explored-set bound, in bytes
    for patient in patients:
        try:
            ctx = patient_context(patient.pre_admission, kg, table)
        except UnlinkableInputError as exc:
            results.append(exc)
            continue
        need = path_bytes * sum(kg.group_at[c] == ctx.k_init for c in ctx.keywords)
        if block and (len(block) + 1) * max(widest, need) > SERVE_GATHER_BYTES:
            serve(block)
            block, widest = [], 0
        block.append((len(results), ctx))
        widest = max(widest, need)
        results.append(None)
    if block:
        serve(block)
    return results


def stub_generate(bundle: PromptBundle) -> str:
    """Offline test double: echo path concept names and the first sentence."""
    first = bundle.patient_text.split(".")[0].strip()
    parts = ["Discharge summary."]
    if first:
        parts.append(f"Admission noted: {first}.")
    if bundle.concept_names:
        parts.append("Hospital course addressed " + ", ".join(bundle.concept_names) + ".")
    return " ".join(parts)


def _is_http_url(url: str) -> bool:
    try:
        parts = urlsplit(url)
        return parts.scheme in ("http", "https") and bool(parts.hostname)
    except ValueError:  # e.g. an unclosed IPv6 bracket
        return False


def generate(cfg: GeneratorConfig, bundle: PromptBundle) -> str:
    """POST a chat-completion request and return the first completion's text.

    Retries network failures, timeouts and 5xx responses with a short
    backoff; 4xx and unparseable bodies fail immediately, and so does an
    endpoint that is not an http(s) URL with a host. The bearer token, if
    any, comes from the environment variable named by ``cfg.auth_env``.
    """
    # the HTTP client loads here, not with the package: only this call uses it
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    cfg.validate()
    if not cfg.endpoint:
        raise ValueError("no endpoint configured (use stub mode for offline runs)")
    if not _is_http_url(cfg.endpoint):
        raise EndpointNetworkError(f"endpoint {cfg.endpoint!r} is not an http(s) URL with a host")
    payload = {
        "model": cfg.model,
        "messages": [
            {"role": "system", "content": bundle.system},
            {"role": "user", "content": bundle.user_message()},
        ],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
    }
    data = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(cfg.auth_env)
    if token:
        headers["Authorization"] = f"Bearer {token}"

    last_error = None
    for attempts in range(1, cfg.max_retries + 2):
        if attempts > 1:
            time.sleep(_RETRY_BACKOFF_S * (attempts - 1))
        try:
            with urlopen(Request(cfg.endpoint, data, headers), timeout=cfg.timeout_s) as resp:
                raw = resp.read()
        except HTTPError as exc:  # a non-2xx status
            exc.close()
            last_error = EndpointStatusError(exc.code, attempts=attempts)
            if exc.code >= 500:
                continue
            raise last_error from None
        except (OSError, HTTPException) as exc:
            reason = getattr(exc, "reason", None)  # what a URLError wraps
            if isinstance(exc, TimeoutError) or isinstance(reason, TimeoutError):
                last_error = EndpointTimeoutError(
                    f"no response within {cfg.timeout_s}s from {cfg.endpoint}",
                    attempts=attempts,
                )
            else:
                last_error = EndpointNetworkError(
                    f"request to {cfg.endpoint} failed: {exc}", attempts=attempts
                )
            continue
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise EndpointResponseError(
                f"unparseable completion response: {exc}", attempts=attempts
            ) from exc
        if not isinstance(content, str):
            raise EndpointResponseError("completion content is not a string", attempts=attempts)
        return content
    raise last_error
