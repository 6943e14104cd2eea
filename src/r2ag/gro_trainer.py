"""Reward computation and the group-relative REINFORCE training loop.

Each patient yields a group of G sampled rollouts. A rollout's scalar
reward is the mean over its paths of (ground-truth hits + weight * cosine
between the path average and the ground-truth average). Rewards are
softmax-normalized within the group, and the policy gradient accumulates
log-prob gradients discounted so the final step carries full weight:

    grad = (1/G) * sum_i sum_t gamma^(T-t) * rel_i * dlog pi(a_it | s_it)

Updates are plain gradient ascent after every patient, added into the
weights in place a row block at a time. A patient's G
rollouts advance in lockstep, one batched environment step at a time; at
inference, one rollout per patient of a serving block does the same.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .concept_linker import (
    PatientInput,
    initial_group,
    link_concepts,
    scarce_group,
)
from .embeddings import (
    EmbeddingTable,
    avg_embedding,
    avg_embeddings,
    check_table_rows,
    cosine,
    fingerprint,
    group_vectors,
)
from .errors import MissingReferenceError, NoTrainablePatientsError, UnlinkableInputError
from .kg_store import KnowledgeGraph
from .policy_net import (
    ForwardCache,
    GradientBundle,
    PolicyParams,
    block_ascent,
    block_backward,
    forward,
    init_params,
    sample_action,
)
from .retrieval_env import (
    ReasoningPath,
    RolloutState,
    init_rollout,
    step,
)

logger = logging.getLogger(__name__)


class TrainingDivergedError(FloatingPointError):
    """A training update overflowed or left a weight non-finite."""


# the most retrieval steps (T) and rollouts per patient (G) a run takes: a
# cycling greedy path never freezes, and G x T uniforms are drawn up front,
# so a huge count would hang or exhaust memory. The paper's are single digits.
COUNT_LIMIT = 1000


@dataclass
class TrainConfig:
    max_steps: int = 5  # T: retrieval steps per rollout
    gamma: float = 0.1  # discount on earlier steps
    reward_weight: float = 10.0  # weight of the cosine term in the path reward
    group_size: int = 4  # G: rollouts per patient
    lr: float = 1e-3
    epochs: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if not 0.0 <= self.reward_weight < math.inf:
            raise ValueError("reward_weight must be finite and >= 0")
        if not math.isfinite(self.lr):
            raise ValueError("lr must be finite")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("max_steps", "group_size"):
            if getattr(self, name) > COUNT_LIMIT:
                raise ValueError(f"{name} must be <= {COUNT_LIMIT}")


@dataclass
class GroundTruthConcepts:
    concepts: set[int]  # graph ints
    avg_vec: np.ndarray | None  # None when the set is empty


@dataclass
class RolloutRecord:
    actions: list[int]
    blocks: list[ForwardCache]  # each step's forward block, shared by the call's records
    row: int  # this rollout's row in every block
    paths: list[ReasoningPath]
    state: RolloutState

    @property
    def caches(self) -> list[ForwardCache]:
        """This rollout's one-state cache of each step, as row views."""
        return [block.row(self.row) for block in self.blocks]


@dataclass
class PatientContext:
    """Per-patient quantities shared by all rollouts, in graph ints."""

    keywords: list[int]  # linked keyword concepts, in match order
    k_init: int
    k_scarce: int
    sq_avg: np.ndarray


@dataclass
class PatientUpdate:
    grad: GradientBundle | None  # None when the update went into the weights
    rewards: list[float]
    relative: list[float]
    records: list[RolloutRecord]


@dataclass
class TrainResult:
    params: PolicyParams
    log: list[dict]
    episodes: int
    skipped: int


def build_ground_truth(
    reference: str, kg: KnowledgeGraph, table: EmbeddingTable
) -> GroundTruthConcepts:
    concepts = set(link_concepts(reference, kg))
    if not concepts:
        logger.warning("reference text linked to no concepts; rewards will be 0")
        return GroundTruthConcepts(set(), None)
    return GroundTruthConcepts(concepts, avg_embedding(table, concepts))


def patient_context(patient_text: str, kg: KnowledgeGraph, table: EmbeddingTable) -> PatientContext:
    check_table_rows(kg, table)
    keywords = link_concepts(patient_text, kg)
    if not keywords:
        raise UnlinkableInputError("no keyword concepts linked from input text")
    return PatientContext(
        keywords=keywords,
        k_init=initial_group(keywords, kg),
        k_scarce=scarce_group(keywords, kg),
        sq_avg=avg_embedding(table, keywords),
    )


def link_patient(
    patient: PatientInput, kg: KnowledgeGraph, table: EmbeddingTable
) -> tuple[PatientContext, GroundTruthConcepts]:
    """Link a training patient's input and reference text, once per
    ``train()``. Raises ``MissingReferenceError`` or
    ``UnlinkableInputError`` for a patient training must skip."""
    if patient.reference is None:
        raise MissingReferenceError(f"patient {patient.id!r} has no reference text")
    ctx = patient_context(patient.pre_admission, kg, table)
    return ctx, build_ground_truth(patient.reference, kg, table)


def run_rollouts(
    params: PolicyParams,
    ctxs: list[PatientContext],
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    gv: np.ndarray,
    max_steps: int,
    select,
    group_size: int = 1,
    keep_caches: bool = True,
) -> list[RolloutRecord]:
    """Drive ``group_size`` rollouts of each patient context in ``ctxs``,
    all in lockstep; rollout ``i`` is of ``ctxs[i // group_size]``.

    A training group is one context with G rollouts; a serving block is one
    rollout for each of its patients. ``select(i, t, dist) -> action index``
    picks rollout ``i``'s group at step ``t``. Each step gathers every
    rollout's group state [current || scarce group vector] and
    explored-concept average, runs one ``forward`` over the block, then one
    ``step`` over every rollout. ``gv`` is ``group_vectors(kg, table)``;
    action ``a`` is group int ``a``. The records share one list of the
    steps' forward blocks, and rollout ``i`` is row ``i`` of each; without
    ``keep_caches`` the list stays empty, as only the gradient reads it.
    """
    states = [
        init_rollout(ctx.keywords, kg, ctx.k_init, ctx.k_scarce, max_steps)
        for ctx in ctxs
        for _ in range(group_size)
    ]
    sq_avgs = [ctx.sq_avg for ctx in ctxs for _ in range(group_size)]
    blocks: list[ForwardCache] = []
    records = [RolloutRecord([], blocks, i, rs.paths, rs) for i, rs in enumerate(states)]
    # Group a's action row is [0 || gv[a]]. A current-group half
    # gv[current] would add the same gv[current] . z[:2d] to every logit of
    # a row, which the softmax cancels; without it, one matrix serves every
    # rollout at every step.
    n, width = gv.shape
    actions = np.zeros((n, 2 * width))
    actions[:, width:] = gv
    scarce = gv[[rs.scarce_group for rs in states]]
    for t in range(max_steps):
        s_k = np.concatenate([gv[[rs.current_group for rs in states]], scarce], axis=1)
        c_avgs = avg_embeddings(table, [rs.explored for rs in states])
        block = forward(params, s_k, c_avgs, actions)
        if keep_caches:
            blocks.append(block)
        picks = [select(i, t, dist) for i, dist in enumerate(block.dist)]
        for rec, a in zip(records, picks):
            rec.actions.append(a)
        step(states, picks, kg, table, sq_avgs)
    return records


def run_rollout(
    params: PolicyParams,
    ctx: PatientContext,
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    gv: np.ndarray,
    max_steps: int,
    select,
) -> RolloutRecord:
    """One rollout, ``select(dist) -> action index`` picking each group: the
    one-rollout case of ``run_rollouts``."""
    return run_rollouts(
        params, [ctx], kg, table, gv, max_steps, lambda i, t, dist: select(dist)
    )[0]


def path_rewards(
    paths: list[ReasoningPath],
    gt: GroundTruthConcepts,
    table: EmbeddingTable,
    reward_weight: float,
) -> list[float]:
    """Per path: hits over its distinct concepts + weight * cosine(path avg,
    gt avg). The path averages come from one batched gather and go to one
    block ``cosine`` call."""
    if not all(p.concepts for p in paths):
        raise ValueError("path has no concepts")
    if not gt.concepts:
        return [0.0] * len(paths)
    pavgs = avg_embeddings(table, [p.concepts for p in paths])
    return [
        sum(1 for c in p.concepts if c in gt.concepts) + reward_weight * cos
        for p, cos in zip(paths, cosine(pavgs, gt.avg_vec))
    ]


def rollout_rewards(
    records: list[RolloutRecord],
    gt: GroundTruthConcepts,
    table: EmbeddingTable,
    reward_weight: float,
) -> list[float]:
    """Each rollout's mean path reward, from one ``path_rewards`` pass over all."""
    if not all(rec.paths for rec in records):
        raise ValueError("rollout has no paths")
    scores = iter(path_rewards([p for rec in records for p in rec.paths], gt, table, reward_weight))
    return [sum(islice(scores, len(rec.paths))) / len(rec.paths) for rec in records]


def rollout_reward(
    rec: RolloutRecord,
    gt: GroundTruthConcepts,
    table: EmbeddingTable,
    reward_weight: float,
) -> float:
    """Mean path reward over the rollout's paths: ``rollout_rewards`` of one."""
    return rollout_rewards([rec], gt, table, reward_weight)[0]


def relative_rewards(rewards) -> np.ndarray:
    """Softmax-normalize a group of rollout rewards (max-subtracted)."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("need a 1-D vector of at least 2 rewards")
    if not np.all(np.isfinite(r)):
        raise ValueError("rewards must be finite")
    e = np.exp(r - r.max())
    return e / e.sum()


def train_patient(
    params: PolicyParams,
    ctx: PatientContext,
    gt: GroundTruthConcepts,
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    cfg: TrainConfig,
    rng: np.random.Generator,
    gv: np.ndarray,
    lr: float | None = None,
) -> PatientUpdate:
    """Sample G rollouts for one linked patient (see ``link_patient``) and
    accumulate the policy gradient; with ``lr``, add ``lr`` times it into
    the weights in place instead (see ``accumulate_gradient``).

    The G x T uniforms come as one block: the same values, and the same
    generator state after, as G x T single draws taken rollout by rollout.
    """
    u = rng.random((cfg.group_size, cfg.max_steps))
    records = run_rollouts(
        params, [ctx], kg, table, gv, cfg.max_steps,
        lambda i, t, dist: sample_action(dist, u[i, t]), cfg.group_size,
    )
    rewards = rollout_rewards(records, gt, table, cfg.reward_weight)
    relative = relative_rewards(rewards)
    grad = accumulate_gradient(params, records, relative, cfg.gamma, lr)
    return PatientUpdate(
        grad=grad,
        rewards=rewards,
        relative=[float(x) for x in relative],
        records=records,
    )


def accumulate_gradient(
    params: PolicyParams,
    records: list[RolloutRecord],
    relative: np.ndarray,
    gamma: float,
    lr: float | None = None,
) -> GradientBundle | None:
    """(1/G) sum_i sum_t gamma^(T-t) rel_i dlog pi; final step weight is 1.

    Steps are indexed 1..T, so the weight of step index j (0-based) is
    gamma^(T-1-j); with gamma = 0 only the final step contributes (0^0 = 1).
    Steps of weight exactly 0 are dropped. Records are grouped by the block
    list they share (one per ``run_rollouts`` call), each group's rows taken
    from its blocks at once, and all go to one ``block_backward`` call. With
    ``lr`` they go to one ``block_ascent`` call instead, which adds ``lr``
    times the gradient into the weights, and None is returned.
    """
    scale = 1.0 / len(records)
    parts: dict[int, tuple[list, list, list, list]] = {}  # by id of a block list
    for rec, rel in zip(records, relative):
        blocks, rows, actions, weights = parts.setdefault(id(rec.blocks), (rec.blocks, [], [], []))
        T, R = len(rec.actions), len(blocks[0].x)
        for j, a in enumerate(rec.actions):
            weight = (gamma ** (T - 1 - j)) * float(rel)
            if weight == 0.0:
                continue
            rows.append(j * R + rec.row)
            actions.append(a)
            weights.append(weight * scale)
    if lr is None:
        return block_backward(params, list(parts.values()))
    block_ascent(params, list(parts.values()), lr)
    return None


def train(
    corpus: list[PatientInput],
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    cfg: TrainConfig,
) -> TrainResult:
    """Run the full loop: per-patient updates, per-episode JSON-able log. The
    first update that overflows, or an epoch that leaves a weight
    non-finite, raises ``TrainingDivergedError``."""
    cfg.validate()
    if not corpus:
        raise NoTrainablePatientsError("corpus is empty")
    params = init_params(table.dim, cfg.seed)
    params.embeddings = fingerprint(table)
    rng = np.random.default_rng([cfg.seed, 1])
    gv = group_vectors(kg, table)
    weights = (params.W1, params.W2, params.M)  # updated in place, never rebound

    linked: list[tuple] = []  # (patient, (ctx, gt) or the reason to skip it)
    for patient in corpus:
        try:
            linked.append((patient, link_patient(patient, kg, table)))
        except (UnlinkableInputError, MissingReferenceError) as exc:
            linked.append((patient, exc))

    log: list[dict] = []
    episodes = 0
    skipped = 0
    for epoch in range(cfg.epochs):
        epoch_rewards: list[float] = []
        for patient, inputs in linked:
            if isinstance(inputs, Exception):
                skipped += 1
                logger.warning("skipping patient %s: %s", patient.id, inputs)
                log.append(
                    {"epoch": epoch, "patient": patient.id, "mean_R": None,
                     "relative_rewards": None, "skipped": True}
                )
                continue
            try:
                with np.errstate(over="raise", invalid="raise"):
                    # each gradient goes into the weights a row block at a time
                    upd = train_patient(params, *inputs, kg, table, cfg, rng, gv, cfg.lr)
            except FloatingPointError as exc:
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch}, patient {patient.id!r} ({exc})"
                ) from exc
            mean_r = float(np.mean(upd.rewards))
            epoch_rewards.append(mean_r)
            episodes += 1
            log.append(
                {"epoch": epoch, "patient": patient.id, "mean_R": mean_r,
                 "relative_rewards": upd.relative, "skipped": False}
            )
        # a NaN or inf that raised nothing, such as one from a BLAS worker
        # thread; min and max carry any NaN or inf, with no full-size mask
        if not all(math.isfinite(v) for m in weights for v in (m.min(), m.max())):
            raise TrainingDivergedError(f"training diverged in epoch {epoch} (non-finite weights)")
        if epoch_rewards:
            logger.info(
                "epoch %d: mean rollout reward %.4f over %d episodes",
                epoch, float(np.mean(epoch_rewards)), len(epoch_rewards),
            )
    if episodes == 0:
        raise NoTrainablePatientsError("all patients were skipped")
    logger.info("training done: %d episodes, %d skipped", episodes, skipped)
    return TrainResult(params, log, episodes, skipped)
