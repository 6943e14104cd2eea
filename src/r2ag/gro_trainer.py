"""Reward computation and the group-relative REINFORCE training loop.

Each patient yields a group of G sampled rollouts. A rollout's scalar
reward is the mean over its paths of (ground-truth hits + weight * cosine
between the path average and the ground-truth average). Rewards are
softmax-normalized within the group, and the policy gradient accumulates
log-prob gradients discounted so the final step carries full weight:

    grad = (1/G) * sum_i sum_t gamma^(T-t) * rel_i * dlog pi(a_it | s_it)

Updates are plain gradient ascent after every patient.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .concept_linker import (
    KeywordSet,
    PatientInput,
    initial_group,
    link_concepts,
    scarce_group,
)
from .embeddings import EmbeddingTable, GroupVectorIndex, avg_embedding, cosine, group_vectors
from .errors import MissingReferenceError, NoTrainablePatientsError, UnlinkableInputError
from .kg_store import KnowledgeGraph
from .policy_net import (
    ForwardCache,
    GradientBundle,
    PolicyParams,
    forward,
    init_params,
    logprob_backward,
    sample_action,
)
from .retrieval_env import (
    ReasoningPath,
    RolloutState,
    action_space,
    group_state,
    init_rollout,
    raw_concept_avg,
    step,
)

logger = logging.getLogger(__name__)


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
        if self.reward_weight < 0.0:
            raise ValueError("reward_weight must be >= 0")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class GroundTruthConcepts:
    concepts: set[str]
    avg_vec: np.ndarray | None  # None when the set is empty


@dataclass
class RolloutRecord:
    actions: list[int]
    caches: list[ForwardCache]
    paths: list[ReasoningPath]
    state: RolloutState
    reward: float = 0.0
    relative: float = 0.0


@dataclass
class PatientContext:
    """Per-patient quantities shared by all rollouts."""

    keyword_set: KeywordSet
    k_init: str
    k_scarce: str
    sq_avg: np.ndarray


@dataclass
class PatientUpdate:
    grad: GradientBundle
    rewards: list[float]
    relative: list[float]
    records: list[RolloutRecord] = field(default_factory=list)


@dataclass
class TrainResult:
    params: PolicyParams
    log: list[dict]
    episodes: int
    skipped: int


def build_ground_truth(
    reference: str, kg: KnowledgeGraph, table: EmbeddingTable
) -> GroundTruthConcepts:
    ks = link_concepts(reference, kg)
    ids = set(ks.concept_ids())
    if not ids:
        logger.warning("reference text linked to no concepts; rewards will be 0")
        return GroundTruthConcepts(set(), None)
    return GroundTruthConcepts(ids, avg_embedding(table, ids))


def patient_context(patient_text: str, kg: KnowledgeGraph, table: EmbeddingTable) -> PatientContext:
    # the env indexes table rows with graph ints (see EmbeddingTable)
    if table.ids[: len(kg.ids)] != kg.ids:
        raise ValueError("embedding table rows do not follow the graph's concept order")
    ks = link_concepts(patient_text, kg)
    if not ks:
        raise UnlinkableInputError("no keyword concepts linked from input text")
    return PatientContext(
        keyword_set=ks,
        k_init=initial_group(ks),
        k_scarce=scarce_group(ks, kg),
        sq_avg=avg_embedding(table, ks.concept_ids()),
    )


def run_rollout(
    params: PolicyParams,
    ctx: PatientContext,
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    gv: GroupVectorIndex,
    max_steps: int,
    select,
) -> RolloutRecord:
    """Drive one rollout; ``select(dist) -> action index`` picks each group."""
    rs = init_rollout(ctx.keyword_set, kg, ctx.k_init, ctx.k_scarce, max_steps)
    actions: list[int] = []
    caches: list[ForwardCache] = []
    for _ in range(max_steps):
        space = action_space(rs, gv)
        cache = forward(params, group_state(rs, gv), raw_concept_avg(rs, table), space.matrix)
        a = select(cache.dist)
        step(rs, space.groups[a], kg, table, ctx.sq_avg)
        actions.append(a)
        caches.append(cache)
    return RolloutRecord(actions, caches, rs.paths, rs)


def path_reward(
    path: ReasoningPath,
    gt: GroundTruthConcepts,
    table: EmbeddingTable,
    reward_weight: float,
) -> float:
    """Hits over distinct path concepts + weight * cosine(path avg, gt avg)."""
    distinct = path.distinct_concepts()
    if not distinct:
        raise ValueError("path has no concepts")
    if not gt.concepts:
        return 0.0
    hits = sum(1 for cid in distinct if cid in gt.concepts)
    return hits + reward_weight * cosine(avg_embedding(table, distinct), gt.avg_vec)


def rollout_reward(
    rec: RolloutRecord,
    gt: GroundTruthConcepts,
    table: EmbeddingTable,
    reward_weight: float,
) -> float:
    """Mean path reward over the rollout's paths."""
    if not rec.paths:
        raise ValueError("rollout has no paths")
    total = sum(path_reward(p, gt, table, reward_weight) for p in rec.paths)
    return total / len(rec.paths)


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
    patient: PatientInput,
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    cfg: TrainConfig,
    rng: np.random.Generator,
    gv: GroupVectorIndex | None = None,
    keep_records: bool = False,
) -> PatientUpdate:
    """Sample G rollouts for one patient and accumulate the policy gradient."""
    if patient.reference is None:
        raise MissingReferenceError(f"patient {patient.id!r} has no reference text")
    ctx = patient_context(patient.pre_admission, kg, table)
    gt = build_ground_truth(patient.reference, kg, table)
    if gv is None:
        gv = group_vectors(kg, table)

    records = [
        run_rollout(
            params, ctx, kg, table, gv, cfg.max_steps,
            lambda dist: sample_action(dist, rng),
        )
        for _ in range(cfg.group_size)
    ]
    rewards = [rollout_reward(rec, gt, table, cfg.reward_weight) for rec in records]
    relative = relative_rewards(rewards)
    for rec, r, rel in zip(records, rewards, relative):
        rec.reward = r
        rec.relative = float(rel)

    grad = accumulate_gradient(params, records, relative, cfg.gamma)
    return PatientUpdate(
        grad=grad,
        rewards=rewards,
        relative=[float(x) for x in relative],
        records=records if keep_records else [],
    )


def accumulate_gradient(
    params: PolicyParams,
    records: list[RolloutRecord],
    relative: np.ndarray,
    gamma: float,
) -> GradientBundle:
    """(1/G) sum_i sum_t gamma^(T-t) rel_i dlog pi; final step weight is 1.

    Steps are indexed 1..T, so the weight of step index j (0-based) is
    gamma^(T-1-j); with gamma = 0 only the final step contributes (0^0 = 1).
    """
    grad = GradientBundle.zeros(params)
    n = len(records)
    for rec, rel in zip(records, relative):
        T = len(rec.actions)
        for j, (cache, a) in enumerate(zip(rec.caches, rec.actions)):
            weight = (gamma ** (T - 1 - j)) * float(rel)
            if weight == 0.0:
                continue
            grad.add_scaled(logprob_backward(params, cache, a), weight)
    grad.scale(1.0 / n)
    return grad


def train(
    corpus: list[PatientInput],
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    cfg: TrainConfig,
) -> TrainResult:
    """Run the full loop: per-patient updates, per-episode JSON-able log."""
    cfg.validate()
    if not corpus:
        raise NoTrainablePatientsError("corpus is empty")
    params = init_params(table.dim, cfg.seed)
    rng = np.random.default_rng([cfg.seed, 1])
    gv = group_vectors(kg, table)

    log: list[dict] = []
    episodes = 0
    skipped = 0
    for epoch in range(cfg.epochs):
        epoch_rewards: list[float] = []
        for patient in corpus:
            try:
                upd = train_patient(params, patient, kg, table, cfg, rng, gv)
            except (UnlinkableInputError, MissingReferenceError) as exc:
                skipped += 1
                logger.warning("skipping patient %s: %s", patient.id, exc)
                log.append(
                    {"epoch": epoch, "patient": patient.id, "mean_R": None,
                     "relative_rewards": None, "skipped": True}
                )
                continue
            params.W1 += cfg.lr * upd.grad.dW1
            params.W2 += cfg.lr * upd.grad.dW2
            params.M += cfg.lr * upd.grad.dM
            mean_r = float(np.mean(upd.rewards))
            epoch_rewards.append(mean_r)
            episodes += 1
            log.append(
                {"epoch": epoch, "patient": patient.id, "mean_R": mean_r,
                 "relative_rewards": upd.relative, "skipped": False}
            )
        if epoch_rewards:
            logger.info(
                "epoch %d: mean rollout reward %.4f over %d episodes",
                epoch, float(np.mean(epoch_rewards)), len(epoch_rewards),
            )
    if episodes == 0:
        raise NoTrainablePatientsError("all patients were skipped")
    logger.info("training done: %d episodes, %d skipped", episodes, skipped)
    return TrainResult(params, log, episodes, skipped)
