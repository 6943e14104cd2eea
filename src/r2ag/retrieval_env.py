"""Rollout environment: reasoning paths grown by group leaps and retrieval.

A rollout owns one group trajectory shared by all paths. Each step the
controller picks a next group; if it differs from the current one, every
live path first leaps to a connection concept in that group (chosen by
cosine similarity to the path average), then extends by one within-group
neighbor scored against both the keyword average and the path average.
Paths with no within-group neighbors freeze for the rest of the episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .concept_linker import KeywordSet
from .embeddings import EmbeddingTable, avg_embedding, cosines
from .kg_store import KnowledgeGraph

GROUP_LEAP = "group leap"


@dataclass(frozen=True)
class PathStep:
    """One path element: incoming edge label (None at the origin) + concept."""

    label: str | None
    concept: str


@dataclass
class ReasoningPath:
    origin: str
    steps: list[PathStep]

    def tail(self) -> str:
        return self.steps[-1].concept

    def distinct_concepts(self) -> list[str]:
        seen: set[str] = set()
        out: list[str] = []
        for step in self.steps:
            if step.concept not in seen:
                seen.add(step.concept)
                out.append(step.concept)
        return out

    def to_dict(self) -> dict:
        return {
            "origin": self.origin,
            "steps": [{"label": s.label, "concept": s.concept} for s in self.steps[1:]],
        }


@dataclass
class RolloutState:
    t: int
    max_steps: int
    init_group: str
    scarce_group: str
    current_group: str
    prev_group: str
    keywords: list[str]  # every linked keyword concept, in match order
    explored: set[str]
    paths: list[ReasoningPath]
    frozen: list[bool] = field(default_factory=list)


def init_rollout(
    ks: KeywordSet,
    kg: KnowledgeGraph,
    k_init: str,
    k_scarce: str,
    max_steps: int,
) -> RolloutState:
    """Seed one path per keyword whose concept lies in the initial group."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    keywords = ks.concept_ids()
    origins = [cid for cid in keywords if kg.group_of(cid) == k_init]
    if not origins:
        raise ValueError(f"no keyword concept lies in initial group {k_init!r}")
    paths = [ReasoningPath(cid, [PathStep(None, cid)]) for cid in origins]
    return RolloutState(
        t=0,
        max_steps=max_steps,
        init_group=k_init,
        scarce_group=k_scarce,
        current_group=k_init,
        prev_group=k_init,
        keywords=list(keywords),
        explored=set(origins),
        paths=paths,
        frozen=[False] * len(paths),
    )


def action_matrix(rs: RolloutState, kg: KnowledgeGraph, gv: np.ndarray) -> np.ndarray:
    """Rows [current-group vector || candidate-group vector], one per group
    in ``kg.group_index`` order; ``gv`` is ``group_vectors(kg, table)``."""
    cur = gv[kg.group_index[rs.current_group]]
    return np.concatenate([np.broadcast_to(cur, gv.shape), gv], axis=1)


def group_state(rs: RolloutState, kg: KnowledgeGraph, gv: np.ndarray) -> np.ndarray:
    """[current-group vector || scarce-group vector], length 4d."""
    return np.concatenate(
        [gv[kg.group_index[rs.current_group]], gv[kg.group_index[rs.scarce_group]]]
    )


def raw_concept_avg(rs: RolloutState, table: EmbeddingTable) -> np.ndarray:
    """Mean embedding of every concept explored so far (pre-projection)."""
    return avg_embedding(table, rs.explored)


def candidate_pool(rs: RolloutState, kg: KnowledgeGraph, k_next: str) -> list[str]:
    """Leap candidates in k_next: on-path concepts plus unexplored keywords."""
    pool = {cid for cid in rs.explored if kg.group_of(cid) == k_next}
    pool.update(
        cid
        for cid in rs.keywords
        if cid not in rs.explored and kg.group_of(cid) == k_next
    )
    return sorted(pool)


def connect(
    rs: RolloutState,
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    k_next: str,
    pool: list[str] | None = None,
) -> list[str | None]:
    """Append a leap step to every live path; returns per-path leap concepts.

    Each path leaps to the pool concept with the highest cosine similarity
    to that path's own average embedding (ties -> smallest id). An empty
    pool leaves every path untouched.
    """
    if pool is None:
        pool = candidate_pool(rs, kg, k_next)
    leaps: list[str | None] = [None] * len(rs.paths)
    live = [idx for idx, frozen in enumerate(rs.frozen) if not frozen]
    if not pool or not live:
        return leaps
    pavgs = np.stack(
        [avg_embedding(table, rs.paths[idx].distinct_concepts()) for idx in live], axis=1
    )
    scores = cosines(table, [table.row[cid] for cid in pool], pavgs)
    for idx, best in zip(live, np.argmax(scores, axis=0).tolist()):
        rs.paths[idx].steps.append(PathStep(GROUP_LEAP, pool[best]))
        leaps[idx] = pool[best]
    rs.explored.update(leaps[idx] for idx in live)
    return leaps


def retrieve(
    rs: RolloutState,
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    sq_avg: np.ndarray,
) -> None:
    """Extend each live path with its best within-group neighbor.

    score(c) = (cosine(c, keyword average) + cosine(c, path average)) / 2,
    ties -> smallest (label, id). A path whose tail has no neighbors in the
    current group freezes permanently.
    """
    live: list[tuple[int, int, int]] = []  # (path index, CSR bounds)
    for idx, path in enumerate(rs.paths):
        if rs.frozen[idx]:
            continue
        lo, hi = kg.neighbor_slice(kg.index[path.tail()], rs.current_group)
        if lo == hi:
            rs.frozen[idx] = True
        else:
            live.append((idx, lo, hi))
    if not live:
        return
    # one product scores every live path's neighbours against the keyword
    # average (column 0) and every path average (column p)
    X = np.column_stack(
        [sq_avg]
        + [avg_embedding(table, rs.paths[idx].distinct_concepts()) for idx, _, _ in live]
    )
    cos = cosines(table, np.concatenate([kg.indices[lo:hi] for _, lo, hi in live]), X)
    start = 0
    for p, (idx, lo, hi) in enumerate(live, start=1):
        seg = cos[start : start + hi - lo]
        start += hi - lo
        # the slice is in sorted (label, id) order and argmax takes the
        # first maximum, so ties go to the smallest (label, id)
        k = lo + int(np.argmax(0.5 * (seg[:, 0] + seg[:, p])))
        cid = kg.ids[kg.indices[k]]
        rs.paths[idx].steps.append(PathStep(kg.labels[k], cid))
        rs.explored.add(cid)


def step(
    rs: RolloutState,
    k_next: str,
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    sq_avg: np.ndarray,
) -> RolloutState:
    """Apply one environment step for the chosen group action.

    A leap to a group with an empty candidate pool degrades to a stay; the
    group trajectory then keeps the current group for this step.
    """
    if rs.t >= rs.max_steps:
        raise ValueError("rollout already finished")
    prev = rs.current_group
    effective = prev
    if k_next != prev:
        pool = candidate_pool(rs, kg, k_next)
        if pool:
            connect(rs, kg, table, k_next, pool)
            effective = k_next
    rs.prev_group = prev
    rs.current_group = effective
    retrieve(rs, kg, table, sq_avg)
    rs.t += 1
    return rs
