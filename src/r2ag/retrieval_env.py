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

from .embeddings import EmbeddingTable, avg_embedding, cosines
from .kg_store import KnowledgeGraph

GROUP_LEAP = "group leap"


@dataclass(frozen=True)
class PathStep:
    """One path element: incoming edge label (None at the origin) + concept int."""

    label: str | None
    concept: int


@dataclass
class ReasoningPath:
    origin: int
    steps: list[PathStep]

    def tail(self) -> int:
        return self.steps[-1].concept

    def distinct_concepts(self) -> list[int]:
        seen: set[int] = set()
        out: list[int] = []
        for step in self.steps:
            if step.concept not in seen:
                seen.add(step.concept)
                out.append(step.concept)
        return out

    def to_dict(self, kg: KnowledgeGraph) -> dict:
        """The path with concept ids in place of graph ints."""
        return {
            "origin": kg.ids[self.origin],
            "steps": [
                {"label": s.label, "concept": kg.ids[s.concept]} for s in self.steps[1:]
            ],
        }


@dataclass
class RolloutState:
    """Rollout state in graph ints: concepts index ``kg.ids`` and groups
    index ``kg.all_groups()``."""

    t: int
    max_steps: int
    scarce_group: int
    current_group: int
    keywords: list[int]  # every linked keyword concept, in match order
    explored: set[int]
    paths: list[ReasoningPath]
    frozen: list[bool] = field(default_factory=list)


def init_rollout(
    keywords: list[int],
    kg: KnowledgeGraph,
    k_init: int,
    k_scarce: int,
    max_steps: int,
) -> RolloutState:
    """Seed one path per keyword whose concept lies in the initial group."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    origins = [c for c in keywords if kg.group_at[c] == k_init]
    if not origins:
        raise ValueError(
            f"no keyword concept lies in initial group {kg.all_groups()[k_init]!r}"
        )
    paths = [ReasoningPath(c, [PathStep(None, c)]) for c in origins]
    return RolloutState(
        t=0,
        max_steps=max_steps,
        scarce_group=k_scarce,
        current_group=k_init,
        keywords=list(keywords),
        explored=set(origins),
        paths=paths,
        frozen=[False] * len(paths),
    )


def action_matrix(rs: RolloutState, gv: np.ndarray) -> np.ndarray:
    """Rows [current-group vector || candidate-group vector], one per group
    int; ``gv`` is ``group_vectors(kg, table)``."""
    cur = gv[rs.current_group]
    return np.concatenate([np.broadcast_to(cur, gv.shape), gv], axis=1)


def group_state(rs: RolloutState, gv: np.ndarray) -> np.ndarray:
    """[current-group vector || scarce-group vector], length 4d."""
    return np.concatenate([gv[rs.current_group], gv[rs.scarce_group]])


def raw_concept_avg(rs: RolloutState, table: EmbeddingTable) -> np.ndarray:
    """Mean embedding of every concept explored so far (pre-projection)."""
    return avg_embedding(table, rs.explored)


def candidate_pool(rs: RolloutState, kg: KnowledgeGraph, k_next: int) -> list[int]:
    """Leap candidates in k_next: on-path concepts plus unexplored keywords."""
    group_at = kg.group_at
    pool = {c for c in rs.explored if group_at[c] == k_next}
    pool.update(c for c in rs.keywords if c not in rs.explored and group_at[c] == k_next)
    return sorted(pool)


def connect(
    rs: RolloutState,
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    k_next: int,
    pool: list[int] | None = None,
) -> list[int | None]:
    """Append a leap step to every live path; returns per-path leap concepts.

    Each path leaps to the pool concept with the highest cosine similarity
    to that path's own average embedding (ties -> smallest int, which is the
    smallest id). An empty pool leaves every path untouched.
    """
    if pool is None:
        pool = candidate_pool(rs, kg, k_next)
    leaps: list[int | None] = [None] * len(rs.paths)
    live = [idx for idx, frozen in enumerate(rs.frozen) if not frozen]
    if not pool or not live:
        return leaps
    pavgs = np.stack(
        [avg_embedding(table, rs.paths[idx].distinct_concepts()) for idx in live], axis=1
    )
    scores = cosines(table, pool, pavgs)
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
        lo, hi = kg.neighbor_slice(path.tail(), rs.current_group)
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
        c = int(kg.indices[k])
        rs.paths[idx].steps.append(PathStep(kg.label_names[kg.labels[k]], c))
        rs.explored.add(c)


def step(
    rs: RolloutState,
    a: int,
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    sq_avg: np.ndarray,
) -> RolloutState:
    """Apply one environment step for group action ``a``.

    A leap to a group with an empty candidate pool degrades to a stay; the
    group trajectory then keeps the current group for this step.
    """
    if rs.t >= rs.max_steps:
        raise ValueError("rollout already finished")
    if a != rs.current_group:
        pool = candidate_pool(rs, kg, a)
        if pool:
            connect(rs, kg, table, a, pool)
            rs.current_group = a
    retrieve(rs, kg, table, sq_avg)
    rs.t += 1
    return rs
