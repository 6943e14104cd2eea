"""Rollout environment: reasoning paths grown by group leaps and retrieval.

A rollout owns one group trajectory shared by all paths. Each step the
controller picks a next group; if it differs from the current one, every
live path first leaps to a connection concept in that group (chosen by
cosine similarity to the path average), then extends by one within-group
neighbor scored against both the keyword average and the path average.
Paths with no within-group neighbors freeze for the rest of the episode.

Rollouts advance in lockstep: ``step`` applies one step to each of them,
each with its own keyword average, so a training group (G rollouts of one
patient) and a serving block (one rollout of each of many patients) are the
same call. Both moves score every (live path, candidate) pair as one row of
a ``cosines`` call (``retrieve`` makes two, one per half of its score) and
pick each path's winner with one segment first-maximum; a row's score
depends only on its own pair, so a path ends the same in any batch. A
single rollout is a batch of one. The policy that picks each step's group
runs in ``gro_trainer.run_rollouts``, one ``forward`` over all the rollouts
of a step.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .embeddings import EmbeddingTable, avg_embeddings, cosines
from .kg_store import KnowledgeGraph

GROUP_LEAP = "group leap"


def _insert(sorted_ints: list[int], c: int) -> None:
    """Insert ``c`` into the ascending list ``sorted_ints`` unless present."""
    k = bisect_left(sorted_ints, c)
    if k == len(sorted_ints) or sorted_ints[k] != c:
        sorted_ints.insert(k, c)


@dataclass(frozen=True)
class PathStep:
    """One path element: incoming edge label (None at the origin) + concept int."""

    label: str | None
    concept: int


@dataclass
class ReasoningPath:
    origin: int
    steps: list[PathStep]
    # the distinct step concepts in ascending order, kept up to date by add()
    concepts: list[int] = field(init=False)

    def __post_init__(self):
        self.concepts = sorted({s.concept for s in self.steps})

    def tail(self) -> int:
        return self.steps[-1].concept

    def add(self, label: str, concept: int) -> None:
        self.steps.append(PathStep(label, concept))
        _insert(self.concepts, concept)

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
    index ``kg.groups``."""

    t: int
    max_steps: int
    scarce_group: int
    current_group: int
    keywords: list[int]  # every linked keyword concept, in match order
    explored: list[int]  # every concept on a path, in ascending order
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
            f"no keyword concept lies in initial group {kg.groups[k_init]!r}"
        )
    paths = [ReasoningPath(c, [PathStep(None, c)]) for c in origins]
    return RolloutState(
        t=0,
        max_steps=max_steps,
        scarce_group=k_scarce,
        current_group=k_init,
        keywords=list(keywords),
        explored=sorted(set(origins)),
        paths=paths,
        frozen=[False] * len(paths),
    )


def candidate_pool(rs: RolloutState, kg: KnowledgeGraph, k_next: int) -> list[int]:
    """Leap candidates in k_next: on-path concepts plus unexplored keywords."""
    group_at = kg.group_at
    pool = {c for c in rs.explored if group_at[c] == k_next}
    pool.update(c for c in rs.keywords if group_at[c] == k_next and c not in rs.explored)
    return sorted(pool)


def _first_max(score: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat index of the first maximum in each segment of ``score``, the
    segments being consecutive runs of ``lens`` (each > 0) entries."""
    starts = np.cumsum(lens) - lens
    hits = np.flatnonzero(score == np.repeat(np.maximum.reduceat(score, starts), lens))
    return hits[hits.searchsorted(starts)]


def connect(
    states: list[RolloutState],
    table: EmbeddingTable,
    pools: list[list[int]],
) -> list[list[int | None]]:
    """Append a leap step to every live path of each rollout ``states[i]``,
    into the non-empty candidate pool ``pools[i]``; returns each rollout's
    per-path leap concepts (None for a frozen path).

    Each path leaps to the pool concept with the highest cosine similarity
    to that path's own average embedding (ties -> smallest int, which is the
    smallest id). Every (live path, pool concept) pair of every rollout is
    one row of one ``cosines`` call.
    """
    leaps: list[list[int | None]] = [[None] * len(rs.paths) for rs in states]
    live = [(rs, k, pool, out) for rs, pool, out in zip(states, pools, leaps)
            for k, frozen in enumerate(rs.frozen) if not frozen]
    if not live:
        return leaps
    pavgs = avg_embeddings(table, [rs.paths[k].concepts for rs, k, _, _ in live])
    lens = np.array([len(pool) for _, _, pool, _ in live])
    rows = np.concatenate([pool for _, _, pool, _ in live])  # path after path
    score = cosines(table, rows, pavgs[:, None], lens)[:, 0]
    for (rs, k, _, out), c in zip(live, rows[_first_max(score, lens)].tolist()):
        rs.paths[k].add(GROUP_LEAP, c)
        _insert(rs.explored, c)
        out[k] = c
    return leaps


def retrieve(
    states: list[RolloutState],
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    sq_avgs: list[np.ndarray],
) -> None:
    """Extend each live path of every rollout with its best within-group
    neighbor.

    score(c) = (cosine(c, keyword average) + cosine(c, path average)) / 2,
    ties -> smallest (label, id). A path whose tail has no neighbors in its
    rollout's current group freezes permanently. ``sq_avgs[i]`` is the
    keyword average of ``states[i]``. Every (path, candidate) pair is one
    row of two ``cosines`` calls, one against each live path's keyword
    average and one against its path average, each repeated once per
    candidate neighbour.
    """
    if len(states) != len(sq_avgs):
        raise ValueError(f"{len(states)} rollouts but {len(sq_avgs)} keyword averages")
    live: list[tuple[RolloutState, int, np.ndarray]] = []  # (rollout, path, sq_avg)
    tails, groups = [], []
    for rs, sq in zip(states, sq_avgs):
        for k, path in enumerate(rs.paths):
            if not rs.frozen[k]:
                live.append((rs, k, sq))
                tails.append(path.tail())
                groups.append(rs.current_group)
    if not live:
        return
    lo, hi = kg.neighbor_slice(np.array(tails), np.array(groups))
    lens = hi - lo
    has = lens > 0
    if not has.all():
        for rs, k, _ in compress(live, ~has):
            rs.frozen[k] = True
        live = list(compress(live, has))
        if not live:
            return
        lo, lens = lo[has], lens[has]
    # CSR position of every candidate, path after path
    pos = np.repeat(lo + lens - np.cumsum(lens), lens) + np.arange(lens.sum())
    rows = kg.indices[pos]
    sq_cos = cosines(table, rows, np.stack([sq for *_, sq in live])[:, None], lens)[:, 0]
    pavgs = avg_embeddings(table, [rs.paths[k].concepts for rs, k, _ in live])
    path_cos = cosines(table, rows, pavgs[:, None], lens)[:, 0]
    # each slice is in sorted (label, id) order: the first maximum of each
    # segment is its smallest (label, id) among ties
    best = pos[_first_max(0.5 * (sq_cos + path_cos), lens)]
    for (rs, k, _), c, label in zip(live, kg.indices[best].tolist(), kg.labels[best].tolist()):
        rs.paths[k].add(kg.label_names[label], c)
        _insert(rs.explored, c)


def step(
    states: list[RolloutState],
    actions: list[int],
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    sq_avgs: list[np.ndarray],
) -> None:
    """Apply one environment step to each rollout ``states[i]`` for group
    action ``actions[i]`` and keyword average ``sq_avgs[i]``. A single
    rollout is ``step([rs], [a], kg, table, [sq_avg])``.

    A leap to a group with an empty candidate pool degrades to a stay; the
    group trajectory then keeps the current group for this step. Bad
    arguments raise ``ValueError`` before any rollout changes.
    """
    if not len(states) == len(actions) == len(sq_avgs):
        raise ValueError(
            f"{len(states)} rollouts but {len(actions)} actions and "
            f"{len(sq_avgs)} keyword averages"
        )
    if any(rs.t >= rs.max_steps for rs in states):
        raise ValueError("rollout already finished")
    leaping, pools = [], []
    for rs, a in zip(states, actions):
        if a != rs.current_group:
            pool = candidate_pool(rs, kg, a)
            if pool:
                leaping.append(rs)
                pools.append(pool)
                rs.current_group = a
    if leaping:
        connect(leaping, table, pools)
    retrieve(states, kg, table, sq_avgs)
    for rs in states:
        rs.t += 1
