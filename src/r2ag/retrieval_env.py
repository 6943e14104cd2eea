"""Rollout environment: reasoning paths grown by group leaps and retrieval.

A rollout owns one group trajectory shared by all paths. Each step the
controller picks a next group; if it differs from the current one, every
live path first leaps to a connection concept in that group (chosen by
cosine similarity to the path average), then extends by one within-group
neighbor scored against both the keyword average and the path average.
Paths with no within-group neighbors freeze for the rest of the episode.

Rollouts advance in lockstep: ``step`` applies one step to each of them,
with one batched gather of path averages. The rollouts are ``group_size``
per patient: G of one patient in a training group, one each of many in a
serving block. ``retrieve`` scores each patient's live paths in one
``cosines`` product. A single rollout is a group of one. The policy that
picks each step's group runs in ``gro_trainer.run_rollouts``, one
``forward`` over all the rollouts of a step.
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
    smallest id). The averages of every live path of every rollout come
    from one batched gather; each rollout's pool is scored in its own
    product, as the pools differ.
    """
    live = [[k for k, frozen in enumerate(rs.frozen) if not frozen] for rs in states]
    leaps: list[list[int | None]] = [[None] * len(rs.paths) for rs in states]
    sets = [rs.paths[k].concepts for rs, idx in zip(states, live) for k in idx]
    if not sets:
        return leaps
    pavgs = avg_embeddings(table, sets)
    row = 0
    for rs, idx, pool, out in zip(states, live, pools, leaps):
        if not idx:
            continue
        # C order, so that the column norms in cosines sum over d in order
        X = np.ascontiguousarray(pavgs[row : row + len(idx)].T)
        row += len(idx)
        for k, best in zip(idx, np.argmax(cosines(table, pool, X), axis=0).tolist()):
            rs.paths[k].add(GROUP_LEAP, pool[best])
            _insert(rs.explored, pool[best])
            out[k] = pool[best]
    return leaps


def retrieve(
    states: list[RolloutState],
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    sq_avgs: list[np.ndarray],
    group_size: int = 1,
) -> None:
    """Extend each live path of every rollout with its best within-group
    neighbor.

    score(c) = (cosine(c, keyword average) + cosine(c, path average)) / 2,
    ties -> smallest (label, id). A path whose tail has no neighbors in its
    rollout's current group freezes permanently. ``sq_avgs[j]`` is the
    keyword average of patient ``j``, whose rollouts are ``states[j * G :
    (j + 1) * G]`` for G = ``group_size``. One product per patient scores
    its live paths' neighbours against that average (column 0) and against
    each of its path averages (column 1 + p), so a patient's products have
    the same shapes whatever else is in the batch.
    """
    if len(states) != len(sq_avgs) * group_size:
        raise ValueError(
            f"{len(states)} rollouts are not {group_size} for each of {len(sq_avgs)} patients"
        )
    live: list[tuple[RolloutState, int]] = []  # (rollout, path index)
    tails, groups, owners = [], [], []  # owner: the patient's index in sq_avgs
    for i, rs in enumerate(states):
        for k, path in enumerate(rs.paths):
            if not rs.frozen[k]:
                live.append((rs, k))
                tails.append(path.tail())
                groups.append(rs.current_group)
                owners.append(i // group_size)
    if not live:
        return
    owners = np.array(owners)
    lo, hi = kg.neighbor_slice(np.array(tails), np.array(groups))
    lens = hi - lo
    has = lens > 0
    if not has.all():
        for rs, k in compress(live, ~has):
            rs.frozen[k] = True
        live = list(compress(live, has))
        if not live:
            return
        lo, lens, owners = lo[has], lens[has], owners[has]
    ends = np.cumsum(lens)
    starts = ends - lens
    # CSR position of every candidate, path after path
    pos = np.repeat(lo - starts, lens) + np.arange(int(ends[-1]))
    pavgs = avg_embeddings(table, [rs.paths[k].concepts for rs, k in live])
    score = np.empty(len(pos))
    # live paths a:b are one patient's, and so are candidate rows r0:r1
    cuts = [0, *(np.flatnonzero(np.diff(owners)) + 1).tolist(), len(live)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        r0, r1 = int(starts[a]), int(ends[b - 1])
        X = np.empty((table.matrix.shape[1], 1 + b - a))
        X[:, 0] = sq_avgs[owners[a]]
        X[:, 1:] = pavgs[a:b].T
        cos = cosines(table, kg.indices[pos[r0:r1]], X)
        own = np.repeat(np.arange(1, 1 + b - a), lens[a:b])  # each row's path column
        score[r0:r1] = 0.5 * (cos[:, 0] + cos[np.arange(r1 - r0), own])
    # each slice is in sorted (label, id) order: the first maximum of each
    # segment is its smallest (label, id) among ties
    hits = np.flatnonzero(score == np.repeat(np.maximum.reduceat(score, starts), lens))
    best = pos[hits[hits.searchsorted(starts)]]
    for (rs, k), c, label in zip(live, kg.indices[best].tolist(), kg.labels[best].tolist()):
        rs.paths[k].add(kg.label_names[label], c)
        _insert(rs.explored, c)


def step(
    states: list[RolloutState],
    actions: list[int],
    kg: KnowledgeGraph,
    table: EmbeddingTable,
    sq_avgs: list[np.ndarray],
    group_size: int = 1,
) -> None:
    """Apply one environment step to each rollout ``states[i]`` for group
    action ``actions[i]``; the rollouts are ``group_size`` for each patient
    keyword average in ``sq_avgs`` (see ``retrieve``). A single rollout is
    ``step([rs], [a], kg, table, [sq_avg])``.

    A leap to a group with an empty candidate pool degrades to a stay; the
    group trajectory then keeps the current group for this step.
    """
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
    retrieve(states, kg, table, sq_avgs, group_size)
    for rs in states:
        rs.t += 1
