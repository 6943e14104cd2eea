"""In-memory span recorder and the arithmetic over its spans.

A span is (name, start, end, parent), with ``parent`` the index of the span
that was open when it started, or -1. Spans live in flat ``array`` columns
while the program runs, so a traced call costs two clock reads and a few
appends, and are written out once at the end. NumPy is imported only where
spans are analysed, so that a traced stage pays for its own import of it.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, attribute) of each public function the traced run wraps; a
# dotted attribute names a method on a class
TARGETS = (
    ("r2ag.kg_store", "load_kg"),
    ("r2ag.kg_store", "KnowledgeGraph.neighbors_in_group"),
    ("r2ag.embeddings", "load_embeddings"),
    ("r2ag.embeddings", "pseudo_embeddings"),
    ("r2ag.embeddings", "group_vectors"),
    ("r2ag.embeddings", "avg_embedding"),
    ("r2ag.embeddings", "cosine"),
    ("r2ag.concept_linker", "load_corpus"),
    ("r2ag.concept_linker", "link_concepts"),
    ("r2ag.retrieval_env", "init_rollout"),
    ("r2ag.retrieval_env", "step"),
    ("r2ag.retrieval_env", "candidate_pool"),
    ("r2ag.retrieval_env", "connect"),
    ("r2ag.retrieval_env", "retrieve"),
    ("r2ag.policy_net", "init_params"),
    ("r2ag.policy_net", "forward"),
    ("r2ag.policy_net", "logprob_backward"),
    ("r2ag.policy_net", "save_checkpoint"),
    ("r2ag.policy_net", "load_checkpoint"),
    ("r2ag.gro_trainer", "train"),
    ("r2ag.gro_trainer", "train_patient"),
    ("r2ag.gro_trainer", "patient_context"),
    ("r2ag.gro_trainer", "build_ground_truth"),
    ("r2ag.gro_trainer", "run_rollout"),
    ("r2ag.gro_trainer", "rollout_reward"),
    ("r2ag.gro_trainer", "accumulate_gradient"),
    ("r2ag.generation", "retrieve_for_patient"),
    ("r2ag.generation", "build_prompt_bundle"),
    ("r2ag.generation", "stub_generate"),
    ("r2ag.evaluation", "evaluate_corpus"),
    ("r2ag.evaluation", "evaluate_pair"),
    ("r2ag.synthetic_data", "gen_kg"),
    ("r2ag.synthetic_data", "gen_corpus"),
)


def span_name(module: str, attr: str) -> str:
    """``r2ag.kg_store`` + ``KnowledgeGraph.neighbors_in_group`` ->
    ``kg_store.neighbors_in_group``."""
    return module.split(".")[-1] + "." + attr.split(".")[-1]


class Recorder:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # retrieval_env.step counters, read from its arguments and result
        self.leaps_requested = 0
        self.leaps_taken = 0
        self.frozen_paths = 0
        self.live_paths = 0

    def _nid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def count_steps(self, fn):
        """Wrap ``retrieval_env.step(rs, k_next, ...)`` with leap/frozen counts."""

        def counted(rs, k_next, *args, **kwargs):
            before = getattr(rs, "current_group", None)
            out = fn(rs, k_next, *args, **kwargs)
            try:
                frozen, paths = sum(out.frozen), len(out.paths)
                taken = out.current_group != before
            except (AttributeError, TypeError):
                return out  # a state without these fields is not counted
            if k_next != before:
                self.leaps_requested += 1
                self.leaps_taken += taken
            self.frozen_paths += frozen
            self.live_paths += paths
            return out

        return counted

    def install(self, targets=TARGETS) -> list[str]:
        """Replace every binding of each target inside the ``r2ag`` package.

        ``from .x import y`` copies ``y`` into the importing module, so the
        wrapper replaces the function wherever a module binds it. Returns the
        targets the installed package does not define.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "r2ag" or n.startswith("r2ag."))]
        missing = []
        for module_name, attr in targets:
            owner = sys.modules.get(module_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, meth, None)
            if orig is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(span_name(module_name, attr), orig)
            if attr == "step":
                wrapped = self.count_steps(wrapped)
            if cls_name:
                setattr(owner, meth, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        return missing

    def arrays(self) -> dict:
        import numpy as np

        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }


def self_times(parent, start, end):
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread and nest, so a child lies inside its parent
    and siblings do not overlap. Takes and returns int64 arrays.
    """
    import numpy as np

    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def summarize(names: list[str], cols: dict, wall_ns: int) -> dict:
    """Per-name call counts, total and self time, and duration percentiles;
    plus the share of ``wall_ns`` that no root span covers."""
    import numpy as np

    dur = cols["end"] - cols["start"]
    self_ns = self_times(cols["parent"], cols["start"], cols["end"])
    out: dict[str, dict] = {}
    for nid, name in enumerate(names):
        sel = cols["name_id"] == nid
        n = int(sel.sum())
        if n == 0:
            continue
        d = dur[sel]
        out[name] = {
            "calls": n,
            "total_ns": int(d.sum()),
            "self_ns": int(self_ns[sel].sum()),
            "p50_ns": float(np.percentile(d, 50)),
            "p90_ns": float(np.percentile(d, 90)),
        }
    roots = int(dur[cols["parent"] < 0].sum())
    return {
        "spans": out,
        "wall_ns": int(wall_ns),
        "untraced_share": 1.0 - roots / wall_ns if wall_ns > 0 else 0.0,
    }
