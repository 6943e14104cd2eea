"""Shared test utilities: graph builders, oracles, and a mock endpoint.

Oracle functions here deliberately avoid the library's own code paths
(plain-Python loops instead of numpy reductions) so they stay independent
of what they check.
"""

from __future__ import annotations

import http.server
import json
import math
import threading
import time

import numpy as np

from r2ag.kg_store import KnowledgeGraph, concept_ints
from r2ag.policy_net import forward


def make_kg(concept_rows, edge_rows) -> KnowledgeGraph:
    """Build a graph from (id, name, group) and (src, label, dst) tuples."""
    concepts = {cid: (name, group) for cid, name, group in concept_rows}
    index = concept_ints(concepts)
    edge_rows = list(edge_rows)
    return KnowledgeGraph(
        concepts,
        [index[s] for s, _, _ in edge_rows],
        [label for _, label, _ in edge_rows],
        [index[d] for _, _, d in edge_rows],
    )


def ints(kg: KnowledgeGraph, ids) -> list[int]:
    """Graph ints of concept ids ``ids``, in the given order."""
    return [kg.index[cid] for cid in ids]


def int_neighbors(kg: KnowledgeGraph, c: int, g: int) -> list[tuple[str, int]]:
    """Forward neighbours of concept int ``c`` in group int ``g``, as
    (label, concept int) pairs in CSR order."""
    lo, hi = kg.neighbor_slice(c, g)
    return [
        (kg.label_names[k], d)
        for k, d in zip(kg.labels[lo:hi].tolist(), kg.indices[lo:hi].tolist())
    ]


def random_graph_rows(rng: np.random.Generator, n_groups: int, per_group: int,
                      p_intra: float, p_cross: float) -> tuple[list, list]:
    """(id, name, group) and (src, label, dst) rows of a random graph; group
    of concept i is i // per_group."""
    labels = ("rel_a", "rel_b", "rel_c")
    rows = []
    for g in range(n_groups):
        for i in range(per_group):
            cid = f"N{g:02d}{i:03d}"
            rows.append((cid, f"name {cid.lower()}", f"G{g:02d}"))
    ids = [r[0] for r in rows]
    groups = [r[2] for r in rows]
    edge_rows = []
    for i, src in enumerate(ids):
        for j, dst in enumerate(ids):
            if i == j:
                continue
            p = p_intra if groups[i] == groups[j] else p_cross
            if rng.random() < p:
                edge_rows.append((src, labels[int(rng.integers(len(labels)))], dst))
    return rows, edge_rows


def random_kg(rng: np.random.Generator, n_groups: int, per_group: int,
              p_intra: float, p_cross: float) -> KnowledgeGraph:
    """In-memory graph of ``random_graph_rows``."""
    return make_kg(*random_graph_rows(rng, n_groups, per_group, p_intra, p_cross))


# ---------------------------------------------------------------------------
# plain-Python vector oracles

def oracle_cosine(u, v) -> float:
    num = sum(float(x) * float(y) for x, y in zip(u, v))
    nu = math.sqrt(sum(float(x) ** 2 for x in u))
    nv = math.sqrt(sum(float(y) ** 2 for y in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return num / (nu * nv)


def oracle_avg(table, concepts):
    """Mean of the table rows of graph ints ``concepts``, summed in
    ascending order."""
    concepts = sorted(concepts)
    acc = [0.0] * table.dim
    for c in concepts:
        vec = table.matrix[c]
        for k in range(table.dim):
            acc[k] += float(vec[k])
    return [x / len(concepts) for x in acc]


def oracle_path_avg(table, path):
    seen, distinct = set(), []
    for step in path.steps:
        if step.concept not in seen:
            seen.add(step.concept)
            distinct.append(step.concept)
    return oracle_avg(table, distinct)


def oracle_connect_choice(table, path, pool):
    """Brute-force leap choice: max cosine to the path average, smallest int."""
    pavg = oracle_path_avg(table, path)
    best, best_score = None, -math.inf
    for c in sorted(pool):
        score = oracle_cosine(table.matrix[c], pavg)
        if score > best_score:
            best, best_score = c, score
    return best


def oracle_retrieve_choice(table, path, neighbors, sq_avg):
    """Brute-force within-group choice over sorted (label, concept int)
    neighbors."""
    pavg = oracle_path_avg(table, path)
    best, best_score = None, -math.inf
    for label, c in sorted(neighbors):
        vec = table.matrix[c]
        score = 0.5 * (oracle_cosine(vec, sq_avg) + oracle_cosine(vec, pavg))
        if score > best_score:
            best, best_score = (label, c), score
    return best


# ---------------------------------------------------------------------------
# finite differences for the policy gradient

def fd_logprob_grads(params, s_k, c_avg, actions, action, eps=1e-5):
    """Central finite differences of log pi(action) for W1, W2, M."""

    def value() -> float:
        return math.log(forward(params, s_k, c_avg, actions).dist[action])

    grads = {}
    for name in ("W1", "W2", "M"):
        mat = getattr(params, name)
        g = np.zeros_like(mat)
        it = np.nditer(mat, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = mat[idx]
            mat[idx] = orig + eps
            up = value()
            mat[idx] = orig - eps
            down = value()
            mat[idx] = orig
            g[idx] = (up - down) / (2 * eps)
            it.iternext()
        grads[name] = g
    return grads


def per_rollout_dist(params, gv, s_k, c_avg) -> np.ndarray:
    """One rollout's action distribution as scored before block forwards:
    matrix-vector products on its own state, with action rows
    [current-group vector || group vector] (the current-group vector is
    ``s_k[:2d]``)."""
    width = gv.shape[1]
    actions = np.hstack([np.tile(s_k[:width], (len(gv), 1)), gv])
    x = np.concatenate([s_k, params.M @ c_avg])
    z = params.W2 @ np.maximum(params.W1 @ x, 0.0)
    logits = actions @ z
    e = np.exp(logits - logits.max())
    return e / e.sum()


def rowwise_gradient(params, records, relative, gamma):
    """``accumulate_gradient`` as it was computed row by row: one-state row
    views of every kept (rollout, step), dZ as one ``actions.T @ dlogits``
    matrix-vector product per row, then the weighted products over the
    stacked rows. Returns (dW1, dW2, dM)."""
    d = params.d
    caches, actions, weights = [], [], []
    for rec, rel in zip(records, relative):
        T = len(rec.actions)
        for j, (cache, a) in enumerate(zip(rec.caches, rec.actions)):
            weight = (gamma ** (T - 1 - j)) * float(rel)
            if weight != 0.0:
                caches.append(cache)
                actions.append(a)
                weights.append(weight)
    w = (np.asarray(weights) * (1.0 / len(records)))[:, None]
    dZ = np.empty((len(caches), 4 * d))
    for row, (cache, a) in enumerate(zip(caches, actions)):
        dlogits = -cache.dist
        dlogits[a] += 1.0
        dZ[row] = cache.actions.T @ dlogits
    X, H1, C = (np.stack([getattr(c, name) for c in caches]).reshape(len(caches), -1)
                for name in ("x", "h1", "c_avg"))
    A1 = np.maximum(H1, 0.0)
    dH1 = (dZ @ params.W2) * (H1 > 0.0)
    return (
        (w * dH1).T @ X,
        (w * dZ).T @ A1,
        (w * (dH1 @ params.W1[:, 4 * d :])).T @ C,
    )


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# mock chat-completion endpoint

class MockEndpoint:
    """Tiny local HTTP server with a scriptable response plan.

    Each plan entry is one of:
      ("ok", text)        -> 200 with a well-formed completion body
      ("status", code)    -> empty response with that HTTP status
      ("garbage",)        -> 200 with a non-JSON body
      ("sleep", seconds)  -> delay, then a 200 completion
    The last entry repeats for any extra requests.
    """

    def __init__(self, plan):
        self.plan = list(plan)
        self.requests: list[dict] = []
        self.headers: list[dict] = []
        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                try:
                    self._respond()
                except BrokenPipeError:
                    pass  # client gave up (timeout tests)

            def _respond(self):
                n = int(self.headers.get("Content-Length", 0))
                outer.requests.append(json.loads(self.rfile.read(n)))
                outer.headers.append(dict(self.headers))
                step = outer.plan[min(len(outer.requests) - 1, len(outer.plan) - 1)]
                if step[0] == "sleep":
                    time.sleep(step[1])
                    step = ("ok", "slow response")
                if step[0] == "ok":
                    body = json.dumps(
                        {"choices": [{"message": {"content": step[1]}}]}
                    ).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                elif step[0] == "garbage":
                    body = b"not json at all"
                    self.send_response(200)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_response(step[1])
                    self.send_header("Content-Length", "0")
                    self.end_headers()

            def log_message(self, *args):
                pass

        self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}/v1/chat/completions"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        return False
