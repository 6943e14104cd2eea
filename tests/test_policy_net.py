from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import math
import os
import re
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import fd_logprob_grads, max_rel_err

import r2ag.policy_net
from r2ag.errors import DataFormatError
from r2ag.policy_net import (
    PolicyParams,
    block_ascent,
    block_backward,
    forward,
    greedy_action,
    init_params,
    load_checkpoint,
    logprob_backward,
    param_shapes,
    sample_action,
    save_checkpoint,
)


def _random_state(rng, d, n_actions):
    s_k = rng.standard_normal(4 * d)
    c_avg = rng.standard_normal(d)
    actions = rng.standard_normal((n_actions, 4 * d))
    return s_k, c_avg, actions


def test_init_deterministic():
    a = init_params(4, seed=9)
    b = init_params(4, seed=9)
    assert np.array_equal(a.W1, b.W1)
    assert np.array_equal(a.W2, b.W2)
    assert np.array_equal(a.M, b.M)


def test_init_shapes():
    p = init_params(4, seed=0)
    assert p.W1.shape == (16, 20)
    assert p.W2.shape == (16, 16)
    assert p.M.shape == (4, 4)


def test_init_entry_bounds():
    d = 5
    p = init_params(d, seed=1)
    for mat, fan_in, fan_out in (
        (p.W1, 5 * d, 4 * d),
        (p.W2, 4 * d, 4 * d),
        (p.M, d, d),
    ):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(mat) < a)


def test_forward_zero_actions_gives_uniform():
    rng = np.random.default_rng(0)
    p = init_params(3, seed=0)
    s_k, c_avg, _ = _random_state(rng, 3, 4)
    cache = forward(p, s_k, c_avg, np.zeros((4, 12)))
    assert np.allclose(cache.dist, 0.25)


def test_forward_single_action_prob_one():
    rng = np.random.default_rng(1)
    p = init_params(3, seed=0)
    s_k, c_avg, actions = _random_state(rng, 3, 1)
    cache = forward(p, s_k, c_avg, actions)
    assert cache.dist.shape == (1,)
    assert cache.dist[0] == pytest.approx(1.0, abs=1e-12)


def _straight_line_forward(p, s_k, c_avg, actions, d):
    """Independent re-implementation with plain loops."""
    s_c = [sum(p.M[i][j] * c_avg[j] for j in range(d)) for i in range(d)]
    x = list(s_k) + s_c
    h1 = [sum(p.W1[i][j] * x[j] for j in range(5 * d)) for i in range(4 * d)]
    a1 = [max(v, 0.0) for v in h1]
    z = [sum(p.W2[i][j] * a1[j] for j in range(4 * d)) for i in range(4 * d)]
    logits = [sum(row[j] * z[j] for j in range(4 * d)) for row in actions]
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    total = sum(exps)
    return [e / total for e in exps]


def test_forward_matches_straight_line_recomputation():
    d = 3
    rng = np.random.default_rng(42)
    p = init_params(d, seed=5)
    s_k, c_avg, actions = _random_state(rng, d, 2)
    cache = forward(p, s_k, c_avg, actions)
    oracle = _straight_line_forward(p, s_k, c_avg, actions.tolist(), d)
    assert np.allclose(cache.dist, oracle, atol=1e-10)
    assert cache.dist.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(cache.dist >= 0)
    assert cache.z.shape == (4 * d,)


def test_softmax_shift_invariance():
    d = 3
    rng = np.random.default_rng(7)
    p = init_params(d, seed=2)
    s_k, c_avg, actions = _random_state(rng, d, 5)
    base = forward(p, s_k, c_avg, actions)
    # adding the same delta vector to every action row shifts all logits
    # by delta . z, a constant
    delta = rng.standard_normal(4 * d)
    shifted = forward(p, s_k, c_avg, actions + delta)
    assert np.allclose(base.dist, shifted.dist, atol=1e-12)


def test_forward_shape_mismatch_raises():
    p = init_params(3, seed=0)
    with pytest.raises(ValueError):
        forward(p, np.zeros(11), np.zeros(3), np.zeros((2, 12)))
    with pytest.raises(ValueError):
        forward(p, np.zeros(12), np.zeros(4), np.zeros((2, 12)))
    with pytest.raises(ValueError):
        forward(p, np.zeros(12), np.zeros(3), np.zeros((2, 13)))


def test_sample_degenerate_distribution():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_action(np.array([1.0, 0.0, 0.0]), rng.random()) == 0


def test_sample_matches_monte_carlo_frequency():
    rng = np.random.default_rng(123)
    dist = np.array([0.25, 0.75])
    draws = 100_000
    ones = sum(sample_action(dist, u) for u in rng.random(draws))
    assert ones / draws == pytest.approx(0.75, abs=0.01)


def test_greedy_tie_breaks_to_smallest_index():
    assert greedy_action(np.array([0.5, 0.5])) == 0
    assert greedy_action(np.array([0.2, 0.5, 0.3])) == 1


def test_backward_single_action_is_zero():
    rng = np.random.default_rng(3)
    p = init_params(3, seed=1)
    s_k, c_avg, actions = _random_state(rng, 3, 1)
    cache = forward(p, s_k, c_avg, actions)
    g = logprob_backward(p, cache, 0)
    assert np.allclose(g.dW1, 0.0)
    assert np.allclose(g.dW2, 0.0)
    assert np.allclose(g.dM, 0.0)


def test_backward_matches_finite_differences_smoke():
    # the full >=20-fixture check lives in the acceptance suite
    rng = np.random.default_rng(11)
    for d, n_actions in ((3, 4), (3, 2)):
        p = init_params(d, seed=int(rng.integers(1000)))
        s_k, c_avg, actions = _random_state(rng, d, n_actions)
        action = int(rng.integers(n_actions))
        cache = forward(p, s_k, c_avg, actions)
        analytic = logprob_backward(p, cache, action)
        fd = fd_logprob_grads(p, s_k, c_avg, actions, action)
        assert max_rel_err(analytic.dW1, fd["W1"]) <= 1e-4
        assert max_rel_err(analytic.dW2, fd["W2"]) <= 1e-4
        assert max_rel_err(analytic.dM, fd["M"]) <= 1e-4


def test_backward_dM_zero_when_concept_slice_unused():
    d = 3
    rng = np.random.default_rng(5)
    p = init_params(d, seed=4)
    p.W1[:, 4 * d :] = 0.0  # concept-state slice never reaches h1
    s_k, c_avg, actions = _random_state(rng, d, 3)
    cache = forward(p, s_k, c_avg, actions)
    g = logprob_backward(p, cache, 1)
    assert np.allclose(g.dM, 0.0)
    assert not np.allclose(g.dW2, 0.0)


def test_backward_rejects_mismatched_cache():
    p3 = init_params(3, seed=0)
    p4 = init_params(4, seed=0)
    rng = np.random.default_rng(0)
    s_k, c_avg, actions = _random_state(rng, 3, 2)
    cache = forward(p3, s_k, c_avg, actions)
    with pytest.raises(ValueError):
        logprob_backward(p4, cache, 0)


def test_logprob_backward_takes_one_state_per_cache():
    # a block of two states is not a one-state cache: refused, not read as row 0
    rng = np.random.default_rng(1)
    p = init_params(3, seed=0)
    s_k, c_avg, actions = _random_state(rng, 3, 4)
    block = forward(p, np.stack([s_k, s_k]), np.stack([c_avg, c_avg]), actions)
    with pytest.raises(ValueError, match="one state per cache"):
        logprob_backward(p, block, 0)


def test_gradient_bundle_accumulation():
    # weighted parts of one-state caches accumulate the weighted single-step
    # gradients, a cache taken twice counting twice
    rng = np.random.default_rng(21)
    p = init_params(3, seed=0)
    caches = [forward(p, *_random_state(rng, 3, 4)) for _ in range(2)]
    singles = [logprob_backward(p, c, a) for c, a in zip(caches, (1, 3))]
    acc = block_backward(p, [
        ([c], [0], [a], [w]) for c, a, w in zip(caches + caches[:1], (1, 3, 1), (2.0, -0.5, 0.25))
    ])
    for name in ("dW1", "dW2", "dM"):
        expected = 2.25 * getattr(singles[0], name) - 0.5 * getattr(singles[1], name)
        assert np.allclose(getattr(acc, name), expected, rtol=1e-12, atol=1e-15)


def test_batch_backward_with_no_steps_is_zeros():
    p = init_params(3, seed=0)
    g = block_backward(p, [])
    assert g.dW1.shape == p.W1.shape and g.dW2.shape == p.W2.shape
    assert g.dM.shape == p.M.shape
    assert not g.dW1.any() and not g.dW2.any() and not g.dM.any()


def _ascent_parts(rng, p, d):
    """Two parts of forward blocks: one of two blocks sharing an action
    matrix, with a row taken twice and a zero weight, and one of its own."""
    _, _, actions = _random_state(rng, d, 5)
    blocks = [forward(p, rng.standard_normal((3, 4 * d)), rng.standard_normal((3, d)), actions)
              for _ in range(2)]
    other = forward(p, rng.standard_normal((2, 4 * d)), rng.standard_normal((2, d)),
                    rng.standard_normal((3, 4 * d)))
    return [(blocks, [0, 4, 5, 4, 2], [1, 0, 4, 4, 2], [0.5, -2.0, 0.25, 1.5, 0.0]),
            ([other], [1, 0], [2, 0], [0.75, 0.125])]


@pytest.mark.parametrize("block_rows", [1, 7, None])  # None: the default
@pytest.mark.parametrize("d", [2, 5, 24])
def test_block_ascent_equals_block_backward_then_the_step_bit_for_bit(
        monkeypatch, d, block_rows):
    # the trainer's in-place step gives the floats of a whole gradient
    # followed by dW *= lr; W += dW, at any row block
    if block_rows is not None:
        monkeypatch.setattr(r2ag.policy_net, "GRADIENT_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(40 + d)
    p = init_params(d, seed=d)
    lr = 0.37
    for parts in (_ascent_parts(rng, p, d), []):
        grad = block_backward(p, parts)
        want = [m.copy() for m in (p.W1, p.W2, p.M)]
        for W, dW in zip(want, (grad.dW1, grad.dW2, grad.dM)):
            dW *= lr
            W += dW
        block_ascent(p, parts, lr)
        for W, expected in zip((p.W1, p.W2, p.M), want):
            assert W.tobytes() == expected.tobytes()


def test_gradient_row_blocks_change_only_rounding(monkeypatch):
    rng = np.random.default_rng(9)
    p = init_params(24, seed=9)
    parts = _ascent_parts(rng, p, 24)
    whole = block_backward(p, parts)
    for block_rows in (1, 7):
        monkeypatch.setattr(r2ag.policy_net, "GRADIENT_BLOCK_ROWS", block_rows)
        got = block_backward(p, parts)
        for name in ("dW1", "dW2", "dM"):
            scale = np.abs(getattr(whole, name)).max()
            assert scale > 0.0
            np.testing.assert_allclose(getattr(got, name), getattr(whole, name),
                                       rtol=1e-12, atol=1e-14 * scale)


def test_block_ascent_refuses_a_bad_part_before_any_weight_moves():
    rng = np.random.default_rng(10)
    p = init_params(3, seed=1)
    parts = _ascent_parts(rng, p, 3)
    parts[1][2][1] = 3  # the second part's action matrix has 3 rows
    before = [m.copy() for m in (p.W1, p.W2, p.M)]
    with pytest.raises(ValueError, match="out of range"):
        block_ascent(p, parts, 0.5)
    for W, old in zip((p.W1, p.W2, p.M), before):
        assert W.tobytes() == old.tobytes()


def test_block_ascent_frees_each_row_block_before_the_next(monkeypatch):
    # a step holds one row block: each is dead when the next is requested
    real = r2ag.policy_net._gradient_blocks
    refs = []  # to every block yielded
    alive = []  # at each request, how many earlier blocks are alive

    def watched(params, parts):
        blocks = real(params, parts)
        while True:
            alive.append(sum(ref() is not None for ref in refs))
            item = next(blocks, None)
            if item is None:
                return
            refs.append(weakref.ref(item[2]))
            yield item
            del item

    monkeypatch.setattr(r2ag.policy_net, "_gradient_blocks", watched)
    monkeypatch.setattr(r2ag.policy_net, "GRADIENT_BLOCK_ROWS", 7)
    rng = np.random.default_rng(11)
    p = init_params(5, seed=3)
    block_ascent(p, _ascent_parts(rng, p, 5), 0.5)
    assert len(refs) == 3 + 3 + 1  # 20 rows of W1, 20 of W2 and 5 of M
    assert alive == [0] * (len(refs) + 1)


def test_checkpoint_roundtrip_is_exact(tmp_path):
    p = init_params(5, seed=77)
    path = tmp_path / "ckpt.json"
    save_checkpoint(p, path)
    loaded = load_checkpoint(path)
    assert loaded.d == 5 and loaded.seed == 77
    assert np.array_equal(loaded.W1, p.W1)
    assert np.array_equal(loaded.W2, p.W2)
    assert np.array_equal(loaded.M, p.M)
    # re-saving the loaded params is byte-identical
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def _special_params(d: int):
    """Parameters holding -0.0, the smallest subnormals and huge floats."""
    p = init_params(d, seed=5)
    p.W1[0, :4] = [-0.0, 5e-324, 1e300, -1e300]
    p.W2[1, 2] = -5e-324
    p.M[1, 1] = -0.0
    return p


@pytest.mark.parametrize("d", [2, 3, 6])
def test_checkpoint_roundtrip_keeps_every_bit(tmp_path, d):
    p = _special_params(d)
    path = tmp_path / "ckpt.json"
    save_checkpoint(p, path)
    loaded = load_checkpoint(path)
    for name in ("W1", "W2", "M"):
        assert getattr(loaded, name).tobytes() == getattr(p, name).tobytes()
    assert math.copysign(1.0, loaded.W1[0, 0]) == -1.0
    assert math.copysign(1.0, loaded.M[1, 1]) == -1.0
    assert loaded.W1[0, 1] == 5e-324 and loaded.W2[1, 2] == -5e-324
    assert loaded.W1[0, 2] == 1e300 and loaded.W1[0, 3] == -1e300


def _v3_bytes(p) -> bytes:
    """The version-3 checkpoint of ``p``, built whole: the magic line, a
    ``json.dumps`` of the header, then the matrices' raw bytes under their
    sha256."""
    raw = b"".join(
        np.ascontiguousarray(getattr(p, name), dtype="<f8").tobytes() for name in ("W1", "W2", "M")
    )
    header = {"d": p.d, "seed": p.seed, "embeddings": p.embeddings,
              "weights": "sha256:" + hashlib.sha256(raw).hexdigest()}
    return b"R2AG-CHECKPOINT 3\n" + json.dumps(header).encode("ascii") + b"\n" + raw


def test_checkpoint_bytes_equal_the_v3_layout(tmp_path):
    # the version-3 layout: magic line, json.dumps of the header, raw weights
    p = _special_params(2)
    path = tmp_path / "ckpt.json"
    save_checkpoint(p, path)
    assert path.read_bytes() == _v3_bytes(p)
    loaded = load_checkpoint(path)
    assert math.copysign(1.0, loaded.W1[0, 0]) == -1.0
    assert loaded.W1[0, 1] == 5e-324 and loaded.W1[0, 2] == 1e300
    for d in (3, 6):
        q = init_params(d, seed=d)
        q.embeddings = "sha256:" + "cd" * 32
        save_checkpoint(q, path)
        assert path.read_bytes() == _v3_bytes(q)


@pytest.mark.parametrize("block_bytes", [24, 1000, None])  # 3 floats, not a power of two, default
@pytest.mark.parametrize("d", [2, 6, 64])
def test_checkpoint_written_in_blocks_equals_the_v3_layout(
        tmp_path, monkeypatch, d, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(r2ag.policy_net, "CHECKPOINT_BLOCK_BYTES", block_bytes)
    p = init_params(d, seed=d)
    p.embeddings = "sha256:" + "ef" * 32
    path = tmp_path / "ckpt.json"
    save_checkpoint(p, path)
    assert path.read_bytes() == _v3_bytes(p)
    # and read back in the same blocks, which split floats when not a multiple of 8
    assert _outcome(load_checkpoint, path) == ("ok", d, d, p.embeddings, *(
        getattr(p, name).tobytes() for name in ("W1", "W2", "M")))


def test_checkpoint_write_memory_is_a_block_not_a_matrix(tmp_path):
    # the writer hashes and writes views of the matrices' bytes, so a copy
    # of a matrix would show above the blocks
    d = 128
    p = init_params(d, seed=0)
    param_bytes = sum(8 * rows * cols for rows, cols in param_shapes(d).values())
    tracemalloc.start()
    try:
        save_checkpoint(p, tmp_path / "ckpt.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * param_bytes
    assert (tmp_path / "ckpt.json").read_bytes() == _v3_bytes(p)


def test_two_saves_of_equal_params_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    p = _special_params(3)
    p.embeddings = "sha256:" + "ab" * 32
    save_checkpoint(p, a)
    q = _special_params(3)
    q.embeddings = p.embeddings
    save_checkpoint(q, b)
    assert a.read_bytes() == b.read_bytes()
    magic, header, _ = a.read_bytes().split(b"\n", 2)
    assert magic == b"R2AG-CHECKPOINT 3" and json.loads(header)["embeddings"] == p.embeddings
    assert load_checkpoint(a).embeddings == p.embeddings


def _v2_bytes(p) -> bytes:
    """``p`` as the version-2 writer wrote it: one JSON object, each matrix
    the base64 of its C-order little-endian float64 bytes."""
    mats = {name: base64.b64encode(getattr(p, name).astype("<f8").tobytes()).decode()
            for name in ("W1", "W2", "M")}
    payload = {"version": 2, "d": p.d, "seed": p.seed, "embeddings": p.embeddings, **mats}
    return json.dumps(payload).encode("ascii")


@pytest.mark.parametrize(
    "data",
    [
        pytest.param((Path(__file__).parent / "data" / "checkpoint_v1_d2.json").read_bytes(),
                     id="v1"),
        pytest.param(_v2_bytes(_special_params(2)), id="v2"),
        pytest.param(b'{"version": 99}', id="other-json"),
        pytest.param(b"", id="empty"),
        pytest.param(_v3_bytes(_special_params(2))[:17], id="magic-without-newline"),
        pytest.param(b"\xef\xbb\xbf" + _v3_bytes(_special_params(2)), id="utf8-bom"),
    ],
)
def test_checkpoint_without_the_v3_magic_line_is_refused(tmp_path, data):
    # only version 3 is read: any other file, whole or cut, is one data error
    path = tmp_path / "ckpt.json"
    path.write_bytes(data)
    message = (f'{path}: not a version-3 checkpoint (no "R2AG-CHECKPOINT 3" line); '
               "versions 1 and 2 are no longer read")
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)


def test_checkpoint_write_that_fails_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(4, seed=1), path)
    before = path.read_bytes()
    real = r2ag.policy_net.atomic_open
    calls = []

    @contextlib.contextmanager
    def atomic_open(target):  # the real file, whose second block of weights fails
        with real(target) as fh:
            def write(data):
                calls.append(1)
                if len(calls) > 1:
                    raise RuntimeError("write failed")
                return fh.buffer.write(data)

            yield SimpleNamespace(
                write=fh.write, flush=fh.flush, buffer=SimpleNamespace(write=write))

    monkeypatch.setattr(r2ag.policy_net, "CHECKPOINT_BLOCK_BYTES", 64)
    monkeypatch.setattr(r2ag.policy_net, "atomic_open", atomic_open)
    with pytest.raises(RuntimeError, match="write failed"):
        save_checkpoint(init_params(4, seed=2), path)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["ckpt.json"]
    with pytest.raises(RuntimeError):
        save_checkpoint(init_params(4, seed=2), tmp_path / "new.json")
    assert [f.name for f in tmp_path.iterdir()] == ["ckpt.json"]


def _outcome(read, path):
    """What ``read(path)`` gives: its error message, or every bit it loads."""
    try:
        p = read(path)
    except DataFormatError as exc:
        return "error", str(exc)
    for name in ("W1", "W2", "M"):
        m = getattr(p, name)
        assert m.dtype == np.float64 and m.flags.c_contiguous and m.flags.writeable
    mats = (getattr(p, name).tobytes() for name in ("W1", "W2", "M"))
    return "ok", p.d, p.seed, p.embeddings, *mats


def _whole_file_load(path) -> PolicyParams:
    """The version-3 reader as plain whole-file code: the file's bytes read
    at once, the header one ``json.loads``, each matrix one ``frombuffer``.
    The reference that ``load_checkpoint``, which streams the weights in
    blocks, must match on a regular file, bit for bit and message for
    message."""
    data = Path(path).read_bytes()
    magic = b"R2AG-CHECKPOINT 3\n"
    if not data.startswith(magic):
        raise DataFormatError('not a version-3 checkpoint (no "R2AG-CHECKPOINT 3" line); '
                              "versions 1 and 2 are no longer read", path=path)
    bound = r2ag.policy_net._HEADER_BYTES
    end = data.find(b"\n", len(magic), len(magic) + bound)
    if end < 0:
        raise DataFormatError(f"checkpoint header is not a line of at most {bound} bytes",
                              path=path)
    line, weights = data[len(magic) : end + 1], data[end + 1 :]
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"invalid checkpoint header: {exc}", path=path) from exc
    if not isinstance(header, dict):
        raise DataFormatError("invalid checkpoint header: not a JSON object", path=path)
    missing = [key for key in ("d", "seed", "embeddings", "weights") if key not in header]
    if missing:
        raise DataFormatError(f"malformed checkpoint: missing {missing}", path=path)
    d, seed, embeddings = header["d"], header["seed"], header["embeddings"]
    if type(d) is not int or d < 2 or type(seed) is not int:
        raise DataFormatError(
            f"d must be an int >= 2 and seed an int, got {d!r} and {seed!r}", path=path
        )
    if embeddings is not None and not isinstance(embeddings, str):
        raise DataFormatError(f"embeddings must be a string, got {embeddings!r}", path=path)
    shapes = param_shapes(d)
    size = 8 * sum(rows * cols for rows, cols in shapes.values())
    if len(weights) != size:
        raise DataFormatError(f"weights hold {len(weights)} bytes, expected {size} for d={d}",
                              path=path)
    if header["weights"] != "sha256:" + hashlib.sha256(weights).hexdigest():
        raise DataFormatError("weights do not match the sha256 in the header", path=path)
    mats, at = {}, 0
    for name, (rows, cols) in shapes.items():
        m = np.frombuffer(weights, "<f8", rows * cols, at).reshape(rows, cols)
        if not np.isfinite(m).all():
            raise DataFormatError(f"{name} contains non-finite values", path=path)
        mats[name], at = m.astype(np.float64), at + m.nbytes
    return PolicyParams(d, seed, mats["W1"], mats["W2"], mats["M"], embeddings)


def _header_edit(t: bytes, edit) -> bytes:
    """``t`` with ``edit`` applied to its header line only: the raw weights
    after it may hold any byte."""
    magic, header, weights = t.split(b"\n", 2)
    return magic + b"\n" + edit(header) + b"\n" + weights


def _weights_edit(t: bytes, edit) -> bytes:
    """``t`` with ``edit`` applied to its weights, under a header sha256 that
    matches them."""
    magic, header, weights = t.split(b"\n", 2)
    weights = edit(weights)
    fields = json.loads(header) | {"weights": "sha256:" + hashlib.sha256(weights).hexdigest()}
    return magic + b"\n" + json.dumps(fields).encode("ascii") + b"\n" + weights


@pytest.mark.parametrize("block_bytes", [4, 7, 24, None])  # half a float, 7, 3 floats, default
@pytest.mark.parametrize(
    "change",
    [
        lambda t: t,
        lambda t: _header_edit(t, lambda h: h.replace(b", ", b",\r\n ", 1)),  # CRLF ends it early
        lambda t: _header_edit(t, lambda h: h.replace(b", ", b",\r ")),  # a CR is JSON whitespace
        lambda t: _header_edit(t, lambda h: h.replace(b'"seed"', b'"\\u0073eed"')),  # escaped key
        lambda t: _header_edit(t, lambda h: h.replace(b'"d": 3', b'"d": 2, "d": 3')),  # last wins
        lambda t: _header_edit(t, lambda h: h.replace(b'"d": 3', b'"d": 3, "d": 4')),
        lambda t: _header_edit(  # a header past its bound
            t, lambda h: b'{"note": "' + b"B" * r2ag.policy_net._HEADER_BYTES + b'", ' + h[1:]),
        lambda t: t[:-4],  # cut inside M
        lambda t: t[: len(t) // 2],  # cut inside the weights
        lambda t: t + b"\n",  # one byte past M
        lambda t: _header_edit(t, lambda h: h[:-1] + b', "x": "\xc3\x28"}'),  # a UTF-8 error
        lambda t: _header_edit(  # a UTF-8 fingerprint
            t, lambda h: h.replace(b'"embeddings": "', b'"embeddings": "\xc3\xa9')),
        lambda t: t[:-1] + bytes([t[-1] ^ 1]),  # a weight bit flipped
        lambda t: _header_edit(  # a sha256 one digit too long
            t, lambda h: h.replace(b'"weights": "sha256:', b'"weights": "sha256:0')),
        lambda t: _header_edit(  # the last repeat wins
            t, lambda h: h.replace(b'"weights": ', b'"weights": null, "weights": ')),
        lambda t: _weights_edit(t, lambda w: w[:-8] + np.float64(np.nan).tobytes()),  # NaN in M
        lambda t: _weights_edit(t, lambda w: np.float64(-np.inf).tobytes() + w[8:]),  # -inf in W1
        lambda t: b"R2AG-CHECKPOINT 3\r\n" + t.split(b"\n", 1)[1],  # a CRLF magic line
        lambda t: _header_edit(t, lambda h: b"[" + h + b"]"),
        lambda t: _header_edit(t, lambda h: h.replace(b'"d": 3', b'"d": 3.0')),
    ],
)
def test_checkpoint_edits_read_as_one_json_load_of_the_file(
        tmp_path, monkeypatch, change, block_bytes):
    # the block reader gives the bits, or the message, of the whole-file reader
    if block_bytes is not None:
        monkeypatch.setattr(r2ag.policy_net, "CHECKPOINT_BLOCK_BYTES", block_bytes)
    p = _special_params(3)
    p.embeddings = "sha256:" + "ab" * 32
    path = tmp_path / "edited.json"
    path.write_bytes(change(_v3_bytes(p)))
    assert _outcome(load_checkpoint, path) == _outcome(_whole_file_load, path)


def test_checkpoint_reads_from_a_pipe(tmp_path):
    # a version-3 file is read in one sequential pass
    path = tmp_path / "ckpt.json"
    save_checkpoint(_special_params(2), path)
    r, w = os.pipe()
    try:
        os.write(w, path.read_bytes())  # a d=2 file fits the pipe's buffer
        os.close(w)
        w = None
        got = _outcome(load_checkpoint, f"/dev/fd/{r}")
    finally:
        os.close(r)
        if w is not None:
            os.close(w)
    assert got == _outcome(load_checkpoint, path)


def test_checkpoint_read_memory_is_one_copy_of_the_weights(tmp_path):
    # each matrix's bytes are read into its array a block at a time, so the
    # arrays and a block are all a load holds: no copy of the file's weights
    d = 128
    p = init_params(d, seed=0)
    save_checkpoint(p, tmp_path / "ckpt.json")
    param_bytes = sum(8 * rows * cols for rows, cols in param_shapes(d).values())
    tracemalloc.start()
    try:
        loaded = load_checkpoint(tmp_path / "ckpt.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * param_bytes + 4 * r2ag.policy_net.CHECKPOINT_BLOCK_BYTES
    for name in ("W1", "W2", "M"):
        assert getattr(loaded, name).tobytes() == getattr(p, name).tobytes()


def _load_bytes(tmp_path, data: bytes, pipe: bool = False):
    """``load_checkpoint`` of ``data``, from a file or from a pipe."""
    if not pipe:
        (tmp_path / "ckpt.json").write_bytes(data)
        return load_checkpoint(tmp_path / "ckpt.json")
    r, w = os.pipe()
    try:
        os.write(w, data)  # a d=2 file fits the pipe's buffer
        os.close(w)
        w = None
        return load_checkpoint(f"/dev/fd/{r}")
    finally:
        os.close(r)
        if w is not None:
            os.close(w)


# d=2 weights are 1184 bytes: the first byte of W1, one inside W2, the last of M
@pytest.mark.parametrize("at", [-1184, -500, -1])
@pytest.mark.parametrize("pipe", [False, True])
def test_v3_changed_weight_byte_fails_the_digest(tmp_path, at, pipe):
    data = bytearray(_v3_bytes(_special_params(2)))
    data[at] ^= 0xFF
    with pytest.raises(DataFormatError, match="weights do not match the sha256 in the header$"):
        _load_bytes(tmp_path, bytes(data), pipe)


@pytest.mark.parametrize("pipe", [False, True])
def test_v3_cut_or_long_weights_are_a_data_error(tmp_path, pipe):
    good = _v3_bytes(_special_params(2))
    for cut in (1, 8, 1184):  # a byte, a float, every weight
        message = f"weights hold {1184 - cut} bytes, expected 1184 for d=2$"
        with pytest.raises(DataFormatError, match=message):
            _load_bytes(tmp_path, good[:-cut], pipe)
    long = "weights hold more than the 1184 bytes of d=2" if pipe else "weights hold 1185 bytes"
    with pytest.raises(DataFormatError, match=long):
        _load_bytes(tmp_path, good + b"\0", pipe)


def test_v3_header_length_is_bounded(tmp_path):
    magic, header, weights = _v3_bytes(_special_params(2)).split(b"\n", 2)
    padded = header[:-1] + b" " * (1 << 16) + b"}"
    for data in (magic + b"\n" + padded + b"\n" + weights, magic + b"\n" + header[:-1]):
        with pytest.raises(DataFormatError, match="header is not a line of at most 65536 bytes"):
            _load_bytes(tmp_path, data)
    # a header just under the bound reads
    fits = header[:-1] + b" " * ((1 << 16) - len(header) - 1) + b"}"
    assert _load_bytes(tmp_path, magic + b"\n" + fits + b"\n" + weights).d == 2


@pytest.mark.parametrize(
    "header, message",  # the message after the path, as a regex
    [
        (b"[1]", "invalid checkpoint header: not a JSON object"),
        (b'{"d": 2',
         r"invalid checkpoint header: Expecting ',' delimiter: line 2 column 1 \(char 8\)"),
        (b'{"d": "\xff"}', "invalid checkpoint header: 'utf-8' codec can't decode byte 0xff "
                         "in position 7: invalid start byte"),
        (b"[" * 5000, "invalid checkpoint header: maximum recursion depth exceeded.*"),
        (b'{"seed": 5, "embeddings": null, "weights": ""}',
         r"malformed checkpoint: missing \['d'\]"),
        (b'{"d": 2, "embeddings": null, "weights": ""}',
         r"malformed checkpoint: missing \['seed'\]"),
        (b'{"d": 2, "seed": 5, "weights": ""}',
         r"malformed checkpoint: missing \['embeddings'\]"),
        (b'{"d": 2, "seed": 5, "embeddings": null}',
         r"malformed checkpoint: missing \['weights'\]"),
        (b'{"d": 1, "seed": 5, "embeddings": null, "weights": ""}',
         "d must be an int >= 2 and seed an int, got 1 and 5"),
        (b'{"d": 2.0, "seed": 5, "embeddings": null, "weights": ""}',
         r"d must be an int >= 2 and seed an int, got 2\.0 and 5"),
        (b'{"d": "2", "seed": 5, "embeddings": null, "weights": ""}',
         "d must be an int >= 2 and seed an int, got '2' and 5"),
        (b'{"d": 2, "seed": null, "embeddings": null, "weights": ""}',
         "d must be an int >= 2 and seed an int, got 2 and None"),
        (b'{"d": 2, "seed": 5, "embeddings": 7, "weights": ""}',
         "embeddings must be a string, got 7"),
        (b'{"d": 100000, "seed": 5, "embeddings": null, "weights": ""}',
         "weights hold 1184 bytes, expected 2960000000000 for d=100000"),  # before any array
        (b'{"d": 2, "seed": 5, "embeddings": null, "weights": "sha256:00"}',
         "weights do not match the sha256 in the header"),
    ],
)
def test_v3_bad_header_is_a_data_error(tmp_path, header, message):
    magic, _, weights = _v3_bytes(_special_params(2)).split(b"\n", 2)
    path = re.escape(str(tmp_path / "ckpt.json"))
    with pytest.raises(DataFormatError, match=f"^{path}: {message}$"):
        _load_bytes(tmp_path, magic + b"\n" + header + b"\n" + weights)


def test_v3_header_d_too_large_for_memory_is_a_data_error(tmp_path):
    # a pipe's length is unknown until its end, so the arrays are made first
    magic, _, weights = _v3_bytes(_special_params(2)).split(b"\n", 2)
    for d in (10**6, 10**10):  # more bytes than any machine has, more than an array can index
        header = b'{"d": %d, "seed": 5, "embeddings": null, "weights": ""}' % d
        with pytest.raises(DataFormatError, match=f"weights of d={d} do not fit in memory"):
            _load_bytes(tmp_path, magic + b"\n" + header + b"\n" + weights, pipe=True)


def test_v3_non_finite_weights_under_their_digest_are_a_data_error(tmp_path):
    p = _special_params(2)
    p.W2[0, 0] = np.inf
    with pytest.raises(DataFormatError, match="W2 contains non-finite values"):
        _load_bytes(tmp_path, _v3_bytes(p))
