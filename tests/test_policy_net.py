from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import math
import os
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_logprob_grads, max_rel_err, oracle_load_checkpoint

import r2ag.policy_net
from r2ag.errors import DataFormatError
from r2ag.policy_net import (
    GradientBundle,
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


def test_block_backward_into_a_used_bundle_equals_a_new_one():
    # a caller may build every gradient in one bundle: its old values must not leak
    rng = np.random.default_rng(4)
    p = init_params(3, seed=0)
    _, _, actions = _random_state(rng, 3, 4)
    block = forward(p, rng.standard_normal((3, 12)), rng.standard_normal((3, 3)), actions)
    parts = [([block], [0, 2], [1, 3], [0.5, -2.0])]
    used = GradientBundle(*(np.full_like(m, np.nan) for m in (p.W1, p.W2, p.M)))
    for given in (parts, []):
        fresh = block_backward(p, given)
        assert block_backward(p, given, used) is used
        for name in ("dW1", "dW2", "dM"):
            assert getattr(used, name).tobytes() == getattr(fresh, name).tobytes()


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


def _json_dump_bytes(p) -> bytes:
    """The checkpoint as one ``json.dump`` of the whole v2 payload writes it."""
    payload = {"version": 2, "d": p.d, "seed": p.seed, "embeddings": p.embeddings}
    for name in ("W1", "W2", "M"):
        raw = np.ascontiguousarray(getattr(p, name), dtype="<f8").tobytes()
        payload[name] = base64.b64encode(raw).decode("ascii")
    buf = io.StringIO()
    json.dump(payload, buf)
    return (buf.getvalue() + "\n").encode("utf-8")


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


def test_checkpoint_bytes_equal_json_dump_of_payload(tmp_path):
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
def test_checkpoint_written_in_blocks_equals_json_dump_of_payload(
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


def test_v1_checkpoint_is_refused():
    # written by the version-1 writer: matrices as nested JSON lists, no
    # fingerprint; only versions 2 and 3 are read
    path = Path(__file__).parent / "data" / "checkpoint_v1_d2.json"
    assert json.loads(path.read_text())["version"] == 1
    with pytest.raises(DataFormatError, match="unsupported checkpoint version 1$"):
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


def test_checkpoint_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.json"
    for payload in ({"version": 99}, {"version": "2"}, {"version": True}, [2], 2):
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(path)


def test_checkpoint_rejects_bad_shape(tmp_path):
    # a (1, 1) M where d=3 needs (3, 3): the byte count names the shape
    payload = {**_v2_payload(3), "M": base64.b64encode(np.ones(1, "<f8").tobytes()).decode()}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match=r"M has 8 bytes, expected 72 for shape \(3, 3\)"):
        load_checkpoint(path)


def _v2_payload(d: int = 2) -> dict:
    p = init_params(d, seed=0)
    return {
        "version": 2, "d": d, "seed": 0, "embeddings": None,
        **{
            name: base64.b64encode(getattr(p, name).astype("<f8").tobytes()).decode()
            for name in ("W1", "W2", "M")
        },
    }


def _nan_matrix(d: int) -> str:
    m = np.zeros((d, d))
    m[0, 0] = np.nan
    return base64.b64encode(m.astype("<f8").tobytes()).decode()


@pytest.mark.parametrize(
    "change, match",
    [
        ({"M": "not*base64"}, "base64"),
        ({"M": "AAAA"}, "bytes"),  # valid base64, 3 bytes instead of 32
        ({"M": "ü"}, "base64"),
        ({"M": "*" + _v2_payload()["M"]}, "base64"),  # lenient decoding skips "*"
        ({"M": [[0.0, 0.0], [0.0, 0.0]]}, "string"),
        ({"M": None}, "string"),
        ({"d": 2.0}, "int"),
        ({"d": "2"}, "int"),
        ({"d": 1}, "int"),
        ({"d": 3}, "bytes"),
        ({"seed": None}, "int"),
        ({"embeddings": 7}, "string"),
        ({"M": _nan_matrix(2)}, "non-finite"),
        ({"version": 3}, "version"),
    ],
)
def test_malformed_v2_checkpoint_raises_data_format_error(tmp_path, change, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_v2_payload() | change), encoding="utf-8")
    with pytest.raises(DataFormatError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["d", "seed", "embeddings", "W1", "W2", "M"])
def test_v2_checkpoint_missing_key_raises_data_format_error(tmp_path, key):
    payload = _v2_payload()
    del payload[key]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match="missing"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "content",
    [b'{"version": 2, "d": \xff}', b"[" * 100_000, b'{"version": 2, "W1": ' + b"[" * 100_000],
)
def test_undecodable_checkpoint_raises_data_format_error(tmp_path, content):
    # bytes that are not UTF-8, and nesting too deep for the JSON decoder
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(DataFormatError, match="invalid JSON"):
        load_checkpoint(path)


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


def _assert_reads_as_oracle(path, block_bytes=None):
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes is not None:
            mp.setattr(r2ag.policy_net, "CHECKPOINT_BLOCK_BYTES", block_bytes)
        got = _outcome(load_checkpoint, path)
    assert got == _outcome(oracle_load_checkpoint, path)


def _b64(m) -> str:
    return base64.b64encode(np.asarray(m, dtype="<f8").tobytes()).decode()


_WS = st.text(alphabet=" \t\n\r", max_size=2)


@st.composite
def _checkpoint_bytes(draw):
    """A checkpoint file's bytes: the v2 keys in any order, with any
    whitespace, extra and repeated keys, matrix strings that decode as they
    stand and ones that do not, then maybe a cut or an inserted byte."""
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def matrix(name):
        shape = param_shapes(d)[name]
        m = rng.standard_normal(shape) * 10.0 ** draw(st.integers(-300, 300))
        kind = draw(st.sampled_from(
            ["ok"] * 6 + ["slash", "nan", "size", "junk", "raw", "escape", "json"]))
        if kind == "nan":
            bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            m.flat[draw(st.integers(0, m.size - 1))] = bad
        text = _b64(m[: -1 if kind == "size" else None])
        if kind == "junk":  # a character put in, or in place of another
            at = draw(st.integers(0, len(text) - 1))
            text = (text[:at] + draw(st.sampled_from(list("*=-_ \u00fc\\\"A")))
                    + text[at + draw(st.integers(0, 1)):])
        if kind == "json":
            return draw(st.sampled_from(["null", "[[0.0]]", "7", '""', '"AAAA"', '"AA=="']))
        value = json.dumps(text, ensure_ascii=kind != "raw")
        if kind == "slash":
            value = value.replace("/", "\\/")
        if kind == "escape":
            value = '"\\u0041' + value[1:]
        return value

    def key(name):  # plain, or its first letter as a \u escape
        escaped = f'"\\u{ord(name[0]):04x}{name[1:]}"'
        return draw(st.sampled_from([json.dumps(name)] * 3 + [escaped]))

    items = [
        ('"version"', draw(st.sampled_from(["2"] * 8 + ["3", '"2"']))),
        ('"d"', str(d)),
        ('"seed"', str(draw(st.integers(-5, 5)))),
        ('"embeddings"', draw(st.sampled_from(["null", '"sha256:ab"', '"AAAA"']))),
        *((key(n), matrix(n)) for n in ("W1", "W2", "M")),
    ]
    items = list(draw(st.permutations(items)))
    for _ in range(draw(st.integers(0, 3))):  # extra and repeated keys
        extra = draw(st.sampled_from(["W1", "W2", "M", "note", "W1x", "nested"]))
        if extra in ("note", "W1x"):
            tail = draw(st.sampled_from(["", "/", "\u00e9"]))
            value = json.dumps("A" * draw(st.integers(0, 200)) + tail)
        elif extra == "nested":
            value = '{"W1": "AAAA", "M": ["W2", {"M": "AA=="}], "W2": "AAAA"}'
        else:
            value = matrix(extra)
        items.insert(draw(st.integers(0, len(items))), (json.dumps(extra), value))
    text = draw(_WS) + "{" + ",".join(
        draw(_WS) + k + draw(_WS) + ":" + draw(_WS) + v + draw(_WS) for k, v in items
    ) + "}" + draw(_WS)
    data = text.encode("utf-8")
    change = draw(st.sampled_from(["none"] * 4 + ["cut", "insert", "bom"]))
    if change == "cut":
        data = data[: draw(st.integers(0, len(data)))]
    elif change == "insert":
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from([b"\xff", b"\xc3", b'"', b"\\", b",", b"}", b"\r"]))
        data = data[:at] + byte + data[at:]
    elif change == "bom":
        data = b"\xef\xbb\xbf" + data
    return data


@settings(max_examples=400, deadline=None)
@given(data=_checkpoint_bytes())
def test_checkpoint_reads_as_one_json_load_of_the_file(tmp_path_factory, data):
    # every file gives the bits, or the message, of the whole-file reader;
    # these files are version 2, which is read whole, so no block size applies
    path = tmp_path_factory.getbasetemp() / "oracle.json"
    path.write_bytes(data)
    _assert_reads_as_oracle(path)


def _saved_v2(d=3) -> bytes:
    p = _special_params(d)
    p.embeddings = "sha256:" + "ab" * 32
    return _json_dump_bytes(p)


@pytest.mark.parametrize("block_bytes", [4, 7, 24, None])
@pytest.mark.parametrize(
    "change",
    [
        lambda t: t,
        lambda t: t.replace(b", ", b",\r\n "),  # CRLF line ends
        lambda t: t.replace(b'"W2": "', b'"W2": "\\u0041', 1),  # an escape reads W2 inline
        lambda t: t.replace(b"/", b"\\/"),
        lambda t: t.replace(b'"M": "', b'"M": null, "M": "', 1),  # the last repeat wins
        lambda t: t.replace(b'"M": "', b'"M": "AAAA", "M": 5, "x": "', 1),
        lambda t: t.replace(b'"d": 3', b'"note": "' + b"B" * 300 + b'", "d": 3'),
        lambda t: t[:-4],  # cut inside M: the string is unterminated
        lambda t: t[: len(t) // 2],  # cut inside W2
        lambda t: t[:-2] + b",}\n",  # a JSON error after every matrix
        lambda t: t[:-2] + b'\r\n\r\n"\xc3\x28"}\n',  # a UTF-8 error after every matrix
        lambda t: t.replace(b'"W2"', b'"W2" "W2"', 1),
        lambda t: t.replace(b'", "M"', b'=", "M"', 1),  # W2 padded past its length
        lambda t: t.replace(b'"W1": "', b'"W1": "\xc3\xa9', 1),
        lambda t: t.replace(b'"W1": "', b'"W1": "AA=A', 1),  # "=" inside: W1 reads inline
        lambda t: t.replace(b'", "W2"', b'===", "W2"', 1),  # three "="
        lambda t: t.replace(b'"W1": "', b'"W1": "AAAA", "x": {"a": [1, {"W1": "', 1),
        lambda t: t.replace(b'{', b'[{', 1).replace(b'}\n', b'}]\n'),
        lambda t: t.replace(b'}\n', b', "\\u00572": ""}\n'),  # an escaped key is W2 too
        lambda t: t.replace(b'"M": "', b'"\\u004d": null, "\\u004d": "', 1),
    ],
)
def test_checkpoint_edits_read_as_one_json_load_of_the_file(tmp_path, change, block_bytes):
    path = tmp_path / "edited.json"
    path.write_bytes(change(_saved_v2()))
    _assert_reads_as_oracle(path, block_bytes)


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
    # a version-2 file's text and each whole base64 string held at once are
    # 2.67x the parameter bytes; version 3 leaves the arrays and a block
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
    "header, match",
    [
        (b"[1]", "invalid checkpoint header: not a JSON object"),
        (b'{"d": 2', "invalid checkpoint header: Expecting"),
        (b'{"d": "\xff"}', "invalid checkpoint header: 'utf-8' codec"),
        (b"[" * 5000, "invalid checkpoint header"),
        (b'{"d": 2, "seed": 5, "embeddings": null}', r"missing \['weights'\]"),
        (b'{"d": 1, "seed": 5, "embeddings": null, "weights": ""}', "d must be an int >= 2"),
        (b'{"d": 100000, "seed": 5, "embeddings": null, "weights": ""}',
         "expected 2960000000000 for d=100000"),  # refused before any array is made
        (b'{"d": 2, "seed": 5, "embeddings": null, "weights": "sha256:00"}', "sha256"),
    ],
)
def test_v3_bad_header_is_a_data_error(tmp_path, header, match):
    magic, _, weights = _v3_bytes(_special_params(2)).split(b"\n", 2)
    with pytest.raises(DataFormatError, match=match):
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
