from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from helpers import MockEndpoint, make_kg, random_kg

import r2ag.embeddings
import r2ag.generation
from r2ag.concept_linker import PatientInput
from r2ag.embeddings import EmbeddingTable, group_vectors, pseudo_embeddings
from r2ag.errors import (
    DataFormatError,
    EndpointNetworkError,
    EndpointResponseError,
    EndpointStatusError,
    EndpointTimeoutError,
    UnlinkableInputError,
)
from r2ag.generation import (
    DEFAULT_TEMPLATE,
    GeneratorConfig,
    PromptBundle,
    build_prompt_bundle,
    generate,
    render_paths,
    retrieve_corpus,
    select_paths,
    stub_generate,
)
from r2ag.gro_trainer import patient_context, run_rollout
from r2ag.policy_net import greedy_action, init_params, sample_action
from r2ag.retrieval_env import GROUP_LEAP, PathStep, ReasoningPath


@pytest.fixture
def render_kg():
    return make_kg(
        [
            ("A1", "aspirin", "Drugs"),
            ("D1", "chest pain", "Disorders"),
            ("D2", "cough", "Disorders"),
        ],
        [("D1", "causes", "D2")],
    )


def _mk_path(kg, origin, *steps):
    """Path from concept ids: ``origin`` then (label, id) steps."""
    all_steps = [PathStep(None, kg.index[origin])]
    all_steps += [PathStep(label, kg.index[cid]) for label, cid in steps]
    return ReasoningPath(kg.index[origin], all_steps)


def test_render_single_concept_path(render_kg):
    block = render_paths([_mk_path(render_kg, "A1")], render_kg)
    assert block == "aspirin [Drugs]"


def test_render_three_step_path_golden(render_kg):
    path = _mk_path(render_kg, "A1", (GROUP_LEAP, "D1"), ("causes", "D2"))
    block = render_paths([path], render_kg)
    assert block == (
        "aspirin [Drugs] --group leap--> chest pain [Disorders] "
        "--causes--> cough [Disorders]"
    )


def test_render_leap_literal(render_kg):
    path = _mk_path(render_kg, "A1", (GROUP_LEAP, "D1"))
    assert "--group leap-->" in render_paths([path], render_kg)


def test_render_distinct_paths_distinct_blocks(render_kg):
    a = [_mk_path(render_kg, "A1"), _mk_path(render_kg, "D1")]
    b = [_mk_path(render_kg, "A1"), _mk_path(render_kg, "D2")]
    c = [_mk_path(render_kg, "A1", ("causes", "D2"))]
    blocks = {render_paths(x, render_kg) for x in (a, b, c)}
    assert len(blocks) == 3


def test_render_empty_raises(render_kg):
    with pytest.raises(ValueError):
        render_paths([], render_kg)


def test_bundle_line_count_matches_paths(render_kg):
    patient = PatientInput("P", "Text here.")
    paths = [_mk_path(render_kg, c) for c in ("A1", "D1", "D2")]
    bundle = build_prompt_bundle(patient, paths, render_kg)
    assert len(bundle.path_block.splitlines()) == 3
    assert bundle.system == DEFAULT_TEMPLATE["system"]


def test_bundle_max_paths_keeps_smallest_origins(render_kg):
    patient = PatientInput("P", "Text here.")
    paths = [_mk_path(render_kg, c) for c in ("D2", "A1", "D1")]
    bundle = build_prompt_bundle(patient, select_paths(paths, 2), render_kg)
    lines = bundle.path_block.splitlines()
    assert lines == ["aspirin [Drugs]", "chest pain [Disorders]"]


def test_bundle_empty_paths_gives_empty_block(render_kg):
    bundle = build_prompt_bundle(PatientInput("P", "Text."), [], render_kg)
    assert bundle.path_block == ""
    assert "(none)" in bundle.user_message()


def test_custom_template_file_overrides_default(render_kg, tmp_path):
    import json

    from r2ag.errors import DataFormatError
    from r2ag.generation import load_template

    path = tmp_path / "tpl.json"
    path.write_text(json.dumps({
        "version": "v2", "system": "custom system", "instruction": "custom task",
    }))
    tpl = load_template(path)
    bundle = build_prompt_bundle(
        PatientInput("P", "Text."), [_mk_path(render_kg, "A1")], render_kg, template=tpl
    )
    assert bundle.system == "custom system"
    assert bundle.user_message().endswith("custom task")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": "v2"}))
    with pytest.raises(DataFormatError, match="system"):
        load_template(bad)


def test_template_that_is_not_an_object_is_a_data_error(tmp_path):
    from r2ag.errors import DataFormatError
    from r2ag.generation import load_template

    path = tmp_path / "tpl.json"
    path.write_text("[]")
    with pytest.raises(DataFormatError, match="expected a JSON object"):
        load_template(path)


def test_bundle_concept_names_deduped_in_path_order(render_kg):
    paths = [
        _mk_path(render_kg, "A1", (GROUP_LEAP, "D1"), ("causes", "D2")),
        _mk_path(render_kg, "D1"),
    ]
    bundle = build_prompt_bundle(PatientInput("P", "Text."), paths, render_kg)
    assert bundle.concept_names == ("aspirin", "chest pain", "cough")
    assert build_prompt_bundle(PatientInput("P", "Text."), [], render_kg).concept_names == ()


def test_stub_echoes_names_that_look_like_rendered_syntax():
    # a name holding an arrow or a bracket tag is echoed whole, not split
    kg = make_kg(
        [("A1", "left --x--> right", "Drugs"), ("D1", "pain [acute]", "Disorders")],
        [("A1", "causes", "D1")],
    )
    bundle = build_prompt_bundle(
        PatientInput("P", "Seen today."), [_mk_path(kg, "A1", ("causes", "D1"))], kg
    )
    assert bundle.path_block == (
        "left --x--> right [Drugs] --causes--> pain [acute] [Disorders]"
    )
    assert stub_generate(bundle) == (
        "Discharge summary. Admission noted: Seen today. "
        "Hospital course addressed left --x--> right, pain [acute]."
    )


def test_stub_contains_every_path_concept_name(render_kg):
    patient = PatientInput("P", "Fatigue for two days. Also cough.")
    paths = [_mk_path(render_kg, "A1", (GROUP_LEAP, "D1"), ("causes", "D2"))]
    bundle = build_prompt_bundle(patient, paths, render_kg)
    out = stub_generate(bundle)
    for name in ("aspirin", "chest pain", "cough"):
        assert name in out


def test_stub_golden_string(render_kg):
    patient = PatientInput("P", "Allergies: none. Fatigue reported.")
    paths = [_mk_path(render_kg, "A1", (GROUP_LEAP, "D1"), ("causes", "D2"))]
    bundle = build_prompt_bundle(patient, paths, render_kg)
    assert stub_generate(bundle) == (
        "Discharge summary. Admission noted: Allergies: none. "
        "Hospital course addressed aspirin, chest pain, cough."
    )


def test_stub_empty_block_echoes_only(render_kg):
    bundle = build_prompt_bundle(
        PatientInput("P", "Chest pain on exertion. More text."), [], render_kg
    )
    assert stub_generate(bundle) == (
        "Discharge summary. Admission noted: Chest pain on exertion."
    )


@pytest.fixture
def inference_setup(tiny_kg):
    table = pseudo_embeddings(tiny_kg, 8, seed=1)
    from r2ag.policy_net import init_params

    params = init_params(8, seed=3)
    patient = PatientInput("P", "cough and chest pain with fatigue")
    return params, patient, tiny_kg, table, group_vectors(tiny_kg, table)


def test_retrieve_for_patient_deterministic(inference_setup):
    params, patient, kg, table, gv = inference_setup
    [a] = retrieve_corpus(params, [patient], kg, table, gv, max_steps=4)
    [b] = retrieve_corpus(params, [patient], kg, table, gv, max_steps=4)
    assert a == b
    assert len(a) == 3  # one path per keyword in the dominant group


def test_retrieve_for_patient_golden_trace(inference_setup):
    # hand-checked: every hop below is the tail's only Disorders neighbor,
    # D4 has none (freezes immediately), and leaps to Anatomy degenerate
    # because no keyword or path concept lies there
    params, patient, kg, table, gv = inference_setup
    [paths] = retrieve_corpus(params, [patient], kg, table, gv, max_steps=4)
    assert [p.to_dict(kg) for p in paths] == [
        {"origin": "D3", "steps": [{"label": "finding_of", "concept": "D4"}]},
        {"origin": "D1", "steps": [
            {"label": "finding_of", "concept": "D3"},
            {"label": "finding_of", "concept": "D4"},
        ]},
        {"origin": "D4", "steps": []},
    ]


def test_retrieve_for_patient_paths_are_valid(inference_setup, tiny_rows):
    params, patient, kg, table, gv = inference_setup
    [paths] = retrieve_corpus(params, [patient], kg, table, gv, max_steps=4)
    edge_set = set(tiny_rows[1])
    for path in paths:
        assert path.steps[0].label is None
        for prev, cur in zip(path.steps, path.steps[1:]):
            if cur.label == GROUP_LEAP:
                assert 0 <= cur.concept < len(kg.ids)
            else:
                assert (kg.ids[prev.concept], cur.label, kg.ids[cur.concept]) in edge_set


def test_retrieve_for_patient_unlinkable_raises(inference_setup):
    params, _, kg, table, gv = inference_setup
    [got] = retrieve_corpus(params, [PatientInput("P", "nothing matches here")], kg, table, gv)
    assert isinstance(got, UnlinkableInputError)


def test_retrieve_for_patient_rejects_table_of_another_row_count(inference_setup):
    params, patient, kg, table, gv = inference_setup
    short = EmbeddingTable(table.dim, table.matrix[:-1])
    with pytest.raises(DataFormatError, match="6 rows, the graph 7 concepts"):
        retrieve_corpus(params, [patient], kg, short, gv)


def test_retrieve_for_patient_sampled_mode(inference_setup):
    params, patient, kg, table, gv = inference_setup
    rng = np.random.default_rng(0)
    [paths] = retrieve_corpus(
        params, [patient], kg, table, gv, max_steps=4, greedy=False, rng=rng
    )
    assert paths
    with pytest.raises(ValueError):
        retrieve_corpus(params, [patient], kg, table, gv, greedy=False, rng=None)


@pytest.mark.parametrize("greedy", [True, False])
def test_lockstep_serving_equals_one_patient_rollouts(monkeypatch, greedy):
    # criterion-3-style random graphs, corpora with unlinkable patients mixed
    # in, and gather budgets that cut them into blocks of one to all of their
    # patients: retrieve_corpus ends exactly as one rollout per linkable
    # patient run one after another, each drawing its own T uniforms when
    # sampled
    real_run = r2ag.generation.run_rollouts
    blocks = []  # (patients, largest explored-set bound in bytes) per block

    def spy(params, ctxs, kg, table, gv, T, *rest, **kw):
        paths = [sum(kg.group_at[c] == ctx.k_init for c in ctx.keywords) for ctx in ctxs]
        blocks.append((len(ctxs), max(paths) * (1 + 2 * T) * table.dim * 8))
        return real_run(params, ctxs, kg, table, gv, T, *rest, **kw)

    monkeypatch.setattr(r2ag.generation, "run_rollouts", spy)
    rng = np.random.default_rng(909 if greedy else 910)
    served = unlinkable = multi_block = leaps = frozen = 0
    for _ in range(40):
        # one path's explored bound is 8 x (1 + 2T) x 8 <= 832 bytes here
        budget = int(rng.choice([1, 2_000, 8_000, 1 << 25]))
        monkeypatch.setattr(r2ag.generation, "SERVE_GATHER_BYTES", budget)
        blocks.clear()
        n_groups = int(rng.integers(3, 7))
        per_group = int(rng.integers(4, min(34, 200 // n_groups + 1)))
        kg = random_kg(rng, n_groups, per_group, p_intra=0.15, p_cross=0.03)
        table = pseudo_embeddings(kg, 8, seed=int(rng.integers(100_000)))
        gv = group_vectors(kg, table)
        params = init_params(8, seed=int(rng.integers(1000)))
        T = int(rng.integers(1, 7))
        patients = []
        for p in range(int(rng.integers(1, 16))):
            if rng.random() < 0.2:
                text = "nothing in this text names a concept"
            else:
                picks = rng.permutation(len(kg.ids))[: int(rng.integers(1, 8))]
                text = " and ".join(kg.names[c] for c in picks)
            patients.append(PatientInput(f"P{p:02d}", text))
        seed = int(rng.integers(1000))
        block_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        results = retrieve_corpus(params, patients, kg, table, gv, T, greedy, block_rng)
        assert len(results) == len(patients)
        for patient, got in zip(patients, results):
            try:
                ctx = patient_context(patient.pre_admission, kg, table)
            except UnlinkableInputError:
                assert isinstance(got, UnlinkableInputError)
                unlinkable += 1
                continue
            if greedy:
                select = greedy_action
            else:
                u = iter(single_rng.random(T))
                select = lambda dist: sample_action(dist, next(u))  # noqa: E731
            alone = run_rollout(params, ctx, kg, table, gv, T, select)
            assert got == alone.paths
            served += 1
            leaps += sum(s.label == GROUP_LEAP for p in got for s in p.steps)
            frozen += sum(alone.state.frozen)
        assert block_rng.bit_generator.state == single_rng.bit_generator.state
        sizes = [n for n, _ in blocks]
        assert sum(sizes) == len(patients) - sum(
            isinstance(got, UnlinkableInputError) for got in results
        )
        assert all(n == 1 or n * widest <= budget for n, widest in blocks)
        multi_block += 1 < len(sizes) < sum(sizes)
    assert served > 150 and unlinkable > 20 and multi_block > 5
    assert leaps > 50 and frozen > 50


def test_serving_peak_is_the_gather_budget_plus_one_chunk():
    # a skewed corpus: 300 one-concept notes and one note that names a whole
    # group of 150 concepts, each with about 90 in-group neighbours. That
    # note's paths have about 13,500 candidates a step, whose vectors the
    # budget does not count; scored a chunk at a time, they hold one chunk
    d, T = 128, 3
    rng = np.random.default_rng(5)
    kg = random_kg(rng, 4, 150, p_intra=0.6, p_cross=0.002)
    table = pseudo_embeddings(kg, d, seed=1)
    gv = group_vectors(kg, table)
    params = init_params(d, seed=2)
    patients = [PatientInput(f"P{i:03d}", kg.names[int(rng.integers(len(kg.ids)))])
                for i in range(300)]
    whole = [kg.names[c] for c in range(len(kg.ids)) if kg.group_at[c] == 0]
    patients.insert(150, PatientInput("WHOLE", " and ".join(whole)))
    chunk_bytes = r2ag.embeddings.GATHER_ROWS * 3 * d * 8  # table rows + 2 vectors each
    tracemalloc.start()
    try:
        results = retrieve_corpus(params, patients, kg, table, gv, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results[150]) == len(whole)
    assert peak <= r2ag.generation.SERVE_GATHER_BYTES + chunk_bytes


def _bundle():
    return PromptBundle(
        system="sys", patient_text="Patient text.", path_block="", instruction="write",
        concept_names=(),
    )


def test_generate_success_and_payload_shape(monkeypatch):
    monkeypatch.setenv("R2AG_API_KEY", "sekret")
    with MockEndpoint([("ok", "generated text")]) as server:
        cfg = GeneratorConfig(endpoint=server.url, model="test-model", timeout_s=5)
        out = generate(cfg, _bundle())
        assert out == "generated text"
        req = server.requests[0]
        assert req["model"] == "test-model"
        assert req["messages"][0]["role"] == "system"
        assert req["messages"][1]["role"] == "user"
        assert "Patient text." in req["messages"][1]["content"]
        assert server.headers[0].get("Authorization") == "Bearer sekret"


def test_generate_retries_then_succeeds():
    with MockEndpoint([("status", 500), ("ok", "second try")]) as server:
        cfg = GeneratorConfig(endpoint=server.url, timeout_s=5, max_retries=2)
        assert generate(cfg, _bundle()) == "second try"
        assert len(server.requests) == 2


def test_generate_500_exhausts_retries():
    with MockEndpoint([("status", 500)]) as server:
        cfg = GeneratorConfig(endpoint=server.url, timeout_s=5, max_retries=2)
        with pytest.raises(EndpointStatusError) as exc:
            generate(cfg, _bundle())
        assert exc.value.status == 500
        assert exc.value.attempts == 3
        assert len(server.requests) == 3


def test_generate_4xx_fails_fast():
    with MockEndpoint([("status", 403)]) as server:
        cfg = GeneratorConfig(endpoint=server.url, timeout_s=5, max_retries=2)
        with pytest.raises(EndpointStatusError) as exc:
            generate(cfg, _bundle())
        assert exc.value.status == 403
        assert len(server.requests) == 1


def test_generate_malformed_body():
    with MockEndpoint([("garbage",)]) as server:
        cfg = GeneratorConfig(endpoint=server.url, timeout_s=5)
        with pytest.raises(EndpointResponseError):
            generate(cfg, _bundle())


def test_generate_timeout():
    with MockEndpoint([("sleep", 1.0)]) as server:
        cfg = GeneratorConfig(endpoint=server.url, timeout_s=0.2, max_retries=0)
        with pytest.raises(EndpointTimeoutError):
            generate(cfg, _bundle())


def test_generate_network_error():
    cfg = GeneratorConfig(endpoint="http://127.0.0.1:9/none", timeout_s=0.5, max_retries=1)
    with pytest.raises(EndpointNetworkError) as exc:
        generate(cfg, _bundle())
    assert exc.value.attempts == 2


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(temperature=-1).validate()
    with pytest.raises(ValueError):
        GeneratorConfig(timeout_s=0).validate()
    for bad in (0, -5):
        with pytest.raises(ValueError, match="max_tokens must be >= 1"):
            GeneratorConfig(max_tokens=bad).validate()
    with pytest.raises(ValueError):
        generate(GeneratorConfig(endpoint=""), _bundle())
