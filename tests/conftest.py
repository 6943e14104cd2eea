from __future__ import annotations

import numpy as np
import pytest

from helpers import make_kg

from r2ag.embeddings import EmbeddingTable, pseudo_embeddings


@pytest.fixture
def tiny_kg():
    """Two groups, hand-written names and edges, used across unit tests."""
    concepts = [
        ("D1", "chest pain", "Disorders"),
        ("D2", "exertional chest pain", "Disorders"),
        ("D3", "cough", "Disorders"),
        ("D4", "fatigue", "Disorders"),
        ("A1", "coronary artery", "Anatomy"),
        ("A2", "lung", "Anatomy"),
        ("A3", "heart", "Anatomy"),
    ]
    edges = [
        ("D1", "finding_of", "D3"),
        ("D1", "located_in", "A3"),
        ("D1", "located_in", "A1"),
        ("D3", "located_in", "A2"),
        ("D3", "finding_of", "D4"),
        ("A1", "part_of", "A3"),
        ("A3", "associated_with", "D4"),
        ("A2", "part_of", "A3"),
    ]
    return make_kg(concepts, edges)


@pytest.fixture
def tiny_table(tiny_kg):
    return pseudo_embeddings(tiny_kg, 8, seed=11)


def direct_table(vectors: dict[str, list[float]]) -> EmbeddingTable:
    """Table with the given (not re-normalized) rows in sorted-id order,
    which is a graph's int order when the ids are that graph's concepts."""
    ids = tuple(sorted(vectors))
    return EmbeddingTable(
        len(vectors[ids[0]]), ids, np.array([vectors[k] for k in ids], dtype=np.float64)
    )


@pytest.fixture
def write_kg(tmp_path):
    """Write concept/relation TSVs into tmp_path and return the paths."""

    def _write(concept_rows, edge_rows, suffix=""):
        cpath = tmp_path / f"concepts{suffix}.tsv"
        rpath = tmp_path / f"relations{suffix}.tsv"
        with open(cpath, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tgroup\n")
            for row in concept_rows:
                fh.write("\t".join(row) + "\n")
        with open(rpath, "w", encoding="utf-8") as fh:
            fh.write("src\trelation\tdst\n")
            for row in edge_rows:
                fh.write("\t".join(row) + "\n")
        return cpath, rpath

    return _write
