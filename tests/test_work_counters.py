"""Work done by one `ks-check` run: registrations and dominance tables built.

Counts calls, never time, so the bounds hold on any host.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from contextua import cli, contexts
from contextua.opalg import ProjectionRegistry

from conftest import random_unitary


@pytest.fixture
def counters(monkeypatch):
    counts = {"register": 0, "tables": 0}
    register_many, dominance_tables = ProjectionRegistry.register_many, contexts.dominance_tables

    def counted_register(self, mats):  # every registration is a batch; count its projections
        counts["register"] += len(mats)
        return register_many(self, mats)

    def counted_tables(stack, ranks, images):  # one call builds the tables of a stack of images
        counts["tables"] += 1
        return dominance_tables(stack, ranks, images)

    monkeypatch.setattr(ProjectionRegistry, "register_many", counted_register)
    monkeypatch.setattr(contexts, "dominance_tables", counted_tables)
    return counts


def ks_check(scenario: str, capsys) -> dict:
    cli.main(["ks-check", "--scenario", scenario])
    return json.loads(capsys.readouterr().out)


def write_doc(tmp_path, doc: dict) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def rotated_basis_check(d: int, counters, tmp_path, capsys) -> None:
    u = random_unitary(np.random.default_rng(d), d)
    rays = [[[float(x.real), float(x.imag)] for x in u[:, k]] for k in range(d)]
    doc = {"kind": "single", "dim": d, "rays": rays, "contexts": [list(range(d))]}
    report = ks_check(write_doc(tmp_path, doc), capsys)
    assert report["verdict"] == "colorable"
    assert report["catalog"] == {"contexts": 1, "constrained_pairs": 0, "blocks": 0}
    assert counters["register"] == d  # the atoms, nothing else
    assert counters["tables"] == 0


def test_rotated_d6_basis(counters, tmp_path, capsys):
    rotated_basis_check(6, counters, tmp_path, capsys)


def test_rotated_d8_basis(counters, tmp_path, capsys):
    rotated_basis_check(8, counters, tmp_path, capsys)


def test_ks18(counters, capsys):
    report = ks_check("builtin:ks18-c4", capsys)
    assert report["verdict"] == "non_colorable"
    assert counters["register"] == 18  # the rays
    assert counters["tables"] == 0


def test_mermin_star_registers_no_block_sum(counters, capsys):
    # 10 constrained pairs of two blocks each, and none of their sums is registered
    report = ks_check("builtin:mermin-c8", capsys)
    assert report["catalog"]["constrained_pairs"] == 10
    assert counters["register"] == 40  # the rays
    assert counters["tables"] == 0


def test_padded_contexts_register_their_complements(counters, tmp_path, capsys):
    # the standard basis of d4, and two of its rays with their complement: a coarsening
    # of it, so a node below it, and one more registered projection
    rays, contexts = np.eye(4).tolist(), [[0, 1, 2, 3], [0, 1]]
    doc = {"kind": "single", "dim": 4, "rays": rays, "contexts": contexts}
    report = ks_check(write_doc(tmp_path, doc), capsys)
    assert report["verdict"] == "colorable"
    assert report["catalog"] == {"contexts": 2, "constrained_pairs": 0, "blocks": 0}
    assert len(report["section"]) == 5
    assert counters["register"] == 4 + 1  # the rays and the padding complement
    assert counters["tables"] == 0
