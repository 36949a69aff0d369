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

    def counted_register(self, ps):  # every registration is a batch; count its projections
        counts["register"] += len(ps)
        return register_many(self, ps)

    def counted_tables(stack, ranks, images):  # one call builds the tables of a stack of images
        counts["tables"] += 1
        return dominance_tables(stack, ranks, images)

    monkeypatch.setattr(ProjectionRegistry, "register_many", counted_register)
    monkeypatch.setattr(contexts, "dominance_tables", counted_tables)
    return counts


def ks_check(scenario: str, capsys) -> dict:
    cli.main(["ks-check", "--scenario", scenario])
    return json.loads(capsys.readouterr().out)


def rotated_basis_check(d: int, counters, tmp_path, capsys) -> None:
    u = random_unitary(np.random.default_rng(d), d)
    rays = [[[float(x.real), float(x.imag)] for x in u[:, k]] for k in range(d)]
    doc = {"kind": "single", "dim": d, "rays": rays, "contexts": [list(range(d))]}
    path = tmp_path / f"basis-d{d}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = ks_check(str(path), capsys)
    assert report["verdict"] == "colorable"
    assert report["poset"]["nodes"] == 2  # the basis and the trivial context
    assert counters["register"] <= d + 2  # the atoms and the identity, nothing else
    assert counters["tables"] == 1  # the poset's own, in its build


def test_rotated_d6_basis(counters, tmp_path, capsys):
    rotated_basis_check(6, counters, tmp_path, capsys)


def test_rotated_d8_basis(counters, tmp_path, capsys):
    rotated_basis_check(8, counters, tmp_path, capsys)


def test_ks18(counters, capsys):
    report = ks_check("builtin:ks18-c4", capsys)
    assert report["verdict"] == "non_colorable"
    assert counters["register"] <= 18 + 1  # the rays and the identity: no meet is stored
    assert counters["tables"] == 1  # the poset's own, in its build
