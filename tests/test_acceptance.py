"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; expected values come from in-suite
oracles (exhaustive enumeration, eigendecompositions, rank computations),
never from stored verdicts.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import contextua as cx
from contextua.bell import BellSection, CorrelationTable
from contextua.catalogs import bundled_text
from contextua.contexts import context_from_projections
from contextua.gleason import context_measure
from contextua.opalg import ProjectionRegistry, max_norm
from contextua.scenario import build_catalog_meets
from contextua.wigner import transition_probability_deviation

from conftest import (
    diagonal_atoms,
    loop_restrict_table,
    random_basis_context,
    random_density,
    random_hermitian,
    random_unitary,
    restrict_choice,
    strict_chains3,
    verify_section,
)
from test_bell import chsh_coefficients, chsh_operator


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} [{title}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_ks_nonexistence():
    with criterion(1, "KS non-existence"):
        start = time.perf_counter()
        sc = cx.parse_scenario(bundled_text("ks18-c4"))
        poset = cx.build_single_poset(sc)
        assert len(poset.maximal_nodes()) == 9
        raw_space = int(
            np.prod([len(poset.nodes[m].atoms) for m in poset.maximal_nodes()])
        )
        assert raw_space <= 4**9
        meets = build_catalog_meets(sc)  # ks-check's route
        cert = cx.find_global_section(meets)
        oracle = cx.enumerate_global_sections(poset)
        assert cert.verdict == "non_colorable"
        assert cert.to_report(meets)["stats"]["exhausted"]
        assert len(oracle) == 0 and not oracle.truncated
        assert (cert.verdict == "non_colorable") == (len(oracle) == 0)
        assert time.perf_counter() - start < 10.0

        demo = cx.build_single_poset(cx.parse_scenario(bundled_text("demo-c3")))
        sections = cx.enumerate_global_sections(demo)
        assert len(sections) == 3
        assert all(verify_section(demo, row) for row in sections.chosen)

        rng = np.random.default_rng(101)
        for _ in range(20):
            reg = ProjectionRegistry(2)
            catalog = [random_basis_context(rng, reg) for _ in range(int(rng.integers(1, 5)))]
            assert cx.find_global_section(cx.catalog_meets(reg, catalog)).verdict == "colorable"


def test_criterion_2_gleason_round_trip():
    with criterion(2, "Gleason round trip"):
        rng = np.random.default_rng(202)
        # dimension 3: the bundled mutually unbiased bases
        mub = cx.build_single_poset(cx.parse_scenario(bundled_text("mub-c3")))
        # dimension 4: six random bases, informationally complete
        reg4 = ProjectionRegistry(4)
        cat4 = [random_basis_context(rng, reg4) for _ in range(6)]
        ic4 = cx.generate_poset(cat4, reg4)
        for poset in (mub, ic4):
            start = time.perf_counter()
            assert cx.is_informationally_complete(poset)
            for _ in range(20):
                rho = random_density(rng, poset.dim)
                res = cx.state_from_section(poset, cx.section_from_state(poset, rho))
                assert res.status == "unique"
                assert max_norm(res.state.matrix - rho.matrix) <= 1e-8
            assert time.perf_counter() - start < 5.0

        # single-context catalog: underdetermined, dimension checked by rank oracle
        reg = ProjectionRegistry(3)
        single = cx.generate_poset([context_from_projections(reg, diagonal_atoms([1, 2, 3]))], reg)
        rho = random_density(rng, 3)
        res = cx.state_from_section(single, cx.section_from_state(single, rho))
        assert res.status == "underdetermined"
        rows = []
        for p in single.registry.matrices(list(single.registry.keys())):
            rows.append(np.concatenate([p.real.reshape(-1), p.imag.reshape(-1)]))
        rows.append(np.concatenate([np.eye(3).reshape(-1), np.zeros(9)]))
        rank = int(np.linalg.matrix_rank(np.stack(rows), tol=1e-8))
        assert res.solution_space_dim == 9 - rank == 6


def test_criterion_3_classical_bound_and_violation(chsh_model):
    with criterion(3, "classical bound and CHSH violation"):
        pp = chsh_model.poset
        contexts = chsh_model.analysis_contexts
        coeffs = chsh_coefficients(contexts)

        strategies = cx.deterministic_strategies(pp)
        assert len(strategies) == 16
        values = []
        for cl, cr in strategies:
            tables = {}
            for node in contexts:
                t = np.zeros(pp.table_shape(node))
                t[cl[node[0]], cr[node[1]]] = 1.0
                tables[node] = CorrelationTable(t)
            values.append(
                cx.bell_functional_value(BellSection(pp, tables), coeffs)
            )
        assert max(values) == 2.0  # exact: deterministic tables are 0/1

        quantum_value = cx.bell_functional_value(chsh_model.section, coeffs)
        oracle_value = float(np.linalg.eigvalsh(chsh_operator(chsh_model)).max())
        assert abs(quantum_value - oracle_value) <= 1e-9

        lp = cx.factorisability_lp(chsh_model.section, contexts)
        assert not lp.factorisable
        assert lp.witness is not None
        assert lp.witness_value > lp.deterministic_max

        rng = np.random.default_rng(303)
        for _ in range(10):
            w = np.zeros((4, 4), dtype=complex)
            for lam in rng.dirichlet(np.ones(3)):
                r1, r2 = random_density(rng, 2), random_density(rng, 2)
                w = w + lam * np.kron(r1.matrix, r2.matrix)
            s = cx.section_from_bipartite_state(pp, w)
            res = cx.factorisability_lp(s, contexts)
            assert res.factorisable
            assert res.reconstruction_error <= 1e-7


def test_criterion_4_no_signalling_universality(mub_poset_c3, chsh_model):
    with criterion(4, "no-signalling universality"):
        pp = cx.product_poset(mub_poset_c3, mub_poset_c3)
        rng = np.random.default_rng(404)
        for _ in range(50):
            w = random_hermitian(rng, 9)
            w = w / np.trace(w).real
            s = cx.section_from_bipartite_state(pp, w)
            assert cx.check_no_signalling(s)

        (x0,), (y0, y1) = (
            sorted({n[0] for n in chsh_model.analysis_contexts})[:1],
            sorted({n[1] for n in chsh_model.analysis_contexts})[:2],
        )
        n00, n01 = (x0, y0), (x0, y1)
        fixture = BellSection(
            chsh_model.poset,
            {
                n00: CorrelationTable(np.array([[0.5, 0.0], [0.0, 0.5]])),
                n01: CorrelationTable(np.array([[0.8, 0.0], [0.0, 0.2]])),
            },
        )
        assert not cx.check_no_signalling(fixture)


def test_criterion_5_time_orientation(mub_poset_c3, mub2_bipartite_doc):
    with criterion(5, "time-orientation classification"):
        start = time.perf_counter()
        pp3 = cx.product_poset(mub_poset_c3, mub_poset_c3)
        rng = np.random.default_rng(505)
        for _ in range(50):
            rho = random_density(rng, 9)
            res = cx.classify_section(cx.section_from_bipartite_state(pp3, rho.matrix))
            assert res.verdict == "quantum"
            assert max_norm(res.witness - rho.matrix) <= 1e-8
            assert not res.warnings

        model2 = cx.build_bipartite_model(
            cx.parse_scenario(json.dumps(mub2_bipartite_doc))
        )
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        w = cx.partial_transpose(np.outer(phi, phi.conj()), (2, 2))
        reference_floor = float(np.linalg.eigvalsh(w).min())  # oracle, not hardcoded
        res = cx.classify_section(cx.section_from_bipartite_state(model2.poset, w))
        assert res.verdict == "quantum_time_reversed"
        assert abs(res.eigen_floor - reference_floor) <= 1e-6
        assert reference_floor == pytest.approx(-0.5, abs=1e-12)

        produced = 0
        while produced < 50:
            w = random_hermitian(rng, 9)
            w = w / np.trace(w).real
            floors = (
                np.linalg.eigvalsh(w).min(),
                np.linalg.eigvalsh(cx.partial_transpose(w, (3, 3))).min(),
            )
            if max(floors) >= -1e-6:
                continue  # need non-PSD and non-PPT inputs
            res = cx.classify_section(cx.section_from_bipartite_state(pp3, w))
            assert res.verdict == "non_quantum"
            produced += 1
        assert time.perf_counter() - start < 30.0


def test_criterion_6_wigner_converse(shared_ray_poset_c3, mub_poset_c3):
    with criterion(6, "unitary/antiunitary order automorphisms"):
        doc = json.loads(bundled_text("ks18-c4"))
        doc["contexts"] = doc["contexts"][:3]
        c4_poset = cx.build_single_poset(cx.parse_scenario(json.dumps(doc)))
        posets = [shared_ray_poset_c3, mub_poset_c3, c4_poset]
        rng = np.random.default_rng(606)
        n_unitary = n_anti = 0
        for poset in posets:
            dim = poset.dim
            rays = [
                p
                for i in range(len(poset))
                for p, rank in zip(poset.atom_matrices(i), poset.ranks[poset.rows[i]])
                if rank == 1
            ][:8]
            for kind in ("unitary", "antiunitary"):
                for _ in range(7):
                    s = cx.symmetry(kind, random_unitary(rng, dim))
                    image, pmap = cx.conjugate_poset(poset, s)
                    assert cx.trivial_presheaf_automorphism(poset, pmap, image)
                    samples = [
                        (random_hermitian(rng, dim), random_hermitian(rng, dim))
                        for _ in range(4)
                    ]
                    rep = cx.jordan_check(s, samples)
                    assert rep.max_jordan_residual <= 1e-9
                    want = 1 if kind == "unitary" else -1
                    assert rep.sign == want
                    assert rep.signs.count(want) == len(samples) - rep.n_commuting_skipped
                    assert transition_probability_deviation(s, rays) <= 1e-9
                    if kind == "unitary":
                        n_unitary += 1
                    else:
                        n_anti += 1
        assert n_unitary >= 20 and n_anti >= 20


def test_criterion_7_presheaf_functoriality(chsh_model):
    with criterion(7, "presheaf functoriality on all bundled posets"):
        rng = np.random.default_rng(707)
        checked = 0
        for name in ("demo-c3", "ks18-c4", "mub-c3", "mermin-c8", "pauli-c4"):
            poset = cx.build_single_poset(cx.parse_scenario(bundled_text(name)))
            for i, j, k in strict_chains3(poset.order):
                count = len(poset.nodes[k].atoms)
                for a in range(count):
                    via = restrict_choice(poset, j, restrict_choice(poset, k, a, j), i)
                    assert via == restrict_choice(poset, k, a, i)
                    checked += 1
                for _ in range(2):
                    m = context_measure(poset, k, rng.dirichlet(np.ones(count)))
                    via = cx.marginalise(poset, cx.marginalise(poset, m, k, j), j, i)
                    direct = cx.marginalise(poset, m, k, i)
                    assert max_norm(via - direct) <= 1e-10
                    checked += 1

        # Bell presheaf over the bundled bipartite poset: table coarsening
        pp = chsh_model.poset
        s = chsh_model.section
        for i, j, k in strict_chains3(pp.order):
            a, b, c = pp.nodes[i], pp.nodes[j], pp.nodes[k]
            via = loop_restrict_table(pp, loop_restrict_table(pp, s.tables[c], c, b), b, a)
            direct = loop_restrict_table(pp, s.tables[c], c, a)
            assert max_norm(via.probs - direct.probs) <= 1e-10
            checked += 1
        assert checked >= 224
