"""Spectral presheaf: restriction, coloring search, oracle equivalence."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextua as cx
from contextua import spectral
from contextua.catalogs import bundled_text
from contextua.contexts import poset_from_nodes
from contextua.opalg import ProjectionRegistry
from contextua.spectral import Character, SpectralSection

from conftest import (
    canonical_key,
    full_table_sections,
    ks18_subset_poset,
    partition_closure_poset,
    peres24_subset_catalog,
    random_basis_context,
    rank_of,
    restrict_character,
    shared_ray_catalog_poset,
    strict_chains3,
    verify_section,
)


@pytest.fixture(scope="module")
def shared_atom_setup():
    """Maximal context {p1, p2, p3} and the contained {p1, 1-p1}."""
    reg = ProjectionRegistry(3)
    ctx = cx.context_from_observables(reg, [np.diag([1.0, 2.0, 3.0])])
    poset = partition_closure_poset([ctx], reg)
    maximal = poset.maximal_nodes()[0]
    e1 = np.diag([1.0, 0, 0]).astype(complex)
    key1 = canonical_key(e1)
    sub = next(
        i
        for i in range(len(poset))
        if len(poset.nodes[i].atoms) == 2 and key1 in poset.atom_keys(i)
    )
    return poset, maximal, sub, key1


class TestRestrictCharacter:
    def test_identity_on_same_context(self, shared_atom_setup):
        poset, maximal, _, _ = shared_atom_setup
        ch = Character(maximal, 1)
        assert restrict_character(poset, ch, maximal) == ch

    def test_complement_atom_chosen(self, shared_atom_setup):
        poset, maximal, sub, key1 = shared_atom_setup
        # choosing p2 upstairs restricts to 1 - p1 downstairs
        idx_p2 = next(
            i
            for i, k in enumerate(poset.atom_keys(maximal))
            if poset.registry.matrices([k])[0, 1, 1].real > 0.5
        )
        got = restrict_character(poset, Character(maximal, idx_p2), sub)
        chosen_key = poset.atom_keys(sub)[got.chosen_atom]
        assert rank_of(poset.registry.matrices([chosen_key])[0]) == 2

    def test_restrict_to_trivial(self, shared_atom_setup):
        poset, maximal, _, _ = shared_atom_setup
        trivial = poset.node_id(cx.trivial_context(poset.registry))
        got = restrict_character(poset, Character(maximal, 2), trivial)
        assert got.chosen_atom == 0

    def test_not_below_errors(self, shared_atom_setup):
        poset, maximal, sub, _ = shared_atom_setup
        with pytest.raises(ValueError, match="not below"):
            restrict_character(poset, Character(sub, 0), maximal)


class TestFindGlobalSection:
    def test_single_maximal_c3(self, basis_poset_c3):
        cert = cx.find_global_section(basis_poset_c3)
        assert cert.verdict == "colorable"
        assert verify_section(basis_poset_c3, cert.section)
        assert len(cx.enumerate_global_sections(basis_poset_c3)) == 3

    def test_dim2_catalogs_colorable(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            reg = ProjectionRegistry(2)
            catalog = [random_basis_context(rng, reg) for _ in range(4)]
            poset = cx.generate_poset(catalog, reg)
            cert = cx.find_global_section(poset)
            assert cert.verdict == "colorable"
            assert verify_section(poset, cert.section)

    def test_ks18_non_colorable_both_routes(self, ks18_poset):
        cert = cx.find_global_section(ks18_poset)
        assert cert.verdict == "non_colorable"
        assert cert.exhausted
        assert cert.section is None
        assert len(cx.enumerate_global_sections(ks18_poset)) == 0

    def test_dim1_rejected(self):
        reg = ProjectionRegistry(1)
        poset = cx.generate_poset([], reg)
        with pytest.raises(ValueError):
            cx.find_global_section(poset)

    @pytest.mark.parametrize("name", ["ks18-c4", "demo-c3"])
    def test_search_leaves_no_reference_cycle(self, name):
        # with the cyclic collector off, reference counting alone must free
        # the poset once the caller drops it
        poset = cx.build_single_poset(cx.parse_scenario(bundled_text(name)))
        ref = weakref.ref(poset)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            cx.find_global_section(poset)
            del poset
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestEnumerate:
    def test_two_disjoint_maximal_c3(self):
        rng = np.random.default_rng(23)
        reg = ProjectionRegistry(3)
        catalog = [random_basis_context(rng, reg) for _ in range(2)]
        poset = cx.generate_poset(catalog, reg)
        result = cx.enumerate_global_sections(poset)
        # product count oracle: no shared projections, so 3 * 3 sections
        assert len(result) == 9
        assert not result.truncated
        for s in result:
            assert verify_section(poset, s)

    def test_cap_truncation(self, basis_poset_c3):
        result = cx.enumerate_global_sections(basis_poset_c3, cap=2)
        assert len(result) == 2
        assert result.truncated

    def test_cap_validation(self, basis_poset_c3):
        with pytest.raises(ValueError):
            cx.enumerate_global_sections(basis_poset_c3, cap=0)

    def test_oracle_equivalence_random_posets(self):
        rng = np.random.default_rng(31)
        for trial in range(6):
            reg = ProjectionRegistry(3)
            catalog = [random_basis_context(rng, reg) for _ in range(3)]
            poset = cx.generate_poset(catalog, reg)
            cert = cx.find_global_section(poset)
            sections = cx.enumerate_global_sections(poset)
            assert (cert.verdict == "colorable") == (len(sections) > 0)

    def test_monotonicity_nested_catalogs(self, ks18_poset):
        # adding contexts never turns non-colorable into colorable; contrapositive:
        # a colorable superset forces colorable subsets
        from contextua.catalogs import bundled_scenario
        import json

        doc = bundled_scenario("ks18-c4")
        for n_bases in (3, 6, 9):
            sub = dict(doc)
            sub["contexts"] = doc["contexts"][:n_bases]
            poset = cx.build_single_poset(cx.parse_scenario(json.dumps(sub)))
            colorable = cx.find_global_section(poset).verdict == "colorable"
            if n_bases < 9:
                assert colorable, "proper subsets of the 18-ray set stay colorable"
            else:
                assert not colorable


class TestVerifySection:
    def test_search_output_verifies(self, shared_ray_poset_c3):
        cert = cx.find_global_section(shared_ray_poset_c3)
        assert verify_section(shared_ray_poset_c3, cert.section)

    def test_shared_projection_mismatch(self, shared_ray_poset_c3):
        poset = shared_ray_poset_c3
        cert = cx.find_global_section(poset)
        good = cert.section
        # force the two maximal contexts to disagree about the shared ray
        m1, m2 = poset.maximal_nodes()
        shared = set(poset.atom_keys(m1)) & set(poset.atom_keys(m2))
        assert shared
        key = shared.pop()
        assignment = dict(good.assignment)
        assignment[m1] = Character(m1, poset.atom_keys(m1).index(key))
        other = next(
            i for i, k in enumerate(poset.atom_keys(m2)) if k != key
        )
        assignment[m2] = Character(m2, other)
        bad = SpectralSection(assignment, good.domain)
        assert not verify_section(poset, bad)

    def test_edge_violation_without_atom_sharing(self):
        # two-context poset {V, M, trivial} on explicit nodes: M's atoms are proper
        # sums of V's, so flipping M violates the edge but shares no atom
        reg = ProjectionRegistry(4)
        v = cx.context_from_observables(reg, [np.diag([1.0, 2.0, 3.0, 4.0])])
        halves = cx.context_from_observables(reg, [np.diag([1.0, 1.0, 2.0, 2.0])])
        trivial = cx.trivial_context(reg)
        nodes = (v, halves, trivial)
        order = np.array(
            [[True, False, False], [True, True, False], [True, True, True]]
        )
        poset = poset_from_nodes(reg, nodes, ("v", "halves", "trivial"))
        assert np.array_equal(poset.order, order)
        ok = SpectralSection(
            {0: Character(0, 0), 1: Character(1, 0), 2: Character(2, 0)},
            frozenset({0, 1, 2}),
        )
        assert verify_section(poset, ok)
        bad = SpectralSection(
            {0: Character(0, 0), 1: Character(1, 1), 2: Character(2, 0)},
            frozenset({0, 1, 2}),
        )
        # no projection is an atom of two nodes here: value table is consistent
        keys = [poset.atom_keys(i) for i in range(3)]
        assert not (set(keys[0]) & set(keys[1]))
        assert not verify_section(poset, bad)

    def test_non_down_closed_domain(self, basis_poset_c3):
        poset = basis_poset_c3
        m = poset.maximal_nodes()[0]
        s = SpectralSection({m: Character(m, 0)}, frozenset({m}))
        assert not verify_section(poset, s)


class TestFunctorialityAndValues:
    def test_restriction_composes_exhaustively(self, shared_ray_poset_c3, mub_closure_poset_c3):
        checked = 0
        for poset in (shared_ray_poset_c3, mub_closure_poset_c3):
            for i, j, k in strict_chains3(poset.order):
                for a in range(len(poset.nodes[k].atoms)):
                    ch = Character(k, a)
                    via = restrict_character(poset, restrict_character(poset, ch, j), i)
                    assert via == restrict_character(poset, ch, i)
                    checked += 1
        assert checked > 0

    def test_certificate_report_shape(self, basis_poset_c3):
        cert = cx.find_global_section(basis_poset_c3)
        report = cert.to_report(basis_poset_c3)
        assert report["verdict"] == "colorable"
        assert set(report["section"].values()) <= {0, 1}
        assert report["stats"]["nodes_expanded"] >= 1


class TestEdgeCases:
    def test_empty_catalog_poset_has_one_section(self):
        reg = ProjectionRegistry(3)
        poset = cx.generate_poset([], reg)
        cert = cx.find_global_section(poset)
        assert cert.verdict == "colorable"
        assert len(cx.enumerate_global_sections(poset)) == 1

    def test_enumeration_is_sorted_by_assignment(self):
        rng = np.random.default_rng(41)
        reg = ProjectionRegistry(3)
        catalog = [random_basis_context(rng, reg) for _ in range(2)]
        poset = cx.generate_poset(catalog, reg)
        result = cx.enumerate_global_sections(poset)
        vectors = [
            tuple(s.assignment[i].chosen_atom for i in range(len(poset)))
            for s in result
        ]
        assert vectors == sorted(vectors)
        assert len(set(vectors)) == len(vectors)


def _shared_pool_catalog(dim, n_bases, rng):
    """Bases engineered to recycle rays from earlier bases."""
    reg = ProjectionRegistry(dim)
    bases, pool = [], []
    for _ in range(n_bases):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if pool and rng.random() < 0.8:
            g[:, 0] = pool[rng.integers(len(pool))]
            q, _ = np.linalg.qr(g)
            q[:, 0] = g[:, 0]
        else:
            q, _ = np.linalg.qr(g)
        cols = [q[:, k] / np.linalg.norm(q[:, k]) for k in range(dim)]
        pool.extend(cols)
        bases.append(
            cx.context_from_projections(reg, [np.outer(c, c.conj()) for c in cols])
        )
    return reg, bases


class TestOracleStress:
    def test_three_routes_agree_on_shared_ray_catalogs(self):
        # search vs vectorized enumeration vs a direct product-filter count
        import itertools

        rng = np.random.default_rng(2026)
        trials = 0
        while trials < 8:
            dim = int(rng.integers(3, 5))
            try:
                reg, bases = _shared_pool_catalog(dim, int(rng.integers(2, 4)), rng)
            except cx.CanonicalizationError:
                continue  # recycled ray landed below the grid; resample
            poset = cx.generate_poset(bases, reg)
            cert = cx.find_global_section(poset)
            enum = cx.enumerate_global_sections(poset)
            maximal = sorted(poset.maximal_nodes())
            direct = 0
            for combo in itertools.product(
                *[range(len(poset.nodes[m].atoms)) for m in maximal]
            ):
                assignment = {m: Character(m, a) for m, a in zip(maximal, combo)}
                ok = True
                for i in range(len(poset)):
                    if i in assignment:
                        continue
                    ups = [m for m in maximal if poset.order[i, m] and i != m]
                    vals = {
                        int(poset.dominator_map(i, m)[assignment[m].chosen_atom])
                        for m in ups
                    }
                    if len(vals) != 1:
                        ok = False
                        break
                    assignment[i] = Character(i, vals.pop())
                if ok and verify_section(
                    poset, SpectralSection(dict(assignment), frozenset(range(len(poset))))
                ):
                    direct += 1
            assert (cert.verdict == "colorable") == (len(enum) > 0)
            assert len(enum) == direct
            assert all(verify_section(poset, s) for s in enum)
            trials += 1


def all_pairs_maps(poset):
    """The eager route: a dominator map for every strict pair small < large."""
    n = len(poset)
    return {
        (i, j): poset.dominator_map(i, j)
        for i in range(n)
        for j in range(n)
        if i != j and poset.order[i, j]
    }


catalog_sources = st.one_of(
    st.tuples(st.integers(0, 2**31 - 1), st.integers(3, 5), st.integers(1, 3)),
    st.tuples(st.lists(st.integers(0, 8), min_size=2, max_size=4, unique=True)),
)


def source_poset(source):
    """A freshly built poset: shared-ray rotations (seed, dim, bases) or a ks18-c4 subset."""
    return ks18_subset_poset(*source) if len(source) == 1 else shared_ray_catalog_poset(*source)


class TestDominationMapsDifferential:
    """Maps onto maximal nodes only, against the all-pairs route."""

    @settings(max_examples=25, deadline=None)
    @given(catalog_sources)
    def test_maps_onto_maximal_nodes(self, source):
        poset, fresh = source_poset(source), source_poset(source)
        n = len(poset)
        maximal = [m for m in range(n) if not any(poset.order[m, j] for j in range(n) if j != m)]
        assert poset.maximal_nodes() == maximal
        maps = spectral._domination_maps(poset)
        expected = {
            (i, m): fresh.dominator_map(i, m)
            for m in maximal
            for i in range(n)
            if i != m and poset.order[i, m]
        }
        assert maps.keys() == expected.keys()
        assert all(np.array_equal(maps[k], expected[k]) for k in expected)

    @settings(max_examples=25, deadline=None)
    @given(catalog_sources)
    def test_search_and_enumeration_match_all_pairs_route(self, source):
        poset, ref_poset = source_poset(source), source_poset(source)
        cert = cx.find_global_section(poset)
        sections = cx.enumerate_global_sections(poset).sections
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_domination_maps", all_pairs_maps)
            ref = cx.find_global_section(ref_poset)
            ref_sections = cx.enumerate_global_sections(ref_poset).sections
        assert cert.to_report(poset) == ref.to_report(ref_poset)
        assert [s.assignment for s in sections] == [s.assignment for s in ref_sections]


class TestEnumerationDifferential:
    """The incremental choice table against the full-table reference."""

    @settings(max_examples=40, deadline=None)
    @given(catalog_sources, st.one_of(st.just(10**6), st.integers(1, 12)))
    def test_same_sections(self, source, cap):
        poset = source_poset(source)
        got = cx.enumerate_global_sections(poset, cap=cap)
        want = full_table_sections(poset, cap=cap)
        assert got.truncated == want.truncated
        assert [s.assignment for s in got] == [s.assignment for s in want]
        assert [s.domain for s in got] == [s.domain for s in want]

    @pytest.mark.parametrize("name, count", [("ks18-c4", 0), ("demo-c3", 3), ("mub-c3", 81)])
    def test_bundled_catalogs(self, name, count):
        poset = cx.build_single_poset(cx.parse_scenario(bundled_text(name)))
        got = cx.enumerate_global_sections(poset)
        assert [s.assignment for s in got] == [s.assignment for s in full_table_sections(poset)]
        assert len(got) == count



def loop_sharing_order(poset, node_ids):
    """Reference branching order: every node's key set against every other node's."""
    keysets = {i: set(poset.atom_keys(i)) for i in range(len(poset))}
    degree = {
        i: sum(1 for j in range(len(poset)) if j != i and keysets[i] & keysets[j])
        for i in node_ids
    }
    return sorted(node_ids, key=lambda i: (-degree[i], i))


@pytest.mark.parametrize("name", ["ks18-c4", "mermin-c8", "pauli-c4", "mub-c3", "peres24"])
def test_sharing_order_matches_pairwise_loop(name):
    if name == "peres24":
        reg = ProjectionRegistry(4)
        poset = cx.generate_poset(peres24_subset_catalog(reg, range(24)), reg)
    else:
        poset = cx.build_single_poset(cx.parse_scenario(bundled_text(name)))
    occurrences = {}
    for i in range(len(poset)):
        for idx, key in enumerate(poset.atom_keys(i)):
            occurrences.setdefault(key, []).append((i, idx))
    for ids in (poset.maximal_nodes(), list(range(len(poset)))):
        assert spectral._sharing_order(poset, ids, occurrences) == loop_sharing_order(poset, ids)
