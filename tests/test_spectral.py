"""Spectral presheaf: restriction, coloring search, oracle equivalence."""

from __future__ import annotations

import gc
import itertools
import json
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import contextua as cx
from contextua import spectral
from contextua.catalogs import bundled_names, bundled_scenario, bundled_text
from contextua.contexts import context_from_projections, poset_from_nodes
from contextua.opalg import TOL, ProjectionRegistry
from contextua.spectral import section_components

from conftest import (
    INTERLEAVED_D3,
    canonical_key,
    diagonal_atoms,
    full_table_sections,
    ks18_subset_poset,
    partition_closure_poset,
    pauli_subset_catalog,
    peres24_subset_catalog,
    random_basis_context,
    rank_of,
    ray_projection,
    reference_global_section,
    restrict_choice,
    shared_ray_catalog_poset,
    strict_chains3,
    verify_section,
    wootters_fields_poset,
)


@pytest.fixture(scope="module")
def shared_atom_setup():
    """Maximal context {p1, p2, p3} and the contained {p1, 1-p1}."""
    reg = ProjectionRegistry(3)
    ctx = context_from_projections(reg, diagonal_atoms([1, 2, 3]))
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
        assert restrict_choice(poset, maximal, 1, maximal) == 1

    def test_complement_atom_chosen(self, shared_atom_setup):
        poset, maximal, sub, key1 = shared_atom_setup
        # choosing p2 upstairs restricts to 1 - p1 downstairs
        idx_p2 = next(
            i
            for i, k in enumerate(poset.atom_keys(maximal))
            if poset.registry.matrices([k])[0, 1, 1].real > 0.5
        )
        got = restrict_choice(poset, maximal, idx_p2, sub)
        chosen_key = poset.atom_keys(sub)[got]
        assert rank_of(poset.registry.matrices([chosen_key])[0]) == 2

    def test_restrict_to_trivial(self, shared_atom_setup):
        poset, maximal, _, _ = shared_atom_setup
        trivial = poset.node_id(cx.trivial_context(poset.registry))
        assert restrict_choice(poset, maximal, 2, trivial) == 0

    def test_not_below_errors(self, shared_atom_setup):
        poset, maximal, sub, _ = shared_atom_setup
        with pytest.raises(ValueError, match="not below"):
            restrict_choice(poset, sub, 0, maximal)


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
        assert cert.to_report(ks18_poset)["stats"]["exhausted"]
        assert cert.section is None
        assert len(cx.enumerate_global_sections(ks18_poset)) == 0

    def test_dim1_colorable(self):
        reg = ProjectionRegistry(1)
        poset = cx.generate_poset([], reg)
        cert = cx.find_global_section(poset)
        assert cert.verdict == "colorable"
        assert verify_section(poset, cert.section)
        assert len(cx.enumerate_global_sections(poset)) == 1

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
        for row in result.chosen:
            assert verify_section(poset, row)

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
        bad = list(good)
        bad[m1] = poset.atom_keys(m1).index(key)
        bad[m2] = next(i for i, k in enumerate(poset.atom_keys(m2)) if k != key)
        assert not verify_section(poset, bad)

    def test_edge_violation_without_atom_sharing(self):
        # two-context poset {V, M, trivial} on explicit nodes: M's atoms are proper
        # sums of V's, so flipping M violates the edge but shares no atom
        reg = ProjectionRegistry(4)
        v = context_from_projections(reg, diagonal_atoms([1, 2, 3, 4]))
        halves = context_from_projections(reg, diagonal_atoms([1, 1, 2, 2]))
        trivial = cx.trivial_context(reg)
        nodes = (v, halves, trivial)
        order = np.array(
            [[True, False, False], [True, True, False], [True, True, True]]
        )
        poset = poset_from_nodes(reg, nodes, ("v", "halves", "trivial"))
        assert np.array_equal(poset.order, order)
        assert verify_section(poset, [0, 0, 0])
        bad = [0, 1, 0]
        # no projection is an atom of two nodes here: value table is consistent
        keys = [poset.atom_keys(i) for i in range(3)]
        assert not (set(keys[0]) & set(keys[1]))
        assert not verify_section(poset, bad)

    def test_non_down_closed_domain(self, basis_poset_c3):
        poset = basis_poset_c3
        m = poset.maximal_nodes()[0]
        assert not verify_section(poset, {m: 0})


class TestFunctorialityAndValues:
    def test_restriction_composes_exhaustively(self, shared_ray_poset_c3, mub_closure_poset_c3):
        checked = 0
        for poset in (shared_ray_poset_c3, mub_closure_poset_c3):
            for i, j, k in strict_chains3(poset.order):
                for a in range(len(poset.nodes[k].atoms)):
                    via = restrict_choice(poset, j, restrict_choice(poset, k, a, j), i)
                    assert via == restrict_choice(poset, k, a, i)
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
        vectors = [tuple(row) for row in result.chosen.tolist()]
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
            context_from_projections(reg, [np.outer(c, c.conj()) for c in cols])
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
                assignment = dict(zip(maximal, combo))
                ok = True
                for i in range(len(poset)):
                    if i in assignment:
                        continue
                    ups = [m for m in maximal if poset.order[i, m] and i != m]
                    vals = {int(poset.dominator_map(i, m)[assignment[m]]) for m in ups}
                    if len(vals) != 1:
                        ok = False
                        break
                    assignment[i] = vals.pop()
                if ok and verify_section(poset, assignment):
                    direct += 1
            assert (cert.verdict == "colorable") == (len(enum) > 0)
            assert len(enum) == direct
            assert all(verify_section(poset, row) for row in enum.chosen)
            trials += 1


catalog_sources = st.one_of(
    st.tuples(st.integers(0, 2**31 - 1), st.integers(3, 5), st.integers(1, 3)),
    st.tuples(st.lists(st.integers(0, 8), min_size=2, max_size=4, unique=True)),
)


def source_poset(source):
    """A freshly built poset: shared-ray rotations (seed, dim, bases) or a ks18-c4 subset."""
    return ks18_subset_poset(*source) if len(source) == 1 else shared_ray_catalog_poset(*source)


@settings(max_examples=25, deadline=None)
@given(catalog_sources)
def test_maximal_nodes_match_loop(source):
    poset = source_poset(source)
    n = len(poset)
    maximal = [m for m in range(n) if not any(poset.order[m, j] for j in range(n) if j != m)]
    assert poset.maximal_nodes() == maximal



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
    rows, occurrences, _, _ = spectral._search_tables(poset, poset.maximal_nodes())
    for ids in (poset.maximal_nodes(), list(range(len(poset)))):
        assert spectral._sharing_order(ids, rows, occurrences) == loop_sharing_order(poset, ids)


def jittered_pauli_poset(bases, jitter, tol, seed):
    """Jittered pauli-c4 bases at registry ``tol``, or None where the build rejects them."""
    reg = ProjectionRegistry(4, tol)
    try:
        return cx.generate_poset(pauli_subset_catalog(reg, bases, jitter, seed), reg)
    except (RuntimeError, ValueError):
        return None


def peres24_poset(tetrads, seed=None):
    reg = ProjectionRegistry(4)
    return cx.generate_poset(peres24_subset_catalog(reg, tetrads, seed), reg)


search_sources = st.one_of(
    catalog_sources.map(source_poset),
    st.builds(
        jittered_pauli_poset,
        st.lists(st.integers(0, 14), min_size=2, max_size=6, unique=True),
        st.sampled_from([1e-10, 3e-8, 3e-7, 2e-6]),
        st.sampled_from([TOL.identity, 1e-5]),
        st.integers(0, 2**31 - 1),
    ),
    st.builds(
        peres24_poset,
        st.lists(st.integers(0, 23), min_size=2, max_size=12, unique=True),
        st.one_of(st.none(), st.integers(0, 2**31 - 1)),
    ),
)


class TestSearchDifferential:
    """The flat-state search against conftest's dict-and-set reference: the same verdict,
    counters and section."""

    @staticmethod
    def check(poset):
        got, want = cx.find_global_section(poset), reference_global_section(poset)
        assert (got.verdict, got.nodes_expanded, got.backtracks) == (
            want.verdict, want.nodes_expanded, want.backtracks
        )
        assert (got.section is None) == (want.section is None)
        if got.section is not None:
            assert got.section == want.section
            assert verify_section(poset, got.section)

    @settings(max_examples=40, deadline=None)
    @given(search_sources)
    def test_generated_posets(self, poset):
        assume(poset is not None)
        self.check(poset)

    @pytest.mark.parametrize(
        "name", [n for n in bundled_names() if bundled_scenario(n)["kind"] == "single"]
    )
    def test_bundled_scenarios(self, name):
        self.check(cx.build_single_poset(cx.parse_scenario(bundled_text(name))))

    @pytest.mark.parametrize("seed", [None, 7, 2026])
    def test_full_peres24(self, seed):
        self.check(peres24_poset(range(24), seed))


class TestEnumerationDifferential:
    """The exhaustive search against the full-table reference."""

    @settings(max_examples=40, deadline=None)
    @given(search_sources, st.one_of(st.just(10**6), st.integers(1, 12)))
    def test_same_sections(self, poset, cap):
        assume(poset is not None)
        got = cx.enumerate_global_sections(poset, cap=cap)
        want = full_table_sections(poset, cap=cap)
        assert got.truncated == want.truncated
        assert np.array_equal(got.chosen, want.chosen)

    @pytest.mark.parametrize("name, count", [("ks18-c4", 0), ("demo-c3", 3), ("mub-c3", 81)])
    def test_bundled_catalogs(self, name, count):
        poset = cx.build_single_poset(cx.parse_scenario(bundled_text(name)))
        got = cx.enumerate_global_sections(poset)
        assert np.array_equal(got.chosen, full_table_sections(poset).chosen)
        assert len(got) == count

    @pytest.mark.parametrize("cap", range(1, 16))
    def test_interleaved_components_truncate_in_search_order(self, cap):
        # past cap the first sections in order of the maximal choices are kept, the fifth
        # choosing [1, 0, 2]; the components' lists in mixed radix put [1, 1, 1] fifth
        poset = cx.build_single_poset(cx.parse_scenario(json.dumps(INTERLEAVED_D3)))
        assert section_components(poset).tolist() == [0, 1, 0]
        got = cx.enumerate_global_sections(poset, cap=cap)
        want = full_table_sections(poset, cap=cap)
        assert (len(want), want.truncated) == (min(cap, 15), cap < 15)
        assert got.truncated == want.truncated
        assert np.array_equal(got.chosen, want.chosen)

    def test_wootters_fields_d5(self):
        poset = wootters_fields_poset(5)
        assert section_components(poset).tolist() == list(range(6))
        for cap in (10**6, 1000):
            got = cx.enumerate_global_sections(poset, cap=cap)
            want = full_table_sections(poset, cap=cap)
            assert (len(got), got.truncated) == (min(cap, 15625), cap < 15625)
            assert got.truncated == want.truncated
            assert np.array_equal(got.chosen, want.chosen)

    @settings(max_examples=40, deadline=None)
    @given(search_sources)
    def test_sections_are_the_free_product_of_components(self, poset):
        # enumerate_global_sections multiplies the components' lists out on this claim
        assume(poset is not None)
        result = full_table_sections(poset)
        assert not result.truncated
        labels = section_components(poset)
        maximal = np.array(poset.maximal_nodes())
        counts = [
            len(np.unique(result.chosen[:, maximal[labels == c]], axis=0))
            for c in range(labels.max() + 1)
        ]
        assert math.prod(counts) == len(result)
        if not len(result):  # the component lists stop at the first without a section
            return
        # each row of chosen, taken in index order, is its tuple of component sections
        enumerated = cx.enumerate_global_sections(poset)
        assert [len(rows) for rows in enumerated.components] == counts
        tuples = np.unravel_index(np.arange(len(result)), counts)
        for c, rows in enumerate(enumerated.components):
            fixed = rows[0] >= 0
            assert fixed[maximal[labels == c]].all()
            got = enumerated.chosen[enumerated.index][:, fixed]
            assert np.array_equal(got, rows[tuples[c]][:, fixed])


@settings(max_examples=40, deadline=None)
@given(search_sources)
def test_value_table_holds_each_shared_key_once(poset):
    # no bundled colorable scenario shares a ray, so no pinned report renders a key
    # that several nodes hold: each such key is 1 where any holder chooses it, once
    assume(poset is not None)
    holders = Counter(key for node in poset.nodes for key in node.atoms)
    assume(max(holders.values()) > 1)
    result = cx.enumerate_global_sections(poset, cap=50)
    assume(len(result))
    for row in result.chosen.tolist():
        chosen = {node.atoms[a] for node, a in zip(poset.nodes, row)}
        table = cx.value_table(poset, row)
        assert sorted(table) == sorted(holders)
        assert table == {key: int(key in chosen) for key in holders}


def key_below_maximal_poset():
    """Two maximal bases of d4 that share no atom and lie above no common node with more
    than one atom, but whose coarsenings i1 and i2 share the key t = P(e0) + P(e1).

    m1 is the standard basis and m2 the basis g, turned by 0.3 rad in the (e0, e1) and
    (e2, e3) planes; i1 = {t, e2, e3}, i2 = {t, g2, g3}, then the trivial context.
    """
    reg = ProjectionRegistry(4)
    e = np.eye(4)
    c, s = np.cos(0.3), np.sin(0.3)
    g = np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, c, -s], [0, 0, s, c]])
    t = ray_projection(e[:, 0]) + ray_projection(e[:, 1])
    nodes = (
        context_from_projections(reg, [ray_projection(e[:, k]) for k in range(4)]),
        context_from_projections(reg, [ray_projection(g[:, k]) for k in range(4)]),
        context_from_projections(reg, [t, ray_projection(e[:, 2]), ray_projection(e[:, 3])]),
        context_from_projections(reg, [t, ray_projection(g[:, 2]), ray_projection(g[:, 3])]),
        cx.trivial_context(reg),
    )
    return poset_from_nodes(reg, nodes, ("m1", "m2", "i1", "i2", "trivial"))


class TestKeySharedBelowMaximalNodes:
    """t takes one value, so m1 picks e0 or e1 exactly when m2 picks g0 or g1."""

    def test_sections_give_each_key_one_value(self):
        poset = key_below_maximal_poset()
        assert poset.maximal_nodes() == [0, 1]
        result = cx.enumerate_global_sections(poset)
        assert (len(result), result.truncated) == (8, False)
        assert all(verify_section(poset, row) for row in result.chosen)
        assert np.array_equal(result.chosen, full_table_sections(poset).chosen)
        # brute force over the maximal choices: restrict onto every node, check every key
        brute = []
        for a, b in itertools.product(range(4), range(4)):
            below = (int(poset.dominator_map(2, 0)[a]), int(poset.dominator_map(3, 1)[b]), 0)
            if verify_section(poset, (a, b, *below)):
                brute.append((a, b))
        assert brute == [tuple(row) for row in result.chosen[:, :2].tolist()]
        assert brute == [(a, b) for a in range(4) for b in range(4) if (a < 2) == (b < 2)]

    def test_search_and_components(self):
        poset = key_below_maximal_poset()
        assert cx.find_global_section(poset).verdict == "colorable"
        TestSearchDifferential.check(poset)
        assert section_components(poset).tolist() == [0, 0]
