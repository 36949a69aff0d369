"""Context construction, poset generation, order soundness, DOT export."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextua as cx
from contextua.catalogs import bundled_text
from contextua.contexts import _dominance_table
from contextua.opalg import TOL, max_norm

from conftest import (
    ks18_subset_catalog,
    ks18_subset_poset,
    partition_closure_poset,
    random_basis_context,
    random_density,
    random_unitary,
    shared_ray_catalog,
    shared_ray_catalog_poset,
)


def bell_number(n: int) -> int:
    """Independent oracle: count of partitions of an n-set, by enumeration."""

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    return sum(1 for _ in partitions(list(range(n))))


def brute_force_covers(order: np.ndarray) -> set[tuple[int, int]]:
    """Oracle: transitive reduction computed directly from the order matrix."""
    n = order.shape[0]
    covers = set()
    for i in range(n):
        for j in range(n):
            if i == j or not order[i, j]:
                continue
            if not any(order[i, k] and order[k, j] for k in range(n) if k not in (i, j)):
                covers.add((i, j))
    return covers


def subset_sum_order(poset) -> np.ndarray:
    """Oracle: i <= j iff each atom of i is the sum of some subset of j's atoms."""
    sums = []
    for j in range(len(poset)):
        large = [p.matrix for p in poset.atoms_of(j)]
        sums.append(
            np.stack(
                [
                    sum(combo)
                    for r in range(1, len(large) + 1)
                    for combo in itertools.combinations(large, r)
                ]
            )
        )
    n = len(poset)
    order = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            order[i, j] = all(
                np.abs(sums[j] - q.matrix).max(axis=(1, 2)).min() < 1e-7
                for q in poset.atoms_of(i)
            )
    return order


class TestContextFromObservables:
    def test_identity_gives_trivial(self):
        reg = cx.ProjectionRegistry(3)
        ctx = cx.context_from_observables(reg, [np.eye(3)])
        assert len(ctx.atoms) == 1
        assert reg.get(ctx.atoms[0]).rank == 3

    def test_rank1_projection_gives_two_atoms(self):
        reg = cx.ProjectionRegistry(3)
        p1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        ctx = cx.context_from_observables(reg, [p1])
        ranks = sorted(reg.get(k).rank for k in ctx.atoms)
        assert ranks == [1, 2]

    def test_nondegenerate_gives_maximal(self):
        reg = cx.ProjectionRegistry(3)
        ctx = cx.context_from_observables(reg, [np.diag([1.0, 2.0, 3.0])])
        assert sorted(reg.get(k).rank for k in ctx.atoms) == [1, 1, 1]

    def test_joint_refinement(self):
        reg = cx.ProjectionRegistry(4)
        a = np.diag([1.0, 1.0, 2.0, 2.0])
        b = np.diag([1.0, 2.0, 1.0, 2.0])
        ctx = cx.context_from_observables(reg, [a, b])
        assert len(ctx.atoms) == 4

    def test_noncommuting_error_names_pair(self):
        reg = cx.ProjectionRegistry(2)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match="0 and 1 do not commute"):
            cx.context_from_observables(reg, [x, z])


class TestGeneratePoset:
    def test_single_maximal_c3_partition_count(self, basis_poset_c3):
        # oracle: partitions of a 3-set
        assert len(basis_poset_c3) == bell_number(3) == 5
        n_atoms = sorted(len(node.atoms) for node in basis_poset_c3.nodes)
        assert n_atoms == [1, 2, 2, 2, 3]

    def test_single_maximal_c4_partition_count(self):
        reg = cx.ProjectionRegistry(4)
        ctx = cx.context_from_observables(reg, [np.diag([1.0, 2.0, 3.0, 4.0])])
        poset = partition_closure_poset([ctx], reg)
        assert len(poset) == bell_number(4) == 15

    def test_shared_ray_contexts_share_node(self, shared_ray_poset_c3):
        poset = shared_ray_poset_c3
        e1 = np.zeros((3, 3), dtype=complex)
        e1[0, 0] = 1.0
        key = cx.opalg.canonical_key(e1)
        holders = [
            i
            for i in range(len(poset))
            if key in poset.atom_keys(i) and len(poset.nodes[i].atoms) == 2
        ]
        # the node {p1, 1-p1} exists and lies below both maximal contexts
        two_atom = [
            i for i in holders if sorted(p.rank for p in poset.atoms_of(i)) == [1, 2]
        ]
        assert two_atom
        node = two_atom[0]
        maximal = poset.maximal_nodes()
        assert len(maximal) == 2
        assert all(poset.leq(node, m) for m in maximal)

    def test_empty_catalog(self):
        reg = cx.ProjectionRegistry(3)
        poset = cx.generate_poset([], reg)
        assert len(poset) == 1
        assert len(poset.nodes[0].atoms) == 1

    def test_node_id_ignores_atom_order(self, shared_ray_poset_c3):
        poset = shared_ray_poset_c3
        for i, node in enumerate(poset.nodes):
            assert poset.node_id(cx.Context(node.dim, node.atoms[::-1])) == i
        with pytest.raises(KeyError, match="context not in poset"):
            poset.node_id(cx.Context(3, ("p-unknown",)))

    def test_mixed_dimensions_rejected(self):
        reg2 = cx.ProjectionRegistry(2)
        reg3 = cx.ProjectionRegistry(3)
        c2 = cx.trivial_context(reg2)
        c3 = cx.trivial_context(reg3)
        with pytest.raises(ValueError, match="mixed dimensions"):
            cx.generate_poset([c2, c3], reg3)


class TestLeq:
    def test_trivial_below_everything(self, basis_poset_c3):
        poset = basis_poset_c3
        t = poset.trivial_node()
        for j in range(len(poset)):
            assert poset.leq(t, j)

    def test_distinct_maximal_incomparable(self, shared_ray_poset_c3):
        m1, m2 = shared_ray_poset_c3.maximal_nodes()
        assert not shared_ray_poset_c3.leq(m1, m2)
        assert not shared_ray_poset_c3.leq(m2, m1)

    def test_two_atom_below_maximal(self, basis_poset_c3):
        poset = basis_poset_c3
        maximal = poset.maximal_nodes()[0]
        for i in range(len(poset)):
            if len(poset.nodes[i].atoms) == 2:
                assert poset.leq(i, maximal)

    def test_unknown_id(self, basis_poset_c3):
        with pytest.raises(KeyError):
            basis_poset_c3.leq(0, 99)

    def test_order_soundness_subset_oracle(self, shared_ray_poset_c3, basis_poset_c3):
        for poset in (basis_poset_c3, shared_ray_poset_c3):
            assert len(poset) <= 50
            assert np.array_equal(poset.order, subset_sum_order(poset))


def einsum_dominance_table(registry, nodes):
    """Reference dominance table: every atom product formed by one einsum."""
    keys = sorted({k for node in nodes for k in node.atoms})
    stack = np.stack([registry.get(k).matrix for k in keys])
    prod = np.einsum("aij,bjk->abik", stack, stack)
    return keys, np.abs(prod - stack[None, :, :, :]).max(axis=(2, 3)) <= TOL.dominance


def check_dominance_table(registry, nodes):
    index, under = _dominance_table(registry, nodes)
    keys, expected = einsum_dominance_table(registry, nodes)
    assert list(index) == keys
    assert np.array_equal(under, expected)


class TestDominanceDifferential:
    """Order, dominator maps and image order against direct matrix checks."""

    def check(self, poset, sym_seed: int, kind: str):
        check_dominance_table(poset.registry, poset.nodes)
        assert np.array_equal(poset.order, subset_sum_order(poset))
        for i, j in zip(*np.nonzero(poset.order)):
            small, large = poset.atoms_of(i), poset.atoms_of(j)
            expected = []
            for p in large:
                hits = [
                    idx
                    for idx, q in enumerate(small)
                    if max_norm(q.matrix @ p.matrix - p.matrix) <= 1e-7
                ]
                assert len(hits) == 1
                expected.append(hits[0])
            assert poset.dominator_map(int(i), int(j)).tolist() == expected
        u = random_unitary(np.random.default_rng(sym_seed), poset.dim)
        image, pmap = cx.conjugate_poset(poset, cx.symmetry(kind, u))
        perm = list(pmap.node_map)
        assert np.array_equal(image.order[np.ix_(perm, perm)], poset.order)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(3, 4),
        st.integers(1, 3),
        st.sampled_from(["unitary", "antiunitary"]),
    )
    def test_shared_ray_rotations(self, seed, dim, n_bases, kind):
        poset = shared_ray_catalog_poset(seed, dim, n_bases)
        assert len(poset) <= 50
        self.check(poset, seed + 1, kind)

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(st.integers(0, 8), min_size=2, max_size=4, unique=True),
        st.integers(0, 2**31 - 1),
        st.sampled_from(["unitary", "antiunitary"]),
    )
    def test_ks18_subsets(self, bases, seed, kind):
        self.check(ks18_subset_poset(bases), seed, kind)

    @pytest.mark.parametrize("name", ["demo-c3", "ks18-c4", "mermin-c8", "mub-c3"])
    def test_bundled_tables_match_einsum(self, name):
        poset = cx.build_single_poset(cx.parse_scenario(bundled_text(name)))
        check_dominance_table(poset.registry, poset.nodes)


def greatest_lower_bound(order: np.ndarray, i: int, j: int) -> int:
    """Oracle: the one common lower bound of i and j that lies above every other."""
    lower = np.flatnonzero(order[:, i] & order[:, j])
    top = [int(k) for k in lower if order[lower, k].all()]
    assert len(top) == 1
    return top[0]


class TestMeetClosedDifferential:
    """The meet-closed build against the partition-closure oracle on the same catalog."""

    @staticmethod
    def catalog_sections(poset, catalog) -> list[tuple[str, ...]]:
        """Each enumerated section as the chosen atom key of every catalog context, sorted."""
        ids = [poset.node_id(ctx) for ctx in catalog]
        return sorted(
            tuple(poset.nodes[i].atoms[s.assignment[i].chosen_atom] for i in ids)
            for s in cx.enumerate_global_sections(poset)
        )

    def check(self, build_catalog, dim: int):
        reg, ref_reg = cx.ProjectionRegistry(dim), cx.ProjectionRegistry(dim)
        catalog, ref_catalog = build_catalog(reg), build_catalog(ref_reg)
        poset = cx.generate_poset(catalog, reg)
        ref = partition_closure_poset(ref_catalog, ref_reg)

        # every stored node is an oracle node, ordered as in the oracle
        to_ref = [ref.node_id(node) for node in poset.nodes]
        assert np.array_equal(poset.order, ref.order[np.ix_(to_ref, to_ref)])
        # each pair's greatest lower bound in the oracle is stored, and each
        # stored meet is the greatest lower bound of its two catalog contexts
        ref_ids = [ref.node_id(ctx) for ctx in ref_catalog]
        for i, j in itertools.combinations(range(len(catalog)), 2):
            poset.node_id(ref.nodes[greatest_lower_bound(ref.order, ref_ids[i], ref_ids[j])])
        for k, origin in enumerate(poset.generators):
            found = re.fullmatch(r"meet of catalog\[(\d+)\] and catalog\[(\d+)\]", origin)
            if found:
                i, j = (ref_ids[int(t)] for t in found.groups())
                assert to_ref[k] == greatest_lower_bound(ref.order, i, j)

        assert cx.find_global_section(poset).verdict == cx.find_global_section(ref).verdict
        got = self.catalog_sections(poset, catalog)
        want = self.catalog_sections(ref, ref_catalog)
        assert len(got) == len(want)
        assert got == want

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(3, 5), st.integers(1, 3))
    def test_shared_ray_rotations(self, seed, dim, n_bases):
        self.check(lambda reg: shared_ray_catalog(reg, seed, n_bases), dim)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=2, max_size=4, unique=True))
    def test_ks18_subsets(self, bases):
        self.check(lambda reg: ks18_subset_catalog(reg, bases), 4)

    def test_block_joined_along_an_overlap_path(self):
        # no atom of the second basis overlaps both e0 and e3, yet e0..e3 are one block
        e, s = np.eye(5), np.sqrt(0.5)
        u, w = s * (e[1] + e[2]), s * (e[1] - e[2])
        second = [s * (e[0] + u), s * (e[0] - u), s * (w + e[3]), s * (w - e[3]), e[4]]

        def build_catalog(reg):
            return [
                cx.context_from_projections(reg, [np.outer(v, v) for v in basis])
                for basis in (e, second)
            ]

        self.check(build_catalog, 5)
        reg = cx.ProjectionRegistry(5)
        poset = cx.generate_poset(build_catalog(reg), reg)
        assert poset.generators[2] == "meet of catalog[0] and catalog[1]"
        assert sorted(p.rank for p in poset.atoms_of(2)) == [1, 4]

    def test_small_overlap_joins_a_block(self):
        # a basis rotated by 1e-4 in the (0, 1) plane: tr(e0 b1) = sin^2 = 1e-8, a
        # real overlap, so the meet is {e0 + e1, e2} and not a split of e0 from b0
        e, t = np.eye(3), 1e-4
        rotated = [np.cos(t) * e[0] + np.sin(t) * e[1], np.cos(t) * e[1] - np.sin(t) * e[0], e[2]]

        def build_catalog(reg):
            return [
                cx.context_from_projections(reg, [np.outer(v, v) for v in basis])
                for basis in (e, rotated)
            ]

        self.check(build_catalog, 3)
        reg = cx.ProjectionRegistry(3)
        poset = cx.generate_poset(build_catalog(reg), reg)
        assert poset.generators[2] == "meet of catalog[0] and catalog[1]"
        assert sorted(p.rank for p in poset.atoms_of(2)) == [1, 2]

    def test_mub_c3_state_reconstruction(self, mub_poset_c3, mub_closure_poset_c3):
        rho = random_density(np.random.default_rng(11), 3)
        results = [
            cx.state_from_section(poset, cx.section_from_state(poset, rho))
            for poset in (mub_poset_c3, mub_closure_poset_c3)
        ]
        assert len(mub_poset_c3) == 5 and len(mub_closure_poset_c3) == 17
        assert results[0].status == results[1].status == "unique"
        assert results[0].solution_space_dim == results[1].solution_space_dim
        assert max_norm(results[0].state.matrix - results[1].state.matrix) <= 1e-9


class TestConjugationStability:
    def test_unitary_images_isomorphic(self, shared_ray_poset_c3):
        poset = shared_ray_poset_c3
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 3)
        reg = cx.ProjectionRegistry(3)
        contexts = []
        for i in poset.maximal_nodes():
            mats = [u @ p.matrix @ u.conj().T for p in poset.atoms_of(i)]
            contexts.append(cx.context_from_projections(reg, mats))
        image = cx.generate_poset(contexts, reg)
        assert len(image) == len(poset)
        # induced bijection: match nodes through conjugated key sets
        mapping = {}
        for i in range(len(poset)):
            mats = [u @ p.matrix @ u.conj().T for p in poset.atoms_of(i)]
            keys = frozenset(cx.opalg.canonical_key(m) for m in mats)
            matches = [
                j for j in range(len(image)) if image.nodes[j].key_set == keys
            ]
            assert len(matches) == 1
            mapping[i] = matches[0]
        for i in range(len(poset)):
            for j in range(len(poset)):
                assert poset.order[i, j] == image.order[mapping[i], mapping[j]]


DOT_NODE = re.compile(r'^\s*n\d+ \[label="[^"]*"\];$')
DOT_EDGE = re.compile(r"^\s*n\d+ -> n\d+;$")
DOT_COMMENT = re.compile(r"^\s*//")


def check_dot_grammar(text: str) -> tuple[int, int]:
    """Minimal DOT wellformedness check; returns (node count, edge count)."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph contexts {"
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if DOT_COMMENT.match(line):
            continue
        if DOT_NODE.match(line):
            nodes += 1
        elif DOT_EDGE.match(line):
            edges += 1
        else:
            raise AssertionError(f"unparseable DOT line: {line!r}")
    return nodes, edges


class TestExportDot:
    def test_trivial_poset(self):
        reg = cx.ProjectionRegistry(2)
        poset = cx.generate_poset([], reg)
        nodes, edges = check_dot_grammar(cx.export_dot(poset))
        assert (nodes, edges) == (1, 0)

    def test_five_node_poset_counts(self, basis_poset_c3):
        # oracle: covering relations recomputed from the raw order matrix
        expected_edges = len(brute_force_covers(basis_poset_c3.order))
        assert expected_edges == 6  # 3 maximal->two-atom, 3 two-atom->trivial
        nodes, edges = check_dot_grammar(cx.export_dot(basis_poset_c3))
        assert (nodes, edges) == (5, expected_edges)

    def test_edges_drawn_large_to_small(self, basis_poset_c3):
        text = cx.export_dot(basis_poset_c3)
        maximal = basis_poset_c3.maximal_nodes()[0]
        # the maximal context has arrows pointing out of it
        assert re.search(rf"n{maximal} -> n\d+;", text)
        assert not re.search(rf"n\d+ -> n{maximal};", text)

    def test_provenance_comments(self, basis_poset_c3):
        text = cx.export_dot(basis_poset_c3)
        assert "// node n0: catalog[0]" in text


class TestObservableValidation:
    def test_rejects_non_self_adjoint(self):
        reg = cx.ProjectionRegistry(2)
        with pytest.raises(ValueError, match="self-adjoint"):
            cx.context_from_observables(reg, [np.array([[0, 1], [0, 0]], dtype=complex)])

    def test_rejects_empty_list(self):
        reg = cx.ProjectionRegistry(2)
        with pytest.raises(ValueError, match="at least one"):
            cx.context_from_observables(reg, [])
