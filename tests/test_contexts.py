"""Context construction, poset generation, order soundness, DOT export."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contextua as cx
from contextua.catalogs import bundled_text
from contextua import opalg
from contextua.contexts import context_from_projections, poset_from_nodes
from contextua.opalg import TOL, max_norm

from conftest import (
    SPLIT_BLOCK_CATALOGS,
    canonical_key,
    diagonal_atoms,
    einsum_atom_lookup,
    ix_dominator_map,
    ks18_subset_catalog,
    ks18_subset_poset,
    padded_pauli_catalog,
    pairwise_meet_poset,
    partition_closure_poset,
    pauli_subset_catalog,
    peres24_subset_catalog,
    random_density,
    random_unitary,
    rank_of,
    ray_projection,
    registry_atoms,
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
        large = list(registry_atoms(poset, j))
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
                np.abs(sums[j] - q).max(axis=(1, 2)).min() < 1e-7
                for q in registry_atoms(poset, i)
            )
    return order


class TestContextFromProjections:
    @pytest.mark.parametrize(
        "atoms,pair",
        [
            # the first failing pair in row-major order is named, here (0, 2), not (1, 2)
            ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], (0, 2)),
            ([(0, 0, 1), (1, 1, 0), (1, 0, 0)], (1, 2)),
        ],
    )
    def test_error_names_the_first_failing_pair(self, atoms, pair):
        reg = cx.ProjectionRegistry(3)
        with pytest.raises(ValueError, match=f"atoms {pair[0]} and {pair[1]} are not orthogonal"):
            context_from_projections(reg, np.array([ray_projection(v) for v in atoms]))
        assert len(reg) == 0

    @pytest.mark.parametrize(
        "atom,message",
        [
            (np.diag([0, 0.5, 0]), "matrix is not a projection within tolerance"),
            (np.array([[0, 1, 0], [0, 1, 0], [0, 0, 0]]), "matrix is not a projection"),
            (np.diag([0, np.nan, 0]), "operator entries must be finite"),
        ],
    )
    def test_atoms_are_checked_as_projections_first(self, atom, message):
        # diag(0, 0.5, 0) is orthogonal to e1 but not idempotent; [[0, 1], [0, 1]] is
        # idempotent but not self-adjoint
        reg = cx.ProjectionRegistry(3)
        with pytest.raises(ValueError, match=message):
            context_from_projections(reg, np.array([ray_projection((1, 0, 0)), atom]))
        assert len(reg) == 0

    def test_atom_shape_must_match_the_registry(self):
        with pytest.raises(ValueError, match="atom dimension does not match registry"):
            context_from_projections(cx.ProjectionRegistry(3), np.eye(2)[None])
        with pytest.raises(ValueError, match="atom dimension does not match registry"):
            context_from_projections(cx.ProjectionRegistry(3), np.eye(3))

    def test_identity_gives_trivial(self):
        reg = cx.ProjectionRegistry(3)
        ctx = context_from_projections(reg, [np.eye(3)])
        assert len(ctx.atoms) == 1 and rank_of(reg.matrices(ctx.atoms)[0]) == 3
        assert ctx == cx.trivial_context(reg) and len(reg) == 1

    def test_rank1_projection_gives_two_atoms(self):
        # diag(1, 0, 0) and its complement, the spectral projections of a rank-1 projection
        reg = cx.ProjectionRegistry(3)
        ctx = context_from_projections(reg, diagonal_atoms([1, 0, 0]))
        assert [rank_of(p) for p in reg.matrices(ctx.atoms)] == [2, 1]
        assert np.array_equal(reg.matrices(ctx.atoms).sum(axis=0), np.eye(3))

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError, match="at least one atom"):
            cx.Context(3, ())
        reg = cx.ProjectionRegistry(3)
        with pytest.raises(ValueError, match="atoms do not sum to the identity"):
            context_from_projections(reg, np.zeros((0, 3, 3)))
        assert len(reg) == 0

    def test_registers_each_atom_once(self):
        reg = cx.ProjectionRegistry(3)
        atoms = np.array([ray_projection(v) for v in [(1, 1, 0), (1, -1, 0), (0, 0, 1)]])
        ctx = context_from_projections(reg, atoms)
        assert np.array_equal(reg.matrices(ctx.atoms), atoms)
        assert len(reg) == 3

    @pytest.mark.parametrize(
        "atoms,pair",
        [
            ([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], (0, 1)),
            ([np.diag(np.eye(3)[k]) for k in range(3)], (0, 1)),
        ],
    )
    def test_tol_that_merges_orthogonal_atoms_is_an_error(self, atoms, pair):
        # at tol 1 every pair of these atoms is one projection to the registry
        reg = cx.ProjectionRegistry(len(atoms), 1.0)
        message = f"atoms {pair[0]} and {pair[1]} are one projection at tol 1.0"
        with pytest.raises(ValueError, match=message):
            context_from_projections(reg, atoms)

    def test_rejected_context_leaves_the_registry_as_it_was(self):
        # at tol 1 the two atoms are one projection, found only once both are registered
        merged = cx.ProjectionRegistry(2, 1.0)
        with pytest.raises(ValueError, match="atoms 0 and 1 are one projection at tol 1.0"):
            context_from_projections(merged, np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
        assert (len(merged), list(merged.keys())) == (0, [])
        # at tol 0, diag(1, 0) is closer than the grid to a registered projection but not it,
        # so the batch is rejected partway, after diag(0, 1) is taken as new
        strict = cx.ProjectionRegistry(2, 0.0)
        held = strict.register(ray_projection((1.0, 1e-12)))
        with pytest.raises(cx.CanonicalizationError, match="collide on the canonical rounding grid"):
            context_from_projections(strict, np.array([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]))
        assert (len(strict), list(strict.keys())) == (1, [held])


class TestGeneratePoset:
    def test_single_maximal_c3_partition_count(self, basis_poset_c3):
        # oracle: partitions of a 3-set
        assert len(basis_poset_c3) == bell_number(3) == 5
        n_atoms = sorted(len(node.atoms) for node in basis_poset_c3.nodes)
        assert n_atoms == [1, 2, 2, 2, 3]

    def test_single_maximal_c4_partition_count(self):
        reg = cx.ProjectionRegistry(4)
        ctx = context_from_projections(reg, diagonal_atoms([1, 2, 3, 4]))
        poset = partition_closure_poset([ctx], reg)
        assert len(poset) == bell_number(4) == 15

    def test_shared_ray_contexts_share_a_key(self, shared_ray_poset_c3):
        poset = shared_ray_poset_c3
        e1 = np.zeros((3, 3), dtype=complex)
        e1[0, 0] = 1.0
        key = canonical_key(e1)
        # their meet {p1, 1-p1} only restates the shared key p1, so it is not
        # stored: both maximal contexts hold p1 as an atom, the trivial one is below
        maximal = poset.maximal_nodes()
        assert len(maximal) == 2
        assert all(key in poset.atom_keys(m) for m in maximal)
        assert poset.generators == ("catalog[0]", "catalog[1]", "trivial")

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
        t = poset.node_id(cx.trivial_context(poset.registry))
        assert poset.order[t].all()

    def test_distinct_maximal_incomparable(self, shared_ray_poset_c3):
        m1, m2 = shared_ray_poset_c3.maximal_nodes()
        assert not shared_ray_poset_c3.order[m1, m2]
        assert not shared_ray_poset_c3.order[m2, m1]

    def test_two_atom_below_maximal(self, basis_poset_c3):
        poset = basis_poset_c3
        maximal = poset.maximal_nodes()[0]
        for i in range(len(poset)):
            if len(poset.nodes[i].atoms) == 2:
                assert poset.order[i, maximal]

    def test_order_soundness_subset_oracle(self, shared_ray_poset_c3, basis_poset_c3):
        for poset in (basis_poset_c3, shared_ray_poset_c3):
            assert len(poset) <= 50
            assert np.array_equal(poset.order, subset_sum_order(poset))


def check_atom_lookup(poset):
    """The poset's atom lookup against the einsum dominance table of its nodes' distinct
    atoms, taken from the registry in order of first appearance."""
    keys = tuple(dict.fromkeys(k for node in poset.nodes for k in node.atoms))
    assert poset.keys == keys
    assert np.array_equal(poset.stack, poset.registry.matrices(keys))
    assert np.array_equal(poset.over, einsum_atom_lookup(poset))


class TestDominanceDifferential:
    """Order, dominator maps and image order against direct matrix checks."""

    def check(self, poset, sym_seed: int, kind: str):
        check_atom_lookup(poset)
        assert np.array_equal(poset.order, subset_sum_order(poset))
        for i, j in zip(*np.nonzero(poset.order)):
            small, large = poset.atom_matrices(i), poset.atom_matrices(j)
            expected = []
            for p in large:
                hits = [idx for idx, q in enumerate(small) if max_norm(q @ p - p) <= 1e-7]
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

    def test_row_blocks_match_one_block(self, monkeypatch):
        # pauli-c4 has 91 atom keys; blocks of 64 entries split every product
        # in poset_from_nodes and dominance_tables into single rows
        poset = cx.build_single_poset(cx.parse_scenario(bundled_text("pauli-c4")))
        monkeypatch.setattr(opalg, "BLOCK", 64)
        blocked = poset_from_nodes(poset.registry, poset.nodes, poset.generators)
        assert np.array_equal(blocked.order, poset.order)
        assert np.array_equal(blocked.order, subset_sum_order(poset))

    @pytest.mark.parametrize("name", ["demo-c3", "ks18-c4", "mermin-c8", "mub-c3"])
    def test_bundled_tables_match_einsum(self, name):
        poset = cx.build_single_poset(cx.parse_scenario(bundled_text(name)))
        check_atom_lookup(poset)


def greatest_lower_bound(order: np.ndarray, i: int, j: int) -> int:
    """Oracle: the one common lower bound of i and j that lies above every other."""
    lower = np.flatnonzero(order[:, i] & order[:, j])
    top = [int(k) for k in lower if order[lower, k].all()]
    assert len(top) == 1
    return top[0]


class TestMeetClosedDifferential:
    """The meet-closed build against the partition-closure oracle on the same catalog."""

    @staticmethod
    def catalog_tables(poset, catalog, rows) -> list[tuple[int, ...]]:
        """Each section row as its 0/1 value on every catalog atom key, in key order, sorted."""
        keys = sorted({k for ctx in catalog for k in ctx.atoms})
        return sorted(tuple(cx.value_table(poset, row)[k] for k in keys) for row in rows)

    def check(self, build_catalog, dim: int):
        reg, ref_reg = cx.ProjectionRegistry(dim), cx.ProjectionRegistry(dim)
        catalog, ref_catalog = build_catalog(reg), build_catalog(ref_reg)
        poset = cx.generate_poset(catalog, reg)
        ref = partition_closure_poset(ref_catalog, ref_reg)

        # every stored node is an oracle node, ordered as in the oracle
        to_ref = [ref.node_id(node) for node in poset.nodes]
        assert np.array_equal(poset.order, ref.order[np.ix_(to_ref, to_ref)])
        # each pair's greatest lower bound in the oracle is stored unless all its
        # atoms but one are atoms of both contexts, and each stored meet is the
        # greatest lower bound of its two catalog contexts and is not of that kind
        ref_ids = [ref.node_id(ctx) for ctx in ref_catalog]

        def restates_shared_keys(i, j):
            glb = ref.nodes[greatest_lower_bound(ref.order, ref_ids[i], ref_ids[j])]
            shared = set(ref_catalog[i].atoms) & set(ref_catalog[j].atoms)
            return len(set(glb.atoms) - shared) <= 1

        for i, j in itertools.combinations(range(len(catalog)), 2):
            if not restates_shared_keys(i, j):
                poset.node_id(ref.nodes[greatest_lower_bound(ref.order, ref_ids[i], ref_ids[j])])
        for k, origin in enumerate(poset.generators):
            found = re.fullmatch(r"meet of catalog\[(\d+)\] and catalog\[(\d+)\]", origin)
            if found:
                i, j = (int(t) for t in found.groups())
                assert to_ref[k] == greatest_lower_bound(ref.order, ref_ids[i], ref_ids[j])
                assert not restates_shared_keys(i, j)

        cert = cx.find_global_section(poset)
        assert cert.verdict == cx.find_global_section(ref).verdict
        got = self.catalog_tables(poset, catalog, cx.enumerate_global_sections(poset).chosen)
        want = self.catalog_tables(ref, ref_catalog, cx.enumerate_global_sections(ref).chosen)
        assert len(got) == len(want)
        assert got == want
        if cert.section is not None:
            assert self.catalog_tables(poset, catalog, [cert.section])[0] in want

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(3, 5), st.integers(1, 3))
    def test_shared_ray_rotations(self, seed, dim, n_bases):
        self.check(lambda reg: shared_ray_catalog(reg, seed, n_bases), dim)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=2, max_size=4, unique=True))
    def test_ks18_subsets(self, bases):
        self.check(lambda reg: ks18_subset_catalog(reg, bases), 4)

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(st.integers(0, 23), min_size=2, max_size=5, unique=True),
        st.one_of(st.none(), st.integers(0, 2**31 - 1)),
    )
    def test_peres24_subsets_and_rotations(self, tetrads, seed):
        self.check(lambda reg: peres24_subset_catalog(reg, tetrads, seed), 4)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(1, 4)), min_size=2, max_size=4))
    def test_padded_pauli_contexts(self, picks):
        # shared atoms of rank above one, and catalog contexts below others
        self.check(padded_pauli_catalog(picks), 4)

    @pytest.mark.parametrize("bases,jitter,seed", SPLIT_BLOCK_CATALOGS)
    def test_split_blocks_merge(self, bases, jitter, seed):
        # each pair's blocks whose sums the registry keeps apart merge into one, and with
        # both sides of that block still apart the pair's meet is trivial
        self.check(lambda reg: pauli_subset_catalog(reg, bases, jitter, seed), 4)
        reg = cx.ProjectionRegistry(4)
        poset = cx.generate_poset(pauli_subset_catalog(reg, bases, jitter, seed), reg)
        assert not any(g.startswith("meet") for g in poset.generators)

    def test_full_peres24(self):
        self.check(lambda reg: peres24_subset_catalog(reg, range(24)), 4)
        reg = cx.ProjectionRegistry(4)
        poset = cx.generate_poset(peres24_subset_catalog(reg, range(24)), reg)
        assert cx.find_global_section(poset).nodes_expanded == 26
        # 24 tetrads, 9 meets of two rank-2 blocks, the trivial context
        assert (len(poset), len(reg.keys())) == (34, 43)

    def test_block_joined_along_an_overlap_path(self):
        # no atom of the second basis overlaps both e0 and e3, yet e0..e3 are one
        # block; e4 and e5 are turned into a second block, so the meet is stored
        e, s = np.eye(6), np.sqrt(0.5)
        u, w = s * (e[1] + e[2]), s * (e[1] - e[2])
        second = [
            s * (e[0] + u), s * (e[0] - u), s * (w + e[3]), s * (w - e[3]),
            s * (e[4] + e[5]), s * (e[4] - e[5]),
        ]

        def build_catalog(reg):
            return [
                context_from_projections(reg, [np.outer(v, v) for v in basis])
                for basis in (e, second)
            ]

        self.check(build_catalog, 6)
        reg = cx.ProjectionRegistry(6)
        poset = cx.generate_poset(build_catalog(reg), reg)
        assert poset.generators[2] == "meet of catalog[0] and catalog[1]"
        assert sorted(poset.ranks[poset.rows[2]].tolist()) == [2, 4]

    def test_small_overlap_joins_a_block(self):
        # a basis rotated by 1e-4 in the (0, 1) plane: tr(e0 b1) = sin^2 = 1e-8, a
        # real overlap, so the meet is {e0 + e1, e2 + e3} and not a split of e0
        # from b0; the (2, 3) plane is turned by pi/4 so that the meet is stored
        e, t, s = np.eye(4), 1e-4, np.sqrt(0.5)
        rotated = [
            np.cos(t) * e[0] + np.sin(t) * e[1], np.cos(t) * e[1] - np.sin(t) * e[0],
            s * (e[2] + e[3]), s * (e[2] - e[3]),
        ]

        def build_catalog(reg):
            return [
                context_from_projections(reg, [np.outer(v, v) for v in basis])
                for basis in (e, rotated)
            ]

        self.check(build_catalog, 4)
        reg = cx.ProjectionRegistry(4)
        poset = cx.generate_poset(build_catalog(reg), reg)
        assert poset.generators[2] == "meet of catalog[0] and catalog[1]"
        assert sorted(poset.ranks[poset.rows[2]].tolist()) == [2, 2]

    @pytest.mark.parametrize("shared", [1, 2, 3])
    def test_shared_atoms_and_their_complement_not_stored(self, shared):
        # two d5 bases that share their first `shared` rays and differ on the rest:
        # the meet is those rays and their complement, so only the key table
        # constrains the pair; 3 shared rays leave a 2-dim complement, 2 a 3-dim one
        e, u = np.eye(5), random_unitary(np.random.default_rng(shared), 5 - shared)
        second = np.column_stack([e[:, :shared], e[:, shared:] @ u])

        def build_catalog(reg):
            return [
                context_from_projections(
                    reg, [np.outer(v, v.conj()) for v in basis.T]
                )
                for basis in (e, second)
            ]

        self.check(build_catalog, 5)
        reg = cx.ProjectionRegistry(5)
        poset = cx.generate_poset(build_catalog(reg), reg)
        assert poset.generators == ("catalog[0]", "catalog[1]", "trivial")

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


def build_outcome(build):
    """What ``build()`` returns, or the exception it raises."""
    try:
        return build(), None
    except (RuntimeError, ValueError) as exc:
        return None, exc


class TestBatchedBuildDifferential:
    """The batched build against one meet, one registry call and one dominator map at a time.

    The reference is the pairwise meet route ordered from the unscreened
    einsum dominance table; dominator maps are compared with a per-pair
    ``np.ix_`` lookup in that table.
    """

    def check(self, build_catalog, dim: int, tol: float = TOL.identity):
        reg, ref_reg = cx.ProjectionRegistry(dim, tol), cx.ProjectionRegistry(dim, tol)
        poset, error = build_outcome(lambda: cx.generate_poset(build_catalog(reg), reg))
        ref, ref_error = build_outcome(lambda: pairwise_meet_poset(build_catalog(ref_reg), ref_reg))
        # a build with several inconsistent blocks may report another one of them
        # first: the batched build registers every first side before any lookup
        assert (error is None) == (ref_error is None), (error, ref_error)
        if ref is None:
            return
        assert list(reg.keys()) == list(ref_reg.keys())
        assert [node.atoms for node in poset.nodes] == [node.atoms for node in ref.nodes]
        assert poset.generators == ref.generators
        assert np.array_equal(poset.order, ref.order)
        assert poset.keys == ref.keys
        assert [rows.tolist() for rows in poset.rows] == [rows.tolist() for rows in ref.rows]
        assert np.array_equal(poset.over, ref.over)
        assert np.array_equal(poset.over, einsum_atom_lookup(ref))
        for i, j in zip(*np.nonzero(poset.order)):
            assert np.array_equal(poset.dominator_map(i, j), ix_dominator_map(ref, i, j))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(3, 5), st.integers(1, 4))
    def test_shared_ray_rotations(self, seed, dim, n_bases):
        self.check(lambda reg: shared_ray_catalog(reg, seed, n_bases), dim)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=2, max_size=9, unique=True))
    def test_ks18_subsets(self, bases):
        self.check(lambda reg: ks18_subset_catalog(reg, bases), 4)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 14), min_size=2, max_size=15, unique=True))
    def test_pauli_subsets(self, bases):
        self.check(lambda reg: pauli_subset_catalog(reg, bases), 4)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(0, 14), min_size=2, max_size=5, unique=True),
        st.sampled_from([3e-8, 8e-8, 1.2e-7, 3e-7, 2e-6]),
        st.sampled_from([TOL.identity, 1e-5]),
        st.integers(0, 2**31 - 1),
    )
    @example(list(SPLIT_BLOCK_CATALOGS[0][0]), 2e-6, TOL.identity, SPLIT_BLOCK_CATALOGS[0][2])
    @example(list(SPLIT_BLOCK_CATALOGS[1][0]), 2e-6, TOL.identity, SPLIT_BLOCK_CATALOGS[1][2])
    @example(list(SPLIT_BLOCK_CATALOGS[2][0]), 2e-6, TOL.identity, SPLIT_BLOCK_CATALOGS[2][2])
    def test_near_threshold_jitter(self, bases, jitter, tol, seed):
        # each basis turned by its own small unitary: shared rays and the sums of
        # the two sides of a meet block differ by about the jitter, so the
        # dominance test |qp - p| <= TOL.dominance and the registry's tol and
        # grid decide near their thresholds, or the build fails the same way
        self.check(lambda reg: pauli_subset_catalog(reg, bases, jitter, seed), 4, tol)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(1, 4)), min_size=2, max_size=5))
    def test_padded_pauli_contexts(self, picks):
        # contexts of unequal width, with atoms of rank above one
        self.check(padded_pauli_catalog(picks), 4)

    def test_full_pauli_c4(self):
        self.check(lambda reg: pauli_subset_catalog(reg, range(15)), 4)


def poset_state(poset) -> dict:
    """Every attribute of a poset, arrays (also inside tuples) as their dtype, shape, bytes
    and write flag, with the keys its registry holds."""

    def frozen(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes(), value.flags.writeable
        if isinstance(value, tuple):
            return tuple(frozen(v) for v in value)
        return value

    state = {name: frozen(value) for name, value in vars(poset).items()}
    state["registry keys"] = list(poset.registry.keys())
    return state


def test_reading_paths_leave_poset_unchanged():
    # a fresh poset of each kind, so that nothing filled by an earlier test hides a write
    poset = cx.build_single_poset(cx.parse_scenario(bundled_text("mermin-c8")))
    model = cx.build_bipartite_model(cx.parse_scenario(bundled_text("chsh-c2")))
    posets = (poset, model.poset.left, model.poset.right)
    before = [poset_state(p) for p in posets]
    cx.find_global_section(poset)
    cx.enumerate_global_sections(poset)
    for small, large in zip(*np.nonzero(poset.order)):
        weights = np.full(len(poset.rows[large]), 1 / len(poset.rows[large]))
        measure = cx.context_measure(poset, int(large), weights)
        cx.marginalise(poset, measure, int(large), int(small))
    cx.export_dot(poset)
    rng = np.random.default_rng(5)
    ops = [cx.symmetry("unitary", np.eye(8)), cx.symmetry("antiunitary", random_unitary(rng, 8))]
    images = cx.conjugate_posets(poset, ops)
    assert images[0][0] is poset and images[1][0] is not poset  # one of each path
    cx.factorisability_lp(model.section, model.analysis_contexts)
    assert [poset_state(p) for p in posets] == before


class TestConjugationStability:
    def test_unitary_images_isomorphic(self, shared_ray_poset_c3):
        poset = shared_ray_poset_c3
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 3)
        reg = cx.ProjectionRegistry(3)
        contexts = []
        for i in poset.maximal_nodes():
            mats = [u @ p @ u.conj().T for p in poset.atom_matrices(i)]
            contexts.append(context_from_projections(reg, mats))
        image = cx.generate_poset(contexts, reg)
        assert len(image) == len(poset)
        # induced bijection: match nodes through conjugated key sets
        mapping = {}
        for i in range(len(poset)):
            mats = [u @ p @ u.conj().T for p in poset.atom_matrices(i)]
            keys = frozenset(canonical_key(m) for m in mats)
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
