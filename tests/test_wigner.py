"""Symmetry action on posets: order automorphisms, Jordan checks, signs."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextua as cx
from contextua.opalg import TOL, max_norm
from contextua.wigner import (
    PosetMap,
    _projection_ranks,
    jordan_lift,
    transition_probability_deviation,
)

from conftest import (
    loop_conjugate_poset,
    loop_image_check,
    loop_jordan_check,
    loop_transition_deviation,
    random_hermitian,
    random_unitary,
)


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def sa_samples(rng, dim, count):
    return [(random_hermitian(rng, dim), random_hermitian(rng, dim)) for _ in range(count)]


def weyl_clifford(dim, a, b, kind):
    """X^a Z^b on C^dim, followed by complex conjugation when antiunitary."""
    x = np.roll(np.eye(dim), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    return cx.symmetry(kind, np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b))


@st.composite
def symmetries(draw, dim):
    """Haar-random, Weyl-Clifford or signed-permutation symmetries, of either kind."""
    kind = draw(st.sampled_from(["unitary", "antiunitary"]))
    family = draw(st.sampled_from(["haar", "weyl", "signed-permutation"]))
    if family == "weyl":
        return weyl_clifford(dim, draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)), kind)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "haar":
        return cx.symmetry(kind, random_unitary(rng, dim))
    return cx.symmetry(kind, np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], dim))


# d2 matrices that fail exactly one check of a conjugated atom
IMAGE_FAULTS = {
    "non-finite": np.full((2, 2), np.nan),
    "not-self-adjoint": np.array([[1.0, 1.0], [0.0, 0.0]]),  # idempotent, trace 1
    "not-idempotent": 2.0 * np.diag([1.0, 0.0]),
    # (1-z)^2 - (1-z) stays within tol, but the trace misses 2 by more than 2 tol
    "trace": (1 - TOL.conjugation * (1 + 5e-8)) * np.eye(2),
}


def assert_same_conjugation(poset, s):
    image, pmap = cx.conjugate_poset(poset, s)
    ref, ref_map = loop_conjugate_poset(poset, s)
    assert (image is poset) == (ref is poset)
    assert pmap.node_map == ref_map.node_map
    assert [node.atoms for node in image.nodes] == [node.atoms for node in ref.nodes]
    assert np.array_equal(image.order, ref.order)
    return image


class TestSymmetryOp:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            cx.symmetry("unitary", np.diag([1.0, 2.0]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            cx.symmetry("projective", np.eye(2))

    def test_antiunitary_action_conjugates(self):
        s = cx.symmetry("antiunitary", np.eye(2))
        m = np.array([[0, 1j], [-1j, 0]])
        assert max_norm(cx.apply_symmetry(s, m) - m.conj()) < 1e-12


class TestConjugatePoset:
    def test_identity_gives_identity_map(self, basis_poset_c3):
        image, pmap = cx.conjugate_poset(basis_poset_c3, cx.symmetry("unitary", np.eye(3)))
        assert image is basis_poset_c3
        assert pmap.node_map == tuple(range(len(basis_poset_c3)))
        assert cx.trivial_presheaf_automorphism(basis_poset_c3, pmap, image)

    def test_permutation_unitary_relabels(self, basis_poset_c3):
        perm = np.zeros((3, 3), dtype=complex)
        perm[0, 1] = perm[1, 2] = perm[2, 0] = 1.0
        image, pmap = cx.conjugate_poset(basis_poset_c3, cx.symmetry("unitary", perm))
        assert image is basis_poset_c3  # catalog is closed under the permutation
        assert sorted(pmap.node_map) == list(range(5))
        assert cx.trivial_presheaf_automorphism(basis_poset_c3, pmap, image)
        for i in range(5):
            for j in range(5):
                assert basis_poset_c3.order[i, j] == image.order[pmap(i), pmap(j)]

    def test_random_unitary_preserves_order_matrix(self, basis_poset_c3, shared_ray_poset_c3):
        rng = np.random.default_rng(31)
        for poset in (basis_poset_c3, shared_ray_poset_c3):
            u = random_unitary(rng, 3)
            image, pmap = cx.conjugate_poset(poset, cx.symmetry("unitary", u))
            assert len(image) == len(poset)
            # order-matrix comparison oracle
            for i in range(len(image)):
                for j in range(len(image)):
                    assert poset.order[i, j] == image.order[pmap(i), pmap(j)]

    def test_composition_at_poset_map_level(self, shared_ray_poset_c3):
        rng = np.random.default_rng(5)
        for kinds in (("unitary", "unitary"), ("antiunitary", "antiunitary"),
                      ("unitary", "antiunitary")):
            s1 = cx.symmetry(kinds[0], random_unitary(rng, 3))
            s2 = cx.symmetry(kinds[1], random_unitary(rng, 3))
            both = cx.compose(s2, s1)
            img1, _ = cx.conjugate_poset(shared_ray_poset_c3, s1)
            img2, _ = cx.conjugate_poset(img1, s2)
            img3, _ = cx.conjugate_poset(shared_ray_poset_c3, both)
            assert len(img2) == len(img3)
            for a, b in zip(img2.nodes, img3.nodes):
                # same node sets: atoms agree up to the rounding grid
                assert a.key_set == b.key_set
            assert np.array_equal(img2.order, img3.order)


    def test_non_projection_image_rejected(self, basis_poset_c3):
        # bypasses symmetry()'s unitarity check: 2u maps an atom p to 4p
        s = cx.wigner.SymmetryOp("unitary", 2.0 * np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="conjugated atom fails the projection check"):
            cx.conjugate_poset(basis_poset_c3, s)

    def test_non_finite_image_rejected(self, basis_poset_c3):
        s = cx.wigner.SymmetryOp("unitary", np.full((3, 3), np.nan, dtype=complex))
        with pytest.raises(ValueError, match="operator entries must be finite"):
            cx.conjugate_poset(basis_poset_c3, s)


class TestConjugationDifferential:
    """The stacked conjugation against one check and one registry call per (node, atom)."""

    @settings(deadline=None)
    @given(data=st.data(), which=st.integers(0, 3))
    def test_same_image_as_loop(
        self, data, which, basis_poset_c3, shared_ray_poset_c3, mub_poset_c3, ks18_poset
    ):
        poset = (basis_poset_c3, shared_ray_poset_c3, mub_poset_c3, ks18_poset)[which]
        assert_same_conjugation(poset, data.draw(symmetries(poset.dim)))

    def test_weyl_clifford_maps(self, mub_poset_c3, ks18_poset):
        maps = [(a, b, kind) for a in range(3) for b in range(3) for kind in ("unitary", "antiunitary")]
        for a, b, kind in maps:  # they permute the MUBs of d3
            image = assert_same_conjugation(mub_poset_c3, weyl_clifford(3, a, b, kind))
            assert image is mub_poset_c3
        # in d4 some of them keep ks18 and some leave it, so both routes run
        images = [assert_same_conjugation(ks18_poset, weyl_clifford(4, a, b, k)) for a, b, k in maps]
        assert {image is ks18_poset for image in images} == {True, False}

    @pytest.mark.parametrize(
        "faults",
        [(f,) for f in IMAGE_FAULTS] + list(itertools.permutations(IMAGE_FAULTS, 2)),
    )
    def test_image_checks_match_projection(self, faults):
        # each faulty image follows a good one; the first in stack order decides the error
        good = [np.diag([1.0, 0.0]), 0.5 * np.ones((2, 2))]
        stack = np.array([m for f in faults for m in (good[0], IMAGE_FAULTS[f])] + good, dtype=complex)
        with pytest.raises(ValueError) as want:
            for m in stack:
                loop_image_check(m)
        with pytest.raises(ValueError) as got:
            _projection_ranks(stack)
        assert str(got.value) == str(want.value)
        assert _projection_ranks(np.array(good, dtype=complex)) == [1, 1]


class TestJordanCheck:
    def test_unitary_sign_plus(self):
        rng = np.random.default_rng(7)
        s = cx.symmetry("unitary", random_unitary(rng, 3))
        rep = cx.jordan_check(s, sa_samples(rng, 3, 10))
        assert rep.max_jordan_residual <= 1e-12
        assert rep.sign == 1

    def test_antiunitary_sign_minus(self):
        rng = np.random.default_rng(9)
        s = cx.symmetry("antiunitary", np.eye(2))
        rep = cx.jordan_check(s, [(PAULI_Z, PAULI_X)])
        assert rep.max_jordan_residual <= 1e-12
        assert rep.sign == -1

    def test_equal_inputs_square(self):
        rng = np.random.default_rng(13)
        a = random_hermitian(rng, 3)
        for kind in ("unitary", "antiunitary"):
            s = cx.symmetry(kind, random_unitary(rng, 3))
            lhs = cx.apply_symmetry(s, cx.jordan_product(a, a))
            fa = cx.apply_symmetry(s, a)
            assert max_norm(lhs - fa @ fa) < 1e-12

    def test_commuting_pairs_skipped(self):
        s = cx.symmetry("unitary", np.eye(2))
        rep = cx.jordan_check(s, [(PAULI_Z, np.eye(2, dtype=complex))])
        assert rep.sign is None
        assert rep.n_commuting_skipped == 1

    def test_non_self_adjoint_sample_rejected(self):
        s = cx.symmetry("unitary", np.eye(2))
        raising = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="requires self-adjoint samples"):
            cx.jordan_check(s, [(PAULI_Z, PAULI_X), (PAULI_X, raising)])

    def test_sign_separates_on_all_noncommuting(self):
        rng = np.random.default_rng(15)
        trials = 0
        for dim in (3, 4, 5):
            for kind, want in (("unitary", 1), ("antiunitary", -1)):
                s = cx.symmetry(kind, random_unitary(rng, dim))
                samples = sa_samples(rng, dim, 17)
                rep = cx.jordan_check(s, samples)
                assert rep.max_jordan_residual <= 1e-10
                assert rep.signs.count(want) == len(samples) - rep.n_commuting_skipped
                trials += len(samples)
        assert trials >= 100

    def test_jordan_lift_linear(self):
        rng = np.random.default_rng(19)
        s = cx.symmetry("antiunitary", random_unitary(rng, 3))
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = jordan_lift(s, 2.0 * x + 1j * y)
        rhs = 2.0 * jordan_lift(s, x) + 1j * jordan_lift(s, y)
        assert max_norm(lhs - rhs) < 1e-10


class TestStackedChecksDifferential:
    """Stacked Jordan and transition checks against one pair at a time."""

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.sampled_from(["unitary", "antiunitary"]),
        st.lists(st.sampled_from(["random", "commuting", "tiny"]), max_size=6),
    )
    def test_jordan_check_matches_loop(self, seed, dim, kind, pair_kinds):
        rng = np.random.default_rng(seed)
        s = cx.symmetry(kind, random_unitary(rng, dim))
        samples = []
        for pair in pair_kinds:  # commuting and tiny pairs are skipped for the sign
            a = random_hermitian(rng, dim)
            if pair == "commuting":
                samples.append((a, a @ a))
            else:
                samples.append((a, random_hermitian(rng, dim) * (1e-12 if pair == "tiny" else 1.0)))
        got = cx.jordan_check(s, samples)
        want = loop_jordan_check(s, samples)
        assert got.signs == want.signs
        assert (got.sign, got.n_commuting_skipped) == (want.sign, want.n_commuting_skipped)
        assert abs(got.max_jordan_residual - want.max_jordan_residual) <= 1e-12

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.sampled_from(["unitary", "antiunitary"]),
        st.integers(0, 9),
    )
    def test_transition_deviation_matches_loop(self, seed, dim, kind, n_rays):
        rng = np.random.default_rng(seed)
        s = cx.symmetry(kind, random_unitary(rng, dim))
        rays = [cx.projection_from_ray(random_unitary(rng, dim)[:, 0]) for _ in range(n_rays)]
        got = transition_probability_deviation(s, rays)
        assert abs(got - loop_transition_deviation(s, rays)) <= 1e-12


class TestTrivialPresheafAutomorphism:
    def test_identity(self, basis_poset_c3):
        m = PosetMap(tuple(range(5)))
        assert cx.trivial_presheaf_automorphism(basis_poset_c3, m)

    def test_conjugation_output(self, mub_poset_c3):
        rng = np.random.default_rng(21)
        s = cx.symmetry("antiunitary", random_unitary(rng, 3))
        image, pmap = cx.conjugate_poset(mub_poset_c3, s)
        assert cx.trivial_presheaf_automorphism(mub_poset_c3, pmap, image)

    def test_swapping_inequivalent_nodes_fails(self, basis_poset_c3):
        maximal = basis_poset_c3.maximal_nodes()[0]
        trivial = basis_poset_c3.trivial_node()
        node_map = list(range(5))
        node_map[maximal], node_map[trivial] = node_map[trivial], node_map[maximal]
        assert not cx.trivial_presheaf_automorphism(basis_poset_c3, PosetMap(tuple(node_map)))

    def test_non_bijection_fails(self, basis_poset_c3):
        assert not cx.trivial_presheaf_automorphism(basis_poset_c3, PosetMap((0,) * 5))


class TestTransitionProbabilities:
    def test_preserved_for_both_kinds(self, mub_poset_c3):
        rng = np.random.default_rng(23)
        rays = [
            p
            for i in range(len(mub_poset_c3))
            for p in mub_poset_c3.atoms_of(i)
            if p.rank == 1
        ]
        for kind in ("unitary", "antiunitary"):
            s = cx.symmetry(kind, random_unitary(rng, 3))
            assert transition_probability_deviation(s, rays[:10]) <= 1e-9


class TestPermutationComposition:
    def test_map_composition_is_nontrivial_permutation(self, basis_poset_c3):
        # catalog closed under permutations: maps resolve into the original
        # poset and compose as permutations
        cycle = np.zeros((3, 3), dtype=complex)
        cycle[0, 1] = cycle[1, 2] = cycle[2, 0] = 1.0
        swap = np.zeros((3, 3), dtype=complex)
        swap[0, 1] = swap[1, 0] = swap[2, 2] = 1.0
        s1 = cx.symmetry("unitary", cycle)
        s2 = cx.symmetry("unitary", swap)
        _, m1 = cx.conjugate_poset(basis_poset_c3, s1)
        _, m2 = cx.conjugate_poset(basis_poset_c3, s2)
        _, m21 = cx.conjugate_poset(basis_poset_c3, cx.compose(s2, s1))
        composed = tuple(m2(m1(i)) for i in range(len(basis_poset_c3)))
        assert composed == m21.node_map
        assert sorted(m21.node_map) == list(range(5))
        assert m21.node_map != tuple(range(5))  # genuinely permutes nodes
