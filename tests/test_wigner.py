"""Symmetry action on posets: order automorphisms, Jordan checks, signs."""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import contextua as cx
from contextua import cli, contexts
from contextua.catalogs import bundled_text
from contextua.contexts import context_from_projections
from contextua.opalg import TOL, CanonicalizationError, canonical_keys, check_projections, max_norm
from contextua.wigner import PosetMap, _apply_each, transition_probability_deviation

from conftest import (
    apply_symmetry,
    compose,
    einsum_atom_lookup,
    jordan_lift,
    loop_conjugate_poset,
    loop_jordan_check,
    loop_projection_check,
    loop_transition_deviation,
    pauli_subset_catalog,
    random_hermitian,
    random_unitary,
    rank_of,
    ray_projection,
    shared_ray_catalog_poset,
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


# each way to fail the projection check, and the error it raises
EXPECTED_FAULT = {
    "non-finite": "operator entries must be finite",
    "not-self-adjoint": "matrix is not a projection within tolerance",
    "not-idempotent": "matrix is not a projection within tolerance",
    "trace": "is not near an integer",
}
FAULTS = tuple(EXPECTED_FAULT)


def padded(m, dim=128):
    """``m`` in the top left corner of a ``dim`` x ``dim`` zero matrix."""
    out = np.zeros((dim, dim), dtype=complex)
    out[: len(m), : len(m)] = m
    return out


def image_fault(fault, tol, dim=128):
    """A d128 matrix that fails exactly the ``fault`` check of a projection at ``tol``."""
    if fault == "non-finite":
        return np.full((dim, dim), np.nan)
    if fault == "not-self-adjoint":
        return padded(np.array([[1.0, 1.0], [0.0, 0.0]]), dim)  # idempotent, trace 1
    if fault == "not-idempotent":
        return padded(2.0 * np.diag([1.0, 0.0]), dim)
    # z^2 - z stays within tol, but the trace dim z misses 0 by more than dim tol, which
    # at dim 128 exceeds TOL.eigen_gap at both tols tested
    return tol * (1 + tol / 2) * np.eye(dim)


def assert_same_conjugation(poset, s, conjugated=None):
    """``conjugated`` (by default ``conjugate_poset(poset, s)``) equals the loop reference:
    nodes, order, every dominator map and every image atom's matrix."""
    image, pmap = conjugated or cx.conjugate_poset(poset, s)
    ref, ref_map = loop_conjugate_poset(poset, s)
    assert (image is poset) == (ref is poset)
    assert pmap.node_map == ref_map.node_map
    assert [node.atoms for node in image.nodes] == [node.atoms for node in ref.nodes]
    assert np.array_equal(image.order, ref.order)
    for i, j in zip(*np.nonzero(ref.order)):
        assert np.array_equal(image.dominator_map(i, j), ref.dominator_map(i, j))
    keys = list({k for node in ref.nodes for k in node.atoms})
    assert np.array_equal(image.registry.matrices(keys), ref.registry.matrices(keys))
    return image


def assert_batch_as_loop(poset, ops):
    """``conjugate_posets(poset, ops)`` does what one loop-reference call per op does, in op
    order: the same images up to the first op whose call raises, then that op's error."""
    for k, s in enumerate(ops):
        try:
            loop_conjugate_poset(poset, s)
        except (ValueError, RuntimeError) as exc:
            with pytest.raises(type(exc)) as got:
                cx.conjugate_posets(poset, ops)
            assert str(got.value) == str(exc)
            assert getattr(got.value, "key", None) == getattr(exc, "key", None)
            ops = ops[:k]
            break
    got = cx.conjugate_posets(poset, ops)
    assert len(got) == len(ops)
    for s, conjugated in zip(ops, got):
        assert_same_conjugation(poset, s, conjugated)


@functools.cache
def bundled_poset(name):
    return cx.build_single_poset(cx.parse_scenario(bundled_text(name)))


@functools.cache
def jittered_pauli_poset(bases, jitter, tol, seed):
    """Bundled pauli-c4 bases, each turned by its own small unitary; None when the build
    rejects two projections closer than the grid."""
    registry = cx.ProjectionRegistry(4, tol)
    try:
        return cx.generate_poset(pauli_subset_catalog(registry, bases, jitter, seed), registry)
    except CanonicalizationError:
        return None


@st.composite
def generated_posets(draw):
    """Random rotations of one basis that keep its first ray (d3 to d5), or a few
    jittered pauli-c4 bases, whose shared rays the registry merges (tol 1e-5), keeps
    apart or rejects."""
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        return shared_ray_catalog_poset(seed, draw(st.integers(3, 5)), draw(st.integers(1, 4)))
    bases = tuple(draw(st.lists(st.integers(0, 14), min_size=2, max_size=4, unique=True)))
    jitter = draw(st.sampled_from([3e-8, 1.2e-7, 2e-6, 1e-3]))
    poset = jittered_pauli_poset(bases, jitter, draw(st.sampled_from([TOL.identity, 1e-5])), seed)
    assume(poset is not None)
    return poset


PAULIS = (np.eye(2), PAULI_X, np.array([[0, -1j], [1j, 0]]), PAULI_Z)


def pauli_string(word, kind):
    return cx.symmetry(kind, functools.reduce(np.kron, [PAULIS[i] for i in word], np.eye(1)))


@st.composite
def op_mixes(draw, dim):
    """One to six symmetries of either kind, each Haar-random or Clifford.

    The Clifford ones are Pauli strings in dimension 2^n and Weyl-Clifford
    maps otherwise; they keep mub-c3, demo-c3 and mermin-c8, and some of them
    keep ks18-c4, so their images resolve in place, where Haar images rebuild.
    """
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["unitary", "antiunitary"]))
        if draw(st.booleans()):
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            ops.append(cx.symmetry(kind, random_unitary(rng, dim)))
        elif dim & (dim - 1) == 0:
            n = dim.bit_length() - 1
            ops.append(pauli_string(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), kind))
        else:
            a, b = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            ops.append(weyl_clifford(dim, a, b, kind))
    return ops


class TestSymmetryOp:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            cx.symmetry("unitary", np.diag([1.0, 2.0]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            cx.symmetry("projective", np.eye(2))

    def test_batch_raises_the_first_failing_op(self):
        # each op's checks in turn: kind, shape, finite entries, unitarity
        good, stretched, infinite = np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, np.inf])
        with pytest.raises(ValueError, match="not unitary"):
            cx.symmetries(["unitary", "antiunitary", "projective"], [good, stretched, good])
        with pytest.raises(ValueError, match="kind"):
            cx.symmetries(["projective", "unitary"], [good, infinite])
        with pytest.raises(ValueError, match="finite"):
            cx.symmetries(["unitary", "unitary"], [infinite, stretched])
        with pytest.raises(ValueError, match=r"square matrix, got shape \(3,\)"):
            cx.symmetry("unitary", np.ones(3))

    def test_batch_matches_one_call_per_op(self):
        rng = np.random.default_rng(5)
        kinds = ["unitary", "antiunitary", "antiunitary", "unitary"]
        mats = [random_unitary(rng, 3) for _ in kinds]
        for op, kind, u in zip(cx.symmetries(kinds, mats), kinds, mats):
            one = cx.symmetry(kind, u)
            assert op.kind == one.kind == kind
            assert np.array_equal(op.matrix, one.matrix) and np.array_equal(op.matrix, u)
            assert not op.matrix.flags.writeable

    def test_antiunitary_action_conjugates(self):
        s = cx.symmetry("antiunitary", np.eye(2))
        m = np.array([[0, 1j], [-1j, 0]])
        assert max_norm(_apply_each([s], m[None])[0] - m.conj()) < 1e-12


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
            both = compose(s2, s1)
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
        with pytest.raises(ValueError, match="matrix is not a projection within tolerance"):
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

    @pytest.mark.parametrize("tol", [TOL.exact, TOL.conjugation])
    @pytest.mark.parametrize(
        "faults", [(f,) for f in FAULTS] + list(itertools.permutations(FAULTS, 2))
    )
    def test_image_checks_match_projection(self, faults, tol):
        # each faulty matrix follows a good one; the first in stack order decides the error
        good = [padded(np.diag([1.0, 0.0])), padded(0.5 * np.ones((2, 2)))]
        faulty = [m for f in faults for m in (good[0], image_fault(f, tol))]
        stack = np.array(faulty + good, dtype=complex)
        with pytest.raises(ValueError) as want:
            loop_projection_check(stack, tol)
        with pytest.raises(ValueError) as got:
            check_projections(stack, tol)
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match=EXPECTED_FAULT[faults[0]]):
            check_projections(stack, tol)
        check_projections(np.array(good, dtype=complex), tol)


def near_identity(dim, t, seed):
    """exp(i t h) for a seeded Hermitian h: moves every atom by about t."""
    w, v = np.linalg.eigh(random_hermitian(np.random.default_rng(seed), dim))
    return (v * np.exp(1j * t * w)) @ v.conj().T


@pytest.fixture
def rebuild_calls(monkeypatch):
    """The name of every ``register_many`` and ``poset_from_nodes`` call from here on."""
    calls = []
    register_many, poset_from_nodes = cx.ProjectionRegistry.register_many, contexts.poset_from_nodes

    def counted_register_many(self, mats):
        calls.append("register_many")
        return register_many(self, mats)

    def counted_poset_from_nodes(*args):
        calls.append("poset_from_nodes")
        return poset_from_nodes(*args)

    monkeypatch.setattr(cx.ProjectionRegistry, "register_many", counted_register_many)
    monkeypatch.setattr(contexts, "poset_from_nodes", counted_poset_from_nodes)
    return calls


def near_grid_poset(eps):
    """Two d3 bases, the second turning the first two rays of the first by ``eps`` in their
    plane, so that each of those rays lies about ``eps`` from its turned copy."""
    registry = cx.ProjectionRegistry(3)
    c, s = np.cos(eps), np.sin(eps)
    turned = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    bases = [
        context_from_projections(registry, [np.outer(b[:, k], b[:, k]) for k in range(3)])
        for b in (np.eye(3), turned)
    ]
    return cx.generate_poset(bases, registry)


def turned_ray_poset(eps, shared):
    """Two d3 bases at tol 1e-5: e0..e2, and a second whose first ray turns e0 by ``eps``
    towards e1. With ``shared`` the second turns e0 and e1 in their plane and keeps e2;
    otherwise its other two rays lie at 45 degrees to e2."""
    registry = cx.ProjectionRegistry(3, 1e-5)
    e, c, s = np.eye(3), np.cos(eps), np.sin(eps)
    if shared:
        turned = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    else:
        g = np.array([s, -c, 0.0])  # orthogonal to the turned ray and to e2
        turned = np.array([c * e[0] + s * e[1], (g + e[2]) / np.sqrt(2), (g - e[2]) / np.sqrt(2)]).T
    bases = [
        context_from_projections(registry, [np.outer(b[:, k], b[:, k]) for k in range(3)])
        for b in (e, turned)
    ]
    return cx.generate_poset(bases, registry)


class TestBatchedConjugation:
    """``conjugate_posets`` against one loop-reference conjugation per op."""

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), name=st.sampled_from(["demo-c3", "mub-c3", "ks18-c4", "mermin-c8"]))
    def test_each_op_as_loop(self, data, name):
        poset = bundled_poset(name)
        ops = data.draw(op_mixes(poset.dim))
        got = cx.conjugate_posets(poset, ops)
        assert len(got) == len(ops)
        for s, conjugated in zip(ops, got):
            assert_same_conjugation(poset, s, conjugated)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), poset=generated_posets())
    def test_each_op_as_loop_on_generated_posets(self, data, poset):
        assert_batch_as_loop(poset, data.draw(op_mixes(poset.dim)))

    @pytest.mark.parametrize(
        "name,clifford",
        [
            ("demo-c3", weyl_clifford(3, 1, 2, "antiunitary")),
            ("mub-c3", weyl_clifford(3, 1, 2, "antiunitary")),
            ("ks18-c4", weyl_clifford(4, 0, 0, "antiunitary")),  # its rays are real
            ("mermin-c8", pauli_string((1, 2, 3), "antiunitary")),
        ],
    )
    def test_one_batch_resolves_and_rebuilds(self, name, clifford):
        poset = bundled_poset(name)
        rng = np.random.default_rng(41)
        ops = [cx.symmetry("unitary", random_unitary(rng, poset.dim)), clifford]
        got = cx.conjugate_posets(poset, ops + ops[::-1])
        assert [image is poset for image, _ in got] == [False, True, True, False]
        for s, conjugated in zip(ops + ops[::-1], got):
            assert_same_conjugation(poset, s, conjugated)

    def test_near_grid_images_raise_as_loop(self, rebuild_calls):
        # the rays 1.6e-6 apart are distinct, just above the 1e-6 grid; conjugation keeps
        # their Frobenius distance but not their max-entry distance, and 31 of these 300
        # unitaries bring two image atoms closer than the grid, which the registry rejects
        poset = near_grid_poset(1.6e-6)
        rng = np.random.default_rng(0)
        ops = [cx.symmetry("unitary", random_unitary(rng, 3)) for _ in range(300)]
        failing = []
        for k, s in enumerate(ops):
            try:
                loop_conjugate_poset(poset, s)
            except CanonicalizationError as exc:
                assert "closer than the rounding grid" in str(exc)
                failing.append(k)
        assert len(failing) == 31
        clean = [s for k, s in enumerate(ops) if k not in failing][:12]
        rebuild_calls.clear()
        cx.conjugate_posets(poset, clean)
        assert rebuild_calls == []  # the kept pairs' images were measured, and are apart
        mixed = clean[:3] + [ops[failing[1]]] + clean[3:6] + [ops[failing[0]]] + clean[6:]
        assert_batch_as_loop(poset, mixed)
        assert_batch_as_loop(poset, ops[: failing[2] + 1])
        assert_batch_as_loop(poset, clean)

    def test_merged_images_as_loop(self):
        # the turned ray and e0 are 1.2e-5 apart, kept apart at tol 1e-5; conjugation keeps
        # their Frobenius distance but not their max-entry distance, and 32 of these 40
        # unitaries bring their images within tol, where the image registry merges them
        poset = turned_ray_poset(1.2e-5, shared=False)
        rng = np.random.default_rng(0)
        ops = [cx.symmetry("unitary", random_unitary(rng, 3)) for _ in range(40)]
        sizes = [len(loop_conjugate_poset(poset, s)[0].registry) for s in ops]
        merged = [k for k, size in enumerate(sizes) if size == 6]  # of the 7 image atoms
        assert len(merged) == 32
        for s, conjugated in zip(ops, cx.conjugate_posets(poset, ops)):
            assert_same_conjugation(poset, s, conjugated)
        image, _ = cx.conjugate_poset(poset, ops[merged[0]])
        assert image.nodes[0].atoms[0] == image.nodes[1].atoms[0]  # one image atom in both

    def test_merged_images_raise_as_loop(self):
        # with e2 shared, e0 and e1 turn together: where their images merge, so do the other
        # pair's, and the two image bases are one context, which the order rejects
        poset = turned_ray_poset(1.2e-5, shared=True)
        rng = np.random.default_rng(0)
        ops = [cx.symmetry("unitary", random_unitary(rng, 3)) for _ in range(40)]
        failing = []
        for k, s in enumerate(ops):
            try:
                loop_conjugate_poset(poset, s)
            except RuntimeError as exc:
                assert str(exc) == "order relation failed antisymmetry"
                failing.append(k)
        assert len(failing) == 32
        clean = [s for k, s in enumerate(ops) if k not in failing]
        assert_batch_as_loop(poset, clean[:3] + [ops[failing[0]]] + clean[3:])
        assert_batch_as_loop(poset, ops)
        assert_batch_as_loop(poset, clean)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("name", ["mub-c3", "ks18-c4"])
    def test_wigner_check_rebuilds_nothing(self, rebuild_calls, monkeypatch, name, seed):
        # every one of its ten symmetries leaves the poset
        during_build = []
        build = cli.build_single_poset

        def build_then_count(*args):
            poset = build(*args)
            during_build.extend(rebuild_calls)
            rebuild_calls.clear()
            return poset

        monkeypatch.setattr(cli, "build_single_poset", build_then_count)
        report = cli.run("wigner-check", cx.parse_scenario(bundled_text(name)), seed=seed)
        assert (report.verdict, report.payload["order_automorphisms"]) == ("wigner_ok", True)
        assert {"register_many", "poset_from_nodes"} <= set(during_build)  # the counters count
        assert rebuild_calls == []

    def test_empty_batch(self, mub_poset_c3):
        assert cx.conjugate_posets(mub_poset_c3, []) == []

    def test_only_the_unresolved_op_rebuilds(self):
        # the registry also holds a turned basis that is no node of the poset
        registry = cx.ProjectionRegistry(3)
        e = np.eye(3)
        basis = context_from_projections(registry, [np.outer(row, row) for row in e])
        u = random_unitary(np.random.default_rng(3), 3)
        registry.register_many(np.array([ray_projection(u[:, k]) for k in range(3)]))
        poset = cx.generate_poset([basis], registry)
        cycle = cx.symmetry("unitary", np.roll(np.eye(3), 1, axis=0))
        turned = cx.symmetry("unitary", u)  # its image context is registered but no node
        nudged = cx.symmetry("antiunitary", near_identity(3, 1e-7, 5))  # within the grid
        swap = cx.symmetry("unitary", np.eye(3)[[1, 0, 2]])
        with pytest.raises(CanonicalizationError):
            registry.find_many(apply_symmetry(nudged, np.outer(e[0], e[0]))[None])
        ops = [cycle, turned, nudged, swap]
        got = cx.conjugate_posets(poset, ops)
        assert [image is poset for image, _ in got] == [True, False, False, True]
        for s, conjugated in zip(ops, got):
            assert_same_conjugation(poset, s, conjugated)

    @pytest.mark.parametrize("order", [(0,), (1,), (0, 1), (1, 0)])
    def test_first_failing_op_raises_its_error(self, mub_poset_c3, order):
        # bypasses symmetry()'s checks: diag(1, 1, 2) keeps e0 and e1 but maps e2 to 4 e2, so
        # that op fails after the NaN op's first image in atom order; NaN entries are not finite
        faulty = [
            cx.wigner.SymmetryOp("unitary", np.diag([1.0, 1.0, 2.0]).astype(complex)),
            cx.wigner.SymmetryOp("antiunitary", np.full((3, 3), np.nan, dtype=complex)),
        ]
        rng = np.random.default_rng(43)
        ops = [weyl_clifford(3, 1, 1, "unitary")]
        for k in order:
            ops += [faulty[k], cx.symmetry("antiunitary", random_unitary(rng, 3))]
        with pytest.raises(ValueError) as want:
            for s in ops:
                loop_conjugate_poset(mub_poset_c3, s)
        with pytest.raises(ValueError) as got:
            cx.conjugate_posets(mub_poset_c3, ops)
        assert str(got.value) == str(want.value)


def check_atom_table(poset):
    """The poset's atom table against its nodes and registry: the distinct node atoms in
    order of first appearance, bit-equal matrices, equal ranks, and rows that give back
    each node's atoms; its atom lookup against the einsum dominance table of the stack."""
    keys = tuple(dict.fromkeys(k for node in poset.nodes for k in node.atoms))
    assert poset.keys == keys
    assert poset.stack.shape == (len(keys), poset.dim, poset.dim)
    assert not poset.stack.flags.writeable
    for t, p in enumerate(poset.registry.matrices(keys)):
        assert poset.stack[t].tobytes() == p.tobytes()
        assert poset.ranks[t] == rank_of(p)
    assert [tuple(keys[t] for t in rows) for rows in poset.rows] == [n.atoms for n in poset.nodes]
    assert np.array_equal(poset.over, einsum_atom_lookup(poset))


class TestAtomTable:
    """Each poset's atom table, and that of each image poset, read against the registry."""

    @settings(deadline=None, max_examples=40)
    @given(
        poset=st.one_of(
            generated_posets(),
            st.sampled_from([1.2e-5, 1.5e-5]).map(lambda eps: turned_ray_poset(eps, False)),
        ),
        seed=st.integers(0, 2**31 - 1),
        kinds=st.lists(st.sampled_from(["unitary", "antiunitary"]), min_size=1, max_size=4),
    )
    def test_table_as_registry(self, poset, seed, kinds):
        check_atom_table(poset)
        rng = np.random.default_rng(seed)
        ops = [cx.symmetry(kind, random_unitary(rng, poset.dim)) for kind in kinds]
        try:
            images = cx.conjugate_posets(poset, ops)
        except (CanonicalizationError, RuntimeError):
            return  # an op whose images collide or whose image order fails raises, as a loop would
        for image, _ in images:
            check_atom_table(image)

    def test_merged_images(self):
        # 32 of these 40 unitaries merge two of the 7 image atoms at tol 1e-5; their image
        # posets keep 6 rows, and renumber the rows of every node after the merged one
        poset = turned_ray_poset(1.2e-5, shared=False)
        rng = np.random.default_rng(0)
        ops = [cx.symmetry("unitary", random_unitary(rng, 3)) for _ in range(40)]
        images = [image for image, _ in cx.conjugate_posets(poset, ops)]
        assert sorted(len(image.keys) for image in images) == [6] * 32 + [7] * 8
        for image in images:
            check_atom_table(image)
            if len(image.keys) == 7:  # nothing merged: the source rows serve the image
                assert image.rows is poset.rows


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
        # the image of a . a = a^2 is the square of the image of a; a commutes with itself
        rng = np.random.default_rng(13)
        a = random_hermitian(rng, 3)
        for kind in ("unitary", "antiunitary"):
            s = cx.symmetry(kind, random_unitary(rng, 3))
            rep = cx.jordan_check(s, [(a, a)])
            assert rep.max_jordan_residual < 1e-12
            assert (rep.signs, rep.n_commuting_skipped) == ([None], 1)
            fa = apply_symmetry(s, a)
            assert max_norm(apply_symmetry(s, a @ a) - fa @ fa) < 1e-12

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
        rays = [ray_projection(random_unitary(rng, dim)[:, 0]) for _ in range(n_rays)]
        got = transition_probability_deviation(s, rays)
        assert abs(got - loop_transition_deviation(s, rays)) <= 1e-12


class TestBatchedChecksDifferential:
    """``jordan_checks`` and ``transition_probability_deviations`` against one loop per op."""

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.lists(st.sampled_from(["unitary", "antiunitary"]), min_size=1, max_size=6),
        st.lists(st.sampled_from(["random", "commuting", "tiny"]), max_size=5),
    )
    def test_jordan_checks_match_loop(self, seed, dim, kinds, pair_kinds):
        rng = np.random.default_rng(seed)
        ops = [cx.symmetry(kind, random_unitary(rng, dim)) for kind in kinds]
        samples = []
        for _ in ops:
            pairs = []
            for pair in pair_kinds:
                a = random_hermitian(rng, dim)
                if pair == "commuting":
                    pairs.append((a, a @ a))
                else:
                    scale = 1e-12 if pair == "tiny" else 1.0
                    pairs.append((a, random_hermitian(rng, dim) * scale))
            samples.append(pairs)
        got = cx.jordan_checks(ops, samples)
        assert len(got) == len(ops)
        for s, pairs, rep in zip(ops, samples, got):
            want = loop_jordan_check(s, pairs)
            assert rep.signs == want.signs
            assert (rep.sign, rep.n_commuting_skipped) == (want.sign, want.n_commuting_skipped)
            assert abs(rep.max_jordan_residual - want.max_jordan_residual) <= 1e-12

    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.lists(st.sampled_from(["unitary", "antiunitary"]), max_size=6),
        st.integers(0, 9),
    )
    def test_transition_deviations_match_loop(self, seed, dim, kinds, n_rays):
        rng = np.random.default_rng(seed)
        ops = [cx.symmetry(kind, random_unitary(rng, dim)) for kind in kinds]
        rays = [ray_projection(random_unitary(rng, dim)[:, 0]) for _ in range(n_rays)]
        got = cx.transition_probability_deviations(ops, rays)
        assert len(got) == len(ops)
        for s, value in zip(ops, got):
            assert abs(value - loop_transition_deviation(s, rays)) <= 1e-12

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_first_failing_op_raises_its_error(self, order):
        ops = [cx.symmetry("unitary", np.eye(2)), cx.symmetry("antiunitary", np.eye(2))] * 2
        faulty = [
            (PAULI_X, np.array([[0, 1], [0, 0]], dtype=complex)),  # not self-adjoint
            (PAULI_X, np.full((2, 2), np.nan, dtype=complex)),
        ]
        samples = [[(PAULI_Z, PAULI_X)]] + [[faulty[k]] for k in order] + [[(PAULI_Z, PAULI_X)]]
        with pytest.raises(ValueError) as want:
            for s, pairs in zip(ops, samples):
                cx.jordan_check(s, pairs)
        with pytest.raises(ValueError) as got:
            cx.jordan_checks(ops, samples)
        assert str(got.value) == str(want.value)
        assert str(got.value) == (
            "jordan_check requires self-adjoint samples" if order[0] == 0
            else "operator entries must be finite"
        )


# wigner-check before its symmetries were batched: (scenario, seed) -> (max_jordan_residual,
# max_transition_deviation); every one of these runs gives wigner_ok with exit code 0
WIGNER_CHECK_GOLDEN = {
    ("demo-c3", 0): (2.220446049250313e-15, 1.6653345369377348e-15),
    ("demo-c3", 3): (2.132668787380004e-15, 1.1102230246251565e-15),
    ("demo-c3", 7): (2.4546975114833613e-15, 1.1102230246251565e-15),
    ("ks18-c4", 0): (3.553147333202946e-15, 1.5543122344752192e-15),
    ("ks18-c4", 3): (2.7399406787778174e-15, 1.3322676295501878e-15),
    ("ks18-c4", 7): (3.123581453758768e-15, 1.4432899320127035e-15),
    ("mermin-c8", 0): (4.528839093602941e-15, 1.2212453270876722e-15),
    ("mermin-c8", 3): (3.66205343881779e-15, 1.1102230246251565e-15),
    ("mermin-c8", 7): (4.528839093602941e-15, 1.5543122344752192e-15),
    ("mub-c3", 0): (2.220446049250313e-15, 1.6653345369377348e-15),
    ("mub-c3", 3): (2.132668787380004e-15, 1.3322676295501878e-15),
    ("mub-c3", 7): (2.4546975114833613e-15, 1.2212453270876722e-15),
    ("pauli-c4", 0): (3.553147333202946e-15, 1.5543122344752192e-15),
    ("pauli-c4", 3): (2.7399406787778174e-15, 1.3322676295501878e-15),
    ("pauli-c4", 7): (3.123581453758768e-15, 1.4432899320127035e-15),
}


class TestWignerCheckReport:
    @pytest.mark.parametrize("name,seed", list(WIGNER_CHECK_GOLDEN))
    def test_same_report_as_one_op_at_a_time(self, name, seed):
        report = cli.run("wigner-check", cx.parse_scenario(bundled_text(name)), seed=seed)
        assert (report.verdict, report.exit_code) == ("wigner_ok", 0)
        payload = dict(report.payload)
        jordan, transition = WIGNER_CHECK_GOLDEN[name, seed]
        assert abs(payload.pop("max_jordan_residual") - jordan) <= 1e-14
        assert abs(payload.pop("max_transition_deviation") - transition) <= 1e-14
        assert payload == {
            "n_unitaries": 5,
            "n_antiunitaries": 5,
            "order_automorphisms": True,
            "commutator_signs_separate": True,
        }

    def test_single_system_scenarios_covered(self):
        from contextua.catalogs import bundled_names, bundled_scenario

        single = {n for n in bundled_names() if bundled_scenario(n)["kind"] == "single"}
        assert {name for name, _ in WIGNER_CHECK_GOLDEN} == single

    def test_transition_sample_is_eight_distinct_rays(self, monkeypatch):
        # ks18-c4's first eight atom slots hold only seven rays
        seen = []
        batched = cli.transition_probability_deviations

        def recorded(ops, rays):
            seen.append(rays)
            return batched(ops, rays)

        monkeypatch.setattr(cli, "transition_probability_deviations", recorded)
        cli.run("wigner-check", cx.parse_scenario(bundled_text("ks18-c4")))
        (rays,) = seen
        assert len(set(canonical_keys(rays))) == len(rays) == 8
        check_projections(rays, TOL.exact)
        assert all(rank_of(p) == 1 for p in rays)


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
        trivial = basis_poset_c3.node_id(cx.trivial_context(basis_poset_c3.registry))
        node_map = list(range(5))
        node_map[maximal], node_map[trivial] = node_map[trivial], node_map[maximal]
        assert not cx.trivial_presheaf_automorphism(basis_poset_c3, PosetMap(tuple(node_map)))

    def test_non_bijection_fails(self, basis_poset_c3):
        assert not cx.trivial_presheaf_automorphism(basis_poset_c3, PosetMap((0,) * 5))


class TestTransitionProbabilities:
    def test_preserved_for_both_kinds(self, mub_poset_c3):
        poset = mub_poset_c3
        rng = np.random.default_rng(23)
        rays = [
            p
            for i in range(len(poset))
            for p, rank in zip(poset.atom_matrices(i), poset.ranks[poset.rows[i]])
            if rank == 1
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
        _, m21 = cx.conjugate_poset(basis_poset_c3, compose(s2, s1))
        composed = tuple(m2(m1(i)) for i in range(len(basis_poset_c3)))
        assert composed == m21.node_map
        assert sorted(m21.node_map) == list(range(5))
        assert m21.node_map != tuple(range(5))  # genuinely permutes nodes
