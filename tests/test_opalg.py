"""Operator algebra layer: projections, lattice ops, spectra, registry."""

from __future__ import annotations

import ast
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import contextua as cx
from contextua.opalg import (
    TOL,
    CanonicalizationError,
    ProjectionRegistry,
    Tolerances,
    _near_pairs,
    canonical_keys,
    check_projections,
    identity_rule,
    max_norm,
)
from contextua.scenario import ScenarioError, _catalog

from conftest import (
    LoopScanRegistry,
    canonical_key,
    find_one,
    full_scan_distances,
    random_hermitian,
    random_unitary,
    rank_of,
    ray_projection,
)


def diag_proj(*entries):
    return np.diag([float(e) for e in entries]).astype(complex)


def batch_of(ps):
    """The projections ``ps`` as one ``(m, d, d)`` registry batch."""
    return np.array(ps, dtype=complex)


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestCheckProjections:
    def test_identity_and_coordinate_projection(self):
        check_projections(np.array([np.eye(3), np.diag([1.0, 0.0, 0.0])], dtype=complex), 1e-9)

    def test_half_diagonal_is_not(self):
        # 0.5^2 != 0.5, checked by direct evaluation
        m = np.diag([0.5, 0.5, 0.0])
        assert max_norm(m @ m - m) == pytest.approx(0.25)
        with pytest.raises(ValueError, match="matrix is not a projection within tolerance"):
            check_projections(m[None], 1e-9)

    def test_non_self_adjoint_rejected(self):
        m = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert max_norm(m @ m - m) == 0.0  # idempotent
        with pytest.raises(ValueError, match="matrix is not a projection within tolerance"):
            check_projections(m[None], TOL.exact)

    def test_trace_off_an_integer_rejected(self):
        # at tol 0.25 the 1 x 1 matrix 0.5 is idempotent (0.5 - 0.25 <= 0.25), but its
        # trace misses both 0 and 1 by more than 0.25
        with pytest.raises(ValueError, match="projection trace 0.5 is not near an integer"):
            check_projections(np.array([[[0.5]]]), 0.25)

    def test_first_failing_matrix_decides(self):
        stack = np.array([np.eye(2), np.full((2, 2), np.nan), 2.0 * np.eye(2)])
        with pytest.raises(ValueError, match="operator entries must be finite"):
            check_projections(stack, TOL.exact)
        with pytest.raises(ValueError, match="matrix is not a projection within tolerance"):
            check_projections(stack[::-1], TOL.exact)


def ingested(rays, contexts, dim):
    """The registry and catalog that scenario ingest builds from a single-kind document."""
    doc = {"kind": "single", "dim": dim, "rays": rays, "contexts": contexts}
    sc = cx.parse_scenario(json.dumps(doc))
    return _catalog(sc.rays["main"], sc.contexts["main"], dim)


class TestRayIngest:
    """Rays become rank-1 projections on scenario ingest: normalised, phase-free."""

    def test_coordinate_ray(self):
        registry, (ctx,) = ingested([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]], 3)
        p = registry.matrices(ctx.atoms[:1])[0]
        assert np.array_equal(p, np.diag([1.0, 0, 0]))
        assert rank_of(p) == 1

    def test_superposition_outer_product(self):
        registry, (ctx,) = ingested([[1, 1], [1, -1]], [[0, 1]], 2)
        assert np.allclose(registry.matrices(ctx.atoms[:1])[0], [[0.5, 0.5], [0.5, 0.5]])

    def test_phase_equivalent_rays_give_one_key(self):
        # (1, i), e^{0.4i} (1, i) and (1, -i); then (1, 0) and (0, 1)
        phase = [[np.cos(0.4), np.sin(0.4)], [-np.sin(0.4), np.cos(0.4)]]
        rays = [[1, [0, 1]], phase, [1, [0, -1]], [1, 0], [0, 1]]
        registry, catalog = ingested(rays, [[0, 2], [1, 2], [3, 4]], 2)
        assert catalog[0].atoms == catalog[1].atoms
        assert not set(catalog[2].atoms) & set(catalog[0].atoms)
        assert len(registry) == 4

    def test_zero_vector(self):
        with pytest.raises(ScenarioError, match=r"\$\.rays\[1\]: degenerate ray"):
            ingested([[1, 0, 0], [0, 0, 0]], [[0]], 3)

    @pytest.mark.parametrize(
        "small, unit, rest",
        [
            ([1e-200, 1e-200, 0], [1, 1, 0], [[1, -1, 0], [0, 0, 1]]),  # its norm underflows
            ([1e-12, 0, 0], [1, 0, 0], [[0, 1, 0], [0, 0, 1]]),
            ([[0, 5e-324], 0, 0], [[0, 1], 0, 0], [[0, 1, 0], [0, 0, 1]]),
        ],
    )
    def test_ray_on_a_small_scale_is_its_direction(self, small, unit, rest):
        registry, (ctx,) = ingested([small, *rest], [[0, 1, 2]], 3)
        want_registry, (want,) = ingested([unit, *rest], [[0, 1, 2]], 3)
        assert ctx.atoms == want.atoms
        assert np.array_equal(registry.matrices(ctx.atoms), want_registry.matrices(want.atoms))


class TestDensityMatrix:
    def test_accepts_mixed_state(self):
        cx.density_matrix(np.diag([0.25, 0.25, 0.5]))

    def test_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            cx.density_matrix(np.diag([0.5, 0.25, 0.5]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            cx.density_matrix(np.diag([1.5, -0.5]))


@st.composite
def registry_projections(draw):
    """A random projection in d2-d4, or a d2 ray whose off-diagonal entry sits on a rounding boundary."""
    if draw(st.booleans()):
        off = (draw(st.integers(1, 499_999)) + 0.5) * TOL.grid
        theta = np.arcsin(2 * off) / 2
        return ray_projection(np.array([np.cos(theta), np.sin(theta)]))
    dim = draw(st.integers(2, 4))
    cols = random_unitary(np.random.default_rng(draw(st.integers(0, 2**31 - 1))), dim)
    cols = cols[:, : draw(st.integers(1, dim - 1))]
    return cols @ cols.conj().T


def boundary_ray():
    """A d2 ray whose off-diagonal entry 0.30000050000000006 sits on a 6-decimal
    rounding boundary, so 2e-13 of jitter downwards changes the canonical key."""
    theta = np.arcsin(2 * 0.3000005) / 2
    return ray_projection(np.array([np.cos(theta), np.sin(theta)]))


class TestRegistry:
    def test_identity_rule(self):
        tol = TOL.grid / 10
        dist = np.array([0.0, tol, 2 * tol, TOL.grid, 1.0, np.nan])
        same, rejected = identity_rule(dist, tol)
        assert same.tolist() == [True, True, False, False, False, False]
        assert rejected.tolist() == [False, False, True, False, False, False]
        # a tol at the grid or above leaves nothing to reject
        assert not identity_rule(dist, TOL.grid)[1].any()

    def test_same_projection_same_key(self):
        reg = ProjectionRegistry(3)
        p = ray_projection(np.array([1, 1, 0]) / np.sqrt(2))
        assert reg.register(p) == reg.register(p)
        assert len(reg) == 1

    def test_jitter_identified(self):
        p = boundary_ray()
        reg = ProjectionRegistry(2)
        key = reg.register(p)
        assert canonical_key(p - 2e-13 * PAULI_X) != key
        for eps in (2e-13, -2e-13):
            assert reg.register(p + eps * PAULI_X) == key
        assert len(reg) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
    def test_perturbation_within_tenth_of_tol_identified(self, data, seed, scale):
        p = data.draw(registry_projections())
        e = random_hermitian(np.random.default_rng(seed), len(p))
        e *= scale * TOL.identity / 10 / max_norm(e)
        reg = ProjectionRegistry(len(p))
        key = reg.register(p)
        for sign in (1, -1):
            assert reg.register(p + sign * e) == key
        assert len(reg) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 2**31 - 1), st.floats(0.01, 0.99))
    def test_distinct_closer_than_grid_rejected(self, data, seed, frac):
        p = data.draw(registry_projections())
        h = random_hermitian(np.random.default_rng(seed), len(p))
        spread = max_norm(h @ p - p @ h)
        assume(spread > 1e-3)
        # conjugate by exp(ith) with t aimed log-uniformly inside (tol, grid)
        target = TOL.identity ** (1 - frac) * TOL.grid**frac
        u = expm(1j * (target / spread) * h)
        q = u @ p @ u.conj().T
        assume(TOL.identity < max_norm(q - p) < TOL.grid)
        reg = ProjectionRegistry(len(p))
        reg.register(p)
        with pytest.raises(CanonicalizationError):
            find_one(reg, q)
        with pytest.raises(CanonicalizationError):
            reg.register(q)
        assert len(reg) == 1

    def test_find_does_not_insert(self):
        reg = ProjectionRegistry(2)
        p = ray_projection(np.array([0.6, 0.8]))
        assert find_one(reg, p) is None
        assert len(reg) == 0
        key = reg.register(p)
        assert find_one(reg, p) == key
        assert find_one(reg, ray_projection(np.array([1.0, 0.0]))) is None
        assert len(reg) == 1

    def test_below_grid_rejected(self):
        reg = ProjectionRegistry(3)
        v = np.array([1.0, 0.0, 0.0])
        eps = 1e-7
        w = np.array([1.0, eps, 0.0])
        reg.register(ray_projection(v))
        with pytest.raises(CanonicalizationError):
            reg.register(ray_projection(w))

    def test_rejection_names_the_registered_key(self):
        # distance 1e-7 from e1, between tol and the grid: the same canonical key
        # (collision) or, across a rounding boundary, a different one (scan)
        reg = ProjectionRegistry(3)
        key = reg.register(ray_projection(np.array([1.0, 0.0, 0.0])))
        with pytest.raises(CanonicalizationError) as exc:
            reg.register(ray_projection(np.array([1.0, 1e-7, 0.0])))
        assert exc.value.key == key
        p = boundary_ray()
        reg = ProjectionRegistry(2)
        key = reg.register(p)
        q = p - 1e-7 * PAULI_X
        assert canonical_key(q) != key
        with pytest.raises(CanonicalizationError, match=key) as exc:
            reg.register(q)
        assert exc.value.key == key
        assert list(reg.keys()) == [key]

    def test_distinct_rays_coexist(self):
        reg = ProjectionRegistry(2)
        k1 = reg.register(ray_projection(np.array([1.0, 0.0])))
        k2 = reg.register(ray_projection(np.array([1.0, 1.0])))
        assert k1 != k2
        assert len(reg) == 2

    def test_negative_zero_normalized(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = a.copy()
        b[1, 1] = -0.0
        assert canonical_key(a) == canonical_key(b)

    def test_unknown_key(self):
        reg = ProjectionRegistry(2)
        with pytest.raises(KeyError):
            reg.matrices(["p0000"])

    def test_dim_mismatch(self):
        reg = ProjectionRegistry(2)
        with pytest.raises(ValueError, match="dim"):
            reg.register(np.eye(3))

    def test_never_aliases_the_callers_batch(self):
        # an empty registry takes a batch of new rows whole; writing into the caller's
        # array afterwards changes nothing registered
        a = batch_of([diag_proj(1, 0, 0), diag_proj(0, 1, 1), ray_projection([1, 1, 0])])
        want = a.copy()
        reg = ProjectionRegistry(3)
        keys = reg.register_many(a)
        a[:] = 7.0
        assert reg.matrices(keys).tobytes() == want.tobytes()
        assert reg.find_many(want) == keys

    def test_matrices_gather_rows_as_a_new_array(self):
        reg = ProjectionRegistry(3)
        keys = reg.register_many(batch_of([diag_proj(1, 0, 0), diag_proj(0, 1, 1)]))
        got = reg.matrices(keys[::-1])
        assert [rank_of(p) for p in got] == [2, 1]
        got[:] = 7.0  # a new array: writing into it changes nothing registered
        assert reg.register(np.diag([0.0, 0.0, 1.0])) not in keys  # the stack grows past its rows
        assert np.array_equal(reg.matrices(keys[1:]), np.diag([0.0, 1.0, 1.0])[None])
        assert reg.matrices([]).shape == (0, 3, 3)
        with pytest.raises(KeyError, match="unknown projection key 'p0000'"):
            reg.matrices([keys[0], "p0000"])


# distances from p along one path u(t) p u(t)*, so that pairs of points land
# within each tol, inside (tol, grid), just either side of the grid and far apart
PATH_DISTANCES = (0.0, 5e-10, 3e-8, 7.5e-7, 0.9996e-6, 1.0001e-6, 1.5e-6, 1e-3)


def register_outcomes(reg, seq):
    """Per projection, its key or the key its CanonicalizationError names; then the key order."""
    out = []
    for q in seq:
        try:
            out.append(reg.register(q))
        except CanonicalizationError as exc:
            out.append(("raised", exc.key))
    return out, list(reg.keys())


def path_sequence(data, seed, steps):
    """Projections at the given distances along one path from a drawn p, in the given order.

    A tiny step jitters across the rounding boundary of a d2 ray; "fresh" is a random ray.
    """
    p = data.draw(registry_projections())
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, len(p))
    spread = max_norm(h @ p - p @ h)
    assume(spread > 1e-3)
    jitter = np.zeros((len(p), len(p)), dtype=complex)
    jitter[0, 1] = jitter[1, 0] = 1.0
    seq = []
    for step in steps[: data.draw(st.integers(2, len(steps)))]:
        if step == "fresh":
            cols = random_unitary(rng, len(p))[:, :1]
            seq.append(cols @ cols.conj().T)
        elif abs(step) < 1e-12:
            seq.append(p + step * jitter)
        else:
            u = expm(1j * (step / spread) * h)
            seq.append(u @ p @ u.conj().T)
    return seq


def outcome(call):
    """What ``call()`` returns, or the key its CanonicalizationError names; then the error
    message and the rejected projection's place in its batch."""
    try:
        return call(), None, None
    except CanonicalizationError as exc:
        return ("raised", exc.key), str(exc), exc.index


class TestRegistryBatchDifferential:
    """Batched find and register against batches of one and against the loop reference."""

    @settings(deadline=None)
    @given(
        st.data(),
        st.integers(0, 2**31 - 1),
        st.sampled_from([TOL.identity, 1e-7, 1e-5]),
        st.permutations(PATH_DISTANCES + (2e-13, -2e-13, "fresh")),
    )
    def test_same_keys_or_same_rejection(self, data, seed, tol, steps):
        seq = path_sequence(data, seed, steps)
        # a registered head, so the batch meets registered projections and its own
        self.check(seq, data.draw(st.integers(0, len(seq))), tol)

    @staticmethod
    def check(seq, head, tol):
        batch = seq[head:]

        def registry(cls):
            reg = cls(len(seq[0]), tol)
            register_outcomes(reg, seq[:head])
            return reg

        for many in ("find_many", "register_many"):
            reg = registry(ProjectionRegistry)
            got, message, index = outcome(lambda: getattr(reg, many)(batch_of(batch)))
            keys = list(reg.keys())
            ref = registry(ProjectionRegistry)  # batches of one
            ones = outcome(lambda: [getattr(ref, many)(q[None])[0] for q in batch])
            assert ones[:2] == (got, message)
            assert list(ref.keys()) == keys
            loop = registry(LoopScanRegistry)  # the loop scan words its errors its own way
            loop_got, _, loop_index = outcome(lambda: getattr(loop, many)(batch_of(batch)))
            assert (loop_got, loop_index) == (got, index)
            assert list(loop.keys()) == keys

    @pytest.mark.parametrize("tol", [TOL.identity, 1e-7, 1e-5])
    @pytest.mark.parametrize("second", [-3e-13, -5e-10, -5e-8, -4e-7])
    @pytest.mark.parametrize("registered", [True, False])
    def test_repeated_key_after_identification(self, tol, second, registered):
        # q sits 2e-13 below p across a rounding boundary: another canonical key,
        # identified with p. The later r shares q's key, so its own distance to p
        # (within tol, or closer than the grid) decides, also in one batch
        p = boundary_ray()
        q, r = (p + eps * PAULI_X for eps in (-2e-13, second))
        assert canonical_key(q) == canonical_key(r) != canonical_key(p)
        seq = [p, q, r, q]
        self.check(seq, 1 if registered else 0, tol)

    @pytest.mark.parametrize("head", [0, 1])
    def test_identified_row_decides_no_later_row(self, head):
        # r lies 0.8e-5 from p and is identified with it at tol 1e-5; t lies 0.8e-5 from r
        # but 1.6e-5 from p, so no registered projection decides t and it gets its own key
        p, r, t = (ray_projection([np.cos(a), np.sin(a)]) for a in (0.0, 0.8e-5, 1.6e-5))
        self.check([p, r, t], head, 1e-5)
        keys = ProjectionRegistry(2, 1e-5).register_many(batch_of([p, r, t]))
        assert keys == [canonical_key(p), canonical_key(p), canonical_key(t)]

    @pytest.mark.parametrize("head", [0, 1])
    def test_one_key_beyond_the_grid_collides(self, head):
        # two phases of one ray 1.1e-6 apart: their entries round alike, yet they lie
        # beyond the grid, so the second collides with the first on its key
        p, q = (ray_projection([1.0, np.exp(1j * phi)]) for phi in (0.747088, 0.7470902))
        assert canonical_key(p) == canonical_key(q)
        assert 1.05e-6 < max_norm(p - q) < 1.15e-6
        self.check([p, q], head, TOL.identity)
        with pytest.raises(CanonicalizationError, match="collide") as exc:
            ProjectionRegistry(2).register_many(batch_of([p, q]))
        assert exc.value.index == 1

    def test_rejection_carries_its_batch_position(self):
        # the third projection is 1e-7 from the first: closer than the grid, not within tol
        p = ray_projection(np.array([1.0, 0.0, 0.0]))
        q = ray_projection(np.array([0.0, 1.0, 0.0]))
        near_p = ray_projection(np.array([1.0, 1e-7, 0.0]))
        reg = ProjectionRegistry(3)
        with pytest.raises(CanonicalizationError) as exc:
            reg.register_many(batch_of([p, q, near_p, q]))
        assert (exc.value.key, exc.value.index) == (canonical_key(p), 2)
        assert len(reg) == 2  # the projections before the rejected one stay registered
        with pytest.raises(CanonicalizationError) as exc:
            reg.find_many(batch_of([q, q, near_p, p]))
        assert exc.value.index == 2
        with pytest.raises(CanonicalizationError) as exc:
            reg.register(near_p)
        assert exc.value.index == 0

    def test_within_batch_identification(self):
        # the jittered copy has another canonical key; it is the batch's first entry
        p = boundary_ray()
        q = p - 2e-13 * PAULI_X
        assert canonical_key(q) != canonical_key(p)
        reg = ProjectionRegistry(2)
        assert reg.register_many(batch_of([p, q, p])) == [canonical_key(p)] * 3
        assert len(reg) == 1


class TestOfConjugates:
    """``of_conjugates`` against ``register_many`` of each list of conjugates, each on an
    empty registry: the same keys, items and later answers, or the same error."""

    @settings(deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(2, 4),
        st.lists(st.sampled_from([0.0, 2e-13, 5e-7, 1.6e-6, 1e-3]), max_size=3),
        st.sampled_from([TOL.identity, 1e-5]),
        st.integers(1, 4),
    )
    def test_as_register_many(self, seed, dim, turns, tol, n_ops):
        # a basis's rays and copies of its first ray turned by each of ``turns`` towards its
        # second: equal, within the tols, near the grid (conjugation keeps their Frobenius
        # distance but not their max-entry distance) or far
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, dim)
        rays = [u[:, k] for k in range(dim)]
        rays += [np.cos(eps) * u[:, 0] + np.sin(eps) * u[:, 1] for eps in turns]
        stack = np.array([np.outer(v, v.conj()) for v in rays])
        images = []
        for _ in range(n_ops):
            w = random_unitary(rng, dim)
            images.append(w @ (stack.conj() if rng.integers(2) else stack) @ w.conj().T)
        images = np.array(images)
        keys = [canonical_keys(moved) for moved in images]
        held = ProjectionRegistry.of_conjugates(dim, tol, stack, images, keys)
        assert len(held) == n_ops
        for got, moved in zip(held, images):
            fresh = ProjectionRegistry(dim, tol)
            want = outcome(lambda: fresh.register_many(moved))
            if isinstance(got, CanonicalizationError):
                assert (("raised", got.key), str(got), got.index) == want
                continue
            registry, found = got
            assert (found, None, None) == want
            assert_same_contents(registry, fresh)
            q = random_unitary(rng, dim)[:, :1]
            batch = np.array([q @ q.conj().T, moved[-1], moved[0]])
            for call in ("find_many", "register_many"):  # past its stack
                answer = outcome(lambda: getattr(registry, call)(batch))
                assert answer == outcome(lambda: getattr(fresh, call)(batch))
            assert_same_contents(registry, fresh)

    def test_empty(self):
        none = np.zeros((0, 1, 2, 2), dtype=complex)
        assert ProjectionRegistry.of_conjugates(2, TOL.identity, np.eye(2)[None], none, []) == []


def assert_same_contents(registry, other):
    """Two registries hold the same keys, in the same order, with bit-equal matrices."""
    keys = list(registry.keys())
    assert keys == list(other.keys())
    assert registry.matrices(keys).tobytes() == other.matrices(keys).tobytes()


# per row of a find batch: "registered" is a registered projection itself, "new" a random
# one, and a number moves a registered projection by that max-entry distance: within the
# tols, between a tol and the grid (a collision on its key, or closer than the grid once
# it rounds to another key), or far
FIND_ROWS = ("registered", "new", 2e-13, 5e-10, 3e-8, 7.5e-7, 1e-3)


class TestFindManyDifferential:
    """``find_many``'s stacked decision of registered keys against the loop reference."""

    @settings(deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(2, 4),
        st.integers(1, 5),
        st.lists(st.tuples(st.sampled_from(FIND_ROWS), st.integers(0, 4)), min_size=1, max_size=12),
        st.sampled_from([TOL.identity, 1e-7, 1e-5]),
    )
    def test_same_keys_or_same_first_rejection(self, seed, dim, n_registered, rows, tol):
        rng = np.random.default_rng(seed)

        def random_projection():
            cols = random_unitary(rng, dim)[:, : rng.integers(1, dim)]
            return cols @ cols.conj().T

        registered = [random_projection() for _ in range(n_registered)]
        batch = []
        for kind, which in rows:
            base = registered[which % n_registered]
            if kind == "registered":
                batch.append(base)
            elif kind == "new":
                batch.append(random_projection())
            else:
                h = random_hermitian(rng, dim)
                batch.append(base + kind * h / max_norm(h))
        reg, loop = ProjectionRegistry(dim, tol), LoopScanRegistry(dim, tol)
        reg.register_many(batch_of(registered))
        loop.register_many(batch_of(registered))
        got, message, index = outcome(lambda: reg.find_many(batch_of(batch)))
        want, loop_message, loop_index = outcome(lambda: loop.find_many(batch_of(batch)))
        assert (got, index) == (want, loop_index)
        if loop_message is None:
            assert message is None
        elif "collision" in loop_message:  # the loop scan words its errors its own way
            assert message == "distinct projections collide on the canonical rounding grid"
        else:
            key = canonical_key(batch[index])
            assert message == f"projections {key} and {got[1]} are closer than the rounding grid"
        keys = canonical_keys(batch_of(batch))
        assert outcome(lambda: reg.find_many(batch_of(batch), keys)) == (got, message, index)


class TestNearPairsDifferential:
    """The screened scan against every pair compared entrywise."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 5),
        st.lists(st.sampled_from(PATH_DISTANCES + (2e-13,)), min_size=1, max_size=12),
        st.sampled_from([TOL.grid, 1e-5, 1e-3]),
    )
    def test_every_pair_within_reach_is_exact(self, seed, dim, distances, reach):
        rng = np.random.default_rng(seed)
        base = random_unitary(rng, dim)[:, : max(1, dim // 2)]
        p = base @ base.conj().T
        h = random_hermitian(rng, dim)
        pool = []
        for dist in distances:  # rotations of p by about ``dist``, plus random projections
            u = expm(1j * dist * h / max_norm(h))
            pool.append(u @ p @ u.conj().T)
            cols = random_unitary(rng, dim)[:, : rng.integers(1, dim + 1)]
            pool.append(cols @ cols.conj().T)
        pool = np.array(pool)
        rows = pool[rng.permutation(len(pool))[: rng.integers(1, len(pool) + 1)]]
        want = full_scan_distances(rows, pool)
        s, t, dist = _near_pairs(rows, pool, reach)
        assert np.array_equal(dist, want[s, t])
        assert list(zip(s, t)) == sorted(zip(s, t))
        listed = np.zeros(want.shape, dtype=bool)
        listed[s, t] = True
        assert listed[want <= reach].all()


class TestRegistryScanDifferential:
    """The vectorised miss-path scan against a loop over the registered keys."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.data(),
        st.integers(0, 2**31 - 1),
        st.sampled_from([TOL.identity, 1e-7, 1e-5]),
        st.permutations(PATH_DISTANCES + (2e-13, -2e-13, "fresh")),
    )
    def test_same_key_or_same_rejection(self, data, seed, tol, steps):
        seq = path_sequence(data, seed, steps)
        dim = len(seq[0])
        got = register_outcomes(ProjectionRegistry(dim, tol), seq)
        assert got == register_outcomes(LoopScanRegistry(dim, tol), seq)

    def test_first_match_in_registration_order_decides(self):
        # d2 rays whose top-left entry sits 3e-8 either side of the rounding
        # boundary 0.3000005 (x, b) or just past the next one (p): three keys;
        # x is within tol 1e-7 of b and closer than the grid to p only
        def top_left_ray(top_left):
            theta = np.arccos(2 * top_left - 1) / 2
            return ray_projection(np.array([np.cos(theta), np.sin(theta)]))

        p, b, x = (top_left_ray(0.3000005 + off) for off in (1.001e-6, -3e-8, 3e-8))
        for registry in (ProjectionRegistry, LoopScanRegistry):
            keys, _ = register_outcomes(registry(2, 1e-7), [p, b, x])
            assert keys == [keys[0], keys[1], ("raised", keys[0])]
            keys, _ = register_outcomes(registry(2, 1e-7), [b, p, x])
            assert keys == [keys[0], keys[1], keys[0]]


def package_modules(directory: Path = Path(cx.__file__).parent):
    """File name and syntax tree of every module in ``directory``, by default the package's."""
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(directory.glob("*.py"))
    ]


def unused_imports(tree):
    """Names a module's imports bind, ``from __future__`` aside, that it never reads.

    Names inside string annotations count as read.
    """
    bound, read, annotations = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                parsed = ast.walk(ast.parse(c.value, mode="eval"))
                read |= {n.id for n in parsed if isinstance(n, ast.Name)}
    return bound - read


def read_names(tree):
    """Every name a module reads, as a name or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def exported_names():
    """The names that ``contextua/__init__.py`` re-exports from the package's modules."""
    (tree,) = [tree for name, tree in package_modules() if name == "__init__.py"]
    return {a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names}


class TestImports:
    def test_every_export_is_read(self):
        # the package outside __init__, the scripts and the benchmark harness; perfbench's
        # tracer wraps these by name
        wrapped = {"jordan_check", "transition_probability_deviation", "deterministic_strategies"}
        root = Path(__file__).parent.parent
        read = set()
        for directory in (Path(cx.__file__).parent, root / "scripts", root / "perfbench"):
            for name, tree in package_modules(directory):
                if name != "__init__.py":
                    read |= read_names(tree)
        assert sorted(exported_names() - read - wrapped) == []

    def test_every_import_is_used(self):
        # the package's modules, these tests and the scripts; __init__ imports to re-export,
        # and cli imports the single-op wigner functions that perfbench's tracer wraps on cli
        allowed = {
            ("cli.py", "conjugate_poset"),
            ("cli.py", "jordan_check"),
            ("cli.py", "symmetry"),
            ("cli.py", "transition_probability_deviation"),
        }
        found = sorted(
            (name, imported)
            for name, tree in package_modules() + package_modules(Path(__file__).parent)
            + package_modules(Path(__file__).parent.parent / "scripts")
            if name != "__init__.py"
            for imported in unused_imports(tree)
            if (name, imported) not in allowed
        )
        assert found == []

    def test_unused_import_found(self):
        tree = ast.parse(
            "from __future__ import annotations\n"
            "import numpy as np\n"
            "from .opalg import TOL, Projection, max_norm\n"
            "def f(p: 'Projection') -> float:\n"
            "    return np.abs(max_norm(p.matrix))\n"
        )
        assert unused_imports(tree) == {"TOL"}

    def test_no_top_level_scipy_import(self):
        # only the Bell LP needs scipy, and it imports the solver when it is called
        found = [
            f"{name}:{stmt.lineno}"
            for name, tree in package_modules()
            for stmt in tree.body
            if isinstance(stmt, ast.Import)
            and any(a.name.split(".")[0] == "scipy" for a in stmt.names)
            or isinstance(stmt, ast.ImportFrom)
            and stmt.level == 0
            and stmt.module.split(".")[0] == "scipy"
        ]
        assert found == []


class TestTolerances:
    def test_no_threshold_literal_outside_the_record(self):
        found = []
        for name, tree in package_modules():
            record = {
                id(n)
                for c in ast.walk(tree)
                if isinstance(c, ast.ClassDef) and c.name == "Tolerances"
                for n in ast.walk(c)
            }
            found += [
                f"{name}:{n.lineno} {n.value!r}"
                for n in ast.walk(tree)
                if isinstance(n, ast.Constant)
                and isinstance(n.value, float)
                and 0 < abs(n.value) < 1e-3
                and id(n) not in record
            ]
        assert found == []

    def test_readme_table_lists_every_field_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| field | value | what it decides |\n|---|---|---|\n", 1)[1]
        rows = [line.split(" | ")[:2] for line in table.split("\n\n", 1)[0].splitlines()]
        listed = [(name.strip("| `"), float(value.strip("`"))) for name, value in rows]
        assert listed == [(f.name, float(f.default)) for f in fields(Tolerances)]


class TestRegistryCallSites:
    def test_no_loop_calls_the_registry_once_per_projection(self):
        # a batch of one costs about as much as a batch of many: loops pass one batch
        loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        found = [
            f"{name}:{call.lineno}"
            for name, tree in package_modules()
            for loop in ast.walk(tree)
            if isinstance(loop, loops)
            for call in ast.walk(loop)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("find", "register")
        ]
        assert found == []
