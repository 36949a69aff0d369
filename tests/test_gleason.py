"""Probabilistic presheaf: Born sections, reconstruction, section checks."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import contextua as cx
from contextua.gleason import (
    context_measure,
    hermitian_basis,
    marginalise,
)
from contextua.contexts import poset_from_nodes
from contextua.opalg import ProjectionRegistry, max_norm

from conftest import (
    canonical_key,
    loop_hermitian_basis,
    random_basis_context,
    random_density,
    strict_chains3,
    verify_prob_section,
)


def independent_span_rank(mats, dim):
    """Oracle: rank of the real span of Hermitians via an svd over vectorised parts."""
    rows = []
    for m in mats:
        rows.append(np.concatenate([np.asarray(m).real.reshape(-1), np.asarray(m).imag.reshape(-1)]))
    a = np.stack(rows)
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0]))


@pytest.fixture(scope="module")
def ic_poset_c4():
    """Six random bases in dimension 4: informationally complete."""
    rng = np.random.default_rng(77)
    reg = ProjectionRegistry(4)
    catalog = [random_basis_context(rng, reg) for _ in range(6)]
    return cx.generate_poset(catalog, reg)


class TestSectionFromState:
    def test_maximally_mixed_weights(self, basis_poset_c3):
        poset = basis_poset_c3
        rho = cx.density_matrix(np.eye(3) / 3)
        s = cx.section_from_state(poset, rho)
        for node in range(len(poset)):
            for idx, rank in enumerate(poset.ranks[poset.rows[node]]):
                assert s.assignment[node][idx] == pytest.approx(rank / 3)

    def test_pure_state_on_its_context(self, basis_poset_c3):
        poset = basis_poset_c3
        rho = cx.density_matrix(np.diag([1.0, 0.0, 0.0]))
        s = cx.section_from_state(poset, rho)
        e1_key = canonical_key(np.diag([1.0, 0, 0]).astype(complex))
        node = next(
            i
            for i in range(len(poset))
            if len(poset.nodes[i].atoms) == 2 and e1_key in poset.atom_keys(i)
        )
        idx = poset.atom_keys(node).index(e1_key)
        w = s.assignment[node]
        assert w[idx] == pytest.approx(1.0)
        assert w[1 - idx] == pytest.approx(0.0, abs=1e-12)

    def test_additivity_on_orthogonal_atoms(self, mub_poset_c3):
        # mu(p + q) = mu(p) + mu(q), checked by direct summation
        poset = mub_poset_c3
        rng = np.random.default_rng(1)
        rho = random_density(rng, 3)
        s = cx.section_from_state(poset, rho)
        for node in range(len(poset)):
            atoms = poset.atom_matrices(node)
            m = s.assignment[node]
            for i, j in itertools.combinations(range(len(atoms)), 2):
                lhs = float(np.real(np.trace(rho.matrix @ (atoms[i] + atoms[j]))))
                assert lhs == pytest.approx(float(m[i]) + float(m[j]), abs=1e-9)

    @pytest.mark.parametrize("fixture", ["mub_poset_c3", "ks18_poset"])
    def test_weights_match_trace_loop(self, request, fixture):
        poset = request.getfixturevalue(fixture)
        rng = np.random.default_rng(29)
        for _ in range(3):
            rho = random_density(rng, poset.dim)
            s = cx.section_from_state(poset, rho)
            for i in range(len(poset)):
                loop = [float(np.real(np.trace(rho.matrix @ p))) for p in poset.atom_matrices(i)]
                assert max_norm(s.assignment[i] - np.array(loop)) <= 1e-12

    def test_dim_mismatch(self, basis_poset_c3):
        with pytest.raises(ValueError, match="dim"):
            cx.section_from_state(basis_poset_c3, cx.density_matrix(np.eye(4) / 4))

    def test_always_valid_prob_section(self):
        rng = np.random.default_rng(1234)
        trials = 0
        for dim in (3, 4, 5, 6):
            reg = ProjectionRegistry(dim)
            catalog = [random_basis_context(rng, reg) for _ in range(2)]
            poset = cx.generate_poset(catalog, reg)
            for _ in range(26):
                rho = random_density(rng, dim)
                s = cx.section_from_state(poset, rho)
                assert verify_prob_section(poset, s)
                trials += 1
        assert trials >= 100


def _edited(s, node, weights):
    """``s`` with the measure at ``node`` replaced, unvalidated."""
    assignment = dict(s.assignment)
    assignment[node] = np.asarray(weights, dtype=float)
    return cx.ProbSection(assignment)


class TestVerifyProbSection:
    def test_perturbed_lower_weight(self):
        # {V, halves, trivial}: the halves' atoms are sums of V's atoms and
        # shared with no other node, so only marginalisation sees the change
        reg = ProjectionRegistry(4)
        v = cx.context_from_observables(reg, [np.diag([1.0, 2.0, 3.0, 4.0])])
        halves = cx.context_from_observables(reg, [np.diag([1.0, 1.0, 2.0, 2.0])])
        poset = poset_from_nodes(reg, [v, halves, cx.trivial_context(reg)], ["v", "h", "t"])
        s = cx.section_from_state(poset, cx.density_matrix(np.diag([0.1, 0.2, 0.3, 0.4])))
        assert verify_prob_section(poset, s)
        assert not verify_prob_section(poset, _edited(s, 1, [0.3 + 1e-3, 0.7 - 1e-3]))

    def test_shared_key_mismatch(self, shared_ray_poset_c3):
        poset = shared_ray_poset_c3
        first, second = poset.maximal_nodes()
        rng = np.random.default_rng(8)
        s = cx.section_from_state(poset, random_density(rng, 3))
        assert verify_prob_section(poset, s)
        w = np.array(s.assignment[second])
        shared = poset.atom_keys(second).index(
            (set(poset.atom_keys(first)) & set(poset.atom_keys(second))).pop()
        )
        other = (shared + 1) % 3
        w[shared] += 1e-3
        w[other] -= 1e-3
        assert not verify_prob_section(poset, _edited(s, second, w))

    def test_not_down_closed(self, mub_poset_c3):
        rng = np.random.default_rng(9)
        s = cx.section_from_state(mub_poset_c3, random_density(rng, 3))
        m = mub_poset_c3.maximal_nodes()[0]
        assert not verify_prob_section(
            mub_poset_c3, cx.ProbSection({m: s.assignment[m]})
        )


class TestStateFromSection:
    def test_roundtrip_dims_3_and_4(self, mub_poset_c3, ic_poset_c4):
        rng = np.random.default_rng(5)
        for poset in (mub_poset_c3, ic_poset_c4):
            assert cx.is_informationally_complete(poset)
            for _ in range(20):
                rho = random_density(rng, poset.dim)
                result = cx.state_from_section(poset, cx.section_from_state(poset, rho))
                assert result.status == "unique"
                assert max_norm(result.state.matrix - rho.matrix) <= 1e-8

    def test_single_context_underdetermined(self, basis_poset_c3):
        poset = basis_poset_c3
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        result = cx.state_from_section(poset, cx.section_from_state(poset, rho))
        assert result.status == "underdetermined"
        # independent rank oracle: projections here span only the diagonals
        mats = [*poset.registry.matrices(list(poset.registry.keys())), np.eye(3)]
        rank = independent_span_rank(mats, 3)
        assert rank == 3
        assert result.solution_space_dim == 9 - rank == 6

    def test_entangled_partial_transpose_infeasible(self):
        # product bases of three qubit MUBs per factor span dim-4 Hermitians;
        # the partially transposed entangled state has a negative eigenvalue
        reg = ProjectionRegistry(4)
        paulis = {
            "z": [np.array([1, 0]), np.array([0, 1])],
            "x": [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)],
            "y": [np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)],
        }
        catalog = []
        for left in paulis.values():
            for right in paulis.values():
                atoms = [
                    np.kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
                    for u in left
                    for v in right
                ]
                catalog.append(cx.context_from_projections(reg, atoms))
        poset = cx.generate_poset(catalog, reg)
        assert cx.is_informationally_complete(poset)
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        w = cx.partial_transpose(np.outer(phi, phi.conj()), (2, 2))
        # eigendecomposition oracle: min eigenvalue is -1/2
        assert np.linalg.eigvalsh(w).min() == pytest.approx(-0.5)
        assignment = {}
        for i in range(len(poset)):
            weights = [
                float(np.real(np.trace(w @ p))) for p in poset.atom_matrices(i)
            ]
            assignment[i] = context_measure(poset, i, weights, tol=1e-7)
        s = cx.ProbSection(assignment)
        assert verify_prob_section(poset, s)
        result = cx.state_from_section(poset, s)
        assert result.status == "infeasible"
        assert result.reason == "unique solution has a negative eigenvalue"
        assert result.eigenvalues.min() == pytest.approx(-0.5, abs=1e-7)

    def test_inconsistent_section_infeasible(self, mub_closure_poset_c3):
        poset = mub_closure_poset_c3
        rng = np.random.default_rng(8)
        rho = random_density(rng, 3)
        s = cx.section_from_state(poset, rho)
        assignment = dict(s.assignment)
        # corrupt one maximal context's weights: no state matches all contexts
        node = poset.maximal_nodes()[0]
        assignment[node] = context_measure(poset, node, [0.7, 0.2, 0.1], tol=1e-7)
        bad = cx.ProbSection(assignment)
        result = cx.state_from_section(poset, bad)
        assert result.status == "infeasible"
        assert result.residual > 1e-6


    def test_empty_domain_underdetermined(self):
        poset = cx.generate_poset([], ProjectionRegistry(3))
        result = cx.state_from_section(poset, cx.ProbSection({}))
        assert result.status == "underdetermined"
        assert result.solution_space_dim == 3 * 3 - 1  # only the trace is fixed


class TestInformationalCompleteness:
    def test_single_maximal_false(self, basis_poset_c3):
        assert not cx.is_informationally_complete(basis_poset_c3)

    def test_mub_true_with_rank_oracle(self, mub_poset_c3):
        assert cx.is_informationally_complete(mub_poset_c3)
        registry = mub_poset_c3.registry
        mats = [*registry.matrices(list(registry.keys())), np.eye(3)]
        assert independent_span_rank(mats, 3) == 9

    def test_trivial_false(self):
        reg = ProjectionRegistry(3)
        assert not cx.is_informationally_complete(cx.generate_poset([], reg))


class TestMarginalisation:
    def test_restriction_composes(self, shared_ray_poset_c3, mub_closure_poset_c3):
        rng = np.random.default_rng(6)
        checked = 0
        for poset in (shared_ray_poset_c3, mub_closure_poset_c3):
            for i, j, k in strict_chains3(poset.order):
                for _ in range(3):
                    w = rng.dirichlet(np.ones(len(poset.nodes[k].atoms)))
                    m = context_measure(poset, k, w)
                    via = marginalise(poset, marginalise(poset, m, k, j), j, i)
                    direct = marginalise(poset, m, k, i)
                    assert max_norm(via - direct) <= 1e-10
                    checked += 1
        assert checked > 0

    def test_additivity_closure(self, mub_closure_poset_c3):
        # mu(p v q) = mu(p) + mu(q) for orthogonal projections in one context:
        # p v q is an atom of a smaller node, which carries its weight
        poset = mub_closure_poset_c3
        rng = np.random.default_rng(10)
        s = cx.section_from_state(poset, random_density(rng, 3))
        checked = 0
        for small, large in zip(*np.nonzero(poset.order)):
            atoms = poset.atom_matrices(large)
            weights = s.assignment[large]
            dom = poset.dominator_map(small, large)
            for a, coarse in enumerate(poset.atom_matrices(small)):
                fine = np.flatnonzero(dom == a)
                if len(fine) != 2:
                    continue
                # the atoms are orthogonal, so their join is their sum
                assert max_norm(atoms[fine[0]] @ atoms[fine[1]]) < 1e-8
                assert max_norm(atoms[fine[0]] + atoms[fine[1]] - coarse) < 1e-8
                assert s.assignment[small][a] == pytest.approx(
                    float(weights[fine[0]] + weights[fine[1]]), abs=1e-8
                )
                checked += 1
        assert checked > 0


class TestExtremePoints:
    def test_characters_embed_as_measures(self, basis_poset_c3):
        poset = basis_poset_c3
        node = poset.maximal_nodes()[0]
        for a in range(len(poset.nodes[node].atoms)):
            w = np.zeros(3)
            w[a] = 1.0
            m = context_measure(poset, node, w)  # validates the constraints
            assert float(m.sum()) == 1.0

    def test_zero_one_measures_extreme_by_lp(self, basis_poset_c3):
        # LP oracle: mu1, mu2 in the simplex with (mu1 + mu2)/2 = e_i forces
        # mu1 = mu2 = e_i, so 0/1 measures are not proper mixtures
        k = 3
        for i in range(k):
            target = np.zeros(k)
            target[i] = 1.0
            # variables mu1, mu2; maximize separation against a fixed functional
            c = np.concatenate([np.eye(k)[(i + 1) % k], -np.eye(k)[(i + 1) % k]])
            a_eq = np.block(
                [
                    [np.eye(k), np.eye(k)],
                    [np.ones((1, k)), np.zeros((1, k))],
                ]
            )
            b_eq = np.concatenate([2 * target, [1.0]])
            res = linprog(
                -c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * (2 * k), method="highs"
            )
            assert res.success
            assert abs(res.fun) < 1e-9
            assert np.allclose(res.x[:k], target, atol=1e-9)


class TestContextMeasureValidation:
    def test_clamps_tiny_negative(self, basis_poset_c3):
        m = context_measure(
            basis_poset_c3, basis_poset_c3.maximal_nodes()[0], [1.0 + 5e-10, -5e-10, 0.0]
        )
        assert float(m.min()) == 0.0

    def test_rejects_large_negative(self, basis_poset_c3):
        with pytest.raises(ValueError, match="negative"):
            context_measure(basis_poset_c3, basis_poset_c3.maximal_nodes()[0], [1.2, -0.2, 0.0])

    def test_rejects_bad_total(self, basis_poset_c3):
        with pytest.raises(ValueError, match="sum to 1"):
            context_measure(basis_poset_c3, basis_poset_c3.maximal_nodes()[0], [0.5, 0.2, 0.2])


@pytest.mark.parametrize("d", range(1, 10))
def test_hermitian_basis_matches_the_loop(d):
    basis = hermitian_basis(d)
    assert np.array_equal(basis, loop_hermitian_basis(d))
    gram = np.einsum("aij,bij->ab", basis.conj(), basis)
    assert max_norm(gram - np.eye(d * d)) <= 1e-12
