"""Product posets, correlation tables, LP factorisability, classification."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import contextua as cx
from contextua import bell
from contextua.bell import (
    BellSection,
    CorrelationTable,
    deterministic_strategies,
)
from contextua.catalogs import bundled_text
from contextua.cli import main
from contextua.contexts import context_from_projections
from contextua.opalg import ProjectionRegistry, max_norm
from contextua.spectral import section_components

from conftest import (
    kron_row_classify,
    kron_row_tables,
    loop_check_no_signalling,
    loop_restrict_table,
    marginal_prob_section,
    random_density,
    random_hermitian,
    strict_chains3,
    verify_bell_section,
    verify_prob_section,
)


def chsh_coefficients(contexts):
    """E(0,0) + E(0,1) + E(1,0) - E(1,1) as per-entry coefficients."""
    coeffs = {}
    for k, node in enumerate(contexts):
        sign = -1.0 if k == 3 else 1.0
        for a in range(2):
            for b in range(2):
                coeffs[(node, a, b)] = sign * (1.0 if (a + b) % 2 == 0 else -1.0)
    return coeffs


def chsh_operator(model):
    """Oracle: the functional as a tensor-space observable, for eigen bounds."""
    pp = model.poset
    obs = []
    for side, poset in (("left", pp.left), ("right", pp.right)):
        pair = []
        for node in sorted({
            (n[0] if side == "left" else n[1]) for n in model.analysis_contexts
        }):
            atoms = poset.atom_matrices(node)
            pair.append(atoms[0] - atoms[1])
        obs.append(pair)
    (a0, a1), (b0, b1) = obs
    return np.kron(a0, b0) + np.kron(a0, b1) + np.kron(a1, b0) - np.kron(a1, b1)


@pytest.fixture(scope="module")
def mub2_model(mub2_bipartite_doc):
    return cx.build_bipartite_model(cx.parse_scenario(json.dumps(mub2_bipartite_doc)))


@pytest.fixture(scope="module")
def mub3_pair(mub_poset_c3):
    return cx.product_poset(mub_poset_c3, mub_poset_c3)


class TestProductPoset:
    def test_trivial_times_trivial(self):
        reg1, reg2 = ProjectionRegistry(2), ProjectionRegistry(2)
        pp = cx.product_poset(
            cx.generate_poset([], reg1), cx.generate_poset([], reg2)
        )
        assert len(pp) == 1

    def test_order_matches_one_step_relation_closure(self, basis_poset_c3):
        # one-step moves keep one side fixed; their transitive closure is the
        # componentwise product order
        poset = basis_poset_c3
        pp = cx.product_poset(poset, poset)
        n = len(pp)
        one_step = np.eye(n, dtype=bool)
        for x in range(n):
            for y in range(n):
                a, b = pp.nodes[x], pp.nodes[y]
                if a[0] == b[0] and poset.order[a[1], b[1]]:
                    one_step[x, y] = True
                if a[1] == b[1] and poset.order[a[0], b[0]]:
                    one_step[x, y] = True
        closure = one_step.copy()
        for _ in range(n):
            before = closure.copy()
            closure = closure | (closure @ closure)
            if np.array_equal(before, closure):
                break
        assert np.array_equal(closure, pp.order)

    def test_rows_match_kron(self, mub3_pair):
        pp = mub3_pair
        assert pp.dim == 9
        for k, node in enumerate(pp.nodes):
            stack = pp.atom_matrices(k)
            pairs = [
                (p, q)
                for p in pp.left.atom_matrices(node[0])
                for q in pp.right.atom_matrices(node[1])
            ]
            assert stack.shape == (len(pairs), 9, 9)
            for atom, (p, q) in zip(stack, pairs):
                assert np.array_equal(atom, np.kron(p, q))


class TestSectionFromState:
    def test_product_state_factorizes(self, mub2_model):
        pp = mub2_model.poset
        rng = np.random.default_rng(2)
        rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
        s = cx.section_from_bipartite_state(pp, np.kron(rho1.matrix, rho2.matrix))
        for node in pp.nodes:
            left = np.array(
                [np.real(np.trace(rho1.matrix @ p)) for p in pp.left.atom_matrices(node[0])]
            )
            right = np.array(
                [np.real(np.trace(rho2.matrix @ p)) for p in pp.right.atom_matrices(node[1])]
            )
            assert max_norm(s.tables[node].probs - np.outer(left, right)) < 1e-10

    def test_against_direct_trace_oracle(self, mub2_model):
        pp = mub2_model.poset
        rng = np.random.default_rng(3)
        w = random_hermitian(rng, 4)
        w = w / np.trace(w).real
        s = cx.section_from_bipartite_state(pp, w)
        for node in pp.nodes:
            for a, p in enumerate(pp.left.atom_matrices(node[0])):
                for b, q in enumerate(pp.right.atom_matrices(node[1])):
                    direct = float(np.real(np.trace(w @ np.kron(p, q))))
                    assert s.tables[node].probs[a, b] == pytest.approx(direct, abs=1e-12)

    def test_requires_trace_one(self, mub2_model):
        with pytest.raises(ValueError, match="trace 1"):
            cx.section_from_bipartite_state(mub2_model.poset, np.eye(4))

    def test_marginalisation_and_sharing(self, chsh_model):
        assert verify_bell_section(chsh_model.section)

    def test_pt_state_tables_nonnegative(self, mub2_model):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        w = cx.partial_transpose(np.outer(phi, phi.conj()), (2, 2))
        s = cx.section_from_bipartite_state(mub2_model.poset, w)
        assert s.min_probability() >= -1e-12
        assert cx.check_no_signalling(s)


class TestBornRuleDifferential:
    """Tables and classification against the kron-row reference route."""

    @settings(deadline=None)
    @given(
        st.sampled_from(["mub3", "mub2", "chsh"]),
        st.integers(0, 2**31 - 1),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_kron_rows(self, mub3_pair, mub2_model, chsh_model, which, seed, psd, pt):
        pp = {"mub3": mub3_pair, "mub2": mub2_model.poset, "chsh": chsh_model.poset}[which]
        rng = np.random.default_rng(seed)
        if psd:
            w = random_density(rng, pp.dim).matrix
        else:  # trace 1, with a traceless part large enough to leave the PSD cone
            h = random_hermitian(rng, pp.dim)
            w = (np.eye(pp.dim) + h - np.trace(h).real / pp.dim * np.eye(pp.dim)) / pp.dim
        if pt:
            w = cx.partial_transpose(w, pp.dims)
        s = cx.section_from_bipartite_state(pp, w)
        expected = kron_row_tables(pp, w)
        for node in pp.nodes:
            assert max_norm(s.tables[node].probs - expected[node]) <= 1e-12
        got, ref = cx.classify_section(s), kron_row_classify(s)
        assert got.verdict == ref.verdict
        assert got.solution_space_dim == ref.solution_space_dim
        assert got.residual == pytest.approx(ref.residual, abs=1e-10)
        for floor in ("eigen_floor", "pt_eigen_floor"):
            a, b = getattr(got, floor), getattr(ref, floor)
            assert (a is None) == (b is None)
            if a is not None:
                assert a == pytest.approx(b, abs=1e-10)


class TestNoSignalling:
    def test_states_always_pass(self, mub3_pair):
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = random_hermitian(rng, 9)
            w = w / np.trace(w).real
            s = cx.section_from_bipartite_state(mub3_pair, w)
            assert cx.check_no_signalling(s)

    def test_hand_built_signalling_pair_fails(self, chsh_model):
        pp = chsh_model.poset
        (x0, x1), (y0, y1) = _chsh_locals(chsh_model)
        n00 = (x0, y0)
        n01 = (x0, y1)
        tables = {
            n00: CorrelationTable(np.array([[0.5, 0.0], [0.0, 0.5]])),
            # left marginal depends on the right context: signalling
            n01: CorrelationTable(np.array([[0.9, 0.0], [0.0, 0.1]])),
        }
        s = BellSection(pp, tables)
        assert not cx.check_no_signalling(s)

    @pytest.mark.parametrize(
        "shared,other",
        [
            # one left node: the left marginals differ, the right ones agree
            (0, [[0.25, 0.5], [0.25, 0.0]]),
            # one right node: the right marginals differ, the left ones agree
            (1, [[0.25, 0.25], [0.5, 0.0]]),
        ],
    )
    def test_signalling_on_one_side_fails(self, chsh_model, shared, other):
        (x0, x1), (y0, y1) = _chsh_locals(chsh_model)
        even, other = np.array([[0.5, 0.0], [0.0, 0.5]]), np.array(other)
        assert np.array_equal(even.sum(axis=shared), other.sum(axis=shared))
        assert not np.array_equal(even.sum(axis=1 - shared), other.sum(axis=1 - shared))
        second = (x0, y1) if shared == 0 else (x1, y0)
        s = BellSection(
            chsh_model.poset,
            {(x0, y0): CorrelationTable(even), second: CorrelationTable(other)},
        )
        assert not cx.check_no_signalling(s)
        assert not loop_check_no_signalling(s)

    @settings(deadline=None)
    @given(
        st.sampled_from(["chsh", "mub3"]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 0, 1]),
        st.sampled_from([1e-12, 1e-6, 0.1]),
    )
    def test_matches_loop_check(self, chsh_model, mub3_pair, which, seed, side, eps):
        pp = {"chsh": chsh_model.poset, "mub3": mub3_pair}[which]
        rng = np.random.default_rng(seed)
        tables = cx.section_from_bipartite_state(pp, random_density(rng, pp.dim).matrix).tables
        # a random share of the nodes in a random order, so each group's first table varies
        order = rng.permutation(len(pp))[: rng.integers(len(pp) // 2, len(pp) + 1)]
        probs = {pp.nodes[k]: tables[pp.nodes[k]].probs.copy() for k in order}
        wide = [n for n in probs if side is not None and pp.table_shape(n)[side] > 1]
        if wide:
            # move eps between two outcomes of one side at one outcome of the other,
            # which moves only that side's marginal
            node = wide[rng.integers(len(wide))]
            view = np.moveaxis(probs[node], side, 0)
            a, b = rng.choice(len(view), 2, replace=False)
            c = rng.integers(view.shape[1])
            view[a, c] += eps
            view[b, c] -= eps
        s = BellSection(pp, {n: CorrelationTable(p) for n, p in probs.items()})
        assert cx.check_no_signalling(s) == loop_check_no_signalling(s)
        if not wide:
            assert cx.check_no_signalling(s)

    def test_pr_box_no_signalling_and_chsh_4(self, chsh_model):
        s, contexts = _pr_box_section(chsh_model)
        assert cx.check_no_signalling(s)
        assert cx.bell_functional_value(s, chsh_coefficients(contexts)) == pytest.approx(4.0)


def strategy_section(pp, contexts, strategy):
    """Oracle: the 0/1 tables a deterministic strategy gives on `contexts`."""
    cl, cr = strategy
    tables = {}
    for node in contexts:
        t = np.zeros(pp.table_shape(node))
        t[cl[node[0]], cr[node[1]]] = 1.0
        tables[node] = CorrelationTable(t)
    return BellSection(pp, tables)


def _chsh_locals(model):
    lefts = sorted({n[0] for n in model.analysis_contexts})
    rights = sorted({n[1] for n in model.analysis_contexts})
    return (lefts[0], lefts[1]), (rights[0], rights[1])


def _pr_box_section(model):
    """PR-box tables on the CHSH product contexts: a XOR b = x AND y."""
    pp = model.poset
    (x0, x1), (y0, y1) = _chsh_locals(model)
    contexts = [
        (x0, y0),
        (x0, y1),
        (x1, y0),
        (x1, y1),
    ]
    tables = {}
    for (x, node) in zip((0, 0, 1, 1), contexts):
        y = {contexts[0]: 0, contexts[1]: 1, contexts[2]: 0, contexts[3]: 1}[node]
        t = np.zeros((2, 2))
        for a in range(2):
            for b in range(2):
                if (a + b) % 2 == (x & y):
                    t[a, b] = 0.5
        tables[node] = CorrelationTable(t)
    return BellSection(pp, tables), contexts


class TestFactorisability:
    def test_separable_mixtures_factorisable(self, chsh_model):
        pp = chsh_model.poset
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = np.zeros((4, 4), dtype=complex)
            weights = rng.dirichlet(np.ones(3))
            for lam in weights:
                r1, r2 = random_density(rng, 2), random_density(rng, 2)
                w = w + lam * np.kron(r1.matrix, r2.matrix)
            s = cx.section_from_bipartite_state(pp, w)
            res = cx.factorisability_lp(s, chsh_model.analysis_contexts)
            assert res.factorisable
            assert res.reconstruction_error <= 1e-7

    def test_singlet_statistics_not_factorisable(self, chsh_model):
        res = cx.factorisability_lp(chsh_model.section, chsh_model.analysis_contexts)
        assert not res.factorisable
        assert res.n_strategies == 16
        assert res.witness_value > res.deterministic_max + 1e-6

    def test_deterministic_tables_unit_weight(self, chsh_model):
        pp = chsh_model.poset
        strategies = deterministic_strategies(pp)
        s = strategy_section(pp, chsh_model.analysis_contexts, strategies[5])
        res = cx.factorisability_lp(s, chsh_model.analysis_contexts)
        assert res.factorisable
        big = res.weights[res.weights > 1e-9]
        assert len(big) == 1 and big[0] == pytest.approx(1.0)

    def test_instance_too_large(self, chsh_model):
        with pytest.raises(ValueError, match="too large"):
            cx.factorisability_lp(chsh_model.section, chsh_model.analysis_contexts, cap=4)

    def test_cap_counts_lp_columns(self, mub3_pair):
        # four qutrit MUBs per side: 81 x 81 = 6561 strategies, but four free groups
        # of 3 give 81 x 12 = 972 LP columns, within a cap of 1000
        s = cx.section_from_bipartite_state(mub3_pair, np.eye(9) / 9)
        res = cx.factorisability_lp(s, cap=1000)
        assert res.factorisable
        assert res.n_strategies == 6561
        with pytest.raises(ValueError, match="too large"):
            cx.factorisability_lp(s, cap=971)
        with pytest.raises(ValueError, match="too large"):
            deterministic_strategies(mub3_pair, cap=1000)

    def test_no_contexts_rejected(self, chsh_model):
        with pytest.raises(ValueError, match="no analysis context has a table"):
            cx.factorisability_lp(chsh_model.section, [])

    def test_repeated_context_counted_once(self, chsh_model):
        # with both copies in the LP, the witness kept one copy's coefficients per
        # cell and no longer reproduced witness_value or deterministic_max
        contexts = chsh_model.analysis_contexts
        res = cx.factorisability_lp(chsh_model.section, [contexts[0], *contexts])
        assert res.to_report() == cx.factorisability_lp(chsh_model.section, contexts).to_report()
        check_certificate(chsh_model.poset, contexts, res)

    def test_no_tabled_context_cli_error(self, tmp_path, capsys):
        doc = json.loads(bundled_text("chsh-c2"))
        del doc["state"]
        doc["product_contexts"] = [[0, 0]]
        doc["tables"] = [{"left": 1, "right": 1, "probs": [[0.25, 0.25], [0.25, 0.25]]}]
        path = tmp_path / "untabled.json"
        path.write_text(json.dumps(doc))
        assert main(["bell-analyze", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no analysis context has a table")

    def test_no_global_sections_cli_error(self, tmp_path, capsys):
        # a Kochen-Specker factor has no local strategy, so there is no LP to pose
        path = tmp_path / "ks-left.json"
        path.write_text(json.dumps(ks18_times_basis_doc("left")))
        assert main(["bell-analyze", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the left factor has no global sections")

    def test_no_global_sections_named_side(self):
        model = cx.build_bipartite_model(
            cx.parse_scenario(json.dumps(ks18_times_basis_doc("right")))
        )
        with pytest.raises(ValueError, match="^the right factor has no global sections"):
            cx.factorisability_lp(model.section)

    def test_bundled_chsh_certificate(self, chsh_model):
        res = cx.factorisability_lp(chsh_model.section, chsh_model.analysis_contexts)
        check_certificate(chsh_model.poset, chsh_model.analysis_contexts, res)
        # the l1-normalised CHSH functional: (2 sqrt 2 - 2) / 16 above the local bound
        assert res.witness_value == pytest.approx(np.sqrt(2) / 8, abs=1e-9)
        assert res.deterministic_max == pytest.approx(0.125, abs=1e-9)


def ks18_times_basis_doc(ks_side):
    """ks18-c4 on one side and one qubit basis on the other, in the maximally mixed state."""
    ks = json.loads(bundled_text("ks18-c4"))
    basis = {"rays": [[1, 0], [0, 1]], "contexts": [[0, 1]], "dim": 2}
    sides = {ks_side: ks, "right" if ks_side == "left" else "left": basis}
    d = ks["dim"] * basis["dim"]
    return {
        "kind": "bipartite",
        "dims": [sides["left"]["dim"], sides["right"]["dim"]],
        "rays": {side: sides[side]["rays"] for side in ("left", "right")},
        "contexts": {side: sides[side]["contexts"] for side in ("left", "right")},
        "state": (np.eye(d) / d).tolist(),
    }


def check_certificate(pp, contexts, res):
    """A negative verdict's witness: l1 <= 1, gap = t*, max checked by brute force."""
    assert sum(abs(c) for c in res.witness.values()) <= 1 + 1e-9
    gap = res.witness_value - res.deterministic_max
    assert gap == pytest.approx(res.reconstruction_error, abs=1e-9)
    brute = max(
        cx.bell_functional_value(strategy_section(pp, contexts, strategy), res.witness)
        for strategy in deterministic_strategies(pp)
    )
    assert res.deterministic_max == pytest.approx(brute, abs=1e-12)


def check_hull_weights(dense, b, err, res):
    """A positive verdict's weights: a distribution that fits the tables to within err."""
    assert res.weights.min() >= 0
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert max_norm(dense @ res.weights - b) == pytest.approx(err, abs=1e-12)


def dense_strategy_matrix(pp, contexts, strategies):
    """Reference: each strategy's tables flattened in a loop, stacked densely."""
    columns = []
    for strategy in strategies:
        s = strategy_section(pp, contexts, strategy)
        columns.append(np.concatenate([s.tables[n].probs.reshape(-1) for n in contexts]))
    return np.stack(columns, axis=1)


def cell_block(pp, contexts):
    """The LP's cell rows over every strategy, as one group lays them out."""
    left, right = (result.chosen for result in bell._local_strategies(pp, cap=10**6))
    cells = bell._Cells.of(pp, contexts)
    rows, cols = bell._columns([cells.rows(left[:, None], right[None, :])])
    block = np.zeros((cells.n_rows, len(left) * len(right)))
    block[rows, cols] = 1.0
    return block


def dense_min_t_lp(a, b):
    """Reference: min t s.t. -t <= A w - b <= t, sum w = 1, w >= 0, dense."""
    n_rows, n_strat = a.shape
    c = np.zeros(n_strat + 1)
    c[-1] = 1.0
    a_ub = np.block([[a, -np.ones((n_rows, 1))], [-a, -np.ones((n_rows, 1))]])
    a_eq = np.zeros((1, n_strat + 1))
    a_eq[0, :n_strat] = 1.0
    # without presolve, as factorisability_lp solves: presolve's postsolve can hand
    # back weights that miss b by ~1e-7 while t = 0, past the 1e-12 the error is held to
    res = linprog(
        c, A_ub=a_ub, b_ub=np.concatenate([b, -b]), A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * (n_strat + 1), method="highs", options={"presolve": False},
    )
    assert res.success
    if res.fun > 1e-7:
        return False, None, float(res.fun)
    w = np.clip(res.x[:n_strat], 0.0, None)
    w = w / w.sum()
    return True, w, float(max_norm(a @ w - b))


@pytest.fixture(scope="module")
def mub2_qutrit_pair():
    """Two mutually unbiased qutrit bases per side; 9 x 9 strategies."""
    reg = ProjectionRegistry(3)
    fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    ctxs = [
        context_from_projections(reg, [np.outer(u[:, k], u[:, k].conj()) for k in range(3)])
        for u in (np.eye(3), fourier)
    ]
    poset = cx.generate_poset(ctxs, reg)
    pp = cx.product_poset(poset, poset)
    return pp, pp.maximal_nodes()


@pytest.fixture(scope="module")
def shared_ray_qutrit_pair(shared_ray_poset_c3, mub2_qutrit_pair):
    """Left: two qutrit bases sharing one ray, 5 sections, not a product of choices."""
    pp = cx.product_poset(shared_ray_poset_c3, mub2_qutrit_pair[0].right)
    return pp, pp.maximal_nodes()


@pytest.fixture(scope="module")
def grouped_qutrit_pair(mub2_qutrit_pair):
    """Right: two bases sharing a ray (5 sections) and a basis sharing nothing (3).

    Two groups of the right factor, the first not a product of choices.
    """
    reg = ProjectionRegistry(3)
    e = np.eye(3)
    c, s = np.cos(0.7), np.sin(0.7)
    fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    bases = (e, np.column_stack([e[:, 0], [0, c, s], [0, -s, c]]), fourier)
    ctxs = [
        context_from_projections(reg, [np.outer(u[:, k], u[:, k].conj()) for k in range(3)])
        for u in bases
    ]
    pp = cx.product_poset(mub2_qutrit_pair[0].left, cx.generate_poset(ctxs, reg))
    return pp, pp.maximal_nodes()


@pytest.fixture(scope="module")
def interleaved_qutrit_pair(mub2_qutrit_pair):
    """Right: a ray and its complement, a basis, another ray and its complement.

    Components of 2, 3 and 2 sections: the first and the last merge into one
    group (2 * 2 <= 2 + 2), so group sections are not in strategy order.
    """
    reg = ProjectionRegistry(3)
    fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    f, g = np.array([1.0, 2.0, 2.0]) / 3, np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
    ctxs = [
        context_from_projections(reg, [np.outer(f, f), np.eye(3) - np.outer(f, f)]),
        context_from_projections(
            reg, [np.outer(fourier[:, k], fourier[:, k].conj()) for k in range(3)]
        ),
        context_from_projections(reg, [np.outer(g, g), np.eye(3) - np.outer(g, g)]),
    ]
    pp = cx.product_poset(mub2_qutrit_pair[0].left, cx.generate_poset(ctxs, reg))
    return pp, pp.maximal_nodes()


def _drawn_section(pp, contexts, source, rng):
    """A section from one of four sources; 'hermitian' gives negative entries."""
    d = pp.dims[0]
    if source == "pr-box":
        # b - a = x y (mod d), mixed with white noise
        lefts = sorted({n[0] for n in contexts})
        rights = sorted({n[1] for n in contexts})
        p = rng.uniform()
        tables = {}
        for node in contexts:
            xy = lefts.index(node[0]) * rights.index(node[1])
            na, nb = pp.table_shape(node)
            t = np.full((na, nb), (1 - p) / (na * nb))
            for a in range(na):
                t[a, (a + xy) % nb] += p / na
            tables[node] = CorrelationTable(t)
        return BellSection(pp, tables)
    if source == "separable":
        w = sum(
            lam * np.kron(random_density(rng, d).matrix, random_density(rng, d).matrix)
            for lam in rng.dirichlet(np.ones(3))
        )
    elif source == "werner":
        phi = np.eye(d).reshape(-1) / np.sqrt(d)
        v = rng.uniform()
        w = v * np.outer(phi, phi) + (1 - v) * np.eye(d * d) / d**2
    else:
        h = random_hermitian(rng, d * d) / d
        w = h + (1 - np.trace(h).real) / d**2 * np.eye(d * d)
    return cx.section_from_bipartite_state(pp, w)


class TestSparseLPDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["separable", "werner", "hermitian", "pr-box"]),
    )
    def test_matches_dense_route(self, chsh_model, mub2_qutrit_pair, seed, qutrit, source):
        if qutrit:
            pp, contexts = mub2_qutrit_pair
        else:
            pp, contexts = chsh_model.poset, chsh_model.analysis_contexts
        s = _drawn_section(pp, contexts, source, np.random.default_rng(seed))
        strategies = deterministic_strategies(pp)
        dense = dense_strategy_matrix(pp, contexts, strategies)
        assert np.array_equal(cell_block(pp, contexts), dense)

        b = np.concatenate([s.tables[n].probs.reshape(-1) for n in contexts])
        factorisable, weights, err = dense_min_t_lp(dense, b)
        res = cx.factorisability_lp(s, contexts)
        assert res.factorisable == factorisable
        assert res.n_strategies == len(strategies)
        assert res.reconstruction_error == pytest.approx(err, abs=1e-12)
        if factorisable and qutrit:
            # hull weights are not unique, and the qutrit LP is solved over the right
            # factor's two bases separately, so it may end at another optimal vertex
            check_hull_weights(dense, b, err, res)
        elif factorisable:
            # one group: the qubit LP is the dense one column for column
            assert max_norm(res.weights - weights) <= 1e-12
        else:
            check_certificate(pp, contexts, res)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["separable", "werner", "hermitian", "pr-box"]),
    )
    def test_sections_not_a_product(self, shared_ray_qutrit_pair, seed, source):
        # the column order can differ from a product order here; the hull weights
        # are not unique (rows repeat across the shared ray), so a positive verdict's
        # weights are checked as a certificate against the reference matrix
        pp, contexts = shared_ray_qutrit_pair
        s = _drawn_section(pp, contexts, source, np.random.default_rng(seed))
        strategies = deterministic_strategies(pp)
        dense = dense_strategy_matrix(pp, contexts, strategies)
        assert np.array_equal(cell_block(pp, contexts), dense)

        b = np.concatenate([s.tables[n].probs.reshape(-1) for n in contexts])
        factorisable, _, err = dense_min_t_lp(dense, b)
        res = cx.factorisability_lp(s, contexts)
        assert res.factorisable == factorisable
        assert res.n_strategies == len(strategies) == 5 * 9
        assert res.reconstruction_error == pytest.approx(err, abs=1e-12)
        if factorisable:
            check_hull_weights(dense, b, err, res)
        else:
            check_certificate(pp, contexts, res)


class TestGroupedLPDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["separable", "werner", "hermitian", "pr-box"]),
        st.sampled_from(["chsh", "mub2", "grouped", "interleaved"]),
    )
    def test_matches_dense_lp(
        self,
        chsh_model,
        mub2_qutrit_pair,
        grouped_qutrit_pair,
        interleaved_qutrit_pair,
        seed,
        source,
        product,
    ):
        # one group (chsh), two free groups (mub2), a group of two bases sharing a
        # ray next to a free one (grouped), and a group of two components that are
        # not adjacent (interleaved)
        pp, contexts = {
            "chsh": (chsh_model.poset, chsh_model.analysis_contexts),
            "mub2": mub2_qutrit_pair,
            "grouped": grouped_qutrit_pair,
            "interleaved": interleaved_qutrit_pair,
        }[product]
        s = _drawn_section(pp, contexts, source, np.random.default_rng(seed))
        strategies = deterministic_strategies(pp)
        dense = dense_strategy_matrix(pp, contexts, strategies)
        b = np.concatenate([s.tables[n].probs.reshape(-1) for n in contexts])
        factorisable, _, err = dense_min_t_lp(dense, b)
        res = cx.factorisability_lp(s, contexts)
        assert res.factorisable == factorisable
        assert res.n_strategies == len(strategies)
        assert res.reconstruction_error == pytest.approx(err, abs=1e-12)
        if factorisable:
            check_hull_weights(dense, b, err, res)
        else:
            check_certificate(pp, contexts, res)


class TestRightGroups:
    def test_component_labels(self, mub_poset_c3, ks18_poset, chsh_model):
        assert section_components(mub_poset_c3).tolist() == [0, 1, 2, 3]
        assert section_components(ks18_poset).tolist() == [0] * 9
        assert section_components(chsh_model.poset.right).tolist() == [0, 1]

    def test_groups(
        self, chsh_model, mub2_model, mub3_pair, grouped_qutrit_pair, interleaved_qutrit_pair
    ):
        # chsh: two components of 2 sections merge (2 * 2 <= 2 + 2); three qubit
        # bases: the third would make 8 > 4 + 2; qutrit bases never merge
        cases = [
            (chsh_model.poset, [4]),
            (mub2_model.poset, [4, 2]),
            (mub3_pair, [3, 3, 3, 3]),
            (grouped_qutrit_pair[0], [5, 3]),
            (interleaved_qutrit_pair[0], [4, 3]),
        ]
        for pp, sizes in cases:
            _, sections = bell._local_strategies(pp, cap=10**6)
            groups = bell._right_groups(sections)
            right = sections.chosen
            assert groups.sizes == sizes
            # every tuple of group sections is one right section, and each group's
            # representative agrees with it on the nodes that group fixes
            tuples = np.array(list(itertools.product(*map(range, sizes))))
            full = groups.full_index(tuples)
            assert sorted(full.tolist()) == list(range(len(right)))
            for g, rep in enumerate(groups.reps):
                owned = groups.owner == g
                assert np.array_equal(right[rep[tuples[:, g]]][:, owned], right[full][:, owned])

    def test_shared_ray_links_components_without_a_meet(self, grouped_qutrit_pair):
        # the two bases that share a ray store no meet; the shared key alone links
        # them, so the right factor keeps groups [5, 3] and not three free bases
        pp = grouped_qutrit_pair[0]
        assert pp.right.generators == ("catalog[0]", "catalog[1]", "catalog[2]", "trivial")
        assert section_components(pp.right).tolist() == [0, 0, 1]
        _, right = bell._local_strategies(pp, cap=10**6)
        assert len(right) == 15
        assert bell._right_groups(right).sizes == [5, 3]

    def test_coupling_reproduces_masses(self):
        # dyadic masses with power-of-two row totals: every step is exact
        rng = np.random.default_rng(5)
        sizes, n = [5, 3, 1, 4], 12
        totals = 2.0 ** -rng.integers(0, 6, n)
        totals[3] = 0.0
        masses = []
        for k in sizes:
            cuts = np.sort(rng.integers(0, 65, (n, k - 1)), axis=1)
            edges = np.concatenate([np.zeros((n, 1)), cuts, np.full((n, 1), 64)], axis=1)
            masses.append(np.diff(edges, axis=1) / 64 * totals[:, None])
        rows, sections, weights = bell._couple(masses)
        assert (weights > 0).all()
        for g, m in enumerate(masses):
            back = np.zeros_like(m)
            np.add.at(back, (rows, sections[:, g]), weights)
            assert np.array_equal(back, m)
        assert np.bincount(rows, minlength=n).max() <= 1 + sum(k - 1 for k in sizes)
        assert len(set(zip(rows.tolist(), map(tuple, sections.tolist())))) == len(rows)


class TestBellFunctional:
    def test_classical_bound_exhaustive(self, chsh_model):
        # classical bound oracle: max over all 16 deterministic strategies is 2
        pp = chsh_model.poset
        contexts = chsh_model.analysis_contexts
        coeffs = chsh_coefficients(contexts)
        values = [
            cx.bell_functional_value(strategy_section(pp, contexts, strategy), coeffs)
            for strategy in deterministic_strategies(pp)
        ]
        assert len(values) == 16
        assert max(values) == 2.0
        assert min(values) == -2.0

    def test_quantum_value_matches_eigen_oracle(self, chsh_model):
        coeffs = chsh_coefficients(chsh_model.analysis_contexts)
        got = cx.bell_functional_value(chsh_model.section, coeffs)
        bound = float(np.linalg.eigvalsh(chsh_operator(chsh_model)).max())
        assert bound == pytest.approx(2 * np.sqrt(2), abs=1e-12)
        assert got == pytest.approx(bound, abs=1e-9)

    def test_missing_index_errors(self, chsh_model):
        node = chsh_model.analysis_contexts[0]
        with pytest.raises(KeyError):
            cx.bell_functional_value(chsh_model.section, {(node, 5, 0): 1.0})


class TestClassification:
    def test_round_trip_quantum(self, mub3_pair):
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = random_density(rng, 9)
            s = cx.section_from_bipartite_state(mub3_pair, rho.matrix)
            result = cx.classify_section(s)
            assert result.verdict == "quantum"
            assert max_norm(result.witness - rho.matrix) <= 1e-8
            assert not result.warnings

    def test_time_reversed_maximally_entangled(self, mub2_model):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        w = cx.partial_transpose(np.outer(phi, phi.conj()), (2, 2))
        s = cx.section_from_bipartite_state(mub2_model.poset, w)
        result = cx.classify_section(s)
        assert result.verdict == "quantum_time_reversed"
        # reference floor recomputed by the eigendecomposition oracle
        oracle_floor = float(np.linalg.eigvalsh(w).min())
        assert oracle_floor == pytest.approx(-0.5, abs=1e-12)
        assert result.eigen_floor == pytest.approx(oracle_floor, abs=1e-6)
        assert any("local dim < 3" in w_ for w_ in result.warnings)

    def test_chsh_contexts_underdetermined(self, chsh_model):
        pp = chsh_model.poset
        domain = frozenset(chsh_model.analysis_contexts)
        s = BellSection(pp, {n: chsh_model.section.tables[n] for n in domain})
        result = cx.classify_section(s)
        assert result.verdict == "underdetermined"
        # rank-deficiency oracle: 2 bases per qubit span 3 of 4 local dims
        rows = []
        for node in sorted(domain):
            for p in pp.left.atom_matrices(node[0]):
                for q in pp.right.atom_matrices(node[1]):
                    m = np.kron(p, q)
                    rows.append(np.concatenate([m.real.reshape(-1), m.imag.reshape(-1)]))
        rows.append(np.concatenate([np.eye(4).reshape(-1), np.zeros(16)]))
        rank = int(np.linalg.matrix_rank(np.stack(rows), tol=1e-8))
        assert result.solution_space_dim == 16 - rank == 7

    def test_pt_involution(self, mub3_pair):
        rng = np.random.default_rng(13)
        for _ in range(5):
            rho = random_density(rng, 9).matrix
            w2 = cx.partial_transpose(rho, (3, 3))
            s2 = cx.section_from_bipartite_state(mub3_pair, w2)
            v2 = cx.classify_section(s2).verdict
            pt_psd = np.linalg.eigvalsh(w2).min() >= -1e-7
            assert v2 == ("quantum" if pt_psd else "quantum_time_reversed")

    def test_non_quantum_with_residual_on_corrupt_tables(self, mub3_pair):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 9)
        s = cx.section_from_bipartite_state(mub3_pair, rho.matrix)
        node = next(iter(mub3_pair.maximal_nodes()))
        probs = s.tables[node].probs.copy()
        probs[0, 0] += 0.2
        probs[1, 1] -= 0.2
        tables = dict(s.tables)
        tables[node] = CorrelationTable(probs)
        bad = BellSection(mub3_pair, tables)
        result = cx.classify_section(bad)
        assert result.verdict == "non_quantum"
        assert result.residual > 1e-6

    def test_local_gleason_consistency(self, mub3_pair):
        rng = np.random.default_rng(19)
        rho = random_density(rng, 9)
        s = cx.section_from_bipartite_state(mub3_pair, rho.matrix)
        for side in ("left", "right"):
            marg = marginal_prob_section(s, side)
            poset = mub3_pair.left if side == "left" else mub3_pair.right
            assert verify_prob_section(poset, marg)


class TestRestrictTable:
    def test_composes_along_chains(self, mub2_model):
        pp = mub2_model.poset
        rng = np.random.default_rng(23)
        w = random_hermitian(rng, 4)
        w = w / np.trace(w).real
        s = cx.section_from_bipartite_state(pp, w)
        checked = 0
        for i, j, k in strict_chains3(pp.order):
            a, b, c = pp.nodes[i], pp.nodes[j], pp.nodes[k]
            via = loop_restrict_table(pp, loop_restrict_table(pp, s.tables[c], c, b), b, a)
            direct = loop_restrict_table(pp, s.tables[c], c, a)
            assert max_norm(via.probs - direct.probs) < 1e-10
            checked += 1
        assert checked > 0

    def test_matches_loop_reference(self, mub3_pair, chsh_model):
        # each node's Born table is the loop restriction of every larger node's
        # table, also for a W that is not positive
        rng = np.random.default_rng(29)
        for pp in (mub3_pair, chsh_model.poset):
            d = pp.dims[0] * pp.dims[1]
            w = random_hermitian(rng, d)
            s = cx.section_from_bipartite_state(pp, w / np.trace(w).real)
            checked = 0
            for i, j in zip(*np.nonzero(pp.order)):
                small, large = pp.nodes[i], pp.nodes[j]
                want = loop_restrict_table(pp, s.tables[large], large, small)
                assert max_norm(s.tables[small].probs - want.probs) < 1e-10
                checked += 1
            assert checked > len(pp)


def _replace_tables(s, tables):
    return BellSection(s.poset, tables)


class TestVerifyBellSection:
    def test_perturbed_lower_table(self, chsh_model):
        s = chsh_model.section
        (x0, _), _ = _chsh_locals(chsh_model)
        node = (x0, len(chsh_model.poset.right) - 1)  # the trivial context
        tables = dict(s.tables)
        probs = s.tables[node].probs + np.array([[1e-3], [-1e-3]])
        tables[node] = CorrelationTable(probs)
        assert not verify_bell_section(_replace_tables(s, tables))

    def test_shared_pair_mismatch(self, shared_ray_poset_c3):
        # only the shared (ray, identity) pair can expose a mismatch
        left = shared_ray_poset_c3
        pp = cx.product_poset(left, cx.generate_poset([], ProjectionRegistry(2)))
        first, second = left.maximal_nodes()
        shared = set(left.atom_keys(first)) & set(left.atom_keys(second))
        assert len(shared) == 1
        key = shared.pop()

        def section(shared_weight):
            """Weight 0.5 on the shared ray in ``first``, ``shared_weight`` in ``second``."""
            tables = {}
            for node in pp.nodes:
                w = np.ones((1, 1))
                if node[0] in (first, second):
                    at = left.atom_keys(node[0]).index(key)
                    top = 0.5 if node[0] == first else shared_weight
                    w = np.full((3, 1), (1 - top) / 2)
                    w[at] = top
                tables[node] = CorrelationTable(w)
            return BellSection(pp, tables)

        assert verify_bell_section(section(0.5))
        assert not verify_bell_section(section(0.4))

    def test_not_down_closed(self, chsh_model):
        s = chsh_model.section
        top = chsh_model.analysis_contexts[0]
        assert not verify_bell_section(_replace_tables(s, {top: s.tables[top]}))

    def test_wrong_shape(self, chsh_model):
        s = chsh_model.section
        (x0, _), _ = _chsh_locals(chsh_model)
        node = (x0, len(chsh_model.poset.right) - 1)  # the trivial context
        tables = dict(s.tables)
        tables[node] = CorrelationTable(s.tables[node].probs.reshape(1, 2))
        assert not verify_bell_section(_replace_tables(s, tables))

    def test_total_not_one(self, chsh_model):
        # halving every table keeps marginalisation and sharing intact
        s = chsh_model.section
        tables = {n: CorrelationTable(0.5 * t.probs) for n, t in s.tables.items()}
        assert not verify_bell_section(_replace_tables(s, tables))


class TestMaximallyEntangledC3:
    def test_classify_and_time_reverse(self, mub3_pair):
        d = 3
        phi = np.zeros(d * d, dtype=complex)
        for k in range(d):
            phi[k * d + k] = 1 / np.sqrt(d)
        rho = np.outer(phi, phi.conj())
        s = cx.section_from_bipartite_state(mub3_pair, rho)
        res = cx.classify_section(s)
        assert res.verdict == "quantum"
        assert not res.warnings  # local dims are 3: Gleason precondition holds
        w = cx.partial_transpose(rho, (d, d))
        # eigen oracle: partial transpose of the maximally entangled state is
        # the swap divided by d, with eigenvalues +/- 1/d
        oracle = np.linalg.eigvalsh(w)
        assert oracle.min() == pytest.approx(-1 / d)
        res_pt = cx.classify_section(cx.section_from_bipartite_state(mub3_pair, w))
        assert res_pt.verdict == "quantum_time_reversed"
        assert res_pt.eigen_floor == pytest.approx(-1 / d, abs=1e-8)
