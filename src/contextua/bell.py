"""Bipartite composition via product context posets.

Correlation tables over product contexts, no-signalling checks, the local
deterministic-strategy LP for factorisability, and classification of
sections by linear reconstruction of a tensor-space operator.

Factorisability is one LP: min t over -t <= A w - b <= t, sum w = 1,
w >= 0, with one 0/1 column of A per deterministic strategy. Its dual on
the two inequality blocks is an l1-normalised Bell functional whose gap,
value on b minus its maximum over strategies, equals t*, the reported
reconstruction error. Reconstructed operators are classified: positive
semidefinite means quantum, positive after partial transposition of the
second factor means quantum up to time reversal, neither means non-quantum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .contexts import ContextPoset, is_section
from .gleason import ProbSection, born_weights, context_measure, reconstruct_operator
from .opalg import TOL, max_norm
from .spectral import EnumerationResult, enumerate_global_sections

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True)
class ProductNode:
    """A product context: one node id per factor poset."""

    left: int
    right: int


class ProductPoset:
    """Cartesian product of two context posets with componentwise order."""

    def __init__(self, left: ContextPoset, right: ContextPoset):
        self.left = left
        self.right = right
        self.nodes: tuple[ProductNode, ...] = tuple(
            ProductNode(i, j) for i in range(len(left)) for j in range(len(right))
        )
        self._index = {node: k for k, node in enumerate(self.nodes)}
        self.order = np.kron(left.order, right.order).astype(bool)
        self.dims = (left.dim, right.dim)
        self.dim = left.dim * right.dim

    def __len__(self) -> int:
        return len(self.nodes)

    def index(self, node: ProductNode) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise KeyError(f"unknown product node {node}") from None

    def leq(self, a: ProductNode, b: ProductNode) -> bool:
        return bool(self.order[self.index(a), self.index(b)])

    def table_shape(self, node: ProductNode) -> tuple[int, int]:
        return (
            len(self.left.nodes[node.left].atoms),
            len(self.right.nodes[node.right].atoms),
        )

    def atom_keys(self, i: int) -> list[tuple[str, str]]:
        """Key pairs of node i's atom pairs, in table row-major order."""
        node = self.nodes[i]
        return [
            (lk, rk)
            for lk in self.left.atom_keys(node.left)
            for rk in self.right.atom_keys(node.right)
        ]

    def atom_matrices(self, i: int) -> np.ndarray:
        """``kron(p, q)`` for each atom pair of node i, in table row-major order."""
        node = self.nodes[i]
        pl = self.left.atom_matrices(node.left)
        pr = self.right.atom_matrices(node.right)
        # [a, b, i, k, j, l] = pl[a, i, j] * pr[b, k, l], the entries of kron(p_a, q_b)
        prod = pl[:, None, :, None, :, None] * pr[None, :, None, :, None, :]
        return prod.reshape(len(pl) * len(pr), self.dim, self.dim)

    def dominator_map(self, small: int, large: int) -> np.ndarray:
        """Per-cell lookup: flat cell c of ``large``'s table lies under flat cell [c] of ``small``'s."""
        below, above = self.nodes[small], self.nodes[large]
        left = self.left.dominator_map(below.left, above.left)
        right = self.right.dominator_map(below.right, above.right)
        return (left[:, None] * self.table_shape(below)[1] + right[None, :]).reshape(-1)

    def maximal_nodes(self) -> list[ProductNode]:
        lm = set(self.left.maximal_nodes())
        rm = set(self.right.maximal_nodes())
        return [n for n in self.nodes if n.left in lm and n.right in rm]

    def covers(self) -> list[tuple[ProductNode, ProductNode]]:
        """Covering pairs (small, large); one coordinate moves by a factor cover."""
        out = []
        for i, j in self.left.covers():
            for r in range(len(self.right)):
                out.append((ProductNode(i, r), ProductNode(j, r)))
        for i, j in self.right.covers():
            for l in range(len(self.left)):
                out.append((ProductNode(l, i), ProductNode(l, j)))
        return out


def product_poset(p1: ContextPoset, p2: ContextPoset) -> ProductPoset:
    """Product order: (i1, i2) <= (j1, j2) iff i1 <= j1 and i2 <= j2."""
    return ProductPoset(p1, p2)


@dataclass(frozen=True)
class CorrelationTable:
    """Joint outcome probabilities for one product context."""

    context: ProductNode
    probs: np.ndarray

    def left_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def right_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=0)


@dataclass(frozen=True)
class BellSection:
    """Tables over a down-closed set of product contexts."""

    poset: ProductPoset
    tables: Mapping[ProductNode, CorrelationTable]
    domain: frozenset[ProductNode]

    def min_probability(self) -> float:
        return min(float(t.probs.min()) for t in self.tables.values())

    def negative_entries(self) -> list[tuple[ProductNode, int, int]]:
        out = []
        for node in sorted(self.domain, key=lambda n: (n.left, n.right)):
            probs = self.tables[node].probs
            for (a, b), v in np.ndenumerate(probs):
                if v < -TOL.exact:
                    out.append((node, a, b))
        return out


def section_from_bipartite_state(
    pp: ProductPoset, w, tol: float = TOL.exact
) -> BellSection:
    """Tables tr(W (p x q)) over every product context.

    W must be self-adjoint with trace 1 on the tensor space; positivity is
    deliberately not required, so non-quantum and time-reversed sections
    can be generated. Negative entries are reported by the section.
    """
    w = np.asarray(w, dtype=complex)
    d = pp.dim
    if w.shape != (d, d):
        raise ValueError(f"state must act on the tensor space, expected {(d, d)}")
    if max_norm(w - w.conj().T) > tol:
        raise ValueError("state must be self-adjoint")
    if abs(complex(np.trace(w)) - 1.0) > tol * d:
        raise ValueError("state must have trace 1")
    tables = {
        node: CorrelationTable(node, born_weights(pp, k, w).reshape(pp.table_shape(node)))
        for k, node in enumerate(pp.nodes)
    }
    return BellSection(pp, tables, frozenset(pp.nodes))


def restrict_table(
    pp: ProductPoset, table: CorrelationTable, target: ProductNode
) -> CorrelationTable:
    """Presheaf restriction: coarsen both margins onto the smaller contexts."""
    if not pp.leq(target, table.context):
        raise ValueError("target is not below the table's context")
    shape = pp.table_shape(target)
    probs = np.bincount(
        pp.dominator_map(pp.index(target), pp.index(table.context)),
        weights=table.probs.reshape(-1),
        minlength=shape[0] * shape[1],
    )
    return CorrelationTable(target, probs.reshape(shape))


def verify_bell_section(s: BellSection) -> bool:
    """Table shapes and totals, marginalisation along the product order, shared-pair consistency."""
    pp = s.poset
    values = {}
    for node in s.domain:
        t = s.tables.get(node)
        if t is None or t.context != node:
            return False
        if t.probs.shape != pp.table_shape(node):
            return False
        if abs(float(t.probs.sum()) - 1.0) > TOL.probability:
            return False
        values[pp.index(node)] = t.probs.reshape(-1)
    return is_section(pp, values, TOL.probability)


def check_no_signalling(s: BellSection, tol: float = TOL.exact) -> bool:
    """Marginals of one side must not depend on the other side's context."""
    by_left: dict[int, list[ProductNode]] = {}
    by_right: dict[int, list[ProductNode]] = {}
    for node in s.domain:
        by_left.setdefault(node.left, []).append(node)
        by_right.setdefault(node.right, []).append(node)
    for siblings in by_left.values():
        ref = s.tables[siblings[0]].left_marginal()
        for node in siblings[1:]:
            if max_norm(s.tables[node].left_marginal() - ref) > tol:
                return False
    for siblings in by_right.values():
        ref = s.tables[siblings[0]].right_marginal()
        for node in siblings[1:]:
            if max_norm(s.tables[node].right_marginal() - ref) > tol:
                return False
    return True


def marginal_prob_section(s: BellSection, side: str) -> ProbSection:
    """One party's marginal measures, as a section over its factor poset."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    pp = s.poset
    poset = pp.left if side == "left" else pp.right
    assignment = {}
    for node in sorted(s.domain, key=lambda n: (n.left, n.right)):
        local = node.left if side == "left" else node.right
        if local in assignment:
            continue
        t = s.tables[node]
        w = t.left_marginal() if side == "left" else t.right_marginal()
        assignment[local] = context_measure(poset, local, w, tol=TOL.probability)
    return ProbSection(assignment, frozenset(assignment))


@dataclass
class LPResult:
    factorisable: bool
    weights: np.ndarray | None
    reconstruction_error: float
    n_strategies: int
    witness: dict | None = None
    witness_value: float | None = None
    deterministic_max: float | None = None

    def to_report(self) -> dict:
        out = {
            "verdict": "factorisable" if self.factorisable else "not_factorisable",
            "reconstruction_error": self.reconstruction_error,
            "n_strategies": self.n_strategies,
        }
        if self.weights is not None:
            out["weights"] = [
                [int(i), float(self.weights[i])] for i in np.flatnonzero(self.weights > TOL.exact)
            ]
        if self.witness is not None:
            out["witness"] = [
                [[node.left, node.right], a, b, c]
                for (node, a, b), c in sorted(
                    self.witness.items(), key=lambda kv: (kv[0][0].left, kv[0][0].right, kv[0][1], kv[0][2])
                )
            ]
            out["witness_value"] = self.witness_value
            out["deterministic_max"] = self.deterministic_max
        return out


def _local_strategies(pp: ProductPoset, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Chosen atom at every node of each factor's global sections, one row per section.

    Local strategies are exactly the global sections of the factor posets,
    so shared projections take one value per side by construction.
    """
    left = enumerate_global_sections(pp.left, cap=cap)
    right = enumerate_global_sections(pp.right, cap=cap)
    if left.truncated or right.truncated or len(left) * len(right) > cap:
        raise ValueError("instance too large")
    return _chosen_atoms(left, len(pp.left)), _chosen_atoms(right, len(pp.right))


def _chosen_atoms(result: EnumerationResult, n_nodes: int) -> np.ndarray:
    return np.array(
        [[s.assignment[i].chosen_atom for i in range(n_nodes)] for s in result],
        dtype=np.int64,
    ).reshape(len(result), n_nodes)


def deterministic_strategies(
    pp: ProductPoset, cap: int = 10**6
) -> list[tuple[dict[int, int], dict[int, int]]]:
    """All pairs of local non-contextual value assignments, left section major."""
    left, right = _local_strategies(pp, cap)
    right_maps = [dict(enumerate(row)) for row in right.tolist()]
    return [(dict(enumerate(row)), cr) for row in left.tolist() for cr in right_maps]


def _strategy_matrix(
    pp: ProductPoset, contexts: Sequence[ProductNode], left: np.ndarray, right: np.ndarray
) -> sparse.csc_array:
    """Column l * len(right) + r holds the tables of strategy (left[l], right[r]) over `contexts`.

    This is the column order of :func:`deterministic_strategies`; each column
    has one 1 per context, at the cell of the two chosen atoms.
    """
    from scipy import sparse

    shapes = np.array([pp.table_shape(n) for n in contexts])
    sizes = shapes.prod(axis=1)
    offsets = np.cumsum(sizes) - sizes
    chosen_left = left[:, [n.left for n in contexts]]
    chosen_right = right[:, [n.right for n in contexts]]
    rows = offsets + shapes[:, 1] * chosen_left[:, None, :] + chosen_right[None, :, :]
    return sparse.csc_array(
        (np.ones(rows.size), rows.reshape(-1), np.arange(0, rows.size + 1, len(contexts))),
        shape=(int(sizes.sum()), len(left) * len(right)),
    )


def factorisability_lp(
    s: BellSection,
    contexts: Sequence[ProductNode] | None = None,
    cap: int = 10**6,
) -> LPResult:
    """Decide membership in the convex hull of deterministic local strategies.

    One LP over the strategy matrix A and the stacked tables b:
    min t  s.t.  -t <= A w - b <= t,  sum w = 1,  w >= 0.
    t* <= TOL.probability is factorisable, with hull weights w. Otherwise the duals
    y+, y- of the two inequality blocks give the separating functional
    c = y+ - y-, l1-normalised (sum |c| <= 1) by dual feasibility, and by
    strong duality c.b - max_s c.A_s = t*, the reconstruction error.
    """
    pp = s.poset
    if contexts is None:
        contexts = [n for n in pp.maximal_nodes() if n in s.domain]
    # a repeated context adds only copies of its rows, but its cells would share
    # one witness key; two catalog contexts that are one node repeat a pair
    contexts = list(dict.fromkeys(contexts))
    for node in contexts:
        if node not in s.domain:
            raise KeyError(f"context {node} not in section domain")
    if not contexts:
        raise ValueError("no analysis context has a table in the section")
    from scipy import sparse
    from scipy.optimize import linprog

    left, right = _local_strategies(pp, cap)
    b = np.concatenate([s.tables[n].probs.reshape(-1) for n in contexts])
    a = _strategy_matrix(pp, contexts, left, right)
    n_rows, n_strat = a.shape

    c = np.zeros(n_strat + 1)
    c[-1] = 1.0
    t_col = sparse.csc_array(-np.ones((n_rows, 1)))
    a_ub = sparse.bmat([[a, t_col], [-a, t_col]], format="csc")
    b_ub = np.concatenate([b, -b])
    a_eq = np.zeros((1, n_strat + 1))
    a_eq[0, :n_strat] = 1.0
    # presolve only removes rows that repeat across contexts sharing a ray; where
    # none repeat, as across mutually unbiased bases, it costs a third of the solve
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=(0, None), method="highs",
        options={"presolve": False},
    )
    if not res.success:
        raise RuntimeError(f"feasibility LP failed: {res.message}")
    if res.fun <= TOL.probability:
        weights = np.clip(res.x[:n_strat], 0.0, None)
        weights = weights / weights.sum()
        err = max_norm(a @ weights - b)
        return LPResult(True, weights, float(err), n_strat)

    dual = res.ineqlin.marginals
    coeffs = dual[:n_rows] - dual[n_rows:]
    cells = [(node, i, j) for node in contexts for i, j in np.ndindex(pp.table_shape(node))]
    return LPResult(
        False,
        None,
        float(res.fun),
        n_strat,
        witness={cell: float(x) for cell, x in zip(cells, coeffs)},
        witness_value=float(coeffs @ b),
        deterministic_max=float((a.T @ coeffs).max()),
    )


def bell_functional_value(s: BellSection, coeffs: Mapping) -> float:
    """Evaluate a linear functional sum coeffs[(node, a, b)] * probs."""
    total = 0.0
    for (node, a, b), c in coeffs.items():
        if node not in s.domain:
            raise KeyError(f"context {node} not in section domain")
        probs = s.tables[node].probs
        if not (0 <= a < probs.shape[0] and 0 <= b < probs.shape[1]):
            raise KeyError(f"atom pair ({a}, {b}) out of range for {node}")
        total += float(c) * float(probs[a, b])
    return total


def partial_transpose(w, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the second tensor factor of an operator on H1 x H2."""
    d1, d2 = dims
    arr = np.asarray(w, dtype=complex).reshape(d1, d2, d1, d2)
    return np.ascontiguousarray(arr.transpose(0, 3, 2, 1)).reshape(d1 * d2, d1 * d2)


@dataclass
class SectionClassification:
    verdict: str  # quantum | quantum_time_reversed | non_quantum | underdetermined
    witness: np.ndarray | None = None
    eigen_floor: float | None = None
    pt_eigen_floor: float | None = None
    residual: float = 0.0
    solution_space_dim: int | None = None
    warnings: tuple[str, ...] = ()

    def to_report(self) -> dict:
        out = {
            "verdict": self.verdict,
            "residual": self.residual,
            "warnings": list(self.warnings),
        }
        if self.witness is not None:
            out["eigenvalues"] = [float(x) for x in np.linalg.eigvalsh(self.witness)]
        if self.eigen_floor is not None:
            out["eigen_floor"] = self.eigen_floor
        if self.pt_eigen_floor is not None:
            out["pt_eigen_floor"] = self.pt_eigen_floor
        if self.solution_space_dim is not None:
            out["solution_space_dim"] = self.solution_space_dim
        return out


def classify_section(s: BellSection) -> SectionClassification:
    """Reconstruct the tensor-space operator behind a section and classify it.

    The linear system tr(W (p x q)) = probs over self-adjoint trace-1 W is
    solved in a Hermitian basis. A unique W is quantum if PSD, quantum up
    to time reversal if its second-factor partial transpose is PSD, and
    non-quantum otherwise. A family that does not span the tensor
    Hermitians leaves the section underdetermined.
    """
    pp = s.poset
    d1, d2 = pp.dims
    warnings = []
    if min(d1, d2) < 3:
        warnings.append("Gleason uniqueness precondition violated: local dim < 3")
    values = {pp.index(n): s.tables[n].probs for n in s.domain}
    status, w, residual, free = reconstruct_operator(pp, values)
    if status == "inconsistent":
        return SectionClassification(
            "non_quantum", residual=float(residual), warnings=tuple(warnings)
        )
    if status == "underdetermined":
        return SectionClassification(
            "underdetermined",
            residual=float(residual),
            solution_space_dim=free,
            warnings=tuple(warnings),
        )
    floor = float(np.linalg.eigvalsh(w).min())
    pt_floor = float(np.linalg.eigvalsh(partial_transpose(w, (d1, d2))).min())
    if floor >= -TOL.psd:
        verdict = "quantum"
    elif pt_floor >= -TOL.psd:
        verdict = "quantum_time_reversed"
    else:
        verdict = "non_quantum"
    return SectionClassification(
        verdict,
        witness=w,
        eigen_floor=floor,
        pt_eigen_floor=pt_floor,
        residual=float(residual),
        warnings=tuple(warnings),
    )
