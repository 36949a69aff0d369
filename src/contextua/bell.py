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
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .contexts import ContextPoset
from .gleason import (
    PSD_TOL,
    RANK_TOL,
    RESIDUAL_TOL,
    ProbSection,
    context_measure,
    hermitian_basis,
)
from .opalg import DEFAULT_TOL, max_norm
from .spectral import dominator_index, enumerate_global_sections


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
        self._rows: list[tuple[ProductNode, int, int]] | None = None
        self._row_vecs: np.ndarray | None = None
        self._row_slices: dict[ProductNode, slice] | None = None
        self._constraints: np.ndarray | None = None

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

    # -- cached linear machinery over the tensor space ---------------------

    def _ensure_rows(self) -> None:
        if self._rows is not None:
            return
        rows: list[tuple[ProductNode, int, int]] = []
        vecs: list[np.ndarray] = []
        slices: dict[ProductNode, slice] = {}
        for node in self.nodes:
            start = len(rows)
            pl = self.left.atoms_of(node.left)
            pr = self.right.atoms_of(node.right)
            for a, p in enumerate(pl):
                for b, q in enumerate(pr):
                    rows.append((node, a, b))
                    vecs.append(np.kron(p.matrix, q.matrix).T.reshape(-1))
            slices[node] = slice(start, len(rows))
        self._rows = rows
        self._row_vecs = np.stack(vecs)
        self._row_slices = slices

    def born_probabilities(self, node: ProductNode, w: np.ndarray) -> np.ndarray:
        """Table of Re tr(W (p x q)) for the node's atom pairs."""
        self._ensure_rows()
        sl = self._row_slices[node]
        flat = np.real(self._row_vecs[sl] @ w.reshape(-1))
        return flat.reshape(self.table_shape(node))

    def constraint_matrix(self) -> np.ndarray:
        """Real rows tr((p x q) G_k) against the tensor Hermitian basis."""
        if self._constraints is None:
            self._ensure_rows()
            d = self.dims[0] * self.dims[1]
            basis = hermitian_basis(d)
            g_vecs = basis.reshape(len(basis), -1)
            self._constraints = np.real(self._row_vecs @ g_vecs.T)
        return self._constraints

    def rows_for(self, domain: Sequence[ProductNode]) -> list[int]:
        self._ensure_rows()
        out: list[int] = []
        for node in domain:
            sl = self._row_slices[node]
            out.extend(range(sl.start, sl.stop))
        return out

    def row_labels(self) -> list[tuple[ProductNode, int, int]]:
        self._ensure_rows()
        return list(self._rows)


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

    def is_nonnegative(self, tol: float = DEFAULT_TOL) -> bool:
        return bool(self.probs.min() >= -tol)


@dataclass(frozen=True)
class BellSection:
    """Tables over a down-closed set of product contexts."""

    poset: ProductPoset
    tables: Mapping[ProductNode, CorrelationTable]
    domain: frozenset[ProductNode]

    def min_probability(self) -> float:
        return min(float(t.probs.min()) for t in self.tables.values())

    def negative_entries(self, tol: float = DEFAULT_TOL) -> list[tuple[ProductNode, int, int]]:
        out = []
        for node in sorted(self.domain, key=lambda n: (n.left, n.right)):
            probs = self.tables[node].probs
            for (a, b), v in np.ndenumerate(probs):
                if v < -tol:
                    out.append((node, a, b))
        return out


def section_from_bipartite_state(
    pp: ProductPoset, w, tol: float = DEFAULT_TOL
) -> BellSection:
    """Tables tr(W (p x q)) over every product context.

    W must be self-adjoint with trace 1 on the tensor space; positivity is
    deliberately not required, so non-quantum and time-reversed sections
    can be generated. Negative entries are reported by the section.
    """
    w = np.asarray(w, dtype=complex)
    d = pp.dims[0] * pp.dims[1]
    if w.shape != (d, d):
        raise ValueError(f"state must act on the tensor space, expected {(d, d)}")
    if max_norm(w - w.conj().T) > tol:
        raise ValueError("state must be self-adjoint")
    if abs(complex(np.trace(w)) - 1.0) > max(tol * d, tol):
        raise ValueError("state must have trace 1")
    tables = {
        node: CorrelationTable(node, pp.born_probabilities(node, w)) for node in pp.nodes
    }
    return BellSection(pp, tables, frozenset(pp.nodes))


def restrict_table(
    pp: ProductPoset, table: CorrelationTable, target: ProductNode
) -> CorrelationTable:
    """Presheaf restriction: coarsen both margins onto the smaller contexts."""
    source = table.context
    if not pp.leq(target, source):
        raise ValueError("target is not below the table's context")
    shape = pp.table_shape(target)
    out = np.zeros(shape)
    left_map = [
        dominator_index(pp.left, target.left, source.left, a)
        if target.left != source.left
        else a
        for a in range(table.probs.shape[0])
    ]
    right_map = [
        dominator_index(pp.right, target.right, source.right, b)
        if target.right != source.right
        else b
        for b in range(table.probs.shape[1])
    ]
    for (a, b), v in np.ndenumerate(table.probs):
        out[left_map[a], right_map[b]] += v
    return CorrelationTable(target, out)


def verify_bell_section(s: BellSection, tol: float = 1e-7) -> bool:
    """Marginalisation along the product order plus shared-pair consistency."""
    pp = s.poset
    for node in s.domain:
        t = s.tables.get(node)
        if t is None or t.context != node:
            return False
        if t.probs.shape != pp.table_shape(node):
            return False
        if abs(float(t.probs.sum()) - 1.0) > tol:
            return False
    for small in s.domain:
        for large in s.domain:
            if small == large or not pp.leq(small, large):
                continue
            got = restrict_table(pp, s.tables[large], small).probs
            if max_norm(got - s.tables[small].probs) > tol:
                return False
    seen: dict[tuple[str, str], float] = {}
    for node in s.domain:
        lk = pp.left.atom_keys(node.left)
        rk = pp.right.atom_keys(node.right)
        for (a, b), v in np.ndenumerate(s.tables[node].probs):
            key = (lk[a], rk[b])
            if key in seen and abs(seen[key] - v) > tol:
                return False
            seen.setdefault(key, float(v))
    return True


def check_no_signalling(s: BellSection, tol: float = 1e-9) -> bool:
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
        assignment[local] = context_measure(poset, local, w, tol=1e-7)
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
                [int(i), float(w)]
                for i, w in enumerate(self.weights)
                if w > 1e-9
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


def deterministic_strategies(
    pp: ProductPoset, cap: int = 10**6
) -> list[tuple[dict[int, int], dict[int, int]]]:
    """All pairs of local non-contextual value assignments.

    Local strategies are exactly the global sections of the factor posets,
    so shared projections take one value per side by construction.
    """
    left = enumerate_global_sections(pp.left, cap=cap)
    right = enumerate_global_sections(pp.right, cap=cap)
    if left.truncated or right.truncated or len(left) * len(right) > cap:
        raise ValueError("instance too large")
    out = []
    for sl in left.sections:
        cl = {i: ch.chosen_atom for i, ch in sl.assignment.items()}
        for sr in right.sections:
            cr = {i: ch.chosen_atom for i, ch in sr.assignment.items()}
            out.append((cl, cr))
    return out


def _strategy_matrix(
    pp: ProductPoset, contexts: Sequence[ProductNode], strategies: Sequence[tuple[dict, dict]]
) -> sparse.csc_array:
    """Column s holds strategy s's tables over `contexts`, flattened and stacked."""
    shapes = np.array([pp.table_shape(n) for n in contexts])
    sizes = shapes.prod(axis=1)
    offsets = np.cumsum(sizes) - sizes
    chosen = np.array(
        [[cl[n.left] for n in contexts] + [cr[n.right] for n in contexts] for cl, cr in strategies],
        dtype=np.int64,
    ).reshape(len(strategies), 2, len(contexts))
    rows = offsets + shapes[:, 1] * chosen[:, 0] + chosen[:, 1]
    return sparse.csc_array(
        (np.ones(rows.size), rows.reshape(-1), np.arange(0, rows.size + 1, len(contexts))),
        shape=(int(sizes.sum()), len(strategies)),
    )


def factorisability_lp(
    s: BellSection,
    contexts: Sequence[ProductNode] | None = None,
    tol: float = 1e-7,
    cap: int = 10**6,
) -> LPResult:
    """Decide membership in the convex hull of deterministic local strategies.

    One LP over the strategy matrix A and the stacked tables b:
    min t  s.t.  -t <= A w - b <= t,  sum w = 1,  w >= 0.
    t* <= tol is factorisable, with hull weights w. Otherwise the duals
    y+, y- of the two inequality blocks give the separating functional
    c = y+ - y-, l1-normalised (sum |c| <= 1) by dual feasibility, and by
    strong duality c.b - max_s c.A_s = t*, the reconstruction error.
    """
    pp = s.poset
    if contexts is None:
        contexts = [n for n in pp.maximal_nodes() if n in s.domain]
    contexts = list(contexts)
    for node in contexts:
        if node not in s.domain:
            raise KeyError(f"context {node} not in section domain")
    if not contexts:
        raise ValueError("no analysis context has a table in the section")
    strategies = deterministic_strategies(pp, cap=cap)
    b = np.concatenate([s.tables[n].probs.reshape(-1) for n in contexts])
    a = _strategy_matrix(pp, contexts, strategies)
    n_rows, n_strat = a.shape

    c = np.zeros(n_strat + 1)
    c[-1] = 1.0
    t_col = sparse.csc_array(-np.ones((n_rows, 1)))
    a_ub = sparse.bmat([[a, t_col], [-a, t_col]], format="csc")
    b_ub = np.concatenate([b, -b])
    a_eq = np.zeros((1, n_strat + 1))
    a_eq[0, :n_strat] = 1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=(0, None), method="highs"
    )
    if not res.success:
        raise RuntimeError(f"feasibility LP failed: {res.message}")
    if res.fun <= tol:
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


def classify_section(s: BellSection, tol: float = DEFAULT_TOL) -> SectionClassification:
    """Reconstruct the tensor-space operator behind a section and classify it.

    The linear system tr(W (p x q)) = probs over self-adjoint trace-1 W is
    solved in a Hermitian basis. A unique W is quantum if PSD, quantum up
    to time reversal if its second-factor partial transpose is PSD, and
    non-quantum otherwise. A family that does not span the tensor
    Hermitians leaves the section underdetermined.
    """
    pp = s.poset
    d1, d2 = pp.dims
    d = d1 * d2
    warnings = []
    if min(d1, d2) < 3:
        warnings.append("Gleason uniqueness precondition violated: local dim < 3")
    domain = sorted(s.domain, key=lambda n: (n.left, n.right))
    row_ids = pp.rows_for(domain)
    a_full = pp.constraint_matrix()[row_ids]
    basis = hermitian_basis(d)
    trace_row = np.real(np.einsum("kii->k", basis))
    a = np.vstack([a_full, trace_row])
    b = np.concatenate([s.tables[n].probs.reshape(-1) for n in domain] + [np.ones(1)])
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=RANK_TOL)
    residual = max_norm(a @ x - b)
    if residual > RESIDUAL_TOL:
        return SectionClassification(
            "non_quantum", residual=float(residual), warnings=tuple(warnings)
        )
    if rank < d * d:
        return SectionClassification(
            "underdetermined",
            residual=float(residual),
            solution_space_dim=d * d - int(rank),
            warnings=tuple(warnings),
        )
    w = np.einsum("k,kij->ij", x, basis)
    w = 0.5 * (w + w.conj().T)
    floor = float(np.linalg.eigvalsh(w).min())
    pt_floor = float(np.linalg.eigvalsh(partial_transpose(w, (d1, d2))).min())
    if floor >= -PSD_TOL:
        verdict = "quantum"
    elif pt_floor >= -PSD_TOL:
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
