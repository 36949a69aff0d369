"""Bipartite composition via product context posets.

Correlation tables over product contexts, no-signalling checks, the local
deterministic-strategy LP for factorisability, and classification of
sections by linear reconstruction of a tensor-space operator.

Factorisability is one LP: min t over -t <= A w - b <= t, sum w = 1,
w >= 0, with one 0/1 column of A per deterministic strategy, a pair of
global sections of the two factors. Its dual on the two inequality blocks
is an l1-normalised Bell functional whose gap, value on b minus its
maximum over strategies, equals t*, the reported reconstruction error.

The right factor's global sections are a free product over its
components, whose section lists
:func:`~contextua.spectral.enumerate_global_sections` keeps. A table's
cells read one component each, so only each component's marginal of w
enters A w (Vorob'ev's extension over disjoint covers), and the LP is
solved over groups of components: a variable m[l, g, s] per left section l,
group g and section s of the group, with one mass per l in every group.
Components merge into a group while that adds no column (a * b <= a + b),
so a right factor of one group gives the strategy LP column for column.
t* and the cell-row duals are those of the strategy LP; positive weights
are mapped back to strategies by a north-west-corner coupling of each
l's group distributions. Reconstructed operators are classified: positive
semidefinite means quantum, positive after partial transposition of the
second factor means quantum up to time reversal, neither means non-quantum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import KeysView, Mapping, Sequence

import numpy as np

from .contexts import ContextPoset
from .gleason import born_weights, reconstruct_operator
from .opalg import TOL, max_norm
from .spectral import EnumerationResult, enumerate_global_sections


class ProductPoset:
    """Cartesian product of two context posets with componentwise order. Its nodes, the
    product contexts, are the pairs (left node id, right node id), left major."""

    def __init__(self, left: ContextPoset, right: ContextPoset):
        self.left = left
        self.right = right
        self.nodes = tuple(itertools.product(range(len(left)), range(len(right))))
        self._index = {node: k for k, node in enumerate(self.nodes)}
        self.order = np.kron(left.order, right.order).astype(bool)
        self.dims = (left.dim, right.dim)
        self.dim = left.dim * right.dim

    def __len__(self) -> int:
        return len(self.nodes)

    def index(self, node: tuple[int, int]) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise KeyError(f"unknown product node {node}") from None

    def table_shape(self, node: tuple[int, int]) -> tuple[int, int]:
        return len(self.left.nodes[node[0]].atoms), len(self.right.nodes[node[1]].atoms)

    def atom_keys(self, i: int) -> list[tuple[str, str]]:
        """Key pairs of node i's atom pairs, in table row-major order."""
        ln, rn = self.nodes[i]
        return list(itertools.product(self.left.atom_keys(ln), self.right.atom_keys(rn)))

    def atom_matrices(self, i: int) -> np.ndarray:
        """``kron(p, q)`` for each atom pair of node i, in table row-major order."""
        ln, rn = self.nodes[i]
        pl, pr = self.left.atom_matrices(ln), self.right.atom_matrices(rn)
        # [a, b, i, k, j, l] = pl[a, i, j] * pr[b, k, l], the entries of kron(p_a, q_b)
        prod = pl[:, None, :, None, :, None] * pr[None, :, None, :, None, :]
        return prod.reshape(len(pl) * len(pr), self.dim, self.dim)

    def dominator_map(self, small: int, large: int) -> np.ndarray:
        """Per-cell lookup: flat cell c of ``large``'s table lies under flat cell [c] of ``small``'s."""
        below, above = self.nodes[small], self.nodes[large]
        left = self.left.dominator_map(below[0], above[0])
        right = self.right.dominator_map(below[1], above[1])
        return (left[:, None] * self.table_shape(below)[1] + right[None, :]).reshape(-1)

    def maximal_nodes(self) -> list[tuple[int, int]]:
        return list(itertools.product(self.left.maximal_nodes(), self.right.maximal_nodes()))


def product_poset(p1: ContextPoset, p2: ContextPoset) -> ProductPoset:
    """Product order: (i1, i2) <= (j1, j2) iff i1 <= j1 and i2 <= j2."""
    return ProductPoset(p1, p2)


@dataclass(frozen=True)
class CorrelationTable:
    """Joint outcome probabilities for one product context."""

    probs: np.ndarray


@dataclass(frozen=True)
class BellSection:
    """Tables over a down-closed set of product contexts."""

    poset: ProductPoset
    tables: Mapping[tuple[int, int], CorrelationTable]

    @property
    def domain(self) -> KeysView[tuple[int, int]]:
        return self.tables.keys()

    def min_probability(self) -> float:
        return min(float(t.probs.min()) for t in self.tables.values())


def section_from_bipartite_state(
    pp: ProductPoset, w, tol: float = TOL.exact
) -> BellSection:
    """Tables tr(W (p x q)) over every product context.

    W must be self-adjoint with trace 1 on the tensor space; positivity is
    deliberately not required, so non-quantum and time-reversed sections
    can be generated; ``min_probability`` shows a negative entry.
    """
    w = np.asarray(w, dtype=complex)
    d = pp.dim
    if w.shape != (d, d):
        raise ValueError(f"state must act on the tensor space, expected {(d, d)}")
    if max_norm(w - w.conj().T) > tol:
        raise ValueError("state must be self-adjoint")
    if abs(complex(np.trace(w)) - 1.0) > tol * d:
        raise ValueError("state must have trace 1")
    return BellSection(pp, {
        node: CorrelationTable(born_weights(pp, k, w).reshape(pp.table_shape(node)))
        for k, node in enumerate(pp.nodes)
    })


def check_no_signalling(s: BellSection, tol: float = TOL.exact) -> bool:
    """Marginals of one side must not depend on the other side's context."""
    for side in (0, 1):
        first: dict[int, np.ndarray] = {}
        for node, t in s.tables.items():
            marginal = t.probs.sum(axis=1 - side)
            ref = first.setdefault(node[side], marginal)
            if max_norm(marginal - ref) > tol:
                return False
    return True


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
                [list(node), a, b, c] for (node, a, b), c in sorted(self.witness.items())
            ]
            out["witness_value"] = self.witness_value
            out["deterministic_max"] = self.deterministic_max
        return out


def _local_strategies(pp: ProductPoset, cap: int) -> tuple[EnumerationResult, EnumerationResult]:
    """Each factor's global sections.

    Local strategies are exactly the global sections of the factor posets,
    so shared projections take one value per side by construction. Either
    side having more than ``cap`` sections is too large.
    """
    left = enumerate_global_sections(pp.left, cap=cap)
    right = enumerate_global_sections(pp.right, cap=cap)
    if left.truncated or right.truncated:
        raise ValueError("instance too large")
    return left, right


def deterministic_strategies(
    pp: ProductPoset, cap: int = 10**6
) -> list[tuple[dict[int, int], dict[int, int]]]:
    """All pairs of local non-contextual value assignments, left section major.

    More than ``cap`` pairs is too large.
    """
    left, right = _local_strategies(pp, cap)
    if len(left) * len(right) > cap:
        raise ValueError("instance too large")
    right_maps = [dict(enumerate(row)) for row in right.chosen.tolist()]
    return [(dict(enumerate(row)), cr) for row in left.chosen.tolist() for cr in right_maps]


@dataclass(frozen=True)
class _Cells:
    """Where each context's table sits in the stacked cell rows of the LP."""

    offset: np.ndarray  # first row of each context's table
    stride: np.ndarray  # right atom count of each context
    left: list[int]  # left node of each context
    right: list[int]  # right node of each context
    n_rows: int

    @classmethod
    def of(cls, pp: ProductPoset, contexts: Sequence[tuple[int, int]]) -> "_Cells":
        shapes = np.array([pp.table_shape(n) for n in contexts])
        sizes = shapes.prod(axis=1)
        return cls(
            np.cumsum(sizes) - sizes,
            shapes[:, 1],
            [n[0] for n in contexts],
            [n[1] for n in contexts],
            int(sizes.sum()),
        )

    def rows(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The cell each context reads in chosen-atom rows ``left`` and ``right``.

        The two broadcast against each other; contexts run along the last axis.
        """
        return self.offset + self.stride * left[..., self.left] + right[..., self.right]


def _columns(blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every 1 in 0/1 columns given as blocks of row lists.

    Each leading index of a block is one column, with a 1 at each row it lists.
    """
    counts = [np.full(int(np.prod(b.shape[:-1])), b.shape[-1]) for b in blocks]
    rows = np.concatenate([b.reshape(-1) for b in blocks])
    return rows, np.repeat(np.arange(sum(map(len, counts))), np.concatenate(counts))


@dataclass(frozen=True)
class _Groups:
    """The right sections as a product of groups of independent components.

    ``reps[g][s]`` is a right section whose restriction to group g is group
    section s; ``index`` holds the right section of each tuple of group
    sections, in mixed radix with group 0 most significant; ``owner[i]`` is
    the group that fixes the chosen atom of right node i.
    """

    reps: list[np.ndarray]
    index: np.ndarray
    owner: np.ndarray

    @property
    def sizes(self) -> list[int]:
        return [len(rep) for rep in self.reps]

    def full_index(self, sections: np.ndarray) -> np.ndarray:
        """The right section of each row of per-group section indices."""
        return self.index[np.ravel_multi_index(sections.T, self.sizes)]


def _right_groups(right: EnumerationResult) -> _Groups:
    """Group the right factor's components, merging while a merge adds no columns.

    A group of a sections and one of b sections take a + b columns per left
    section apart and a * b merged; a * b <= a + b only when one of them is 1
    or both are 2. A group's sections are the tuples of its components'
    sections, the first most significant; one group keeps the strategy order.
    """
    counts = [len(rows) for rows in right.components]
    sizes: list[int] = []
    group_of: list[int] = []
    for k in counts:
        g = next((g for g, a in enumerate(sizes) if a * k <= a + k), len(sizes))
        if g == len(sizes):
            sizes.append(1)
        sizes[g] *= k
        group_of.append(g)
    index = right.index.reshape(counts).transpose(np.argsort(group_of, kind="stable"))
    index = index.reshape(sizes) if len(sizes) > 1 else np.arange(len(right))
    reps = [np.moveaxis(index, g, 0).reshape(k, -1)[:, 0] for g, k in enumerate(sizes)]
    # the first component that fixes a node owns it: the only one, unless the node has one atom
    fixes = np.array([rows[0] >= 0 for rows in right.components])
    return _Groups(reps, index.reshape(-1), np.array(group_of)[fixes.argmax(axis=0)])


def _couple(masses: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """North-west-corner coupling of each row's group distributions.

    ``masses[g]`` holds one row per left section, one column per section of
    group g. Each row's distributions are normalised, their cumulative sums
    merged, and every gap between consecutive breakpoints becomes one term:
    at most 1 + sum(k_g - 1) terms per row. The term weights carry the row's
    mean group mass, and each group's marginal reproduces its row.
    Returns the row, the per-group section indices and the weight of each term.
    """
    totals = np.stack([m.sum(axis=1) for m in masses])
    live = (totals > 0).all(axis=0)
    ends = []
    for m, total in zip(masses, totals):
        cum = np.minimum(np.cumsum(m[live], axis=1) / total[live, None], 1.0)
        cum[:, -1] = 1.0
        ends.append(cum)
    points = np.sort(np.concatenate([np.zeros((len(ends[0]), 1)), *ends], axis=1), axis=1)
    starts, widths = points[:, :-1], np.diff(points, axis=1)
    row, term = np.nonzero(widths > 0)
    lo = starts[row, term]
    # the section of group g that holds an interval: how many of its ends lie at or before it
    sections = np.stack([(cum[row] <= lo[:, None]).sum(axis=1) for cum in ends], axis=1)
    weights = widths[row, term] * totals[:, live].mean(axis=0)[row]
    return np.flatnonzero(live)[row], sections, weights


def factorisability_lp(
    s: BellSection,
    contexts: Sequence[tuple[int, int]] | None = None,
    cap: int = 10**6,
) -> LPResult:
    """Decide membership in the convex hull of deterministic local strategies.

    The LP is min t  s.t.  -t <= A w - b <= t,  sum w = 1,  w >= 0, over one
    weight per strategy, solved over the right factor's groups (module
    docstring): a variable m[l, g, s] per left section l, group g and group
    section s, each cell row summing the m of its own group, and every l
    carrying one mass in every group. t* <= TOL.probability is
    factorisable, with hull weights coupled back onto whole strategies.
    Otherwise the duals y+, y- of the two inequality blocks give the
    separating functional c = y+ - y-, l1-normalised (sum |c| <= 1) by dual
    feasibility, and by strong duality c.b - max_s c.A_s = t*, the
    reconstruction error. More than ``cap`` LP columns, or sections on
    either side, is too large.
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
    left, right = _local_strategies(pp, cap)
    for side, sections in (("left", left), ("right", right)):
        if not len(sections):
            raise ValueError(
                f"the {side} factor has no global sections, so no local strategy exists"
            )
    groups = _right_groups(right)
    n_left, sizes = len(left), groups.sizes
    starts = n_left * np.cumsum([0, *sizes])
    if starts[-1] > cap:
        raise ValueError("instance too large")
    from scipy import sparse
    from scipy.optimize import linprog

    b = np.concatenate([s.tables[n].probs.reshape(-1) for n in contexts])
    cells = _Cells.of(pp, contexts)
    in_group = groups.owner[cells.right]
    # columns group major, then left section, then group section: with one group,
    # column l * len(right) + r is strategy (left[l], right[r]), the order of
    # deterministic_strategies
    rows, cols = _columns(
        [
            cells.rows(left.chosen[:, None], right.chosen[rep][None, :])[..., in_group == g]
            for g, rep in enumerate(groups.reps)
        ]
    )
    n_rows, n_cols = cells.n_rows, starts[-1]

    c = np.zeros(n_cols + 1)
    c[-1] = 1.0
    # [[A, -1], [-A, -1]] (w, t) <= (b, -b), in the coordinate form linprog converts to
    a_ub = sparse.coo_array(
        (
            np.concatenate([np.ones(len(rows)), -np.ones(len(rows) + 2 * n_rows)]),
            (
                np.concatenate([rows, rows + n_rows, np.arange(2 * n_rows)]),
                np.concatenate([cols, cols, np.full(2 * n_rows, n_cols)]),
            ),
        ),
        shape=(2 * n_rows, n_cols + 1),
    )
    b_ub = np.concatenate([b, -b])
    # row 0: group 0 carries mass 1; row 1 + (g - 1) L + l: l's mass in group g
    # equals its mass in group 0
    eq_rows, eq_cols, eq_vals = [np.zeros(starts[1])], [np.arange(starts[1])], [np.ones(starts[1])]
    first = np.repeat(np.arange(n_left), sizes[0])
    for g in range(1, len(sizes)):
        row = 1 + (g - 1) * n_left
        eq_rows += [row + first, row + np.repeat(np.arange(n_left), sizes[g])]
        eq_cols += [np.arange(starts[1]), np.arange(starts[g], starts[g + 1])]
        eq_vals += [-np.ones(starts[1]), np.ones(starts[g + 1] - starts[g])]
    n_eq = 1 + (len(sizes) - 1) * n_left
    a_eq = sparse.coo_array(
        (np.concatenate(eq_vals), (np.concatenate(eq_rows), np.concatenate(eq_cols))),
        shape=(n_eq, n_cols + 1),
    )
    b_eq = np.zeros(n_eq)
    b_eq[0] = 1.0
    # presolve only removes rows that repeat across contexts sharing a ray; where
    # none repeat, as across mutually unbiased bases, it only adds time
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"presolve": False},
    )
    if not res.success:
        raise RuntimeError(f"feasibility LP failed: {res.message}")
    n_strat = n_left * len(right)
    if res.fun <= TOL.probability:
        masses = [
            np.clip(res.x[lo:hi], 0.0, None).reshape(n_left, k)
            for lo, hi, k in zip(starts[:-1], starts[1:], sizes)
        ]
        if len(masses) == 1:
            weights = masses[0].reshape(-1)
        else:
            owners, sections, mass = _couple(masses)
            weights = np.zeros(n_strat)
            weights[owners * len(right) + groups.full_index(sections)] = mass
        weights = weights / weights.sum()
        support = np.flatnonzero(weights)
        ls, rs = np.divmod(support, len(right))
        hit = cells.rows(left.chosen[ls], right.chosen[rs])
        fit = np.bincount(
            hit.reshape(-1), weights=np.repeat(weights[support], hit.shape[1]), minlength=n_rows
        )
        return LPResult(True, weights, float(max_norm(fit - b)), n_strat)

    dual = res.ineqlin.marginals
    coeffs = dual[:n_rows] - dual[n_rows:]
    values = np.bincount(cols, weights=coeffs[rows], minlength=n_cols)
    # strategies are free tuples of group sections, so the best one takes the best
    # section of every group
    best = sum(
        values[lo:hi].reshape(n_left, k).max(axis=1)
        for lo, hi, k in zip(starts[:-1], starts[1:], sizes)
    )
    entries = [(node, i, j) for node in contexts for i, j in np.ndindex(pp.table_shape(node))]
    return LPResult(
        False,
        None,
        float(res.fun),
        n_strat,
        witness={cell: float(x) for cell, x in zip(entries, coeffs)},
        witness_value=float(coeffs @ b),
        deterministic_max=float(best.max()),
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
    values = {pp.index(n): t.probs for n, t in s.tables.items()}
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
