"""Probabilistic presheaf: per-context measures and state reconstruction.

Each context carries a finitely additive probability measure given by one
weight per atom; restriction is marginalisation. A section over the whole
poset determines a state by linear reconstruction exactly when the
registered projections span the self-adjoint operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .contexts import ContextPoset, is_section
from .opalg import (
    TOL,
    DensityMatrix,
    atom_coefficients,
    density_matrix,
    max_norm,
)


@dataclass(frozen=True)
class ContextMeasure:
    """Finitely additive probability measure on one context's atoms."""

    context: int
    weights: np.ndarray


def context_measure(
    poset: ContextPoset, node: int, weights, tol: float = TOL.exact
) -> ContextMeasure:
    """Validate and clamp a weight vector into a measure.

    Weights in [-tol, 0) are clamped to 0; anything more negative is
    rejected, as is a total differing from 1 beyond tol.
    """
    w = np.array(weights, dtype=float).reshape(-1)
    if len(w) != len(poset.nodes[node].atoms):
        raise ValueError("one weight per atom required")
    if np.any(w < -tol):
        raise ValueError(f"negative weight beyond tolerance: {w.min()}")
    w = np.clip(w, 0.0, None)
    if abs(float(w.sum()) - 1.0) > max(tol * len(w), tol):
        raise ValueError(f"weights must sum to 1, got {w.sum()}")
    w.flags.writeable = False
    return ContextMeasure(node, w)


@dataclass(frozen=True)
class ProbSection:
    """One measure per node over a down-closed domain."""

    assignment: Mapping[int, ContextMeasure]
    domain: frozenset[int]


def marginalise(
    poset: ContextPoset, m: ContextMeasure, target: int
) -> ContextMeasure:
    """Restriction map of the probabilistic presheaf: sum weights downward."""
    if target == m.context:
        return m
    if not poset.order[target, m.context]:
        raise ValueError(f"target {target} is not below context {m.context}")
    out = np.bincount(
        poset.dominator_map(target, m.context),
        weights=m.weights,
        minlength=len(poset.nodes[target].atoms),
    )
    out.flags.writeable = False
    return ContextMeasure(target, out)


def verify_prob_section(poset: ContextPoset, s: ProbSection) -> bool:
    """Marginalisation compatibility plus equal weights on shared projections."""
    values = {}
    for node in s.domain:
        m = s.assignment.get(node)
        if m is None or m.context != node:
            return False
        values[node] = np.asarray(m.weights)
    return is_section(poset, values, TOL.probability)


def born_weights(poset, node: int, w: np.ndarray) -> np.ndarray:
    """Born weights Re tr(W P) of the atoms P of one node, in ``atom_matrices`` order.

    ``poset`` is a :class:`ContextPoset` or a product poset: anything with
    ``atom_matrices``; ``w`` is an operator on its ``dim``-dimensional space.
    """
    atoms = poset.atom_matrices(node)
    # tr(W P) = sum_ij P[i, j] W[j, i]: each flattened atom against the flattened transpose
    return np.real(atoms.reshape(len(atoms), -1) @ np.asarray(w).T.reshape(-1))


def section_from_state(poset: ContextPoset, rho: DensityMatrix) -> ProbSection:
    """Born weights tr(rho p) per atom, in every context of the poset."""
    if rho.dim != poset.dim:
        raise ValueError(f"state dim {rho.dim} does not match poset dim {poset.dim}")
    assignment = {
        i: context_measure(poset, i, born_weights(poset, i, rho.matrix), tol=TOL.probability)
        for i in range(len(poset))
    }
    return ProbSection(assignment, frozenset(range(len(poset))))


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) real basis of d x d Hermitian matrices."""
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / np.sqrt(2)
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            mats.append(m)
    for ell in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(ell), np.arange(ell)] = 1.0
        m[ell, ell] = -float(ell)
        mats.append(m / np.sqrt(ell * (ell + 1)))
    return np.stack(mats)


def _constraint_rows(basis: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Real rows tr(p G_k) for a ``(r, d, d)`` stack of Hermitian p against a Hermitian basis."""
    transposed = basis.transpose(0, 2, 1).reshape(len(basis), -1)
    return np.real(mats.reshape(len(mats), -1) @ transposed.T)


@dataclass
class ReconstructionResult:
    status: str  # "unique" | "underdetermined" | "infeasible"
    state: DensityMatrix | None = None
    residual: float = 0.0
    eigenvalues: np.ndarray | None = None
    solution_space_dim: int | None = None
    reason: str = ""

    def to_report(self) -> dict:
        out = {"status": self.status, "residual": self.residual, "reason": self.reason}
        if self.eigenvalues is not None:
            out["eigenvalues"] = [float(x) for x in self.eigenvalues]
        if self.solution_space_dim is not None:
            out["solution_space_dim"] = self.solution_space_dim
        return out


def reconstruct_operator(poset, values: Mapping[int, np.ndarray]):
    """Least-squares Hermitian X with tr X = 1 and tr(X P) = weight for every atom P.

    ``values[i]`` holds the flat weights of node i's atoms in ``atom_matrices``
    order, as for :func:`contexts.is_section`; ``poset`` is anything with
    ``dim`` and ``atom_matrices``. Each atom P of the nodes, in ascending node
    order, and then the identity give one row tr(P G_k) over the Hermitian
    basis G, solved by least squares. Returns (status, X, residual, free):
    status is "inconsistent" when the residual exceeds ``TOL.residual``,
    "underdetermined" when ``free`` > 0 directions are left at rank cut-off
    ``TOL.rank``, else "unique" with the Hermitian solution X.
    """
    basis = hermitian_basis(poset.dim)
    nodes = sorted(values)
    mats = np.concatenate(
        [poset.atom_matrices(i) for i in nodes] + [np.eye(poset.dim, dtype=complex)[None]]
    )
    a = _constraint_rows(basis, mats)
    b = np.concatenate([np.ravel(values[i]) for i in nodes] + [[1.0]])
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=TOL.rank)
    residual = max_norm(a @ x - b)
    free = len(basis) - int(rank)
    if residual > TOL.residual:
        return "inconsistent", None, residual, free
    if free > 0:
        return "underdetermined", None, residual, free
    mat = np.einsum("k,kij->ij", x, basis)
    return "unique", 0.5 * (mat + mat.conj().T), residual, 0


def state_from_section(poset: ContextPoset, s: ProbSection) -> ReconstructionResult:
    """Solve tr(X p) = mu(p) over self-adjoint X with tr X = 1.

    The solve is least squares in a Hermitian basis (n^2 real unknowns).
    An inconsistent system is infeasible; a rank-deficient consistent one
    is underdetermined; a unique solution is a density matrix iff its
    spectrum clears -TOL.psd.
    """
    values = {i: s.assignment[i].weights for i in s.domain}
    status, mat, residual, free = reconstruct_operator(poset, values)
    if status == "inconsistent":
        return ReconstructionResult(
            "infeasible", residual=residual, reason="inconsistent linear system"
        )
    if status == "underdetermined":
        return ReconstructionResult(
            "underdetermined",
            residual=residual,
            solution_space_dim=free,
            reason="projection family does not span the self-adjoint operators",
        )
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() < -TOL.psd:
        return ReconstructionResult(
            "infeasible",
            residual=residual,
            eigenvalues=eigs,
            reason="unique solution has a negative eigenvalue",
        )
    return ReconstructionResult(
        "unique",
        state=density_matrix(mat, tol=TOL.probability),
        residual=residual,
        eigenvalues=eigs,
    )


def is_informationally_complete(poset: ContextPoset) -> bool:
    """Do the registered projections (plus identity) span all Hermitians?"""
    d = poset.dim
    basis = hermitian_basis(d)
    mats = [p.matrix for _, p in poset.registry.items()]
    mats.append(np.eye(d, dtype=complex))
    a = _constraint_rows(basis, np.stack(mats))
    return int(np.linalg.matrix_rank(a, tol=TOL.rank)) == d * d


@dataclass
class QuasilinearityReport:
    status: str  # "linear" | "nonlinear"
    within_context_residual: float

    def to_report(self) -> dict:
        return {"status": self.status, "within_context_residual": self.within_context_residual}


def measure_value(poset: ContextPoset, m: ContextMeasure, a) -> float:
    """Linear extension of a measure to operators of its context.

    For a = sum A_i p_i over the context's atoms, returns sum A_i w_i.
    """
    coeffs = atom_coefficients(poset.atoms_of(m.context), a)
    if coeffs is None:
        raise ValueError("operator does not belong to the measure's context")
    value = 0.0
    for coeff, w in zip(coeffs, m.weights):
        value += float(coeff) * float(w)
    return value


def quasilinearity_report(
    poset: ContextPoset, s: ProbSection, samples: int = 20, seed: int = 0
) -> QuasilinearityReport:
    """Check that each context's measure extends linearly to its operators.

    Sums of random real combinations of one context's atoms are compared;
    the residual reflects floating point noise only. Linearity across
    contexts is a property of a reconstructed state (``state_from_section``),
    not of the section, so it is not tested here.
    """
    rng = np.random.default_rng(seed)
    within = 0.0
    for node in sorted(s.domain):
        atoms = poset.atoms_of(node)
        m = s.assignment[node]
        for _ in range(max(1, samples // max(1, len(s.domain)))):
            ca = rng.normal(size=len(atoms))
            cb = rng.normal(size=len(atoms))
            a = sum(c * p.matrix for c, p in zip(ca, atoms))
            b = sum(c * p.matrix for c, p in zip(cb, atoms))
            lhs = measure_value(poset, m, a + b)
            rhs = measure_value(poset, m, a) + measure_value(poset, m, b)
            within = max(within, abs(lhs - rhs))
    return QuasilinearityReport("linear" if within <= TOL.roundtrip else "nonlinear", within)
