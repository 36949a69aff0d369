"""Probabilistic presheaf: per-context measures and state reconstruction.

Each context carries a finitely additive probability measure given by one
weight per atom; restriction is marginalisation. A section over the whole
poset determines a state by linear reconstruction exactly when the
poset's atoms span the self-adjoint operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import KeysView, Mapping

import numpy as np

from .contexts import ContextPoset
from .opalg import (
    TOL,
    DensityMatrix,
    density_matrix,
    max_norm,
)


def context_measure(
    poset: ContextPoset, node: int, weights, tol: float = TOL.exact
) -> np.ndarray:
    """Validate and clamp a weight vector into a measure on one node's atoms.

    Weights in [-tol, 0) are clamped to 0; anything more negative is
    rejected, as is a total differing from 1 beyond tol. The result is
    read-only.
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
    return w


@dataclass(frozen=True)
class ProbSection:
    """One measure per node: its weight vector, in the node's atom order."""

    assignment: Mapping[int, np.ndarray]

    @property
    def domain(self) -> KeysView[int]:
        return self.assignment.keys()


def marginalise(poset: ContextPoset, weights: np.ndarray, source: int, target: int) -> np.ndarray:
    """Restriction map of the probabilistic presheaf: sum node ``source``'s weights onto
    the atoms of ``target``, below it."""
    if target == source:
        return weights
    if not poset.order[target, source]:
        raise ValueError(f"target {target} is not below context {source}")
    out = np.bincount(
        poset.dominator_map(target, source),
        weights=weights,
        minlength=len(poset.nodes[target].atoms),
    )
    out.flags.writeable = False
    return out


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
    return ProbSection({
        i: context_measure(poset, i, born_weights(poset, i, rho.matrix), tol=TOL.probability)
        for i in range(len(poset))
    })


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) real basis of d x d Hermitian matrices.

    The identity, then for each pair j < k (by k, then j) the symmetric and
    the antisymmetric off-diagonal element, then the traceless diagonals.
    """
    out = np.zeros((d * d, d, d), dtype=complex)
    diag = np.arange(d)
    out[0, diag, diag] = (1 + 0j) / np.sqrt(d)
    k, j = np.nonzero(diag[:, None] > diag)
    sym = 1 + 2 * np.arange(len(k))
    out[sym, j, k] = out[sym, k, j] = 1 / np.sqrt(2)
    out[sym + 1, j, k] = -1j / np.sqrt(2)
    out[sym + 1, k, j] = 1j / np.sqrt(2)
    ell = diag[1:, None]
    entries = (diag < ell) - ell * (diag == ell)  # ell ones, then -ell
    out[1 + 2 * len(k) :, diag, diag] = entries.astype(complex) / np.sqrt(ell * (ell + 1))
    return out


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
    status, mat, residual, free = reconstruct_operator(poset, s.assignment)
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
    """Do the poset's atoms (plus identity) span all Hermitians?"""
    d = poset.dim
    mats = np.concatenate([poset.stack, np.eye(d, dtype=complex)[None]])
    a = _constraint_rows(hermitian_basis(d), mats)
    return int(np.linalg.matrix_rank(a, tol=TOL.rank)) == d * d
