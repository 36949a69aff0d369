"""Symmetries acting on context posets.

Unitary and antiunitary conjugation sends contexts to contexts and induces
order automorphisms of generated posets; both kinds preserve the Jordan
product, and the sign picked up by commutators separates them. That sign
is the operational time orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .contexts import Context, ContextPoset, poset_from_nodes
from .opalg import (
    TOL,
    CanonicalizationError,
    Projection,
    ProjectionRegistry,
    as_operator,
    is_projection,
    jordan_product,
    max_norm,
    projection,
)


@dataclass(frozen=True)
class SymmetryOp:
    """A unitary u, or an antiunitary stored as (conjugation, then u)."""

    kind: Literal["unitary", "antiunitary"]
    matrix: np.ndarray


def symmetry(kind: str, u) -> SymmetryOp:
    if kind not in ("unitary", "antiunitary"):
        raise ValueError(f"kind must be unitary or antiunitary, got {kind!r}")
    arr = as_operator(u)
    if max_norm(arr.conj().T @ arr - np.eye(arr.shape[0])) > TOL.exact * arr.shape[0]:
        raise ValueError("matrix is not unitary within tolerance")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return SymmetryOp(kind, arr)


def apply_symmetry(s: SymmetryOp, x) -> np.ndarray:
    """Conjugation action on operators: u x u*, with conjugation first if antiunitary."""
    arr = np.asarray(x, dtype=complex)
    if s.kind == "antiunitary":
        arr = arr.conj()
    return s.matrix @ arr @ s.matrix.conj().T


def jordan_lift(s: SymmetryOp, x) -> np.ndarray:
    """Complex-linear extension of the symmetry action to all operators.

    On self-adjoint operators this agrees with :func:`apply_symmetry`; on a
    general x = a + ib it acts linearly through the self-adjoint parts. For
    antiunitaries the two differ (conjugation alone is antilinear), and it
    is the linear extension that is the Jordan automorphism.
    """
    arr = np.asarray(x, dtype=complex)
    a = 0.5 * (arr + arr.conj().T)
    b = (arr - arr.conj().T) / 2j
    return apply_symmetry(s, a) + 1j * apply_symmetry(s, b)


def compose(s2: SymmetryOp, s1: SymmetryOp) -> SymmetryOp:
    """The symmetry acting as s1 first, then s2."""
    u1, u2 = s1.matrix, s2.matrix
    if s2.kind == "antiunitary":
        u = u2 @ u1.conj()
    else:
        u = u2 @ u1
    kind = "unitary" if s1.kind == s2.kind else "antiunitary"
    return symmetry(kind, u)


@dataclass(frozen=True)
class PosetMap:
    """Bijection between node ids of two (possibly equal) posets."""

    node_map: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.node_map[i]


def conjugate_poset(poset: ContextPoset, s: SymmetryOp) -> tuple[ContextPoset, PosetMap]:
    """Image of a poset under a symmetry, with the induced node bijection.

    When the poset's registry identifies every image atom and every image
    context is a node, the map lands there (a genuine automorphism, possibly
    a nontrivial permutation); otherwise a fresh image poset is built with
    nodes in matching order.
    """
    image_atoms: list[list[Projection]] = []
    for i in range(len(poset)):
        mapped = []
        for p in poset.atoms_of(i):
            m = apply_symmetry(s, p.matrix)
            try:
                mapped.append(projection(m, TOL.conjugation))
            except ValueError:
                if is_projection(m, TOL.conjugation):
                    raise  # projection's own trace error
                raise ValueError("conjugated atom fails the projection check") from None
        image_atoms.append(mapped)

    try:  # stops at the first image atom or context that is not in the poset
        node_map = tuple(
            poset.node_id(Context(poset.dim, tuple(_key_in(poset.registry, p) for p in mapped)))
            for mapped in image_atoms
        )
    except (KeyError, CanonicalizationError):
        pass
    else:
        return poset, PosetMap(node_map)

    registry = ProjectionRegistry(poset.dim, poset.registry.tol)
    nodes = []
    for mapped in image_atoms:
        keys = tuple(registry.register(p) for p in mapped)
        nodes.append(Context(poset.dim, keys))
    image = poset_from_nodes(registry, nodes, [f"conjugate({g})" for g in poset.generators])
    return image, PosetMap(tuple(range(len(nodes))))


def _key_in(registry: ProjectionRegistry, p: Projection) -> str:
    key = registry.find(p)
    if key is None:
        raise KeyError("image atom is not a registered projection")
    return key


def trivial_presheaf_automorphism(
    poset: ContextPoset, m: PosetMap, image: ContextPoset | None = None
) -> bool:
    """Whether a node map is an automorphism of the trivial presheaf.

    The one-point components force every component map to be the identity,
    so the check reduces to: the node map is a bijection that preserves and
    reflects the order.
    """
    target = poset if image is None else image
    n = len(poset)
    if len(target) != n or len(m.node_map) != n:
        return False
    perm = list(m.node_map)
    if sorted(perm) != list(range(n)):
        return False
    return bool(np.array_equal(poset.order, target.order[np.ix_(perm, perm)]))


@dataclass
class JordanReport:
    max_jordan_residual: float
    signs: list[int | None]
    sign: int | None
    n_commuting_skipped: int

    def to_report(self) -> dict:
        return {
            "max_jordan_residual": self.max_jordan_residual,
            "commutator_sign": self.sign,
            "n_commuting_skipped": self.n_commuting_skipped,
        }


def jordan_check(s: SymmetryOp, samples: Sequence[tuple]) -> JordanReport:
    """Verify Jordan-product preservation and read off the commutator sign.

    For each self-adjoint pair (a, b): the action must satisfy
    phi(a.b) = phi(a).phi(b); the linear lift satisfies
    phi([a,b]) = sign * [phi(a), phi(b)] with sign +1 for unitaries and -1
    for antiunitaries. Pairs with [a, b] = 0 carry no sign information.
    """
    max_res = 0.0
    signs: list[int | None] = []
    skipped = 0
    for a, b in samples:
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if max_norm(a - a.conj().T) > TOL.exact or max_norm(b - b.conj().T) > TOL.exact:
            raise ValueError("jordan_check requires self-adjoint samples")
        fa = apply_symmetry(s, a)
        fb = apply_symmetry(s, b)
        res = max_norm(apply_symmetry(s, jordan_product(a, b)) - jordan_product(fa, fb))
        max_res = max(max_res, res)
        comm = a @ b - b @ a
        scale = max_norm(comm)
        if scale <= TOL.exact:
            signs.append(None)
            skipped += 1
            continue
        lifted = jordan_lift(s, comm)
        image_comm = fa @ fb - fb @ fa
        bound = TOL.conjugation * max(1.0, scale)
        if max_norm(lifted - image_comm) <= bound:
            signs.append(1)
        elif max_norm(lifted + image_comm) <= bound:
            signs.append(-1)
        else:
            signs.append(0)
    determined = {x for x in signs if x is not None}
    overall = determined.pop() if len(determined) == 1 else None
    return JordanReport(max_res, signs, overall, skipped)


def transition_probability_deviation(s: SymmetryOp, rays: Sequence) -> float:
    """Largest |tr(phi(p)phi(q)) - tr(pq)| over the given rank-1 pairs."""
    worst = 0.0
    mats = [np.asarray(p.matrix if hasattr(p, "matrix") else p, dtype=complex) for p in rays]
    images = [apply_symmetry(s, m) for m in mats]
    for i, p in enumerate(mats):
        for j, q in enumerate(mats):
            before = float(np.real(np.trace(p @ q)))
            after = float(np.real(np.trace(images[i] @ images[j])))
            worst = max(worst, abs(after - before))
    return worst
