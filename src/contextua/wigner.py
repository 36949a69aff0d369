"""Symmetries acting on context posets.

Unitary and antiunitary conjugation sends contexts to contexts and induces
order automorphisms of generated posets; both kinds preserve the Jordan
product, and the sign picked up by commutators separates them. That sign
is the operational time orientation.

Several symmetries act on a poset at once: its distinct atom keys are
conjugated under every op as one (ops, keys, d, d) stacked product, the
images are checked as projections in one pass, given their canonical keys
once and identified by the poset's registry in one batch, the rows of that
array; each image keeps its source atom's rank. An op whose
images leave the poset gets an image poset with no registry scan or
dominance-table build of its own: conjugation preserves Re tr(a* b), for
antiunitaries too, so the Gram screens of the source atoms, computed once,
are every image's screens. The entrywise tests still run on the images of
the pairs the screens keep: the registry's identity rule, which fills one
fresh registry per op, and ``|phi(q)phi(p) - phi(p)| <= TOL.dominance`` for
the image order, for all such ops in one product. The Jordan and transition
checks likewise run on all ops' samples in one stacked pass. Each single-op
function is the batch of one, and a batch raises what one call per op
would, in op order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .contexts import Context, ContextPoset, atom_lookups, dominance_tables
from .opalg import (
    TOL,
    CanonicalizationError,
    ProjectionRegistry,
    canonical_keys,
    check_projections,
)


@dataclass(frozen=True)
class SymmetryOp:
    """A unitary u, or an antiunitary stored as (conjugation, then u)."""

    kind: Literal["unitary", "antiunitary"]
    matrix: np.ndarray


def symmetry(kind: str, u) -> SymmetryOp:
    """:func:`symmetries` of the one op."""
    return symmetries([kind], [u])[0]


def symmetries(kinds: Sequence[str], unitaries) -> list[SymmetryOp]:
    """One :class:`SymmetryOp` per kind and matrix of ``unitaries``, checked as one
    ``(ops, d, d)`` stack: each kind is known, and each matrix square, finite and unitary
    within ``TOL.exact`` times d. The first op that fails raises its first failure."""
    arr = np.array(unitaries, dtype=complex)
    square = arr.ndim == 3 and arr.shape[1] == arr.shape[2]
    failed = np.ones(len(kinds), dtype=bool)
    if square:
        finite = np.isfinite(arr).all(axis=(1, 2))
        safe = np.where(finite[:, None, None], arr, 0)  # non-finite ops fail before the product
        drift = np.abs(_adjoint(safe) @ safe - np.eye(arr.shape[1])).max(axis=(1, 2), initial=0.0)
        failed = ~finite | (drift > TOL.exact * arr.shape[1])
    for k, kind in enumerate(kinds):
        if kind not in ("unitary", "antiunitary"):
            raise ValueError(f"kind must be unitary or antiunitary, got {kind!r}")
        if not failed[k]:
            continue
        if not square:
            raise ValueError(f"operator must be a square matrix, got shape {arr.shape[1:]}")
        if not finite[k]:
            raise ValueError("operator entries must be finite")
        raise ValueError("matrix is not unitary within tolerance")
    ops = []
    for kind, m in zip(kinds, arr):
        m = m.copy()
        m.flags.writeable = False
        ops.append(SymmetryOp(kind, m))
    return ops


def _adjoint(arr: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator or of each operator of a stack."""
    return arr.conj().swapaxes(-1, -2)


def _apply_each(ops: Sequence[SymmetryOp], x) -> np.ndarray:
    """The conjugation action of ``ops[k]`` on ``x[k]`` for every k, as one stacked product:
    u x u*, with complex conjugation first for an antiunitary.

    ``x`` has the op axis first, then any stack axes, then the operator
    axes; an op axis of length 1 is shared by every op.
    """
    arr = np.asarray(x, dtype=complex)
    anti = [s.kind == "antiunitary" for s in ops]
    if all(anti):
        arr = arr.conj()
    elif any(anti):
        arr = np.where(np.reshape(anti, (-1,) + (1,) * (arr.ndim - 1)), arr.conj(), arr)
    u = np.array([s.matrix for s in ops])
    u = u.reshape(len(ops), *(1,) * (arr.ndim - 3), *u.shape[1:])
    return u @ arr @ _adjoint(u)


@dataclass(frozen=True)
class PosetMap:
    """Bijection between node ids of two (possibly equal) posets."""

    node_map: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.node_map[i]


def conjugate_poset(poset: ContextPoset, s: SymmetryOp) -> tuple[ContextPoset, PosetMap]:
    """:func:`conjugate_posets` of ``s`` alone."""
    return conjugate_posets(poset, [s])[0]


def conjugate_posets(
    poset: ContextPoset, ops: Sequence[SymmetryOp]
) -> list[tuple[ContextPoset, PosetMap]]:
    """Image of a poset under each symmetry, with the induced node bijection.

    When the poset's registry identifies every image atom of an op and every
    image context is a node, the op's map lands there (a genuine
    automorphism, possibly a nontrivial permutation); otherwise the op gets
    an image poset with nodes in matching order, its order computed from the
    image atoms. Each distinct atom key is conjugated under every op in one
    stacked product, the images are checked in one pass, keyed once and
    identified in one registry batch.

    The image posets rest on trace invariance: ``Re tr(phi(a)* phi(b)) =
    Re tr(a* b)`` for a unitary or antiunitary phi, so the source atoms' Gram
    screens keep every image pair that the registry could identify and every
    pair that can dominate (:meth:`~contextua.opalg.ProjectionRegistry.of_conjugates`,
    :func:`~contextua.contexts.dominance_tables`). The entrywise tests run
    on the images of the kept pairs only, for all such ops at once: the
    registry rule, which registers each op's images in a fresh registry as
    ``register_many`` would, then the dominance test, whose tables give
    every image poset's atom lookup in one stacked product. Where the rule
    merges an image into an earlier one, the node atoms read the kept
    image's row of the dominance table; where it rejects one, that op
    raises. Errors are those of one call per op, in op order.
    """
    if not ops:
        return []
    dim, tol, m = poset.dim, poset.registry.tol, len(poset.keys)
    images = _apply_each(ops, poset.stack[None])
    flat = images.reshape(-1, dim, dim)
    try:
        check_projections(flat, TOL.conjugation)
    except ValueError:
        # the first failing op raises, after the ops before it, as one call per op would
        for k, block in enumerate(images):
            try:
                check_projections(block, TOL.conjugation)
            except ValueError:
                conjugate_posets(poset, ops[:k])
                raise
    flat.flags.writeable = False
    keys = canonical_keys(flat)
    atoms = [rows.tolist() for rows in poset.rows]

    def image_nodes(image_keys: Sequence[str]) -> tuple[Context, ...]:
        return tuple(Context(dim, tuple(image_keys[t] for t in a)) for a in atoms)

    resolved: dict[int, PosetMap] = {}
    for k, found in enumerate(_find_per_op(poset.registry, images, keys)):
        if found is not None and None not in found:
            try:  # an image context that is not a node means an image poset
                resolved[k] = PosetMap(tuple(poset.node_id(c) for c in image_nodes(found)))
            except KeyError:
                pass
    leaving = [k for k in range(len(ops)) if k not in resolved]
    per_op = [keys[k * m : (k + 1) * m] for k in leaving]
    conjugates = ProjectionRegistry.of_conjugates(dim, tol, poset.stack, images[leaving], per_op)
    held = dict(zip(leaving, conjugates))
    built = [k for k in leaving if not isinstance(held[k], CanonicalizationError)]
    if built:
        # a merged image reads the row of the image it was merged into, the first with its key
        kept = np.array([list(map({}.setdefault, held[k][1], range(m))) for k in built])
        under = dominance_tables(poset.stack, poset.ranks, images[built])
        under = under[np.arange(len(built))[:, None, None], kept[:, :, None], kept[:, None, :]]
        tables = dict(zip(built, zip(kept, *atom_lookups(poset.rows, under))))
    generators = tuple(f"conjugate({g})" for g in poset.generators)
    identity = PosetMap(tuple(range(len(poset))))
    out = []
    for k in range(len(ops)):
        if k in resolved:
            out.append((poset, resolved[k]))
            continue
        if isinstance(held[k], CanonicalizationError):
            raise held[k]
        (registry, found), (kept, over, order) = held[k], tables[k]
        # the image atom table holds the kept images, which come in the order of their sources
        lead = kept == np.arange(m)
        stack, ranks, rows = flat[k * m : (k + 1) * m], poset.ranks, poset.rows
        if not lead.all():  # drop the merged images; each node atom reads its kept row
            stack, ranks, over = stack[lead], ranks[lead], over[:, lead]
            renumber = (np.cumsum(lead) - 1)[kept]
            rows = tuple(renumber[r] for r in rows)
        keys = tuple(key for key, first in zip(found, lead) if first)
        table = keys, stack, ranks, rows, over
        image = ContextPoset(dim, registry, image_nodes(found), order, generators, *table)
        out.append((image, identity))
    return out


def _find_per_op(
    registry: ProjectionRegistry, images: np.ndarray, keys: list[str]
) -> list[list[str | None] | None]:
    """Registry keys of each op's images, one ``(ops, m, d, d)`` array, from one ``find_many``
    on their canonical ``keys``, ``m`` per op in op order.

    An op whose images raise a :class:`CanonicalizationError` gets None, and
    the batch is asked again without it, so only that op gets an image poset.
    """
    m = images.shape[1]
    live = list(range(len(images)))
    found: list[list[str | None] | None] = [None] * len(live)
    while live:
        batch = images if len(live) == len(images) else images[live]
        live_keys = [key for k in live for key in keys[k * m : (k + 1) * m]]
        try:
            hit = registry.find_many(batch.reshape(-1, *images.shape[2:]), live_keys)
        except CanonicalizationError as exc:
            del live[exc.index // m]
            continue
        for t, k in enumerate(live):
            found[k] = hit[t * m : (t + 1) * m]
        break
    return found


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
    """:func:`jordan_checks` of ``s`` alone."""
    return jordan_checks([s], [samples])[0]


def jordan_checks(
    ops: Sequence[SymmetryOp], samples: Sequence[Sequence[tuple]]
) -> list[JordanReport]:
    """Verify Jordan-product preservation and read off the commutator sign, per symmetry.

    ``samples[k]`` holds op k's self-adjoint pairs (a, b), the same number
    for every op. For each pair the action must satisfy
    phi(a.b) = phi(a).phi(b); the linear lift satisfies
    phi([a,b]) = sign * [phi(a), phi(b)] with sign +1 for unitaries and -1
    for antiunitaries. Pairs with [a, b] = 0 carry no sign information.
    All ops' pairs are checked in one stacked pass.
    """
    if not ops:
        return []
    d = ops[0].matrix.shape[0]
    pairs = np.asarray(samples, dtype=complex).reshape(len(ops), -1, 2, d, d)
    a, b = pairs[:, :, 0], pairs[:, :, 1]
    # a NaN distance passes the self-adjointness test; the entries are then
    # rejected as not finite, so the first failing pair in op order decides which error
    skew = (np.abs(pairs - _adjoint(pairs)).max(axis=(3, 4)) > TOL.exact).any(axis=2).ravel()
    bad = np.flatnonzero(skew | ~np.isfinite(pairs).all(axis=(2, 3, 4)).ravel())
    if bad.size:
        if skew[bad[0]]:
            raise ValueError("jordan_check requires self-adjoint samples")
        raise ValueError("operator entries must be finite")
    fa = _apply_each(ops, a)
    fb = _apply_each(ops, b)
    res = _max_norms(_apply_each(ops, 0.5 * (a @ b + b @ a)) - 0.5 * (fa @ fb + fb @ fa))
    comm = a @ b - b @ a
    scale = _max_norms(comm)
    adj = _adjoint(comm)  # the complex-linear lift acts through the self-adjoint parts
    lifted = _apply_each(ops, 0.5 * (comm + adj)) + 1j * _apply_each(ops, (comm - adj) / 2j)
    image_comm = fa @ fb - fb @ fa
    bound = TOL.conjugation * np.maximum(1.0, scale)
    plus, minus = _max_norms(lifted - image_comm), _max_norms(lifted + image_comm)
    reports = []
    for k in range(len(ops)):
        signs: list[int | None] = [
            None if sc <= TOL.exact else 1 if p <= bd else -1 if q <= bd else 0
            for sc, bd, p, q in zip(scale[k], bound[k], plus[k], minus[k])
        ]
        determined = {x for x in signs if x is not None}
        overall = determined.pop() if len(determined) == 1 else None
        worst = float(res[k].max(initial=0.0))
        reports.append(JordanReport(worst, signs, overall, signs.count(None)))
    return reports


def transition_probability_deviation(s: SymmetryOp, rays) -> float:
    """:func:`transition_probability_deviations` of ``s`` alone."""
    return transition_probability_deviations([s], rays)[0]


def transition_probability_deviations(ops: Sequence[SymmetryOp], rays) -> list[float]:
    """Largest |tr(phi(p)phi(q)) - tr(pq)| over the pairs of rank-1 projections of the
    ``(m, d, d)`` array ``rays``, per symmetry phi.

    The rays' images under every op are formed in one stacked product.
    """
    if not ops:
        return []
    d = ops[0].matrix.shape[0]
    mats = np.asarray(rays, dtype=complex).reshape(len(rays), d, d)
    images = _apply_each(ops, mats[None])
    before = np.einsum("aij,bji->ab", mats, mats).real
    after = np.einsum("naij,nbji->nab", images, images).real
    return [float(x) for x in np.abs(after - before).max(axis=(1, 2), initial=0.0)]


def _max_norms(stack: np.ndarray) -> np.ndarray:
    """Max-entry norm of each operator of a stack."""
    return np.abs(stack).max(axis=(-2, -1), initial=0.0)
