"""Context posets: finite fragments of the poset of commutative subalgebras.

A context is an orthogonal family of atomic projections summing to the
identity. The poset generated by a catalog of contexts holds the catalog
contexts, the meet (intersection algebra) of each pair of them that
carries a constraint, and the trivial context. Every other coarsening of
a catalog context lies below at most one catalog context or below a
meet, so it adds no constraint on a section and is not stored. A meet
whose blocks are shared atoms of both contexts, apart from at most one
block, is not stored either: it only says that both contexts give each
shared atom one value, and a section gives every projection key one
value anyway. (A section holds one weight per atom of each node: along
every inclusion i < j, j's weights summed along the dominator map are
i's, and a projection that is an atom of several nodes carries one
weight.)

Order rule: i <= j iff every atom of i is a sum of atoms of j. One
dominance table decides it: ``under[q, p]`` holds iff atom p lies under
atom q (``|qp - p| <= TOL.dominance``), over a poset's atom table. The
build turns it into one lookup, ``over[i, p]``: the atom of node i that
atom p lies under, or -1; distinct atoms of i are orthogonal, so p lies
under at most one of them. Then i <= j iff every atom of j lies under an
atom of i (both families sum to the identity, so j's atoms under each atom
q of i then sum to q), and the dominator map of i < j (which atom of i
each j-atom lies under) is ``over[i]`` read at j's atoms. The table itself
is dropped once the lookup is built.

Each pair's meet is decided once, by :func:`_pair_meets`, for both routes:
:func:`generate_poset` stores each kept meet as a node, and
:func:`catalog_meets` reads the same meets without building a poset: a
section there is one atom per catalog context, and the chosen atoms of
every pair lie in one block of the pair's meet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import opalg
from .opalg import (
    TOL,
    ProjectionRegistry,
    check_projections,
    identity_rule,
    max_norm,
    real_gram,
    screened_pairs,
)


@dataclass(frozen=True, eq=False)
class Context:
    """One commutative subalgebra, presented by its ordered atom keys."""

    dim: int
    atoms: tuple[str, ...]

    def __post_init__(self):
        if len(self.atoms) < 1:
            raise ValueError("a context needs at least one atom")

    @property
    def key_set(self) -> frozenset[str]:
        return frozenset(self.atoms)

    # Context identity is the atom key-set; atom order is presentation only.
    def __eq__(self, other) -> bool:
        if not isinstance(other, Context):
            return NotImplemented
        return self.dim == other.dim and self.key_set == other.key_set

    def __hash__(self) -> int:
        return hash((self.dim, self.key_set))


def context_from_projections(registry: ProjectionRegistry, mats) -> Context:
    """Validate an orthogonal, complete family, one ``(m, d, d)`` array of projections, and
    register it as a context; a registry ``tol`` that makes two of its atoms one projection
    is an error. On any error the registry holds the keys it held before the call."""
    dim = registry.dim
    stack = np.array(mats, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (dim, dim):
        raise ValueError("atom dimension does not match registry")
    check_projections(stack, TOL.exact)
    for i, p in enumerate(stack):  # p p_j is p itself at j = i and 0 elsewhere
        gap = p @ stack
        gap[i] -= p
        bad = np.flatnonzero(np.abs(gap).max(axis=(1, 2)) > TOL.context)
        if bad.size:
            raise ValueError(f"atoms {i} and {bad[0]} are not orthogonal")
    if max_norm(stack.sum(axis=0) - np.eye(dim)) > max(TOL.exact * dim, TOL.context):
        raise ValueError("atoms do not sum to the identity")
    held = len(registry)
    try:
        keys = tuple(registry.register_many(stack))
        repeat = first_repeat(keys)
        if repeat is not None:
            message = f"atoms {repeat[0]} and {repeat[1]} are one projection at tol {registry.tol}"
            raise ValueError(message + ", but they are orthogonal")
    except ValueError:  # a CanonicalizationError too
        registry._truncate(held)
        raise
    return Context(dim, keys)


def first_repeat(keys: Sequence[str]) -> tuple[int, int] | None:
    """The first position whose key an earlier one has, after that earlier one, or None."""
    first: dict[str, int] = {}
    for t, key in enumerate(keys):
        if first.setdefault(key, t) != t:
            return first[key], t
    return None


def trivial_context(registry: ProjectionRegistry) -> Context:
    key = registry.register(np.eye(registry.dim, dtype=complex))
    return Context(registry.dim, (key,))


@dataclass
class ContextPoset:
    """Finite poset of contexts. Immutable once built; safe to share.

    It holds one atom table, where every consumer reads the poset's atoms:
    ``keys``, the nodes' distinct atom keys in order of first appearance
    over the nodes; ``stack``, their matrices as one read-only ``(n, d, d)``
    array; ``ranks``, their ranks; ``rows[i]``, node i's atoms as rows of
    the table, in atom order; ``over[i, t]``, the atom of node i (its index
    in ``rows[i]``) that row t lies under, or -1. ``order``, read off
    ``over`` by :func:`atom_lookups`, is checked antisymmetric. Every array
    is made read-only.
    """

    dim: int
    registry: ProjectionRegistry
    nodes: tuple[Context, ...]
    order: np.ndarray  # order[i, j] == True iff node i is contained in node j
    generators: tuple[str, ...]
    keys: tuple[str, ...] = field(repr=False)
    stack: np.ndarray = field(repr=False)
    ranks: np.ndarray = field(repr=False)
    rows: tuple[np.ndarray, ...] = field(repr=False)
    over: np.ndarray = field(repr=False)
    _ids: dict[Context, int] = field(init=False, repr=False)

    def __post_init__(self):
        for arr in (self.stack, self.ranks, *self.rows, self.over, self.order):
            arr.flags.writeable = False
        # sanity: antisymmetry must hold because distinct key-sets are distinct algebras
        if not np.array_equal(self.order & self.order.T, np.eye(len(self.nodes), dtype=bool)):
            raise RuntimeError("order relation failed antisymmetry")
        self._ids = {node: i for i, node in enumerate(self.nodes)}

    def __len__(self) -> int:
        return len(self.nodes)

    def dominator_map(self, small: int, large: int) -> np.ndarray:
        """Per-atom lookup: atom a of ``large`` lies under entry [a] of ``small``."""
        if not self.order[small, large]:
            raise ValueError(f"node {small} is not below node {large}")
        return self.over[small, self.rows[large]]

    def node_id(self, ctx: Context) -> int:
        try:
            return self._ids[ctx]
        except KeyError:
            raise KeyError("context not in poset") from None

    def atom_matrices(self, i: int) -> np.ndarray:
        """The atoms of node i as one ``(k, d, d)`` stack, in atom order."""
        return self.stack[self.rows[i]]

    def atom_keys(self, i: int) -> tuple[str, ...]:
        return self.nodes[i].atoms

    def maximal_nodes(self) -> list[int]:
        strict = self.order & ~np.eye(len(self.nodes), dtype=bool)
        return [int(i) for i in np.flatnonzero(~strict.any(axis=1))]


def _atom_table(registry: ProjectionRegistry, nodes: Sequence[Context]) -> tuple:
    """The atom table of a node list, its atoms read from ``registry``: ``(keys, stack,
    ranks, rows)`` as :class:`ContextPoset` holds them."""
    keys = tuple(dict.fromkeys(k for node in nodes for k in node.atoms))
    index = {k: t for t, k in enumerate(keys)}
    stack = registry.matrices(keys)
    ranks = np.rint(np.trace(stack, axis1=1, axis2=2).real).astype(int)
    rows = tuple(np.array([index[k] for k in node.atoms]) for node in nodes)
    return keys, stack, ranks, rows


def generate_poset(catalog: Sequence[Context], registry: ProjectionRegistry) -> ContextPoset:
    """Poset of the catalog contexts, their constraining meets and the trivial context.

    Nodes come in that order: the distinct catalog contexts, then for each
    pair ``i < j`` the meet of ``catalog[i]`` and ``catalog[j]`` that
    :func:`_pair_meets` keeps, then the trivial context. Any common
    coarsening of two contexts lies below their meet, so these are the only
    nodes below the catalog that constrain a section beyond the one value
    per projection key. A meet's blocks are the connected components of the
    two contexts' atom overlaps ``tr(pq)``, with a pair's torn blocks merged.
    A block with a one-atom side is that atom; the sum of the first side of
    each other block, over ``catalog[i]``'s atoms, is registered, in block
    order, and the registry gives the block its key.
    """
    dim = registry.dim
    for ctx in catalog:
        if ctx.dim != dim:
            raise ValueError("mixed dimensions in catalog")

    nodes: list[Context] = []
    provenance: list[str] = []
    seen: dict[frozenset[str], int] = {}

    def add(ctx: Context, origin: str) -> None:
        ks = ctx.key_set
        if ks in seen:
            return
        seen[ks] = len(nodes)
        nodes.append(ctx)
        provenance.append(origin)

    at, decided = _pair_meets(registry, catalog)
    for c in at:
        add(catalog[c], f"catalog[{c}]")
    if decided is not None:
        names, stack, pairs, _, _, root, first, atom, keep, _ = decided
        kept = keep[np.nonzero(root)[0]]  # the block rows of kept pairs
        first, atom = first[kept], atom[kept]
        block_keys = np.array(names + [None], dtype=object)[atom]
        summed = atom == len(names)  # no side of one atom
        sums, seen_at, inverse = _set_sums(stack, first[summed])
        order = np.argsort(seen_at)  # each distinct first side where it first comes
        resolved = np.empty(len(sums), dtype=object)
        resolved[order] = registry.register_many(sums[order])
        block_keys[summed] = resolved[inverse]
        per_pair = np.split(block_keys, np.cumsum(root[keep].sum(axis=1))[:-1])
        for (i, j), k in zip(pairs[keep].tolist(), per_pair):
            add(Context(dim, tuple(k)), f"meet of catalog[{at[i]}] and catalog[{at[j]}]")
    add(trivial_context(registry), "trivial")

    return poset_from_nodes(registry, nodes, provenance)


def _pair_meets(registry: ProjectionRegistry, catalog: Sequence[Context]) -> tuple:
    """The meet of every pair of distinct catalog contexts, decided once for both routes,
    :func:`generate_poset` and :func:`catalog_meets`: ``(at, decided)``.

    ``at`` lists each distinct key set's first catalog index; the pairs
    ``i < j`` are those of the distinct contexts ``catalog[at[i]]`` whose meet
    has more than one block (:func:`_pair_blocks`). Per pair:

    - all its blocks but one are shared atoms (one atom, one key, on both
      sides), and the other has one atom on one side only: that side's
      context is a coarsening of the other (a padded context), ``coarsening``;
    - else at most one block is not a shared atom: the meet only says that
      both contexts give each shared atom one value, which the key table
      already says, and the pair is dropped;
    - else the two sides of each block that is not a shared atom are summed
      and compared by the registry's rule, :func:`~contextua.opalg.identity_rule`
      at ``registry.tol``: the same projection, they are one block; a
      rejected block is a ``ValueError``; distinct, the block was torn by an
      overlap below the squared grid. A pair's torn blocks merge into one,
      decided by the same rule. The pair is kept, ``keep``, unless the merged
      sides are distinct or no block besides them is loose.

    A kept pair's torn blocks are relabelled as the first of them, whose
    place and row take the merged sides; each merged side holds the atoms of
    two torn blocks or more, since one alone stays apart. ``decided`` is
    :func:`_pair_blocks`' ``(names, stack, pairs, label, other, root,
    first)`` after the merges; then ``atom``, per block row, the atom that
    one of its sides is (the first side's, if both are one atom) or
    ``len(names)``; then ``keep`` and ``coarsening``, one entry per pair.
    It is None when no pair is kept or padded.
    """
    first_at: dict[frozenset[str], int] = {}  # each distinct key set's first catalog index
    for c, ctx in enumerate(catalog):
        first_at.setdefault(ctx.key_set, c)
    at = list(first_at.values())
    if len(at) < 2:
        return at, None
    names, stack, pairs, label, other, root, first, second = _pair_blocks(
        registry, [catalog[c] for c in at]
    )
    if not len(pairs):  # no pair has several blocks
        return at, None
    n, width = len(names), first.shape[1]

    def apart(gaps: np.ndarray, owners) -> np.ndarray:  # the registry's rule
        same, rejected = identity_rule(gaps, registry.tol)
        if rejected.any():
            i, j = (at[c] for c in pairs[owners[rejected.argmax()]])
            message = f"catalog contexts {i} and {j}: the two sides of a meet block are closer"
            raise ValueError(message + f" than the grid but not within tol {registry.tol}")
        return ~same

    one = [np.where(s[:, 1] == n, s[:, 0], n) for s in (first, second)]  # each side's atom, or n
    shared = (one[0] == one[1]) & (one[0] < n)
    atom = np.where(one[0] < n, one[0], one[1])
    owner, name = np.nonzero(root)  # the pair and the name of each block row
    loose = np.bincount(owner[~shared], minlength=len(pairs))  # blocks not shared, per pair
    # the pairs of a padded context: one loose block, one atom on one side only
    coarsening = np.zeros(len(pairs), dtype=bool)
    coarsening[owner[~shared & (loose[owner] == 1) & ((one[0] < n) != (one[1] < n))]] = True
    keep = loose > 1
    if not (keep | coarsening).any():
        return at, None
    checked = np.flatnonzero(keep[owner] & ~shared)
    torn = np.zeros(len(first), dtype=bool)
    torn[checked] = apart(_side_gaps(stack, first[checked], second[checked]), owner[checked])
    for p in np.unique(owner[torn]).tolist():
        t = np.flatnonzero(torn & (owner == p))
        sides = [np.sort(s[t], None)[:width] for s in (first, second)]
        # torn blocks merge; the pair is trivial if the merged sides are apart, and it
        # constrains nothing if no block besides them is loose
        if apart(_side_gaps(stack, *(s[None] for s in sides)), [p])[0] or loose[p] == t.size:
            keep[p] = False
            continue
        label[p, np.isin(label[p], name[t])] = name[t[0]]
        other[p, np.isin(other[p], name[t])] = name[t[0]]
        root[p, name[t[1:]]] = False
        first[t[0]], atom[t[0]] = sides[0], n
    alive = root[owner, name]  # the block rows that no merge dropped
    first, atom = first[alive], atom[alive]
    return at, (names, stack, pairs, label, other, root, first, atom, keep, coarsening)


def _pair_blocks(registry: ProjectionRegistry, catalog: Sequence[Context]) -> tuple:
    """The blocks of the meet of every catalog pair ``i < j`` that has more than one.

    An atom of the second context that overlaps an atom of the first lies
    under the same block of any common coarsening, so the blocks are the
    connected components of the two contexts' overlap graph, and each
    block's two atom sums are one projection. Every pair is labelled in one
    stacked reachability closure. Returns ``(keys, stack, pairs, label,
    other, root, first, second)``: the catalog's atom keys, sorted, and their
    matrices; the ``(i, j)`` of each pair with more than one block, one row
    per pair; per pair, the block of each atom of ``catalog[i]``, ``label``,
    and of ``catalog[j]``, ``other``, named by its first atom in
    ``catalog[i]``'s order, and whether each atom of ``catalog[i]`` names a
    block, ``root``; and one row per block, pair by pair in order of their
    names, its atoms on each side as indices into ``keys``, sorted and padded
    with ``len(keys)``: ``first`` and ``second``.
    """
    keys = sorted({k for ctx in catalog for k in ctx.atoms})
    index = {k: t for t, k in enumerate(keys)}
    n = len(keys)
    stack = registry.matrices(keys)
    # overlap[p, q]: p and q are not orthogonal. tr(pq) = |pq|_F^2 is a squared
    # norm, so it is compared with the squared grid: distinct rays closer than
    # the grid are rejected, so any real overlap is at least this large, and
    # float noise on orthogonal atoms is far below it. Index n pads a context
    # with fewer atoms than the widest; it overlaps nothing.
    overlap = np.zeros((n + 1, n + 1), dtype=bool)
    overlap[:n, :n] = real_gram(stack, stack) > TOL.grid**2
    width = max(len(ctx.atoms) for ctx in catalog)
    atoms = np.array(
        [[index[k] for k in ctx.atoms] + [n] * (width - len(ctx.atoms)) for ctx in catalog]
    )
    pairs = np.argwhere(np.arange(len(catalog))[:, None] < np.arange(len(catalog)))
    rows, cols = atoms[pairs[:, 0]], atoms[pairs[:, 1]]
    sub = overlap[rows[:, :, None], cols[:, None, :]]
    # reach[p, a, b]: atoms a and b of the first context are joined by a path of
    # overlaps; each squaring doubles the path length covered, and no path has
    # more steps than there are atoms. Every atom of a context overlaps some atom
    # of the other, which sums to the identity, so it reaches itself.
    reach = sub @ sub.transpose(0, 2, 1)
    for _ in range(width.bit_length()):
        reach = reach @ reach
    # each atom's block, named by its first atom; a padding atom reaches nothing,
    # lands in block 0 and, as index n, drops out of every block's atom set
    label = reach.argmax(axis=2)
    root = label == np.arange(width)
    several = np.flatnonzero(root.sum(axis=1) > 1)
    pairs, rows, cols, sub = pairs[several], rows[several], cols[several], sub[several]
    label, root = label[several], root[several]
    other = label[np.arange(len(pairs))[:, None], sub.argmax(axis=1)]  # each second atom's block
    blocks = np.arange(width)[None, :, None]
    # the atoms of each block on each side, sorted, padded with n: one row per block
    first = np.sort(np.where(label[:, None, :] == blocks, rows[:, None, :], n), axis=2)[root]
    second = np.sort(np.where(other[:, None, :] == blocks, cols[:, None, :], n), axis=2)[root]
    return keys, stack, pairs, label, other, root, first, second


@dataclass(frozen=True)
class CatalogMeets:
    """A catalog's distinct contexts and the blocks of their constraining pairwise meets,
    as the global-section search reads them: ``ks-check``'s route, with no poset.

    Node ids count the contexts, ``nodes``, then one meet per constrained pair.
    Key rows count the contexts' atom keys, ``keys``, then one row per meet
    block that has no side of one atom, ``n_rows`` rows in all. ``rows[i]``
    are node i's atoms as key rows. ``maximal`` lists the contexts that
    coarsen no other context, and ``lower`` holds ``(i, m, lookup)`` for each
    other node i below a maximal node m: ``lookup[a]`` is the atom of i that
    atom a of m lies under.
    """

    nodes: tuple[Context, ...]
    keys: tuple[str, ...]
    rows: list[list[int]]
    n_rows: int
    maximal: list[int]
    lower: list[tuple[int, int, list[int]]]

    def atom_keys(self, i: int) -> tuple[str, ...]:
        return self.nodes[i].atoms

    def summary(self) -> dict[str, int]:
        """The contexts, the constrained pairs and their meets' blocks, counted."""
        meets = self.rows[len(self.nodes) :]
        return {
            "contexts": len(self.nodes),
            "constrained_pairs": len(meets),
            "blocks": sum(map(len, meets)),
        }


def catalog_meets(registry: ProjectionRegistry, catalog: Sequence[Context]) -> CatalogMeets:
    """The distinct contexts of ``catalog`` and the meet of each pair of them that
    constrains a section beyond one value per key, as :func:`_pair_meets` decides them.

    A choice of one atom per context is a global section iff the chosen atoms
    of every pair lie in one block of the pair's meet. A block of one pair's
    meet that lies in a third context's algebra is a sum of that context's
    blocks with either side, so identities between block sums of different
    pairs add no constraint, and no block sum is registered. A kept meet is a
    node below both contexts and below every context above either; a padded
    context is a node below the context it coarsens, and not maximal. A
    block whose side is one atom has that atom's key row; any other block,
    a merged one among them, has a key row of its own.
    """
    at, decided = _pair_meets(registry, catalog)
    nodes = tuple(catalog[c] for c in at)
    keys = tuple(dict.fromkeys(k for node in nodes for k in node.atoms))
    index = {k: t for t, k in enumerate(keys)}
    rows = [[index[k] for k in node.atoms] for node in nodes]
    coarser: dict[int, list[tuple[int, list[int]]]] = {}  # c: each (d, lookup) with c below d
    meets: list[tuple[tuple[int, list[int]], ...]] = []  # per meet, each context's lookup
    if decided is not None:
        names, _, pairs, label, other, root, _, atom, keep, coarsening = decided
        sizes = [len(node.atoms) for node in nodes]
        row_of = np.array([index[k] for k in names] + [-1])  # the last name index is no atom
        key_rows = row_of[atom].tolist()  # -1: a row of its own
        edges = [0, *np.cumsum(root.sum(axis=1)).tolist()]  # pair p's rows: edges[p : p + 2]
        used = np.flatnonzero(coarsening | keep)
        order = np.cumsum(root[used], axis=1) - 1  # each block's place among its pair's blocks
        places = [np.take_along_axis(order, x[used], axis=1).tolist() for x in (label, other)]
        lookups = {  # per pair, each context and the block of each of its atoms
            p: ((i, a[: sizes[i]]), (j, b[: sizes[j]]))
            for p, (i, j), a, b in zip(used.tolist(), pairs[used].tolist(), *places)
        }
        for p in np.flatnonzero(coarsening).tolist():  # c coarsens d: c's atoms are the blocks
            (c, mine), (d, theirs) = sorted(lookups[p], key=lambda side: len(side[1]))
            coarser.setdefault(c, []).append((d, np.argsort(mine)[theirs].tolist()))
        for p in np.flatnonzero(keep).tolist():
            meets.append(lookups[p])
            rows.append(key_rows[edges[p] : edges[p + 1]])
    n_rows = len(keys)
    for meet in rows[len(nodes) :]:
        for b, t in enumerate(meet):
            if t < 0:
                meet[b], n_rows = n_rows, n_rows + 1
    maximal = [i for i in range(len(nodes)) if i not in coarser]
    above = {c: [(d, up) for d, up in ups if d not in coarser] for c, ups in coarser.items()}
    lower = [(c, d, lookup) for c, ups in above.items() for d, lookup in ups]
    for k, meet in enumerate(meets, len(nodes)):
        found = set()
        for x, lookup in meet:
            for m, via in above.get(x, [(x, None)]):
                if m not in found:
                    found.add(m)
                    lower.append((k, m, lookup if via is None else [lookup[c] for c in via]))
    return CatalogMeets(nodes, keys, rows, n_rows, maximal, lower)


def _set_sums(stack: np.ndarray, sets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sum of the rows of ``stack`` that each row of ``sets`` indexes, each distinct
    set summed once: ``(sums, seen_at, inverse)``, with ``sets[seen_at]`` the distinct
    sets, in order, and ``sums[inverse]`` each row's sum.

    A row of ``sets`` is sorted and padded with ``len(stack)``, which adds nothing.
    The distinct sets come in the order ``np.unique(sets, axis=0)`` gives, found by
    one stable lexsort, which is several times faster on a few dozen sets. They are
    summed in runs, so that no temporary outgrows ``opalg.BLOCK`` entries.
    """
    if not len(sets):
        return stack[:0], np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    sets = sets[:, : int((sets < len(stack)).any(axis=0).sum())]  # the padding comes last
    order = np.lexsort(sets.T[::-1])
    ordered = sets[order]
    first = np.ones(len(sets), dtype=bool)  # the first row of each run, its set's first occurrence
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(sets), dtype=int)
    inverse[order] = np.cumsum(first) - 1
    distinct = ordered[first]
    atoms = np.concatenate([stack, np.zeros_like(stack[:1])])
    sums = np.empty((len(distinct),) + stack.shape[1:], dtype=stack.dtype)
    step = max(1, opalg.BLOCK // (sets.shape[1] * stack[0].size))
    for start in range(0, len(distinct), step):
        sums[start : start + step] = atoms[distinct[start : start + step]].sum(axis=1)
    return sums, order[first], inverse


def _side_gaps(stack: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The max-entry distance between the sums of the two sides of each block: rows of
    ``first`` and ``second``, sorted and padded indices into ``stack`` (:func:`_set_sums`)."""
    sums, _, inverse = _set_sums(stack, np.concatenate([first, second]))
    of_first, of_second = inverse[: len(first)], inverse[len(first) :]
    gaps = np.empty(len(first))
    step = max(1, opalg.BLOCK // stack[0].size)
    for start in range(0, len(first), step):
        part = slice(start, start + step)
        gaps[part] = np.abs(sums[of_first[part]] - sums[of_second[part]]).max(axis=(1, 2))
    return gaps


def poset_from_nodes(
    registry: ProjectionRegistry,
    nodes: Sequence[Context],
    generators: Sequence[str],
) -> ContextPoset:
    """Poset on an explicit node list, ordered by the dominance table of its atom table."""
    _, stack, ranks, rows = table = _atom_table(registry, nodes)
    (over,), (order,) = atom_lookups(rows, dominance_tables(stack, ranks, stack[None]))
    generators = tuple(generators)
    return ContextPoset(registry.dim, registry, tuple(nodes), order, generators, *table, over)


def atom_lookups(
    atoms: Sequence[np.ndarray], under: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Atom lookup ``over[k, i, t]`` of one node list under each of a stack of dominance
    tables, the atom of node i that row t lies under in ``under[k]`` or -1, and the order
    ``order[k, i, j]`` it gives: i <= j iff no atom of node j reads -1 in row i.

    ``atoms[i]`` lists the atom rows of node i. Node i's atoms are orthogonal,
    so at most one of them dominates row t, and the lookup is one product of
    the table with each atom's 1 + index in its node, in column blocks so
    that no float copy of the whole tables is made; the sums are exact.
    """
    slot = np.zeros((len(atoms), under.shape[1]))  # slot[i, q]: 1 + q's index in node i, or 0
    for i, rows in enumerate(atoms):
        slot[i, rows] = np.arange(1, len(rows) + 1)
    over = np.empty((len(under), len(atoms), under.shape[2]), dtype=int)
    step = max(1, opalg.BLOCK // (len(under) * under.shape[1]))
    for start in range(0, under.shape[2], step):
        over[:, :, start : start + step] = slot @ under[:, :, start : start + step] - 1
    sizes = [len(rows) for rows in atoms]
    hit = (over >= 0)[:, :, np.concatenate(atoms)]
    return over, np.logical_and.reduceat(hit, np.cumsum(sizes) - sizes, axis=2)


# |qp - p|_F^2 = rank p - tr(qp) for projections p and q. A pair that passes the
# max-entry test |qp - p| <= TOL.dominance has |qp - p|_F <= d TOL.dominance, so its
# gap is at most d^2 TOL.dominance^2, and the Gram entry errs by at most about
# d^3 eps: both stay below this bound for every d < 10^4, far past any d x d stack
# held in memory. It is a screen, not a tolerance: the max-entry test decides every
# survivor, since near d >= 16 that rounding error reaches TOL.dominance^2 itself.
_DOMINANCE_SCREEN = 1e-3


def dominance_tables(stack: np.ndarray, ranks, images: np.ndarray) -> np.ndarray:
    """Dominance table ``under[k, q, p]`` (atom p lies under atom q) of each image
    ``images[k]`` of an atom stack whose atoms have ``ranks``; ``stack[None]`` for the
    stack's own table.

    Each image must preserve ``Re tr(a* b)`` between the stack's atoms, as
    unitary and antiunitary conjugation do: the Gram screen of ``stack``
    (:data:`_DOMINANCE_SCREEN`), tr(qp) >= rank p - screen, then keeps every
    pair that can dominate in any image (a conjugation's rounding is far
    inside the screen's margin), and runs once. Kept pairs p under itself or
    under the identity (rank d) hold in every image; the max-entry test
    ``|qp - p| <= TOL.dominance`` runs on every image of each other kept pair,
    as one ``(images, pairs, d, d)`` product in blocks of pairs.
    """
    floor = np.asarray(ranks, dtype=float) - _DOMINANCE_SCREEN
    q, p, _ = screened_pairs(stack, stack, lambda _, gram: gram >= floor)  # q above, p below
    under = np.zeros((len(images), len(stack), len(stack)), dtype=bool)
    settled = (q == p) | (np.asarray(ranks)[q] == stack.shape[-1])
    under[:, q[settled], p[settled]] = True
    q, p = q[~settled], p[~settled]
    chunk = max(1, opalg.BLOCK // max(1, images[:, :1].size))  # pairs per block
    for c in range(0, len(q), chunk):
        above, below = images[:, q[c : c + chunk]], images[:, p[c : c + chunk]]
        gaps = np.abs(above @ below - below).max(axis=(-2, -1))
        under[:, q[c : c + chunk], p[c : c + chunk]] = gaps <= TOL.dominance
    return under


def export_dot(poset: ContextPoset) -> str:
    """DOT digraph of the transitive reduction.

    Arrows are drawn large -> small so maximal contexts sit on top in the
    usual Hasse layout; node provenance appears as // comments.
    """
    lines = ["digraph contexts {"]
    for i, rows in enumerate(poset.rows):
        ranks = ",".join(str(r) for r in poset.ranks[rows])
        lines.append(f"  // node n{i}: {poset.generators[i]}")
        lines.append(f'  n{i} [label="ranks={ranks}"];')
    strict = poset.order & ~np.eye(len(poset), dtype=bool)
    for small, large in zip(*np.nonzero(strict & ~(strict @ strict))):  # the cover pairs
        lines.append(f"  n{large} -> n{small};")
    lines.append("}")
    return "\n".join(lines) + "\n"
