"""Context posets: finite fragments of the poset of commutative subalgebras.

A context is an orthogonal family of atomic projections summing to the
identity. The poset generated by a catalog of contexts holds the catalog
contexts, the meet (intersection algebra) of each pair of them, and the
trivial context. Every other coarsening of a catalog context lies below
at most one catalog context or below a stored meet, so it adds no
constraint on a section and is not stored.

Order rule: i <= j iff every atom of i is a sum of atoms of j. One
dominance table decides it: ``under[q, p]`` holds iff atom p lies under
atom q (``|qp - p| <= TOL.dominance``), over the atoms of a node list.
Then i <= j iff, for every atom q of i, the ranks of j's atoms under q sum
to rank(q); distinct atoms of i are orthogonal, so a j-atom lies under at
most one of them. Dominator maps (which atom of i a j-atom lies under)
are lookups in the same table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .opalg import (
    TOL,
    Projection,
    ProjectionRegistry,
    as_operator,
    cluster_eigenvalues,
    commutes,
    identity_projection,
    max_norm,
    projection,
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


def context_from_projections(registry: ProjectionRegistry, mats: Sequence) -> Context:
    """Validate an orthogonal, complete family and register it as a context."""
    projs = [p if isinstance(p, Projection) else projection(p) for p in mats]
    dim = registry.dim
    for p in projs:
        if p.dim != dim:
            raise ValueError("atom dimension does not match registry")
    for i, p in enumerate(projs):
        for j, q in enumerate(projs):
            expected = p.matrix if i == j else 0.0
            if max_norm(p.matrix @ q.matrix - expected) > TOL.context:
                raise ValueError(f"atoms {i} and {j} are not orthogonal")
    total = sum(p.matrix for p in projs)
    if max_norm(total - np.eye(dim)) > max(TOL.exact * dim, TOL.context):
        raise ValueError("atoms do not sum to the identity")
    keys = tuple(registry.register(p) for p in projs)
    return Context(dim, keys)


def context_from_observables(registry: ProjectionRegistry, ops: Sequence) -> Context:
    """Smallest context containing every operator in ``ops``.

    The atoms are the common refinement of the spectral atoms of all the
    operators, computed by iteratively splitting joint eigenspaces. All
    operators must be self-adjoint and pairwise commuting.
    """
    if not ops:
        raise ValueError("need at least one observable")
    arrs = [as_operator(a) for a in ops]
    dim = arrs[0].shape[0]
    if dim != registry.dim:
        raise ValueError("observable dimension does not match registry")
    for idx, a in enumerate(arrs):
        if a.shape[0] != dim:
            raise ValueError("observables must share one dimension")
        if max_norm(a - a.conj().T) > TOL.exact:
            raise ValueError(f"observable {idx} is not self-adjoint")
    for i in range(len(arrs)):
        for j in range(i + 1, len(arrs)):
            if not commutes(arrs[i], arrs[j], TOL.context):
                raise ValueError(f"observables {i} and {j} do not commute")

    blocks = [np.eye(dim, dtype=complex)]
    for a in arrs:
        refined = []
        for basis in blocks:
            compressed = basis.conj().T @ a @ basis
            compressed = 0.5 * (compressed + compressed.conj().T)
            evals, vecs = np.linalg.eigh(compressed)
            for group in cluster_eigenvalues(evals):
                refined.append(basis @ vecs[:, group])
        blocks = refined
    atoms = [Projection(b @ b.conj().T, b.shape[1]) for b in blocks]
    atoms = [projection(p.matrix) for p in atoms]
    return context_from_projections(registry, atoms)


def trivial_context(registry: ProjectionRegistry) -> Context:
    key = registry.register(identity_projection(registry.dim))
    return Context(registry.dim, (key,))


@dataclass
class ContextPoset:
    """Finite poset of contexts. Immutable once built; safe to share."""

    dim: int
    registry: ProjectionRegistry
    nodes: tuple[Context, ...]
    order: np.ndarray  # order[i, j] == True iff node i is contained in node j
    generators: tuple[str, ...]
    _covers: tuple[tuple[int, int], ...] | None = field(default=None, repr=False)
    _dominators: dict | None = field(default=None, repr=False)
    _table: tuple[dict[str, int], np.ndarray] | None = field(default=None, repr=False)
    _ids: dict[Context, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._ids = {node: i for i, node in enumerate(self.nodes)}

    def __len__(self) -> int:
        return len(self.nodes)

    def dominator_map(self, small: int, large: int) -> np.ndarray:
        """Per-atom lookup: atom a of ``large`` lies under entry [a] of ``small``."""
        if self._dominators is None:
            self._dominators = {}
        key = (small, large)
        cached = self._dominators.get(key)
        if cached is not None:
            return cached
        if not self.order[small, large]:
            raise ValueError(f"node {small} is not below node {large}")
        if self._table is None:
            self._table = _dominance_table(self.registry, self.nodes)
        index, under = self._table
        rows = [index[k] for k in self.nodes[small].atoms]
        cols = [index[k] for k in self.nodes[large].atoms]
        sub = under[np.ix_(rows, cols)]
        if not sub.any(axis=0).all():
            raise RuntimeError("no dominating atom found; poset data is inconsistent")
        out = sub.argmax(axis=0)
        self._dominators[key] = out
        return out

    def node_id(self, ctx: Context) -> int:
        try:
            return self._ids[ctx]
        except KeyError:
            raise KeyError("context not in poset") from None

    def atoms_of(self, i: int) -> list[Projection]:
        return [self.registry.get(k) for k in self.nodes[i].atoms]

    def atom_matrices(self, i: int) -> np.ndarray:
        """The atoms of node i as one ``(k, d, d)`` stack, in atom order."""
        return np.stack([p.matrix for p in self.atoms_of(i)])

    def atom_keys(self, i: int) -> tuple[str, ...]:
        return self.nodes[i].atoms

    def leq(self, i: int, j: int) -> bool:
        self._check_id(i)
        self._check_id(j)
        return bool(self.order[i, j])

    def _check_id(self, i: int) -> None:
        if not (isinstance(i, (int, np.integer)) and 0 <= i < len(self.nodes)):
            raise KeyError(f"unknown node id {i!r}")

    def maximal_nodes(self) -> list[int]:
        strict = self.order & ~np.eye(len(self.nodes), dtype=bool)
        return [int(i) for i in np.flatnonzero(~strict.any(axis=1))]

    def trivial_node(self) -> int:
        for i, node in enumerate(self.nodes):
            if len(node.atoms) == 1:
                return i
        raise KeyError("poset has no trivial node")

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction as (small, large) pairs."""
        if self._covers is None:
            strict = self.order & ~np.eye(len(self.nodes), dtype=bool)
            cover = strict & ~(strict @ strict)
            self._covers = tuple((int(i), int(j)) for i, j in zip(*np.nonzero(cover)))
        return self._covers


def is_section(poset, values: Mapping[int, np.ndarray], tol: float) -> bool:
    """Whether per-atom weights over a set of nodes form a section of the presheaf.

    ``values[i]`` holds one weight per atom of node i; a character is the 0/1
    vector of its chosen atom. ``poset`` is a :class:`ContextPoset` or a
    product poset: anything with ``len``, ``order``, ``atom_keys`` and
    ``dominator_map``. The domain must be down-closed. Along every inclusion i < j in it,
    pushing j's weights forward along ``dominator_map(i, j)`` must give i's
    weights, and a projection that is an atom of several nodes must carry
    one weight; both within ``tol``.
    """
    domain = list(values)
    inside = np.zeros(len(poset), dtype=bool)
    inside[domain] = True
    if (poset.order[:, domain] & ~inside[:, None]).any():
        return False
    for j in domain:
        for i in domain:
            if i == j or not poset.order[i, j]:
                continue
            pushed = np.bincount(
                poset.dominator_map(i, j), weights=values[j], minlength=len(values[i])
            )
            if max_norm(pushed - values[i]) > tol:
                return False
    seen: dict = {}
    for i in domain:
        for key, w in zip(poset.atom_keys(i), values[i]):
            if abs(seen.setdefault(key, w) - w) > tol:
                return False
    return True


def generate_poset(catalog: Sequence[Context], registry: ProjectionRegistry) -> ContextPoset:
    """Poset of the catalog contexts, the meet of each catalog pair and the trivial context.

    Nodes come in that order: the catalog contexts, then for each pair
    ``i < j`` the meet of ``catalog[i]`` and ``catalog[j]`` when it has more
    than one block, then the trivial context. Any common coarsening of two
    contexts lies below their meet, so these are the only nodes below the
    catalog that constrain a section. A meet's blocks are the connected
    components of the two contexts' atom overlaps ``tr(pq)``; each block's
    sum over ``catalog[i]``'s atoms is registered, and the sum over
    ``catalog[j]``'s atoms must be identified with it by the registry.
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

    for idx, ctx in enumerate(catalog):
        add(ctx, f"catalog[{idx}]")
    if len(catalog) > 1:
        keys = sorted({k for ctx in catalog for k in ctx.atoms})
        index = {k: t for t, k in enumerate(keys)}
        flat = np.stack([registry.get(k).matrix.ravel() for k in keys])
        # overlap[p, q]: p and q are not orthogonal. tr(pq) = |pq|_F^2 is a squared
        # norm, so it is compared with the squared grid: distinct rays closer than
        # the grid are rejected, so any real overlap is at least this large, and
        # float noise on orthogonal atoms is far below it
        overlap = (flat @ flat.conj().T).real > TOL.grid**2
        resolved: dict[frozenset[str], str | None] = {}
        for i, j in itertools.combinations(range(len(catalog)), 2):
            meet = _meet(registry, catalog[i], catalog[j], index, overlap, resolved)
            if meet is not None:
                add(meet, f"meet of catalog[{i}] and catalog[{j}]")
    add(trivial_context(registry), "trivial")

    return poset_from_nodes(registry, nodes, provenance)


def _meet(
    registry: ProjectionRegistry,
    first: Context,
    second: Context,
    index: dict[str, int],
    overlap: np.ndarray,
    resolved: dict[frozenset[str], str | None],
) -> Context | None:
    """Intersection algebra of two contexts, or None when it is trivial.

    An atom of ``second`` that overlaps an atom of ``first`` lies under the
    same block of any common coarsening, so the blocks are the connected
    components of the overlap graph, and each block's two atom sums are one
    projection. ``resolved`` memoises the key of each multi-atom block sum
    by its atom keys, across the pairs of one build.
    """
    rows = [index[k] for k in first.atoms]
    cols = [index[k] for k in second.atoms]
    sub = overlap[np.ix_(rows, cols)]
    # reach[a, b]: atoms a and b of first are joined by a path of overlaps; each
    # squaring doubles the path length covered, and no path has more steps than
    # first has atoms
    reach = sub @ sub.T
    for _ in range(len(rows).bit_length()):
        reach = reach @ reach
    label = reach.argmax(axis=1)  # each atom's block, named by its first atom
    blocks = np.unique(label)
    if len(blocks) == 1:
        return None
    other = label[sub.argmax(axis=0)]  # the block of each atom of second
    keys = []
    for b in blocks:
        key = _block_key(registry, first.atoms, label == b, registry.register, resolved)
        if _block_key(registry, second.atoms, other == b, registry.find, resolved) != key:
            raise RuntimeError("the two sides of a meet block are distinct projections")
        keys.append(key)
    return Context(first.dim, tuple(keys))


def _block_key(
    registry: ProjectionRegistry,
    atoms: tuple[str, ...],
    in_block: np.ndarray,
    resolve: Callable[[Projection], str | None],
    resolved: dict[frozenset[str], str | None],
) -> str | None:
    """Key of the sum of the atoms in the block: the atom itself, or ``resolve`` of the sum."""
    block = [atoms[t] for t in np.flatnonzero(in_block)]
    if len(block) == 1:
        return block[0]
    members = frozenset(block)
    if members not in resolved:
        parts = [registry.get(k) for k in block]
        resolved[members] = resolve(
            Projection(sum(p.matrix for p in parts), sum(p.rank for p in parts))
        )
    return resolved[members]


def poset_from_nodes(
    registry: ProjectionRegistry,
    nodes: Sequence[Context],
    generators: Sequence[str],
) -> ContextPoset:
    """Poset on an explicit node list, ordered by its dominance table."""
    index, under = table = _dominance_table(registry, nodes)
    ranks = np.array([registry.get(k).rank for k in index], dtype=float)
    member = np.zeros((len(nodes), len(index)))  # member[i, q]: q is an atom of node i
    for i, node in enumerate(nodes):
        member[i, [index[k] for k in node.atoms]] = 1.0
    covered = (under * ranks) @ member.T  # covered[q, j]: rank of j's atoms under q
    order = member @ (covered != ranks[:, None]) == 0
    # sanity: antisymmetry must hold because distinct key-sets are distinct algebras
    if not np.array_equal(order & order.T, np.eye(len(nodes), dtype=bool)):
        raise RuntimeError("order relation failed antisymmetry")
    return ContextPoset(
        registry.dim, registry, tuple(nodes), order, tuple(generators), _table=table
    )


def _dominance_table(
    registry: ProjectionRegistry, nodes: Sequence[Context]
) -> tuple[dict[str, int], np.ndarray]:
    """Row index of every atom key of ``nodes``, and ``under[q, p]``: atom p lies under atom q."""
    keys = sorted({k for node in nodes for k in node.atoms})
    index = {k: t for t, k in enumerate(keys)}
    stack = np.stack([registry.get(k).matrix for k in keys])
    n, d = len(keys), registry.dim
    # prod[a, b] = stack[a] @ stack[b], as one BLAS product of the stacked rows and columns
    prod = (stack.reshape(n * d, d) @ stack.transpose(1, 0, 2).reshape(d, n * d)).reshape(
        n, d, n, d
    ).transpose(0, 2, 1, 3)
    under = np.abs(prod - stack[None, :, :, :]).max(axis=(2, 3)) <= TOL.dominance
    return index, under


def export_dot(poset: ContextPoset) -> str:
    """DOT digraph of the transitive reduction.

    Arrows are drawn large -> small so maximal contexts sit on top in the
    usual Hasse layout; node provenance appears as // comments.
    """
    lines = ["digraph contexts {"]
    for i, node in enumerate(poset.nodes):
        ranks = ",".join(str(poset.registry.get(k).rank) for k in node.atoms)
        lines.append(f"  // node n{i}: {poset.generators[i]}")
        lines.append(f'  n{i} [label="ranks={ranks}"];')
    for small, large in poset.covers():
        lines.append(f"  n{large} -> n{small};")
    lines.append("}")
    return "\n".join(lines) + "\n"
