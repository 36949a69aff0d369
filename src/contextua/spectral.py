"""Spectral presheaf: global sections.

A character of a context picks one atom (the projection it maps to 1);
restriction along an inclusion picks the unique dominating atom, read from
the poset's atom lookup. Global sections are non-contextual 0/1 value
assignments: one value per projection, consistent along the context order,
held as a row of chosen atoms, one per node; :func:`value_table` reads a
row as its 0/1 value per projection key.
One depth-first propagation search, :func:`_sections`, decides and lists
them. Its state is three flat lists, copied per expansion, and its counters
are those of the dict-and-set search it replaced, kept as a test reference.
:func:`find_global_section`, ``ks-check``'s search, runs it on a catalog's
pairwise meets (:func:`~contextua.contexts.catalog_meets`), whose nodes are the
catalog's contexts and one meet per constrained pair. It takes the first
section, branching in sharing order, and returns a :class:`ColoringCertificate`:
the section found, or an exhausted search. :func:`enumerate_global_sections`
runs it on a poset's tables (:func:`_search_tables`), once per component of
:func:`section_components`, whose sections combine freely, and takes the product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .contexts import CatalogMeets, ContextPoset


def value_table(poset: ContextPoset | CatalogMeets, row) -> dict[str, int]:
    """0/1 value per projection key of the nodes that a global section's ``row`` covers:
    1 on the atom that ``row[i]`` chooses at node i, 0 on its siblings."""
    table: dict[str, int] = {}
    for node, atom in enumerate(row):
        for idx, key in enumerate(poset.atom_keys(node)):
            table[key] = 1 if idx == atom else 0
    return table


@dataclass
class ColoringCertificate:
    verdict: str  # "colorable" | "non_colorable"
    section: list[int] | None  # the chosen atom of each node
    nodes_expanded: int
    backtracks: int

    def to_report(self, poset: ContextPoset | CatalogMeets) -> dict:
        report = {
            "verdict": self.verdict,
            "stats": {
                "nodes_expanded": self.nodes_expanded,
                "backtracks": self.backtracks,
                "exhausted": self.section is None,
            },
        }
        if self.section is not None:
            report["section"] = value_table(poset, self.section)
        return report


@dataclass
class EnumerationResult:
    """Global sections as sorted rows: ``chosen[r, i]`` is the chosen atom of node i in
    section r. Unless truncated, ``components[c]`` holds component c's sections, up to
    the first component with none, as rows with -1 at the nodes c does not fix; ``index``
    holds the row of ``chosen`` of each tuple of them, component 0 most significant."""

    chosen: np.ndarray  # int64, one row per section
    truncated: bool
    components: list[np.ndarray] = field(default_factory=list)
    index: np.ndarray | None = None

    def __len__(self):
        return len(self.chosen)


def _search_tables(poset: ContextPoset, maximal: list[int]) -> tuple:
    """The :func:`_tables` of a poset: every node below a maximal node, its lookup read
    from ``over``. Only these pairs' ``over`` entries are read."""
    rows = [r.tolist() for r in poset.rows]
    # every lookup in one gather from over, each maximal node's atoms padded with row 0
    width = max(len(rows[m]) for m in maximal)
    padded = np.array([rows[m] + [0] * (width - len(rows[m])) for m in maximal])
    strict = poset.order[:, maximal].T & (np.arange(len(rows)) != np.array(maximal)[:, None])
    pair_m, pair_i = np.nonzero(strict)
    lookups = poset.over[pair_i[:, None], padded[pair_m]].tolist()
    lower = [
        (i, maximal[t], lookup[: len(rows[maximal[t]])])
        for t, i, lookup in zip(pair_m.tolist(), pair_i.tolist(), lookups)
    ]
    return _tables(rows, len(poset.keys), maximal, lower)


def _tables(rows: list, n_rows: int, maximal: list[int], lower: list) -> tuple:
    """``(rows, occurrences, below, prune)``: node i's atoms as key rows ``rows[i]``, of
    ``n_rows``; the (node, atom) places of key row t, ``occurrences[t]``; for maximal m,
    the (i, lookup) pairs of m itself and of each node i below m, ``below[m]``, lookup[a]
    the atom of i under atom a of m; for node i, the (m, masks) pairs of the maximal m
    above i, ``prune[i]``, masks[c] the bitmask of m's atoms under atom c of i. ``lower``
    holds the ``(i, m, lookup)`` of each node i below a maximal node m.
    """
    occurrences: list[list[tuple[int, int]]] = [[] for _ in range(n_rows)]
    for i, atoms in enumerate(rows):
        for idx, t in enumerate(atoms):
            occurrences[t].append((i, idx))
    below: list[list[tuple[int, list[int]]]] = [[] for _ in rows]
    prune: list[list[tuple[int, list[int]]]] = [[] for _ in rows]
    for m in maximal:
        below[m].append((m, list(range(len(rows[m])))))
    for i, m, lookup in lower:
        below[m].append((i, lookup))
        masks = [0] * len(rows[i])
        for a, c in enumerate(lookup):
            masks[c] |= 1 << a
        prune[i].append((m, masks))
    return rows, occurrences, below, prune


def _sharing_order(node_ids: list[int], rows: list, occurrences: list) -> list[int]:
    """Sort by descending degree in the projection-sharing graph, ties by id.

    A node's neighbours are the other nodes in the ``occurrences`` of its key ``rows``.
    """
    degree = {i: len({j for t in rows[i] for j, _ in occurrences[t]}) - 1 for i in node_ids}
    return sorted(node_ids, key=lambda i: (-degree[i], i))


def _assign(tables: tuple, value: list, chars: list, domains: list, m: int, atom: int) -> bool:
    """Choose ``atom`` at maximal node ``m`` and propagate; False on a conflict.

    State: key row t's value ``value[t]`` and node i's atom ``chars[i]``, -1 while
    unset; the bitmask of the atoms left to unassigned maximal node m, ``domains[m]``,
    0 otherwise. A queued (node, atom) assigns an unassigned maximal node, and the
    nodes below it the atoms under it, or else sets the node's character.

    A conflict is an emptied domain or a key given both values; no other check can
    fail. An unassigned maximal node is queued only with an atom of its domain: the
    branch's atom, or the last atom of a one-atom domain, which later narrowing keeps
    or empties, and an emptied domain returns at once. A node's character gives all of
    its keys their values in one loop, so a second atom for that node, or a 1 on
    another of its keys, first meets a 0 in the key-value check; and a key reaches its
    holders only while it is unset, so none of them has a character yet.
    """
    rows, occurrences, below, prune = tables
    queue = [(m, atom)]
    while queue:
        node, atom = queue.pop()
        if domains[node]:
            domains[node] = 0
            chosen = [(i, lookup[atom]) for i, lookup in below[node]]
        else:
            chosen = ((node, atom),)
        for node, atom in chosen:
            if chars[node] == atom:
                continue
            chars[node] = atom
            for idx, t in enumerate(rows[node]):  # the chosen atom's key is 1, its siblings' 0
                bit = 1 if idx == atom else 0
                if value[t] == bit:
                    continue
                if value[t] >= 0:
                    return False
                value[t] = bit
                for j, k in occurrences[t]:
                    domain = domains[j]
                    if domain:
                        domain = domain & (1 << k) if bit else domain & ~(1 << k)
                        if not domain:
                            return False
                        domains[j] = domain
                        if not domain & (domain - 1):
                            queue.append((j, domain.bit_length() - 1))
                    elif bit:
                        queue.append((j, k))
            # prune unassigned maximal parents to choices restricting onto this atom
            for p, masks in prune[node]:
                domain = domains[p]
                if domain and domain & masks[atom] != domain:
                    domain &= masks[atom]
                    if not domain:
                        return False
                    domains[p] = domain
                    if not domain & (domain - 1):
                        queue.append((p, domain.bit_length() - 1))
    return True


def _sections(tables: tuple, order: list[int]) -> Iterator[tuple]:
    """Depth-first search over every branch: ``(chars, expanded, backtracks)`` at each
    section found, ``chars[i]`` the atom of node i or -1 where none is set, then
    ``(None, expanded, backtracks)`` once every branch is tried.

    Choices are made at the maximal nodes ``order``, all or one component's, the first
    unassigned one each time, atoms ascending, so the sections come in lexicographic
    order of those choices. Propagation through :func:`_tables`'s ``tables``
    keeps a 0/1 value per key row: the chosen atom forces its siblings
    to 0, a projection forced to 1 forces the character of every context it generates,
    and a maximal node with all-but-one atom at 0 is assigned the remaining atom.
    """
    rows, occurrences = tables[:2]
    n = len(rows)

    def branch(state: tuple):
        """The first unassigned maximal node and its choices, or None when all are set."""
        for m in order:
            if domain := state[2][m]:
                return state, m, iter([a for a in range(domain.bit_length()) if domain >> a & 1])

    # depth-first over a stack of (state, node, atoms left) frames, from all atoms left
    domains = [0] * n
    for m in order:
        domains[m] = (1 << len(rows[m])) - 1
    stack = [branch(([-1] * len(occurrences), [-1] * n, domains))]
    expanded, backtracks = 0, 0
    while stack:
        state, m, atoms = stack[-1]
        atom = next(atoms, None)
        if atom is None:  # every choice at m failed
            stack.pop()
            if stack:
                backtracks += 1
            continue
        child = (list(state[0]), list(state[1]), list(state[2]))
        expanded += 1
        if not _assign(tables, *child, m, atom):
            backtracks += 1
            continue
        frame = branch(child)
        if frame is None:
            yield child[1], expanded, backtracks
        else:
            stack.append(frame)
    yield None, expanded, backtracks


def find_global_section(meets: CatalogMeets) -> ColoringCertificate:
    """The first global section that :func:`_sections` finds on a catalog's pairwise meets
    (:func:`~contextua.contexts.catalog_meets`), branching in sharing order, or the
    exhausted search's certificate. The section lists the chosen atom of each catalog
    context only.
    """
    tables = _tables(meets.rows, meets.n_rows, meets.maximal, meets.lower)
    order = _sharing_order(meets.maximal, *tables[:2])
    chars, expanded, backtracks = next(_sections(tables, order))
    if chars is None:
        return ColoringCertificate("non_colorable", None, expanded, backtracks)
    return ColoringCertificate("colorable", chars[: len(meets.nodes)], expanded, backtracks)


def enumerate_global_sections(poset: ContextPoset, cap: int = 10**6) -> EnumerationResult:
    """Every global section, up to ``cap`` results: the free product of each component's
    sections (:func:`section_components`), a :func:`_sections` search on its maximal
    nodes ascending. Past ``cap`` it keeps the first ``cap`` of that search on every
    maximal node, in lexicographic order of their choices; the rows it returns are
    sorted by every node's atom.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    maximal = poset.maximal_nodes()
    tables = _search_tables(poset, maximal)

    def found(order: list[int], limit: int) -> np.ndarray:  # the first limit sections
        chars = itertools.islice(_sections(tables, order), limit)
        rows = [row for row, _, _ in chars if row is not None]
        return np.array(rows, dtype=np.int64).reshape(len(rows), len(poset))

    labels = section_components(poset).tolist()
    components = []
    for c in range(max(labels) + 1):
        components.append(found([m for m, label in zip(maximal, labels) if label == c], cap + 1))
        if not len(components[-1]):  # no global section at all
            break
    if math.prod(map(len, components)) > cap:
        chosen = found(maximal, cap)
        return EnumerationResult(chosen[np.lexsort(chosen.T[::-1])], True)
    # a node's atom comes from the component above it; a node with one atom, from each
    product = np.full(len(poset), -1)
    for rows in components:
        product = np.maximum(product[..., None, :], rows)
    product = product.reshape(-1, len(poset))
    order = np.lexsort(product.T[::-1])
    return EnumerationResult(product[order], False, components, np.argsort(order))


def section_components(poset: ContextPoset) -> np.ndarray:
    """Component label of each maximal node, in ``maximal_nodes`` order.

    Two maximal nodes are linked when they lie above nodes with more than one atom
    that share an atom key, a node sharing its keys with itself. Restrictions and one
    value per key tie only these choices together, so the global sections are the
    free product of one section per component. Labels count from 0 in order of each
    component's first maximal node.
    """
    maximal = poset.maximal_nodes()
    multi = [i for i, row in enumerate(poset.rows) if len(row) > 1]
    member = np.zeros((len(multi), len(poset.keys)), dtype=bool)  # member[a, t]: t is in a
    for a, i in enumerate(multi):
        member[a, poset.rows[i]] = True
    # holds[b, t]: maximal node b lies above a node with more than one atom that holds t
    holds = poset.order[np.ix_(multi, maximal)].T @ member
    # reach[a, b]: a and b are joined by a path of links; each squaring doubles
    # the path length covered
    reach = (holds @ holds.T) | np.eye(len(maximal), dtype=bool)
    for _ in range(len(maximal).bit_length()):
        reach = reach @ reach
    first = reach.argmax(axis=1)  # each node's component, named by its first node
    return (np.cumsum(first == np.arange(len(maximal))) - 1)[first]
