"""Spectral presheaf: characters and global sections.

A character of a context picks one atom (the projection it maps to 1);
restriction along an inclusion picks the unique dominating atom, read from
the poset's dominator maps. Global sections are non-contextual 0/1 value
assignments. :func:`find_global_section` searches for one and returns a
:class:`ColoringCertificate`: the section found, or an exhausted search.
Its state is three flat lists, copied per expansion, and its counters are
those of the dict-and-set search it replaced, kept as a test reference.
:func:`enumerate_global_sections` lists them all under the same constraint
semantics, so the two can be played against each other as oracles.
:func:`section_components` splits the maximal nodes into components whose
sections combine freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .contexts import ContextPoset


@dataclass(frozen=True)
class Character:
    """Pure state of one context: the index of the atom sent to 1."""

    context: int
    chosen_atom: int


@dataclass(frozen=True)
class SpectralSection:
    """Compatible choice of a character per node over a down-closed domain."""

    assignment: Mapping[int, Character]
    domain: frozenset[int]

    def value_table(self, poset: ContextPoset) -> dict[str, int]:
        """0/1 value per registered projection key appearing in the domain."""
        table: dict[str, int] = {}
        for node in sorted(self.domain):
            ch = self.assignment[node]
            for idx, key in enumerate(poset.atom_keys(node)):
                table[key] = 1 if idx == ch.chosen_atom else 0
        return table


@dataclass
class ColoringCertificate:
    verdict: str  # "colorable" | "non_colorable"
    section: SpectralSection | None
    nodes_expanded: int
    backtracks: int
    exhausted: bool

    def to_report(self, poset: ContextPoset) -> dict:
        report = {
            "verdict": self.verdict,
            "stats": {
                "nodes_expanded": self.nodes_expanded,
                "backtracks": self.backtracks,
                "exhausted": self.exhausted,
            },
        }
        if self.section is not None:
            report["section"] = self.section.value_table(poset)
        return report


@dataclass
class EnumerationResult:
    """Global sections as sorted rows: ``chosen[r, i]`` is the chosen atom of node i in
    section r. Iteration yields each row as a :class:`SpectralSection`."""

    chosen: np.ndarray  # int64, one row per section
    truncated: bool

    @property
    def sections(self) -> list[SpectralSection]:
        return list(self)

    def __iter__(self):
        domain = frozenset(range(self.chosen.shape[1]))
        for row in self.chosen:
            yield SpectralSection({i: Character(i, a) for i, a in enumerate(row.tolist())}, domain)

    def __len__(self):
        return len(self.chosen)


def _domination_maps(poset: ContextPoset) -> dict[tuple[int, int], np.ndarray]:
    """The atom dominator lookup of every strict pair small < large with ``large`` maximal.

    Choices live on maximal nodes, so these are the only maps the enumerator reads.
    """
    return {
        (int(i), m): poset.dominator_map(int(i), m)
        for m in poset.maximal_nodes()
        for i in np.flatnonzero(poset.order[:, m])
        if i != m
    }


def _search_tables(poset: ContextPoset, maximal: list[int]) -> tuple:
    """``(rows, occurrences, below, prune)``: node i's atoms as key rows ``rows[i]``; the
    (node, atom) places of key row t, ``occurrences[t]``; for maximal m, the (i, lookup)
    pairs of the nodes i <= m ascending, ``below[m]``, lookup[a] the atom of i under atom
    a of m; for node i, the (m, masks) pairs of the maximal m > i, ``prune[i]``, masks[c]
    the bitmask of m's atoms under atom c of i. Only these pairs' ``over`` entries are read.
    """
    rows = [r.tolist() for r in poset.rows]
    occurrences: list[list[tuple[int, int]]] = [[] for _ in poset.keys]
    for i, atoms in enumerate(rows):
        for idx, t in enumerate(atoms):
            occurrences[t].append((i, idx))
    # every lookup in one gather from over, each maximal node's atoms padded with row 0
    width = max(len(rows[m]) for m in maximal)
    padded = np.array([rows[m] + [0] * (width - len(rows[m])) for m in maximal])
    pair_m, pair_i = np.nonzero(poset.order[:, maximal].T)
    lookups = poset.over[pair_i[:, None], padded[pair_m]].tolist()
    below: list[list[tuple[int, list[int]]]] = [[] for _ in rows]
    prune: list[list[tuple[int, list[int]]]] = [[] for _ in rows]
    for t, i, lookup in zip(pair_m.tolist(), pair_i.tolist(), lookups):
        m = maximal[t]
        lookup = lookup[: len(rows[m])] if i != m else list(range(len(rows[m])))
        below[m].append((i, lookup))
        if i != m:
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
    """
    rows, occurrences, below, prune = tables
    queue = [(m, atom)]
    while queue:
        node, atom = queue.pop()
        domain = domains[node]
        if domain:
            if not domain >> atom & 1:
                return False
            domains[node] = 0
            chosen = [(i, lookup[atom]) for i, lookup in below[node]]
        else:
            chosen = ((node, atom),)
        for node, atom in chosen:
            if chars[node] == atom:
                continue
            if chars[node] >= 0:
                return False
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
                    elif bit and chars[j] != k:
                        if chars[j] >= 0:
                            return False
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


def find_global_section(poset: ContextPoset) -> ColoringCertificate:
    """Backtracking search for a global section of the spectral presheaf.

    Choices are made at maximal nodes (they determine the whole section), in
    sharing order, atoms ascending; propagation maintains a 0/1 table over
    registered projections: the chosen atom forces its context siblings to 0,
    a projection forced to 1 forces the character of every context it
    generates, and a maximal node with all-but-one atom at 0 is assigned the
    remaining atom.
    """
    if poset.dim < 2:
        raise ValueError("global-section search needs dimension >= 2")
    n = len(poset)
    maximal = poset.maximal_nodes()
    tables = _search_tables(poset, maximal)
    order_vars = _sharing_order(maximal, *tables[:2])

    def branch(state: tuple):
        """The first unassigned maximal node and its choices, or None when all are set."""
        m = next((m for m in order_vars if state[2][m]), None)
        if m is not None:
            return state, m, iter([a for a in range(len(poset.rows[m])) if state[2][m] >> a & 1])

    # depth-first over a stack of (state, node, atoms left) frames, from all atoms left
    domains = [0] * n
    for m in maximal:
        domains[m] = (1 << len(poset.rows[m])) - 1
    stack = [branch(([-1] * len(poset.keys), [-1] * n, domains))]
    found, expanded, backtracks = None, 0, 0
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
            found = child
            break
        stack.append(frame)
    if found is None:
        return ColoringCertificate("non_colorable", None, expanded, backtracks, exhausted=True)
    assignment = {i: Character(i, a) for i, a in enumerate(found[1])}
    section = SpectralSection(assignment, frozenset(range(n)))
    return ColoringCertificate("colorable", section, expanded, backtracks, exhausted=False)


def enumerate_global_sections(poset: ContextPoset, cap: int = 10**6) -> EnumerationResult:
    """Exhaustive enumeration of global sections, up to ``cap`` results.

    Choices range over the maximal nodes only; a choice tuple survives iff
    all maximal nodes above each lower node restrict onto the same character
    there, and all maximal nodes that share an atom key give it one value
    (the poset stores no meet that says only this). The table of surviving
    tuples grows one maximal node at a time, and each check runs as soon as
    its last maximal node is placed. This is the independent oracle behind
    :func:`find_global_section`.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    dom = _domination_maps(poset)
    n = len(poset)
    maximal = sorted(poset.maximal_nodes())
    pos = {m: t for t, m in enumerate(maximal)}
    ups_of = {
        i: [m for m in maximal if i != m and poset.order[i, m]] for i in range(n) if i not in pos
    }
    checks: list[list[tuple[int, list[int]]]] = [[] for _ in maximal]
    for i, ups in ups_of.items():
        # a one-atom node restricts every choice onto its only atom
        if len(ups) >= 2 and len(poset.nodes[i].atoms) > 1:
            checks[pos[ups[-1]]].append((i, ups))
    holders: dict[str, list[tuple[int, int]]] = {}  # (maximal position, atom) per key
    for t, m in enumerate(maximal):
        for idx, key in enumerate(poset.atom_keys(m)):
            holders.setdefault(key, []).append((t, idx))
    shared: list[list[list[tuple[int, int]]]] = [[] for _ in maximal]
    for held in holders.values():
        if len(held) >= 2:
            shared[held[-1][0]].append(held)

    # one row per surviving choice tuple, in lexicographic order; atom indices
    # fit int16, and the cell bound keeps the table under 200 MB
    combos = np.zeros((1, 0), dtype=np.int16)
    for t, m in enumerate(maximal):
        count = len(poset.nodes[m].atoms)
        rows = len(combos) * count
        if rows * (t + 1) > 10**8:
            raise ValueError(f"choice table of {rows} rows too large to enumerate")
        atoms = np.tile(np.arange(count, dtype=np.int16), len(combos))
        combos = np.column_stack([np.repeat(combos, count, axis=0), atoms])
        mask = np.ones(rows, dtype=bool)
        for i, ups in checks[t]:
            ref = dom[(i, ups[0])][combos[:, pos[ups[0]]]]
            for u in ups[1:]:
                mask &= dom[(i, u)][combos[:, pos[u]]] == ref
        for (u, a), *rest in shared[t]:
            ref = combos[:, u] == a
            for u, a in rest:
                mask &= (combos[:, u] == a) == ref
        combos = combos[mask]
    truncated = len(combos) > cap
    combos = combos[:cap]

    chosen = np.empty((len(combos), n), dtype=np.int64)
    for m, t in pos.items():
        chosen[:, m] = combos[:, t]
    for i, ups in ups_of.items():
        chosen[:, i] = dom[(i, ups[0])][combos[:, pos[ups[0]]]]
    return EnumerationResult(chosen[np.lexsort(chosen.T[::-1])], truncated)


def section_components(poset: ContextPoset) -> np.ndarray:
    """Component label of each maximal node, in ``maximal_nodes`` order.

    Two maximal nodes are linked when they lie above a common node with
    more than one atom or share an atom key: these are the only pairs whose
    choices :func:`enumerate_global_sections` checks against each other. So
    the global sections are the free product of one section per component.
    Labels count from 0 in order of each component's first maximal node.
    """
    maximal = poset.maximal_nodes()
    multi = [i for i, node in enumerate(poset.nodes) if len(node.atoms) > 1]
    link = poset.order[np.ix_(multi, maximal)]
    member = np.zeros((len(maximal), len(poset.keys)), dtype=bool)  # member[a, t]: t is in a
    for a, m in enumerate(maximal):
        member[a, poset.rows[m]] = True
    # reach[a, b]: a and b are joined by a path of links; each squaring doubles
    # the path length covered
    reach = (link.T @ link) | (member @ member.T) | np.eye(len(maximal), dtype=bool)
    for _ in range(len(maximal).bit_length()):
        reach = reach @ reach
    return np.unique(reach.argmax(axis=1), return_inverse=True)[1]
