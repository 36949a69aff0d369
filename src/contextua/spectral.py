"""Spectral presheaf: characters and global sections.

A character of a context picks one atom (the projection it maps to 1);
restriction along an inclusion picks the unique dominating atom, read from
the poset's dominator maps. Global sections are non-contextual 0/1 value
assignments. :func:`find_global_section` searches for one and returns a
:class:`ColoringCertificate`: the section found, or an exhausted search.
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

    Choices live on maximal nodes, so these are the only maps the search and
    the enumerator read.
    """
    return {
        (int(i), m): poset.dominator_map(int(i), m)
        for m in poset.maximal_nodes()
        for i in np.flatnonzero(poset.order[:, m])
        if i != m
    }


class _Conflict(Exception):
    pass


class _SearchState:
    """Forced characters, projection values and maximal-node domains."""

    __slots__ = ("chars", "value", "domains")

    def __init__(self, chars, value, domains):
        self.chars = chars
        self.value = value
        self.domains = domains

    def copy(self) -> "_SearchState":
        return _SearchState(
            dict(self.chars), dict(self.value), {k: set(v) for k, v in self.domains.items()}
        )


def _sharing_order(
    poset: ContextPoset, node_ids: list[int], occurrences: Mapping[str, list[tuple[int, int]]]
) -> list[int]:
    """Sort by descending degree in the projection-sharing graph, ties by id.

    A node's neighbours are the other nodes in the ``occurrences`` of its atom keys.
    """
    degree = {
        i: len({j for key in poset.atom_keys(i) for j, _ in occurrences[key]}) - 1
        for i in node_ids
    }
    return sorted(node_ids, key=lambda i: (-degree[i], i))


def find_global_section(poset: ContextPoset) -> ColoringCertificate:
    """Backtracking search for a global section of the spectral presheaf.

    Choices are made at maximal nodes (they determine the whole section);
    propagation maintains a 0/1 table over registered projections: the
    chosen atom forces its context siblings to 0, a projection forced to 1
    forces the character of every context it generates, and a maximal node
    with all-but-one atom at 0 is assigned the remaining atom.
    """
    if poset.dim < 2:
        raise ValueError("global-section search needs dimension >= 2")
    dom = _domination_maps(poset)
    n = len(poset)
    maximal = poset.maximal_nodes()
    below: dict[int, list[int]] = {m: [i for i in range(n) if poset.order[i, m]] for m in maximal}
    occurrences: dict[str, list[tuple[int, int]]] = {}
    for i in range(n):
        for idx, key in enumerate(poset.atom_keys(i)):
            occurrences.setdefault(key, []).append((i, idx))
    order_vars = _sharing_order(poset, maximal, occurrences)
    parents: dict[int, list[int]] = {
        i: [m for m in maximal if poset.order[i, m]] for i in range(n)
    }

    def set_value(state: _SearchState, key: str, bit: int, queue: list) -> None:
        prev = state.value.get(key)
        if prev is not None:
            if prev != bit:
                raise _Conflict
            return
        state.value[key] = bit
        for node, idx in occurrences[key]:
            if node in state.domains:  # unassigned maximal node
                domain = state.domains[node]
                if bit == 1:
                    if idx not in domain:
                        raise _Conflict
                    domain.intersection_update({idx})
                else:
                    domain.discard(idx)
                if not domain:
                    raise _Conflict
                if len(domain) == 1:
                    queue.append((node, next(iter(domain))))
            elif bit == 1 and node not in state.chars:
                queue.append(("char", node, idx))
            elif bit == 1 and state.chars.get(node) != idx:
                raise _Conflict

    def set_char(state: _SearchState, node: int, atom: int, queue: list) -> None:
        prev = state.chars.get(node)
        if prev is not None:
            if prev != atom:
                raise _Conflict
            return
        state.chars[node] = atom
        for idx, key in enumerate(poset.atom_keys(node)):
            set_value(state, key, 1 if idx == atom else 0, queue)
        # prune unassigned maximal parents to choices restricting onto this atom
        for m in parents[node]:
            if m not in state.domains:
                continue
            allowed = {a for a in state.domains[m] if dom[(node, m)][a] == atom}
            if not allowed:
                raise _Conflict
            if allowed != state.domains[m]:
                state.domains[m] = allowed
                if len(allowed) == 1:
                    queue.append((m, next(iter(allowed))))

    def assign(state: _SearchState, m: int, atom: int) -> None:
        queue: list = [(m, atom)]
        while queue:
            item = queue.pop()
            if item[0] == "char":
                _, node, idx = item
                set_char(state, node, idx, queue)
                continue
            node, a = item
            if node not in state.domains:
                if state.chars.get(node) != a:
                    raise _Conflict
                continue
            if a not in state.domains[node]:
                raise _Conflict
            del state.domains[node]
            for i in below[node]:
                target = dom[(i, node)][a] if i != node else a
                set_char(state, i, int(target), queue)

    def branch(state: _SearchState):
        """The first unassigned maximal node and its choices, or None when all are set."""
        m = next((m for m in order_vars if m in state.domains), None)
        return None if m is None else (state, m, iter(sorted(state.domains[m])))

    # Depth-first over an explicit stack: a self-recursive closure would form a
    # reference cycle that keeps the poset and its dominator maps alive until
    # the cyclic collector runs.
    initial = _SearchState(
        {}, {}, {m: set(range(len(poset.nodes[m].atoms))) for m in maximal}
    )
    expanded = backtracks = 0
    frame = branch(initial)
    found = initial if frame is None else None
    stack = [] if frame is None else [frame]
    while stack:
        state, m, atoms = stack[-1]
        atom = next(atoms, None)
        if atom is None:  # every choice at m failed
            stack.pop()
            if stack:
                backtracks += 1
            continue
        child = state.copy()
        expanded += 1
        try:
            assign(child, m, atom)
        except _Conflict:
            backtracks += 1
            continue
        frame = branch(child)
        if frame is None:
            found = child
            break
        stack.append(frame)
    if found is None:
        return ColoringCertificate(
            "non_colorable", None, expanded, backtracks, exhausted=True
        )
    assignment = {i: Character(i, found.chars[i]) for i in range(n)}
    section = SpectralSection(assignment, frozenset(range(n)))
    return ColoringCertificate(
        "colorable", section, expanded, backtracks, exhausted=False
    )


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
