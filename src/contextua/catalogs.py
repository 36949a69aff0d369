"""Bundled scenario documents.

Verdicts are never stored here; every bundled catalog is re-validated on
ingest (orthogonality, incidence) and its verdict recomputed by the tools.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from functools import reduce
from pathlib import Path
from typing import Callable

import numpy as np

# omega = exp(2 pi i / 3) and its powers, in exact form
_OMEGA = [1, ["-1/2", "sqrt(3)/2"], ["-1/2", "-sqrt(3)/2"]]


def _mub_c3_rays() -> list[list]:
    rays: list[list] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for r in range(3):
        for k in range(3):
            rays.append([1, _OMEGA[(r + k) % 3], _OMEGA[(r + 2 * k) % 3]])
    return rays


# 18 rays in dimension 4, entries in {0, 1, -1}; nine orthogonal bases,
# each ray a member of exactly two (Cabello, Estebaranz & Garcia-Alcaine,
# Phys. Lett. A 212, 183, 1996).
_KS18_RAYS = [
    [0, 0, 0, 1],
    [0, 0, 1, 0],
    [1, 1, 0, 0],
    [1, -1, 0, 0],
    [0, 1, 0, 0],
    [1, 0, 1, 0],
    [1, 0, -1, 0],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
    [0, 0, 1, 1],
    [1, 1, 1, 1],
    [0, 1, 0, -1],
    [1, 0, 0, 1],
    [1, 0, 0, -1],
    [0, 1, -1, 0],
    [1, 1, -1, 1],
    [1, 1, 1, -1],
    [-1, 1, 1, 1],
]

_KS18_BASES = [
    [0, 1, 2, 3],
    [0, 4, 5, 6],
    [7, 8, 2, 9],
    [7, 10, 6, 11],
    [1, 4, 12, 13],
    [8, 10, 13, 14],
    [15, 16, 3, 9],
    [15, 17, 5, 11],
    [16, 17, 12, 14],
]


def _chsh_scenario() -> dict:
    c = math.cos(math.pi / 8)
    s = math.sin(math.pi / 8)
    return {
        "kind": "bipartite",
        "dims": [2, 2],
        "rays": {
            "left": [[1, 0], [0, 1], [1, 1], [-1, 1]],
            "right": [[c, s], [-s, c], [c, -s], [s, c]],
        },
        "contexts": {"left": [[0, 1], [2, 3]], "right": [[0, 1], [2, 3]]},
        "product_contexts": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "state": [
            ["1/2", 0, 0, "1/2"],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            ["1/2", 0, 0, "1/2"],
        ],
        "metadata": {
            "name": "chsh-c2",
            "note": "two measurement angles per side at the optimal separation; "
            "maximally entangled state",
        },
    }


# The Mermin star: ten three-qubit Pauli observables on five lines of four
# commuting ones (Mermin, PRL 65, 3373, 1990). The product along the first
# line is -1 and along the others +1; as every observable lies on two
# lines, no assignment of values +-1 meets all five products.
_MERMIN_LINES = [
    ["XXX", "XYY", "YXY", "YYX"],
    ["XII", "IXI", "IIX", "XXX"],
    ["XII", "IYI", "IIY", "XYY"],
    ["YII", "IXI", "IIY", "YXY"],
    ["YII", "IYI", "IIX", "YYX"],
]
_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def _eigenbasis_scenario(dim: int, lines: list[list[str]], metadata: dict) -> dict:
    """One context per line of commuting Pauli words: the joint eigenbasis of its words.

    The atoms of a line are the nonzero sign projectors prod_i (I + s_i W_i)/2
    over the signs s in ``itertools.product((-1, 1), repeat=k)``; a word that
    the others generate only makes some of them zero. Each must have rank 1,
    and its ray is its first column with the largest entry, divided by its
    first largest entry: the entries of a stabilizer state are then in
    {0, +-1, +-i}, so the rays are written exactly. The products are of
    dyadic matrices and computed without rounding error.
    """
    rays: list[list] = []
    ray_of: dict[tuple[complex, ...], int] = {}
    contexts = []
    for index, line in enumerate(lines):
        words = [reduce(np.kron, [_PAULI[c] for c in word]) for word in line]
        context = []
        for signs in itertools.product((-1, 1), repeat=len(words)):
            p = reduce(np.matmul, [(np.eye(dim) + s * w) / 2 for s, w in zip(signs, words)])
            if not p.any():
                continue
            if np.trace(p) != 1 or not np.array_equal(p @ p.conj().T, p):  # p = vv*, |v| = 1
                raise ValueError(f"line {index} {line}: a sign projector is not of rank 1")
            v = p[:, np.argmax(np.abs(p).max(axis=0))]
            exact = tuple(np.round(v / v[np.argmax(np.abs(v))]).tolist())
            if exact not in ray_of:
                ray_of[exact] = len(rays)
                rays.append([int(z.real) if z.imag == 0 else [int(z.real), int(z.imag)] for z in exact])
            context.append(ray_of[exact])
        contexts.append(context)
    return {"kind": "single", "dim": dim, "rays": rays, "contexts": contexts, "metadata": metadata}


def _lagrangian_subspaces(n: int) -> list[list[int]]:
    """Every maximal isotropic subspace of GF(2)^{2n}, as a basis of n vectors.

    Vector ``v`` stands for the n-qubit Pauli word with X part ``v >> n`` and
    Z part ``v`` mod 2^n; isotropic means the words pairwise commute. Each
    subspace is reached once, through its greedy basis: every vector is the
    least of its coset of the span of those before it, that is, 0 at their
    leading bits. Subspaces come in the order of their sorted elements.
    """

    def commute(a: int, b: int) -> bool:
        return bin((a >> n) & b ^ a & (b >> n)).count("1") % 2 == 0

    found: list[tuple[list[int], list[int]]] = []

    def grow(basis: list[int], span: list[int], tops: int) -> None:
        if len(basis) == n:
            found.append((sorted(span), basis))
            return
        for v in range(basis[-1] + 1 if basis else 1, 1 << (2 * n)):
            if v & tops == 0 and all(commute(v, b) for b in basis):
                grow(basis + [v], span + [v ^ w for w in span], tops | 1 << (v.bit_length() - 1))

    grow([], [0], 0)
    return [basis for _, basis in sorted(found)]


def stabilizer_scenario(n: int) -> dict:
    """All n-qubit stabilizer bases: one context per maximal commuting set of Pauli operators.

    Each Lagrangian subspace of GF(2)^{2n} gives n commuting Pauli words,
    whose joint eigenbasis is the context: 15 bases for two qubits, 135
    for three and 2295 for four.
    """

    def word(v: int) -> str:
        # qubit q: X bit v >> (n + q), Z bit v >> q; X and Z together are Y
        return "".join("IZXY"[2 * (v >> (n + q) & 1) + (v >> q & 1)] for q in range(n))

    lines = [[word(v) for v in basis] for basis in _lagrangian_subspaces(n)]
    return _eigenbasis_scenario(
        1 << n,
        lines,
        {
            "name": f"pauli-c{1 << n}",
            "note": f"all {len(lines)} {n}-qubit stabilizer bases, one per maximal commuting "
            "set of Pauli operators; verdict recomputed on every run",
        },
    )


# each document is built when it is asked for: importing the package
# computes no eigenbasis
_BUNDLED: dict[str, Callable[[], dict]] = {
    "demo-c3": lambda: {
        "kind": "single",
        "dim": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "contexts": [[0, 1, 2]],
        "metadata": {"name": "demo-c3", "note": "one orthonormal basis; colorable"},
    },
    "ks18-c4": lambda: {
        "kind": "single",
        "dim": 4,
        "rays": _KS18_RAYS,
        "contexts": _KS18_BASES,
        "metadata": {
            "name": "ks18-c4",
            "note": "18 rays, 9 bases, each ray in exactly two bases; "
            "verdict recomputed by exhaustive search on every run",
        },
    },
    "mub-c3": lambda: {
        "kind": "single",
        "dim": 3,
        "rays": _mub_c3_rays(),
        "contexts": [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]],
        "metadata": {
            "name": "mub-c3",
            "note": "four mutually unbiased bases; informationally complete",
        },
    },
    "chsh-c2": _chsh_scenario,
    "mermin-c8": lambda: _eigenbasis_scenario(
        8,
        _MERMIN_LINES,
        {
            "name": "mermin-c8",
            "note": "Mermin star: 10 three-qubit Pauli observables, 5 lines of 4 commuting "
            "ones, one eigenbasis context per line; verdict recomputed on every run",
        },
    ),
    "pauli-c4": lambda: stabilizer_scenario(2),
}


def bundled_names() -> list[str]:
    return sorted(_BUNDLED)


def bundled_scenario(name: str) -> dict:
    if name not in _BUNDLED:
        raise KeyError(f"unknown bundled scenario {name!r}; have {bundled_names()}")
    return copy.deepcopy(_BUNDLED[name]())


def bundled_text(name: str) -> str:
    return json.dumps(bundled_scenario(name), indent=2, sort_keys=True) + "\n"


def write_bundled(directory) -> list[Path]:
    """Dump every bundled scenario as a JSON file; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in bundled_names():
        path = directory / f"{name}.json"
        path.write_text(bundled_text(name), encoding="utf-8")
        paths.append(path)
    return paths
