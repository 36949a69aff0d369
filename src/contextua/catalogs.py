"""Bundled scenario documents.

Verdicts are never stored here; every bundled catalog is re-validated on
ingest (orthogonality, incidence) and its verdict recomputed by the tools.
"""

from __future__ import annotations

import copy
import json
import math
from functools import reduce
from pathlib import Path
from typing import Callable

import numpy as np

from .contexts import context_from_observables
from .opalg import ProjectionRegistry

# omega = exp(2 pi i / 3) and its powers, in exact form
_OMEGA = [1, ["-1/2", "sqrt(3)/2"], ["-1/2", "-sqrt(3)/2"]]


def _mub_c3_rays() -> list[list]:
    rays: list[list] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for r in range(3):
        for k in range(3):
            rays.append([1, _OMEGA[(r + k) % 3], _OMEGA[(r + 2 * k) % 3]])
    return rays


# 18 rays in dimension 4, entries in {0, 1, -1}; nine orthogonal bases,
# each ray a member of exactly two. Standard coordinates from the
# eighteen-vector construction in the literature.
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
    """One context per line of commuting Pauli words: the joint eigenbasis of its observables.

    Each ray is a column of its eigenprojector. Every eigenvector of
    commuting Pauli operators has entries in {0, +-1, +-i} once divided by
    its largest entry, so the rays are written exactly.
    """
    registry = ProjectionRegistry(dim)
    rays: list[list] = []
    ray_of: dict[str, int] = {}
    contexts = []
    for line in lines:
        ops = [reduce(np.kron, [_PAULI[c] for c in word]) for word in line]
        ctx = context_from_observables(registry, ops)
        for key in ctx.atoms:
            if key in ray_of:
                continue
            p = registry.matrices([key])[0]
            v = p[:, np.argmax(np.abs(p).max(axis=0))]
            v = v / v[np.argmax(np.abs(v))]
            exact = np.round(v.real) + 1j * np.round(v.imag)
            if not np.allclose(exact, v):
                raise RuntimeError("Pauli eigenvector is not a {0, +-1, +-i} vector")
            ray_of[key] = len(rays)
            rays.append([int(z.real) if z.imag == 0 else [int(z.real), int(z.imag)] for z in exact])
        contexts.append([ray_of[key] for key in ctx.atoms])
    return {"kind": "single", "dim": dim, "rays": rays, "contexts": contexts, "metadata": metadata}


def _lagrangian_subspaces(n: int) -> list[list[int]]:
    """Every maximal isotropic subspace of GF(2)^{2n}, as a basis of n vectors.

    Vector ``v`` stands for the n-qubit Pauli word with X part ``v >> n`` and
    Z part ``v`` mod 2^n; isotropic means the words pairwise commute.
    Subspaces come in the order of their sorted elements.
    """

    def commute(a: int, b: int) -> bool:
        return bin((a >> n) & b ^ a & (b >> n)).count("1") % 2 == 0

    found: dict[tuple[int, ...], list[int]] = {}

    def grow(basis: list[int], span: set[int]) -> None:
        if len(basis) == n:
            found.setdefault(tuple(sorted(span)), basis)
            return
        for v in range(max(basis, default=0) + 1, 1 << (2 * n)):
            if v not in span and all(commute(v, b) for b in basis):
                grow(basis + [v], span | {v ^ w for w in span})

    grow([], {0})
    return [found[k] for k in sorted(found)]


def stabilizer_scenario(n: int) -> dict:
    """All n-qubit stabilizer bases: one context per maximal commuting set of Pauli operators.

    Each Lagrangian subspace of GF(2)^{2n} gives n commuting Pauli words,
    whose joint eigenbasis is the context: 15 bases for two qubits, 135
    for three.
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
