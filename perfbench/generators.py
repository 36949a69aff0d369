"""Seeded scenario generators for the benchmark.

Every function returns a plain scenario document (the JSON format that
``contextua`` parses) or the numbers a document is built from. Random
choices come only from the ``numpy.random.Generator`` passed in, so one
seed always gives the same documents.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def encode_vector(v) -> list:
    """Complex vector as ``[re, im]`` pairs; ``repr`` floats round-trip exactly."""
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def encode_matrix(m) -> list:
    return [encode_vector(row) for row in np.asarray(m, dtype=complex)]


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix with phases fixed."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank density matrix drawn from the Hilbert-Schmidt measure."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def single_doc(rays, contexts, name: str) -> dict:
    return {
        "kind": "single",
        "dim": len(rays[0]),
        "rays": [encode_vector(r) for r in rays],
        "contexts": [list(c) for c in contexts],
        "metadata": {"name": name},
    }


def single_basis(dim: int, unitary: np.ndarray | None = None) -> tuple[list, list]:
    """One orthonormal basis: the columns of ``unitary`` (default: the identity)."""
    u = np.eye(dim, dtype=complex) if unitary is None else unitary
    return [u[:, k] for k in range(dim)], [list(range(dim))]


def peres24() -> tuple[list, list]:
    """Peres' 24 rays in dimension 4 and their orthogonal tetrads.

    The rays are the 4 unit vectors, the 12 vectors with two entries
    +-1, and the 8 vectors (1, +-1, +-1, +-1). The tetrads are recomputed
    from orthogonality; the set has exactly 24 of them (Peres, J. Phys. A
    24 L175, 1991).
    """
    rays = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        for sign in (1, -1):
            rays.append(tuple(1 if k == i else sign if k == j else 0 for k in range(4)))
    rays += [(1, *signs) for signs in itertools.product((1, -1), repeat=3)]
    gram = np.array(rays) @ np.array(rays).T
    tetrads = [
        list(c)
        for c in itertools.combinations(range(len(rays)), 4)
        if all(gram[a, b] == 0 for a, b in itertools.combinations(c, 2))
    ]
    if len(rays) != 24 or len(tetrads) != 24:
        raise RuntimeError(f"Peres set has {len(rays)} rays and {len(tetrads)} tetrads, want 24/24")
    return [np.array(r, dtype=complex) for r in rays], tetrads


def _is_odd_prime(d: int) -> bool:
    return d > 2 and all(d % p for p in range(2, int(math.isqrt(d)) + 1))


def wootters_fields(d: int) -> tuple[list, list]:
    """The d + 1 mutually unbiased bases of an odd prime dimension d.

    Basis 0 is the computational basis; basis a + 1 holds the vectors
    v_b(j) = w^(a j^2 + b j) / sqrt(d) with w = exp(2 pi i / d)
    (Wootters & Fields, Ann. Phys. 191, 1989).
    """
    if not _is_odd_prime(d):
        raise ValueError(f"Wootters-Fields bases need an odd prime dimension, got {d}")
    j = np.arange(d)
    rays = [np.eye(d, dtype=complex)[k] for k in range(d)]
    for a in range(d):
        for b in range(d):
            rays.append(np.exp(2j * np.pi * ((a * j * j + b * j) % d) / d) / math.sqrt(d))
    return rays, [list(range(k * d, (k + 1) * d)) for k in range(d + 1)]


def rotate(rays, unitary: np.ndarray) -> list:
    """Apply one unitary to every ray; orthogonality and incidence are kept."""
    return [unitary @ np.asarray(r, dtype=complex) for r in rays]


def chsh_critical_visibility(theta: float) -> float:
    """Werner visibility above which the CHSH settings at angle theta violate."""
    return 1.0 / (abs(math.cos(theta)) + abs(math.sin(theta)))


def chsh_value(theta: float, v: float) -> float:
    """Largest CHSH value 2v(|cos theta| + |sin theta|) of the generated settings.

    Left measures at Bloch angles 0 and pi/2, right at +theta and -theta,
    on v |phi+><phi+| + (1 - v) I/4; correlations are v cos(a - b).
    """
    return 2.0 * v * (abs(math.cos(theta)) + abs(math.sin(theta)))


def chsh_grid(rng: np.random.Generator, n_theta: int, margin: float = 1e-3) -> list[tuple[float, float]]:
    """Seeded grid of (theta, v): one local and one nonlocal visibility per angle.

    Angles are jittered over (0.05, pi/2 - 0.05), away from the angles at
    which the two right-hand bases coincide. For each angle one visibility
    is drawn below and one above the critical value, leaving out the band
    within ``margin`` of the boundary in CHSH value, so every seed has the
    same verdict mix.
    """
    points = []
    for theta in stratified(rng, n_theta, 0.05, math.pi / 2 - 0.05):
        vc = chsh_critical_visibility(theta)
        # |chsh_value - 2| = 2 |v - vc| / vc, so a gap of margin * vc in v is wide enough
        gap = margin * vc
        points.append((theta, float(rng.uniform(0.5, vc - gap))))
        points.append((theta, float(rng.uniform(vc + gap, 1.0))))
    return points


def chsh_doc(theta: float, v: float) -> dict:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    state = v * np.outer(phi, phi) + (1 - v) * np.eye(4) / 4
    return {
        "kind": "bipartite",
        "dims": [2, 2],
        "rays": {
            "left": [[1, 0], [0, 1], [1, 1], [-1, 1]],
            "right": [[c, s], [-s, c], [c, -s], [s, c]],
        },
        "contexts": {"left": [[0, 1], [2, 3]], "right": [[0, 1], [2, 3]]},
        "state": encode_matrix(state),
        "metadata": {"name": f"chsh theta={theta!r} v={v!r}"},
    }


def partial_transpose(w: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Transpose of the second tensor factor (the benchmark's own copy)."""
    return w.reshape(d1, d2, d1, d2).transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2)


def isotropic_state(v: float, d: int = 3) -> np.ndarray:
    """v |Phi><Phi| + (1 - v) I / d^2 with |Phi> the maximally entangled state."""
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    return v * np.outer(phi, phi) + (1 - v) * np.eye(d * d) / (d * d)


def isotropic_doc(v: float, n_settings: int, transposed: bool) -> dict:
    """Qutrit isotropic state (or its partial transpose) with MUB settings per side."""
    rays, contexts = wootters_fields(3)
    rays = rays[: 3 * n_settings]
    w = isotropic_state(v)
    if transposed:
        w = partial_transpose(w, 3, 3)
    enc = [encode_vector(r) for r in rays]
    return {
        "kind": "bipartite",
        "dims": [3, 3],
        "rays": {"left": enc, "right": enc},
        "contexts": {"left": contexts[:n_settings], "right": contexts[:n_settings]},
        "state": encode_matrix(w),
        "metadata": {"name": f"isotropic v={v!r} settings={n_settings} pt={transposed}"},
    }


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal slices of [lo, hi)."""
    return [float(lo + (k + rng.uniform()) * (hi - lo) / n) for k in range(n)]
