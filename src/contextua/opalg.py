"""Finite-dimensional complex operator algebra.

Dense matrices over C, projections and their lattice operations, spectral
decomposition, Jordan product, and a registry that gives projections stable
canonical identities across contexts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Every numerical threshold, one field per decision; distances are max-entry norms.

    ``--tol`` overrides ``identity`` only, as the scenario registries' tolerance.
    """

    identity: float = 1e-9  # two projections this close are one projection
    # canonical keys round entries to this many decimals; distinct projections
    # closer than the grid 10**-key_decimals are rejected, never merged
    key_decimals: int = 6
    # an exact identity of given operators holds (a = a*, p^2 = p, ab = ba, u*u = 1,
    # tr = 1, <u, v> = 0, |v| > 0); also null singular values of meets, zero LP
    # weights, and the Jordan and transition residuals of wigner-check
    exact: float = 1e-9
    context: float = 1e-8  # atoms are orthogonal and sum to 1; observables commute
    # a computed result reproduces its input: spectral atoms sum back to the
    # operator, a state survives a round trip, a measure extends linearly
    roundtrip: float = 1e-8
    rank: float = 1e-8  # relative singular-value cut-off of reconstruction ranks
    residual: float = 1e-6  # a larger least-squares residual means an inconsistent system
    # eigenvalues this close are one eigenvalue; a projection's trace this close
    # to an integer is its rank
    eigen_gap: float = 1e-7
    dominance: float = 1e-7  # atom p lies under atom q when |qp - p| is at most this
    psd: float = 1e-7  # an eigenvalue above -psd counts as nonnegative
    # weights, tables and states computed from data: a weight above -probability
    # is nonnegative, totals and marginals this close agree, an LP distance this
    # small is zero
    probability: float = 1e-7
    membership: float = 1e-7  # an operator is in a context if its atom expansion misses by less
    # a symmetry image of an atom is a projection, and image commutators match
    # up to this times their size
    conjugation: float = 1e-7

    @property
    def grid(self) -> float:
        return 10.0 ** -self.key_decimals


TOL = Tolerances()


class CanonicalizationError(ValueError):
    """Two distinct projections are closer than the rounding grid: ``key`` is the
    registered one, ``index`` the rejected one's place in its batch."""

    def __init__(self, message: str, key: str, index: int):
        super().__init__(message)
        self.key = key
        self.index = index


def as_operator(m) -> np.ndarray:
    """Validate and return a square complex matrix with finite entries."""
    arr = np.array(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("operator entries must be finite")
    return arr


def max_norm(m) -> float:
    """Max-entry absolute norm, the equality yardstick used throughout."""
    arr = np.asarray(m)
    return float(np.abs(arr).max()) if arr.size else 0.0


def is_projection(m, tol: float = TOL.exact) -> bool:
    """True iff ``m`` is self-adjoint and idempotent within ``tol``."""
    arr = as_operator(m)
    if max_norm(arr - arr.conj().T) > tol:
        return False
    return max_norm(arr @ arr - arr) <= tol


def commutes(a, b, tol: float = TOL.exact) -> bool:
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValueError("operators must have equal dimension")
    return max_norm(a @ b - b @ a) <= tol


def jordan_product(a, b) -> np.ndarray:
    """Symmetrized product (ab + ba) / 2; self-adjoint for self-adjoint inputs."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValueError("operators must have equal dimension")
    return 0.5 * (a @ b + b @ a)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Projection:
    """A validated projection matrix together with its rank."""

    matrix: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "Projection":
        return Projection(_readonly(np.eye(self.dim) - self.matrix), self.dim - self.rank)


def projection(m, tol: float = TOL.exact) -> Projection:
    """Build a :class:`Projection`, enforcing self-adjointness and idempotence.

    The rank is the rounded trace; a trace that is not close to an integer
    means the input is not a projection and is rejected.
    """
    arr = as_operator(m)
    if not is_projection(arr, tol):
        raise ValueError("matrix is not a projection within tolerance")
    tr = float(np.real(np.trace(arr)))
    rank = int(round(tr))
    if abs(tr - rank) > max(tol * arr.shape[0], TOL.eigen_gap):
        raise ValueError(f"projection trace {tr} is not near an integer")
    return Projection(_readonly(arr), rank)


def identity_projection(dim: int) -> Projection:
    return Projection(_readonly(np.eye(dim, dtype=complex)), dim)


def zero_projection(dim: int) -> Projection:
    return Projection(_readonly(np.zeros((dim, dim), dtype=complex)), 0)


@dataclass(frozen=True)
class Ray:
    """A unit vector considered up to global phase."""

    vector: np.ndarray

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


def ray(v) -> Ray:
    arr = np.array(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(arr))
    if norm <= TOL.exact:
        raise ValueError("degenerate ray")
    return Ray(_readonly(arr / norm))


def projection_from_ray(r) -> Projection:
    """Rank-1 projection |v><v| onto the ray; phase drops out."""
    if not isinstance(r, Ray):
        r = ray(r)
    v = r.vector
    return Projection(_readonly(np.outer(v, v.conj())), 1)


@dataclass(frozen=True)
class DensityMatrix:
    """Self-adjoint, trace-1, positive-semidefinite matrix."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def density_matrix(m, tol: float = TOL.exact) -> DensityMatrix:
    arr = as_operator(m)
    if max_norm(arr - arr.conj().T) > tol:
        raise ValueError("density matrix must be self-adjoint")
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > tol * arr.shape[0]:
        raise ValueError(f"density matrix must have trace 1, got {tr}")
    floor = float(np.min(np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))))
    if floor < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {floor}")
    return DensityMatrix(_readonly(arr))


def meet(p: Projection, q: Projection) -> Projection:
    """Projection onto the intersection of the two images.

    Computed as the null space of (1-p) + (1-q): a vector is killed by that
    positive operator exactly when it lies in both images. Singular values
    below ``TOL.exact`` count as zero, which also fixes the rank.
    """
    if p.dim != q.dim:
        raise ValueError("projections must have equal dimension")
    d = p.dim
    a = (np.eye(d) - p.matrix) + (np.eye(d) - q.matrix)
    _, s, vh = np.linalg.svd(a)
    null_mask = s <= max(TOL.exact, s[0] * TOL.exact)
    basis = vh[null_mask].conj().T  # columns span the intersection
    rank = basis.shape[1]
    if rank == 0:
        return zero_projection(d)
    return Projection(_readonly(basis @ basis.conj().T), rank)


def join(p: Projection, q: Projection) -> Projection:
    """Projection onto the span of the two images, via 1 - ((1-p) ^ (1-q))."""
    return meet(p.complement(), q.complement()).complement()


def cluster_eigenvalues(evals: np.ndarray) -> list[np.ndarray]:
    """Group sorted eigenvalues into clusters separated by at least ``TOL.eigen_gap``.

    Merging numerically split degenerate eigenvalues is required before
    forming spectral atoms, otherwise a single eigenspace shows up as
    several nearly-parallel projections.
    """
    order = np.argsort(evals)
    groups: list[list[int]] = []
    for idx in order:
        if groups and evals[idx] - evals[groups[-1][-1]] < TOL.eigen_gap:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.array(g) for g in groups]


def spectral_atoms(a) -> list[tuple[float, Projection]]:
    """Spectral decomposition of a self-adjoint matrix into eigenvalue atoms.

    Returns pairs (eigenvalue, projection) with mutually orthogonal
    projections summing to the identity; eigenvalues are distinct after
    clustering. The reconstruction sum(A_i p_i) is checked against the
    input within ``TOL.roundtrip``.
    """
    arr = as_operator(a)
    if max_norm(arr - arr.conj().T) > TOL.exact:
        raise ValueError("spectral_atoms requires a self-adjoint matrix")
    herm = 0.5 * (arr + arr.conj().T)
    evals, vecs = np.linalg.eigh(herm)
    atoms: list[tuple[float, Projection]] = []
    for group in cluster_eigenvalues(evals):
        block = vecs[:, group]
        value = float(np.mean(evals[group]))
        atoms.append((value, Projection(_readonly(block @ block.conj().T), len(group))))
    recon = sum(val * p.matrix for val, p in atoms)
    if max_norm(recon - herm) > TOL.roundtrip:
        raise RuntimeError("spectral reconstruction failed beyond tolerance")
    return atoms


def canonical_keys(mats) -> list[str]:
    """Canonical identity of each projection of an (m, d, d) stack: entries rounded to the grid.

    Projection matrices carry no global phase (|v><v| is phase-free), so
    rounding the real and imaginary parts to ``TOL.key_decimals`` decimals
    is already canonical; -0.0 is normalized to 0.0 before hashing.
    """
    arr = np.asarray(mats, dtype=complex)
    parts = np.round(np.stack([arr.real, arr.imag], axis=-3), TOL.key_decimals) + 0.0
    return ["p" + hashlib.sha1(part.tobytes()).hexdigest()[:12] for part in parts]


# entries of one block of a batched product or screen, bounding its temporaries
BLOCK = 1 << 20
# A pair within max-entry distance r has squared Frobenius distance at most d^2 r^2
# (d^2 entries, each at most r). The Gram form |a|^2 + |b|^2 - 2 Re<a, b> of that
# distance errs by less than d^3 eps for projections (|a|^2 = rank <= d), which stays
# below 3 d^2 r^2 for r >= TOL.grid while d < 10^4; so screening at this multiple of
# d^2 r^2 drops no pair within r. It is a screen, not a tolerance: survivors are
# compared entrywise.
_IDENTITY_SCREEN = 4.0


def real_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``g[s, t] = Re tr(a[s]* b[t])`` for two complex stacks, as one real product.

    For self-adjoint a[s] and b[t] this is ``tr(a[s] b[t])``. The real and
    imaginary parts of the flattened entries are read as one real row each.
    """
    return _real_rows(a) @ _real_rows(b).T


def _real_rows(a: np.ndarray) -> np.ndarray:
    """Each matrix of a complex stack as one real row: its entries' real and imaginary parts."""
    return np.ascontiguousarray(a, dtype=complex).reshape(len(a), -1).view(float)


def screened_pairs(
    rows: np.ndarray, pool: np.ndarray, keep, measure=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs ``(s, t)`` of two stacks that a Gram screen keeps, sorted, with the measure of each.

    ``keep(block, gram)`` marks the pairs to keep from a block of rows' :func:`real_gram`
    against ``pool``; ``measure(a, b)`` gives one value per kept pair from the stacked
    matrices of its two sides, a chunk of pairs at a time. ``BLOCK`` bounds both. Without
    ``measure`` every value is 0: the screen alone.
    """
    found = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))]
    if len(rows) and len(pool):
        step = max(1, BLOCK // len(pool))  # rows per Gram block
        chunk = max(1, BLOCK // pool[0].size)  # kept pairs per measured chunk
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            s, t = np.nonzero(keep(block, real_gram(block, pool)))
            if measure is None:
                found.append((start + s, t, np.zeros(len(s))))
                continue
            for c in range(0, len(s), chunk):
                sc, tc = s[c : c + chunk], t[c : c + chunk]
                found.append((start + sc, tc, measure(block[sc], pool[tc])))
    s, t, value = (np.concatenate(part) for part in zip(*found))
    return s, t, value


def _identity_keep(pool: np.ndarray, reach: float):
    """Gram screen of the pairs within max-entry distance ``reach`` of ``pool``, by their
    squared Frobenius distance (:data:`_IDENTITY_SCREEN`), for :func:`screened_pairs`."""
    bound = _IDENTITY_SCREEN * (pool.shape[-1] * reach) ** 2
    pool_norms = (np.abs(pool) ** 2).sum(axis=(1, 2))

    def keep(block, gram):
        gram *= -2.0  # in place: the squared distances of a block of pairs
        gram += (np.abs(block) ** 2).sum(axis=(1, 2))[:, None]
        gram += pool_norms
        return gram <= bound

    return keep


def _near_pairs(
    rows: np.ndarray, pool: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted pairs ``(s, t)`` with their max-entry distances, every pair within ``reach`` among
    them; several rows are screened by squared Frobenius distance first."""
    if len(rows) == 1:  # a screen pays for its pass over the pool only across several rows
        dist = np.abs(pool - rows[0]).max(axis=(1, 2))
        t = np.flatnonzero(dist <= reach)
        return np.zeros(len(t), dtype=int), t, dist[t]
    keep = _identity_keep(pool, reach)
    return screened_pairs(rows, pool, keep, lambda a, b: np.abs(a - b).max(axis=(1, 2)))


def _decides(dist: np.ndarray, tol: float) -> np.ndarray:
    """Whether a registered projection at max-entry distance ``dist`` decides another:
    within ``tol`` it is that projection (jitter across a rounding boundary), and closer
    than the grid it rejects it."""
    return (dist <= tol) | (dist < TOL.grid)


def _collision(key: str, index: int) -> CanonicalizationError:
    """Row ``index`` has a registered projection's canonical key but is not within tol of it."""
    return CanonicalizationError(
        "distinct projections collide on the canonical rounding grid", key, index
    )


def _too_close(key: str, other_key: str, index: int) -> CanonicalizationError:
    """Row ``index`` (key ``key``) is closer than the grid to ``other_key``, not within tol."""
    return CanonicalizationError(
        f"projections {key} and {other_key} are closer than the rounding grid", other_key, index
    )


class ProjectionRegistry:
    """Registry assigning canonical keys to projections of a fixed dimension.

    Cross-context identity of projections is decided here and nowhere else:
    a projection within ``tol`` entrywise of a registered one is that
    projection and gets its key. A pair of distinct projections closer than
    the rounding grid is rejected outright, since their identity would
    depend on rounding luck. Every call decides a batch, :meth:`find` and
    :meth:`register` a batch of one: a registered canonical key decides
    without a scan, and screened scans (:func:`_near_pairs`) find the
    registered projections that decide the other rows.
    :meth:`of_conjugates` fills fresh registries with the conjugates of one
    stack, reusing that stack's screen for all of them.
    """

    def __init__(self, dim: int, tol: float = TOL.identity):
        if not 0.0 <= tol < np.inf:  # NaN fails both comparisons
            raise ValueError(f"tol must be finite and nonnegative, got {tol}")
        self.dim = dim
        self.tol = tol
        self._by_key: dict[str, Projection] = {}
        self._order: list[str] = []  # registered keys in insertion order
        # registered matrices in insertion order; capacity doubles as it fills
        self._stack = np.empty((4, dim, dim), dtype=complex)

    def find(self, p: Projection) -> str | None:
        """:meth:`find_many` of ``p`` alone."""
        return self.find_many([p])[0]

    def register(self, p) -> str:
        """:meth:`register_many` of ``p`` alone, a :class:`Projection` or a matrix."""
        if not isinstance(p, Projection):
            p = projection(p)
        return self.register_many([p])[0]

    @classmethod
    def of_conjugates(
        cls,
        dim: int,
        tol: float,
        stack: np.ndarray,
        images: Sequence[Sequence[Projection]],
        keys: Sequence[Sequence[str]],
    ) -> list["ProjectionRegistry | None"]:
        """Per list of conjugates of ``stack``, what :meth:`register_many` of it gives an
        empty registry, or None where that would merge or reject some of them.

        ``images[k]`` are the images of ``stack``'s rows under one unitary or
        antiunitary conjugation, with canonical ``keys[k]``. Conjugation
        preserves ``Re tr(a* b)``, the only thing the scan's Gram screen
        reads, so the screen of ``stack`` keeps every image pair within reach
        of the rule, for every list at once (a conjugation's rounding is far
        inside the screen's margin): it runs once, and only the images of the
        pairs it keeps are compared entrywise. A list gets None when the rule
        decides one of those pairs or two of its keys repeat; registering it
        one batch at a time is what decides then.
        """
        if not images:
            return []
        reach = max(tol, TOL.grid)
        s, t, _ = screened_pairs(stack, stack, _identity_keep(stack, reach))
        s, t = s[s < t], t[s < t]
        shape = (len(images), len(s), dim, dim)
        above = np.array([[ps[i].matrix for i in s] for ps in images]).reshape(shape)
        below = np.array([[ps[i].matrix for i in t] for ps in images]).reshape(shape)
        decided = _decides(np.abs(above - below).max(axis=(2, 3)), tol).any(axis=1)
        out: list[ProjectionRegistry | None] = []
        for ps, ks, merges in zip(images, keys, decided):
            if merges or len(set(ks)) < len(ks):
                out.append(None)
                continue
            registry = cls(dim, tol)
            registry._stack, keyed = registry._batch(ps, ks)
            registry._by_key = dict(zip(keyed, ps))
            registry._order = keyed
            out.append(registry)
        return out

    def find_many(
        self, ps: Sequence[Projection], keys: Sequence[str] | None = None
    ) -> list[str | None]:
        """Key of the registered projection identified with each of ``ps``, or None.

        ``keys`` are their canonical keys (:func:`canonical_keys`) when the
        caller has them. Registers nothing. Raises the
        :class:`CanonicalizationError` of the first projection that a
        registered one lies closer to than the grid but not within ``tol``.
        The rows whose canonical key is registered are decided by one stacked
        distance to those projections, the others by a screened scan.
        """
        if not ps:
            return []
        stack, keys = self._batch(ps, keys)
        held = [self._by_key.get(key) for key in keys]
        out: list[str | None] = [None if p is None else key for p, key in zip(held, keys)]
        known = [t for t, p in enumerate(held) if p is not None]
        failed: tuple[int, CanonicalizationError] | None = None  # the first failing row
        if known:
            existing = np.array([held[t].matrix for t in known])
            # NaN distances compare False, so a non-finite row collides as in _decide
            far = np.flatnonzero(~(np.abs(existing - stack[known]).max(axis=(1, 2)) <= self.tol))
            if far.size:
                t = known[far[0]]
                failed = t, _collision(keys[t], t)
        scan = [t for t, p in enumerate(held) if p is None]
        for t, hits in self._near(stack, scan, self._stack[: len(self._order)]).items():
            if failed is not None and t > failed[0]:
                break
            position, dist = hits[0]  # the first registered projection that decides
            other_key = self._order[position]
            if dist <= self.tol:
                out[t] = other_key
            else:
                failed = t, _too_close(keys[t], other_key, t)
                break
        if failed is not None:
            raise failed[1]
        return out

    def register_many(self, ps: Sequence[Projection]) -> list[str]:
        """Key of each of ``ps`` in turn, registering under its canonical key each that is new.

        A projection is identified with a registered one or with an earlier
        one of the batch, exactly as registering them one at a time would;
        on a :class:`CanonicalizationError` the earlier ones stay registered.
        The object given is the one stored. Each round of the batch scans the
        first row of each unregistered canonical key, against the registered
        projections and those rows; a later row of that key is decided by the
        key, or starts the next round if the first row got another key.
        """
        if not ps:
            return []
        stack, keys = self._batch(ps)
        out: list[str] = []
        while len(out) < len(ps):
            start, n = len(out), len(self._order)
            back = range(len(ps) - 1, start - 1, -1)  # backwards: each key ends at its first row
            scan = sorted({keys[t]: t for t in back if keys[t] not in self._by_key}.values())
            near = self._near(stack, scan, np.concatenate([self._stack[:n], stack[scan]]))
            # insertion position of each pool column; -1 while its batch row is not registered
            position = list(range(n)) + [-1] * len(scan)
            column = {t: n + j for j, t in enumerate(scan)}
            for t in range(start, len(ps)):
                if keys[t] not in self._by_key and t not in column:
                    break  # the next round scans this row
                hits = [(position[c], d) for c, d in near.get(t, ()) if position[c] >= 0]
                found = self._decide(t, keys[t], stack[t], hits)
                if found is None:
                    position[column[t]] = len(self._order)
                    self._add(keys[t], ps[t])
                    found = keys[t]
                out.append(found)
        return out

    def _near(
        self, stack: np.ndarray, scan: list[int], pool: np.ndarray
    ) -> dict[int, list[tuple[int, float]]]:
        """Per row of ``stack`` in ``scan``: each pool column that decides it, and the distance."""
        if not scan:
            return {}
        s, t, dist = _near_pairs(stack[scan], pool, max(self.tol, TOL.grid))
        hit = _decides(dist, self.tol)
        out: dict[int, list[tuple[int, float]]] = {}
        for row, col, d in zip(s[hit].tolist(), t[hit].tolist(), dist[hit].tolist()):
            out.setdefault(scan[row], []).append((col, d))
        return out

    def _batch(
        self, ps: Sequence[Projection], keys: Sequence[str] | None = None
    ) -> tuple[np.ndarray, list[str]]:
        for p in ps:
            if p.dim != self.dim:
                raise ValueError(f"projection dim {p.dim} does not match registry dim {self.dim}")
        stack = np.array([p.matrix for p in ps], dtype=complex).reshape(-1, self.dim, self.dim)
        return stack, canonical_keys(stack) if keys is None else list(keys)

    def _add(self, key: str, p: Projection) -> None:
        n = len(self._order)
        if n == len(self._stack):
            self._stack = np.concatenate([self._stack, np.empty_like(self._stack)])
        self._stack[n] = p.matrix
        self._by_key[key] = p
        self._order.append(key)

    def _decide(self, index: int, key: str, m: np.ndarray, hits) -> str | None:
        """Key of the registered projection that matrix ``m`` of canonical key ``key`` is, or None.

        ``hits`` lists the insertion position and distance of every
        registered projection that decides for ``m`` (:meth:`_near`), in insertion
        order; it is read only when no projection has ``key``, and its first
        entry decides. A rejection carries ``index``, ``m``'s place in its batch.
        """
        existing = self._by_key.get(key)
        if existing is not None:
            if max_norm(existing.matrix - m) <= self.tol:
                return key
            raise _collision(key, index)
        for position, dist in hits:
            other_key = self._order[position]
            if dist <= self.tol:
                return other_key
            raise _too_close(key, other_key, index)
        return None

    def get(self, key: str) -> Projection:
        try:
            return self._by_key[key]
        except KeyError:
            raise KeyError(f"unknown projection key {key!r}") from None

    def keys(self):
        return self._by_key.keys()

    def items(self):
        return self._by_key.items()

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    def __len__(self) -> int:
        return len(self._by_key)
