"""Finite-dimensional complex operator algebra.

Dense matrices over C, the one projection check, density matrices, and a
registry that gives projections stable canonical identities across contexts.
A family of projections is one ``(m, d, d)`` array throughout.
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
    # an exact identity of given operators holds (a = a*, p^2 = p, u*u = 1,
    # tr = 1, <u, v> = 0); also zero LP weights, and the Jordan and
    # transition residuals of wigner-check
    exact: float = 1e-9
    context: float = 1e-8  # atoms are orthogonal and sum to 1
    # a computed result reproduces its input: a state survives a round trip, a
    # measure extends linearly
    roundtrip: float = 1e-8
    rank: float = 1e-8  # relative singular-value cut-off of reconstruction ranks
    residual: float = 1e-6  # a larger least-squares residual means an inconsistent system
    # a projection's trace this close to an integer is its rank
    eigen_gap: float = 1e-7
    dominance: float = 1e-7  # atom p lies under atom q when |qp - p| is at most this
    psd: float = 1e-7  # an eigenvalue above -psd counts as nonnegative
    # weights, tables and states computed from data: a weight above -probability
    # is nonnegative, totals and marginals this close agree, an LP distance this
    # small is zero
    probability: float = 1e-7
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


def check_projections(stack: np.ndarray, tol: float) -> None:
    """Check that each matrix of an (m, d, d) stack is a projection within ``tol``.

    A matrix passes when its entries are finite, it is self-adjoint and
    idempotent within ``tol``, and its trace is near an integer, its rank.
    Raises for the first matrix in stack order that fails.
    """
    finite = np.isfinite(stack).all(axis=(1, 2))
    # NaN distances compare False, so a non-finite matrix fails both checks
    adjoint = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= tol
    idempotent = np.abs(stack @ stack - stack).max(axis=(1, 2)) <= tol
    traces = np.trace(stack, axis1=1, axis2=2).real
    integral = np.abs(traces - np.rint(traces)) <= max(tol * stack.shape[-1], TOL.eigen_gap)
    bad = np.flatnonzero(~(finite & adjoint & idempotent & integral))
    if bad.size:
        t = bad[0]
        if not finite[t]:
            raise ValueError("operator entries must be finite")
        if not (adjoint[t] and idempotent[t]):
            raise ValueError("matrix is not a projection within tolerance")
        raise ValueError(f"projection trace {float(traces[t])} is not near an integer")


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
    arr.flags.writeable = False
    return DensityMatrix(arr)


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


def identity_rule(dist, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """What two projections at max-entry distance ``dist`` are: ``(same, rejected)``.

    Within ``tol`` they are one projection (``same``). Closer than the rounding
    grid but not within ``tol`` their identity would depend on rounding luck,
    so the pair is ``rejected``; farther apart, or at a NaN distance, they are
    distinct.
    """
    dist = np.asarray(dist)
    same = dist <= tol
    return same, (dist < TOL.grid) & ~same


# the candidates of a batch whose rows all have registered keys: it scans nothing
_NO_PAIRS = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))


class ProjectionRegistry:
    """Registry assigning canonical keys to projections of a fixed dimension.

    Cross-context identity of projections is decided here, applying
    :func:`identity_rule` to each projection of a batch in turn. One whose
    canonical key is registered is that projection when the rule calls them
    the same, and collides otherwise. Any other is decided by the first
    registered projection, in insertion order, that the rule calls the same
    or rejects: it is that projection, or it is rejected. A batch is one
    ``(m, d, d)`` array; the registry copies what it registers into one stack,
    in insertion order, with one dict from each key to its row.
    :meth:`_resolve` decides every batch: :meth:`find_many` and
    :meth:`register_many` call it, :meth:`register` is a batch of one, and
    :meth:`of_conjugates` fills fresh registries with the conjugates of one
    stack, reusing that stack's screen for all of them.
    """

    def __init__(self, dim: int, tol: float = TOL.identity):
        if not 0.0 <= tol < np.inf:  # NaN fails both comparisons
            raise ValueError(f"tol must be finite and nonnegative, got {tol}")
        self.dim = dim
        self.tol = tol
        self._rows: dict[str, int] = {}  # each registered key's row of the stack, in order
        self._stack = np.empty((0, dim, dim), dtype=complex)  # registered rows, then spare ones

    def register(self, m) -> str:
        """:meth:`register_many` of the one matrix ``m``."""
        return self.register_many(np.asarray(m)[None])[0]

    @classmethod
    def of_conjugates(
        cls,
        dim: int,
        tol: float,
        stack: np.ndarray,
        images: np.ndarray,
        keys: Sequence[Sequence[str]],
    ) -> list["tuple[ProjectionRegistry, list[str]] | CanonicalizationError"]:
        """Per list of conjugates of ``stack``, what :meth:`register_many` of it on an empty
        registry gives: that registry and the keys, or the error it would raise.

        ``images[k]`` are the images of ``stack``'s rows under one unitary or
        antiunitary conjugation, one ``(lists, m, d, d)`` array, with canonical
        ``keys[k]``. Conjugation preserves ``Re tr(a* b)``, the only thing the
        scan's Gram screen reads, so the screen of ``stack`` keeps every image
        pair within reach of the rule, for every list at once (a conjugation's
        rounding is far inside the screen's margin): it runs once, and the
        images of the pairs it keeps, with their distances, are each list's
        candidates in place of a scan.
        """
        if not len(images):
            return []
        s, t, _ = screened_pairs(stack, stack, _identity_keep(stack, max(tol, TOL.grid)))
        row, col = s[s > t], t[s > t]  # each pair as (later row, earlier row), in row order
        dists = np.abs(images[:, row] - images[:, col]).max(axis=(2, 3))
        out = []
        for ks, m, dist in zip(keys, images, dists):
            registry = cls(dim, tol)
            found, error = registry._resolve(m, list(ks), True, (row, col, dist))
            out.append((registry, found) if error is None else error)
        return out

    def find_many(self, mats: np.ndarray, keys: Sequence[str] | None = None) -> list[str | None]:
        """Key of the registered projection identified with each matrix of ``mats``, or None.

        ``keys`` are their canonical keys (:func:`canonical_keys`) when the caller
        has them. Registers nothing; raises the first rejection of the rule.
        """
        found, error = self._resolve(mats, keys, False)
        if error is not None:
            raise error
        return found

    def register_many(self, mats: np.ndarray) -> list[str]:
        """Key of each matrix of ``mats`` in turn, registering under its canonical key each
        that is new.

        A projection is identified with a registered one or with an earlier
        one of the batch, exactly as registering them one at a time would;
        on a :class:`CanonicalizationError` the earlier ones stay registered.
        """
        found, error = self._resolve(mats, None, True)
        if error is not None:
            raise error
        return found

    def _resolve(
        self, mats, keys, register: bool, pairs=None
    ) -> tuple[list, CanonicalizationError | None]:
        """The rule on each row of a batch in row order: each row's key, or None where
        nothing decides and ``register`` is False, up to the first rejection, and that.

        ``keys`` are the rows' canonical keys, computed when None. Rows of a
        registered key are decided by one stacked distance. ``pairs`` are the
        candidates of the other rows, the scan rows, as (scan row, column,
        distance) sorted by row then column: column c < len(self) is the
        projection registered c-th, and column len(self) + j is scan row j,
        which counts for a later row once it is registered. Without them one
        screened scan (:func:`_near_pairs`) finds them, among the scan rows too
        when registering. Rows registered before a rejection stay registered.
        """
        stack = np.asarray(mats, dtype=complex)
        if not len(stack):
            return [], None
        if stack.shape[1:] != (self.dim, self.dim):
            message = f"projections of shape {stack.shape[1:]} do not match registry dim {self.dim}"
            raise ValueError(message)
        keys = canonical_keys(stack) if keys is None else list(keys)
        n = len(self._rows)
        held = [self._rows.get(key) for key in keys]  # the row of each registered key
        scan = [t for t, r in enumerate(held) if r is None]
        known = [t for t, r in enumerate(held) if r is not None]
        scan_keys = [keys[t] for t in scan]
        if pairs is None and scan:
            pool = np.concatenate([self._stack[:n], stack[scan]]) if register else self._stack[:n]
            pairs = _near_pairs(stack[scan], pool, max(self.tol, TOL.grid))
        row, col, dist = pairs or _NO_PAIRS
        # a candidate that the rule calls the same or rejects decides the row; a scan row
        # is a candidate of later rows only. A batch with no candidates skips the rule's
        # array operations, a few microseconds a batch
        same = hit = dist > 0
        if len(dist):
            same, rejected = identity_rule(dist, self.tol)
            hit = (same | rejected) & (col < n + row)
        far = len(keys)  # the first row of a registered key that is not the same as it
        if known:
            existing = self._stack[[held[t] for t in known]]
            # a NaN distance is not the same, so a non-finite row collides
            miss = ~identity_rule(np.abs(existing - stack[known]).max(axis=(1, 2)), self.tol)[0]
            far = known[miss.argmax()] if miss.any() else far
        repeats = register and len(set(scan_keys)) < len(scan)  # a new key on several rows
        if not (hit.any() or repeats) and far == len(keys):  # no row needs deciding in turn
            if register and scan:  # every scan row is new: register them in bulk
                self._add(scan_keys, stack[scan] if known else stack)
            return [key if register or r is not None else None for key, r in zip(keys, held)], None
        candidates: dict[int, list[tuple[int, bool]]] = {}
        for r, c, is_same in zip(row[hit].tolist(), col[hit].tolist(), same[hit].tolist()):
            candidates.setdefault(scan[r], []).append((c, is_same))
        column = dict(zip(scan, range(n, n + len(scan))))
        column_key = list(self._rows) + scan_keys
        fresh: dict[str, int] = {}  # each key registered here, and its row's column
        found: list[str | None] = []
        error = None
        for t, key in enumerate(keys):
            near = candidates.get(t, ())
            # a registered key decides: its projection, or a collision
            within = key in fresh and any(c == fresh[key] and is_same for c, is_same in near)
            if t == far or key in fresh and not within:
                message = "distinct projections collide on the canonical rounding grid"
                error = CanonicalizationError(message, key, t)
                break
            if held[t] is not None or key in fresh:
                found.append(key)
                continue
            # else the first registered candidate: the same projection, or a rejection
            first = next(((c, s) for c, s in near if c < n or fresh.get(column_key[c]) == c), None)
            if first is None:
                if register:
                    fresh[key] = column[t]
                found.append(key if register else None)
            elif first[1]:
                found.append(column_key[first[0]])
            else:
                other = column_key[first[0]]
                message = f"projections {key} and {other} are closer than the rounding grid"
                error = CanonicalizationError(message, other, t)
                break
        if fresh:
            self._add(list(fresh), stack[[scan[c - n] for c in fresh.values()]])
        return found, error

    def _truncate(self, n: int) -> None:
        """Unregister every key after the first ``n``; their rows become spare."""
        for key in list(self._rows)[n:]:
            del self._rows[key]

    def _add(self, keys: list[str], mats: np.ndarray) -> None:
        """Register ``mats`` under ``keys``, in this order, as copies."""
        n, end = len(self._rows), len(self._rows) + len(keys)
        if end > len(self._stack):  # capacity doubles as it fills
            self._stack = np.concatenate([self._stack[:n], mats, np.empty_like(self._stack[:end])])
        else:
            self._stack[n:end] = mats
        self._rows.update(zip(keys, range(n, end)))

    def matrices(self, keys: Sequence[str]) -> np.ndarray:
        """The matrices registered under ``keys``, as one new ``(len(keys), d, d)`` array."""
        try:
            rows = [self._rows[key] for key in keys]
        except KeyError as exc:
            raise KeyError(f"unknown projection key {exc.args[0]!r}") from None
        return self._stack[np.array(rows, dtype=int)]

    def keys(self):
        return self._rows.keys()

    def __len__(self) -> int:
        return len(self._rows)
