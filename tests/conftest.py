"""Shared fixtures: standard posets, random-object helpers, reference routines, section oracles."""

from __future__ import annotations

import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import settings

import contextua as cx
from contextua import contexts, spectral
from contextua.bell import SectionClassification
from contextua.catalogs import bundled_text
from contextua.contexts import context_from_projections, poset_from_nodes
from contextua.gleason import ProbSection, context_measure, hermitian_basis
from contextua.opalg import TOL, CanonicalizationError, canonical_keys, max_norm
from contextua.scenario import ScenarioError, _catalog, _parse_index
from contextua.spectral import EnumerationResult
from contextua.wigner import JordanReport, PosetMap

# HYPOTHESIS_PROFILE=ci runs the tests that do not fix max_examples five times deeper
settings.register_profile("ci", max_examples=5 * settings.get_profile("default").max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return cx.density_matrix(m / np.trace(m).real, tol=1e-7)


def random_basis_context(rng, registry):
    u = random_unitary(rng, registry.dim)
    atoms = np.array([np.outer(u[:, k], u[:, k].conj()) for k in range(registry.dim)])
    return context_from_projections(registry, atoms)


def ray_projection(v):
    """The rank-1 projection |v><v| / <v|v> onto the ray of ``v``."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def diagonal_atoms(labels):
    """The spectral projections of diag(labels), one (m, d, d) array in increasing label order."""
    labels = np.asarray(labels)
    return np.array([np.diag(labels == x).astype(complex) for x in np.unique(labels)])


def rank_of(p):
    """A projection's rank: its rounded trace."""
    return round(float(np.trace(p).real))


def canonical_key(matrix):
    """Canonical key of one projection matrix."""
    return canonical_keys([matrix])[0]


def is_section(poset, values, tol):
    """Whether per-atom weights over a set of nodes form a section of the presheaf.

    ``values[i]`` holds one weight per atom of node i; a character is the 0/1
    vector of its chosen atom. ``poset`` is a context poset or a product
    poset: anything with ``len``, ``order``, ``atom_keys`` and
    ``dominator_map``. The domain must be down-closed. Along every inclusion
    i < j in it, pushing j's weights forward along ``dominator_map(i, j)``
    must give i's weights, and a projection that is an atom of several nodes
    must carry one weight; both within ``tol``.
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
    seen = {}
    for i in domain:
        for key, w in zip(poset.atom_keys(i), values[i]):
            if abs(seen.setdefault(key, w) - w) > tol:
                return False
    return True


def verify_section(poset, section):
    """Exact section check of a spectral section, with choices in range.

    ``section`` maps node ids to chosen atoms: a dict, or a row with one atom per
    node. Each choice enters :func:`is_section` as the 0/1 weight vector of its
    chosen atom, compared exactly.
    """
    chosen = section if isinstance(section, dict) else dict(enumerate(section))
    values = {}
    for node, atom in chosen.items():
        if not (0 <= node < len(poset)):
            return False
        count = len(poset.nodes[node].atoms)
        if not (0 <= atom < count):
            return False
        values[node] = np.eye(count)[atom]
    return is_section(poset, values, 0.0)


def verify_prob_section(poset, s):
    """Marginalisation compatibility plus equal weights on shared projections."""
    return is_section(poset, s.assignment, TOL.probability)


def verify_bell_section(s):
    """Table shapes and totals, marginalisation along the product order, shared-pair consistency."""
    pp = s.poset
    values = {}
    for node, t in s.tables.items():
        if t.probs.shape != pp.table_shape(node):
            return False
        if abs(float(t.probs.sum()) - 1.0) > TOL.probability:
            return False
        values[pp.index(node)] = t.probs.reshape(-1)
    return is_section(pp, values, TOL.probability)


def loop_check_no_signalling(s, tol=TOL.exact):
    """Reference no-signalling check: one loop per side over the tables grouped by that
    side's node, each against the group's first table."""
    by_left, by_right = {}, {}
    for node in s.domain:
        by_left.setdefault(node[0], []).append(node)
        by_right.setdefault(node[1], []).append(node)
    for siblings in by_left.values():
        ref = s.tables[siblings[0]].probs.sum(axis=1)
        for node in siblings[1:]:
            if max_norm(s.tables[node].probs.sum(axis=1) - ref) > tol:
                return False
    for siblings in by_right.values():
        ref = s.tables[siblings[0]].probs.sum(axis=0)
        for node in siblings[1:]:
            if max_norm(s.tables[node].probs.sum(axis=0) - ref) > tol:
                return False
    return True


def restrict_choice(poset, source, atom, target):
    """Restriction of a character, the choice of ``atom`` at node ``source``, to a smaller
    context: the atom of ``target`` under it."""
    if target == source:
        return atom
    if not poset.order[target, source]:
        raise ValueError(f"target node {target} is not below context {source}")
    return int(poset.dominator_map(target, source)[atom])


def marginal_prob_section(s, side):
    """One party's marginal measures, as a section over its factor poset."""
    pp = s.poset
    poset = pp.left if side == "left" else pp.right
    assignment = {}
    for node in sorted(s.domain):
        local = node[0] if side == "left" else node[1]
        if local in assignment:
            continue
        t = s.tables[node]
        w = t.probs.sum(axis=1 if side == "left" else 0)
        assignment[local] = context_measure(poset, local, w, tol=TOL.probability)
    return ProbSection(assignment)


def apply_symmetry(s, x):
    """Conjugation action on operators: u x u*, with complex conjugation first if antiunitary."""
    arr = np.asarray(x, dtype=complex)
    return s.matrix @ (arr.conj() if s.kind == "antiunitary" else arr) @ s.matrix.conj().T


def jordan_product(a, b):
    """The symmetrized product (ab + ba) / 2."""
    return 0.5 * (a @ b + b @ a)


def jordan_lift(s, x):
    """Complex-linear extension of the symmetry action to all operators.

    On self-adjoint operators this agrees with ``apply_symmetry``; on a
    general x = a + ib it acts linearly through the self-adjoint parts. For
    antiunitaries the two differ (conjugation alone is antilinear), and it
    is the linear extension that is the Jordan automorphism.
    """
    arr = np.asarray(x, dtype=complex)
    adj = arr.conj().T
    return apply_symmetry(s, 0.5 * (arr + adj)) + 1j * apply_symmetry(s, (arr - adj) / 2j)


def compose(s2, s1):
    """The symmetry acting as s1 first, then s2."""
    u1, u2 = s1.matrix, s2.matrix
    u = u2 @ u1.conj() if s2.kind == "antiunitary" else u2 @ u1
    return cx.symmetry("unitary" if s1.kind == s2.kind else "antiunitary", u)


class LoopScanRegistry(cx.ProjectionRegistry):
    """Reference registry: each projection in turn against every registered one, in a Python loop.

    It stores each new projection alone with the inherited ``_add``, so the
    inherited ``register``, ``keys`` and ``matrices`` read it; no batch
    decision code runs.
    """

    def find_many(self, mats):
        return [self._loop_find(t, m) for t, m in enumerate(mats)]

    def register_many(self, mats):
        out = []
        for t, m in enumerate(mats):
            key = self._loop_find(t, m)
            if key is None:
                key = canonical_key(m)
                self._add([key], np.asarray(m, dtype=complex)[None])
            out.append(key)
        return out

    def _loop_find(self, index, m):
        if np.shape(m) != (self.dim, self.dim):
            raise ValueError("projection dim does not match registry dim")
        key = canonical_key(m)
        if key in self.keys():
            if max_norm(self.matrices([key])[0] - m) <= self.tol:
                return key
            raise CanonicalizationError("collision on the rounding grid", key, index)
        for other_key in self.keys():
            dist = max_norm(self.matrices([other_key])[0] - m)
            if dist <= self.tol:
                return other_key
            if dist < TOL.grid:
                raise CanonicalizationError("closer than the rounding grid", other_key, index)
        return None


def find_one(registry, m):
    """``find_many`` of the one matrix ``m``."""
    return registry.find_many(np.asarray(m)[None])[0]


def full_scan_distances(rows, pool):
    """Reference registry distance table: ``dist[s, t]``, every entry compared entrywise."""
    if not (len(rows) and len(pool)):
        return np.zeros((len(rows), len(pool)))
    return np.abs(rows[:, None] - pool[None]).max(axis=(2, 3))


def einsum_dominance_table(stack):
    """Reference dominance table of an atom stack: every atom product formed by one einsum,
    no screen."""
    prod = np.einsum("aij,bjk->abik", stack, stack)
    return np.abs(prod - stack[None, :, :, :]).max(axis=(2, 3)) <= TOL.dominance


def einsum_atom_lookup(poset):
    """Reference atom lookup of a poset: for each node and row of its atom table, the one
    atom of the node that the row lies under in the einsum dominance table, or -1."""
    under = einsum_dominance_table(poset.stack)
    over = np.full((len(poset), len(poset.keys)), -1)
    for i, rows in enumerate(poset.rows):
        for t in range(len(poset.keys)):
            hits = np.flatnonzero(under[rows, t])
            assert len(hits) <= 1
            if len(hits):
                over[i, t] = hits[0]
    return over


def ix_dominator_map(poset, small, large):
    """Reference dominator map: one pair's block of the einsum dominance table of the
    poset's atom stack, by ``np.ix_``."""
    under = einsum_dominance_table(poset.stack)
    sub = under[np.ix_(poset.rows[small], poset.rows[large])]
    assert sub.any(axis=0).all()
    return sub.argmax(axis=0)


def registry_atoms(poset, i):
    """Node i's atoms as the registry holds them, one ``(m, d, d)`` array."""
    return poset.registry.matrices(poset.nodes[i].atoms)


def meet_sides(first, second, index, overlap):
    """The blocks of the meet of two contexts, each as its atom keys on each side: the
    connected components of the overlap graph, ``overlap`` over atom indices ``index``."""
    rows = [index[k] for k in first.atoms]
    cols = [index[k] for k in second.atoms]
    sub = overlap[np.ix_(rows, cols)]
    reach = sub @ sub.T
    for _ in range(len(rows).bit_length()):
        reach = reach @ reach
    label = reach.argmax(axis=1)
    other = label[sub.argmax(axis=0)]
    return [
        (
            [first.atoms[t] for t in np.flatnonzero(label == b)],
            [second.atoms[t] for t in np.flatnonzero(other == b)],
        )
        for b in np.unique(label)
    ]


def constrains(sides):
    """Whether a meet's blocks say more than that both contexts give each shared atom one
    value: at least two of them are not a single atom that both contexts hold."""
    return sum(not is_shared(mine, theirs) for mine, theirs in sides) > 1


def pairwise_meet(registry, first, second, index, overlap, resolved):
    """Reference blocks of the meet of two contexts, or None when it is trivial or carries
    no constraint.

    The blocks are those of :func:`meet_sides`. A meet that does not
    :func:`constrains` is None. Otherwise each block is listed as its atom
    keys on each side and the keys of their sums: the first side's
    registered, the second side's looked up, one ``register`` or ``find`` at
    a time, memoised in ``resolved`` by atom keys.
    """
    sides = meet_sides(first, second, index, overlap)
    if not constrains(sides):
        return None
    return [
        (
            mine,
            theirs,
            block_key(registry, mine, registry.register, resolved),
            block_key(registry, theirs, lambda m: find_one(registry, m), resolved),
        )
        for mine, theirs in sides
    ]


def is_shared(mine, theirs):
    """Whether a block is one atom that both contexts hold."""
    return len(mine) == len(theirs) == 1 and mine == theirs


def merged_meet(registry, dim, blocks):
    """Reference meet from ``pairwise_meet``'s blocks, or None.

    Blocks whose two sides have distinct keys merge into one block, in the
    first one's place; their sums are registered and looked up afresh. The
    meet is None when that block's sides are still distinct, or when no
    other block but shared atoms is left.
    """
    apart = [b[2] != b[3] for b in blocks]
    if any(apart):
        torn = [b for b, a in zip(blocks, apart) if a]
        key = block_key(registry, [k for b in torn for k in b[0]], registry.register, {})
        theirs = [k for b in torn for k in b[1]]
        if block_key(registry, theirs, lambda m: find_one(registry, m), {}) != key:
            return None
        if all(is_shared(b[0], b[1]) for b, a in zip(blocks, apart) if not a):
            return None
        start = apart.index(True)
        blocks = [(None, None, key) if t == start else b for t, b in enumerate(blocks)]
        blocks = [b for t, (b, a) in enumerate(zip(blocks, apart)) if t == start or not a]
    return cx.Context(dim, tuple(b[2] for b in blocks))


def block_key(registry, block, resolve, resolved):
    """Key of the sum of the atoms of ``block``: the atom itself, or ``resolve`` of the sum."""
    if len(block) == 1:
        return block[0]
    members = frozenset(block)
    if members not in resolved:
        resolved[members] = resolve(sum(registry.matrices(block)))
    return resolved[members]


def atom_overlaps(catalog, registry):
    """Each catalog atom key's index, and which two atoms overlap: ``tr(pq)`` above the
    squared grid."""
    keys = sorted({k for ctx in catalog for k in ctx.atoms})
    flat = registry.matrices(keys).reshape(len(keys), -1)
    return {k: t for t, k in enumerate(keys)}, (flat @ flat.conj().T).real > TOL.grid**2


def pairwise_meet_poset(catalog, registry):
    """Reference build: the library's node list from one ``pairwise_meet`` per catalog pair,
    then one ``merged_meet`` per pair, ordered from the unscreened einsum dominance table."""
    nodes, generators, seen = [], [], set()

    def add(ctx, origin):
        if ctx.key_set not in seen:
            seen.add(ctx.key_set)
            nodes.append(ctx)
            generators.append(origin)

    for idx, ctx in enumerate(catalog):
        add(ctx, f"catalog[{idx}]")
    if len(catalog) > 1:
        index, overlap = atom_overlaps(catalog, registry)
        resolved, found = {}, {}
        for i, j in itertools.combinations(range(len(catalog)), 2):
            blocks = pairwise_meet(registry, catalog[i], catalog[j], index, overlap, resolved)
            if blocks is not None:
                found[i, j] = blocks
        for (i, j), blocks in found.items():
            meet = merged_meet(registry, catalog[0].dim, blocks)
            if meet is not None:
                add(meet, f"meet of catalog[{i}] and catalog[{j}]")
    add(cx.trivial_context(registry), "trivial")
    with pytest.MonkeyPatch.context() as mp:  # poset_from_nodes asks for the stack's own table
        mp.setattr(contexts, "dominance_tables", lambda stack, *_: einsum_dominance_table(stack)[None])
        return poset_from_nodes(registry, nodes, generators)


def loop_hermitian_basis(d):
    """Reference Hermitian basis: one matrix at a time, in a Python loop."""
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for k in range(1, d):
        for j in range(k):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / np.sqrt(2)
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            mats.append(m)
    for ell in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(ell), np.arange(ell)] = 1.0
        m[ell, ell] = -float(ell)
        mats.append(m / np.sqrt(ell * (ell + 1)))
    return np.stack(mats)


def loop_projection_check(stack, tol):
    """Reference projection check: one matrix at a time, the first that fails raises."""
    for m in stack:
        if not np.isfinite(m).all():
            raise ValueError("operator entries must be finite")
        if max_norm(m - m.conj().T) > tol or max_norm(m @ m - m) > tol:
            raise ValueError("matrix is not a projection within tolerance")
        tr = float(np.trace(m).real)
        if abs(tr - round(tr)) > max(tol * len(m), TOL.eigen_gap):
            raise ValueError(f"projection trace {tr} is not near an integer")


def loop_conjugate_poset(poset, s):
    """Reference conjugation: one projection check and one registry call per (node, atom)."""
    image_atoms = []
    for i in range(len(poset)):
        image_atoms.append([apply_symmetry(s, p) for p in registry_atoms(poset, i)])
        loop_projection_check(image_atoms[-1], TOL.conjugation)

    def key_in(p):
        key = find_one(poset.registry, p)
        if key is None:
            raise KeyError("image atom is not a registered projection")
        return key

    try:  # stops at the first image atom or context that is not in the poset
        node_map = tuple(
            poset.node_id(cx.Context(poset.dim, tuple(key_in(p) for p in mapped)))
            for mapped in image_atoms
        )
    except (KeyError, CanonicalizationError):
        pass
    else:
        return poset, PosetMap(node_map)

    registry = cx.ProjectionRegistry(poset.dim, poset.registry.tol)
    nodes = [
        cx.Context(poset.dim, tuple(registry.register(p) for p in m)) for m in image_atoms
    ]
    image = poset_from_nodes(registry, nodes, [f"conjugate({g})" for g in poset.generators])
    return image, PosetMap(tuple(range(len(nodes))))


def loop_jordan_check(s, samples):
    """Reference Jordan check: one pair at a time."""
    max_res = 0.0
    signs = []
    for a, b in samples:
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if max_norm(a - a.conj().T) > TOL.exact or max_norm(b - b.conj().T) > TOL.exact:
            raise ValueError("jordan_check requires self-adjoint samples")
        fa = apply_symmetry(s, a)
        fb = apply_symmetry(s, b)
        res = max_norm(apply_symmetry(s, jordan_product(a, b)) - jordan_product(fa, fb))
        max_res = max(max_res, res)
        comm = a @ b - b @ a
        scale = max_norm(comm)
        if scale <= TOL.exact:
            signs.append(None)
            continue
        lifted = jordan_lift(s, comm)
        image_comm = fa @ fb - fb @ fa
        bound = TOL.conjugation * max(1.0, scale)
        if max_norm(lifted - image_comm) <= bound:
            signs.append(1)
        elif max_norm(lifted + image_comm) <= bound:
            signs.append(-1)
        else:
            signs.append(0)
    determined = {x for x in signs if x is not None}
    overall = determined.pop() if len(determined) == 1 else None
    return JordanReport(max_res, signs, overall, signs.count(None))


def loop_transition_deviation(s, rays):
    """Reference transition check: one trace per ordered pair of rays."""
    mats = [np.asarray(p, dtype=complex) for p in rays]
    images = [apply_symmetry(s, m) for m in mats]
    worst = 0.0
    for p, fp in zip(mats, images):
        for q, fq in zip(mats, images):
            before = float(np.real(np.trace(p @ q)))
            worst = max(worst, abs(float(np.real(np.trace(fp @ fq))) - before))
    return worst


def loop_parse_contexts(raw, n_rays, rays, path):
    """Reference context parsing: per context its indices, a repeat, then one ``np.vdot``
    per pair of its rays, raising the first failure."""
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(path, "contexts must be a nonempty list")
    out = []
    for c, item in enumerate(raw):
        if not isinstance(item, list) or not item:
            raise ScenarioError(f"{path}[{c}]", "context must be a nonempty list of ray indices")
        for k, idx in enumerate(item):
            _parse_index(idx, n_rays, f"{path}[{c}][{k}]", "ray index")
        if len(set(item)) != len(item):
            raise ScenarioError(f"{path}[{c}]", "repeated ray index in context")
        for a in range(len(item)):
            for b in range(a + 1, len(item)):
                overlap = abs(np.vdot(rays[item[a]], rays[item[b]]))
                if overlap > TOL.exact:
                    raise ScenarioError(
                        f"{path}[{c}]",
                        f"rays {item[a]} and {item[b]} are not orthogonal "
                        f"(|<u,v>| = {overlap:.3e})",
                    )
        out.append(tuple(item))
    return out


def shared_ray_catalog(registry, seed, n_bases):
    """Random rotations of one basis, all keeping its first ray, registered in ``registry``."""
    dim = registry.dim
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, dim)
    catalog = []
    for b in range(n_bases):
        v = u.copy()
        if b:
            v[:, 1:] = u[:, 1:] @ random_unitary(rng, dim - 1)
        catalog.append(
            context_from_projections(
                registry, [np.outer(v[:, k], v[:, k].conj()) for k in range(dim)]
            )
        )
    return catalog


def ks18_subset_catalog(registry, bases):
    """The listed bases of the bundled ks18-c4 catalog, registered in a d4 ``registry``."""
    sc = cx.parse_scenario(bundled_text("ks18-c4"))
    rays = sc.rays["main"]
    return [
        context_from_projections(registry, np.array([ray_projection(rays[i]) for i in ctx]))
        for ctx in (sc.contexts["main"][b] for b in bases)
    ]


def pauli_subset_rays(bases, jitter=0.0, seed=0):
    """The rays of the listed bases of the bundled pauli-c4 catalog, as one 4 x 4 array of
    columns per basis.

    With ``jitter``, each basis is turned by its own unitary exp(i jitter H),
    |H| = 1, so rays that bases share differ by about that much.
    """
    sc = cx.parse_scenario(bundled_text("pauli-c4"))
    rays = np.array(sc.rays["main"])
    rng = np.random.default_rng(seed)
    out = []
    for b in bases:
        vecs = rays[list(sc.contexts["main"][b])].T
        if jitter:
            h = random_hermitian(rng, 4)
            w, v = np.linalg.eigh(h / np.abs(np.linalg.eigvalsh(h)).max())
            vecs = (v * np.exp(1j * jitter * w)) @ v.conj().T @ vecs
        out.append(vecs)
    return out


def pauli_subset_catalog(registry, bases, jitter=0.0, seed=0):
    """The bases of ``pauli_subset_rays``, registered in a d4 ``registry``."""
    return [
        context_from_projections(
            registry, [np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(4)]
        )
        for vecs in pauli_subset_rays(bases, jitter, seed)
    ]


def padded_pauli_catalog(picks):
    """Catalog builder: the first k rays of each listed pauli-c4 basis b, padded with
    their complement, for each (b, k) in ``picks``."""
    sc = cx.parse_scenario(bundled_text("pauli-c4"))

    def build_catalog(reg):
        catalog = []
        for b, k in picks:
            rays = [sc.rays["main"][i] for i in sc.contexts["main"][b][:k]]
            mats = [np.outer(v, v.conj()) for v in rays]
            pad = [np.eye(4) - sum(mats)][: 4 - k]
            catalog.append(context_from_projections(reg, mats + pad))
        return catalog

    return build_catalog


# jittered pauli-c4 bases (bases, jitter, seed) whose block sums the registry keeps apart at
# the default tol: overlaps of about 6e-13, below the squared grid, split their meets' blocks
SPLIT_BLOCK_CATALOGS = (
    ((8, 6), 2e-6, 2052895710),
    ((0, 3, 11), 2e-6, 175194791),
    ((10, 0, 4), 2e-6, 552489649),
)


def peres24_rays():
    """Peres' 24 rays in d4, unnormalised integer tuples, and their 24 tetrads.

    The rays are the unit vectors, the 12 with two entries +-1 and the 8
    (1, +-1, +-1, +-1); the tetrads are found by an orthogonality search.
    """
    rays = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    rays += [
        tuple(1 if k == i else sign if k == j else 0 for k in range(4))
        for i, j in itertools.combinations(range(4), 2)
        for sign in (1, -1)
    ]
    rays += [(1, *signs) for signs in itertools.product((1, -1), repeat=3)]
    gram = np.array(rays) @ np.array(rays).T
    tetrads = [
        c
        for c in itertools.combinations(range(24), 4)
        if all(gram[a, b] == 0 for a, b in itertools.combinations(c, 2))
    ]
    assert len(rays) == len(tetrads) == 24
    return rays, tetrads


def peres24_subset_catalog(registry, tetrads, seed=None):
    """The listed tetrads of :func:`peres24_rays` in d4, all turned by one random unitary
    when ``seed`` is given."""
    rays, all_tetrads = peres24_rays()
    vecs = np.array(rays, dtype=complex).T
    vecs /= np.linalg.norm(vecs, axis=0)
    if seed is not None:
        vecs = random_unitary(np.random.default_rng(seed), 4) @ vecs
    return [
        context_from_projections(
            registry, [np.outer(vecs[:, i], vecs[:, i].conj()) for i in all_tetrads[t]]
        )
        for t in tetrads
    ]


def set_partitions(items):
    """All partitions of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def partition_closure_poset(catalog, registry):
    """Oracle: the catalog, every partition-coarsening of each catalog context, the trivial context.

    Each block of each partition is summed and registered; the order comes
    from ``poset_from_nodes`` like the library build's.
    """
    nodes, generators, seen = [], [], set()

    def add(ctx, origin):
        if ctx.key_set not in seen:
            seen.add(ctx.key_set)
            nodes.append(ctx)
            generators.append(origin)

    for idx, ctx in enumerate(catalog):
        add(ctx, f"catalog[{idx}]")
        atoms = registry.matrices(ctx.atoms)
        for blocks in set_partitions(list(range(len(atoms)))):
            if len(blocks) == len(atoms):
                continue
            coarse = [sum(atoms[i] for i in sorted(b)) for b in blocks]
            keys = tuple(registry.register(m) for m in coarse)
            add(cx.Context(ctx.dim, keys), f"coarsening of catalog[{idx}]")
    add(cx.trivial_context(registry), "trivial")
    return poset_from_nodes(registry, nodes, generators)


def strict_chains3(order):
    """All chains i < j < k (strict) of an order matrix, for functoriality checks."""
    n = len(order)
    return [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        if i != j and order[i, j]
        for k in range(n)
        if k not in (i, j) and order[j, k]
    ]


def loop_restrict_table(pp, table, source, target):
    """Reference table restriction: a Python loop over the atom pairs of ``source``'s table."""
    if not pp.order[pp.index(target), pp.index(source)]:
        raise ValueError("target is not below the table's context")
    out = np.zeros(pp.table_shape(target))
    left_map = pp.left.dominator_map(target[0], source[0])
    right_map = pp.right.dominator_map(target[1], source[1])
    for (a, b), v in np.ndenumerate(table.probs):
        out[left_map[a], right_map[b]] += v
    return cx.CorrelationTable(out)


def kron_rows(pp, node):
    """Reference Born rows of one product node: ``kron(p, q).T`` flattened, atom pairs row-major."""
    return np.stack(
        [
            np.kron(p, q).T.ravel()
            for p in pp.left.atom_matrices(node[0])
            for q in pp.right.atom_matrices(node[1])
        ]
    )


def kron_row_tables(pp, w):
    """Reference tables tr(W (p x q)): each node's kron rows against the flattened W."""
    w = np.asarray(w, dtype=complex).ravel()
    return {
        node: np.real(kron_rows(pp, node) @ w).reshape(pp.table_shape(node)) for node in pp.nodes
    }


def kron_row_classify(s):
    """Reference classification: kron rows against ``hermitian_basis``, then least squares."""
    pp = s.poset
    d1, d2 = pp.dims
    basis = hermitian_basis(d1 * d2)
    domain = sorted(s.domain)
    rows = [kron_rows(pp, n) for n in domain] + [np.zeros((0, (d1 * d2) ** 2))]
    a = np.real(np.concatenate(rows) @ basis.reshape(len(basis), -1).T)
    a = np.vstack([a, np.real(np.einsum("kii->k", basis))])
    b = np.append([v for n in domain for v in s.tables[n].probs.ravel()], 1.0)
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=TOL.rank)
    residual = float(max_norm(a @ x - b))
    free = len(basis) - int(rank)
    if residual > TOL.residual:
        return SectionClassification("non_quantum", residual=residual)
    if free > 0:
        return SectionClassification("underdetermined", residual=residual, solution_space_dim=free)
    w = np.einsum("k,kij->ij", x, basis)
    w = 0.5 * (w + w.conj().T)
    floor = float(np.linalg.eigvalsh(w).min())
    pt_floor = float(np.linalg.eigvalsh(cx.partial_transpose(w, (d1, d2))).min())
    if floor >= -TOL.psd:
        verdict = "quantum"
    elif pt_floor >= -TOL.psd:
        verdict = "quantum_time_reversed"
    else:
        verdict = "non_quantum"
    return SectionClassification(verdict, w, floor, pt_floor, residual)


class _Conflict(Exception):
    pass


class _SearchState:
    """Forced characters, projection values by key, and maximal-node domains as sets."""

    __slots__ = ("chars", "value", "domains")

    def __init__(self, chars, value, domains):
        self.chars = chars
        self.value = value
        self.domains = domains

    def copy(self):
        return _SearchState(
            dict(self.chars), dict(self.value), {k: set(v) for k, v in self.domains.items()}
        )


def poset_global_section(poset):
    """``find_global_section``'s flat search on a poset's tables (``spectral._search_tables``,
    the tables ``enumerate_global_sections`` searches): its first section, branching in
    sharing order, as one chosen atom per poset node, or the exhausted search."""
    maximal = poset.maximal_nodes()
    tables = spectral._search_tables(poset, maximal)
    order = spectral._sharing_order(maximal, *tables[:2])
    chars, expanded, backtracks = next(spectral._sections(tables, order))
    verdict = "non_colorable" if chars is None else "colorable"
    return cx.ColoringCertificate(verdict, chars, expanded, backtracks)


def reference_global_section(poset):
    """Reference search: ``find_global_section`` on dict-and-set state keyed by atom keys.

    Same propagation rules and branching (first unassigned maximal node in
    sharing order, atoms ascending), so its certificate, counters included,
    must equal the library's. Its dominator maps are read one pair at a time from
    ``poset.dominator_map``.
    """
    n = len(poset)
    maximal = poset.maximal_nodes()
    dom = {
        (i, m): poset.dominator_map(i, m) for m in maximal for i in range(n) if poset.order[i, m]
    }
    below = {m: [i for i in range(n) if poset.order[i, m]] for m in maximal}
    occurrences = {}
    for i in range(n):
        for idx, key in enumerate(poset.atom_keys(i)):
            occurrences.setdefault(key, []).append((i, idx))
    degree = {
        i: len({j for key in poset.atom_keys(i) for j, _ in occurrences[key]}) - 1
        for i in maximal
    }
    order_vars = sorted(maximal, key=lambda i: (-degree[i], i))
    parents = {i: [m for m in maximal if poset.order[i, m]] for i in range(n)}

    def set_value(state, key, bit, queue):
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

    def set_char(state, node, atom, queue):
        prev = state.chars.get(node)
        if prev is not None:
            if prev != atom:
                raise _Conflict
            return
        state.chars[node] = atom
        for idx, key in enumerate(poset.atom_keys(node)):
            set_value(state, key, 1 if idx == atom else 0, queue)
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

    def assign(state, m, atom):
        queue = [(m, atom)]
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

    def branch(state):
        m = next((m for m in order_vars if m in state.domains), None)
        return None if m is None else (state, m, iter(sorted(state.domains[m])))

    initial = _SearchState({}, {}, {m: set(range(len(poset.nodes[m].atoms))) for m in maximal})
    expanded = backtracks = 0
    frame = branch(initial)
    found = initial if frame is None else None
    stack = [] if frame is None else [frame]
    while stack:
        state, m, atoms = stack[-1]
        atom = next(atoms, None)
        if atom is None:
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
        return cx.ColoringCertificate("non_colorable", None, expanded, backtracks)
    section = [found.chars[i] for i in range(n)]
    return cx.ColoringCertificate("colorable", section, expanded, backtracks)


def full_table_sections(poset, cap=10**6, chunk=1 << 16):
    """Reference enumeration: the full product of maximal-node choices, filtered in chunks.

    Each chunk is a run of choice tuples in lexicographic order, restricted onto every
    lower node through the first maximal node above it. It keeps the rows where every
    other maximal node above a lower node restricts onto the same atom, and where each
    key takes one value over all the nodes that hold it.
    """
    n = len(poset)
    maximal = sorted(poset.maximal_nodes())
    counts = [len(poset.nodes[m].atoms) for m in maximal]
    raw = math.prod(counts)
    if raw > 10**8:
        raise ValueError(f"raw choice space {raw} too large to enumerate")
    ups = {i: [m for m in maximal if poset.order[i, m]] for i in range(n) if i not in maximal}
    # each (node, atom) place of a key, and the first place of that key
    places, first = [], {}
    for i in range(n):
        for idx, key in enumerate(poset.atom_keys(i)):
            places.append((i, idx, first.setdefault(key, len(places))))
    place_node, place_atom, place_first = np.array(places).reshape(-1, 3).T

    # each chunk fixes the leading choices and runs through all the trailing ones
    split = len(maximal)
    while split and math.prod(counts[split - 1 :]) <= chunk:
        split -= 1
    trailing = np.array(list(itertools.product(*map(range, counts[split:]))), dtype=np.int64)
    trailing = trailing.reshape(len(trailing), len(maximal) - split)
    # each lower node's dominator maps, one per maximal node above it, built once
    maps = {i: [(m, poset.dominator_map(i, m)) for m in above] for i, above in ups.items()}
    rows = []
    truncated = False
    for lead in itertools.product(*map(range, counts[:split])):
        # column-major, so that each node's column is read and written contiguously
        chosen = np.empty((len(trailing), n), dtype=np.int64, order="F")
        chosen[:, maximal[:split]] = lead
        chosen[:, maximal[split:]] = trailing
        mask = np.ones(len(chosen), dtype=bool)
        for i, above in maps.items():
            ref, *rest = [lookup[chosen[:, m]] for m, lookup in above]
            chosen[:, i] = ref
            for other in rest:
                mask &= other == ref
        chosen = chosen[mask]
        held = chosen[:, place_node] == place_atom
        for row in chosen[(held == held[:, place_first]).all(axis=1)]:
            rows.append(tuple(row.tolist()))
            if len(rows) > cap:
                truncated = True
                rows.pop()
                break
        if truncated:
            break
    rows.sort()
    return EnumerationResult(np.array(rows, dtype=np.int64).reshape(len(rows), n), truncated)


def wootters_fields_poset(d=5):
    """The d + 1 mutually unbiased bases of an odd prime dimension d, and their meets.

    Basis 0 is the computational basis; basis a + 1 holds the vectors
    v_b(j) = w^(a j^2 + b j) / sqrt(d), w = exp(2 pi i / d) (Wootters & Fields,
    Ann. Phys. 191, 1989). They share no ray, so each basis is one component.
    """
    reg = cx.ProjectionRegistry(d)
    j = np.arange(d)
    bases = [np.eye(d)] + [
        np.exp(2j * np.pi * (((a * j * j)[:, None] + np.outer(j, j)) % d) / d) / np.sqrt(d)
        for a in range(d)
    ]
    ctxs = [
        context_from_projections(reg, [np.outer(u[:, k], u[:, k].conj()) for k in range(d)])
        for u in bases
    ]
    return cx.generate_poset(ctxs, reg)


# three bases of d3, the first and the last sharing e0: components [0, 1, 0], so a
# product of the components' lists in mixed radix is not in the order of the maximal
# nodes' choices
INTERLEAVED_D3 = {
    "kind": "single",
    "dim": 3,
    "rays": [
        [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, -1, 0], [1, 1, -2], [0, 1, 1], [0, 1, -1]
    ],
    "contexts": [[0, 1, 2], [3, 4, 5], [0, 6, 7]],
}


def shared_ray_catalog_poset(seed, dim, n_bases):
    reg = cx.ProjectionRegistry(dim)
    return cx.generate_poset(shared_ray_catalog(reg, seed, n_bases), reg)


def ks18_subset_poset(bases):
    reg = cx.ProjectionRegistry(4)
    return cx.generate_poset(ks18_subset_catalog(reg, bases), reg)


@pytest.fixture(scope="session")
def basis_poset_c3():
    """Single diagonal basis in dimension 3: the 5-node partition-closure poset."""
    reg = cx.ProjectionRegistry(3)
    ctx = context_from_projections(reg, diagonal_atoms([1, 2, 3]))
    return partition_closure_poset([ctx], reg)


@pytest.fixture(scope="session")
def shared_ray_poset_c3():
    """Two maximal contexts sharing one rank-1 projection, and the trivial context:
    their meet only restates the shared ray, which alone ties their weights together."""
    reg = cx.ProjectionRegistry(3)
    e = np.eye(3)
    first = context_from_projections(
        reg, [np.outer(e[:, k], e[:, k]) for k in range(3)]
    )
    c, s = np.cos(0.7), np.sin(0.7)
    v2 = np.array([0, c, s])
    v3 = np.array([0, -s, c])
    second = context_from_projections(
        reg,
        [np.outer(e[:, 0], e[:, 0]), np.outer(v2, v2), np.outer(v3, v3)],
    )
    return cx.generate_poset([first, second], reg)


@pytest.fixture(scope="session")
def mub_poset_c3():
    sc = cx.parse_scenario(bundled_text("mub-c3"))
    return cx.build_single_poset(sc)


@pytest.fixture(scope="session")
def mub_closure_poset_c3():
    """The bundled mub-c3 catalog under the partition-closure oracle: 17 nodes."""
    sc = cx.parse_scenario(bundled_text("mub-c3"))
    registry, catalog = _catalog(sc.rays["main"], sc.contexts["main"], 3)
    return partition_closure_poset(catalog, registry)


@pytest.fixture(scope="session")
def ks18_poset():
    sc = cx.parse_scenario(bundled_text("ks18-c4"))
    return cx.build_single_poset(sc)


@pytest.fixture(scope="session")
def chsh_model():
    sc = cx.parse_scenario(bundled_text("chsh-c2"))
    return cx.build_bipartite_model(sc)


@pytest.fixture(scope="session")
def mub2_bipartite_doc():
    """Three mutually unbiased qubit bases per side: locally spanning."""
    rays = [[1, 0], [0, 1], [1, 1], [1, -1], [1, [0, 1]], [1, [0, -1]]]
    return {
        "kind": "bipartite",
        "dims": [2, 2],
        "rays": {"left": rays, "right": rays},
        "contexts": {
            "left": [[0, 1], [2, 3], [4, 5]],
            "right": [[0, 1], [2, 3], [4, 5]],
        },
    }
