"""Shared fixtures: standard posets, random-object helpers."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import settings

import contextua as cx
from contextua.bell import SectionClassification
from contextua.catalogs import bundled_text
from contextua.contexts import poset_from_nodes
from contextua.gleason import hermitian_basis
from contextua.opalg import TOL, CanonicalizationError, canonical_key, max_norm
from contextua.scenario import _catalog
from contextua.spectral import Character, EnumerationResult, SpectralSection, _domination_maps
from contextua.wigner import JordanReport, PosetMap, apply_symmetry, jordan_lift

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
    atoms = [cx.projection(np.outer(u[:, k], u[:, k].conj())) for k in range(registry.dim)]
    return cx.context_from_projections(registry, atoms)


class LoopScanRegistry(cx.ProjectionRegistry):
    """Reference registry: the miss path scans registered keys in a Python loop."""

    def _identify(self, p):
        key = canonical_key(p.matrix)
        existing = self._by_key.get(key)
        if existing is not None:
            if max_norm(existing.matrix - p.matrix) <= self.tol:
                return key, key
            raise CanonicalizationError("collision on the rounding grid", key)
        for other_key, other in self._by_key.items():
            dist = max_norm(other.matrix - p.matrix)
            if dist <= self.tol:
                return key, other_key
            if dist < TOL.grid:
                raise CanonicalizationError("closer than the rounding grid", other_key)
        return key, None


def loop_image_check(m):
    """Reference check of one conjugated atom: ``projection``, with the conjugation's message."""
    try:
        return cx.projection(m, TOL.conjugation)
    except ValueError:
        if cx.is_projection(m, TOL.conjugation):
            raise  # projection's own trace error
        raise ValueError("conjugated atom fails the projection check") from None


def loop_conjugate_poset(poset, s):
    """Reference conjugation: one ``projection`` check and one registry call per (node, atom)."""
    image_atoms = [
        [loop_image_check(apply_symmetry(s, p.matrix)) for p in poset.atoms_of(i)]
        for i in range(len(poset))
    ]

    def key_in(p):
        key = poset.registry.find(p)
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
    nodes = [cx.Context(poset.dim, tuple(registry.register(p) for p in m)) for m in image_atoms]
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
        res = max_norm(apply_symmetry(s, cx.jordan_product(a, b)) - cx.jordan_product(fa, fb))
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
    mats = [np.asarray(getattr(p, "matrix", p), dtype=complex) for p in rays]
    images = [apply_symmetry(s, m) for m in mats]
    worst = 0.0
    for p, fp in zip(mats, images):
        for q, fq in zip(mats, images):
            before = float(np.real(np.trace(p @ q)))
            worst = max(worst, abs(float(np.real(np.trace(fp @ fq))) - before))
    return worst


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
            cx.context_from_projections(
                registry, [np.outer(v[:, k], v[:, k].conj()) for k in range(dim)]
            )
        )
    return catalog


def ks18_subset_catalog(registry, bases):
    """The listed bases of the bundled ks18-c4 catalog, registered in a d4 ``registry``."""
    sc = cx.parse_scenario(bundled_text("ks18-c4"))
    rays = sc.rays["main"]
    return [
        cx.context_from_projections(registry, [cx.projection_from_ray(rays[i]) for i in ctx])
        for ctx in (sc.contexts["main"][b] for b in bases)
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
        atoms = [registry.get(k) for k in ctx.atoms]
        for blocks in set_partitions(list(range(len(atoms)))):
            if len(blocks) == len(atoms):
                continue
            coarse = [
                cx.Projection(
                    sum(atoms[i].matrix for i in sorted(b)), sum(atoms[i].rank for i in b)
                )
                for b in blocks
            ]
            keys = tuple(registry.register(p) for p in coarse)
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


def loop_restrict_table(pp, table, target):
    """Reference table restriction: a Python loop over the atom pairs of the table."""
    source = table.context
    if not pp.leq(target, source):
        raise ValueError("target is not below the table's context")
    out = np.zeros(pp.table_shape(target))
    left_map = pp.left.dominator_map(target.left, source.left)
    right_map = pp.right.dominator_map(target.right, source.right)
    for (a, b), v in np.ndenumerate(table.probs):
        out[left_map[a], right_map[b]] += v
    return cx.CorrelationTable(target, out)


def kron_rows(pp, node):
    """Reference Born rows of one product node: ``kron(p, q).T`` flattened, atom pairs row-major."""
    return np.stack(
        [
            np.kron(p.matrix, q.matrix).T.ravel()
            for p in pp.left.atoms_of(node.left)
            for q in pp.right.atoms_of(node.right)
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
    domain = sorted(s.domain, key=lambda n: (n.left, n.right))
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


def full_table_sections(poset, cap=10**6, chunk=1 << 16):
    """Reference enumeration: the full product of maximal-node choices, filtered in chunks.

    Each chunk decodes its raw choice indices column by column and applies
    every lower node's check to the whole chunk.
    """
    dom = _domination_maps(poset)
    n = len(poset)
    maximal = sorted(poset.maximal_nodes())
    counts = [len(poset.nodes[m].atoms) for m in maximal]
    raw = math.prod(counts) if counts else 1
    if raw > 10**8:
        raise ValueError(f"raw choice space {raw} too large to enumerate")
    pos = {m: t for t, m in enumerate(maximal)}
    checks = []
    for i in range(n):
        ups = [m for m in maximal if i != m and poset.order[i, m]]
        if len(ups) >= 2:
            checks.append((i, ups))

    sections = []
    truncated = False
    for start in range(0, raw, chunk):
        stop = min(start + chunk, raw)
        flat = np.arange(start, stop, dtype=np.int64)
        combos = np.empty((flat.size, len(maximal)), dtype=np.int64)
        rem = flat
        for t in range(len(maximal) - 1, -1, -1):
            combos[:, t] = rem % counts[t]
            rem = rem // counts[t]
        mask = np.ones(flat.size, dtype=bool)
        for i, ups in checks:
            ref = dom[(i, ups[0])][combos[:, pos[ups[0]]]]
            for m in ups[1:]:
                mask &= dom[(i, m)][combos[:, pos[m]]] == ref
        for row in combos[mask]:
            assignment = {}
            for t, m in enumerate(maximal):
                assignment[m] = Character(m, int(row[t]))
            for i in range(n):
                if i in assignment:
                    continue
                ups = [m for m in maximal if poset.order[i, m] and i != m]
                a = dom[(i, ups[0])][int(row[pos[ups[0]]])]
                assignment[i] = Character(i, int(a))
            sections.append(SpectralSection(assignment, frozenset(range(n))))
            if len(sections) > cap:
                truncated = True
                sections.pop()
                break
        if truncated:
            break
    sections.sort(key=lambda s: tuple(s.assignment[i].chosen_atom for i in range(n)))
    return EnumerationResult(sections, truncated)


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
    ctx = cx.context_from_observables(reg, [np.diag([1.0, 2.0, 3.0])])
    return partition_closure_poset([ctx], reg)


@pytest.fixture(scope="session")
def shared_ray_poset_c3():
    """Two maximal contexts sharing one rank-1 projection."""
    reg = cx.ProjectionRegistry(3)
    e = np.eye(3)
    first = cx.context_from_projections(
        reg, [np.outer(e[:, k], e[:, k]) for k in range(3)]
    )
    c, s = np.cos(0.7), np.sin(0.7)
    v2 = np.array([0, c, s])
    v3 = np.array([0, -s, c])
    second = cx.context_from_projections(
        reg,
        [np.outer(e[:, 0], e[:, 0]), np.outer(v2, v2), np.outer(v3, v3)],
    )
    return cx.generate_poset([first, second], reg)


@pytest.fixture(scope="session")
def shared_ray_no_meet_c3(shared_ray_poset_c3):
    """The same two contexts and the trivial one, without their meet: only
    the shared ray itself ties the two contexts' weights together."""
    poset = shared_ray_poset_c3
    keep = [i for i in range(len(poset)) if not poset.generators[i].startswith("meet")]
    return poset_from_nodes(
        poset.registry, [poset.nodes[i] for i in keep], [poset.generators[i] for i in keep]
    )


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
