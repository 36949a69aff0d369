"""Scenario ingestion: JSON documents describing rays, contexts and states.

Complex entries are written as plain numbers, as [re, im] pairs, or as
exact-form strings ("a/b", "sqrt(c)", "sqrt(c)/d", optionally signed);
surd catalogs can therefore keep their textual provenance. All rays are
normalized on ingest, every context is orthogonality-checked, and a
context whose ranks do not fill the dimension is padded with the
orthogonal-complement projection.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .bell import BellSection, CorrelationTable, ProductPoset, product_poset
from .contexts import (
    CatalogMeets,
    Context,
    ContextPoset,
    catalog_meets,
    first_repeat,
    generate_poset,
)
from .opalg import TOL, CanonicalizationError, ProjectionRegistry, max_norm

_FRACTION = re.compile(r"^(-?\d+)\s*/\s*(\d+)$")
_SQRT = re.compile(r"^(-?)sqrt\((\d+)\)(?:\s*/\s*(\d+))?$")
_DECIMAL = re.compile(r"^-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class ScenarioError(ValueError):
    """Schema or validation failure, annotated with the JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def parse_real(token, path: str) -> float:
    """A JSON number or exact-form string as a float; a value that is not finite in double
    precision (JSON's NaN and Infinity, 1e999, a 400-digit integer) is an error."""
    try:
        value = _parse_real(token, path)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(path, "number is not finite in double precision")
    return value


def _parse_real(token, path: str) -> float:
    if isinstance(token, (int, float)) and not isinstance(token, bool):
        return float(token)
    if isinstance(token, str):
        text = token.strip()
        m = _FRACTION.match(text)
        if m:
            num, den = int(m.group(1)), int(m.group(2))
            if den == 0:
                raise ScenarioError(path, "division by zero in exact form")
            return num / den
        m = _SQRT.match(text)
        if m:
            sign = -1.0 if m.group(1) == "-" else 1.0
            root = math.sqrt(int(m.group(2)))
            den = int(m.group(3)) if m.group(3) else 1
            if den == 0:
                raise ScenarioError(path, "division by zero in exact form")
            return sign * root / den
        if _DECIMAL.match(text):
            return float(text)
        raise ScenarioError(path, f"unrecognized numeric form {token!r}")
    raise ScenarioError(path, f"expected a number or exact-form string, got {type(token).__name__}")


def parse_entry(entry, path: str) -> complex:
    if isinstance(entry, (int, float, str)) and not isinstance(entry, bool):
        return complex(parse_real(entry, path), 0.0)
    if isinstance(entry, list):
        if len(entry) != 2:
            raise ScenarioError(path, f"[re, im] pair must have 2 parts, got {len(entry)}")
        return complex(parse_real(entry[0], path + "[0]"), parse_real(entry[1], path + "[1]"))
    raise ScenarioError(path, "entry must be a number, string, or [re, im] pair")


def _parse_index(raw, n: int, path: str, what: str) -> int:
    """A JSON integer in [0, n); JSON ``true`` is not the integer 1."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ScenarioError(path, f"{what} must be a JSON integer, got {raw!r}")
    if not 0 <= raw < n:
        raise ScenarioError(path, f"{what} {raw} out of range")
    return raw


def _parse_reals(raw, path: str) -> np.ndarray:
    """A JSON list of numbers or exact-form strings."""
    if not isinstance(raw, list):
        raise ScenarioError(path, f"must be a list, got {type(raw).__name__}")
    return np.array([parse_real(x, f"{path}[{k}]") for k, x in enumerate(raw)])


def _parse_vector(raw, dim: int, path: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise ScenarioError(path, "vector must be a list")
    if len(raw) != dim:
        raise ScenarioError(path, f"vector length {len(raw)} does not match dim {dim}")
    return np.array([parse_entry(e, f"{path}[{i}]") for i, e in enumerate(raw)])


def _parse_matrix(raw, dim: int, path: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ScenarioError(path, f"matrix must be a {dim}x{dim} array")
    return np.stack([_parse_vector(row, dim, f"{path}[{i}]") for i, row in enumerate(raw)])


def _parse_rays(raw, dim: int, path: str) -> list[np.ndarray]:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(path, "rays must be a nonempty list")
    out = []
    with np.errstate(over="ignore"):  # finite entries near 1e200 overflow a ray's norm
        for i, item in enumerate(raw):
            vec = _parse_vector(item, dim, f"{path}[{i}]")
            norm = float(np.linalg.norm(vec))
            if not math.isfinite(norm):
                raise ScenarioError(f"{path}[{i}]", "ray norm is not finite in double precision")
            if norm <= TOL.exact:  # a ray on a small scale, its norm maybe underflowed
                scale = np.abs(vec).max()
                if scale == 0:
                    raise ScenarioError(f"{path}[{i}]", "degenerate ray")
                vec = (vec.view(float) / scale).view(complex)  # a subnormal complex divisor is nan
                norm = float(np.linalg.norm(vec))
            out.append(vec / norm)
    return out


def _parse_contexts(raw, n_rays: int, rays: list[np.ndarray], path: str) -> list[tuple[int, ...]]:
    """The contexts' ray indices. The first failure in loop order is raised (per context: an
    index, a repeat, a pair a < b of rays that are not orthogonal); the orthogonality of
    the contexts before the first index or repeat failure is one batched product.

    No context passes with more rays than the dimension, so none is checked for it: the
    Gram matrix of k unit rays with pairwise overlaps at most ``TOL.exact`` has off-diagonal
    row sums at most (k - 1) * ``TOL.exact`` < 1, so it is positive definite (Gershgorin)
    and of rank k, while k vectors in C^dim have rank at most dim.
    """
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(path, "contexts must be a nonempty list")
    out, late = [], None
    for c, item in enumerate(raw):
        try:
            if not isinstance(item, list) or not item:
                raise ScenarioError(f"{path}[{c}]", "context must be a nonempty list of ray indices")
            for k, idx in enumerate(item):
                _parse_index(idx, n_rays, f"{path}[{c}][{k}]", "ray index")
            if len(set(item)) != len(item):
                raise ScenarioError(f"{path}[{c}]", "repeated ray index in context")
        except ScenarioError as exc:
            late = exc
            break
        out.append(tuple(item))
    if out:
        # overlap[c, a, b] = |<u, v>| of context c's rays a and b, padded with a zero ray
        width = max(len(ctx) for ctx in out)
        vecs = np.array(rays + [np.zeros_like(rays[0])])
        members = vecs[np.array([ctx + (n_rays,) * (width - len(ctx)) for ctx in out])]
        overlap = np.abs(members.conj() @ members.transpose(0, 2, 1))
        bad = (overlap > TOL.exact) & (np.arange(width)[:, None] < np.arange(width))
        if bad.any():
            c, a, b = np.argwhere(bad)[0]  # row-major: the first in loop order
            pair = f"rays {out[c][a]} and {out[c][b]} are not orthogonal"
            raise ScenarioError(f"{path}[{c}]", f"{pair} (|<u,v>| = {overlap[c, a, b]:.3e})")
    if late is not None:
        raise late
    return out


@dataclass(frozen=True)
class Scenario:
    kind: str
    dims: tuple[int, ...]
    rays: dict
    contexts: dict
    product_contexts: tuple[tuple[int, int], ...] | None
    state: np.ndarray | None
    tables: tuple | None
    section: tuple | None
    metadata: dict
    document: dict = field(repr=False)

    def digest(self) -> str:
        canon = json.dumps(self.document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("$", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("$", "document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("single", "bipartite"):
        raise ScenarioError("$.kind", f"kind must be 'single' or 'bipartite', got {kind!r}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ScenarioError("$.metadata", "metadata must be an object")

    if kind == "single":
        dim = doc.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ScenarioError("$.dim", f"dim must be a positive integer, got {dim!r}")
        rays = _parse_rays(doc.get("rays"), dim, "$.rays")
        contexts = _parse_contexts(doc.get("contexts"), len(rays), rays, "$.contexts")
        state = None
        if "state" in doc:
            state = _parse_matrix(doc["state"], dim, "$.state")
        section = None
        if "section" in doc:
            raw = doc["section"]
            if not isinstance(raw, list):
                raise ScenarioError("$.section", "section must be a list")
            entries = {}
            for i, item in enumerate(raw):
                if not isinstance(item, dict) or "context" not in item or "weights" not in item:
                    raise ScenarioError(
                        f"$.section[{i}]", "each entry needs 'context' and 'weights'"
                    )
                path = f"$.section[{i}].context"
                c = _parse_index(item["context"], len(contexts), path, "context index")
                if c in entries:
                    raise ScenarioError(path, f"context {c} already has weights")
                entries[c] = _parse_reals(item["weights"], f"$.section[{i}].weights")
            section = tuple(entries.items())
        return Scenario(
            "single", (dim,), {"main": rays}, {"main": contexts},
            None, state, None, section, metadata, doc,
        )

    dims = doc.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise ScenarioError("$.dims", f"dims must be a pair of positive integers, got {dims!r}")
    d1, d2 = dims
    rays_doc = doc.get("rays")
    if not isinstance(rays_doc, dict) or set(rays_doc) != {"left", "right"}:
        raise ScenarioError("$.rays", "bipartite rays must be an object with 'left' and 'right'")
    left_rays = _parse_rays(rays_doc["left"], d1, "$.rays.left")
    right_rays = _parse_rays(rays_doc["right"], d2, "$.rays.right")
    ctx_doc = doc.get("contexts")
    if not isinstance(ctx_doc, dict) or set(ctx_doc) != {"left", "right"}:
        raise ScenarioError("$.contexts", "bipartite contexts must be an object with 'left' and 'right'")
    left_ctx = _parse_contexts(ctx_doc["left"], len(left_rays), left_rays, "$.contexts.left")
    right_ctx = _parse_contexts(ctx_doc["right"], len(right_rays), right_rays, "$.contexts.right")
    product = None
    if "product_contexts" in doc:
        raw = doc["product_contexts"]
        if not isinstance(raw, list):
            raise ScenarioError("$.product_contexts", "must be a list of [left, right] pairs")
        pairs = []
        for i, item in enumerate(raw):
            path = f"$.product_contexts[{i}]"
            if not isinstance(item, list) or len(item) != 2:
                raise ScenarioError(path, f"invalid pair {item!r}")
            pairs.append((
                _parse_index(item[0], len(left_ctx), path + "[0]", "left context index"),
                _parse_index(item[1], len(right_ctx), path + "[1]", "right context index"),
            ))
        product = tuple(pairs)
    state = None
    if "state" in doc:
        state = _parse_matrix(doc["state"], d1 * d2, "$.state")
    tables = None
    if "tables" in doc:
        raw = doc["tables"]
        if not isinstance(raw, list):
            raise ScenarioError("$.tables", "tables must be a list")
        entries = {}
        for i, item in enumerate(raw):
            at = f"$.tables[{i}]"
            if not isinstance(item, dict) or not {"left", "right", "probs"} <= set(item):
                raise ScenarioError(at, "each table needs 'left', 'right', 'probs'")
            li = _parse_index(item["left"], len(left_ctx), at + ".left", "left context index")
            ri = _parse_index(item["right"], len(right_ctx), at + ".right", "right context index")
            if (li, ri) in entries:
                raise ScenarioError(at, f"context pair ({li}, {ri}) already has a table")
            probs = item["probs"]
            if not isinstance(probs, list):
                raise ScenarioError(at + ".probs", "must be a list of rows")
            rows = [_parse_reals(row, f"{at}.probs[{r}]") for r, row in enumerate(probs)]
            if len({len(row) for row in rows}) > 1:
                raise ScenarioError(at + ".probs", "rows must have equal length")
            entries[li, ri] = np.array(rows)
        tables = tuple((li, ri, probs) for (li, ri), probs in entries.items())
    return Scenario(
        "bipartite", (d1, d2), {"left": left_rays, "right": right_rays},
        {"left": left_ctx, "right": right_ctx}, product, state, tables, None, metadata, doc,
    )


def _catalog(
    rays: list[np.ndarray],
    contexts: list[tuple[int, ...]],
    dim: int,
    side: str = "",
    tol: float = TOL.identity,
) -> tuple[ProjectionRegistry, list[Context]]:
    """Register the rays of ``$.rays{side}`` and the contexts of ``$.contexts{side}``.

    In one batch each, rows of one array of ray projections: the rays that
    some context uses are registered in ray order; every other ray is looked
    up in that registry, and registered in a spare one so that unused rays
    are compared with each other as well; the padding complements are
    registered in context order. A ray whose projection a registry would
    neither identify with a registered one nor tell apart from it is
    rejected, named with the ray that registry holds: the first it was given
    whose projection is the registered matrix.
    """
    registry, spare = ProjectionRegistry(dim, tol), ProjectionRegistry(dim, tol)
    used = sorted({i for indices in contexts for i in indices})
    unused = sorted(set(range(len(rays))) - set(used))
    # each unit ray is normalised once more, one vector at a time: a row-wise norm
    # differs in the last bit and moves atom entries by 2.2e-16 on bundled catalogs
    units = np.array([v / np.linalg.norm(v) for v in rays]).reshape(-1, dim)
    atoms = units[:, :, None] * units[:, None, :].conj()

    def ingest(reg: ProjectionRegistry, call, batch: list[int]) -> list:
        """``call`` on the atoms of the rays in ``batch``; a rejection names two rays."""
        try:
            return call(atoms[batch])
        except CanonicalizationError as exc:
            given = used if reg is registry else unused
            held = (atoms[given] == reg.matrices([exc.key])).all(axis=(1, 2))
            earlier, later = given[held.argmax()], batch[exc.index]
            message = f"rays {earlier} and {later} are near-duplicates below the canonicalization grid"
            raise ScenarioError(f"$.rays{side}", message) from None

    keys = dict(zip(used, ingest(registry, registry.register_many, used)))
    looked_up = len(unused)  # the unused rays before the first one the lookup rejects
    try:
        registry.find_many(atoms[unused])
    except CanonicalizationError as exc:
        looked_up = exc.index
    # the earliest rejected unused ray is named, its lookup before its spare registration
    ingest(spare, spare.register_many, unused[:looked_up])
    if looked_up < len(unused):  # the rejected lookup again, alone, to name its rays
        ingest(registry, registry.find_many, unused[looked_up : looked_up + 1])
    padded = [c for c, indices in enumerate(contexts) if len(indices) < dim]
    complements = [np.eye(dim) - sum(atoms[i] for i in contexts[c]) for c in padded]
    try:
        padding = dict(zip(padded, registry.register_many(np.reshape(complements, (-1, dim, dim)))))
    except CanonicalizationError as exc:
        raise ScenarioError(f"$.contexts{side}[{padded[exc.index]}]", str(exc)) from None
    catalog = [
        Context(dim, tuple(keys[i] for i in indices) + ((padding[c],) if c in padding else ()))
        for c, indices in enumerate(contexts)
    ]
    for c, ctx in enumerate(catalog):  # a tol too coarse for the catalog merges orthogonal atoms
        repeat = first_repeat(ctx.atoms)
        if repeat is not None:
            names = [f"ray {i}" for i in contexts[c]] + ["the padding complement"]
            message = f"{names[repeat[0]]} and {names[repeat[1]]} are one projection at tol {tol}"
            raise ScenarioError(f"$.contexts{side}[{c}]", message + ", but they are orthogonal")
    return registry, catalog


def _node_positions(poset: ContextPoset, node: int, ctx: Context) -> list[int]:
    """Where each atom of catalog context ``ctx`` sits in the atom order of ``node``, its node."""
    slot = {k: t for t, k in enumerate(poset.nodes[node].atoms)}
    return [slot[k] for k in ctx.atoms]


def _merge_entry(entries: dict, node, values: np.ndarray, path: str) -> None:
    """Store per-atom ``values`` under ``node``; an earlier entry there must agree."""
    earlier = entries.setdefault(node, values)
    if earlier is not values and max_norm(earlier - values) > TOL.probability:
        raise ScenarioError(path, "disagrees with an earlier entry for the same poset context")


@dataclass
class SingleModel:
    """A single-system scenario realized as a poset, with catalog node ids."""

    poset: ContextPoset
    catalog_nodes: list[int]
    catalog: list[Context]

    def section_weights(self, section) -> dict[int, np.ndarray]:
        """A scenario's ``section`` as weights per poset node, in the node's atom order.

        Each entry lists its weights in the ray order of the catalog context
        it names. Two entries on one node must agree within ``TOL.probability``.
        """
        out: dict[int, np.ndarray] = {}
        for i, (c, weights) in enumerate(section):
            node, ctx = self.catalog_nodes[c], self.catalog[c]
            if len(weights) != len(ctx.atoms):
                raise ScenarioError(f"$.section[{i}].weights", "one weight per atom required")
            values = np.empty(len(weights))
            values[_node_positions(self.poset, node, ctx)] = weights
            _merge_entry(out, node, values, f"$.section[{i}]")
        return out


def build_single_model(sc: Scenario, tol: float = TOL.identity) -> SingleModel:
    if sc.kind != "single":
        raise ValueError("expected a single-system scenario")
    registry, catalog = _catalog(sc.rays["main"], sc.contexts["main"], sc.dims[0], "", tol)
    poset = generate_poset(catalog, registry)
    return SingleModel(poset, [poset.node_id(c) for c in catalog], catalog)


def build_single_poset(sc: Scenario, tol: float = TOL.identity) -> ContextPoset:
    return build_single_model(sc, tol).poset


def build_catalog_meets(sc: Scenario, tol: float = TOL.identity) -> CatalogMeets:
    """A single-system scenario's contexts and their pairwise meets, with no poset."""
    if sc.kind != "single":
        raise ValueError("expected a single-system scenario")
    return catalog_meets(*_catalog(sc.rays["main"], sc.contexts["main"], sc.dims[0], "", tol))


@dataclass
class BipartiteModel:
    """Everything a bipartite command needs: posets, section, analysis contexts."""

    poset: ProductPoset
    section: BellSection | None
    analysis_contexts: list[tuple[int, int]]


def build_bipartite_model(sc: Scenario, tol: float = TOL.identity) -> BipartiteModel:
    if sc.kind != "bipartite":
        raise ValueError("expected a bipartite scenario")
    lreg, lcat = _catalog(sc.rays["left"], sc.contexts["left"], sc.dims[0], ".left", tol)
    rreg, rcat = _catalog(sc.rays["right"], sc.contexts["right"], sc.dims[1], ".right", tol)
    lposet = generate_poset(lcat, lreg)
    rposet = generate_poset(rcat, rreg)
    pp = product_poset(lposet, rposet)
    lnodes = [lposet.node_id(c) for c in lcat]
    rnodes = [rposet.node_id(c) for c in rcat]
    pairs = sc.product_contexts
    if pairs is None:
        pairs = tuple((i, j) for i in range(len(lcat)) for j in range(len(rcat)))
    analysis = [(lnodes[i], rnodes[j]) for i, j in pairs]

    section = None
    if sc.tables is not None:
        # each table lists outcomes in the ray order of its catalog contexts
        tables: dict[tuple[int, int], np.ndarray] = {}
        for i, (li, ri, probs) in enumerate(sc.tables):
            node = (lnodes[li], rnodes[ri])
            want = pp.table_shape(node)
            if probs.shape != want:
                raise ScenarioError(
                    "$.tables",
                    f"table for context pair ({li}, {ri}) has shape {probs.shape}, "
                    f"expected {want}",
                )
            values = np.empty(want)
            values[np.ix_(
                _node_positions(lposet, node[0], lcat[li]),
                _node_positions(rposet, node[1], rcat[ri]),
            )] = probs
            _merge_entry(tables, node, values, f"$.tables[{i}]")
        section = BellSection(pp, {n: CorrelationTable(v) for n, v in tables.items()})
    elif sc.state is not None:
        from .bell import section_from_bipartite_state

        section = section_from_bipartite_state(pp, sc.state, tol=TOL.probability)
    return BipartiteModel(pp, section, analysis)
