"""Span tracer for the traced run, and the per-layer metrics computed from it.

The tracer wraps public functions of ``contextua`` where their callers look
them up (module attributes such as ``contextua.cli.find_global_section``)
and three methods on their classes. Each wrapped call records a span
``[name, start, end, parent, job, failed]`` in memory; spans are written
out only when the run ends. Span names are ``<layer>.<function>``, and a
layer is a module of ``contextua``.

A span's self time is its duration minus the time its child spans cover.
Counting hooks run after a span has closed, so their small cost falls in
the caller's self time and in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("scenario", "opalg", "contexts", "spectral", "gleason", "bell", "wigner", "cli")

# name -> (unit, better). Times and counts are per pass over the job list.
PER_LAYER = {
    "setup.import_s": ("s", "lower"),
    "setup.build_s": ("s", "lower"),
    "scenario.parse_s": ("s", "lower"),
    "scenario.build_s": ("s", "lower"),
    "scenario.calls": ("count", "lower"),
    "opalg.register_s": ("s", "lower"),
    "opalg.register_calls": ("count", "lower"),
    "opalg.keys": ("count", "lower"),
    "contexts.generate_s": ("s", "lower"),
    "contexts.nodes": ("count", "lower"),
    "contexts.order_cells": ("count", "lower"),
    "contexts.constraining_ratio": ("1", "higher"),
    "contexts.dominator_s": ("s", "lower"),
    "contexts.dominator_calls": ("count", "lower"),
    "contexts.dominator_built": ("count", "lower"),
    "spectral.search_s": ("s", "lower"),
    "spectral.expanded": ("count", "lower"),
    "spectral.backtracks": ("count", "lower"),
    "spectral.backtrack_ratio": ("1", "lower"),
    "spectral.enumerate_s": ("s", "lower"),
    "spectral.raw_choices": ("count", "lower"),
    "spectral.sections": ("count", "lower"),
    "gleason.section_s": ("s", "lower"),
    "gleason.solve_s": ("s", "lower"),
    "gleason.rows": ("count", "lower"),
    "gleason.ic_s": ("s", "lower"),
    "bell.strategies_s": ("s", "lower"),
    "bell.strategies": ("count", "lower"),
    "bell.lp_s": ("s", "lower"),
    "bell.lp_cells": ("count", "lower"),
    "bell.separating_lps": ("count", "lower"),
    "bell.table_s": ("s", "lower"),
    "bell.no_signalling_s": ("s", "lower"),
    "bell.classify_s": ("s", "lower"),
    "wigner.conjugate_s": ("s", "lower"),
    "wigner.rebuilds": ("count", "lower"),
    "wigner.rebuild_cells": ("count", "lower"),
    "wigner.resolved_ratio": ("1", "higher"),
    "wigner.automorphism_s": ("s", "lower"),
    "wigner.jordan_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
    "cli.jobs": ("count", "higher"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.errors": ("count", "lower") for layer in LAYERS},
    "trace.overhead_ratio": ("1", "lower"),
    "trace.attribution_share": ("1", "higher"),
}


# the traced share expected to dominate each workload, from profiling the seed program
EXPECTED_PROFILE = {
    "ks-ladder": "self time of contexts + opalg + spectral, over all jobs",
    "state-sweep": "self time of gleason, over all jobs",
    "bell-sweep": "bell strategies + LP self time, over jobs at or above p90",
    "symmetry": "wigner.conjugate_poset, over all jobs",
}


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def constraining_nodes(order) -> int:
    """Maximal nodes plus nodes lying under at least two maximal nodes."""
    order = np.asarray(order, dtype=bool)
    strict = order & ~np.eye(len(order), dtype=bool)
    maximal = ~strict.any(axis=1)
    under = strict[:, maximal].sum(axis=1)
    return int(np.count_nonzero(maximal | (under >= 2)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = failed
        self._stack.pop()

    def wrap(self, name: str, fn, count=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index, failed=True)
                raise
            tracer.close(index)
            if count is not None:
                count(tracer.counters, args, result, pre)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None, before=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, before))

    def install(self) -> None:
        """Wrap the program's public entry points, where their callers look them up."""
        import contextua.bell as bell
        import contextua.cli as cli
        import contextua.contexts as contexts
        import contextua.gleason as gleason
        import contextua.opalg as opalg
        import contextua.scenario as scenario
        import contextua.wigner as wigner

        def add(counters, key, value=1):
            counters[key] += value

        self.patch(cli, "main", "cli.main", lambda c, a, r, p: add(c, "cli.jobs"))
        self.patch(cli.RunReport, "to_json", "cli.to_json")
        for owner in (cli, scenario):
            self.patch(owner, "parse_scenario", "scenario.parse_scenario")
            self.patch(owner, "build_single_poset", "scenario.build_single_poset")
            self.patch(owner, "build_single_model", "scenario.build_single_model")
        self.patch(cli, "build_bipartite_model", "scenario.build_bipartite_model")

        def registered(c, args, result, before):
            add(c, "opalg.register_calls")
            add(c, "opalg.keys", len(args[0]) - before)

        self.patch(opalg.ProjectionRegistry, "register", "opalg.register", registered, lambda a: len(a[0]))

        def generated(c, args, poset, before):
            n = len(poset)
            add(c, "contexts.nodes", n)
            add(c, "contexts.order_cells", n * n)
            add(c, "contexts.constraining", constraining_nodes(poset.order))

        self.patch(scenario, "generate_poset", "contexts.generate_poset", generated)

        def cached(args):  # reads the poset's private cache to tell a hit from a build
            poset, small, large = args[:3]
            return (small, large) in (getattr(poset, "_dominators", None) or {})

        def dominated(c, args, result, was_cached):
            add(c, "contexts.dominator_calls")
            add(c, "contexts.dominator_built", 0 if was_cached else 1)

        self.patch(contexts.ContextPoset, "dominator_map", "contexts.dominator_map", dominated, cached)

        def searched(c, args, cert, before):
            add(c, "spectral.expanded", cert.nodes_expanded)
            add(c, "spectral.backtracks", cert.backtracks)

        self.patch(cli, "find_global_section", "spectral.find_global_section", searched)

        def enumerated(c, args, result, before):
            poset = args[0]
            maximal = np.flatnonzero(~(poset.order & ~np.eye(len(poset), dtype=bool)).any(axis=1))
            add(c, "spectral.raw_choices", math.prod(len(poset.nodes[m].atoms) for m in maximal))
            add(c, "spectral.sections", len(result))

        for owner in (cli, bell):
            self.patch(owner, "enumerate_global_sections", "spectral.enumerate_global_sections", enumerated)

        def solved(c, args, result, before):
            poset, section = args[:2]
            add(c, "gleason.rows", 1 + sum(len(poset.nodes[i].atoms) for i in section.domain))

        for owner in (cli, gleason):
            self.patch(owner, "section_from_state", "gleason.section_from_state")
            self.patch(owner, "state_from_section", "gleason.state_from_section", solved)
            self.patch(owner, "is_informationally_complete", "gleason.is_informationally_complete")

        self.patch(scenario, "product_poset", "bell.product_poset")
        self.patch(bell, "section_from_bipartite_state", "bell.section_from_bipartite_state")
        self.patch(cli, "check_no_signalling", "bell.check_no_signalling")
        self.patch(cli, "classify_section", "bell.classify_section")
        self.patch(
            bell, "deterministic_strategies", "bell.deterministic_strategies",
            lambda c, a, r, p: add(c, "bell.strategies", len(r)),
        )

        def lp_solved(c, args, lp, before):
            section, contexts_ = args[:2]
            rows = sum(section.tables[n].probs.size for n in contexts_)
            add(c, "bell.lp_cells", rows * lp.n_strategies)
            add(c, "bell.separating_lps", 0 if lp.factorisable else 1)

        self.patch(cli, "factorisability_lp", "bell.factorisability_lp", lp_solved)

        def conjugated(c, args, result, before):
            image, _ = result
            add(c, "wigner.conjugations")
            if image is args[0]:
                add(c, "wigner.resolved")
            else:
                add(c, "wigner.rebuilds")
                add(c, "wigner.rebuild_cells", len(image) ** 2)

        for owner in (cli, wigner):
            self.patch(owner, "conjugate_poset", "wigner.conjugate_poset", conjugated)
            self.patch(owner, "trivial_presheaf_automorphism", "wigner.trivial_presheaf_automorphism")
        self.patch(cli, "symmetry", "wigner.symmetry")
        self.patch(cli, "jordan_check", "wigner.jordan_check")
        self.patch(cli, "transition_probability_deviation", "wigner.transition_probability_deviation")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_metrics(spans, counters: dict, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans and counters of ``passes`` traced passes."""
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    for span, s in zip(spans, selfs):
        name, layer = span[0], span[0].split(".", 1)[0]
        total[name] += span[2] - span[1]
        own[name] += s
        own[layer] += s
        calls[layer] += 1
        errors[layer] += int(span[5])
    c = defaultdict(float, counters)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    per_pass = {
        "scenario.parse_s": total["scenario.parse_scenario"],
        "scenario.build_s": sum(v for k, v in own.items() if k.startswith("scenario.build_")),
        "scenario.calls": calls["scenario"],
        "opalg.register_s": total["opalg.register"],
        "opalg.register_calls": c["opalg.register_calls"],
        "opalg.keys": c["opalg.keys"],
        "contexts.generate_s": own["contexts.generate_poset"],
        "contexts.nodes": c["contexts.nodes"],
        "contexts.order_cells": c["contexts.order_cells"],
        "contexts.dominator_s": total["contexts.dominator_map"],
        "contexts.dominator_calls": c["contexts.dominator_calls"],
        "contexts.dominator_built": c["contexts.dominator_built"],
        "spectral.search_s": own["spectral.find_global_section"],
        "spectral.expanded": c["spectral.expanded"],
        "spectral.backtracks": c["spectral.backtracks"],
        "spectral.enumerate_s": total["spectral.enumerate_global_sections"],
        "spectral.raw_choices": c["spectral.raw_choices"],
        "spectral.sections": c["spectral.sections"],
        "gleason.section_s": total["gleason.section_from_state"],
        "gleason.solve_s": total["gleason.state_from_section"],
        "gleason.rows": c["gleason.rows"],
        "gleason.ic_s": total["gleason.is_informationally_complete"],
        "bell.strategies_s": total["bell.deterministic_strategies"],
        "bell.strategies": c["bell.strategies"],
        "bell.lp_s": own["bell.factorisability_lp"],
        "bell.lp_cells": c["bell.lp_cells"],
        "bell.separating_lps": c["bell.separating_lps"],
        "bell.table_s": total["bell.section_from_bipartite_state"],
        "bell.no_signalling_s": total["bell.check_no_signalling"],
        "bell.classify_s": total["bell.classify_section"],
        "wigner.conjugate_s": total["wigner.conjugate_poset"],
        "wigner.rebuilds": c["wigner.rebuilds"],
        "wigner.rebuild_cells": c["wigner.rebuild_cells"],
        "wigner.automorphism_s": total["wigner.trivial_presheaf_automorphism"],
        "wigner.jordan_s": total["wigner.jordan_check"],
        "cli.report_s": total["cli.to_json"],
        "cli.jobs": c["cli.jobs"],
        **{f"{layer}.self_s": own[layer] for layer in LAYERS},
        **{f"{layer}.errors": errors[layer] for layer in LAYERS},
    }
    out = {name: value / passes for name, value in per_pass.items()}
    out["contexts.constraining_ratio"] = ratio(c["contexts.constraining"], c["contexts.nodes"])
    out["spectral.backtrack_ratio"] = ratio(c["spectral.backtracks"], c["spectral.expanded"])
    out["wigner.resolved_ratio"] = ratio(c["wigner.resolved"], c["wigner.conjugations"])
    return out


def job_self_times(spans) -> dict[str, dict[str, float]]:
    """Self time per layer for each job id (one row per job)."""
    rows: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, s in zip(spans, self_times(spans)):
        rows[span[4]][span[0].split(".", 1)[0]] += s
    return {job: dict(layers) for job, layers in rows.items()}


def attribution_share(workload: str, spans, rows) -> float:
    """Share of traced job time spent where ``EXPECTED_PROFILE`` puts most of it."""
    traced = [r for r in rows if r["traced"]]
    if workload == "bell-sweep":
        cut = statistics.quantiles([r["wall_s"] for r in traced], n=100)[89]
        traced = [r for r in traced if r["wall_s"] >= cut]
    ids = {r["id"] for r in traced}
    job_time = part = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span[4] not in ids:
            continue
        name, layer = span[0], span[0].split(".", 1)[0]
        total = span[2] - span[1]
        if name == "job.run":
            job_time += total
        if workload == "ks-ladder" and layer in ("contexts", "opalg", "spectral"):
            part += own
        elif workload == "state-sweep" and layer == "gleason":
            part += own
        elif workload == "bell-sweep" and name == "bell.deterministic_strategies":
            part += total
        elif workload == "bell-sweep" and name == "bell.factorisability_lp":
            part += own
        elif workload == "symmetry" and name == "wigner.conjugate_poset":
            part += total
    return part / job_time if job_time else 0.0
