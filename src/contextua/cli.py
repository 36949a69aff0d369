"""Command dispatch and report emission.

Exit codes: 0 = completed, 2 = negative verdict of the checked property
(non_colorable, not_factorisable, non_quantum, a failed round trip), 1 =
error. Reports are JSON with stable key order; timings are the only
non-deterministic block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bell import check_no_signalling, classify_section, factorisability_lp
from .catalogs import bundled_names, bundled_text
from .contexts import export_dot
from .gleason import (
    ProbSection,
    context_measure,
    is_informationally_complete,
    marginalise,
    section_from_state,
    state_from_section,
)
from .opalg import TOL, density_matrix, max_norm
from .scenario import (
    Scenario,
    build_bipartite_model,
    build_single_model,
    build_single_poset,
    parse_scenario,
)
from .spectral import enumerate_global_sections, find_global_section
from .wigner import (
    conjugate_poset,
    jordan_check,
    symmetry,
    transition_probability_deviation,
    trivial_presheaf_automorphism,
)

COMMANDS = (
    "ks-check",
    "ks-enumerate",
    "gleason-roundtrip",
    "gleason-reconstruct",
    "bell-analyze",
    "bell-classify",
    "wigner-check",
    "poset-export",
)

# per command: which verdicts count as "the checked property failed" (exit 2)
NEGATIVE_VERDICTS = {
    "ks-check": {"non_colorable"},
    "ks-enumerate": {"non_colorable"},
    "gleason-roundtrip": {"roundtrip_failed", "underdetermined"},
    "gleason-reconstruct": {"infeasible"},
    "bell-analyze": {"not_factorisable"},
    "bell-classify": {"non_quantum"},
    "wigner-check": {"wigner_failed"},
    "poset-export": set(),
}


@dataclass
class RunReport:
    command: str
    scenario_digest: str
    version: str
    verdict: str | None
    payload: dict
    timings: dict
    exit_code: int

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "scenario_digest": self.scenario_digest,
            "version": self.version,
            "verdict": self.verdict,
            **self.payload,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, default=_jsonify) + "\n"

    def to_text(self, color: bool = True) -> str:
        lines = [f"{self.command}  (scenario {self.scenario_digest}, contextua {self.version})"]
        verdict = self.verdict or "done"
        if color:
            hue = "\x1b[31m" if self.exit_code == 2 else "\x1b[32m"
            lines.append(f"verdict: {hue}{verdict}\x1b[0m")
        else:
            lines.append(f"verdict: {verdict}")
        for key in sorted(self.payload):
            if key == "dot":
                continue
            lines.append(f"{key}: {json.dumps(self.payload[key], sort_keys=True, default=_jsonify)}")
        lines.append(f"elapsed: {self.timings['total_s']:.3f}s")
        return "\n".join(lines) + "\n"


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _matrix_out(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _cmd_ks_check(sc: Scenario, tol, cap, seed) -> tuple[str, dict]:
    poset = build_single_poset(sc, tol)
    cert = find_global_section(poset)
    details = cert.to_report(poset)
    details.pop("verdict", None)
    payload = {
        "poset": {"nodes": len(poset), "projections": len(poset.registry)},
        **details,
    }
    return cert.verdict, payload


def _cmd_ks_enumerate(sc: Scenario, tol, cap, seed) -> tuple[str, dict]:
    poset = build_single_poset(sc, tol)
    result = enumerate_global_sections(poset, cap=cap)
    verdict = "colorable" if len(result) else "non_colorable"
    payload = {
        "count": len(result),
        "truncated": result.truncated,
        "sections": [s.value_table(poset) for s in result.sections[: min(cap, 100)]],
    }
    return verdict, payload


def _random_density(rng, dim: int):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return density_matrix(m / np.trace(m).real, tol=TOL.probability)


def _cmd_gleason_roundtrip(sc: Scenario, tol, cap, seed) -> tuple[str, dict]:
    poset = build_single_poset(sc, tol)
    complete = is_informationally_complete(poset)
    rng = np.random.default_rng(seed)
    n_states = 5
    worst = 0.0
    statuses = []
    for _ in range(n_states):
        rho = _random_density(rng, poset.dim)
        result = state_from_section(poset, section_from_state(poset, rho))
        statuses.append(result.status)
        if result.status == "unique":
            worst = max(worst, max_norm(result.state.matrix - rho.matrix))
    payload = {
        "informationally_complete": complete,
        "n_states": n_states,
        "statuses": statuses,
        "max_roundtrip_error": worst,
    }
    if not complete:
        verdict = "underdetermined"
    elif all(s == "unique" for s in statuses) and worst <= TOL.roundtrip:
        verdict = "roundtrip_ok"
    else:
        verdict = "roundtrip_failed"
    return verdict, payload


def _cmd_gleason_reconstruct(sc: Scenario, tol, cap, seed) -> tuple[str, dict]:
    model = build_single_model(sc, tol)
    poset = model.poset
    if sc.section is not None:
        assignment = {}
        for ctx_index, weights in sc.section:
            node = model.catalog_nodes[ctx_index]
            assignment[node] = context_measure(poset, node, weights, tol=TOL.probability)
        for i in range(len(poset)):
            if i in assignment:
                continue
            ups = [j for j in list(assignment) if poset.order[i, j]]
            if not ups:
                raise ValueError(
                    f"section does not determine poset node {i}; provide weights for "
                    "every catalog context"
                )
            assignment[i] = marginalise(poset, assignment[ups[0]], i)
        section = ProbSection(assignment, frozenset(range(len(poset))))
    elif sc.state is not None:
        section = section_from_state(poset, density_matrix(sc.state, tol=TOL.probability))
    else:
        raise ValueError("gleason-reconstruct needs a 'section' or 'state' in the scenario")
    result = state_from_section(poset, section)
    payload = {
        "informationally_complete": is_informationally_complete(poset),
        **result.to_report(),
    }
    if result.status == "unique":
        payload["state"] = _matrix_out(result.state.matrix)
    return result.status, payload


def _cmd_bell_analyze(sc: Scenario, tol, cap, seed) -> tuple[str, dict]:
    model = build_bipartite_model(sc, tol)
    if model.section is None:
        raise ValueError("bell-analyze needs a 'state' or 'tables' in the scenario")
    s = model.section
    contexts = [n for n in model.analysis_contexts if n in s.domain]
    ns = check_no_signalling(s, tol=TOL.probability)
    lp = factorisability_lp(s, contexts, cap=cap)
    payload = {
        "no_signalling": ns,
        "min_probability": s.min_probability(),
        "lp": lp.to_report(),
    }
    verdict = "factorisable" if lp.factorisable else "not_factorisable"
    return verdict, payload


def _cmd_bell_classify(sc: Scenario, tol, cap, seed) -> tuple[str, dict]:
    model = build_bipartite_model(sc, tol)
    if model.section is None:
        raise ValueError("bell-classify needs a 'state' or 'tables' in the scenario")
    result = classify_section(model.section)
    payload = result.to_report()
    payload.pop("verdict", None)
    if result.witness is not None:
        payload["witness"] = _matrix_out(result.witness)
    return result.verdict, payload


def _cmd_wigner_check(sc: Scenario, tol, cap, seed) -> tuple[str, dict]:
    poset = build_single_poset(sc, tol)
    rng = np.random.default_rng(seed)
    dim = poset.dim
    n_each = 5
    order_ok = True
    max_jordan = 0.0
    max_transition = 0.0
    signs_ok = True
    rays = [p for i in range(len(poset)) for p in poset.atoms_of(i) if p.rank == 1]
    for kind in ("unitary", "antiunitary"):
        for _ in range(n_each):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, r = np.linalg.qr(g)
            u = q @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))
            s = symmetry(kind, u)
            image, pmap = conjugate_poset(poset, s)
            order_ok &= trivial_presheaf_automorphism(poset, pmap, image)
            samples = []
            for _ in range(5):
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                samples.append((0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)))
            rep = jordan_check(s, samples)
            max_jordan = max(max_jordan, rep.max_jordan_residual)
            want = 1 if kind == "unitary" else -1
            signs_ok &= rep.sign == want
            max_transition = max(
                max_transition, transition_probability_deviation(s, rays[:8])
            )
    ok = order_ok and signs_ok and max_jordan <= TOL.exact and max_transition <= TOL.exact
    payload = {
        "n_unitaries": n_each,
        "n_antiunitaries": n_each,
        "order_automorphisms": order_ok,
        "commutator_signs_separate": signs_ok,
        "max_jordan_residual": max_jordan,
        "max_transition_deviation": max_transition,
    }
    return ("wigner_ok" if ok else "wigner_failed"), payload


def _cmd_poset_export(sc: Scenario, tol, cap, seed) -> tuple[str, dict]:
    if sc.kind == "single":
        poset = build_single_poset(sc, tol)
        dot = export_dot(poset)
    else:
        model = build_bipartite_model(sc, tol)
        dot = export_dot(model.poset.left) + export_dot(model.poset.right)
    return "exported", {"dot": dot}


_HANDLERS = {
    "ks-check": _cmd_ks_check,
    "ks-enumerate": _cmd_ks_enumerate,
    "gleason-roundtrip": _cmd_gleason_roundtrip,
    "gleason-reconstruct": _cmd_gleason_reconstruct,
    "bell-analyze": _cmd_bell_analyze,
    "bell-classify": _cmd_bell_classify,
    "wigner-check": _cmd_wigner_check,
    "poset-export": _cmd_poset_export,
}


def run(
    command: str,
    scenario: Scenario,
    tol: float = TOL.identity,
    cap: int = 10**6,
    seed: int = 0,
) -> RunReport:
    """Dispatch a command on a parsed scenario and assemble the report.

    ``tol`` is the projection-identity tolerance of the scenario's registries.
    """
    if command not in _HANDLERS:
        raise ValueError(f"unknown command {command!r}")
    start = time.perf_counter()
    verdict, payload = _HANDLERS[command](scenario, tol, cap, seed)
    elapsed = time.perf_counter() - start
    exit_code = 2 if verdict in NEGATIVE_VERDICTS[command] else 0
    return RunReport(
        command,
        scenario.digest(),
        __version__,
        verdict,
        payload,
        {"total_s": elapsed},
        exit_code,
    )


def _load_scenario_text(spec: str) -> str:
    if spec.startswith("builtin:"):
        return bundled_text(spec[len("builtin:") :])
    return Path(spec).read_text(encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="contextua",
        description="contextuality toolkit: KS colorings, state reconstruction, "
        "Bell analysis, symmetry checks",
        epilog=f"bundled scenarios (use --scenario builtin:NAME): {', '.join(bundled_names())}",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON, or builtin:NAME")
    parser.add_argument("--out", default=None, help="also write the report to this path")
    tol_help = "projection-identity tolerance: projections this close (max entry) are one"
    parser.add_argument("--tol", type=float, default=TOL.identity, help=tol_help)
    parser.add_argument("--cap", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "text", "dot"), default="json")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        scenario = parse_scenario(_load_scenario_text(args.scenario))
        report = run(args.command, scenario, tol=args.tol, cap=args.cap, seed=args.seed)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "dot":
        if "dot" not in report.payload:
            print("error: --format dot is only available for poset-export", file=sys.stderr)
            return 1
        rendered = report.payload["dot"]
    elif args.format == "text":
        color = os.environ.get("CONTEXTUA_NO_COLOR") is None and sys.stdout.isatty()
        rendered = report.to_text(color=color)
    else:
        rendered = report.to_json()
    sys.stdout.write(rendered)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
