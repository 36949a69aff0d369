"""The four workloads: seeded job lists, and an oracle for every job.

A job is one call through a public entry point of ``contextua``: either
``contextua.cli.main(argv)`` on a generated scenario file, with stdout
captured, or the library calls that the ``scripts/`` make on posets built
during set-up. Every entry point is looked up on its module at call time,
so the traced run's wrappers see each call.

An oracle never calls the function it checks. It compares the answer with
a fact known from the generated input: a theorem (ks18 and Peres-24 are
not colourable), a closed form (the CHSH value), the generated state, or a
dimension count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import contextua.catalogs
import contextua.cli
import contextua.gleason
import contextua.opalg
import contextua.scenario
import contextua.wigner
import numpy as np

import generators as gen

ROUNDTRIP_TOL = 1e-8  # max-entry error of a reconstructed state
RECONSTRUCTION_TOL = 1e-6  # max-entry error of a factorisable LP certificate


@dataclass
class Outcome:
    """What a job returned, reduced to what the oracle and the digest need."""

    verdict: str | None
    exit_code: int
    counters: dict  # integer results; the determinism digest covers them
    report: dict  # everything the oracle reads, floats included


@dataclass
class Job:
    name: str  # unique within the workload
    klass: str  # job class; the mixes below place percentiles inside one class
    call: Callable[[], Any]  # the timed work
    read: Callable[[Any], Outcome]  # untimed: raw result to outcome
    expect: Callable[[Outcome], list[str]]  # problems found; empty when correct


def run_job(job: Job) -> tuple[float, Outcome | None, list[str]]:
    """Time the job's call, then apply its oracle; a raising job is a failed job."""
    start = time.perf_counter()
    try:
        raw = job.call()
    except Exception as exc:  # noqa: BLE001 - counted as a failure, never fatal
        return time.perf_counter() - start, None, [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    try:
        outcome = job.read(raw)
        return seconds, outcome, job.expect(outcome)
    except Exception as exc:  # noqa: BLE001 - an unreadable answer is a wrong answer
        return seconds, None, [f"oracle raised {type(exc).__name__}: {exc}"]


def digest_line(job: Job, outcome: Outcome | None) -> str:
    if outcome is None:
        return json.dumps([job.name, None])
    return json.dumps(
        [job.name, outcome.verdict, outcome.exit_code, outcome.counters], sort_keys=True
    )


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class Runner:
    """Runs passes over a job list, checks each job and keeps one row per run job."""

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.rows = []
        self.first_lines: dict[str, str] = {}
        self.problems: list[str] = []
        self.failed = 0
        self.pass_times: list[float] = []

    def run_pass(self, tracer=None) -> None:
        number = len(self.pass_times)
        start = time.perf_counter()
        for index, job in enumerate(self.jobs):
            job_id = f"{number}:{index}"
            if tracer is not None:
                tracer.job = job_id
                span = tracer.open("job.run")
            seconds, outcome, problems = run_job(job)
            if tracer is not None:
                tracer.close(span, failed=bool(problems))
            line = digest_line(job, outcome)
            first = self.first_lines.setdefault(job.name, line)
            if line != first:
                problems = problems + ["outcome differs from the first pass"]
            if problems:
                self.failed += 1
                self.problems.append(f"{job.name} (pass {number}): {'; '.join(problems)}")
            self.rows.append({
                "job": job.name, "id": job_id, "class": job.klass, "pass": number,
                "traced": tracer is not None, "wall_s": seconds,
                "verdict": outcome.verdict if outcome else None,
                "exit_code": outcome.exit_code if outcome else None, "ok": not problems,
            })
        self.pass_times.append(time.perf_counter() - start)

    def run_for(self, seconds: float, tracer=None) -> list[float]:
        """Whole passes, ending nearest to ``seconds`` (at least one); returns their times."""
        first = len(self.pass_times)
        start = time.perf_counter()
        while True:
            self.run_pass(tracer)
            if time.perf_counter() - start + self.pass_times[-1] / 2 >= seconds:
                return self.pass_times[first:]

    @property
    def attempted(self) -> int:
        return len(self.rows)

    def digest(self) -> str:
        return digest([self.first_lines[job.name] for job in self.jobs])


# -- CLI jobs ----------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = contextua.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def int_leaves(obj, prefix: str = "") -> dict:
    """Integer (and boolean) leaves of a report, keyed by path; floats are left out."""
    out = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key != "timings":
                out.update(int_leaves(value, f"{prefix}{key}."))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            out.update(int_leaves(value, f"{prefix}{i}."))
    elif isinstance(obj, int):
        out[prefix.rstrip(".")] = int(obj)
    return out


def read_cli(raw: tuple[int, str, str]) -> Outcome:
    code, text, err = raw
    report = json.loads(text) if text.strip() else {"stderr": err.strip()}
    return Outcome(report.get("verdict"), code, int_leaves(report), report)


def cli_job(name: str, klass: str, argv: list[str], expect) -> Job:
    return Job(name, klass, lambda: run_cli(argv), read_cli, expect)


def verdict_is(verdict: str, exit_code: int, extra=None):
    """Oracle: a fixed verdict and exit code, plus optional checks on the report."""

    def expect(o: Outcome) -> list[str]:
        problems = []
        if o.verdict != verdict:
            problems.append(f"verdict {o.verdict!r}, want {verdict!r} ({o.report.get('stderr', '')})")
        if o.exit_code != exit_code:
            problems.append(f"exit code {o.exit_code}, want {exit_code}")
        if extra is not None and not problems:
            problems += extra(o.report)
        return problems

    return expect


def count_is(want: int):
    return lambda report: [] if report.get("count") == want else [f"count {report.get('count')!r}, want {want}"]


def lp_certificate(report: dict) -> list[str]:
    """A factorisable verdict needs hull weights that fit; a negative one a violated witness."""
    lp = report["lp"]
    problems = [] if report.get("no_signalling") else ["tables signal"]
    if lp["verdict"] == "factorisable":
        if not lp["reconstruction_error"] <= RECONSTRUCTION_TOL:
            problems.append(f"reconstruction error {lp['reconstruction_error']}")
    elif not lp["witness_value"] > lp["deterministic_max"]:
        problems.append(f"witness {lp['witness_value']} <= deterministic max {lp['deterministic_max']}")
    return problems


# -- set-up helpers ------------------------------------------------------------


class DocWriter:
    """Writes generated scenario documents into the run's work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def __call__(self, doc: dict) -> str:
        self.count += 1
        path = self.workdir / f"scenario-{self.count:03d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


def build_poset(path: str):
    scenario = contextua.scenario.parse_scenario(Path(path).read_text(encoding="utf-8"))
    return contextua.scenario.build_single_poset(scenario)


def bundled(name: str) -> dict:
    return contextua.catalogs.bundled_scenario(name)


# -- ks-ladder -----------------------------------------------------------------

N_D5_BASES = 12  # p50 falls inside the d5 class, p90 inside the ~0.4 s Peres/d6 band


def ks_ladder(rng: np.random.Generator, write: DocWriter) -> list[Job]:
    def ks_check(name, klass, doc, verdict):
        code = 2 if verdict == "non_colorable" else 0
        return cli_job(name, klass, ["ks-check", "--scenario", write(doc)], verdict_is(verdict, code))

    jobs = []
    for k in range(N_D5_BASES):
        rays, contexts = gen.single_basis(5, gen.haar_unitary(rng, 5))
        jobs.append(ks_check(f"basis-d5-{k}", "basis-d5", gen.single_doc(rays, contexts, "d5"), "colorable"))
    for d in (6, 7):
        rays, contexts = gen.single_basis(d, gen.haar_unitary(rng, d))
        jobs.append(ks_check(f"basis-d{d}", f"basis-d{d}", gen.single_doc(rays, contexts, f"d{d}"), "colorable"))

    ks18 = bundled("ks18-c4")
    rays18 = [np.array(r, dtype=complex) for r in ks18["rays"]]
    jobs.append(ks_check("ks18", "ks18", ks18, "non_colorable"))
    rotated = gen.rotate(rays18, gen.haar_unitary(rng, 4))
    jobs.append(ks_check("ks18-rotated", "ks18", gen.single_doc(rotated, ks18["contexts"], "ks18 rotated"), "non_colorable"))

    rays24, tetrads = gen.peres24()
    jobs.append(ks_check("peres24", "peres24", gen.single_doc(rays24, tetrads, "peres24"), "non_colorable"))
    rotated = gen.rotate(rays24, gen.haar_unitary(rng, 4))
    jobs.append(ks_check("peres24-rotated", "peres24", gen.single_doc(rotated, tetrads, "peres24 rotated"), "non_colorable"))

    jobs.append(cli_job(
        "enumerate-ks18", "enumerate-ks18", ["ks-enumerate", "--scenario", write(ks18)],
        verdict_is("non_colorable", 2, count_is(0)),
    ))
    jobs.append(cli_job(
        "enumerate-demo-c3", "enumerate-demo-c3", ["ks-enumerate", "--scenario", write(bundled("demo-c3"))],
        verdict_is("colorable", 0, count_is(3)),
    ))
    return jobs


# -- state-sweep ---------------------------------------------------------------

N_STATES = 10  # per catalog; three catalogs in equal shares


def roundtrip_job(name: str, klass: str, poset, rho: np.ndarray, n_bases: int) -> Job:
    """``section_from_state`` then ``state_from_section`` on a prebuilt poset."""
    d = rho.shape[0]
    state = contextua.opalg.density_matrix(rho, tol=1e-7)
    # rank of a catalog of k MUBs plus the identity: 1 + k (d - 1)
    missing = d * d - (1 + n_bases * (d - 1))

    def call():
        g = contextua.gleason
        complete = g.is_informationally_complete(poset)
        return complete, g.state_from_section(poset, g.section_from_state(poset, state))

    def read(raw) -> Outcome:
        complete, result = raw
        error = None if result.state is None else float(np.abs(result.state.matrix - rho).max())
        counters = {"complete": int(complete), "free": result.solution_space_dim or 0}
        return Outcome(result.status, 0, counters, {"error": error})

    def expect(o: Outcome) -> list[str]:
        if missing == 0:
            if o.verdict != "unique" or not o.counters["complete"]:
                return [f"status {o.verdict!r} on a complete catalog"]
            if not o.report["error"] <= ROUNDTRIP_TOL:
                return [f"round-trip error {o.report['error']:.3e}"]
            return []
        if o.verdict != "underdetermined" or o.counters["complete"]:
            return [f"status {o.verdict!r} on an incomplete catalog"]
        if o.counters["free"] != missing:
            return [f"{o.counters['free']} free directions, want {missing}"]
        return []

    return Job(name, klass, call, read, expect)


def state_sweep(rng: np.random.Generator, write: DocWriter) -> list[Job]:
    rays5, contexts5 = gen.wootters_fields(5)
    catalogs = [
        ("mub-c3", bundled("mub-c3"), 4),
        ("wf5", gen.single_doc(rays5, contexts5, "wf5"), 6),
        ("wf5-first4", gen.single_doc(rays5[:20], contexts5[:4], "wf5 first 4"), 4),
    ]
    posets = {name: build_poset(write(doc)) for name, doc, _ in catalogs}
    states = {d: [gen.random_density(rng, d) for _ in range(N_STATES)] for d in (3, 5)}
    jobs = []
    for k in range(N_STATES):
        for name, _, n_bases in catalogs:
            poset = posets[name]
            jobs.append(roundtrip_job(f"{name}-{k}", name, poset, states[poset.dim][k], n_bases))
    return jobs


# -- bell-sweep ----------------------------------------------------------------

N_THETA = 13  # 26 qubit jobs: 65% of the mix, so p50 sits inside them
N_QUTRIT_LP = 7  # 4-setting qutrit LPs: the top 17.5%, so p90 sits inside them


def bell_sweep(rng: np.random.Generator, write: DocWriter) -> list[Job]:
    jobs = []
    for k, (theta, v) in enumerate(gen.chsh_grid(rng, N_THETA)):
        nonlocal_ = gen.chsh_value(theta, v) > 2
        verdict = "not_factorisable" if nonlocal_ else "factorisable"
        jobs.append(cli_job(
            f"chsh-{k}", "chsh-nonlocal" if nonlocal_ else "chsh-local",
            ["bell-analyze", "--scenario", write(gen.chsh_doc(theta, v))],
            verdict_is(verdict, 2 if nonlocal_ else 0, lp_certificate),
        ))

    def analyze(name, v, n_settings, transposed):
        path = write(gen.isotropic_doc(v, n_settings, transposed))

        def expect(o: Outcome) -> list[str]:
            if o.exit_code == 1 or "lp" not in o.report:
                return [f"no LP report ({o.report.get('stderr', '')})"]
            problems = lp_certificate(o.report)
            # an isotropic state with v <= 1/(d+1) is separable, so its tables are local
            if v <= 0.25 and o.verdict != "factorisable":
                problems.append(f"separable state judged {o.verdict!r}")
            if o.exit_code != (2 if o.verdict == "not_factorisable" else 0):
                problems.append(f"exit code {o.exit_code} for {o.verdict!r}")
            return problems

        return cli_job(name, f"qutrit{n_settings}-analyze", ["bell-analyze", "--scenario", path], expect)

    def classify(name, v, n_settings, transposed, verdict):
        path = write(gen.isotropic_doc(v, n_settings, transposed))
        return cli_job(name, f"qutrit{n_settings}-classify", ["bell-classify", "--scenario", path], verdict_is(verdict, 0))

    v3 = gen.stratified(rng, 3, 0.05, 1.0)
    jobs.append(analyze("qutrit3-analyze-iso", v3[0], 3, False))
    jobs.append(analyze("qutrit3-analyze-pt", v3[1], 3, True))
    # three MUBs per side span 7 of 9 local dimensions: the product family is incomplete
    jobs.append(classify("qutrit3-classify-iso", v3[2], 3, False, "underdetermined"))

    # the partial transpose of an isotropic state is positive iff v <= 1/4
    v_low, v_high = float(rng.uniform(0.05, 0.24)), float(rng.uniform(0.26, 1.0))
    jobs.append(classify("qutrit4-classify-iso-low", v_low, 4, False, "quantum"))
    jobs.append(classify("qutrit4-classify-pt-low", v_low, 4, True, "quantum"))
    jobs.append(classify("qutrit4-classify-iso-high", v_high, 4, False, "quantum"))
    jobs.append(classify("qutrit4-classify-pt-high", v_high, 4, True, "quantum_time_reversed"))

    for k, v in enumerate(gen.stratified(rng, N_QUTRIT_LP, 0.05, 1.0)):
        jobs.append(analyze(f"qutrit4-analyze-{k}", v, 4, bool(k % 2)))
    return jobs


# -- symmetry ------------------------------------------------------------------

N_KS18_WIGNER = 2
N_MUB_WIGNER = 12
N_CONJUGATIONS = 26  # 65% of the mix: p50 in the conjugations, p90 in mub-c3 checks


def weyl_ops(rng: np.random.Generator, n: int) -> list[tuple[str, Any]]:
    """X, Z and complex conjugation on C^3, then seeded products X^a Z^b K^c."""
    omega = np.exp(2j * np.pi / 3)
    x = np.roll(np.eye(3), 1, axis=0)
    z = np.diag(omega ** np.arange(3))
    specs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    while len(specs) < n:
        specs.append(tuple(int(t) for t in rng.integers(0, (3, 3, 2))))
    ops = []
    for a, b, c in specs:
        u = np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
        kind = "antiunitary" if c else "unitary"
        ops.append((f"X^{a}Z^{b}K^{c}", contextua.wigner.symmetry(kind, u)))
    return ops


def conjugation_job(name: str, poset, op) -> Job:
    """A Weyl-Clifford symmetry permutes the MUBs of d3, so it resolves inside the poset."""

    def call():
        w = contextua.wigner
        image, node_map = w.conjugate_poset(poset, op)
        return image is poset, w.trivial_presheaf_automorphism(poset, node_map, image), node_map

    def read(raw) -> Outcome:
        resolved, automorphism, node_map = raw
        moved = sum(1 for i, j in enumerate(node_map.node_map) if i != j)
        verdict = "resolved" if resolved else "rebuilt"
        return Outcome(verdict, 0, {"automorphism": int(automorphism), "moved": moved}, {})

    def expect(o: Outcome) -> list[str]:
        problems = [] if o.verdict == "resolved" else ["image poset was rebuilt"]
        return problems + ([] if o.counters["automorphism"] else ["not an order automorphism"])

    return Job(name, "conjugate-mub-c3", call, read, expect)


def symmetry(rng: np.random.Generator, write: DocWriter) -> list[Job]:
    ok = verdict_is("wigner_ok", 0, lambda r: [
        f"{key} is false" for key in ("order_automorphisms", "commutator_signs_separate") if not r[key]
    ])
    ks18, mub = write(bundled("ks18-c4")), write(bundled("mub-c3"))
    jobs = []
    for path, name, n in ((ks18, "ks18", N_KS18_WIGNER), (mub, "mub-c3", N_MUB_WIGNER)):
        for k, seed in enumerate(rng.integers(0, 2**31, n)):
            argv = ["wigner-check", "--scenario", path, "--seed", str(int(seed))]
            jobs.append(cli_job(f"wigner-{name}-{k}", f"wigner-{name}", argv, ok))
    poset = build_poset(mub)
    for k, (label, op) in enumerate(weyl_ops(rng, N_CONJUGATIONS)):
        jobs.append(conjugation_job(f"conjugate-{k}-{label}", poset, op))
    return jobs


BUILDERS = {
    "ks-ladder": ks_ladder,
    "state-sweep": state_sweep,
    "bell-sweep": bell_sweep,
    "symmetry": symmetry,
}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Generate the workload's documents from ``seed`` and return its job list."""
    return BUILDERS[workload](np.random.default_rng(seed), DocWriter(workdir))
