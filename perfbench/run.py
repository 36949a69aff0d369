#!/usr/bin/env python3
"""Time-to-verdict benchmark for contextua.

    python3 perfbench/run.py --workload ks-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout. One process runs one workload: it
imports ``contextua`` from ``src/``, generates the workload's scenario
documents from ``--seed``, then runs the job list in passes, one job at a
time (a closed loop with one client), until ``--seconds`` have passed.
Every job's answer is checked by an oracle. The last line of stdout is a
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
half of the time runs untraced and half traced, and the metrics are the
per-layer ones (see tracing.py), plus the tracing overhead. Job rows, and
in traced runs the spans, are written to ``.perfbench/``.
"""

import time

T0 = time.perf_counter()  # the top of the process: set-up time starts here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("ks-ladder", "state-sweep", "bell-sweep", "symmetry")
BLAS_THREADS = 1  # at most nproc; one thread keeps timings steady on a shared host
SETUP_REPEATS = 3  # this process's set-up plus two fresh child processes
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}



def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fix_mmap_threshold() -> None:
    """Stop glibc from adapting its mmap threshold to the allocation history.

    On a 2-vCPU x86-64 Linux VM the adaptive threshold moved the peak RSS
    of identical bell-sweep runs by up to 8%; with glibc's initial
    threshold held fixed, by under 1%.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return  # not glibc
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def import_program() -> float:
    """Import contextua from this checkout's src/; returns the import time."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    fix_mmap_threshold()
    src = ROOT / "src"
    if not (src / "contextua" / "__init__.py").is_file():
        raise SystemExit(f"error: no contextua sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import contextua  # noqa: F401

    seconds = time.perf_counter() - start
    if Path(contextua.__file__).resolve().parent != src / "contextua":
        raise SystemExit(f"error: imported contextua from {contextua.__file__}, not {src}")
    return seconds


def percentile(values, q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(..., n=100)`` gives it."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def child_setup_seconds(args) -> list[float]:
    """Set-up times of fresh processes running only the set-up."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, __file__, "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def write_rows(args, runner, spans=None) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    doc = {"workload": args.workload, "seed": args.seed, "jobs": runner.rows}
    if spans is not None:
        doc["spans"] = [[n, round(s - T0, 7), round(e - T0, 7), p, j, f] for n, s, e, p, j, f in spans]
        doc["columns"] = ["name", "start_s", "end_s", "parent", "job", "failed"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_workload(args) -> int:
    import_s = import_program()
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        runner = workloads.Runner(jobs)
        print(f"workload {args.workload}  seed {args.seed}  jobs per pass {len(jobs)}  "
              f"closed loop, 1 client, BLAS threads {BLAS_THREADS}")
        if args.trace:
            untraced = runner.run_for(args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = runner.run_for(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics = tracing.layer_metrics(tracer.spans, tracer.counters, len(traced))
            metrics["setup.import_s"] = import_s
            metrics["setup.build_s"] = setup_s - import_s
            metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
            share = tracing.attribution_share(args.workload, tracer.spans, runner.rows)
            layer_self = tracing.job_self_times(tracer.spans)
            for row in runner.rows:
                if row["traced"]:
                    row["self_s"] = layer_self.get(row["id"], {})
            metrics["trace.attribution_share"] = share
            print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
                  f"{len(tracer.spans)} spans; per-layer values are per traced pass")
            print(f"attribution: {tracing.EXPECTED_PROFILE[args.workload]} = {share:.1%} of traced job time; "
                  + ("matches the expected profile" if share >= 0.5 else "does NOT match the expected profile"))
            path = write_rows(args, runner, tracer.spans)
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
            result_metrics = {name: {"value": metrics[name], "unit": units[name]} for name in tracing.PER_LAYER}
        else:
            passes = runner.run_for(args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups = [setup_s] + child_setup_seconds(args)
            times = [r["wall_s"] for r in runner.rows]
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(passes),
                "job_p50_s": percentile(times, 50),
                "job_p90_s": percentile(times, 90),
                "peak_rss_mb": rss_mb,
            }
            print(f"passes {len(passes)}; jobs timed {len(times)} (p50 and p90 over all of them); "
                  f"set-up samples {len(setups)}")
            by_class: dict[str, list[float]] = {}
            for r in runner.rows:
                by_class.setdefault(r["class"], []).append(r["wall_s"])
            for klass, ts in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1])):
                print(f"  class {klass:<22} n={len(ts):<4} median {statistics.median(ts):.4f} s")
            for name, value in values.items():
                print(f"{name:<12} {value:.6g} {END_TO_END[name]}")
            path = write_rows(args, runner)
            result_metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"failed_ratio {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.4g}")
        for problem in runner.problems[:20]:
            print(f"FAILED {problem}")
        print(f"digest {runner.digest()}  (jobs, verdicts, exit codes, integer counters)")
        print(f"job rows: {path.relative_to(ROOT)}")
        print(json.dumps({
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": result_metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in a fresh process, one after another; prints one table."""
    failed = False
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {proc.returncode})\n{proc.stderr}")
            failed = True
            continue
        print(f"== {workload}: correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}")
        for line in lines[:-1]:
            if line.startswith(("digest", "attribution", "FAILED")):
                print(f"   {line}")
        for name, m in result["metrics"].items():
            print(f"   {name:<28} {m['value']:.6g} {m['unit']}")
        failed |= not result["correct"]
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
