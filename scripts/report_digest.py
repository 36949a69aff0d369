#!/usr/bin/env python3
"""Print one digest of every command's report on every bundled scenario.

Runs each command in-process through ``contextua.cli.main``, on every
bundled scenario at seeds 0, 3 and 7, with JSON output and the default
``--tol``, and ``ks-enumerate`` at ``--cap`` 1, 2 and 5 on every bundled
scenario, so the truncated enumeration is pinned too. For each run it keeps
the exit code, the stderr text and the report's integer, boolean and string
leaves, each with its path. Floats and the ``timings`` block are dropped, as
perfbench's digest drops floats, so the digest does not move with rounding or
run time. ``ks-check`` and ``ks-enumerate`` also run with ``--format text`` on
every bundled scenario, and their text report is kept whole but the
``elapsed:`` line, so the rendering of a 0/1 value table is pinned too. It
prints the sha256 of these records, cut to 16 hex digits. A change that
leaves reports as they are keeps the digest.

    PYTHONPATH=src python3 scripts/report_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from contextua.catalogs import bundled_names
from contextua.cli import COMMANDS, main

SEEDS = (0, 3, 7)
CAPS = (1, 2, 5)


def leaves(value, path: str = "$"):
    """The (path, value) pairs of the integer, boolean and string leaves of ``value``."""
    if isinstance(value, dict):
        for key in sorted(value):
            if path != "$" or key != "timings":
                yield from leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from leaves(item, f"{path}[{k}]")
    elif isinstance(value, (bool, int, str)):
        yield path, value


def record(command: str, name: str, seed: int, *options: str) -> str:
    """One run's exit code, stderr and report, as one JSON line: the report's leaves or,
    with ``--format text``, its lines but the ``elapsed:`` line."""
    out, err = io.StringIO(), io.StringIO()
    argv = [command, "--scenario", f"builtin:{name}", "--seed", str(seed), *options]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if "text" in options:
        kept = [line for line in out.getvalue().splitlines() if not line.startswith("elapsed:")]
    else:
        kept = list(leaves(json.loads(out.getvalue()) if out.getvalue() else None))
    return json.dumps([argv, code, err.getvalue(), kept])


def report_digest() -> str:
    lines = [
        record(command, name, seed)
        for command in COMMANDS
        for name in bundled_names()
        for seed in SEEDS
    ] + [
        record("ks-enumerate", name, 0, "--cap", str(cap))
        for name in bundled_names()
        for cap in CAPS
    ] + [
        record(command, name, 0, "--format", "text")
        for command in ("ks-check", "ks-enumerate")
        for name in bundled_names()
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


if __name__ == "__main__":
    print(report_digest())
