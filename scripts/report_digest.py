#!/usr/bin/env python3
"""Print one digest of every command's report on every bundled scenario.

Runs each command in-process through ``contextua.cli.main``, on every
bundled scenario at seeds 0, 3 and 7, with JSON output, at the default
``--tol`` and again at ``--tol`` 1e-5 and 0.3, where the registry merges
projections that the default keeps apart; and ``ks-enumerate`` at
``--cap`` 1, 2 and 5 on every bundled scenario, so the truncated
enumeration is pinned too. For each run it keeps the exit code, the stderr
text and the report's integer, boolean and string leaves, each with its
path. Floats and the ``timings`` block are dropped, as
perfbench's digest drops floats, so the digest does not move with rounding or
run time. ``ks-check`` and ``ks-enumerate`` also run with ``--format text`` on
every bundled scenario, and their text report is kept whole but the
``elapsed:`` line, so the rendering of a 0/1 value table is pinned too.
``bell-analyze``, ``bell-classify`` and ``poset-export`` also run on four
bipartite documents written to a temporary folder (:func:`documents`): chsh-c2
with PR-box tables, so the witness node ids are pinned; two isotropic operators
on a qutrit pair of mub-c3's first three bases per side, one factorisable, with
several right groups, so its coupled weight indices are pinned, and one not;
and the factorisable one with ``product_contexts`` naming one pair twice.
Last, three bases of d3 whose first and last share a ray, so that their
components interleave (:data:`INTERLEAVED_D3`), run through ``ks-enumerate``
at the default cap, at ``--cap`` 1, 2 and 5 and with ``--format text``, which
pins the order of a truncated product of components; and through
``bell-analyze`` as both factors of two isotropic qutrit operators, one
factorisable and one not. It prints the sha256 of these records, cut to 16
hex digits. A change that leaves reports as they are keeps the digest.

    PYTHONPATH=src python3 scripts/report_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from contextua.catalogs import bundled_names, bundled_text
from contextua.cli import COMMANDS, main

SEEDS = (0, 3, 7)
TOLS = ((), ("--tol", "1e-5"), ("--tol", "0.3"))  # the default, then two wider tolerances
CAPS = (1, 2, 5)
# the standard basis; (1, 1, 1), (1, -1, 0), (1, 1, -2); e0, (0, 1, 1), (0, 1, -1):
# components [0, 1, 0] of 5 and 3 sections
INTERLEAVED_D3 = {
    "kind": "single",
    "dim": 3,
    "rays": [
        [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, -1, 0], [1, 1, -2], [0, 1, 1], [0, 1, -1]
    ],
    "contexts": [[0, 1, 2], [3, 4, 5], [0, 6, 7]],
}


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


def record(command: str, name: str, seed: int, *options: str, folder: Path | None = None) -> str:
    """One run's exit code, stderr and report, as one JSON line: the report's leaves or,
    with ``--format text``, its lines but the ``elapsed:`` line. ``name`` is a bundled
    scenario or, with ``folder``, a document file there, recorded by its file name."""
    out, err = io.StringIO(), io.StringIO()
    scenario = f"builtin:{name}" if folder is None else name
    argv = [command, "--scenario", scenario, "--seed", str(seed), *options]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv if folder is None else [*argv[:2], str(folder / name), *argv[3:]])
    if "text" in options:
        kept = [line for line in out.getvalue().splitlines() if not line.startswith("elapsed:")]
    else:
        kept = list(leaves(json.loads(out.getvalue()) if out.getvalue() else None))
    return json.dumps([argv, code, err.getvalue(), kept])


def isotropic(v: Fraction) -> list:
    """v |Phi><Phi| + (1 - v) I / 9 on two qutrits, |Phi> = (|00> + |11> + |22>) / sqrt(3),
    entries as exact strings; a state for -1/8 <= v <= 1 only. |ii> is row 4 i."""
    def entry(r: int, c: int) -> int | str:
        x = (v / 3 if r % 4 == 0 and c % 4 == 0 else 0) + ((1 - v) / 9 if r == c else 0)
        return int(x) if x.denominator == 1 else str(x)

    return [[entry(r, c) for c in range(9)] for r in range(9)]


def documents() -> dict[str, dict]:
    """The bipartite documents the digest also runs, by file name."""
    chsh = json.loads(bundled_text("chsh-c2"))
    del chsh["state"]
    # PR box: outcomes a, b at settings x, y have a xor b = x and y
    chsh["tables"] = [
        {
            "left": x,
            "right": y,
            "probs": [["1/2" if (a ^ b) == (x & y) else 0 for b in (0, 1)] for a in (0, 1)],
        }
        for x in (0, 1)
        for y in (0, 1)
    ]
    mub = json.loads(bundled_text("mub-c3"))
    rays, contexts = mub["rays"][:9], mub["contexts"][:3]

    def qutrit_pair(v: Fraction) -> dict:
        return {
            "kind": "bipartite",
            "dims": [3, 3],
            "rays": {"left": rays, "right": rays},
            "contexts": {"left": contexts, "right": contexts},
            "state": isotropic(v),
        }

    # every visibility in the state range is factorisable on these settings; 5/4 is not a
    # state, and its negative entries are not
    repeated = {**qutrit_pair(Fraction(1, 2)), "product_contexts": [[0, 0], [1, 1], [0, 0], [2, 2]]}
    return {
        "chsh-pr-box.json": chsh,
        "qutrit-iso-1_2.json": qutrit_pair(Fraction(1, 2)),
        "qutrit-iso-5_4.json": qutrit_pair(Fraction(5, 4)),
        "qutrit-iso-1_2-repeated.json": repeated,
    }


def interleaved_pair(v: Fraction) -> dict:
    """The isotropic qutrit operator of visibility ``v`` on :data:`INTERLEAVED_D3` per side:
    factorisable at v = 1/2, not at v = 1."""
    return {
        "kind": "bipartite",
        "dims": [3, 3],
        "rays": {"left": INTERLEAVED_D3["rays"], "right": INTERLEAVED_D3["rays"]},
        "contexts": {"left": INTERLEAVED_D3["contexts"], "right": INTERLEAVED_D3["contexts"]},
        "state": isotropic(v),
    }


def report_digest() -> str:
    lines = [
        record(command, name, seed, *tol)
        for tol in TOLS
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
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        for name, doc in documents().items():
            (folder / name).write_text(json.dumps(doc), encoding="utf-8")
            lines += [
                record(command, name, 0, folder=folder)
                for command in ("bell-analyze", "bell-classify", "poset-export")
            ]
        (folder / "interleaved-d3.json").write_text(json.dumps(INTERLEAVED_D3), encoding="utf-8")
        lines += [
            record("ks-enumerate", "interleaved-d3.json", 0, *options, folder=folder)
            for options in ((), *(("--cap", str(cap)) for cap in CAPS), ("--format", "text"))
        ]
        for v in (Fraction(1, 2), Fraction(1)):
            name = f"interleaved-iso-{v.numerator}_{v.denominator}.json"
            (folder / name).write_text(json.dumps(interleaved_pair(v)), encoding="utf-8")
            lines.append(record("bell-analyze", name, 0, folder=folder))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


if __name__ == "__main__":
    print(report_digest())
