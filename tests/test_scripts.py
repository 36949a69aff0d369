"""The scripts run end to end and print the expected boundaries; their outputs are current."""

from __future__ import annotations

import json
import re
import runpy
import sys
from pathlib import Path

from contextua.catalogs import bundled_names, bundled_text

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, capsys, *args):
    """Run a script as __main__ and return its printed rows, header dropped."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()[1:]


def test_chsh_angle_scan_verdict_follows_chsh_value(monkeypatch, capsys):
    rows = run_script("chsh_angle_scan.py", monkeypatch, capsys, "--steps", "3")
    assert len(rows) == 3
    for row in rows:
        value = float(row.split()[1])
        assert ("NOT factorisable" in row) == (value > 2), row


def test_orientation_sweep_turns_above_one_third(monkeypatch, capsys):
    rows = run_script("orientation_sweep.py", monkeypatch, capsys, "--steps", "3")
    assert len(rows) == 3
    for row in rows:
        lam, _, verdict = row.split()
        assert (verdict == "quantum_time_reversed") == (float(lam) > 1 / 3), row


def test_committed_catalogs_match_the_bundled_scenarios(monkeypatch, capsys, tmp_path):
    # scripts/make_catalogs.py writes catalogs/ from contextua.catalogs; the two must not drift,
    # byte for byte: a scenario's digest tells 1 from 1.0, which parsed JSON compares equal
    committed = {path.stem: path for path in (SCRIPTS.parent / "catalogs").glob("*")}
    assert sorted(committed) == bundled_names()
    for name, path in committed.items():
        assert path.suffix == ".json"
        assert path.read_text(encoding="utf-8") == bundled_text(name), name
    monkeypatch.setattr(sys, "argv", ["make_catalogs.py", "--dest", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "make_catalogs.py"), run_name="__main__")
    assert capsys.readouterr().out.split() == [
        word for name in bundled_names() for word in ("wrote", str(tmp_path / f"{name}.json"))
    ]
    for name, path in committed.items():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), name


def test_readme_example_runs(capsys):
    # every python block of README.md, run as written, prints the values that the
    # comments of its print lines give, one line each
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        want = re.findall(r"^print\(.*\)\s*# (.*?)\s*$", block, flags=re.M)
        assert want, block
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines() == want


def test_report_digest_keeps_exit_codes_stderr_and_exact_leaves():
    digest = runpy.run_path(str(SCRIPTS / "report_digest.py"))
    report = {"timings": {"total_s": 1}, "a": [0.5, 2, "x", True, None], "b": {"c": 3}}
    assert list(digest["leaves"](report)) == [
        ("$.a[1]", 2), ("$.a[2]", "x"), ("$.a[3]", True), ("$.b.c", 3)
    ]
    # bell-analyze on a single-system scenario is an error: exit 1, no report
    argv, code, err, kept = json.loads(digest["record"]("bell-analyze", "demo-c3", 0))
    assert (code, kept) == (1, [])
    assert err.startswith("error: ")
    assert re.fullmatch(r"[0-9a-f]{16}", digest["report_digest"]())
