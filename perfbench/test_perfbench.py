"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import contextua.cli  # noqa: E402
import generators as gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def documents(workload: str, seed: int, directory: Path) -> list[str]:
    directory.mkdir()
    workloads.build(workload, seed, directory)
    return [p.read_text() for p in sorted(directory.iterdir())]


@pytest.mark.parametrize("workload", ["ks-ladder", "bell-sweep"])
def test_same_seed_same_documents(tmp_path, workload):
    first = documents(workload, 7, tmp_path / "a")
    assert first == documents(workload, 7, tmp_path / "b")
    assert first != documents(workload, 8, tmp_path / "c")


def test_same_seed_same_states():
    a = gen.random_density(np.random.default_rng(3), 5)
    assert np.array_equal(a, gen.random_density(np.random.default_rng(3), 5))
    assert abs(np.trace(a) - 1) < 1e-12 and np.linalg.eigvalsh(a).min() > 0


def test_chsh_spot_values():
    assert gen.chsh_value(math.pi / 4, 1.0) == pytest.approx(2 * math.sqrt(2))
    assert gen.chsh_value(0.3, 0.0) == 0.0
    assert gen.chsh_critical_visibility(math.pi / 4) == pytest.approx(1 / math.sqrt(2))
    assert gen.chsh_value(0.7, gen.chsh_critical_visibility(0.7)) == pytest.approx(2.0)


def test_chsh_grid_balanced_and_off_the_boundary():
    points = gen.chsh_grid(np.random.default_rng(5), 13)
    values = [gen.chsh_value(theta, v) for theta, v in points]
    assert len(points) == 26
    assert sum(s > 2 for s in values) == 13
    assert all(abs(s - 2) > 1e-3 for s in values)


def test_peres24_and_mubs():
    rays, tetrads = gen.peres24()
    assert len(rays) == 24 and len(tetrads) == 24
    assert all(sum(t.count(r) for t in tetrads) == 4 for r in range(24))  # each ray in 4 tetrads
    rays, bases = gen.wootters_fields(5)
    vecs = np.array(rays)
    gram = np.abs(vecs.conj() @ vecs.T) ** 2
    same = np.repeat(np.arange(6), 5)
    same = same[:, None] == same[None, :]
    assert np.allclose(gram[same], np.eye(30)[same])
    assert np.allclose(gram[~same], 1 / 5)
    with pytest.raises(ValueError):
        gen.wootters_fields(9)


def test_isotropic_partial_transpose_threshold():
    for v, positive in ((0.2, True), (0.3, False)):
        pt = gen.partial_transpose(gen.isotropic_state(v), 3, 3)
        assert (np.linalg.eigvalsh(pt).min() >= -1e-12) == positive


def test_self_time_on_a_synthetic_tree():
    spans = [
        ["job.run", 0.0, 10.0, -1, "0:0", False],
        ["bell.factorisability_lp", 1.0, 7.0, 0, "0:0", False],
        ["bell.deterministic_strategies", 2.0, 3.5, 1, "0:0", False],
        ["spectral.enumerate_global_sections", 2.5, 3.0, 2, "0:0", False],
        ["cli.to_json", 8.0, 9.0, 0, "0:0", True],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 4.5, 1.0, 0.5, 1.0])
    m = tracing.layer_metrics(spans, {}, passes=2)
    assert m["bell.lp_s"] == pytest.approx(4.5 / 2)
    assert m["bell.strategies_s"] == pytest.approx(1.5 / 2)
    assert m["bell.self_s"] == pytest.approx(5.5 / 2)
    assert m["spectral.self_s"] == pytest.approx(0.5 / 2)
    assert m["cli.errors"] == pytest.approx(0.5)
    assert set(m) | {"setup.import_s", "setup.build_s", "trace.overhead_ratio",
                     "trace.attribution_share"} == set(tracing.PER_LAYER)
    rows = tracing.job_self_times(spans)
    assert rows["0:0"] == pytest.approx({"job": 3.0, "bell": 5.5, "spectral": 0.5, "cli": 1.0})


def test_constraining_nodes():
    # two maximal nodes (3, 4); node 0 lies under both, node 1 under 3 only, node 2 under 4 only
    order = np.eye(5, dtype=bool)
    for small, large in ((0, 3), (0, 4), (1, 3), (2, 4), (0, 1), (0, 2)):
        order[small, large] = True
    assert tracing.constraining_nodes(order) == 3


def demo_job(tmp_path, verdict, exit_code):
    path = workloads.DocWriter(tmp_path)(contextua.catalogs.bundled_scenario("demo-c3"))
    return workloads.cli_job("demo", "demo", ["ks-check", "--scenario", path],
                             workloads.verdict_is(verdict, exit_code))


def test_gate_trips_on_a_wrong_expectation(tmp_path):
    runner = workloads.Runner([demo_job(tmp_path, "colorable", 0)])
    runner.run_pass()
    assert runner.failed == 0
    planted = workloads.Runner([demo_job(tmp_path, "non_colorable", 2)])
    planted.run_pass()
    assert planted.failed == 1 and "non_colorable" in planted.problems[0]


def test_raising_job_fails():
    def boom():
        raise RuntimeError("boom")

    job = workloads.Job("boom", "boom", boom, workloads.read_cli, lambda o: [])
    _, outcome, problems = workloads.run_job(job)
    assert outcome is None and "boom" in problems[0]


def test_digest_repeats_and_ignores_floats(tmp_path):
    digests = []
    for _ in range(2):
        runner = workloads.Runner([demo_job(tmp_path, "colorable", 0)])
        runner.run_pass()
        runner.run_pass()
        digests.append(runner.digest())
    assert digests[0] == digests[1] and runner.failed == 0
    outcome = workloads.Outcome("v", 0, {"n": 3}, {"error": 1e-12})
    job = workloads.Job("j", "j", None, None, None)
    line = workloads.digest_line(job, outcome)
    assert line == workloads.digest_line(job, workloads.Outcome("v", 0, {"n": 3}, {"error": 2e-12}))
    assert workloads.int_leaves({"a": 1, "b": 0.5, "c": [True, {"d": 2}], "timings": {"n": 1}}) == {
        "a": 1, "c.0": 1, "c.1.d": 2,
    }


def test_tracer_restores_the_program(tmp_path):
    originals = (contextua.cli.main, contextua.contexts.ContextPoset.dominator_map)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert contextua.cli.main is not originals[0]
        code, _, _ = workloads.run_cli(["ks-check", "--scenario", "builtin:demo-c3"])
    finally:
        tracer.uninstall()
    assert (contextua.cli.main, contextua.contexts.ContextPoset.dominator_map) == originals
    assert code == 0 and tracer.counters["cli.jobs"] == 1
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "contexts.generate_poset", "spectral.find_global_section"} <= names


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def test_lp_certificate_oracle():
    def report(**lp):
        return {"no_signalling": True, "lp": lp}

    assert workloads.lp_certificate(report(verdict="not_factorisable", witness_value=0.6, deterministic_max=0.5)) == []
    assert workloads.lp_certificate(report(verdict="not_factorisable", witness_value=0.5, deterministic_max=0.5))
    assert workloads.lp_certificate(report(verdict="factorisable", reconstruction_error=1e-9)) == []
    assert workloads.lp_certificate(report(verdict="factorisable", reconstruction_error=1e-3))
