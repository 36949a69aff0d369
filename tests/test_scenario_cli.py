"""Scenario ingestion, golden exit codes, report determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextua as cx
from contextua.catalogs import (
    _eigenbasis_scenario,
    _lagrangian_subspaces,
    bundled_names,
    bundled_scenario,
    bundled_text,
    stabilizer_scenario,
    write_bundled,
)
from contextua.cli import main, run
from contextua.scenario import ScenarioError, _parse_contexts, _parse_rays, parse_entry, parse_real

from conftest import SPLIT_BLOCK_CATALOGS, loop_parse_contexts, pauli_subset_rays, peres24_rays


class TestEntryParsing:
    @pytest.mark.parametrize(
        "token,expected",
        [
            (0.25, 0.25),
            ("1/2", 0.5),
            ("-3/4", -0.75),
            ("sqrt(2)", np.sqrt(2)),
            ("sqrt(3)/2", np.sqrt(3) / 2),
            ("-sqrt(2)/2", -np.sqrt(2) / 2),
            ("0.125", 0.125),
            ("-2", -2.0),
        ],
    )
    def test_real_forms(self, token, expected):
        assert parse_real(token, "$") == pytest.approx(expected, abs=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(ScenarioError, match=r"\$\.x"):
            parse_real("two thirds", "$.x")

    def test_rejects_zero_denominator(self):
        with pytest.raises(ScenarioError, match="division"):
            parse_real("1/0", "$")

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_fraction_strings_exact(self, num, den):
        assert parse_real(f"{num}/{den}", "$") == num / den

    @given(st.integers(0, 10**6), st.integers(1, 1000), st.booleans())
    def test_sqrt_strings(self, c, d, neg):
        sign = "-" if neg else ""
        got = parse_real(f"{sign}sqrt({c})/{d}", "$")
        assert got == pytest.approx((-1 if neg else 1) * np.sqrt(c) / d, rel=1e-15)

    @settings(max_examples=50)
    @given(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
    def test_pair_entries(self, re, im):
        assert parse_entry([re, im], "$") == complex(re, im)


# d3 rays, some orthogonal to others and some not, two of them equal up to scale
RAY_POOL = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0], [2, 2, 0], [1, 2, [0, 3]]]


class TestParseScenario:
    def test_minimal_single_basis(self):
        sc = cx.parse_scenario(bundled_text("demo-c3"))
        assert sc.kind == "single"
        assert len(sc.contexts["main"]) == 1
        assert len(sc.rays["main"]) == 3

    def test_ks18_incidence_counts(self):
        sc = cx.parse_scenario(bundled_text("ks18-c4"))
        assert len(sc.contexts["main"]) == 9
        counts = Counter(i for ctx in sc.contexts["main"] for i in ctx)
        assert len(sc.rays["main"]) == 18
        assert all(counts[i] == 2 for i in range(18))

    def test_malformed_vector_length_path(self):
        doc = {"kind": "single", "dim": 3, "rays": [[1, 0, 0], [0, 1]], "contexts": [[0]]}
        with pytest.raises(ScenarioError, match=r"\$\.rays\[1\]"):
            cx.parse_scenario(json.dumps(doc))

    def test_non_orthogonal_context_names_rays(self):
        doc = {
            "kind": "single",
            "dim": 2,
            "rays": [[1, 0], [1, 1]],
            "contexts": [[0, 1]],
        }
        with pytest.raises(ScenarioError, match="rays 0 and 1 are not orthogonal"):
            cx.parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["single", "bipartite"])
    def test_more_rays_than_the_dimension_are_not_orthogonal(self, kind):
        # three rays in C^2 are never pairwise orthogonal, so the orthogonality check
        # alone rejects a context with more rays than the dimension
        rays, contexts = [[1, 0], [0, 1], [1, 1]], [[0, 1, 2]]
        if kind == "single":
            doc = {"kind": "single", "dim": 2, "rays": rays, "contexts": contexts}
            path = r"\$\.contexts\[0\]"
        else:
            doc = {
                "kind": "bipartite",
                "dims": [2, 2],
                "rays": {"left": rays, "right": [[1, 0], [0, 1]]},
                "contexts": {"left": contexts, "right": [[0, 1]]},
            }
            path = r"\$\.contexts\.left\[0\]"
        with pytest.raises(ScenarioError, match=rf"^{path}: rays 0 and 2 are not orthogonal"):
            cx.parse_scenario(json.dumps(doc))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(RAY_POOL), min_size=1, max_size=6),
        st.lists(
            st.one_of(
                st.lists(st.one_of(st.integers(-1, 6), st.just(True)), max_size=4),
                st.just("x"),
            ),
            max_size=5,
        ),
    )
    def test_context_checks_match_pairwise_loop(self, rays, contexts):
        # the first failure in loop order, with its message, or the same contexts
        vecs = _parse_rays(rays, 3, "$.rays")

        def outcome(parse):
            try:
                return parse(contexts, len(vecs), vecs, "$.contexts")
            except ScenarioError as exc:
                return str(exc)

        assert outcome(_parse_contexts) == outcome(loop_parse_contexts)

    def test_near_duplicate_below_grid(self):
        doc = {
            "kind": "single",
            "dim": 2,
            "rays": [[1, 0], [1, 1e-7]],
            "contexts": [[0]],
        }
        sc = cx.parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match=r"\$\.rays: rays 0 and 1 are near-duplicate"):
            cx.build_single_poset(sc)

    def test_unused_near_duplicates_rejected(self):
        # rays 2 and 3 are in no context and closer than the grid to each other only
        doc = {
            "kind": "single",
            "dim": 2,
            "rays": [[1, 0], [0, 1], [1, 1], [1, 1 + 1e-7]],
            "contexts": [[0, 1]],
        }
        sc = cx.parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match=r"\$\.rays: rays 2 and 3 are near-duplicate"):
            cx.build_single_poset(sc)

    def test_unused_near_duplicate_of_a_used_ray(self):
        # ray 2 is in no context and 1e-7 from ray 0: its lookup is rejected
        doc = {
            "kind": "single",
            "dim": 2,
            "rays": [[1, 0], [0, 1], [1, 1e-7]],
            "contexts": [[0, 1]],
        }
        sc = cx.parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match=r"\$\.rays: rays 0 and 2 are near-duplicate"):
            cx.build_single_poset(sc)

    @pytest.mark.parametrize(
        "unused,named",
        [
            # ray 3 collides with ray 2 among the unused rays before ray 4's lookup fails
            ([[1, 1], [1, 1 + 1e-7], [1, 1e-7]], "rays 2 and 3"),
            # ray 2's lookup fails before ray 4 collides with ray 3 among the unused rays
            ([[1, 1e-7], [1, 1], [1, 1 + 1e-7]], "rays 0 and 2"),
            # ray 3 is 7.5e-7 from ray 0 and from ray 2, which is 1.5e-6 from ray 0:
            # both its lookup and its spare registration fail, and the lookup is named
            ([[1, 1.5e-6], [1, 0.75e-6]], "rays 0 and 3"),
            # rays 2 and 3 are each within tol of ray 0, but 1.6e-9 from each other:
            # the spare registry rejects ray 3 against ray 2, the ray it holds
            ([[1, 0.8e-9], [1, -0.8e-9]], "rays 2 and 3"),
        ],
    )
    def test_earliest_rejected_unused_ray_named(self, unused, named):
        rays = [[1, 0], [0, 1]] + unused
        doc = {"kind": "single", "dim": 2, "rays": rays, "contexts": [[0, 1]]}
        sc = cx.parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match=rf"\$\.rays: {named} are near-duplicates"):
            cx.build_single_poset(sc)

    def test_complement_collision_names_its_context(self):
        # contexts 0 and 2 are padded; context 2 spans a plane whose normal is e3
        # tilted by 1e-7, so its complement is closer than the grid to ray 2
        e1, w = np.eye(3)[0], np.array([0.0, 1.0, -1e-7]) / np.hypot(1.0, 1e-7)
        u, v = (e1 + w) / np.sqrt(2), (e1 - w) / np.sqrt(2)
        doc = {
            "kind": "single",
            "dim": 3,
            "rays": np.vstack([np.eye(3), u, v]).tolist(),
            "contexts": [[0, 1], [0, 1, 2], [3, 4]],
        }
        sc = cx.parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match=r"^\$\.contexts\[2\]: .*rounding grid"):
            cx.build_single_poset(sc)

    def test_near_duplicates_identified_at_tol(self, tmp_path, capsys):
        # rays 0 and 1 are 5e-8 apart: one projection at --tol 1e-6, rejected at the default
        doc = {
            "kind": "single",
            "dim": 2,
            "rays": [[1, 0], [1, 5e-8], [0, 1]],
            "contexts": [[0, 2], [1]],
        }
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ks-check", "--scenario", str(path), "--tol", "1e-6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "colorable"
        # ray 1 is ray 0, and its padding complement is ray 2: the two contexts are one
        assert report["catalog"] == {"contexts": 1, "constrained_pairs": 0, "blocks": 0}
        assert len(report["section"]) == 2
        assert main(["ks-check", "--scenario", str(path)]) == 1
        assert "rays 0 and 1 are near-duplicates" in capsys.readouterr().err

    @pytest.mark.parametrize("bases,jitter,seed", SPLIT_BLOCK_CATALOGS)
    def test_split_meet_blocks_give_a_verdict(self, tmp_path, capsys, bases, jitter, seed):
        # jittered pauli-c4 bases whose meet blocks an overlap of about 6e-13, below the
        # squared grid, splits: the split blocks merge, and no meet is stored
        vecs = np.hstack(pauli_subset_rays(bases, jitter, seed)).T
        doc = {
            "kind": "single",
            "dim": 4,
            "rays": [[[x.real, x.imag] for x in v] for v in vecs],
            "contexts": [list(range(4 * b, 4 * b + 4)) for b in range(len(bases))],
        }
        path = tmp_path / "split.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ks-check", "--scenario", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "colorable"
        assert report["catalog"] == {"contexts": len(bases), "constrained_pairs": 0, "blocks": 0}
        assert len(report["section"]) == 4 * len(bases)  # the rays, and no block sum

    @pytest.mark.parametrize(
        "name,tol,message",
        [
            ("ks18-c4", "inf", "error: tol must be finite and nonnegative, got inf"),
            ("ks18-c4", "nan", "error: tol must be finite and nonnegative, got nan"),
            ("mub-c3", "-1", "error: tol must be finite and nonnegative, got -1.0"),
            ("mub-c3", "1", "$.contexts[0]: ray 0 and ray 1 are one projection at tol 1.0"),
            ("ks18-c4", "0.3", "$.contexts[2]: ray 7 and ray 8 are one projection at tol 0.3"),
            ("ks18-c4", "0.5", "$.contexts[2]: ray 7 and ray 8 are one projection at tol 0.5"),
        ],
        ids=["inf", "nan", "negative", "one", "0.3", "0.5"],
    )
    def test_out_of_range_tol_is_an_error(self, capsys, name, tol, message):
        # a tol that merges orthogonal atoms would give a wrong poset, not a verdict
        assert main(["ks-check", "--scenario", f"builtin:{name}", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "command,base,at,token,path",
        [
            ("ks-check", "demo", ("rays", 1, 0), "NaN", "$.rays[1][0]"),
            ("ks-check", "demo", ("rays", 0, 1), "[0, -Infinity]", "$.rays[0][1][1]"),
            ("ks-check", "demo", ("rays", 2, 2), "1e999", "$.rays[2][2]"),
            ("ks-check", "demo", ("rays", 2, 2), '"1e999"', "$.rays[2][2]"),
            ("gleason-roundtrip", "demo-state", ("state", 0, 0), "1" + "0" * 400, "$.state[0][0]"),
            ("gleason-roundtrip", "demo-state", ("state", 1, 1), f'"1{"0" * 400}/3"', "$.state[1][1]"),
            ("gleason-reconstruct", "demo-section", ("section", 0, "weights", 1), "NaN",
             "$.section[0].weights[1]"),
            ("ks-check", "demo-section", ("section", 0, "weights", 2), "Infinity",
             "$.section[0].weights[2]"),
            ("bell-analyze", "chsh", ("rays", "left", 2, 0), "NaN", "$.rays.left[2][0]"),
            ("bell-analyze", "chsh", ("state", 3, 0), f'"-sqrt(1{"0" * 400})"', "$.state[3][0]"),
            ("bell-analyze", "chsh-tables", ("tables", 0, "probs", 0, 1), "1e999",
             "$.tables[0].probs[0][1]"),
        ],
        ids=[
            "ray-nan", "pair-inf", "ray-1e999", "ray-1e999-string", "state-int", "state-fraction",
            "weight-nan", "weight-inf", "left-ray-nan", "bipartite-state-sqrt", "table-1e999",
        ],
    )
    def test_non_finite_number_is_an_error(self, tmp_path, capsys, command, base, at, token, path):
        # Python's json reads NaN, Infinity and 1e999 as floats; each is rejected at its path
        doc = bundled_scenario("chsh-c2" if base.startswith("chsh") else "demo-c3")
        if base == "demo-state":
            doc["state"] = np.diag([1.0, 0.0, 0.0]).tolist()
        elif base == "demo-section":
            doc["section"] = [{"context": 0, "weights": [0.5, 0.25, 0.25]}]
        elif base == "chsh-tables":
            del doc["state"]
            doc["tables"] = [{"left": 0, "right": 0, "probs": [[0.5, 0.0], [0.0, 0.5]]}]
        target = doc
        for key in at[:-1]:
            target = target[key]
        target[at[-1]] = "@"
        scenario = tmp_path / "doc.json"
        scenario.write_text(json.dumps(doc).replace('"@"', token), encoding="utf-8")
        assert main([command, "--scenario", str(scenario)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: number is not finite in double precision\n"

    def test_ray_whose_norm_overflows_is_an_error(self, tmp_path, capsys):
        # each entry is finite, but the squared norm is not
        doc = {"kind": "single", "dim": 2, "rays": [[1e200, 1e200], [1, -1]], "contexts": [[0, 1]]}
        scenario = tmp_path / "doc.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ks-check", "--scenario", str(scenario)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: $.rays[0]: ray norm is not finite in double precision\n"

    def test_merged_padding_complement_is_named(self):
        doc = {"kind": "single", "dim": 2, "rays": [[1, 0]], "contexts": [[0]]}
        sc = cx.parse_scenario(json.dumps(doc))
        message = r"^\$\.contexts\[0\]: ray 0 and the padding complement are one projection"
        with pytest.raises(ScenarioError, match=message):
            cx.build_single_poset(sc, tol=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match=r"\$\.kind"):
            cx.parse_scenario(json.dumps({"kind": "tripartite"}))

    def test_invalid_json(self):
        with pytest.raises(ScenarioError, match="invalid JSON"):
            cx.parse_scenario("{nope")

    def test_context_padding_with_complement(self):
        doc = {"kind": "single", "dim": 3, "rays": [[1, 0, 0]], "contexts": [[0]]}
        poset = cx.build_single_poset(cx.parse_scenario(json.dumps(doc)))
        maximal = poset.maximal_nodes()
        ranks = sorted(poset.ranks[poset.rows[maximal[0]]].tolist())
        assert ranks == [1, 2]

    def test_round_trip_structural_equality(self):
        for name in bundled_names():
            sc = cx.parse_scenario(bundled_text(name))
            again = cx.parse_scenario(json.dumps(sc.document, indent=2, sort_keys=True))
            assert again.kind == sc.kind
            assert again.dims == sc.dims
            assert again.digest() == sc.digest()
            for side in sc.rays:
                for u, v in zip(sc.rays[side], again.rays[side]):
                    assert np.allclose(u, v)

    def test_bipartite_table_override(self):
        doc = bundled_scenario("chsh-c2")
        del doc["state"]
        doc["tables"] = [
            {"left": 0, "right": 0, "probs": [[0.5, 0.0], [0.0, 0.5]]}
        ]
        model = cx.build_bipartite_model(cx.parse_scenario(json.dumps(doc)))
        assert model.section is not None
        assert len(model.section.domain) == 1


GOLDEN_EXIT_CODES = [
    ("ks-check", "demo-c3", 0, "colorable"),
    ("ks-check", "ks18-c4", 2, "non_colorable"),
    ("ks-enumerate", "demo-c3", 0, "colorable"),
    ("ks-enumerate", "ks18-c4", 2, "non_colorable"),
    ("gleason-roundtrip", "mub-c3", 0, "roundtrip_ok"),
    ("gleason-roundtrip", "demo-c3", 2, "underdetermined"),
    ("bell-analyze", "chsh-c2", 2, "not_factorisable"),
    ("bell-classify", "chsh-c2", 0, "underdetermined"),
    ("wigner-check", "mub-c3", 0, "wigner_ok"),
    ("wigner-check", "demo-c3", 0, "wigner_ok"),
    ("wigner-check", "ks18-c4", 0, "wigner_ok"),
    ("wigner-check", "mermin-c8", 0, "wigner_ok"),  # the only d8 symmetry path
    ("poset-export", "demo-c3", 0, "exported"),
]


class TestRun:
    @pytest.mark.parametrize("command,name,code,verdict", GOLDEN_EXIT_CODES)
    def test_exit_code_contract(self, command, name, code, verdict):
        sc = cx.parse_scenario(bundled_text(name))
        report = run(command, sc)
        assert report.verdict == verdict
        assert report.exit_code == code

    def test_bell_classify_chsh_rank_deficit(self):
        # two bases per qubit span 3 of 4 local dimensions: 16 - 9 unknowns free
        sc = cx.parse_scenario(bundled_text("chsh-c2"))
        report = run("bell-classify", sc)
        assert report.verdict == "underdetermined"
        assert report.payload["solution_space_dim"] == 7

    def test_bell_classify_quantum_with_spanning_catalog(self, mub2_bipartite_doc):
        doc = dict(mub2_bipartite_doc)
        doc["state"] = [
            ["1/2", 0, 0, "1/2"],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            ["1/2", 0, 0, "1/2"],
        ]
        report = run("bell-classify", cx.parse_scenario(json.dumps(doc)))
        assert report.verdict == "quantum"
        assert report.exit_code == 0

    def test_determinism_modulo_timings(self):
        sc = cx.parse_scenario(bundled_text("ks18-c4"))
        a = run("ks-check", sc).as_dict()
        b = run("ks-check", sc).as_dict()
        a.pop("timings")
        b.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seeded_commands_deterministic(self):
        sc = cx.parse_scenario(bundled_text("mub-c3"))
        a = run("gleason-roundtrip", sc, seed=5).as_dict()
        b = run("gleason-roundtrip", sc, seed=5).as_dict()
        a.pop("timings")
        b.pop("timings")
        assert a == b

    def test_unknown_command(self):
        sc = cx.parse_scenario(bundled_text("demo-c3"))
        with pytest.raises(ValueError, match="unknown command"):
            run("ks-colorize", sc)

    def test_gleason_reconstruct_from_section(self):
        doc = bundled_scenario("mub-c3")
        rho = np.eye(3) / 3
        weights = []
        sc0 = cx.parse_scenario(json.dumps(doc))
        model = cx.build_single_poset(sc0)
        for k, ctx in enumerate(sc0.contexts["main"]):
            weights.append({"context": k, "weights": [1 / 3, 1 / 3, 1 / 3]})
        doc["section"] = weights
        report = run("gleason-reconstruct", cx.parse_scenario(json.dumps(doc)))
        assert report.verdict == "unique"
        got = np.array([[complex(re, im) for re, im in row] for row in report.payload["state"]])
        assert np.allclose(got, rho, atol=1e-8)

    def test_gleason_reconstruct_infeasible_exit(self):
        doc = bundled_scenario("mub-c3")
        rng = np.random.default_rng(3)
        # random inconsistent weights across the four bases
        doc["section"] = [
            {"context": k, "weights": list(rng.dirichlet(np.ones(3)))} for k in range(4)
        ]
        sc = cx.parse_scenario(json.dumps(doc))
        report = run("gleason-reconstruct", sc)
        assert report.verdict == "infeasible"
        assert report.exit_code == 2


class TestMain:
    def test_json_output_and_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["ks-check", "--scenario", "builtin:demo-c3", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert json.loads(captured)["verdict"] == "colorable"
        assert json.loads(out.read_text())["verdict"] == "colorable"

    def test_mermin_star_non_colorable(self, capsys):
        assert main(["ks-check", "--scenario", "builtin:mermin-c8"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "non_colorable"
        # 5 lines, each pair's meet two blocks
        assert report["catalog"] == {"contexts": 5, "constrained_pairs": 10, "blocks": 20}
        assert report["stats"] == {"nodes_expanded": 104, "backtracks": 104, "exhausted": True}

    def test_dim1_check_and_enumerate_agree(self, tmp_path, capsys):
        # the one context of dimension 1 is the trivial one: one section, found by both
        path = tmp_path / "d1.json"
        path.write_text('{"kind": "single", "dim": 1, "rays": [[1]], "contexts": [[0]]}')
        assert main(["ks-check", "--scenario", str(path)]) == 0
        check = json.loads(capsys.readouterr().out)
        assert main(["ks-enumerate", "--scenario", str(path)]) == 0
        enum = json.loads(capsys.readouterr().out)
        assert check["verdict"] == enum["verdict"] == "colorable"
        assert check["stats"] == {"nodes_expanded": 1, "backtracks": 0, "exhausted": False}
        assert enum["count"] == 1 and enum["sections"] == [check["section"]]

    def test_ks18_enumerates_no_section(self, capsys):
        # ks18-c4 stores none of its meets, so only one value per shared key keeps
        # its 4^9 choice tuples from counting as sections
        assert main(["ks-enumerate", "--scenario", "builtin:ks18-c4"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert (report["verdict"], report["count"], report["sections"]) == ("non_colorable", 0, [])

    def test_ks18_check_constrains_no_pair(self, capsys):
        # every two bases of ks18-c4 share one ray or none, so one value per key is all
        assert main(["ks-check", "--scenario", "builtin:ks18-c4"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["catalog"] == {"contexts": 9, "constrained_pairs": 0, "blocks": 0}
        assert report["stats"] == {"nodes_expanded": 44, "backtracks": 44, "exhausted": True}

    def test_peres24_check(self, tmp_path, capsys):
        rays, tetrads = peres24_rays()
        doc = {"kind": "single", "dim": 4, "rays": [list(r) for r in rays], "contexts": tetrads}
        path = tmp_path / "peres24.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ks-check", "--scenario", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        # 18 pairs of tetrads meet in two planes (the poset stores 9 distinct meets)
        assert report["catalog"] == {"contexts": 24, "constrained_pairs": 18, "blocks": 36}
        assert report["stats"] == {"nodes_expanded": 26, "backtracks": 26, "exhausted": True}

    def test_block_sum_near_another_contexts_atom_gives_a_verdict(self, tmp_path, capsys):
        # The meet of bases 0 and 1 has the blocks e0 + e1 and e2 + e3. Context 2 holds
        # two rays of the plane e2, e3 tilted by phi toward e0 + e1, and its padding
        # complement, 9e-7 from e0 + e1 entrywise: closer than the grid but not within tol.
        # Its overlaps with every other context, about phi^2 / 2 > grid^2, join one block,
        # so its pairs constrain nothing. No pair's two block sides differ, so the pairwise
        # route gives a verdict; a registry of block sums rejected the document.
        phi, alpha, e = 1.8e-6, 0.3, np.eye(4)
        b_plus, b_minus = (e[0] + e[1]) / np.sqrt(2), (e[0] - e[1]) / np.sqrt(2)
        a_plus, a_minus = (e[2] + e[3]) / np.sqrt(2), (e[2] - e[3]) / np.sqrt(2)
        u = np.cos(phi) * a_plus + np.sin(phi) * b_plus
        c, s = np.cos(alpha), np.sin(alpha)
        rays = [*e, b_plus, b_minus, a_plus, a_minus, c * u + s * a_minus, c * a_minus - s * u]
        doc = {
            "kind": "single",
            "dim": 4,
            "rays": [v.tolist() for v in rays],
            "contexts": [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]],
        }
        path = tmp_path / "tilted.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ks-check", "--scenario", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "colorable"
        assert report["catalog"] == {"contexts": 3, "constrained_pairs": 1, "blocks": 2}
        # the poset of the same document registers e0 + e1 next to that complement
        assert main(["ks-enumerate", "--scenario", str(path)]) == 1
        assert "closer than the rounding grid" in capsys.readouterr().err

    def test_mermin_star_rays_are_line_eigenvectors(self):
        # independent of the catalog builder: each context's rays are orthogonal
        # eigenvectors of the four Pauli observables on its line
        pauli = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]])}
        lines = ["XXX XYY YXY YYX", "XII IXI IIX XXX", "XII IYI IIY XYY", "YII IXI IIY YXY", "YII IYI IIX YYX"]
        sc = cx.parse_scenario(bundled_text("mermin-c8"))
        rays, contexts = sc.rays["main"], sc.contexts["main"]
        assert len(rays) == 40 and [len(c) for c in contexts] == [8] * 5
        for line, ctx in zip(lines, contexts):
            for word in line.split():
                op = np.kron(np.kron(pauli[word[0]], pauli[word[1]]), pauli[word[2]])
                for i in ctx:
                    v = rays[i]
                    assert np.allclose(op @ v, np.vdot(v, op @ v) * v)

    def test_scenario_file_loading(self, tmp_path, capsys):
        paths = write_bundled(tmp_path)
        target = next(p for p in paths if p.name == "ks18-c4.json")
        code = main(["ks-check", "--scenario", str(target)])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "non_colorable"

    def test_text_format_no_color(self, capsys, monkeypatch):
        monkeypatch.setenv("CONTEXTUA_NO_COLOR", "1")
        code = main(["ks-check", "--scenario", "builtin:demo-c3", "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: colorable" in out
        assert "\x1b[" not in out

    def test_dot_format(self, capsys):
        code = main(["poset-export", "--scenario", "builtin:demo-c3", "--format", "dot"])
        assert code == 0
        assert capsys.readouterr().out.startswith("digraph contexts {")

    def test_dot_format_rejected_elsewhere(self, capsys):
        code = main(["ks-check", "--scenario", "builtin:demo-c3", "--format", "dot"])
        assert code == 1

    def test_unknown_command_usage(self, capsys):
        assert main(["ks-colorize", "--scenario", "builtin:demo-c3"]) == 1

    def test_missing_file_error(self, capsys):
        assert main(["ks-check", "--scenario", "/nonexistent.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["ks-check", "--scenario", "builtin:demo-c3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert captured.out == ""  # no report is printed that was not also written

    def test_unknown_builtin_message_unquoted(self, capsys):
        assert main(["ks-check", "--scenario", "builtin:nope"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown bundled scenario 'nope'; have ['chsh-c2', ")

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "single", "dim": 2, "rays": [[1,0],[1,1]], "contexts": [[0,1]]}')
        assert main(["ks-check", "--scenario", str(bad)]) == 1
        assert "not orthogonal" in capsys.readouterr().err


SCIPY_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from contextua import cli

    def scipy_loaded():
        return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

    runs = [
        ("ks-check", "ks18-c4"),
        ("gleason-roundtrip", "mub-c3"),
        ("wigner-check", "mub-c3"),
        ("bell-classify", "chsh-c2"),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main([c, "--scenario", f"builtin:{n}"]) for c, n in runs]
        before = scipy_loaded()
        lp_code = cli.main(["bell-analyze", "--scenario", "builtin:chsh-c2"])
    print(json.dumps([codes, before, lp_code, scipy_loaded()]))
    """
)


def test_scipy_loaded_only_by_the_lp():
    # a fresh interpreter: this test process has imported scipy already
    env = dict(os.environ, PYTHONPATH=str(Path(cx.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    codes, before, lp_code, after = json.loads(out)
    assert codes == [2, 0, 0, 0]
    assert not before
    assert lp_code == 2
    assert after  # the probe sees scipy once the LP has run


def chsh_tables_doc():
    """chsh-c2 with explicit tables for context pairs (0, 0) and (0, 1) in place of the state."""
    doc = bundled_scenario("chsh-c2")
    del doc["state"]
    doc["product_contexts"] = [[0, 0], [0, 1]]
    doc["tables"] = [
        {"left": 0, "right": r, "probs": [[0.5, 0.0], [0.0, 0.5]]} for r in range(2)
    ]
    return doc


def mub_section_doc():
    """mub-c3 with the maximally mixed weights on every catalog context."""
    doc = bundled_scenario("mub-c3")
    doc["section"] = [{"context": c, "weights": ["1/3"] * 3} for c in range(4)]
    return doc


def run_doc(tmp_path, capsys, command, doc, *args):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--scenario", str(path), *args])
    return code, capsys.readouterr()


def set_in(doc, keys, value):
    target = doc
    for k in keys[:-1]:
        target = target[k]
    target[keys[-1]] = value
    return doc


BIPARTITE, SINGLE = ("bell-classify", chsh_tables_doc), ("gleason-reconstruct", mub_section_doc)

REJECTED_INPUTS = [
    # indices are JSON integers: true is not 1, 0.0 and "0" are not 0
    (BIPARTITE, ("product_contexts", 0, 0), True, "$.product_contexts[0][0]: left context index must be a JSON integer"),
    (BIPARTITE, ("product_contexts", 0, 1), 0.0, "$.product_contexts[0][1]: right context index must be a JSON integer"),
    (BIPARTITE, ("tables", 0, "left"), True, "$.tables[0].left: left context index must be a JSON integer"),
    (BIPARTITE, ("tables", 0, "left"), 0.0, "$.tables[0].left: left context index must be a JSON integer"),
    (BIPARTITE, ("tables", 0, "right"), "0", "$.tables[0].right: right context index must be a JSON integer"),
    (BIPARTITE, ("tables", 0, "right"), 2, "$.tables[0].right: right context index 2 out of range"),
    (BIPARTITE, ("contexts", "left", 1, 0), True, "$.contexts.left[1][0]: ray index must be a JSON integer"),
    (SINGLE, ("section", 0, "context"), True, "$.section[0].context: context index must be a JSON integer"),
    (SINGLE, ("section", 0, "context"), "0", "$.section[0].context: context index must be a JSON integer"),
    (SINGLE, ("section", 0, "context"), 4, "$.section[0].context: context index 4 out of range"),
    # numeric arrays are lists, with equal-length table rows
    (SINGLE, ("section", 0, "weights"), "100", "$.section[0].weights: must be a list"),
    (SINGLE, ("section", 0, "weights"), 1, "$.section[0].weights: must be a list"),
    (BIPARTITE, ("tables", 0, "probs"), "1111", "$.tables[0].probs: must be a list of rows"),
    (BIPARTITE, ("tables", 0, "probs"), ["10", "01"], "$.tables[0].probs[0]: must be a list"),
    (BIPARTITE, ("tables", 0, "probs"), [[0.5, 0.5], [0.0]], "$.tables[0].probs: rows must have equal length"),
    # each section context and each table pair appears once
    (SINGLE, ("section", 1, "context"), 0, "$.section[1].context: context 0 already has weights"),
    (BIPARTITE, ("tables", 1, "right"), 0, "$.tables[1]: context pair (0, 0) already has a table"),
]


class TestScenarioValidation:
    @pytest.mark.parametrize("command_doc,keys,value,message", REJECTED_INPUTS)
    def test_rejected_at_its_path(self, tmp_path, capsys, command_doc, keys, value, message):
        command, make = command_doc
        assert run_doc(tmp_path, capsys, command, make())[0] == 0  # the unchanged document passes
        code, out = run_doc(tmp_path, capsys, command, set_in(make(), keys, value))
        assert code == 1
        assert out.err.startswith(f"error: {message}")

    def test_true_does_not_stand_for_index_one(self, tmp_path, capsys):
        # read as 1, true dropped pair (0, 0) and made CHSH look factorisable
        doc = bundled_scenario("chsh-c2")
        doc["product_contexts"] = [[True, 0], [0, 1], [1, 0], [1, 1]]
        code, out = run_doc(tmp_path, capsys, "bell-analyze", doc)
        assert code == 1
        assert "$.product_contexts[0][0]" in out.err
        doc["product_contexts"][0] = [0, 0]
        code, out = run_doc(tmp_path, capsys, "bell-analyze", doc)
        assert code == 2
        assert json.loads(out.out)["verdict"] == "not_factorisable"


def ray_vectors(raw):
    """Normalized ray vectors of a scenario's JSON ray list."""
    vecs = [np.array([parse_entry(e, "$") for e in r]) for r in raw]
    return [v / np.linalg.norm(v) for v in vecs]


def born_table(rho, left, right):
    """tr(rho (|u><u| x |v><v|)) for every ray u of ``left`` and v of ``right``."""
    return [
        [float(np.real(np.vdot(np.kron(u, v), rho @ np.kron(u, v)))) for v in right] for u in left
    ]


class TestCatalogContextOrder:
    """Table rows and columns and section weights follow the ray order of the catalog
    context they name, also when two catalog contexts are one basis in two orders."""

    QUBIT_RAYS = [[1, 0], [0, 1], [1, 1], [1, -1], [1, [0, 1]], [1, [0, -1]]]

    def reordered_doc(self, tables):
        return {
            "kind": "bipartite",
            "dims": [2, 2],
            "rays": {"left": [[1, 0], [0, 1]], "right": [[1, 0], [0, 1]]},
            "contexts": {"left": [[0, 1]], "right": [[0, 1], [1, 0]]},
            "tables": [
                {"left": 0, "right": r, "probs": probs} for r, probs in enumerate(tables)
            ],
        }

    def test_bell_analyze_reads_each_table_in_its_context_order(self, tmp_path, capsys):
        # one correlated table, written once per ray order of the right basis
        doc = self.reordered_doc([[[0.5, 0], [0, 0.5]], [[0, 0.5], [0.5, 0]]])
        code, out = run_doc(tmp_path, capsys, "bell-analyze", doc)
        assert code == 0
        report = json.loads(out.out)
        assert report["verdict"] == "factorisable"
        # the hull weights sit on the two correlated strategies, not the anticorrelated ones
        assert sorted(s for s, _ in report["lp"]["weights"]) == [0, 3]

    @pytest.mark.parametrize("command", ["bell-analyze", "bell-classify"])
    def test_disagreeing_tables_on_one_node_rejected(self, tmp_path, capsys, command):
        # the second table, read in its own ray order, is anticorrelated
        doc = self.reordered_doc([[[0.5, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]])
        code, out = run_doc(tmp_path, capsys, command, doc)
        assert code == 1
        assert out.err.startswith("error: $.tables[1]: disagrees")

    def test_bell_classify_reads_each_table_in_its_context_order(self, tmp_path, capsys):
        # three qubit MUBs per side and a noisy Bell state; a fourth right context
        # lists the first basis backwards, with its tables written in that order
        rays = ray_vectors(self.QUBIT_RAYS)
        psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = 0.8 * np.outer(psi, psi) + 0.05 * np.eye(4)
        contexts = [[0, 1], [2, 3], [4, 5]]
        reports = []
        for right in (contexts, contexts + [[1, 0]]):
            doc = {
                "kind": "bipartite",
                "dims": [2, 2],
                "rays": {"left": self.QUBIT_RAYS, "right": self.QUBIT_RAYS},
                "contexts": {"left": contexts, "right": right},
                "tables": [
                    {
                        "left": i,
                        "right": j,
                        "probs": born_table(rho, [rays[a] for a in lc], [rays[b] for b in rc]),
                    }
                    for i, lc in enumerate(contexts)
                    for j, rc in enumerate(right)
                ],
            }
            code, out = run_doc(tmp_path, capsys, "bell-classify", doc)
            assert code == 0
            reports.append(json.loads(out.out))
        assert [r["verdict"] for r in reports] == ["quantum", "quantum"]
        witness = [np.array(r["witness"]) for r in reports]
        assert np.abs(witness[0] - witness[1]).max() <= 1e-9

    # a state that no mub-c3 basis sees uniformly
    RHO = np.array([[0.5, 0.1 + 0.05j, 0], [0.1 - 0.05j, 0.3, 0], [0, 0, 0.2]])

    def mub_doc_with_reversed_basis(self, rho):
        doc = bundled_scenario("mub-c3")
        doc["contexts"].append(doc["contexts"][1][::-1])
        rays = ray_vectors(doc["rays"])
        born = [float(np.real(np.vdot(v, rho @ v))) for v in rays]
        doc["section"] = [
            {"context": c, "weights": [born[i] for i in ctx]} for c, ctx in enumerate(doc["contexts"])
        ]
        return doc

    def test_gleason_reconstruct_reads_each_section_entry_in_its_context_order(
        self, tmp_path, capsys
    ):
        doc = self.mub_doc_with_reversed_basis(self.RHO)
        code, out = run_doc(tmp_path, capsys, "gleason-reconstruct", doc)
        assert code == 0
        report = json.loads(out.out)
        assert report["verdict"] == "unique"
        got = np.array([[complex(re, im) for re, im in row] for row in report["state"]])
        assert np.abs(got - self.RHO).max() <= 1e-8

    def test_disagreeing_section_entries_on_one_node_rejected(self, tmp_path, capsys):
        doc = self.mub_doc_with_reversed_basis(self.RHO)
        doc["section"][4]["weights"] = doc["section"][1]["weights"]  # in the wrong order
        code, out = run_doc(tmp_path, capsys, "gleason-reconstruct", doc)
        assert code == 1
        assert out.err.startswith("error: $.section[4]: disagrees")


THREE_QUBIT_DOC = textwrap.dedent(
    """
    import json, sys
    from contextua.catalogs import stabilizer_scenario

    with open(sys.argv[1], "w", encoding="utf-8") as f:
        json.dump(stabilizer_scenario(3), f)
    """
)


class TestStabilizerCatalogs:
    def test_pauli_c4_rays_are_stabilizer_states(self):
        # independent of the catalog builder: each ray is a +-1 eigenvector of exactly three
        # non-identity two-qubit Pauli operators, the same three across its basis,
        # and the 15 bases are the 15 maximal commuting sets
        pauli = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])]
        pauli.append(np.diag([1, -1]))
        ops = [np.kron(a, b) for a in pauli for b in pauli][1:]
        sc = cx.parse_scenario(bundled_text("pauli-c4"))
        rays, contexts = sc.rays["main"], sc.contexts["main"]
        assert len(rays) == 60 and [len(c) for c in contexts] == [4] * 15
        groups = set()
        for ctx in contexts:
            stabilizers = {
                tuple(k for k, op in enumerate(ops) if abs(abs(np.vdot(v, op @ v)) - 1) < 1e-12)
                for v in (rays[i] for i in ctx)
            }
            assert len(stabilizers) == 1
            (group,) = stabilizers
            assert len(group) == 3
            groups.add(group)
        assert len(groups) == 15

    def test_pauli_c4_non_colorable(self, capsys):
        assert main(["ks-check", "--scenario", "builtin:pauli-c4"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "non_colorable"
        # each of the 15 meets is the meet of 3 pairs
        assert report["catalog"] == {"contexts": 15, "constrained_pairs": 45, "blocks": 90}
        assert report["stats"] == {"nodes_expanded": 60, "backtracks": 60, "exhausted": True}

    @pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 135), (4, 2295)])
    def test_lagrangian_subspaces_are_each_listed_once(self, n, count):
        # prod_k (2^k + 1) maximal isotropic subspaces of GF(2)^{2n}, sorted by their elements
        def commute(a, b):  # the symplectic form of X parts a >> n, b >> n and Z parts
            return bin((a >> n) & b).count("1") % 2 == bin(a & (b >> n)).count("1") % 2

        bases = _lagrangian_subspaces(n)
        spans = []
        for basis in bases:
            assert all(commute(a, b) for a in basis for b in basis)
            span = {0}
            for v in basis:
                span |= {v ^ w for w in span}
            assert len(span) == 2**n
            spans.append(sorted(span))
        assert len(bases) == count
        assert spans == sorted(spans) and len(set(map(tuple, spans))) == count

    def test_stabilizer_documents_are_pinned(self, tmp_path, capsys):
        assert cx.parse_scenario(json.dumps(stabilizer_scenario(3))).digest() == "cacee7e8071aa303"
        doc = stabilizer_scenario(4)
        assert cx.parse_scenario(json.dumps(doc)).digest() == "a371d3da53c16916"
        # the first 20 bases use a prefix of the rays, numbered in order of first use
        head = doc["contexts"][:20]
        rays = doc["rays"][: 1 + max(max(c) for c in head)]
        code, out = run_doc(tmp_path, capsys, "ks-check", {**doc, "rays": rays, "contexts": head})
        assert code == 2
        report = json.loads(out.out)
        assert report["verdict"] == "non_colorable"
        assert report["catalog"] == {"contexts": 20, "constrained_pairs": 190, "blocks": 896}
        assert report["stats"] == {"nodes_expanded": 240, "backtracks": 240, "exhausted": True}

    def test_line_without_rank_one_sign_projectors_is_rejected(self):
        # XI alone splits C^4 into two planes, which would be padded as one ray and a plane
        with pytest.raises(ValueError, match=r"line 0 \['XI'\]: a sign projector is not of rank 1"):
            _eigenbasis_scenario(4, [["XI"], ["ZI", "IZ"]], {})
        with pytest.raises(ValueError, match=r"line 1 \['X', 'Z'\]"):  # X and Z do not commute
            _eigenbasis_scenario(2, [["Z"], ["X", "Z"]], {})

    def test_three_qubit_set_runs_in_bounded_memory(self, tmp_path):
        # all 135 three-qubit stabilizer bases (1080 rays) in a fresh interpreter;
        # the child's own peak RSS comes from wait4
        env = dict(os.environ, PYTHONPATH=str(Path(cx.__file__).resolve().parents[1]))
        doc = tmp_path / "pauli-c8.json"
        subprocess.run([sys.executable, "-c", THREE_QUBIT_DOC, str(doc)], env=env, check=True)
        out = tmp_path / "report.json"
        with open(out, "w", encoding="utf-8") as stdout:
            child = subprocess.Popen(
                [sys.executable, "-m", "contextua.cli", "ks-check", "--scenario", str(doc)],
                env=env,
                stdout=stdout,
            )
            _, status, usage = os.wait4(child.pid, 0)
        # the child is reaped: tell the Popen, whose finalizer would warn it still runs
        child.returncode = os.waitstatus_to_exitcode(status)
        assert child.returncode == 2
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["verdict"] == "non_colorable"
        assert report["catalog"] == {"contexts": 135, "constrained_pairs": 4725, "blocks": 11340}
        assert report["stats"] == {"nodes_expanded": 120, "backtracks": 120, "exhausted": True}
        assert usage.ru_maxrss < 500 * 1024  # kilobytes on Linux


class TestEigenbasisScenario:
    def test_nondegenerate_gives_maximal(self):
        # each one-qubit Pauli word is nondegenerate: its -1 and +1 eigenvectors, in that order
        doc = _eigenbasis_scenario(2, [["X"], ["Y"], ["Z"]], {})
        assert doc["rays"] == [[1, -1], [1, 1], [1, [0, -1]], [1, [0, 1]], [0, 1], [1, 0]]
        assert doc["contexts"] == [[0, 1], [2, 3], [4, 5]]
        assert cx.parse_scenario(json.dumps(doc)).dims == (2,)

    def test_joint_refinement(self):
        # ZI and IZ refine each other to the standard basis, signs (-1, -1) first; ZZ,
        # their product, only zeroes four of the eight sign projectors
        want = {"kind": "single", "dim": 4, "contexts": [[0, 1, 2, 3]], "metadata": {}}
        want["rays"] = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
        assert _eigenbasis_scenario(4, [["ZI", "IZ"]], {}) == want
        assert _eigenbasis_scenario(4, [["ZI", "IZ", "ZZ"]], {}) == want

    def test_noncommuting_error_names_pair(self):
        # (I - XX)(I - ZI)/4 has trace 1 but is not a projection: XX and ZI anticommute
        message = r"line 1 \['XX', 'ZI'\]: a sign projector is not of rank 1"
        with pytest.raises(ValueError, match=message):
            _eigenbasis_scenario(4, [["ZI", "IZ"], ["XX", "ZI"]], {})


def rotated_blocks_doc(angle):
    """The d4 standard basis and {(e0 +- e1)/sqrt2, (e2 +- e3)/sqrt2}, the latter turned by
    ``angle`` in the (e0, e2) plane: their meet's two blocks have sides about ``angle`` apart."""
    e = np.eye(4)
    turn = np.eye(4)
    turn[[0, 2], [0, 2]] = np.cos(angle)
    turn[2, 0], turn[0, 2] = np.sin(angle), -np.sin(angle)
    halves = [(e[0] + e[1]), (e[0] - e[1]), (e[2] + e[3]), (e[2] - e[3])]
    rays = [*e, *(turn @ v / np.sqrt(2) for v in halves)]
    return {
        "kind": "single",
        "dim": 4,
        "rays": [v.tolist() for v in rays],
        "contexts": [[0, 1, 2, 3], [4, 5, 6, 7]],
    }


def torn_pair_doc(bases, jitter, seed):
    """A split-block pauli-c4 catalog, each basis direct-summed with a qubit basis: the
    Hadamard basis on contexts 0 and 2 and the standard basis on context 1. The qubit block
    keeps a pair constrained after its torn d4 blocks merge."""
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rays, contexts = [], []
    for b, vecs in enumerate(pauli_subset_rays(bases, jitter, seed)):
        qubit = np.eye(2) if b == 1 else hadamard
        contexts.append(list(range(len(rays), len(rays) + 6)))
        rays += [np.concatenate([v, [0, 0]]) for v in vecs.T]
        rays += [np.concatenate([[0, 0, 0, 0], v]).astype(complex) for v in qubit.T]
    return {
        "kind": "single",
        "dim": 6,
        "rays": [[[x.real, x.imag] for x in v] for v in rays],
        "contexts": contexts,
    }


class TestCatalogRouteBranches:
    """ks-check on catalogs that reach each branch of :func:`contextua.contexts.catalog_meets`."""

    @pytest.mark.parametrize("padded", [[0, 1], [3]])
    def test_padded_context_in_either_order(self, tmp_path, capsys, padded):
        # the padded context coarsens the standard basis, a node below it, listed first or last
        reports = []
        for contexts in ([padded, [0, 1, 2, 3]], [[0, 1, 2, 3], padded]):
            doc = {"kind": "single", "dim": 4, "rays": np.eye(4).tolist(), "contexts": contexts}
            code, out = run_doc(tmp_path, capsys, "ks-check", doc)
            report = json.loads(out.out)
            assert (code, report["verdict"]) == (0, "colorable")
            assert report["catalog"] == {"contexts": 2, "constrained_pairs": 0, "blocks": 0}
            assert len(report["section"]) == 5  # four rays and the padding complement
            reports.append(report)
        assert reports[0]["section"] == reports[1]["section"]
        assert reports[0]["stats"] == reports[1]["stats"]

    def test_block_sides_closer_than_the_grid_are_rejected(self, tmp_path, capsys):
        doc = rotated_blocks_doc(3e-7)
        code, out = run_doc(tmp_path, capsys, "ks-check", doc)
        assert (code, out.out) == (1, "")
        assert out.err == (
            "error: catalog contexts 0 and 1: the two sides of a meet block are closer than"
            " the grid but not within tol 1e-09\n"
        )
        code, out = run_doc(tmp_path, capsys, "ks-check", doc, "--tol", "1e-5")
        report = json.loads(out.out)
        assert (code, report["verdict"]) == (0, "colorable")
        assert report["catalog"] == {"contexts": 2, "constrained_pairs": 1, "blocks": 2}
        code, out = run_doc(tmp_path, capsys, "ks-enumerate", doc, "--tol", "1e-5")
        assert (code, json.loads(out.out)["count"]) == (0, 16)

    @pytest.mark.parametrize(
        "catalog,counts", zip(SPLIT_BLOCK_CATALOGS, [(1, 2, 20), (2, 4, 68), (2, 4, 68)])
    )
    def test_torn_pair_that_stays_constrained(self, tmp_path, capsys, catalog, counts):
        # constrained pairs, their blocks and ks-enumerate's section count
        pairs, blocks, sections = counts
        doc = torn_pair_doc(*catalog)
        code, out = run_doc(tmp_path, capsys, "ks-check", doc, "--tol", "1e-9")
        report = json.loads(out.out)
        assert (code, report["verdict"]) == (0, "colorable")
        assert report["catalog"] == {
            "contexts": len(catalog[0]), "constrained_pairs": pairs, "blocks": blocks
        }
        code, out = run_doc(tmp_path, capsys, "ks-enumerate", doc, "--tol", "1e-9")
        assert (code, json.loads(out.out)["count"]) == (0, sections)


def check_agrees_with_enumerate(sc, tol=1e-9):
    """ks-check reads colorable iff ks-enumerate counts a section, and ks-check's section is
    one of the enumerated sections restricted to the catalog's keys. The membership test reads
    every section from the library, since the ks-enumerate report lists the first 100."""
    check, enum = run("ks-check", sc, tol), run("ks-enumerate", sc, tol)
    assert (check.verdict == "colorable") == (enum.payload["count"] > 0)
    if check.verdict != "colorable":
        return
    section = check.payload["section"]
    poset = cx.build_single_poset(sc, tol)
    tables = (cx.value_table(poset, row) for row in cx.enumerate_global_sections(poset).chosen)
    assert any({k: table[k] for k in section} == section for table in tables)


class TestCheckAgreesWithEnumerate:
    @pytest.mark.parametrize(
        "name", [n for n in bundled_names() if bundled_scenario(n)["kind"] == "single"]
    )
    def test_bundled_scenarios(self, name):
        check_agrees_with_enumerate(cx.parse_scenario(bundled_text(name)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["pauli-c4", "ks18-c4"]),
        st.lists(
            st.tuples(st.integers(0, 14), st.permutations(range(4)), st.integers(1, 4)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_reordered_padded_and_repeated_contexts(self, name, picks):
        # each pick (c, order, k): the first k rays of context c in that order, padded with
        # their complement; picks may repeat a context, whole or padded
        doc = bundled_scenario(name)
        contexts = doc["contexts"]
        doc["contexts"] = [
            [contexts[c % len(contexts)][a] for a in order[:k]] for c, order, k in picks
        ]
        check_agrees_with_enumerate(cx.parse_scenario(json.dumps(doc)))
