#!/usr/bin/env python3
"""Scan the separation angle of the CHSH measurement settings.

For each angle theta the right-hand side measures at +/- theta while the
left side measures at 0 and pi/2, on a maximally entangled pair. The scan
reports the CHSH functional value and the factorisability LP verdict; the
classical boundary sits where the value crosses 2, the maximum (2 sqrt 2)
at theta = pi/4.
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np

import contextua as cx


def scenario_for_angle(theta: float) -> dict:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return {
        "kind": "bipartite",
        "dims": [2, 2],
        "rays": {
            "left": [[1, 0], [0, 1], [1, 1], [-1, 1]],
            "right": [[c, s], [-s, c], [c, -s], [s, c]],
        },
        "contexts": {"left": [[0, 1], [2, 3]], "right": [[0, 1], [2, 3]]},
        "state": [
            [0.5, 0, 0, 0.5],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [0.5, 0, 0, 0.5],
        ],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=13)
    args = parser.parse_args()

    print(f"{'theta/pi':>9}  {'CHSH':>8}  verdict")
    for theta in np.linspace(0.02, math.pi / 2, args.steps):
        sc = cx.parse_scenario(json.dumps(scenario_for_angle(float(theta))))
        model = cx.build_bipartite_model(sc)
        coeffs = {}
        for k, node in enumerate(model.analysis_contexts):
            sign = -1.0 if k == 3 else 1.0
            for a in range(2):
                for b in range(2):
                    coeffs[(node, a, b)] = sign * (1.0 if (a + b) % 2 == 0 else -1.0)
        value = cx.bell_functional_value(model.section, coeffs)
        lp = cx.factorisability_lp(model.section, model.analysis_contexts)
        verdict = "factorisable" if lp.factorisable else "NOT factorisable"
        print(f"{theta / math.pi:9.4f}  {value:8.5f}  {verdict}")


if __name__ == "__main__":
    main()
