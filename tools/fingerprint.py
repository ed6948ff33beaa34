#!/usr/bin/env python3
"""Print one SHA-256 line per model and configuration of hyra's outputs.

The lines cover the reach CSV (with the verdict) at the shipped settings
and at the deeper jump bounds of the reach-deep benchmark (ball at 3 and 5
jumps, tank3 at 16 and 24 jumps over 10 and 15 s), and the trajectory and
event CSVs of three seeded ``simulate`` runs with Heun and Euler at the
shipped step and at step/10. Two source trees print the same lines exactly
when all of these outputs are byte-identical:

    PYTHONPATH=src python3 tools/fingerprint.py > after.txt
    PYTHONPATH=/path/to/other/src python3 tools/fingerprint.py > before.txt
    diff before.txt after.txt
"""

import hashlib
import sys

from hyra import corpus
from hyra.ir import ModelBundle, ReachSettings
from hyra.reach import reach, segments_to_csv
from hyra.simulate import Integrator, SimOptions, events_to_csv, sample_initial, simulate, trajectory_to_csv

DEEP = {
    "bouncing-ball": [(3, None), (5, None)],
    "tank3": [(16, 10.0), (24, 10.0), (16, 15.0), (24, 15.0)],
}
SEEDS = 3


def with_bound(bundle, max_jumps, horizon):
    s = bundle.settings
    settings = ReachSettings(s.horizon if horizon is None else horizon, s.step, max_jumps,
                             s.forbidden, s.output_vars, s.fixpoint_check)
    return ModelBundle(bundle.automaton, settings, bundle.initial)


def reach_text(bundle) -> str:
    result = reach(bundle)
    head = f"{result.verdict.value} {result.first_violation}\n"
    return head + segments_to_csv(result, bundle.automaton.vars.state_vars)


def simulate_text(bundle, kind, step) -> str:
    state_vars = bundle.automaton.vars.state_vars
    parts = []
    for x0 in sample_initial(bundle.initial.box, SEEDS, 0):
        try:
            traj = simulate(bundle, x0, kind, SimOptions(step=step))
        except Exception as exc:  # an engine error is an output too
            parts.append(f"{type(exc).__name__}: {exc}\n")
            continue
        parts.append(trajectory_to_csv(traj, state_vars) + events_to_csv(traj, state_vars))
    return "".join(parts)


def lines():
    for bench in corpus.all_benchmarks():
        model = bench.value
        bundle = corpus.build(bench)
        configs = [("reach shipped", lambda b=bundle: reach_text(b))]
        for jumps, horizon in DEEP.get(model, []):
            label = f"reach jumps={jumps}" + (f" horizon={horizon:g}" if horizon else "")
            configs.append((label, lambda b=with_bound(bundle, jumps, horizon): reach_text(b)))
        for kind in (Integrator.HEUN, Integrator.EULER):
            for step in (bundle.settings.step, bundle.settings.step / 10.0):
                configs.append((f"simulate {kind.value} step={step:g}",
                                lambda b=bundle, k=kind, h=step: simulate_text(b, k, h)))
        for label, make in configs:
            yield f"{hashlib.sha256(make().encode()).hexdigest()}  {model} {label}"


def main() -> int:
    for line in lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
