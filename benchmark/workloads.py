"""The four workloads: their seeded inputs, their operations and their checks.

Each workload's ``setup`` builds the inputs from the seed and returns the
operations of one pass; the runner times passes of those operations in a
closed loop. Operations look hyra's functions up through the module objects
at call time, so a traced run sees the wrapped functions.

A generated initial set is a sub-box of the shipped one: each side is 0.5 to
1 times the shipped width (0.8 to 1 in reach-deep), placed at a seeded
offset. When a model gets several sub-boxes, sub-box j draws its side
factors from the j-th of equal slices of that range, so every seed gets one
small, one middling and one large box and the amount of work per pass stays
close across seeds. reach-deep keeps its boxes near the shipped size: below
0.8 the ball's flowpipe count and widths at jump bounds 3-5 jump by up to 3x
between seeds (the geometric mean width of three instances spread by 28%
over ten seeds), which no run length averages out.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

MODELS = ("bouncing-ball", "tank3", "linswitch4", "platoon6")
LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"


@dataclass
class Op:
    key: str
    group: str
    run: Callable[[], object]


@dataclass
class CheckReport:
    failures: dict = field(default_factory=dict)  # op key -> list of messages
    notes: list = field(default_factory=list)
    widths: list = field(default_factory=list)  # (median width, final width) per flowpipe

    def fail(self, key: str, messages) -> None:
        if messages:
            self.failures.setdefault(key, []).extend(messages)


def derived_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def sub_boxes(box, rng, count: int, smallest: float = 0.5) -> list:
    lo = np.array(box.lo, dtype=float)
    hi = np.array(box.hi, dtype=float)
    width = hi - lo
    span = 1.0 - smallest
    out = []
    for j in range(count):
        factor = rng.uniform(smallest + span * j / count, smallest + span * (j + 1) / count, size=width.shape)
        side = factor * width
        new_lo = lo + rng.uniform(0.0, 1.0, size=width.shape) * (width - side)
        new_hi = np.minimum(new_lo + side, hi)
        out.append(([float(v) for v in new_lo], [float(v) for v in new_hi]))
    return out


def with_initial(mods, bundle, lo, hi):
    ir = mods.ir
    initial = ir.InitialCondition(bundle.initial.location, mods.sets.Box(lo, hi))
    return ir.ModelBundle(bundle.automaton, bundle.settings, initial)


def with_settings(mods, bundle, max_jumps: int, horizon: float | None = None):
    s = bundle.settings
    settings = mods.ir.ReachSettings(
        s.horizon if horizon is None else horizon, s.step, max_jumps, s.forbidden,
        s.output_vars, s.fixpoint_check,
    )
    return mods.ir.ModelBundle(bundle.automaton, settings, bundle.initial)


def shipped(mods, model: str):
    return mods.corpus.build(mods.corpus.BenchmarkId(model))


def _reach_request(mods, bundle, with_csv: bool):
    result = mods.reach.reach(bundle)
    if not with_csv:
        return result, None
    return result, mods.reach.segments_to_csv(result, bundle.automaton.vars.state_vars)


def _simulate_request(mods, bundle, x0, options):
    sim = mods.simulate
    return sim.simulate(bundle, x0, sim.Integrator.HEUN, options)


def _cli_request(mods, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = mods.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class ReachCorpus:
    """``reach`` plus ``segments_to_csv`` on the shipped models and 3 sub-boxes each."""

    name = "reach-corpus"
    detail_prefix = "reach_s"
    setup_repeats = 9
    containment_sims = 2

    def setup(self, mods, seed: int, root, workdir) -> list:
        rng = np.random.default_rng(derived_seed(seed, 1))
        self.instances = {}
        self.expected = {}
        ops = []
        for model in MODELS:
            base = shipped(mods, model)
            expected = root / "corpus" / model / "expected.json"
            self.expected[f"{model}/shipped"] = json.loads(expected.read_text())
            variants = [("shipped", base)] + [
                (f"sub{j}", with_initial(mods, base, lo, hi))
                for j, (lo, hi) in enumerate(sub_boxes(base.initial.box, rng, 3))
            ]
            for label, bundle in variants:
                key = f"{model}/{label}"
                self.instances[key] = bundle
                ops.append(Op(key, model, lambda b=bundle: _reach_request(mods, b, True)))
        return ops

    def check(self, mods, seed: int, outputs: dict) -> CheckReport:
        report = CheckReport()
        for i, (key, bundle) in enumerate(sorted(self.instances.items())):
            if key not in outputs:
                continue
            result, csv_text = outputs[key]
            if key in self.expected:
                report.fail(key, checks.expected_failures(result, self.expected[key]))
            report.fail(key, checks.csv_failures(result, csv_text, bundle.automaton.vars.n))
            report.fail(key, checks.containment_failures(
                mods, bundle, result, self.containment_sims, derived_seed(seed, 11, i)))
            report.widths.append(checks.segment_widths(result))
        return report


class ReachDeep:
    """``reach`` with raised jump bounds: ball at 3, 4 and 5, tank3 at 16-24 over 10, 12.5 and 15 s."""

    name = "reach-deep"
    detail_prefix = "reach_s"
    setup_repeats = 9
    containment_sims = 2

    def setup(self, mods, seed: int, root, workdir) -> list:
        rng = np.random.default_rng(derived_seed(seed, 2))
        self.instances = {}
        ops = []
        ball = shipped(mods, "bouncing-ball")
        for j, (lo, hi) in enumerate(sub_boxes(ball.initial.box, rng, 3, 0.8)):
            bound = 3 + j
            bundle = with_settings(mods, with_initial(mods, ball, lo, hi), bound)
            self.instances[f"bouncing-ball.j{bound}"] = bundle
        tank = shipped(mods, "tank3")
        for j, (lo, hi) in enumerate(sub_boxes(tank.initial.box, rng, 3, 0.8)):
            bound = int(rng.integers(16 + 3 * j, 19 + 3 * j))
            horizon = (10.0, 12.5, 15.0)[j]
            bundle = with_settings(mods, with_initial(mods, tank, lo, hi), bound, horizon)
            self.instances[f"tank3.{('short', 'mid', 'long')[j]}"] = bundle
        for key, bundle in self.instances.items():
            ops.append(Op(key, key, lambda b=bundle: _reach_request(mods, b, False)))
        return ops

    def check(self, mods, seed: int, outputs: dict) -> CheckReport:
        report = CheckReport()
        for i, (key, bundle) in enumerate(sorted(self.instances.items())):
            if key not in outputs:
                continue
            result, _ = outputs[key]
            if result.stats.max_depth > bundle.settings.max_jumps:
                report.fail(key, [f"depth {result.stats.max_depth} beyond the jump bound"])
            report.fail(key, checks.containment_failures(
                mods, bundle, result, self.containment_sims, derived_seed(seed, 12, i)))
            report.widths.append(checks.segment_widths(result))
        return report


class SimulateSeeds:
    """Heun ``simulate`` at step/10 from seeded initial points of all four models."""

    name = "simulate-seeds"
    detail_prefix = "sim_s"
    setup_repeats = 9
    runs_per_model = 3

    def setup(self, mods, seed: int, root, workdir) -> list:
        self.bundles = {}
        self.runs = {}
        ops = []
        sim = mods.simulate
        for i, model in enumerate(MODELS):
            bundle = shipped(mods, model)
            self.bundles[model] = bundle
            options = sim.SimOptions(step=bundle.settings.step / 10.0)
            points = sim.sample_initial(bundle.initial.box, self.runs_per_model, derived_seed(seed, 3, i))
            for k, x0 in enumerate(points):
                key = f"{model}/run{k}"
                self.runs[key] = model
                ops.append(Op(key, model, lambda b=bundle, x=x0, o=options: _simulate_request(mods, b, x, o)))
        return ops

    def check(self, mods, seed: int, outputs: dict) -> CheckReport:
        report = CheckReport()
        for model, bundle in self.bundles.items():
            result = mods.reach.reach(bundle)
            report.widths.append(checks.segment_widths(result))
            index = checks.FlowpipeIndex(result.segments)
            for key in (k for k, m in self.runs.items() if m == model and k in outputs):
                checked, first = checks.trajectory_violations(index, outputs[key], bundle.settings.max_jumps)
                if first is not None:
                    report.fail(key, [f"sample at t={first[0]!r} outside the shipped flowpipe"])
                elif checked == 0:
                    report.fail(key, ["no sample was checked"])
        return report


def _fmt_number(x: float) -> str:
    """Shortest round-trip text without a trailing '.0', as hyra's emitters write it."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # drops the sign of -0.0
    text = repr(x)
    return text[:-2] if text.endswith(".0") else text


def variant_config(cfg_text: str, location: str, names, lo, hi) -> str:
    terms = [f"loc() == {location}"]
    for name, a, b in zip(names, lo, hi):
        terms.append(f"{name} == {a!r}" if a == b else f"{name} >= {a!r} & {name} <= {b!r}")
    line = "initially = " + " & ".join(terms)
    return re.sub(r"(?m)^initially\s*=.*$", lambda _: line, cfg_text)


def variant_bundle_json(bundle_text: str, names, lo, hi) -> str:
    data = json.loads(bundle_text)
    data["initial"]["box"] = {name: [a, b] for name, a, b in zip(names, lo, hi)}
    return json.dumps(data, indent=2) + "\n"


def variant_flowstar(golden: str, names, lo, hi) -> str:
    head, sep, tail = golden.partition("\n init\n")
    bounds = dict(zip(names, zip(lo, hi)))

    def repl(match):
        a, b = bounds[match.group(1)]
        return f"   {match.group(1)} in [{_fmt_number(a)}, {_fmt_number(b)}]"

    return head + sep + re.sub(r"(?m)^   (\S+) in \[[^\]]*\]$", repl, tail)


@dataclass
class CliExpect:
    text: str | None  # expected stdout; None for plot, checked as SVG
    model: str
    rects: int = 0


class CliFiles:
    """In-process ``hyra.cli.main`` on corpus files and seeded variants."""

    name = "cli-files"
    detail_prefix = "cli_s"
    setup_repeats = 3

    def setup(self, mods, seed: int, root, workdir) -> list:
        rng = np.random.default_rng(derived_seed(seed, 4))
        self.known_defects = json.loads(LAYERS_FILE.read_text())["known_defects"]
        self.expect = {}
        self.reach_results = []
        ops = []
        for model in MODELS:
            src = root / "corpus" / model
            xml, cfg, bundle_json = src / "model.xml", src / "config.cfg", src / "bundle.json"
            golden = {
                "flowstar": (src / "model.model").read_text(),
                "spaceex": xml.read_text(),
                "json": bundle_json.read_text(),
            }
            base = shipped(mods, model)
            names = base.automaton.vars.state_vars
            (lo, hi), = sub_boxes(base.initial.box, rng, 1)
            out_dir = workdir / model
            out_dir.mkdir(parents=True, exist_ok=True)
            var_cfg, var_json = out_dir / "config.cfg", out_dir / "bundle.json"
            reach_csv = out_dir / "reach.csv"
            var_cfg.write_text(variant_config(cfg.read_text(), base.initial.location, names, lo, hi))
            var_json.write_text(variant_bundle_json(golden["json"], names, lo, hi))
            variant = {
                "flowstar": variant_flowstar(golden["flowstar"], names, lo, hi),
                "spaceex": golden["spaceex"],
                "json": var_json.read_text(),
            }
            result, csv_text = _reach_request(mods, base, True)
            reach_csv.write_text(csv_text)
            self.reach_results.append(result)

            commands = [
                ("validate-xml", ["validate", str(xml)], "OK\n"),
                ("validate-json", ["validate", str(var_json)], "OK\n"),
            ]
            for to in ("flowstar", "spaceex", "json"):
                commands += [
                    (f"translate-xml-{to}", ["translate", str(xml), "--to", to], golden[to]),
                    (f"translate-cfg-{to}", ["translate", str(xml), str(var_cfg), "--to", to], variant[to]),
                    (f"translate-json-{to}", ["translate", str(bundle_json), "--to", to], golden[to]),
                    (f"translate-variant-{to}", ["translate", str(var_json), "--to", to], variant[to]),
                ]
            x_name, y_name = base.settings.output_vars
            commands.append(("plot", ["plot", str(reach_csv), "--x", x_name, "--y", y_name], None))
            for group, argv, text in commands:
                key = f"{group}/{model}"
                self.expect[key] = CliExpect(text, model, len(result.segments))
                ops.append(Op(key, group, lambda a=argv: _cli_request(mods, a)))
        return ops

    def check(self, mods, seed: int, outputs: dict) -> CheckReport:
        report = CheckReport()
        report.widths = [checks.segment_widths(r) for r in self.reach_results]
        for key, want in sorted(self.expect.items()):
            if key not in outputs:
                continue
            code, out, err = outputs[key]
            if code != 0:
                report.fail(key, [f"exit code {code}, expected 0: {err.strip()[:200]}"])
                continue
            if want.text is None:
                report.fail(key, checks.svg_failures(out, want.rects))
                continue
            if out == want.text:
                continue
            group = key.split("/")[0]
            defect = next((d for d in self.known_defects
                           if group in d["commands"] and want.model in d["models"]), None)
            read_json = mods.interchange.read_json
            if defect is not None and read_json(out) == read_json(want.text):
                report.notes.append(
                    f"known defect {defect['name']}: {key} differs in bytes, equal in structure")
            else:
                report.fail(key, ["output differs from the expected bytes"])
        for defect in self.known_defects:
            for group in defect["commands"]:
                for model in defect["models"]:
                    key = f"{group}/{model}"
                    if key in outputs and outputs[key][1] == self.expect[key].text:
                        report.notes.append(f"known defect {defect['name']} no longer shows on {key}")
        return report


WORKLOADS = {w.name: w for w in (ReachCorpus, ReachDeep, SimulateSeeds, CliFiles)}
