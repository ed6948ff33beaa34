"""The benchmark's traced run wraps hyra functions named in benchmark/layers.json.

A rename in hyra would otherwise surface only when the traced run fails to
find its target; here it fails in the test suite. The traced half of a
benchmark run comes after its untraced half, so it fails when a function that
a workload ``exercised_by`` names records no call on a warm pass; the second
test runs two short passes of each workload's kind of operations and checks
the calls of the second one, counted by the traced run's own ``Tracer``
(``benchmark/tracer.py``). Both files are only read.
"""

import dataclasses
import functools
import importlib
import importlib.util
import io
import json
from contextlib import redirect_stdout

import pytest

from support import REPO_ROOT

LAYERS = json.loads((REPO_ROOT / "benchmark" / "layers.json").read_text())["functions"]
MODELS = ("bouncing-ball", "tank3", "linswitch4", "platoon6")


@pytest.mark.parametrize("entry", LAYERS, ids=lambda e: e["name"])
def test_every_traced_target_resolves_to_a_callable(entry):
    module_name, path = entry["target"]
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)


def module(name: str):
    """A hyra module looked up at call time, so the wrapped functions are the ones called."""
    return importlib.import_module(f"hyra.{name}")


def shipped(model: str):
    corpus = module("corpus")
    return corpus.build(corpus.BenchmarkId(model))


def deeper(bundle, max_jumps: int, horizon: float | None = None):
    settings = dataclasses.replace(bundle.settings, max_jumps=max_jumps,
                                   horizon=bundle.settings.horizon if horizon is None else horizon)
    return dataclasses.replace(bundle, settings=settings)


def reach_corpus_ops(tmp_path) -> list:
    def op(bundle):
        result = module("reach").reach(bundle)
        return module("reach").segments_to_csv(result, bundle.automaton.vars.state_vars)

    return [functools.partial(op, shipped(model)) for model in MODELS]


def reach_deep_ops(tmp_path) -> list:
    bundles = (deeper(shipped("bouncing-ball"), 3), deeper(shipped("tank3"), 16, 10.0))
    return [functools.partial(lambda b: module("reach").reach(b), bundle) for bundle in bundles]


def simulate_seeds_ops(tmp_path) -> list:
    def op(bundle, x0):
        sim = module("simulate")
        return sim.simulate(bundle, x0, sim.Integrator.HEUN, sim.SimOptions(step=bundle.settings.step / 10.0))

    ops = []
    for i, model in enumerate(MODELS):
        bundle = shipped(model)
        x0, = module("simulate").sample_initial(bundle.initial.box, 1, 5 + i)
        ops.append(functools.partial(op, bundle, x0))
    return ops


def cli_files_ops(tmp_path) -> list:
    def op(argv):
        with redirect_stdout(io.StringIO()):
            assert module("cli").main(argv) == 0, argv

    ops = []
    for model in MODELS:
        src = REPO_ROOT / "corpus" / model
        xml, cfg, bundle_json = (str(src / name) for name in ("model.xml", "config.cfg", "bundle.json"))
        bundle = shipped(model)
        csv = tmp_path / f"{model}.csv"
        csv.write_text(module("reach").segments_to_csv(module("reach").reach(bundle), bundle.automaton.vars.state_vars))
        x_name, y_name = bundle.settings.output_vars
        argvs = [["validate", xml], ["validate", bundle_json], ["plot", str(csv), "--x", x_name, "--y", y_name]]
        argvs += [["translate", xml, cfg, "--to", to] for to in ("flowstar", "spaceex", "json")]
        argvs += [["translate", bundle_json, "--to", to] for to in ("flowstar", "spaceex", "json")]
        ops += [functools.partial(op, argv) for argv in argvs]
    return ops


WORKLOAD_OPS = {"reach-corpus": reach_corpus_ops, "reach-deep": reach_deep_ops,
                "simulate-seeds": simulate_seeds_ops, "cli-files": cli_files_ops}


def load_tracer():
    """``benchmark/tracer.py``, whose ``Tracer`` the traced run wraps the layers with, loaded from its file."""
    spec = importlib.util.spec_from_file_location("tracer", REPO_ROOT / "benchmark" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_the_workloads_are_the_ones_layers_names():
    named = {workload for entry in LAYERS for key in ("exercised_by", "bypassed_by") for workload in entry[key]}
    assert named == set(WORKLOAD_OPS)


@pytest.mark.parametrize("workload", WORKLOAD_OPS)
def test_every_exercised_function_is_called_on_a_warm_pass(workload, tmp_path):
    # nothing a pass leaves behind may keep the next one from calling a traced layer
    ops = WORKLOAD_OPS[workload](tmp_path)
    # a module imported while wrapping would bind the wrappers of the modules it imports from, and keep them
    for entry in LAYERS:
        importlib.import_module(entry["target"][0])
    tracer = load_tracer().Tracer()
    try:
        for entry in LAYERS:
            tracer.wrap(entry["name"], *entry["target"])
        for op in ops:
            op()
        cold = list(tracer.calls)
        for op in ops:
            op()
    finally:
        tracer.uninstall()
    warm = {name: after - before for name, before, after in zip(tracer.names, cold, tracer.calls)}
    silent = [e["name"] for e in LAYERS if workload in e["exercised_by"] and not warm[e["name"]]]
    assert silent == []
