"""hyra benchmark: one workload per run, a closed loop from a single client.

    python3 benchmark/run.py --workload reach-corpus --seed 1 --seconds 25 --trace 0

Run from the root of a hyra source tree; hyra is imported from ``src/``.
Workloads (BENCHMARK.json says why each was chosen): reach-corpus,
reach-deep, simulate-seeds, cli-files.

A run sets up the workload's seeded inputs several times (the median is
``setup_s``), then sends one request at a time until ``--seconds`` have
passed and every request ran at least once, giving each group of requests
(a model, an instance or a CLI command) about the same measured time. It
then checks every output and prints, as its last line, one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics of BENCHMARK.json. With ``--trace 1`` the run is split in two
halves of whole passes over the requests: the first untraced, the second
with every function named in layers.json wrapped; the metrics are then the
per-layer metrics per pass, plus the tracing overhead. Times are scaled by
a calibration loop (see ``Calibration``). Lines before the last one give
the environment and the per-model figures with sample counts and tail
percentiles. The full record goes to ``.bench_work/results/`` and the spans
of a traced run to ``.bench_work/trace/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the engine's matrices are small and the machine is shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.metadata
import itertools
import json
import math
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HYRA_MODULES = ("hyra", "hyra.cli", "hyra.config", "hyra.corpus", "hyra.expressions",
                "hyra.flowstar", "hyra.interchange", "hyra.ir", "hyra.plot", "hyra.reach",
                "hyra.sets", "hyra.simulate", "hyra.spaceex")
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# Scaled times are what the machine would show if the calibration loop took
# CAL_REF_S. Where the benchmark was defined (Intel Xeon, 2 shared vCPUs,
# Python 3.11, numpy 2.4) the loop's mean over a run was 10 to 16 ms.
CAL_ITERATIONS = 400
CAL_REF_S = 0.010
CAL_EVERY_S = 0.2


class Mods:
    """hyra's modules, looked up by name so ``hyra.reach`` is the module."""

    def __init__(self):
        for name in HYRA_MODULES[1:]:
            setattr(self, name.split(".")[1], sys.modules[name])


def fail_setup(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_hyra() -> Mods:
    for name in [n for n in sys.modules if n == "hyra" or n.startswith("hyra.")]:
        del sys.modules[name]
    for name in HYRA_MODULES:
        importlib.import_module(name)
    return Mods()


def environment(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas_threads_cap": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def calibration_loop() -> float:
    """A fixed mix of numpy work on 6- and 18-wide arrays and Python objects,
    like the engine's own."""
    small = np.linspace(-1.0, 1.0, 36).reshape(6, 6)
    big = np.linspace(-1.0, 1.0, 324).reshape(18, 18) / 18.0
    x = np.ones(6)
    g = np.ones((18, 20))
    acc = 0.0
    table = {}
    for i in range(CAL_ITERATIONS):
        x = 0.5 * (small @ x) + 1.0
        h = np.hstack([big @ g, np.abs(g[:, :2])])
        if np.all(np.isfinite(h)) and np.all(np.isfinite(x)):
            acc += float(np.abs(h).sum(axis=1)[i % 18]) + float(x[i % 6])
        table[i & 63] = (i, acc)
        g = h[:, :20]
    return acc


class Calibration:
    """Scales measured times to a machine of fixed speed.

    The machine is shared and its speed changes by up to a half within
    seconds: over ten runs of a workload, requests per second as measured
    spread by 7 to 30% (quartile distance over median). So the loop runs
    between requests, at most every ``CAL_EVERY_S``, and every time measured
    in a closed loop is multiplied by ``CAL_REF_S`` over the mean loop time
    seen during it. It is one factor per closed loop: one calibration loop
    cannot say how fast the machine was during one long request, but the
    mean of dozens says how fast it was on average, and the metrics average
    over requests in the same way.
    """

    def __init__(self):
        self.samples: list = []
        self.last_at = -math.inf

    def sample(self) -> None:
        started = time.perf_counter()
        calibration_loop()
        self.last_at = time.perf_counter()
        self.samples.append(self.last_at - started)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last_at >= CAL_EVERY_S:
            self.sample()

    def factor(self) -> float:
        return CAL_REF_S / statistics.fmean(self.samples)


def pass_order(ops, rng):
    """Whole passes, each over every operation once in a seeded order."""
    while True:
        yield from rng.sample(ops, len(ops))


def balanced_order(ops, rng, busy: dict):
    """Next operation from the group with the least measured time so far.

    Short requests (tank3, 50 ms) would otherwise get a few hundred
    milliseconds of a run and long ones (platoon6, 1 s) most of it, so the
    short ones' mean times would rest on a moment of the machine's drift.
    """
    groups: dict = {}
    for op in ops:
        groups.setdefault(op.group, []).append(op)
    cycles = {g: itertools.cycle(rng.sample(members, len(members))) for g, members in groups.items()}
    while True:
        yield next(cycles[min(groups, key=busy.__getitem__)])


def measure(ops, seconds: float, rng, runner=None, whole_passes=False) -> dict:
    """Closed loop over ``ops`` for ``seconds``, one request at a time.

    Every operation runs at least once. With ``whole_passes`` the loop runs
    whole passes, so per-pass counts are exact; otherwise it balances the
    measured time across groups. ``raw`` holds the measured time of each
    execution, ``times`` the same scaled by the calibration of this loop.
    """
    calibration = Calibration()
    raw = {op.key: [] for op in ops}
    busy = {op.group: 0.0 for op in ops}
    outputs: dict = {}
    errors: dict = {}
    order = pass_order(ops, rng) if whole_passes else balanced_order(ops, rng, busy)
    clock = time.perf_counter
    started = clock()
    executed = 0
    for op in order:
        t0 = clock()
        try:
            out = op.run() if runner is None else runner(op.run)
        except Exception as exc:  # a failed request is counted, the loop goes on
            errors.setdefault(op.key, []).append(f"{type(exc).__name__}: {exc}")
            out = None
        elapsed = clock() - t0
        raw[op.key].append(elapsed)
        busy[op.group] += elapsed
        executed += 1
        if out is not None and op.key not in outputs:
            outputs[op.key] = out
        calibration.maybe_sample()
        if clock() - started < seconds:
            continue
        if whole_passes and executed % len(ops) == 0:
            break
        if not whole_passes and all(raw.values()):
            break
    factor = calibration.factor()
    return {"raw": raw, "times": {key: [t * factor for t in ts] for key, ts in raw.items()},
            "outputs": outputs, "errors": errors, "speed_factor": factor,
            "calibration_samples": len(calibration.samples),
            "min_executions": min(len(t) for t in raw.values())}


def pass_seconds(run: dict, field: str = "times") -> float:
    """Time of one pass, as the sum over operations of their mean time."""
    return sum(statistics.fmean(t) for t in run[field].values())


def ops_per_s(run: dict, field: str = "times") -> float:
    return len(run[field]) / pass_seconds(run, field)


def tail(values: list, raw: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median_ms": 1e3 * statistics.median(ordered),
           "raw_median_ms": 1e3 * statistics.median(raw)}
    for p in TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            out[f"p{p}_ms"] = 1e3 * ordered[rank - 1]
            out["beyond_tail"] = n - rank
            break
    return out


def by_group(ops, times: dict) -> dict:
    """Times of the operations of each group (model, instance or command)."""
    groups: dict = {}
    for op in ops:
        groups.setdefault(op.group, []).extend(times[op.key])
    return groups


def detail(workload, ops, run: dict, extra: dict) -> dict:
    scaled, raw = by_group(ops, run["times"]), by_group(ops, run["raw"])
    out = {f"{workload.detail_prefix}.{g}": tail(scaled[g], raw[g]) for g in sorted(scaled)}
    out["all"] = tail([t for v in run["times"].values() for t in v],
                      [t for v in run["raw"].values() for t in v])
    for key in ("min_executions", "speed_factor", "calibration_samples"):
        out[key] = run[key]
    out["raw_ops_per_s"] = ops_per_s(run, "raw")
    out.update(extra)
    return out


def install_tracer(tracer, spec: dict) -> None:
    def reach_stats(t, result):
        t.count("reach.stats.segments", result.stats.segments)
        t.count("reach.stats.flowpipes", result.stats.flowpipes)
        t.count("reach.stats.discarded", result.stats.discarded)

    def trajectory(t, traj):
        t.count("simulate.samples", traj.sample_count)
        t.count("simulate.events", len(traj.events))
        t.count("simulate.zeno_halts", int(traj.zeno))

    hits = {"truthy": bool, "not_none": lambda r: r is not None}
    hooks = {"reach_stats": reach_stats, "trajectory": trajectory}
    for fn in spec["functions"]:
        module_name, path = fn["target"]
        tracer.wrap(fn["name"], module_name, path, hits.get(fn.get("hit")), hooks.get(fn.get("hook")))


def layer_metrics(tracer, spec: dict, passes: int, untraced: dict, traced: dict) -> dict:
    index = {name: i for i, name in enumerate(tracer.names)}
    seconds_per_ns = traced["speed_factor"] / 1e9  # scaled like the traced loop's times
    out = {}
    for fn in spec["functions"]:
        i = index[fn["name"]]
        out[f"{fn['name']}.calls"] = (tracer.calls[i] / passes, "count")
        out[f"{fn['name']}.self_s"] = (tracer.self_ns[i] / passes * seconds_per_ns, "s")
    for ratio in spec["ratios"]:
        i = index[ratio["of"]]
        value = tracer.hits[i] / tracer.calls[i] if tracer.calls[i] else 0.0
        out[ratio["name"]] = (value, "ratio")
    for counter in spec["counters"]:
        out[counter["name"]] = (tracer.counters.get(counter["name"], 0) / passes, "count")
    out["trace.untraced_ops_per_s"] = (ops_per_s(untraced), "1/s")
    out["trace.traced_ops_per_s"] = (ops_per_s(traced), "1/s")
    out["trace.overhead_share"] = (pass_seconds(traced) / pass_seconds(untraced) - 1.0, "ratio")
    return out


def unused_layers(tracer, spec: dict, workload: str) -> list:
    index = {name: i for i, name in enumerate(tracer.names)}
    return [fn["name"] for fn in spec["functions"]
            if workload in fn["exercised_by"] and tracer.calls[index[fn["name"]]] == 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config_path = ROOT / "BENCHMARK.json"
    if not config_path.is_file():
        fail_setup(f"{config_path.name} not found at the tree root")
    if not (ROOT / "src" / "hyra" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        fail_setup("no hyra source tree (src/hyra and corpus/) next to the benchmark")
    config = json.loads(config_path.read_text())
    spec = json.loads((BENCH_DIR / "layers.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import workloads  # noqa: E402
    from tracer import Tracer  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    env = environment(args)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        setup_raw = []
        calibration = Calibration()  # one loop before and after each set-up
        for _ in range(workload.setup_repeats):
            calibration.sample()
            started = time.perf_counter()
            mods = import_hyra()
            ops = workload.setup(mods, args.seed, ROOT, Path(tmp))
            setup_raw.append(time.perf_counter() - started)
        calibration.sample()
        around = [0.5 * (a + b) for a, b in zip(calibration.samples, calibration.samples[1:])]
        setup_scaled = [CAL_REF_S * t / c for t, c in zip(setup_raw, around)]
        hyra_file = Path(sys.modules["hyra"].__file__).resolve()
        if ROOT / "src" not in hyra_file.parents:
            fail_setup(f"hyra was imported from {hyra_file}, not from this tree")

        order_rng = random.Random(args.seed)
        tracer = None
        if args.trace:
            untraced = measure(ops, args.seconds / 2, order_rng, whole_passes=True)
            tracer = Tracer()
            install_tracer(tracer, spec)
            try:
                traced = measure(ops, args.seconds / 2, order_rng, tracer.run_request, whole_passes=True)
            finally:
                tracer.uninstall()
            run = untraced
        else:
            run = measure(ops, args.seconds, order_rng)

        check_started = time.perf_counter()
        report = workload.check(mods, args.seed, run["outputs"])
        check_s = time.perf_counter() - check_started

    setup_s = statistics.median(setup_scaled)

    failures = dict(report.failures)
    for key, messages in run["errors"].items():
        failures.setdefault(key, []).extend(messages)
    if tracer is not None:
        for key, messages in traced["errors"].items():
            failures.setdefault(key, []).extend(messages)
    executions = {key: len(t) for key, t in run["times"].items()}
    if tracer is not None:
        for key, t in traced["times"].items():
            executions[key] += len(t)
    attempted = sum(executions.values())
    failed = sum(executions[key] for key in failures)
    correct = failed == 0

    widths = report.widths
    extra = {"failed_share": failed / attempted, "known_defects": report.notes}
    if workload.name.startswith("reach"):
        extra["reach_per_s"] = ops_per_s(run)
    if workload.name == "simulate-seeds":
        samples = sum(traj.sample_count for traj in run["outputs"].values())
        extra["sim_steps_per_s"] = samples / pass_seconds(run)
    if workload.name == "cli-files":
        extra["cli_cmds_per_s"] = ops_per_s(run)

    if tracer is None:
        groups = by_group(ops, run["times"])
        measured = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s(run), "1/s"),
            "op_ms.gmean": (statistics.geometric_mean(
                1e3 * statistics.fmean(t) for t in groups.values()), "ms"),
            "box_width.median_gmean": (statistics.geometric_mean(m for m, _ in widths), "width"),
            "box_width.final_gmean": (statistics.geometric_mean(f for _, f in widths), "width"),
            "ok_share": (1.0 - failed / attempted, "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        wanted = config["end_to_end"]
    else:
        measured = layer_metrics(tracer, spec, traced["min_executions"], untraced, traced)
        wanted = config["per_layer"]
        missing_calls = unused_layers(tracer, spec, workload.name)
        if missing_calls:
            correct = False
            failures["trace"] = [f"no calls recorded for {', '.join(missing_calls)}"]
        work_root.joinpath("trace").mkdir(exist_ok=True)
        extra["spans"] = tracer.write_spans(work_root / "trace" / f"{workload.name}.spans.tsv.gz")
        extra["traced"] = detail(workload, ops, traced, {})

    metrics = {}
    for entry in wanted:
        if entry["name"] not in measured:
            print(f"benchmark: metric {entry['name']} is not measured", file=sys.stderr)
            return 1
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            print(f"benchmark: metric {entry['name']} has unit {unit}, BENCHMARK.json says {entry['unit']}",
                  file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": value, "unit": unit}

    info = detail(workload, ops, run, extra)
    info["setup_s_raw"] = setup_raw
    info["check_s"] = check_s
    record = {"env": env, "metrics": metrics, "detail": info, "failures": failures}
    results = work_root / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("# env " + json.dumps(env))
    print("# detail " + json.dumps(info))
    for key, messages in sorted(failures.items()):
        print(f"# FAILED {key}: {'; '.join(messages)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
