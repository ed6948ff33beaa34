"""Correctness checks on hyra's outputs, kept apart from the timed region.

The containment check restates acceptance criterion 6 of the test suite:
seeded simulations must stay inside the flowpipe while their jump count is
within the jump bound. It runs on the benchmark's own copy of the logic so
that it does not depend on the tests directory.
"""

from __future__ import annotations

import math
import statistics
import xml.etree.ElementTree as ET

import numpy as np

CONTAIN_SLACK = 1e-6


class FlowpipeIndex:
    """Point-in-flowpipe queries over a list of reach segments."""

    def __init__(self, segments):
        order = sorted(range(len(segments)), key=lambda i: segments[i].time_lo)
        self.time_lo = np.array([segments[i].time_lo for i in order])
        self.time_hi = np.array([segments[i].time_hi for i in order])
        boxes = [segments[i].box() for i in order]
        self.lo = np.array([b.lo for b in boxes])
        self.hi = np.array([b.hi for b in boxes])
        self.max_span = float(np.max(self.time_hi - self.time_lo)) if segments else 0.0

    def covered(self, times, states) -> np.ndarray:
        """Per sample: does a segment whose time interval holds t box the state?"""
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        out = np.zeros(len(times), dtype=bool)
        if len(self.time_lo) == 0:
            return out
        right = np.searchsorted(self.time_lo, times + 1e-12, side="right")
        left = np.searchsorted(self.time_lo, times - self.max_span - 1e-12, side="left")
        for k in range(int(np.max(right - left, initial=0))):
            idx = left + k
            valid = idx < right
            j = np.where(valid, idx, 0)
            out |= (
                valid
                & (self.time_hi[j] >= times - 1e-12)
                & np.all(states >= self.lo[j] - CONTAIN_SLACK, axis=1)
                & np.all(states <= self.hi[j] + CONTAIN_SLACK, axis=1)
            )
        return out


def trajectory_violations(index: FlowpipeIndex, traj, max_jumps: int) -> tuple:
    """(checked samples, first uncovered (time, state) or None) up to the jump bound."""
    event_times = np.array([e.time for e in traj.events])
    jumps = np.searchsorted(event_times, traj.times, side="right")
    checked = int(np.count_nonzero(jumps <= max_jumps))
    times, states = traj.times[:checked], traj.states[:checked]
    bad = np.flatnonzero(~index.covered(times, states))
    if len(bad) == 0:
        return checked, None
    return checked, (float(times[bad[0]]), states[bad[0]].tolist())


def containment_failures(mods, bundle, result, n_sims: int, seed: int) -> list:
    """Simulate ``n_sims`` seeded runs and report samples outside the flowpipe.

    Runs stop a little after the flowpipe's covered time: a run still within
    the jump bound beyond that time has a sample in the margin, which the
    flowpipe cannot cover, so the shorter horizon hides no violation.
    """
    sim = mods.simulate
    index = FlowpipeIndex(result.segments)
    step = bundle.settings.step / 10.0
    horizon = min(bundle.settings.horizon, result.stats.covered_time + 3.0 * step)
    options = sim.SimOptions(step=step, horizon=horizon)
    failures = []
    checked = 0
    for x0 in sim.sample_initial(bundle.initial.box, n_sims, seed):
        traj = sim.simulate(bundle, x0, sim.Integrator.HEUN, options)
        count, first = trajectory_violations(index, traj, bundle.settings.max_jumps)
        checked += count
        if first is not None:
            failures.append(f"sample at t={first[0]!r} state={first[1]} outside the flowpipe")
    if checked == 0:
        failures.append("no simulation sample was checked")
    return failures


def expected_failures(result, expected: dict) -> list:
    """Differences between a reach result and a corpus expected.json."""
    stats = result.stats
    first = None
    if result.first_violation is not None:
        first = result.segments[result.first_violation].time_lo
    got = {
        "verdict": result.verdict.value,
        "termination": None if stats.termination is None else stats.termination.value,
        "max_depth": stats.max_depth,
        "segments": stats.segments,
        "covered_time": stats.covered_time,
        "first_violation_time": first,
    }
    out = []
    for key, want in expected.items():
        have = got.get(key)
        if isinstance(want, float) and isinstance(have, float):
            same = math.isclose(have, want, rel_tol=1e-9, abs_tol=1e-12)
        else:
            same = have == want
        if not same:
            out.append(f"{key}: got {have!r}, expected {want!r}")
    return out


def csv_failures(result, csv_text: str, n_vars: int) -> list:
    lines = csv_text.splitlines()
    if len(lines) != len(result.segments) + 1:
        return [f"CSV has {len(lines) - 1} rows for {len(result.segments)} segments"]
    if len(lines[0].split(",")) != 4 + 2 * n_vars:
        return ["CSV header has the wrong column count"]
    return []


def segment_widths(result) -> tuple:
    """(median segment box width, final segment box width); width = widest side."""
    widths = []
    final_time = -math.inf
    final_width = 0.0
    for seg in result.segments:
        box = seg.box()
        width = float(np.max(box.hi - box.lo))
        widths.append(width)
        if seg.time_hi > final_time or (seg.time_hi == final_time and width > final_width):
            final_time, final_width = seg.time_hi, width
    return statistics.median(widths), final_width


def svg_failures(text: str, rects_expected: int) -> list:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG is not well-formed: {exc}"]
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    # one background rectangle plus one per flowpipe segment
    if len(rects) != rects_expected + 1:
        return [f"SVG has {len(rects) - 1} segment rectangles, expected {rects_expected}"]
    return []
