#!/usr/bin/env python3
"""Regenerate the corpus fixture tree from the builders.

Each benchmark gets model.xml, config.cfg, model.model (Flow*-style),
bundle.json, and expected.json (the reach verdict under the shipped
settings). Fixture bytes are golden-locked by the test suite, so run this
after any intentional builder or emitter change and commit the diff.
"""

import json
import sys
from pathlib import Path

from hyra import corpus
from hyra.config import emit_config
from hyra.flowstar import emit_flowstar
from hyra.interchange import write_json
from hyra.reach import reach
from hyra.spaceex import emit_spaceex


def expected_metadata(bundle) -> str:
    result = reach(bundle)
    data = {
        "verdict": result.verdict.value,
        "termination": result.stats.termination.value if result.stats.termination else None,
        "max_depth": result.stats.max_depth,
        "segments": result.stats.segments,
        "covered_time": result.stats.covered_time,
        "first_violation_time": (
            None if result.first_violation is None else result.segments.time_lo[result.first_violation]
        ),
    }
    return json.dumps(data, indent=2) + "\n"


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "corpus"
    for bench in corpus.BenchmarkId:
        bundle = corpus.build(bench)
        out = root / bench.value
        out.mkdir(parents=True, exist_ok=True)
        texts = {
            "model.xml": emit_spaceex(bundle.automaton),
            "config.cfg": emit_config(bundle.settings, bundle.initial, bundle.automaton.vars, bundle.automaton.name),
            "model.model": emit_flowstar(bundle),
            "bundle.json": write_json(bundle),
            "expected.json": expected_metadata(bundle),
        }
        for name, text in texts.items():
            (out / name).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
