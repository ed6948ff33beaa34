"""The benchmark's traced run wraps hyra functions named in benchmark/layers.json.

A rename in hyra would otherwise surface only when the traced run fails to
find its target; here it fails in the test suite. The file is only read.
"""

import importlib
import json

import pytest

from support import REPO_ROOT

LAYERS = json.loads((REPO_ROOT / "benchmark" / "layers.json").read_text())["functions"]


@pytest.mark.parametrize("entry", LAYERS, ids=lambda e: e["name"])
def test_every_traced_target_resolves_to_a_callable(entry):
    module_name, path = entry["target"]
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
