"""The benchmark's span targets name functions that exist.

``perfbench/spans.py`` wraps each ``TARGETS`` entry by name when a traced
benchmark child starts, so a renamed or deleted function would break those
children.  The file is loaded read-only, without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = _load_spans().TARGETS
    assert targets
    for mod_name, path, _, _ in targets:
        owner = importlib.import_module(f"hypam.{mod_name}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"hypam.{mod_name}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"hypam.{mod_name}.{path}"
