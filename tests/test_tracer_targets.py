"""The benchmark tracer's targets exist in the package.

perfbench/tracer.py wraps each (module, attribute) of its TARGETS where
callers look the function up, and fails with AttributeError on a binding
that a refactor removed.  Its own traced test cannot show that while it
fails for other reasons, so the bindings are checked here.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def test_every_target_resolves_to_a_callable():
    missing = [
        (module_name, attr)
        for module_name, attr, _, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
