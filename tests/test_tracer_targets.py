"""The benchmark tracer's targets exist in the package.

perfbench/tracer.py wraps each (module, attribute) of its TARGETS where
callers look the function up, and fails with AttributeError on a binding
that a refactor removed.  Its own traced test cannot show that while it
fails for other reasons, so the bindings are checked here: each resolves,
and each backlog_lab.cli binding is the one its invocation calls.
"""

import importlib
import sys
from pathlib import Path

import pytest

from backlog_lab import cli
from test_acceptance import DOCUMENTED_INVOCATIONS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402

DOCUMENTED = {argv[0]: argv for argv in DOCUMENTED_INVOCATIONS}


def test_every_target_resolves_to_a_callable():
    missing = [
        (module_name, attr)
        for module_name, attr, _, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


# Each name the tracer wraps in backlog_lab.cli, an invocation that reaches
# it, and how many calls that invocation makes through the binding.  A
# binding that the CLI no longer looks up at call time (captured in a table
# at import, say) would still resolve above, yet its calls would not count.
CLI_CALLS = {
    "main": (DOCUMENTED["eval"], 1),
    "expected_backlog": (DOCUMENTED["eval"], 1),
    # Three times, six candidates.
    "cumulative_expected_backlog": (DOCUMENTED["cumulative"], 18),
    "invert_gaver_stehfest": (DOCUMENTED["invert"], 1),
    # One image call per Stehfest term, at order 14.
    "image_cumulative_backlog": (DOCUMENTED["invert"], 14),
    "image_expected_backlog": (
        ["invert", "--lambda", "1", "--production", "1", "--t", "1", "--image", "expected"],
        14,
    ),
    "monte_carlo_cumulative": (DOCUMENTED["simulate"], 1),
    "check_identity_a1": (["identities", "--family", "A1", "--trials", "3"], 3),
    "check_identity_a2": (["identities", "--family", "A2", "--trials", "3"], 3),
    "check_identity_a3": (["identities", "--family", "A3", "--trials", "3"], 3),
    "check_index_shift": (["identities", "--family", "shift", "--trials", "3"], 3),
    "adjudicate": (DOCUMENTED["adjudicate"], 1),
    "render_report": (DOCUMENTED["adjudicate"], 1),
}


@pytest.mark.parametrize(
    "attr", [attr for module, attr, _, _ in tracer.TARGETS if module == "backlog_lab.cli"]
)
def test_each_cli_target_is_called_through_its_binding(attr, monkeypatch, capsys):
    argv, count = CLI_CALLS[attr]
    calls = []
    wrapped = getattr(cli, attr)

    def counting(*args, **kwargs):
        calls.append(attr)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(cli, attr, counting)
    assert cli.main(list(argv)) == 0
    capsys.readouterr()
    assert len(calls) == count
