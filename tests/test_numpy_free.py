"""numpy loads only where arrays are used.

Only the Monte Carlo estimator and the convolution routine need numpy, so
the package, the CLI and every documented invocation but `simulate` must
run in an interpreter where importing numpy fails.  Each case runs in a
fresh interpreter, since this one has numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import DOCUMENTED_INVOCATIONS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"

NUMPY_FREE = [argv for argv in DOCUMENTED_INVOCATIONS if argv[0] != "simulate"]


def _python(code, block_numpy=True):
    """Run `code` in a fresh interpreter; with block_numpy, `import numpy` fails there."""
    if block_numpy:
        code = "import sys\nsys.modules['numpy'] = None\n" + code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=120
    )


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=lambda a: a[0])
def test_documented_invocation_prints_its_golden_bytes_without_numpy(argv):
    proc = _python(f"from backlog_lab.cli import main\nsys.exit(main({argv!r}))")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{argv[0]}.out").read_bytes()


def test_importing_the_package_and_the_cli_loads_no_numpy():
    proc = _python(
        "import sys, backlog_lab, backlog_lab.cli\nprint('numpy' in sys.modules)",
        block_numpy=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["False"]


def test_array_oracles_check_their_arguments_before_importing_numpy():
    proc = _python(
        """
from backlog_lab import (
    DomainError, McConfig, ModelParams, monte_carlo_cumulative,
    nfold_exponential_convolution,
)
params = ModelParams(1.0, 2)
config = McConfig(n_paths=10, seed=1)
print(monte_carlo_cumulative(params, 0.0, config).value)
for call in (
    lambda: monte_carlo_cumulative(params, -1.0, config),
    lambda: nfold_exponential_convolution(1.0, 2, 1.0, 0.5),
    lambda: monte_carlo_cumulative(params, 1.0, config),
):
    try:
        call()
    except (DomainError, ImportError) as err:
        print(type(err).__name__)
"""
    )
    assert proc.returncode == 0, proc.stderr.decode()
    # The last call needs arrays: it shows that numpy really is blocked.
    assert proc.stdout.decode().split() == ["0.0", "DomainError", "DomainError", "ModuleNotFoundError"]
