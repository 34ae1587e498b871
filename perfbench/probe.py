"""Set-up probe: what one benchmark run does before its first timed op.

    python3 perfbench/probe.py WORKLOAD SEED

Imports the program from the checkout's src/ and the workload definitions,
builds the seed's inputs, runs the first op as the warm-up and prints
`ready`.  run.py times this in fresh interpreters for setup_s; it imports
nothing of the harness, so the harness's own imports stay out of set-up time.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]

import workloads  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
workload.run(workload.make_round(int(sys.argv[2]))[0])
print("ready", flush=True)
