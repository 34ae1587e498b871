"""backlog-lab benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Inputs come from --seed only.  The round of operations a
workload builds from the seed is repeated a fixed number of times: as many
whole rounds as fill --seconds at the workload's nominal round time, and
with --trace 0 at least the rounds that leave ten samples beyond
op_tail_s's percentile.  A run's operations, and so its failure count,
depend on --seed and --seconds only; on a slower host the run takes longer.
Every output is checked against an independent reference, and each metric
is printed as `name value unit`.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the rounds that
fill half of --seconds in-process, first untraced and then again with
every public function of the program wrapped in spans, and reports the
per-layer metrics; the spans are written to perfbench/out/.

`correct` is false when any operation fails other than on a defect listed
by the workload's known_defect; `failed` counts every failing operation.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

from tracer import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_PROBES = 9
IMPORT_PROBES = 5

END_TO_END = ("throughput_ops_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb")
# Per-layer metrics in the result line of a traced run: every work count,
# plus the import split and the tracing overhead, which every workload
# measures.  The per-layer seconds are printed but kept out of the result
# line: each workload leaves some layers uncalled, whose seconds then read
# exactly 0 on every run, and the benchmark's contract refuses a time that
# reads the same on every run.  That rule is for times; a work count that
# reads 0 where its layer is not called is a true, exact figure.
IMPORT_METRICS = ("cli.interpreter_s", "cli.import_s", "cli.numpy_import_s")
RESULT_LAYERS = tuple(name for name, unit in LAYER_METRICS if unit == "count") + IMPORT_METRICS + (
    "trace.throughput_ratio",
)


def _die(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_program():
    if not (SRC / "backlog_lab" / "__init__.py").is_file():
        _die(f"no backlog_lab source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import backlog_lab

    if Path(backlog_lab.__file__).resolve().parent != SRC / "backlog_lab":
        _die(f"imported backlog_lab from {backlog_lab.__file__}, not from {SRC}")
    import workloads

    return workloads


# On a shared host the same work can take twice as long minutes later (one
# grid-sweep round took 4.2 s, then 8.3 s, on a 2-CPU x86-64 virtual
# machine), and a fixed task slows with it.  Such a task, the kernel, runs
# between ops at most every CAL_INTERVAL_S, and each op's latency is scaled
# by the kernel's reference time over its mean time within CAL_WINDOW_S of
# the op.  Pure-Python ops are scaled by a pure-Python loop of about 4 ms: on
# ten-second grid-sweep runs of one seed this cut the run-to-run CV of
# throughput from 6% to 2%, of op_p50_s from 10% to 5% and of op_tail_s from
# 9% to 4%.  Ops that are child processes are scaled by the start of a bare
# interpreter (`python -S -c pass`, about 16 ms): the loop did not follow a
# slowdown of process start-up that took ten seeds of cli-documented to a
# throughput spread of 0.28.  Sampling's ops run in numpy and are scaled by
# one np.convolve of two 3000-point arrays (about 1.1 ms): its 25 ms
# convolution ops, which hold the median, moved by up to 15% between
# processes; on five seeds op_p50_s spread 0.19 in wall seconds, 0.23 with
# the loop and 0.11 with this kernel.  The set-up probes have a kernel of
# their own (SETUP_KERNEL).  End-to-end times are therefore in reference
# seconds, in which the kernel takes its reference time; the wall figures
# are printed alongside.
CAL_INTERVAL_S = 0.05
CAL_WINDOW_S = 0.5


def _python_kernel_s() -> float:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(40_000):
        s = s * 0.5 + 1.0001 / (i + 1.0)
    return time.perf_counter() - t0


def _spawn_kernel_s() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - t0


@functools.cache
def _convolve_inputs():
    import numpy  # the program has imported it already

    x = numpy.linspace(0.0, 1.0, 3000)
    return numpy, x, numpy.exp(-x)


def _convolve_kernel_s() -> float:
    numpy, x, y = _convolve_inputs()
    t0 = time.perf_counter()
    numpy.convolve(x, y)
    return time.perf_counter() - t0


def _numpy_kernel_s() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Kernel:
    time_s: Callable[[], float]
    reference_s: float


PYTHON_KERNEL = Kernel(_python_kernel_s, 0.004)
SPAWN_KERNEL = Kernel(_spawn_kernel_s, 0.016)
CONVOLVE_KERNEL = Kernel(_convolve_kernel_s, 0.0011)
# The set-up probes' kernel: a fresh interpreter importing numpy, a fixed
# start-up task of the probes' own kind.  Sixty grid-sweep probes, each
# followed by every kernel, split into ten blocks of six: the blocks'
# median probe time spread 0.18 in wall seconds, 0.12 scaled by the loop,
# 0.08 by SPAWN_KERNEL and 0.06 by this kernel (cli-documented, 48 probes:
# 0.10, 0.18, 0.19 and 0.085).
SETUP_KERNEL = Kernel(_numpy_kernel_s, 0.2)
KERNELS = {"loop": PYTHON_KERNEL, "spawn": SPAWN_KERNEL, "convolve": CONVOLVE_KERNEL}


@dataclass
class Loop:
    samples: list  # (op, wall latency, digest of the output or the exception raised)
    firsts: dict  # op -> its first output, the only one kept whole
    spans: list  # (start, end) of each op, wall clock
    kernel: list  # (time, kernel seconds)
    kernel_reference_s: float
    peak_rss_mb: float = 0.0  # at the end of the first round

    def wall(self) -> list[float]:
        return [s[1] for s in self.samples]

    def reference(self) -> list[float]:
        """Each op's latency in reference seconds."""
        times = [t for t, _ in self.kernel]
        out = []
        for (start, end), wall in zip(self.spans, self.wall()):
            lo = bisect.bisect_left(times, start - CAL_WINDOW_S)
            hi = bisect.bisect_right(times, end + CAL_WINDOW_S)
            near = [k for _, k in self.kernel[lo:hi]] or [k for _, k in self.kernel]
            out.append(wall * self.kernel_reference_s / statistics.mean(near))
        return out


def _tail(latencies: list[float], percentile: int) -> float:
    """`percentile` of the latencies, nearest rank."""
    return sorted(latencies)[math.ceil(percentile / 100.0 * len(latencies)) - 1]


def _min_rounds(workload, ops) -> int:
    """Whole rounds that leave at least ten samples beyond the tail percentile."""
    return -(-1000 // ((100 - workload.TAIL_PERCENTILE) * len(ops)))


def _digest(workload, output) -> bytes:
    return hashlib.sha256(workload.fingerprint(output).encode()).digest()


def _rounds(workload, seconds, minimum=1) -> int:
    """Whole rounds that fill `seconds` at the workload's nominal round time.

    The count never depends on how fast this host runs: a run that stopped
    on the clock would make more or fewer ops from one run of a seed to the
    next, and count a different number of failed ops.
    """
    return max(minimum, round(seconds / workload.ROUND_S))


def _loop(workload, ops, seed, rounds, run_op, kernel, before_op=None) -> Loop:
    """`rounds` whole rounds, the kernel timed in between.

    The peak resident set is read after the first round: later rounds run
    the same ops, and what they add is the allocator's state (a sampling
    run read 285 or 315 MB by chance), not the workload's need.
    """
    loop = Loop([], {}, [], [], kernel.reference_s)
    clock = time.perf_counter
    last_kernel = clock()
    for round_index in range(rounds):
        for op in workload.order(ops, seed, round_index):
            if before_op is not None:
                before_op(len(loop.samples))
            t0 = clock()
            try:
                output = run_op(op)
            except Exception as exc:  # a failing op is counted, not fatal
                outcome = exc
            else:
                outcome = None
            t1 = clock()
            if outcome is None:
                outcome = _digest(workload, output)
                loop.firsts.setdefault(op, output)
            loop.samples.append((op, t1 - t0, outcome))
            loop.spans.append((t0, t1))
            if clock() - last_kernel >= CAL_INTERVAL_S:
                loop.kernel.append((clock(), kernel.time_s()))
                last_kernel = clock()
        if round_index == 0:
            loop.peak_rss_mb = _peak_rss_mb(workload)
    loop.kernel.append((clock(), kernel.time_s()))
    return loop


def _verify(workload, samples, firsts):
    """(failed, unexpected, reasons): each op's first output checked, every repeat compared to it."""
    verdicts = {op: (_digest(workload, out), workload.check(op, out)) for op, out in firsts.items()}
    failed = unexpected = 0
    reasons: dict[str, str] = {}
    for op, _, outcome in samples:
        if isinstance(outcome, Exception):
            reason = f"raised {outcome!r}"
        else:
            digest, reason = verdicts[op]
            if outcome != digest:
                reason = "output differs from the op's first run"
        if reason is not None:
            failed += 1
            known = workload.known_defect(op, reason)
            unexpected += not known
            reasons.setdefault(workload.describe(op), ("known defect: " if known else "") + reason)
    return failed, unexpected, reasons


def _setup_time(args) -> tuple[float, float]:
    """Median time for a fresh interpreter to import, build inputs and run one op.

    Returns (reference seconds, wall seconds): the median probe is scaled by
    the median of SETUP_KERNEL, timed before the first probe and after each.
    """
    times, kernel = [], [SETUP_KERNEL.time_s()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed)],
            stdout=subprocess.PIPE,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line != b"ready\n":
                _die("set-up probe failed")
        kernel.append(SETUP_KERNEL.time_s())
        times.append(elapsed)
    wall = statistics.median(times)
    return wall * SETUP_KERNEL.reference_s / statistics.median(kernel), wall


def _import_split(env) -> dict[str, float]:
    """Medians of bare interpreter start and of `-X importtime` for backlog_lab.cli."""
    interp, package, numpy = [], [], []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import backlog_lab.cli"],
            env=env, capture_output=True, check=True, timeout=60, text=True,
        )
        top = nested = 0
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            depth = len(name) - len(name.lstrip())
            if depth == 1 and name.strip() in ("backlog_lab", "backlog_lab.cli"):
                top += int(cumulative)
            if name.strip() == "numpy":
                nested += int(cumulative)
        package.append(top * 1e-6)
        numpy.append(nested * 1e-6)
    return {
        "cli.interpreter_s": statistics.median(interp),
        "cli.import_s": statistics.median(package),
        "cli.numpy_import_s": statistics.median(numpy),
    }


def _peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.ops_in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")


def _report(workload, loops, extra_lines=()):
    samples = [s for loop in loops for s in loop.samples]
    firsts = {op: out for loop in reversed(loops) for op, out in loop.firsts.items()}
    failed, unexpected, reasons = _verify(workload, samples, firsts)
    print(f"ops {len(samples)} failed {failed} failed_ratio {failed / len(samples)!r}")
    for line in extra_lines:
        print(line)
    for op, reason in reasons.items():
        print(f"FAIL {op}: {reason}")
    return len(samples), failed, unexpected


def run_untraced(args, workloads, workload, ops) -> int:
    q = workload.TAIL_PERCENTILE
    rounds = _rounds(workload, args.seconds, _min_rounds(workload, ops))
    started = time.perf_counter()
    loop = _loop(workload, ops, args.seed, rounds, workload.run, KERNELS[workload.kernel])
    took = time.perf_counter() - started
    wall, ref = loop.wall(), loop.reference()
    tail = _tail(ref, q)
    setup, setup_wall = _setup_time(args)
    attempted, failed, unexpected = _report(workload, [loop], [
        f"{rounds} rounds of {len(ops)} ops in {took:.1f} s",
        f"op_tail_s is p{q} of {len(ref)} ops",
        f"wall: throughput_ops_s {len(wall) / sum(wall)!r} op_p50_s {statistics.median(wall)!r}"
        f" op_tail_s {_tail(wall, q)!r} setup_s {setup_wall!r}",
    ])
    metrics = dict(zip(END_TO_END, (
        (len(ref) / sum(ref), "1/s"),
        (statistics.median(ref), "s"),
        (tail, "s"),
        (setup, "s"),
        (loop.peak_rss_mb, "MB"),
    )))
    if workload.ops_in_children:
        # Import split next to op latency, so a change in it can be traced
        # to the import graph rather than to subprocess start-up noise.
        _print_metrics({k: (v, "s") for k, v in _import_split(workloads.child_env()).items()})
    _print_metrics(metrics)
    return _result(unexpected == 0, attempted, failed, metrics)


def run_traced(args, workloads, workload, ops) -> int:
    rounds = _rounds(workload, args.seconds / 2.0)
    # The traced run executes every op in-process.
    plain = _loop(workload, ops, args.seed, rounds, workload.run_traced, PYTHON_KERNEL)
    lines = []
    if workload.name == "grid-sweep":
        calibration = Tracer()
        with calibration.installed():
            workloads.adjudicator.adjudicate(workloads.adjudicator.default_grid())
        totals = calibration.totals()
        lines.append(
            f"default_grid: oracles.series.calls {totals['oracles.series.calls']:.0f}"
            f" oracles.series.terms {totals['oracles.series.terms']:.0f}"
        )
    tracer = Tracer()
    with tracer.installed():
        traced = _loop(workload, ops, args.seed, rounds, workload.run_traced, PYTHON_KERNEL,
                       before_op=lambda i: setattr(tracer, "op_id", i))
    plain_ref, traced_ref = plain.reference(), traced.reference()
    ratio = (len(traced_ref) / sum(traced_ref)) / (len(plain_ref) / sum(plain_ref))
    lines.append(f"trace overhead: traced/untraced throughput {ratio!r} over {len(traced_ref)} traced ops")
    # The untraced outputs come first, so every traced output is compared to one.
    attempted, failed, unexpected = _report(workload, [plain, traced], lines)
    layers = tracer.layer_metrics(len(traced_ref))
    layers.update({k: (v, "s") for k, v in _import_split(workloads.child_env()).items()})
    layers["trace.throughput_ratio"] = (ratio, "ratio")
    tracer.write(HERE / "out" / f"spans-{workload.name}-seed{args.seed}.bin")
    _print_metrics(layers)
    return _result(unexpected == 0, attempted, failed, {k: layers[k] for k in RESULT_LAYERS})


def _result(correct, attempted, failed, metrics) -> int:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("grid-sweep", "cli-documented", "sampling", "large-x"):
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            _die(f"workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-sweep", "cli-documented", "sampling", "large-x", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        _die("--seconds must be positive")
    if args.workload == "all":
        _import_program()
        return run_all(args)

    workloads = _import_program()
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.make_round(args.seed)
    workload.run(ops[0])  # warm-up
    if args.trace:
        return run_traced(args, workloads, workload, ops)
    return run_untraced(args, workloads, workload, ops)


if __name__ == "__main__":
    sys.exit(main())
