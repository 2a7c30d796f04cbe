"""One workload in one fresh process: a closed loop of `seshadri.cli.main`
calls from a single caller thread, with every output captured in memory
and checked.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

prints one JSON object. bench/run.py starts it with `src` on PYTHONPATH.

The loop runs whole blocks of the workload's batch (see workloads.py) and
stops at the block boundary nearest to S seconds; an untraced run runs
three blocks at least (a witness block takes 8-14 seconds). With
--trace 1 every block runs twice, traced and untraced, in alternating
order, so the tracing overhead is measured on the same inputs and every
traced output is compared byte for byte with its untraced twin.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
GOLDENS = BENCH / "goldens"
# An untraced run has at least this many blocks, so that the tail (the call
# with ten slower ones above it) stays in the same tier on a slow host too:
# two witness blocks hold only 16 calls, and their tail fell to degree 8.
MIN_BLOCKS = 3


def call(main, argv: list[str]) -> tuple[float, int | None, str, str]:
    """(seconds, exit code, stdout, stderr) of one main(argv) call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed call, not the end of the run
            code = None
            traceback.print_exc()
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Checker:
    """Checks every call. The first output of each batch entry must agree
    with what the command reports about itself and, when goldens are given,
    with its golden; every later output of that entry must equal the first."""

    def __init__(self, calls: list[list[str]], goldens: list[str] | None = None):
        self.calls = calls
        self.goldens = goldens
        self.first: dict[int, str] = {}
        self.basis: dict[int, int] = {}
        self.bad: set[int] = set()
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, i: int, code: int | None, out: str, err: str) -> bool:
        digest = workloads.output_digest(code, out)
        if i in self.bad:
            reason = "first run failed"
        elif i in self.first:
            reason = None if digest == self.first[i] else "output differs from the first run"
        else:
            self.first[i] = digest
            reason = workloads.check_output(self.calls[i], code, out, err)
            if reason is None and self.goldens is not None and digest != self.goldens[i]:
                reason = f"differs from golden {self.goldens[i]!r}: got {digest!r}"
            if reason is None:
                self.basis[i] = workloads.basis_size(out)
            else:
                self.bad.add(i)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"call {i} {self.calls[i]}: {reason}")
        return reason is None


def load_goldens(name: str, calls: list[list[str]], path: Path | None = None) -> list[str]:
    path = path or GOLDENS / f"{name}.json"
    data = json.loads(path.read_text())
    if data["argv_sha256"] != workloads.argv_digest(calls):
        raise ValueError(f"{path} was made from other inputs; regenerate it with "
                         "`python3 bench/run.py goldens`")
    return data["calls"]


def make_goldens(name: str) -> dict:
    """Run the default-seed batch once and record each call's golden form."""
    from seshadri import cli

    calls = workloads.batch(name, workloads.DEFAULT_SEED)
    digests = []
    for i, argv in enumerate(calls):
        _, code, out, err = call(cli.main, argv)
        reason = workloads.check_output(argv, code, out, err)
        if reason is not None:
            raise RuntimeError(f"call {i} {argv}: {reason}")
        digests.append(workloads.output_digest(code, out))
    return {"workload": name, "seed": workloads.DEFAULT_SEED,
            "argv_sha256": workloads.argv_digest(calls), "calls": digests}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten calls beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run(name: str, seed: int, seconds: float, trace: bool,
        goldens: list[str] | None = None, spans_path: Path | None = None) -> dict:
    from seshadri import cli

    workload = workloads.WORKLOADS[name]
    calls = workloads.batch(name, seed)
    checker = Checker(calls, goldens)
    size = workload.block_size
    call(cli.main, calls[0])  # lets lazy set-up finish before timing

    tracer = Tracer() if trace else None
    latencies: list[float] = []
    untraced_s = traced_s = 0.0
    expected_recheck = 0

    def run_traced(block: range) -> float:
        nonlocal expected_recheck
        start = perf_counter()
        tracer.install()
        try:
            for i in block:
                tracer.call = i
                _, code, out, err = call(cli.main, calls[i])
                if checker.check(i, code, out, err):
                    expected_recheck += checker.basis.get(i, 0)
        finally:
            tracer.uninstall()
        return perf_counter() - start

    min_blocks = MIN_BLOCKS if seconds > 0 and not trace else 1
    blocks = 0
    start = perf_counter()
    while True:
        first = (blocks % workload.blocks) * size
        block = range(first, first + size)
        t0 = perf_counter()
        if tracer is not None and blocks % 2:
            traced_s += run_traced(block)
        t1 = perf_counter()
        for i in block:
            elapsed, code, out, err = call(cli.main, calls[i])
            latencies.append(elapsed)
            checker.check(i, code, out, err)
        untraced_s += perf_counter() - t1
        if tracer is not None and not blocks % 2:
            traced_s += run_traced(block)
        blocks += 1
        now = perf_counter()
        if now - start + (now - t0) / 2 >= seconds and blocks >= min_blocks:
            break
    attempted = len(latencies) * (2 if trace else 1)
    result = {"attempted": attempted, "failed": checker.failed, "reasons": checker.reasons,
              "blocks": blocks, "calls": len(latencies), "wall_s": untraced_s}
    if tracer is None:
        value, percentile = tail(latencies)
        correct = len(latencies) - checker.failed
        result["metrics"] = {
            "results_per_s": correct / untraced_s,
            "call_p50_ms": 1000 * statistics.median(latencies),
            "call_tail_ms": 1000 * value,
            "correct_frac": correct / len(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["tail_percentile"] = percentile
        result["failed_frac"] = checker.failed / len(latencies)
        return result
    layers = tracer.layers(blocks)
    layers["trace.overhead_ratio"] = traced_s / untraced_s
    recheck = tracer.count("intersection.local_intersection")
    if recheck != expected_recheck:
        result["failed"] += 1
        result["reasons"].append(f"local_intersection ran {recheck} times for "
                                 f"{expected_recheck} basis curves")
    result["metrics"] = layers
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.dump(), separators=(",", ":")))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, help="file for the traced run's spans")
    args = parser.parse_args(argv)
    calls = workloads.batch(args.workload, args.seed)
    goldens = load_goldens(args.workload, calls) if args.seed == workloads.DEFAULT_SEED else None
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), goldens, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
