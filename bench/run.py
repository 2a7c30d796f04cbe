"""Benchmark of the `seshadri` command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py compare BASE.jsonl NEW.jsonl
    python3 bench/run.py goldens

A measuring run starts one fresh process that feeds the workload's seeded
argument vectors to `seshadri.cli.main` in a closed loop from one caller
thread (bench/worker.py), and times fresh interpreters importing
`seshadri.cli` before and after it (setup_s, their median). It checks every
output, prints every metric by name with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
the per-layer ones, from spans recorded around the library's functions
(bench/tracer.py). Per-layer counts and times are per block of the workload.

--out appends the full record, with the environment it ran in, as one
JSON line. `compare` reads two such files and, for each workload and
end-to-end metric, prints both medians, their ratio and whether the change
exceeds the metric's bound. `goldens` rewrites bench/goldens/ from the
default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
PRECISION_ENV = "SESHADRI_PRECISION_DEFAULT"
SETUP_RUNS = 5  # fresh imports timed before the workload and again after it
DEADLINE_S = 160

IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import seshadri.cli\n"
    "print(time.perf_counter() - start)\n"
)


def child_env() -> dict[str, str]:
    """The program sees the checkout's sources and no precision default."""
    env = dict(os.environ)
    env.pop(PRECISION_ENV, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def import_seconds(runs: int, warm: bool = False) -> list[float]:
    """Import times of seshadri.cli in fresh interpreters; with warm, one
    more import first, which may compile bytecode and is not counted."""
    times = []
    for k in range(runs + warm):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        if k >= warm:
            times.append(float(proc.stdout))
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, calls: int) -> dict:
    return {"python": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": commit(),
            "source_sha256": source_digest(), "seed": seed, "calls": calls}


def _print_layers(metrics: dict) -> None:
    layers = sorted({name.rsplit(".", 1)[0] for name in metrics if name.endswith(".self_s")})
    total = sum(metrics[f"{layer}.self_s"] for layer in layers) or 1.0
    print(f"{'layer':44} {'calls':>10} {'self_s':>12} {'share':>7}   (per block)")
    for layer in sorted(layers, key=lambda la: -metrics[f"{la}.self_s"]):
        self_s = metrics[f"{layer}.self_s"]
        print(f"{layer:44} {metrics[f'{layer}.calls']:10.1f} {self_s:12.6f} {self_s / total:7.1%}")


def measure(args) -> int:
    started = time.monotonic()
    if not (ROOT / "src" / "seshadri" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} holds no seshadri sources or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    # setup_s is the median of imports on both sides of the workload, so that
    # one slow spell of a shared host does not decide it
    imports = [] if args.trace else import_seconds(SETUP_RUNS, warm=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        print("error: the workload process ran out of time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: the workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(imports + import_seconds(SETUP_RUNS))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    if args.trace:
        _print_layers(values)
    for name, metric in metrics.items():
        print(f"{name:52} {metric['value']:14.6g} {metric['unit']}")
    details = {key: result[key] for key in ("blocks", "calls", "wall_s", "tail_percentile",
                                            "failed_frac") if key in result}
    print("details", json.dumps(details))
    for reason in result["reasons"]:
        print("failure", reason)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": result["attempted"], "failed": result["failed"],
              "metrics": metrics, "details": details,
              "environment": environment(args.seed, result["attempted"])}
    print("environment", json.dumps(record["environment"]))
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def _medians(path: str) -> tuple[dict[tuple[str, str], float], set[str]]:
    values: dict[tuple[str, str], list[float]] = {}
    pythons = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"]:
                continue
            pythons.add(record["environment"]["python"])
            for name, metric in record["metrics"].items():
                values.setdefault((record["workload"], name), []).append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}, pythons


def compare(base_path: str, new_path: str) -> int:
    """Medians of two result files side by side; exit 1 on a regression."""
    spec = json.loads(SPEC.read_text())
    base, base_py = _medians(base_path)
    new, new_py = _medians(new_path)
    if base_py != new_py:
        print(f"warning: interpreters differ ({sorted(base_py)} vs {sorted(new_py)}); "
              "Fraction and gcd costs make such results incomparable")
    regressions = 0
    print(f"{'workload':18} {'metric':15} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for workload in sorted({w for w, _ in base} & {w for w, _ in new}):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            b, n = base[key], new[key]
            worse = (n - b) / b if metric["better"] == "lower" else (b - n) / b
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = f"worse by {worse:.1%} > bound {metric['bound']:.0%}"
                regressions += 1
            print(f"{workload:18} {metric['name']:15} {b:12.6g} {n:12.6g} {n / b:9.3f}  {verdict}")
    return 1 if regressions else 0


def write_goldens() -> int:
    os.environ.pop(PRECISION_ENV, None)
    sys.path.insert(0, str(ROOT / "src"))
    import worker

    for name in workloads.WORKLOADS:
        path = BENCH / "goldens" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(worker.make_goldens(name), indent=0) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv == ["goldens"]:
        return write_goldens()
    parser = argparse.ArgumentParser(description="Benchmark of the seshadri command line.")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    return measure(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
