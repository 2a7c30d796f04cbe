"""The benchmark goldens, replayed in-process: every default-seed call of
each workload in bench/workloads.py must print exactly what
bench/goldens/<workload>.json records. Reads bench/, writes nothing there."""

from __future__ import annotations

import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from seshadri import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look up the module of the classes they process
    sys.modules[spec.name] = module
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_batch_matches_its_golden(name):
    golden = json.loads((BENCH / "goldens" / f"{name}.json").read_text())
    calls = workloads.batch(name, workloads.DEFAULT_SEED)
    assert workloads.argv_digest(calls) == golden["argv_sha256"]
    assert len(calls) == len(golden["calls"])
    wrong = []
    for i, (argv, expected) in enumerate(zip(calls, golden["calls"])):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        reason = workloads.check_output(argv, code, out.getvalue(), err.getvalue())
        digest = workloads.output_digest(code, out.getvalue())
        if reason is not None or digest != expected:
            wrong.append((i, argv, reason, digest, expected))
    assert wrong == []
