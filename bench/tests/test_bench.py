"""Tests of the benchmark itself: smoke runs, golden checks, tracing.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_generated_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_and_fails_nothing(name):
    # --seconds 0 runs a single block: a few calls, checked against the goldens
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS[name].block_size
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric in expected:
        assert any(line.split()[:1] == [metric] for line in lines[:-1])
    details = json.loads(next(line for line in lines if line.startswith("details "))[8:])
    assert details["failed_frac"] == 0


def test_corrupted_golden_is_detected():
    name = "paper-claims"
    calls = workloads.batch(name, workloads.DEFAULT_SEED)
    goldens = worker.load_goldens(name, calls)
    assert worker.run(name, workloads.DEFAULT_SEED, 0, False, goldens)["failed"] == 0
    code, digest = goldens[3].split()
    corrupted = list(goldens)
    corrupted[3] = f"{code} {'0' * len(digest)}"
    result = worker.run(name, workloads.DEFAULT_SEED, 0, False, corrupted)
    assert result["failed"] >= 1
    assert "golden" in result["reasons"][0]
    assert result["metrics"]["correct_frac"] < 1


def test_goldens_from_other_inputs_are_refused(tmp_path):
    name = "paper-claims"
    data = json.loads((BENCH / "goldens" / f"{name}.json").read_text())
    data["argv_sha256"] = "0" * 64
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="other inputs"):
        worker.load_goldens(name, workloads.batch(name, workloads.DEFAULT_SEED), path)


def test_self_reports_are_checked():
    ok = "# command\tcluster\nmults\t1,0\ndeterminate\ttrue\nverified\ttrue"
    assert workloads.check_output(["cluster"], 0, ok, "") is None
    assert workloads.check_output(["cluster"], 3, ok, "") is not None
    assert workloads.check_output(["cluster"], 0, ok.replace("verified\ttrue", "verified\tfalse"),
                                  "") is not None
    witness = {"command": "witness", "results": {"exists": True, "kernel_dim": 2,
                                                 "basis": ["x - y"]}}
    assert "basis" in workloads.check_output(["witness"], 0, json.dumps(witness), "")


def test_generated_values_never_read_as_flags():
    for name in workloads.WORKLOADS:
        for argv in workloads.batch(name, 7)[:60]:
            assert all(arg.startswith("--") for arg in argv[1:] if arg != "n8")
            if argv[0] in ("cluster", "witness") and "n8" not in argv:
                assert any(arg.startswith("--precision=") for arg in argv)
    assert workloads.batch("witness-veronese", 3) == workloads.batch("witness-veronese", 3)
    assert workloads.batch("witness-veronese", 3) != workloads.batch("witness-veronese", 4)


def test_traced_outputs_match_untraced_and_wrappers_are_removed():
    from seshadri import cli, cluster, parsing, series

    argvs = workloads.batch("paper-claims", 5)[:20] + [
        ["cluster", "--curve=y^2 - x^3", "--branch=y - x^2 + x*y^2", "--n=4", "--precision=12"],
        ["witness", "--branch=y=x^2", "--degree=2", "--mult=1", "--target=3", "--precision=8"],
    ]
    untraced = [worker.call(cli.main, argv)[1:] for argv in argvs]
    originals = (cli.parse_branch, parsing.parse_branch, parsing.branch_from_implicit,
                 series.BiSeries.__dict__["substitute_y"])
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.parse_branch is not originals[0]
        assert parsing.parse_branch is cli.parse_branch
        assert parsing.branch_from_implicit is cluster.branch_from_implicit is not originals[2]
        traced = [worker.call(cli.main, argv)[1:] for argv in argvs]
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert (cli.parse_branch, parsing.parse_branch, parsing.branch_from_implicit,
            series.BiSeries.__dict__["substitute_y"]) == originals
    for owner, attr, original in tracer.patched:
        assert vars(owner)[attr] is original

    layers = tracer.layers(1)
    assert layers["cluster.branch_from_implicit.calls"] == 1
    assert layers["series.BiSeries.substitute_y.calls"] >= 11  # precision 12: 11 in the solver
    # every basis curve is re-checked once
    basis = sum(workloads.basis_size(out) for code, out, err in untraced)
    assert basis >= 1 and layers["intersection.local_intersection.calls"] == basis
    assert layers["cli.main.calls"] == len(argvs)
    spans = tracer.dump()
    names = spans["names"]
    parents = {names[s[0]]: names[spans["spans"][s[3]][0]] for s in spans["spans"] if s[3] >= 0}
    assert parents["cluster.branch_from_implicit"] == "parsing.parse_branch"
    assert parents["exact.RatMatrix.rref"] == "exact.RatMatrix.kernel"
    assert all(t >= -1e-9 for t in tracer.self_times())


def test_traced_run_reports_every_layer_metric():
    result = worker.run("paper-claims", 2, 0, True)
    assert result["failed"] == 0, result["reasons"]
    assert {m["name"] for m in SPEC["per_layer"]} <= set(result["metrics"])
    assert result["metrics"]["cli.main.self_s"] > 0


def test_compare_flags_a_regression(tmp_path, capsys):
    def record(workload, p50):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        metrics["call_p50_ms"]["value"] = p50
        return json.dumps({"workload": workload, "trace": 0, "metrics": metrics,
                           "environment": {"python": "CPython 3.11.7"}})

    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text("\n".join(record("paper-claims", v) for v in (1.0, 1.1, 0.9)) + "\n")
    new.write_text("\n".join(record("paper-claims", v) for v in (2.0, 2.1, 1.9)) + "\n")
    assert run.compare(str(base), str(base)) == 0
    assert run.compare(str(base), str(new)) == 1
    out = capsys.readouterr().out
    assert "call_p50_ms" in out and "2.000" in out and "worse by 100.0%" in out
