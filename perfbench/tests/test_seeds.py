"""Seeds change the inputs, never the mix of work; every workload reports every metric."""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import spans
import workloads as wl

BENCH_DIR = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text("utf-8"))


def plan_for(name, seed, scale):
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-test-"))
    try:
        M = run.import_package()
        return wl.WORKLOADS[name](wl.Context(M, seed, scale, scratch, spans.Tracer()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def first_pass(name, seed):
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-test-"))
    try:
        M = run.import_package()
        plan = wl.WORKLOADS[name](wl.Context(M, seed, wl.TINY, scratch, spans.Tracer()))
        outputs = run.run_pass(plan.ops)[0]
        outcomes = run.check_pass(plan.ops, outputs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert [o.problem for o in outcomes if o.problem] == []
    return [(o.work, o.redundancy) for o in outcomes]


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_a_second_seed_keeps_the_mix_of_operations(name):
    base = [(op.kind, op.size) for op in plan_for(name, 0, wl.FULL).ops]
    assert len(base) >= 100
    assert [(op.kind, op.size) for op in plan_for(name, 7, wl.FULL).ops] == base


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_a_seed_fixes_the_inputs(name):
    once, again, other = first_pass(name, 3), first_pass(name, 3), first_pass(name, 4)
    assert once == again
    assert [r for _, r in once] != [r for _, r in other]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(name, trace):
    result = run.run_workload(name, seed=5, seconds=0, trace=trace, scale=wl.TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        self_times = sum(v for k, v in values.items()
                         if result["metrics"][k]["unit"] == "s" and k != "bench.measured_s")
        assert self_times == pytest.approx(values["bench.measured_s"])
        assert values["cli.deep_tree_failures"] in (0, 1)
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "optimal-mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
