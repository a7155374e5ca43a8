"""The benchmark itself: smoke runs of every workload through the command
line, declared names, the oracle check, compare mode and the refusal to run
without the program's source."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
RUN = os.path.join(E2E, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and one traced smoke run of all five workloads."""
    out = tmp_path_factory.mktemp("e2e")
    docs = {}
    for trace in (0, 1):
        path = out / f"smoke-{trace}.json"
        done = run_cli("--smoke", "--seed", "1", "--trace", str(trace), "--out", str(path))
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        with open(path) as handle:
            docs[trace] = (json.load(handle), done.stdout, str(path))
    return docs


def test_printed_names_equal_the_declared_ones(smoke):
    import plan

    declared = manifest()
    # BENCHMARK.json declares the workloads the driver's time limit has room
    # for; the command runs every workload of the plan.
    workloads = set(plan.WORKLOADS)
    assert {w["name"] for w in declared["workloads"]} <= workloads
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        doc, stdout, _path = smoke[trace]
        assert set(doc["workloads"]) == workloads
        units = {m["name"]: m["unit"] for m in declared[key]}
        if not trace:
            # The sixth end-to-end metric reads 0 on every passing run, which
            # BENCHMARK.json's metrics may not; run.py declares it instead.
            units["failed_ops_share"] = "ratio"
        for name, record in doc["workloads"].items():
            got = {metric: value["unit"] for metric, value in record["metrics"].items()}
            assert got == units, name
            assert record["failed"] == 0
            assert trace or record["metrics"]["failed_ops_share"]["value"] == 0
            assert record["check_failures"] == []
            # Every metric is printed by name with its unit, and each
            # workload ends with the contract's one-line result object.
            for metric, unit in units.items():
                assert re.search(rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(unit)}$", stdout, re.M)
        results = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
        assert len(results) == len(workloads)
        for result in results:
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] == 12
            assert set(result["metrics"]) == {m["name"] for m in declared[key]}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in declared[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def test_layers_concentrate_where_the_workloads_were_built_to_stress(smoke):
    doc = smoke[1][0]["workloads"]
    value = lambda workload, metric: doc[workload]["metrics"][metric]["value"]  # noqa: E731
    for workload in doc:
        calls = value(workload, "compression.codec_calls")
        assert (calls > 0) == (workload == "train_comm_lp")
        assert (value(workload, "backends.rounds") > 0) == (workload == "train_shm_async")
    assert value("train_shm_async", "backends.leaked_segments") == 0
    assert value("sim_tables", "simulation.dryrun_rounds") == value("sim_tables", "transport.rounds")
    assert value("sim_tables", "tensor.backward_ms") == 0


def test_compare_accepts_a_run_against_itself_and_flags_a_regression(smoke, tmp_path):
    doc, _stdout, path = smoke[0]
    same = run_cli("--compare", path, path)
    assert same.returncode == 0
    assert " ok" in same.stdout and "worse" not in same.stdout
    slow = json.loads(json.dumps(doc))
    slow["workloads"]["sim_tables"]["metrics"]["op_ms_quiet"]["value"] *= 1.5
    slow_path = tmp_path / "slow.json"
    slow_path.write_text(json.dumps(slow))
    worse = run_cli("--compare", path, str(slow_path))
    assert worse.returncode == 1
    assert re.search(r"sim_tables\s+op_ms_quiet .* worse", worse.stdout)
    traced = smoke[1][2]
    exact = run_cli("--compare", traced, traced)
    assert exact.returncode == 0 and "same" in exact.stdout and "differs" not in exact.stdout


def test_compare_calls_two_equally_failed_runs_worse(smoke, tmp_path):
    doc, _stdout, _path = smoke[0]
    broken = json.loads(json.dumps(doc))
    record = broken["workloads"]["train_compute"]
    record["failed"] = record["attempted"]
    record["metrics"]["failed_ops_share"]["value"] = 1.0
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    done = run_cli("--compare", str(path), str(path))
    assert done.returncode == 1
    assert re.search(r"train_compute\s+failed_ops_share .* worse", done.stdout)
    # The failed run's timings cannot be judged; the other workloads still can.
    assert re.search(r"train_compute\s+op_ms_quiet .* unresolved", done.stdout)
    assert re.search(r"sim_tables\s+op_ms_quiet .* ok", done.stdout)


def test_a_subprocess_that_does_not_finish_fails_every_planned_op(monkeypatch, tmp_path):
    import run

    monkeypatch.setattr(run, "DEADLINE_S", 0.0)
    out = tmp_path / "late.json"
    assert run.main(["--smoke", "--workload", "train_comm_lp", "--out", str(out)]) == 1
    record = json.loads(out.read_text())["workloads"]["train_comm_lp"]
    assert record["failed"] == record["attempted"] == 12
    assert record["metrics"]["failed_ops_share"]["value"] == 1.0
    assert "deadline" in record["check_failures"][0]


def test_an_oracle_off_by_one_ulp_fails_every_op_of_the_run():
    import checks
    import workloads
    from plan import ORACLE_STEPS, SMOKE_OPS, WARMUP_STEPS, WORKLOADS

    job = WORKLOADS["train_gossip_fp"].job
    run = workloads.TrainRun(job, seed=5)
    try:
        for _ in range(1 + WARMUP_STEPS):
            run.step()
        loop = workloads.closed_loop(run, SMOKE_OPS, seconds=0.0)
    finally:
        run.trainer.transport.close()
    oracle = checks.oracle_steps(
        lambda: workloads.TrainRun(job, seed=5, backend="local"), ORACLE_STEPS
    )
    verify = lambda steps: checks.train_failures(  # noqa: E731
        run.steps, steps, timed_from=1 + WARMUP_STEPS, replicas_equal=True
    )
    assert verify(oracle) == []
    assert workloads.failed_ops(SMOKE_OPS, loop.outputs, []) == 0

    loss, virtual_time, nbytes = oracle[2]
    nudged = list(oracle)
    nudged[2] = (float(np.nextafter(loss, np.inf)), virtual_time, nbytes)
    failures = verify(nudged)
    assert len(failures) == 1 and "step 2" in failures[0]
    failed = workloads.failed_ops(SMOKE_OPS, loop.outputs, failures)
    assert failed / SMOKE_OPS == 1.0


def test_quiet_times_are_taken_per_kind_of_op():
    import workloads

    # Three kinds costing 1, 2 and 3; the loop's first sample is op 4, of kind 1.
    samples = [2.0, 3.0, 1.0, 2.5, 3.0, 1.0, 2.0, 30.0]
    per_kind = workloads.quiet(samples, kinds=3, first_op=4)
    assert per_kind.tolist() == pytest.approx([1.0, 2.0, 3.0], abs=0.06)
    assert workloads.quiet(samples[:2], kinds=3, first_op=4).tolist() == [2.0, 3.0]


def test_refuses_to_run_where_the_program_source_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        E2E,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sim_tables", "--seed", "0",
         "--seconds", "12", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
