"""The option surface is what the docs say: two environment variables, one
backend class flag, no per-call path switch.  Keeps the next perf PR from
re-growing one."""

import inspect
import re
from pathlib import Path

import repro
import repro.comm
import repro.core.primitives
from repro.core.engine import Algorithm
from repro.cluster.backends import (
    BatchedBackend,
    LocalBackend,
    SharedMemoryBackend,
    TransportBackend,
)

SOURCES = sorted(Path(repro.__file__).parent.rglob("*.py"))


def test_environment_variables_are_backend_and_sanitizer():
    names = {name for path in SOURCES for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())}
    assert names == {"REPRO_BACKEND", "REPRO_PROTOCOL_SANITIZE"}


def test_source_never_writes_the_environment():
    write = re.compile(r"os\.environ\[[^\]]*\]\s*=[^=]|os\.environ\.(setdefault|update|pop)|putenv")
    assert [str(path) for path in SOURCES if write.search(path.read_text())] == []


def test_no_public_callable_takes_fast_path():
    public = [getattr(repro.comm, name) for name in repro.comm.__all__]
    public += [
        obj for name, obj in inspect.getmembers(repro.core.primitives, inspect.isfunction)
        if not name.startswith("_")
    ]
    offenders = [
        obj.__qualname__ for obj in public
        if inspect.isfunction(obj) and "fast_path" in inspect.signature(obj).parameters
    ]
    assert offenders == []


def test_the_only_backend_class_flag_is_prefers_fast_path():
    for backend in (TransportBackend, LocalBackend, BatchedBackend, SharedMemoryBackend):
        flags = {
            name for name, value in inspect.getmembers(backend)
            if isinstance(value, bool) and not name.startswith("_")
        }
        assert flags == {"prefers_fast_path"}, backend.__name__


def test_algorithm_declaration_fields_and_defaults():
    """What the analyzer, timing mode and the tuner read off an algorithm
    (docs/algorithms.md "Declaring an algorithm") — and the only statement
    of it: the per-name mirror tables stay deleted."""
    declared = {
        name: value for name, value in vars(Algorithm).items()
        if not name.startswith("_") and not callable(value)
    }
    assert declared == {
        "name": "base",
        "update_mode": "per_bucket",
        "staleness_bound": None,
        "compressor": None,
        "error_feedback": False,
        "topology": "",
        "frequency": 1,
        "warmup_steps": 0,
        "asynchronous": False,
        "replicas_identical": False,
    }
    # (spelled in halves so that grepping the repo for them finds nothing)
    mirrors = re.compile("COMM" "_MODELS|_BAGUA" "_ALGOS|class Comm" "Model")
    assert [str(path) for path in SOURCES if mirrors.search(path.read_text())] == []


def test_one_bucketing_ir():
    """The execution optimizer returns the BucketSchedule; the second plan IR,
    its translators and the second greedy bucketer stay deleted."""
    # (spelled in halves so that grepping the repo for them finds nothing)
    second_ir = re.compile(
        "Execution" "Plan|Planned" "Bucket|from" "_plan|lower" "_plan|layout_from" "_plan"
        "|partition_into" "_buckets|plan" "_fn|communication" "_units"
    )
    assert [str(path) for path in SOURCES if second_ir.search(path.read_text())] == []


def test_one_bucket_layout():
    """Every bucket is flat: ``flatten`` is the planner's bucket granularity,
    not a second, gather / scatter bucket representation."""
    from repro.core.bucket import TensorBucket

    assert "flatten" not in inspect.signature(TensorBucket).parameters
    # (spelled in halves, as above)
    assert [str(path) for path in SOURCES if ".flat" "tened" in path.read_text()] == []
