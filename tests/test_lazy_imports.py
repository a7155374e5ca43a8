"""Subpackages, the tuner and the shm backend load on first use.

``import repro`` and a training job's imports compile only what they run;
every lazily exported name still resolves to the defining module's object.
Assertions are on module names only, never on wall time.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: what a functional-mode training job imports
TRAINING_IMPORTS = (
    "repro.training.trainer",
    "repro.training.tasks",
    "repro.algorithms",
    "repro.models",
    "repro.cluster.topology",
    "repro.core.optimizer_framework",
    "repro.tensor",
    "repro.simulation",
)
UNUSED_PACKAGES = ("repro.analysis", "repro.experiments", "repro.baselines")
UNUSED_MODULES = (
    "repro.core.autotune",
    "repro.cluster.backends.shm",
    "repro.cluster.backends.wire",
    "multiprocessing.shared_memory",
)


def _fresh_modules(*imports: str) -> set[str]:
    """``sys.modules`` of a new interpreter after importing ``imports``."""
    script = (
        "import importlib, json, sys\n"
        f"for name in {list(imports)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    return set(json.loads(proc.stdout))


def _unused(modules: set[str]) -> list[str]:
    return sorted(
        name for name in modules
        if name in UNUSED_MODULES or any(
            name == package or name.startswith(package + ".") for package in UNUSED_PACKAGES
        )
    )


def test_training_job_imports_stay_in_budget():
    assert _unused(_fresh_modules(*TRAINING_IMPORTS)) == []


def test_import_repro_loads_no_subpackage():
    loaded = _fresh_modules("repro")
    assert sorted(name for name in loaded if name.startswith("repro.")) == []


@pytest.mark.parametrize("name", [name for name in repro.__all__ if name != "__version__"])
def test_subpackage_attribute_is_the_module(name):
    assert getattr(repro, name) is importlib.import_module(f"repro.{name}")


def test_star_import_gives_every_subpackage():
    namespace: dict = {}
    exec("from repro import *", namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name)


def test_dir_lists_every_subpackage():
    assert set(repro.__all__) <= set(dir(repro))


def test_tuner_names_are_the_autotune_objects():
    import repro.core
    from repro.core import autotune

    for name in ("recommend", "TuningReport", "Recommendation", "classify_family"):
        assert getattr(repro.core, name) is getattr(autotune, name)
        assert name in repro.core.__all__


def test_shared_memory_backend_is_the_shm_class():
    import repro.cluster
    import repro.cluster.backends
    from repro.cluster.backends.shm import SharedMemoryBackend

    assert repro.cluster.SharedMemoryBackend is SharedMemoryBackend
    assert repro.cluster.backends.SharedMemoryBackend is SharedMemoryBackend
    from repro.cluster import SharedMemoryBackend as via_cluster

    assert via_cluster is SharedMemoryBackend


@pytest.mark.parametrize(
    "module", ["repro", "repro.core", "repro.cluster", "repro.cluster.backends"]
)
def test_unknown_attribute_raises_attribute_error(module):
    package = importlib.import_module(module)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name  # noqa: B018
    assert not hasattr(package, "no_such_name")
