"""One training dtype: ``repro.tensor.DTYPE``.

* The source names float64 only at the few sites that keep a float64 scalar
  reduction on purpose, and the comm / core / codec / backend layers allocate
  no array of numpy's default dtype.
* Pool-ref offsets count pool elements, not 8-byte words.
* Codecs read and return ``DTYPE``; QSGD's batched and scalar paths agree
  bitwise and draw the same stream.
* The autograd kernels follow their inputs' dtype, and every trainable
  proxy trains in ``DTYPE`` end to end.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cluster import ClusterSpec, Transport
from repro.cluster.backends.base import ordered_fold
from repro.compression import QSGDCompressor
from repro.tensor import DTYPE, Tensor
from repro.tensor import functional as F
from repro.training.tasks import all_tasks

ROOT = Path(repro.__file__).parent

#: (file under src/repro, enclosing function) -> why float64 is named there
FLOAT64_ALLOWED = {
    ("compression/qsgd.py", "QSGDCompressor.compress"): "the codec norm",
    ("compression/qsgd.py", "QSGDCompressor.batch_roundtrip"): "the codec norm",
    ("tensor/functional.py", "mse_loss"): "the loss",
    ("tensor/functional.py", "nll_loss"): "the loss",
    ("cluster/backends/wire.py", "<module>"): "the wire codec's float64 dtype code",
}
FLOAT64_NAMES = {"float64", "double"}
FLOAT64_STRINGS = {"float64", "f8", "<f8", "double"}
#: layers whose arrays are the training data: no allocation may default to float64
TYPED_LAYERS = ("comm", "core", "compression", "cluster/backends")
ALLOCATORS = {"empty", "zeros", "ones"}


def _functions(tree: ast.AST):
    """Yield ``(qualname, node)`` for every node, qualname of its enclosing def."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                yield inner, child
                yield from walk(child, inner)
            else:
                yield scope, child
                yield from walk(child, scope)

    yield from walk(tree, "<module>")


def _names_float64(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in FLOAT64_NAMES
    if isinstance(node, ast.Name):
        return node.id == "float64"
    if isinstance(node, ast.Constant):
        return node.value in FLOAT64_STRINGS
    if isinstance(node, ast.keyword):  # dtype=float
        return node.arg == "dtype" and isinstance(node.value, ast.Name) and node.value.id == "float"
    if isinstance(node, ast.Call):  # .astype(float)
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and any(isinstance(a, ast.Name) and a.id == "float" for a in node.args)
        )
    return False


def _untyped_allocation(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ALLOCATORS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and len(node.args) < 2
        and not any(k.arg == "dtype" for k in node.keywords)
    )


def _sites(predicate, paths):
    found = {}
    for path in paths:
        rel = path.relative_to(ROOT).as_posix()
        for scope, node in _functions(ast.parse(path.read_text())):
            if predicate(node):
                found.setdefault((rel, scope), []).append(node.lineno)
    return found


class TestOneDtype:
    def test_float64_is_named_only_where_allowed(self):
        found = _sites(_names_float64, sorted(ROOT.rglob("*.py")))
        stray = {site: lines for site, lines in found.items() if site not in FLOAT64_ALLOWED}
        assert stray == {}, "float64 outside the allowlist; use repro.tensor.DTYPE"
        assert set(found) == set(FLOAT64_ALLOWED), "stale allowlist entries"

    def test_typed_layers_allocate_with_a_dtype(self):
        paths = sorted(p for layer in TYPED_LAYERS for p in (ROOT / layer).rglob("*.py"))
        assert _sites(_untyped_allocation, paths) == {}

    def test_the_dtype_is_fp32(self):
        assert DTYPE == np.dtype(np.float32)
        assert Tensor([1.0, 2.0]).dtype == DTYPE


def _spec(world: int) -> ClusterSpec:
    return ClusterSpec(num_nodes=1, workers_per_node=world)


@pytest.mark.parametrize("backend_name", ["local", "shm"])
def test_pool_ref_offsets_count_elements(backend_name):
    """A view at a nonzero offset resolves to its own elements, and the
    in-place reduce over such views is the ordered fold of the same rows."""
    world, offset, length = 3, 5, 7
    rng = np.random.default_rng(17)
    with Transport(_spec(world), backend=backend_name) as transport:
        backend = transport.backend
        pools = [backend.allocate_pool(rank, 16) for rank in range(world)]
        for pool in pools:
            pool[:] = rng.standard_normal(16)
        assert pools[0].dtype == DTYPE
        views = [pool[offset : offset + length] for pool in pools]
        refs = backend.resolve_pool_refs(views, list(range(world)))
        assert [(r.rank, r.offset, r.length) for r in refs] == [
            (rank, offset, length) for rank in range(world)
        ]
        before = [pool.copy() for pool in pools]
        rows = [view.copy() for view in views]
        chunks = [(0, 3, (0, 1, 2)), (3, 5, (1, 2, 0)), (5, 7, (2, 0, 1))]
        backend.pool_ref_reduce(refs, chunks, add_zero=True)
        for lo, hi, order in chunks:
            expected = ordered_fold(rows, lo, hi, order, True)
            assert expected.dtype == DTYPE
            for view in views:
                assert view[lo:hi].tobytes() == expected.tobytes()
        for pool, old in zip(pools, before):  # nothing outside the views moved
            assert pool[:offset].tobytes() == old[:offset].tobytes()
            assert pool[offset + length :].tobytes() == old[offset + length :].tobytes()


class TestCodecDtype:
    def test_qsgd_batched_equals_scalar_and_draws_the_same_stream(self):
        rows, n = 3, 40
        bounds = ((0, 13), (13, 27), (27, 40))
        matrix = np.random.default_rng(4).standard_normal((rows, n)).astype(DTYPE)
        batched = QSGDCompressor(bits=8, rng=np.random.default_rng(9))
        scalar = QSGDCompressor(bits=8, rng=np.random.default_rng(9))
        got = batched.batch_roundtrip(matrix, bounds)
        assert got.dtype == DTYPE
        expected = np.empty_like(matrix)
        for i in range(rows):
            for lo, hi in bounds:
                cell = scalar.decompress(scalar.compress(matrix[i, lo:hi]))
                assert cell.dtype == DTYPE
                expected[i, lo:hi] = cell
        assert got.tobytes() == expected.tobytes()
        reference = np.random.default_rng(9)
        for _ in range(rows):
            for lo, hi in bounds:  # exactly ceil(w / 4) raw words per cell
                reference.bit_generator.random_raw(-(-(hi - lo) // 4))
        assert batched.rng.bit_generator.state == reference.bit_generator.state
        assert scalar.rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
class TestKernelsFollowTheirInputs:
    @staticmethod
    def _tensor(rng, shape, dtype):
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    def test_linear(self, dtype):
        rng = np.random.default_rng(0)
        x, w, b = (self._tensor(rng, s, dtype) for s in ((4, 6), (3, 6), (3,)))
        out = F.linear(x, w, b)
        out.sum().backward()
        assert out.dtype == dtype and x.grad.dtype == dtype and w.grad.dtype == dtype

    def test_conv2d(self, dtype):
        rng = np.random.default_rng(1)
        x, w, b = (self._tensor(rng, s, dtype) for s in ((2, 3, 6, 6), (4, 3, 3, 3), (4,)))
        out = F.conv2d(x, w, b, padding=1)
        out.sum().backward()
        assert out.dtype == dtype and x.grad.dtype == dtype and w.grad.dtype == dtype

    def test_max_pool2d(self, dtype):
        x = self._tensor(np.random.default_rng(2), (2, 3, 4, 4), dtype)
        out = F.max_pool2d(x, 2)
        out.sum().backward()
        assert out.dtype == dtype and x.grad.dtype == dtype

    def test_batch_norm(self, dtype):
        rng = np.random.default_rng(3)
        x, w, b = (self._tensor(rng, s, dtype) for s in ((2, 3, 4, 4), (3,), (3,)))
        mean, var = np.zeros(3, dtype), np.ones(3, dtype)
        for training in (True, False):
            out = F.batch_norm2d(x, w, b, mean, var, training=training)
            assert out.dtype == dtype
        out.sum().backward()
        assert x.grad.dtype == dtype and mean.dtype == dtype


@pytest.mark.parametrize("task", all_tasks(), ids=lambda task: task.name)
def test_trainable_proxies_run_in_dtype(task, monkeypatch):
    """Every node of a training step's graph holds ``DTYPE`` data and is
    handed ``DTYPE`` gradients; only the loss itself is a float64 scalar."""
    handed = []
    accumulate = Tensor._accumulate

    def record(node, grad):
        handed.append((node, np.asarray(grad).dtype))
        accumulate(node, grad)

    monkeypatch.setattr(Tensor, "_accumulate", record)
    model = task.model_factory(np.random.default_rng(0))
    batch = next(iter(task.make_loaders(1)[0].epoch()))
    loss = task.loss_fn(model, batch)
    loss.backward()
    nodes, stack = [], list(loss._parents)
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node._parents)
    assert loss.dtype == np.float64
    assert nodes and {node.dtype for node in nodes} == {DTYPE}
    assert {dtype for node, dtype in handed if node is not loss} == {DTYPE}
    assert {p.grad.dtype for p in model.parameters()} == {DTYPE}
