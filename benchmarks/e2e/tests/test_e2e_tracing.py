"""The tracer: self-time arithmetic, by-name rebinding, clean removal."""

import time

import pytest

import layers
from tracing import Tracer, count_under, group_totals, self_times


def span(name, start, end, parent, op=0):
    return [name, float(start), float(end), parent, op]


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        span("a:outer", 0, 10, -1),
        span("b:first", 1, 4, 0),  # sibling 1
        span("b:second", 5, 9, 0),  # sibling 2 ...
        span("c:inner", 6, 8, 2),  # ... with a child of its own
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    # Self times partition the root span's duration.
    assert sum(self_times(spans)) == 10.0
    assert group_totals(spans) == {"a": (3.0, 1), "b": (5.0, 2), "c": (2.0, 1)}


def test_self_time_counts_a_reentrant_call_once():
    spans = [span("g:f", 0, 10, -1), span("g:f", 2, 7, 0), span("g:f", 3, 4, 1)]
    assert self_times(spans) == [5.0, 4.0, 1.0]
    assert group_totals(spans)["g"] == (10.0, 3)


def test_group_totals_skip_setup_spans_unless_asked():
    spans = [span("g:f", 0, 2, -1, op=-1), span("g:f", 3, 4, -1, op=0)]
    assert group_totals(spans) == {"g": (1.0, 1)}
    assert group_totals(spans, timed_only=False) == {"g": (3.0, 2)}


def test_count_under_follows_the_parent_chain():
    spans = [
        span("cost:miss", 0, 9, -1),
        span("comm:helper", 1, 8, 0),
        span("transport:round", 2, 3, 1),
        span("transport:round", 10, 11, -1),
    ]
    assert count_under(spans, "transport", "cost") == 1


def test_live_tracer_nests_recursive_calls_and_counts_only_inside_ops():
    tracer = Tracer()

    def fact(n):
        time.sleep(0.001)
        return 1 if n == 0 else n * traced(n - 1)

    traced = tracer.traced(fact, "g:fact", count=lambda t, args, result: t.count("calls"))
    assert traced(2) == 2  # outside an op: spans recorded, counters not
    assert tracer.counters.get("calls", 0) == 0
    with tracer.op(0):
        assert traced(3) == 6
    assert tracer.counters["calls"] == 4
    timed = [s for s in tracer.spans if s[4] == 0]
    assert [s[0] for s in timed] == ["op"] + ["g:fact"] * 4
    assert [s[3] for s in timed[1:]] == [tracer.spans.index(s) for s in timed[:-1]]
    seconds, calls = group_totals(tracer.spans)["g"]
    outer = timed[1][2] - timed[1][1]
    assert calls == 4 and seconds == pytest.approx(outer)


def test_wrap_function_rebinds_names_imported_elsewhere_and_restores_them():
    import repro.algorithms.allreduce as user
    import repro.core.primitives as definer

    original = definer.c_fp_s
    assert user.c_fp_s is original  # imported by name
    tracer = Tracer()
    assert tracer.wrap_function(original, "core.primitive:c_fp_s") >= 2
    assert user.c_fp_s is definer.c_fp_s is not original
    assert user.c_fp_s.__wrapped__ is original
    tracer.remove()
    assert user.c_fp_s is definer.c_fp_s is original


def test_install_then_remove_leaves_every_class_and_module_as_it_was():
    import repro.comm
    from repro.cluster.backends import BatchedBackend, LocalBackend
    from repro.cluster.transport import Transport
    from repro.tensor.tensor import Tensor

    watched = [
        (Tensor, "backward"),
        (Transport, "exchange_sized"),
        (repro.comm, "scatter_reduce_batched"),
        (repro.comm.HierarchicalComm, "__init__"),
    ]
    before = [getattr(owner, attr) for owner, attr in watched]
    tracer = Tracer()
    layers.install(tracer)
    assert all(getattr(o, a) is not b for (o, a), b in zip(watched, before))
    # A method the class only inherits is traced on the class and must be
    # deleted again, not replaced by a copy of the parent's.
    tracer.wrap_attr(BatchedBackend, "flush", "backends.flush:BatchedBackend.flush")
    assert "flush" in vars(BatchedBackend)
    tracer.remove()
    assert all(getattr(o, a) is b for (o, a), b in zip(watched, before))
    assert "flush" not in vars(BatchedBackend)
    assert BatchedBackend.flush is LocalBackend.flush
