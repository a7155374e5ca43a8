"""Profiler and execution optimizer: ready order, bucketing plans."""

import numpy as np
import pytest

from repro.core import (
    BaguaConfig,
    ExecutionOptimizer,
    GradientReadyProfiler,
    profile_from_spec,
)
from repro.models import LayerSpec
from repro.tensor import Linear, ReLU, Sequential, Tensor
from repro.tensor import functional as F


@pytest.fixture
def net(rng):
    return Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))


def run_backward(net, rng):
    x = Tensor(rng.standard_normal((3, 4)))
    F.cross_entropy(net(x), np.array([0, 1, 1])).backward()


class TestProfiler:
    def test_records_all_parameters(self, net, rng):
        profiler = GradientReadyProfiler(net)
        profiler.install()
        run_backward(net, rng)
        profiler.uninstall()
        assert len(profiler.profile.records) == 4
        assert profiler.profile.total_elements == net.num_parameters()

    def test_ready_order_is_reverse_of_depth(self, net, rng):
        profiler = GradientReadyProfiler(net)
        profiler.install()
        run_backward(net, rng)
        names = profiler.profile.ordered_names()
        # The output layer's parameters become ready before the input layer's.
        assert names.index("2.weight") < names.index("0.weight")

    def test_ready_ordered_params(self, net, rng):
        profiler = GradientReadyProfiler(net)
        profiler.install()
        run_backward(net, rng)
        ordered = profiler.ready_ordered_params()
        assert len(ordered) == 4
        assert set(id(p) for p in ordered) == set(id(p) for p in net.parameters())

    def test_ready_ordered_before_run_raises(self, net):
        with pytest.raises(RuntimeError):
            GradientReadyProfiler(net).ready_ordered_params()

    def test_double_install_raises(self, net):
        profiler = GradientReadyProfiler(net)
        profiler.install()
        with pytest.raises(RuntimeError):
            profiler.install()

    def test_uninstall_stops_recording(self, net, rng):
        profiler = GradientReadyProfiler(net)
        profiler.install()
        run_backward(net, rng)
        count = len(profiler.profile.records)
        profiler.uninstall()
        run_backward(net, rng)
        assert len(profiler.profile.records) == count


class TestProfileFromSpec:
    def test_reverse_order(self):
        layers = [
            LayerSpec("a", 10, fwd_flops=1.0),
            LayerSpec("b", 20, fwd_flops=2.0),
        ]
        profile = profile_from_spec(layers)
        assert profile.ordered_names() == ["b", "a"]
        assert profile.total_elements == 30

    def test_flops_carried(self):
        layers = [LayerSpec("a", 10, fwd_flops=5.0)]
        profile = profile_from_spec(layers)
        assert profile.records[0].fwd_flops == 5.0
        assert profile.records[0].bwd_flops == 10.0  # default 2x


class TestExecutionOptimizer:
    def _profile(self, sizes):
        return profile_from_spec(
            [LayerSpec(f"l{i}", s, fwd_flops=0.0) for i, s in enumerate(sizes)]
        )

    def test_fusion_respects_cap(self):
        profile = self._profile([100] * 10)
        schedule = ExecutionOptimizer(BaguaConfig(bucket_bytes=100 * 4 * 4)).plan(profile, True)
        assert [b.num_tensors for b in schedule.buckets] == [4, 4, 2]
        assert all(b.elements == 100 * b.num_tensors for b in schedule.buckets)
        assert schedule.total_elements == 1000

    def test_no_fusion_when_flatten_off(self):
        profile = self._profile([100] * 10)
        schedule = ExecutionOptimizer(BaguaConfig(flatten=False)).plan(profile, True)
        assert schedule.num_buckets == 10
        assert not schedule.flatten

    def test_ready_order_in_buckets(self):
        profile = self._profile([10, 20, 30])
        schedule = ExecutionOptimizer(BaguaConfig(bucket_bytes=1e9)).plan(profile, True)
        # Single bucket containing records in ready (reverse layer) order.
        assert schedule.num_buckets == 1
        assert schedule.buckets[0].views == (("l2", 30), ("l1", 20), ("l0", 10))
        assert schedule.buckets[0].ready_index == 2

    def test_communication_units_sorted_by_ready(self):
        profile = self._profile([1000, 1, 1])
        schedule = ExecutionOptimizer(BaguaConfig(bucket_bytes=16)).plan(profile, True)
        units = schedule.comm_order()
        assert [u.ready_index for u in units] == [1, 2]
        assert [u.index for u in units] == [0, 1]
        assert [u.name for u in units] == ["bucket0", "bucket1"]

    def test_empty_profile_rejected(self):
        from repro.core.profiler import ExecutionProfile

        with pytest.raises(ValueError):
            ExecutionOptimizer().plan(ExecutionProfile(), True)

    def test_schedule_carries_the_switches(self):
        profile = self._profile([10, 20, 30])
        config = BaguaConfig(overlap=False, flatten=True, hierarchical=True)
        schedule = ExecutionOptimizer(config).plan(profile, per_bucket_updates=False)
        assert (schedule.overlap_backward, schedule.flatten, schedule.hierarchical) == (
            False, True, True,
        )
        assert not schedule.per_bucket_updates
        assert ExecutionOptimizer(config).plan(profile, True).per_bucket_updates

    def test_config_describe(self):
        assert BaguaConfig(True, False, True).describe() == "O=1,F=0,H=1"
