"""Pipeline simulator: overlap semantics, ablation directions, stragglers."""

import pytest

from repro.cluster import ClusterSpec, paper_cluster
from repro.core import BaguaConfig
from repro.models import bert_large_spec, vgg16_spec
from repro.simulation import (
    CommCostModel,
    bagua_system,
    byteps_system,
    horovod_system,
    pytorch_ddp_system,
    simulate_epoch,
    simulate_iteration,
    vanilla_system,
)


@pytest.fixture(scope="module")
def cluster():
    return paper_cluster("25gbps")


@pytest.fixture(scope="module")
def cost(cluster):
    return CommCostModel(cluster)


@pytest.fixture(scope="module")
def vgg():
    return vgg16_spec()


class TestIterationBasics:
    def test_positive_components(self, cluster, cost, vgg):
        timing = simulate_iteration(vgg, cluster, bagua_system(cost, "allreduce"))
        assert timing.iteration_time > 0
        assert timing.compute_time > 0
        assert timing.comm_time_total > 0
        assert 0.0 <= timing.overlap_efficiency <= 1.0

    def test_iteration_at_least_compute(self, cluster, cost, vgg):
        timing = simulate_iteration(vgg, cluster, bagua_system(cost, "allreduce"))
        assert timing.iteration_time >= timing.compute_time * 0.999

    def test_steady_state_stable(self, cluster, cost, vgg):
        a = simulate_iteration(vgg, cluster, pytorch_ddp_system(cost))
        b = simulate_iteration(vgg, cluster, pytorch_ddp_system(cost))
        assert a.iteration_time == pytest.approx(b.iteration_time)


class TestOverlapSemantics:
    def test_overlap_beats_no_overlap(self, cluster, cost, vgg):
        fast = simulate_iteration(
            vgg, cluster, bagua_system(cost, "allreduce", BaguaConfig(overlap=True, hierarchical=True))
        )
        slow = simulate_iteration(
            vgg, cluster, bagua_system(cost, "allreduce", BaguaConfig(overlap=False, hierarchical=True))
        )
        assert fast.iteration_time < slow.iteration_time

    def test_vanilla_is_worst_allreduce(self, cluster, cost, vgg):
        vanilla = simulate_iteration(vgg, cluster, vanilla_system(cost))
        ddp = simulate_iteration(vgg, cluster, pytorch_ddp_system(cost))
        assert vanilla.iteration_time > ddp.iteration_time

    def test_fusion_helps_many_tensor_model(self, cluster, cost):
        bert = bert_large_spec()
        fused = simulate_iteration(
            bert, cluster, bagua_system(cost, "allreduce", BaguaConfig(flatten=True, hierarchical=True))
        )
        unfused = simulate_iteration(
            bert, cluster, bagua_system(cost, "allreduce", BaguaConfig(flatten=False, hierarchical=True))
        )
        assert unfused.iteration_time > 1.15 * fused.iteration_time

    def test_hierarchy_essential_for_scatter_reduce(self, cluster, cost, vgg):
        hier = simulate_iteration(
            vgg, cluster, bagua_system(cost, "allreduce", BaguaConfig(hierarchical=True))
        )
        flat = simulate_iteration(
            vgg, cluster, bagua_system(cost, "allreduce", BaguaConfig(hierarchical=False))
        )
        assert flat.iteration_time > 2 * hier.iteration_time


class TestNetworkScaling:
    def test_bandwidth_speeds_iterations(self, vgg):
        slow_cluster = paper_cluster("10gbps")
        fast_cluster = paper_cluster("100gbps")
        slow = simulate_iteration(
            vgg, slow_cluster, pytorch_ddp_system(CommCostModel(slow_cluster))
        )
        fast = simulate_iteration(
            vgg, fast_cluster, pytorch_ddp_system(CommCostModel(fast_cluster))
        )
        assert fast.iteration_time < slow.iteration_time

    def test_compression_gap_grows_when_slow(self, vgg):
        def gap(network):
            cluster = paper_cluster(network)
            cost = CommCostModel(cluster)
            fp = simulate_epoch(vgg, cluster, bagua_system(cost, "allreduce")).epoch_time
            q = simulate_epoch(vgg, cluster, bagua_system(cost, "qsgd")).epoch_time
            return fp / q

        assert gap("10gbps") > gap("100gbps")


class TestStragglers:
    def test_sync_scales_with_slowest(self, vgg):
        base = ClusterSpec(num_nodes=2, workers_per_node=4)
        degraded = ClusterSpec(
            num_nodes=2, workers_per_node=4, straggler_slowdown={3: 2.0}
        )
        fast = simulate_iteration(vgg, base, bagua_system(CommCostModel(base), "allreduce"))
        slow = simulate_iteration(
            vgg, degraded, bagua_system(CommCostModel(degraded), "allreduce")
        )
        assert slow.compute_time > 1.8 * fast.compute_time

    def test_async_epoch_tolerates_straggler(self, vgg):
        base = paper_cluster("25gbps")
        degraded = paper_cluster("25gbps", straggler_slowdown={0: 2.2})
        uniform = simulate_epoch(vgg, base, bagua_system(CommCostModel(base), "async"))
        straggled = simulate_epoch(
            vgg, degraded, bagua_system(CommCostModel(degraded), "async")
        )
        assert straggled.epoch_time < 1.1 * uniform.epoch_time


class TestSystemProfiles:
    def test_plans_differ_by_bucket_policy(self, cost, vgg):
        from repro.core.optimizer_framework import ExecutionOptimizer
        from repro.core.profiler import profile_from_spec

        profile = profile_from_spec(vgg.layers)
        ddp_plan, horovod_plan, byteps_plan = (
            ExecutionOptimizer(system.config).plan(profile, per_bucket_updates=True)
            for system in (
                pytorch_ddp_system(cost), horovod_system(cost), byteps_system(cost)
            )
        )
        # 4 MB chunks (BytePS) -> more buckets than 25 MB (DDP) -> more than 64 MB.
        assert byteps_plan.num_buckets > ddp_plan.num_buckets > horovod_plan.num_buckets

    def test_unknown_bagua_algorithm(self, cost):
        with pytest.raises(KeyError):
            bagua_system(cost, "sgd-prime")

    def test_only_the_evaluated_algorithms_price(self, cost):
        """Timing mode models neither ``frequency`` nor ``warmup_steps``, so a
        registered algorithm outside the paper's six is refused like an
        unknown name, and every one of the six prices a bucket."""
        from repro.algorithms.registry import ALGORITHM_REGISTRY, EVALUATED_ALGORITHMS
        from repro.core.schedule import ScheduledBucket

        assert "local-sgd" in ALGORITHM_REGISTRY
        with pytest.raises(KeyError, match="unknown BAGUA algorithm 'local-sgd'"):
            bagua_system(cost, "local-sgd")
        bucket = ScheduledBucket(index=0, name="bucket0", elements=1 << 20, ready_index=0)
        assert len(EVALUATED_ALGORITHMS) == 6
        for name in EVALUATED_ALGORITHMS:
            system = bagua_system(cost, name)
            assert system.comm_time(bucket) > 0.0, name
            assert (system.comm_kernel_time(bucket) > 0.0) == (
                ALGORITHM_REGISTRY[name]().compressor is not None
            ), name

    def test_fp16_horovod_cheaper_comm(self, cost, vgg):
        fp32 = simulate_iteration(vgg, cost.spec, horovod_system(cost))
        fp16 = simulate_iteration(vgg, cost.spec, horovod_system(cost, fp16=True))
        assert fp16.comm_time_total < fp32.comm_time_total
