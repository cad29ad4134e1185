"""The hot paths actually report — and stay silent when disabled."""

import numpy as np
import pytest

from repro import telemetry
from repro.core.condensation import create_condensed_groups
from repro.core.dynamic import DynamicGroupMaintainer
from repro.core.generation import generate_anonymized_data
from repro.neighbors.brute import BruteForceIndex
from repro.neighbors.kdtree import KDTreeIndex
from repro.neighbors.lsh import LSHIndex
from repro.serve import ShardedCondensationService
from repro.telemetry import NULL_PIPELINE, NULL_SPAN


def make_data(n, d=4, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestCondensationMetrics:
    def test_counters_and_group_size_histogram(self):
        pipeline = telemetry.configure()
        data = make_data(100)
        model = create_condensed_groups(data, 10, random_state=0)
        registry = pipeline.registry
        assert registry.counter("condense.records").value() == (
            pytest.approx(100.0)
        )
        assert registry.counter("condense.groups").value() == (
            model.n_groups
        )
        assert registry.histogram("condense.group_size").count() == (
            model.n_groups
        )
        names = [event["name"] for event in pipeline.finished_spans()]
        assert "condense.create_groups" in names
        assert "condense.absorb_loop" in names

    def test_absorb_loop_nests_under_create_groups(self):
        pipeline = telemetry.configure()
        create_condensed_groups(make_data(60), 10, random_state=0)
        events = {
            event["name"]: event for event in pipeline.finished_spans()
        }
        parent = events["condense.create_groups"]
        child = events["condense.absorb_loop"]
        assert child["parent_id"] == parent["span_id"]

    def test_seeded_runs_have_identical_size_histograms(self):
        # The deterministic-bucket claim: two identically seeded runs
        # report bit-identical size distributions.  (Latency histograms
        # are excluded — wall time is not seeded.)
        snapshots = []
        for _ in range(2):
            pipeline = telemetry.configure()
            create_condensed_groups(make_data(150), 10, random_state=7)
            telemetry.disable()
            snapshot = pipeline.registry.snapshot()
            snapshots.append({
                name: snapshot[name]
                for name in ("condense.group_size", "condense.groups",
                             "condense.records")
            })
        assert snapshots[0] == snapshots[1]


class TestDynamicMetrics:
    def test_ingest_span_wraps_split_spans(self):
        pipeline = telemetry.configure()
        maintainer = DynamicGroupMaintainer(
            5, initial_data=make_data(20, seed=1), random_state=0
        )
        maintainer.add_stream(make_data(80, seed=2))
        events = pipeline.finished_spans()
        ingests = [e for e in events if e["name"] == "dynamic.ingest"]
        splits = [e for e in events if e["name"] == "dynamic.split"]
        assert len(ingests) == 1
        assert splits, "80 records over k=5 groups must split"
        assert all(
            split["parent_id"] == ingests[0]["span_id"]
            for split in splits
        )
        registry = pipeline.registry
        assert registry.counter("dynamic.absorbed").value() == (
            pytest.approx(100.0)
        )
        assert registry.counter("dynamic.splits").value() == len(splits)
        assert registry.gauge("dynamic.groups").value() == (
            maintainer.n_groups
        )

    def test_removal_and_merge_counters(self):
        pipeline = telemetry.configure()
        base = make_data(40, seed=3)
        maintainer = DynamicGroupMaintainer(
            10, initial_data=base, random_state=0
        )
        for record in base[:15]:
            maintainer.remove(record)
        registry = pipeline.registry
        assert registry.counter("dynamic.removed").value() == (
            pytest.approx(15.0)
        )
        assert registry.counter("dynamic.merges").value() == (
            maintainer.n_merges
        )

    def test_snapshot_reports_group_sizes(self):
        pipeline = telemetry.configure()
        maintainer = DynamicGroupMaintainer(
            5, initial_data=make_data(30, seed=4), random_state=0
        )
        model = maintainer.to_model()
        histogram = pipeline.registry.histogram("dynamic.group_size")
        assert histogram.count() == model.n_groups

    def test_service_reads_take_no_snapshot(self):
        pipeline = telemetry.configure()
        service = ShardedCondensationService(
            n_shards=2, k=5, bootstrap_size=20, random_state=0
        )
        service.ingest(make_data(200))
        service.model()
        service.generate(10)
        histogram = pipeline.registry.histogram("dynamic.group_size")
        assert histogram.count() == 0


class TestGenerationMetrics:
    def test_latency_histograms_and_record_counter(self):
        pipeline = telemetry.configure()
        model = create_condensed_groups(make_data(600), 2, random_state=0)
        generate_anonymized_data(model, random_state=0)
        registry = pipeline.registry
        assert registry.counter("generation.records").value() == (
            pytest.approx(600.0)
        )
        # One eigendecomposition and one draw per block of 256 groups:
        # 300 groups make two blocks; group sizes stay one per group.
        assert model.n_groups == 300
        assert registry.histogram("generation.eigen_seconds").count() == 2
        assert registry.histogram("generation.draw_seconds").count() == 2
        assert registry.histogram("generation.group_size").count() == (
            model.n_groups
        )


class TestNeighborMetrics:
    def test_each_index_reports_queries_and_candidates(self):
        pipeline = telemetry.configure()
        points = make_data(64, seed=5)
        queries = make_data(8, seed=6)
        BruteForceIndex(points).query(queries, k=3)
        KDTreeIndex(points, leaf_size=8).query(queries, k=3)
        LSHIndex(points, random_state=0).query(queries, k=3)
        registry = pipeline.registry
        for algorithm in ("brute", "kdtree", "lsh"):
            assert registry.counter(
                f"neighbors.{algorithm}.queries"
            ).value() == pytest.approx(8.0), algorithm
            assert registry.histogram(
                f"neighbors.{algorithm}.candidates"
            ).count() == 8, algorithm

    def test_kdtree_candidates_bounded_by_index_size(self):
        pipeline = telemetry.configure()
        points = make_data(64, seed=5)
        KDTreeIndex(points, leaf_size=8).query(make_data(4, seed=7), k=2)
        histogram = pipeline.registry.histogram(
            "neighbors.kdtree.candidates"
        )
        counts = histogram.bucket_counts()
        # No query can scan more leaf points than the index holds, so
        # every observation is <= 64 (inside the le=100 bucket).
        bounds = histogram.buckets
        beyond = sum(
            count for bound, count in zip(bounds, counts)
            if bound > 100.0
        ) + counts[-1]
        assert beyond == 0


class TestDisabledPath:
    def test_hot_paths_run_on_the_null_pipeline(self):
        assert telemetry.get_pipeline() is NULL_PIPELINE
        model = create_condensed_groups(make_data(60), 10, random_state=0)
        generate_anonymized_data(model, random_state=0)
        maintainer = DynamicGroupMaintainer(
            5, initial_data=make_data(20, seed=1), random_state=0
        )
        maintainer.add_stream(make_data(20, seed=2))
        # Nothing was recorded anywhere: the null pipeline has no
        # registry and no events, and spans were the shared singleton.
        assert telemetry.get_pipeline() is NULL_PIPELINE
        assert NULL_PIPELINE.finished_spans() == []
        assert telemetry.span("probe") is NULL_SPAN

    def test_results_identical_enabled_vs_disabled(self):
        data = make_data(80, seed=8)
        disabled = create_condensed_groups(data, 10, random_state=3)
        telemetry.configure()
        enabled = create_condensed_groups(data, 10, random_state=3)
        telemetry.disable()
        assert disabled.n_groups == enabled.n_groups
        for mine, theirs in zip(disabled.groups, enabled.groups):
            np.testing.assert_allclose(mine.first_order,
                                       theirs.first_order)
            np.testing.assert_allclose(mine.second_order,
                                       theirs.second_order)
            assert mine.count == theirs.count
