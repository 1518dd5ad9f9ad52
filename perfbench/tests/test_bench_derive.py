"""Derived metrics of the pipeline benchmark: python3 -m pytest perfbench/tests"""

import statistics

import pytest

import derive


def span(sid, name, start, end, parent=None, **fields):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "fields": fields}


class TestSelfTime:
    def test_no_children_is_whole_duration(self):
        assert derive.self_time(span("a", "x", 1.0, 4.0), []) == pytest.approx(3.0)

    def test_sequential_children_subtract(self):
        parent = span("a", "x", 0.0, 10.0)
        kids = [span("b", "y", 1.0, 3.0), span("c", "y", 5.0, 6.0)]
        assert derive.self_time(parent, kids) == pytest.approx(7.0)

    def test_overlapping_children_count_once(self):
        # two concurrent trials on worker threads cover 2..8 together
        parent = span("a", "x", 0.0, 10.0)
        kids = [span("b", "y", 2.0, 7.0), span("c", "y", 3.0, 8.0)]
        assert derive.self_time(parent, kids) == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        parent = span("a", "x", 5.0, 10.0)
        kids = [span("b", "y", 4.0, 6.0), span("c", "y", 9.0, 12.0)]
        assert derive.self_time(parent, kids) == pytest.approx(3.0)

    def test_union_length_merges_touching_intervals(self):
        assert derive.union_length([(0, 1), (1, 2), (5, 6)]) == pytest.approx(3.0)
        assert derive.union_length([]) == 0.0


class TestRatios:
    def test_overlap_sequential_is_one(self):
        assert derive.overlap([2.0, 3.0], 5.0) == pytest.approx(1.0)

    def test_overlap_concurrent_exceeds_one(self):
        assert derive.overlap([4.0, 4.0], 4.5) == pytest.approx(8.0 / 4.5)

    def test_realtime_factor(self):
        assert derive.realtime_factor(120.0, 0.5) == pytest.approx(240.0)

    @pytest.mark.parametrize("wall", [0.0, -1.0])
    def test_nonpositive_wall_time_is_an_error(self, wall):
        with pytest.raises(ValueError):
            derive.realtime_factor(1.0, wall)
        with pytest.raises(ValueError):
            derive.overlap([1.0], wall)


class TestPercentiles:
    @pytest.mark.parametrize("n,expected", [
        (1, None), (10, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
        (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
    ])
    def test_tail_percentile_keeps_ten_samples_beyond(self, n, expected):
        assert derive.tail_percentile(n) == expected

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        assert derive.percentile(values, 90.0) == 90.0
        assert derive.percentile(values, 99.9) == 100.0
        assert derive.percentile([7.0], 50.0) == 7.0

    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert derive.quartiles(values) == (q1, q3)
        assert derive.quartiles([2.0]) == (2.0, 2.0)

    def test_median_of_nothing_is_an_error(self):
        with pytest.raises(ValueError):
            derive.median([])


class TestLayerMetrics:
    def cycle(self):
        return [
            span("t", "cli.train", 0.0, 10.0, cpu_s=10.0),
            span("m", "multistate.train_mdp", 0.5, 9.5, parent="t"),
            span("fc", "dbn.finetune_classifier", 1.0, 4.0, parent="m"),
            span("k1", "kernels.sgd_epoch", 1.5, 3.5, parent="fc", batches=10, gflop=0.5),
            span("fr", "dbn.finetune_regressor", 5.0, 9.0, parent="m"),
            span("k2", "kernels.sgd_epoch", 5.0, 8.0, parent="fr", batches=20, gflop=1.5),
            span("c", "cli.compare-frameworks", 20.0, 30.0, cpu_s=18.0),
            span("m1", "multistate.train_mdp", 20.5, 29.0, parent="c"),
            span("m2", "multistate.train_mdp", 20.5, 28.5, parent="c"),
            span("p", "cli.predict", 40.0, 42.0),
            span("l", "signal_pipeline.load_run_csv", 40.0, 41.0, parent="p", rows=100),
            span("b", "signal_pipeline.build_dataset", 41.0, 41.5, parent="p", frames=5),
        ]

    def test_counts_and_totals(self):
        m = derive.layer_metrics(self.cycle())
        assert m["kernels.sgd_epoch.calls"] == 2
        assert m["kernels.sgd.batches"] == 30
        assert m["kernels.sgd.gflop"] == pytest.approx(2.0)
        assert m["dbn.finetune.calls"] == 2
        assert m["signal_pipeline.load_run_csv.rows"] == 100

    def test_finetune_overhead_is_self_time(self):
        m = derive.layer_metrics(self.cycle())
        assert m["dbn.finetune.overhead_s"] == pytest.approx((3.0 - 2.0) + (4.0 - 3.0))

    def test_command_self_time_and_shares(self):
        m = derive.layer_metrics(self.cycle())
        assert m["cli.train.self_s"] == pytest.approx(1.0)
        assert m["cli.compare-frameworks.self_s"] == pytest.approx(10.0 - 8.5)
        assert m["train.finetune_share"] == pytest.approx(7.0 / 10.0)
        assert m["predict.ingest_share"] == pytest.approx(1.5 / 2.0)

    def test_trial_overlap_and_cpu_util(self):
        m = derive.layer_metrics(self.cycle())
        assert m["cli.trials.overlap"] == pytest.approx((8.5 + 8.0) / 10.0)
        assert m["cpu_util"] == pytest.approx(1.8)

    def test_coverage_guard_names_silent_spans(self):
        spans = self.cycle()
        assert derive.missing_spans(spans, ["cli.train", "kernels.sgd_epoch"]) == []
        assert derive.missing_spans(spans, ["adaptive_de.evolve", "cli.train"]) == [
            "adaptive_de.evolve"]
