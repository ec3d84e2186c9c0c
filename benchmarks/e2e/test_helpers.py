"""Tests of the end-to-end benchmark's own helpers.

Run with ``pytest benchmarks/e2e`` (``PYTHONPATH=src`` for the shared
``benchmarks/conftest.py``). Nothing here runs a workload.
"""

from __future__ import annotations

import os

import pytest

from measure import (
    REFERENCE_PROBE_SECONDS,
    HostSpeed,
    parse_prometheus,
    parse_vmhwm_mb,
    percentile,
    read_vmhwm_mb,
    relative_iqr,
    window_rates,
    within_bound,
    worsening,
)
from spans import SpanRecord, Tracer, covered_seconds, self_times


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert percentile(list(range(999)), 99) is None
        assert percentile(list(range(1000)), 99) == 989

    def test_p95_needs_two_hundred_samples(self):
        assert percentile([1.0] * 199, 95) is None
        assert percentile([1.0] * 200, 95) == 1.0

    def test_median_needs_twenty(self):
        assert percentile(list(range(19)), 50) is None
        assert percentile(list(range(1, 21)), 50) == 10

    def test_nearest_rank_on_unsorted_input(self):
        values = [float(v) for v in reversed(range(1, 1001))]
        assert percentile(values, 99) == 990.0

    @pytest.mark.parametrize("q", [0, 100, -1, 150])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError):
            percentile([1.0] * 5000, q)


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [
            SpanRecord(1, None, "root", 0.0, 10.0),
            SpanRecord(2, 1, "child", 1.0, 4.0),
            SpanRecord(3, 2, "leaf", 2.0, 3.0),
            SpanRecord(4, 1, "child", 5.0, 6.0),
        ]
        times = self_times(spans)
        assert times["root"] == pytest.approx(6.0)
        assert times["child"] == pytest.approx(3.0)  # (3 - 1) + 1
        assert times["leaf"] == pytest.approx(1.0)
        assert sum(times.values()) == pytest.approx(10.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [
            SpanRecord(1, None, "root", 0.0, 10.0),
            SpanRecord(2, 1, "a", 1.0, 5.0),
            SpanRecord(3, 1, "b", 3.0, 7.0),
        ]
        assert self_times(spans)["root"] == pytest.approx(4.0)

    def test_child_outliving_its_parent_is_clipped(self):
        spans = [SpanRecord(1, None, "root", 0.0, 2.0), SpanRecord(2, 1, "c", 1.0, 5.0)]
        assert self_times(spans)["root"] == pytest.approx(1.0)

    def test_covered_seconds_merges_intervals(self):
        assert covered_seconds([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
        assert covered_seconds([]) == 0.0

    def test_tracer_records_parent_links(self):
        class Layer:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        tracer = Tracer()
        Layer.outer = tracer.wrap("outer", Layer.outer)
        Layer.inner = tracer.wrap("inner", Layer.inner)
        with tracer.span("root"):
            assert Layer().outer() == 2
        by_name = {record.name: record for record in tracer.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id == by_name["root"].span_id
        assert by_name["root"].parent_id is None

    def test_install_keeps_static_methods_static(self):
        tracer = Tracer()
        tracer.install([("rebuild", "repro.core.cluseq", "CLUSEQ._rebuild_cluster_models")])
        try:
            from repro.core.cluseq import CLUSEQ

            assert isinstance(vars(CLUSEQ)["_rebuild_cluster_models"], staticmethod)
            CLUSEQ()._rebuild_cluster_models([], [], lambda seq: None)
        finally:
            tracer.uninstall()
        assert [record.name for record in tracer.spans] == ["rebuild"]
        assert not tracer.missing

    def test_missing_targets_are_reported(self):
        tracer = Tracer()
        tracer.install([("gone", "repro.core.cluseq", "CLUSEQ.no_such_method")])
        tracer.uninstall()
        assert tracer.missing == ["repro.core.cluseq.CLUSEQ.no_such_method"]


class TestBoundComparison:
    def test_lower_is_better(self):
        assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
        assert within_bound(100.0, 104.0, "lower", 0.05)
        assert not within_bound(100.0, 106.0, "lower", 0.05)

    def test_higher_is_better(self):
        assert worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
        assert within_bound(100.0, 96.0, "higher", 0.05)
        assert not within_bound(100.0, 94.0, "higher", 0.05)

    def test_improvement_is_negative_worsening(self):
        assert worsening(100.0, 80.0, "lower") < 0
        assert within_bound(100.0, 150.0, "higher", 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            worsening(0.0, 1.0, "lower")
        with pytest.raises(ValueError):
            worsening(1.0, 1.0, "sideways")

    def test_relative_iqr(self):
        assert relative_iqr([10.0] * 10) == 0.0
        assert relative_iqr([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


class TestVmHwm:
    STATUS = "Name:\tpython3\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n"

    def test_parses_kilobytes_to_megabytes(self):
        assert parse_vmhwm_mb(self.STATUS) == pytest.approx(200.0)

    def test_missing_line_raises(self):
        with pytest.raises(ValueError):
            parse_vmhwm_mb("Name:\tpython3\nVmRSS:\t 1024 kB\n")

    def test_unexpected_unit_raises(self):
        with pytest.raises(ValueError):
            parse_vmhwm_mb("VmHWM:\t 12 MB\n")

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    def test_reads_this_process(self):
        assert read_vmhwm_mb() > 1.0
        assert read_vmhwm_mb(os.getpid()) > 1.0


class TestHostSpeed:
    def speed(self, moments, durations):
        speed = HostSpeed()
        speed.moments = list(moments)
        speed.durations = list(durations)
        return speed

    def test_uses_the_probes_around_the_sample(self):
        ref = REFERENCE_PROBE_SECONDS
        speed = self.speed([1.0, 2.0, 3.0, 4.0], [ref, 2 * ref, 4 * ref, ref])
        # [2.1, 2.9] lies between the probes finished at 2.0 and 3.0.
        assert speed.factor(2.1, 2.9) == pytest.approx(1 / 3)
        assert speed.corrected(0.6, 2.1, 2.9) == pytest.approx(0.2)

    def test_long_samples_average_the_probes_inside(self):
        ref = REFERENCE_PROBE_SECONDS
        speed = self.speed([1.0, 2.0, 3.0, 4.0], [ref, 2 * ref, 4 * ref, ref])
        assert speed.factor(1.5, 3.5) == pytest.approx(0.5)  # mean 2 ref

    def test_edges_use_the_nearest_probe(self):
        ref = REFERENCE_PROBE_SECONDS
        speed = self.speed([1.0, 2.0], [2 * ref, ref])
        assert speed.factor(0.0, 0.5) == pytest.approx(0.5)
        assert speed.factor(5.0, 6.0) == pytest.approx(1.0)

    def test_reference_speed_leaves_timings_alone(self):
        speed = self.speed([1.0], [REFERENCE_PROBE_SECONDS])
        assert speed.corrected(0.25, 0.0, 2.0) == pytest.approx(0.25)

    def test_needs_a_probe(self):
        with pytest.raises(ValueError):
            HostSpeed().factor(0.0, 1.0)

    def test_probe_records_a_positive_duration(self):
        speed = HostSpeed()
        speed.probe()
        assert speed.durations[0] > 0 and len(speed.moments) == 1


def test_window_rates_count_full_windows_only():
    times = [0.1, 0.2, 0.9, 1.5, 2.2, 2.9, 3.1]
    assert window_rates(times, 0.0, 3.05, 1.0) == [3.0, 1.0, 2.0]
    assert window_rates(times, 0.0, 3.05, 2.0) == [2.0]
    assert window_rates([], 0.0, 0.5, 1.0) == []


def test_parse_prometheus_keeps_labels():
    text = (
        "# TYPE repro_serve_requests_total counter\n"
        'repro_serve_requests_total{endpoint="classify"} 12\n'
        "repro_backend_batch_calls_total 3\n"
    )
    values = parse_prometheus(text)
    assert values['repro_serve_requests_total{endpoint="classify"}'] == 12.0
    assert values["repro_backend_batch_calls_total"] == 3.0
