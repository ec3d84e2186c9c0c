"""Unit tests for the observability layer (``repro.obs``)."""

import io
import json
import math
import logging
import sys
import threading

import pytest

from repro.obs import (
    LOGGER_NAME,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    JsonLinesFormatter,
    MetricsRegistry,
    NullRegistry,
    Timer,
    configure_logging,
    get_logger,
    get_registry,
    reset_logging,
    set_registry,
    span,
    telemetry_document,
    use_registry,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts from the disabled default state."""
    set_registry(None)
    reset_logging()
    yield
    set_registry(None)
    reset_logging()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_to_dict(self):
        c = Counter()
        c.inc(3)
        assert c.to_dict() == {"type": "counter", "value": 3}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10.0)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0


class TestHistogram:
    def test_bucketing_on_upper_bounds(self):
        h = Histogram(buckets=[1.0, 10.0, 100.0])
        for v in (0.5, 1.0, 5.0, 10.0, 99.0, 1000.0):
            h.observe(v)
        # bisect_left on upper bounds: a value equal to a bound lands
        # in that bound's bucket (le_1 gets both 0.5 and 1.0).
        assert h.bucket_counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.min == 0.5
        assert h.max == 1000.0
        assert h.total == pytest.approx(1115.5)
        assert h.mean == pytest.approx(1115.5 / 6)

    def test_to_dict_bucket_names(self):
        h = Histogram(buckets=[2.0, 4.0])
        h.observe(3.0)
        d = h.to_dict()
        assert d["buckets"] == {"le_2": 0, "le_4": 1, "inf": 0}
        assert d["count"] == 1

    def test_empty_histogram_has_null_extrema(self):
        d = Histogram(buckets=[1.0]).to_dict()
        assert d["min"] is None and d["max"] is None

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=[3.0, 1.0])
        with pytest.raises(ValueError):
            Histogram(buckets=[1.0, 1.0])

    def test_empty_buckets_rejected_none_keeps_defaults(self):
        for empty in ((), []):
            with pytest.raises(ValueError, match="at least one bucket"):
                Histogram(buckets=empty)
        assert Histogram(buckets=None).bounds == Histogram().bounds
        assert len(Histogram().bounds) == 17

    def test_merge_binned_equals_observe_loop(self):
        # The batched scorer's fast path: np.searchsorted(side="left")
        # is the vectorized twin of observe()'s bisect_left rule, so a
        # merged batch must leave the histogram in exactly the state an
        # observe() loop would.
        import numpy as np

        bounds = [1.0, 10.0, 100.0]
        values = [0.5, 1.0, 5.0, 10.0, 99.0, 1000.0, 1.0, 42.0]
        looped = Histogram(buckets=bounds)
        for v in values:
            looped.observe(v)
        merged = Histogram(buckets=bounds)
        bins = np.searchsorted(np.asarray(bounds), values, side="left")
        counts = np.bincount(bins, minlength=len(bounds) + 1)
        merged.merge_binned(
            counts.tolist(), len(values), float(sum(values)),
            min(values), max(values),
        )
        assert merged.bucket_counts == looped.bucket_counts
        assert merged.count == looped.count
        assert merged.total == pytest.approx(looped.total)
        assert merged.min == looped.min
        assert merged.max == looped.max
        # A second merge folds in, it does not overwrite.
        merged.merge_binned([1, 0, 0, 0], 1, 0.25, 0.25, 0.25)
        assert merged.count == looped.count + 1
        assert merged.min == 0.25

    def test_merge_binned_empty_batch_is_noop(self):
        h = Histogram(buckets=[1.0])
        h.merge_binned([0, 0], 0, 0.0, math.inf, -math.inf)
        assert h.count == 0
        assert h.to_dict()["min"] is None

    def test_merge_binned_length_mismatch_rejected(self):
        h = Histogram(buckets=[1.0, 2.0])
        with pytest.raises(ValueError):
            h.merge_binned([1, 2], 3, 1.0, 0.1, 0.9)


class TestTimer:
    def test_accumulates_wall_and_cpu(self):
        t = Timer()
        t.record(0.5, 0.25)
        t.record(1.5, 0.75)
        assert t.count == 2
        assert t.total_seconds == pytest.approx(2.0)
        assert t.total_cpu_seconds == pytest.approx(1.0)
        assert t.min == pytest.approx(0.5)
        assert t.max == pytest.approx(1.5)
        assert t.mean_seconds == pytest.approx(1.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Timer().record(-0.1)


class TestMetricsRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        registry.counter("x").inc()
        registry.counter("x").inc()
        assert registry.get("x").value == 2

    def test_labels_create_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("runs", model="hmm").inc()
        registry.counter("runs", model="ed").inc(2)
        assert registry.get("runs", model="hmm").value == 1
        assert registry.get("runs", model="ed").value == 2
        assert "runs{model=ed}" in registry.names()
        assert "runs{model=hmm}" in registry.names()

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("c", a="1", b="2").inc()
        assert registry.counter("c", b="2", a="1").value == 1

    def test_type_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(1.5)
        registry.histogram("c", buckets=[1.0]).observe(0.5)
        registry.timer("d").record(0.1, 0.05)
        registry.gauge("inf", kind="weird").set(float("inf"))
        doc = json.loads(json.dumps(telemetry_document(registry)))["metrics"]
        assert doc["a"] == {"type": "counter", "value": 1}
        assert doc["inf{kind=weird}"]["labels"] == {"kind": "weird"}
        # non-finite floats serialize as null rather than crashing
        assert doc["inf{kind=weird}"]["value"] is None

    def test_contains(self):
        registry = MetricsRegistry()
        registry.counter("hit", side="l")
        assert "hit" in registry
        assert "miss" not in registry

    def test_thread_safe_creation(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(4)

        def work():
            barrier.wait()
            for _ in range(250):
                registry.counter("shared").inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.get("shared").value == 1000


class TestNullRegistry:
    def test_disabled_and_shared_noops(self):
        null = NullRegistry()
        assert null.enabled is False
        assert null.counter("a") is null.counter("b")
        null.counter("a").inc()
        null.gauge("g").set(3)
        null.histogram("h").observe(1)
        null.timer("t").record(1.0)
        assert len(null) == 0
        assert null.snapshot() == {}

    def test_default_active_registry_is_null(self):
        assert get_registry() is NULL_REGISTRY
        assert get_registry().enabled is False


class TestUseRegistry:
    def test_activates_and_restores(self):
        registry = MetricsRegistry()
        with use_registry(registry) as active:
            assert active is registry
            assert get_registry() is registry
            get_registry().counter("inside").inc()
        assert get_registry() is NULL_REGISTRY
        assert registry.get("inside").value == 1

    def test_restores_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_registry(registry):
                raise RuntimeError("boom")
        assert get_registry() is NULL_REGISTRY

    def test_none_means_disabled(self):
        outer = MetricsRegistry()
        with use_registry(outer):
            with use_registry(None):
                assert get_registry().enabled is False
            assert get_registry() is outer

    def test_set_registry_returns_previous(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        assert previous is NULL_REGISTRY
        assert set_registry(None) is registry


class TestSpan:
    def test_measures_time_and_nests(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            with span("outer") as outer:
                assert outer.path == "outer" and outer.depth == 0
                with span("inner") as inner:
                    assert inner.path == "outer.inner"
                    assert inner.depth == 1
        assert outer.finished and inner.finished
        assert outer.wall_seconds >= 0.0
        assert inner.cpu_seconds >= 0.0
        # the parent's wall time covers the child's
        assert outer.wall_seconds >= inner.wall_seconds
        assert registry.get("span.outer.inner").count == 1

    def test_records_timer_metrics(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            for _ in range(3):
                with span("phase"):
                    pass
        timer = registry.get("span.phase")
        assert timer.count == 3
        assert timer.total_seconds >= 0.0

    def test_disabled_registry_records_nothing(self):
        with span("quiet"):
            pass
        assert len(NULL_REGISTRY) == 0

    def test_stack_unwinds_on_exception(self):
        with pytest.raises(ValueError):
            with span("a"):
                with span("b"):
                    raise ValueError("boom")
        # Both spans were popped: the next one is a root again.
        with span("c") as after:
            assert after.path == "c" and after.depth == 0

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            span("")

    def test_repr(self):
        with span("r") as s:
            assert "running" in repr(s)
        assert "r" in repr(s)


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == LOGGER_NAME
        assert get_logger("core.cluseq").name == "repro.core.cluseq"
        assert get_logger("repro.core.pst").name == "repro.core.pst"

    def test_package_logger_has_null_handler(self):
        handlers = logging.getLogger(LOGGER_NAME).handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_noop_mode_allocates_no_log_records(self, monkeypatch):
        """With no handler configured, instrumented code must not even
        build a LogRecord — the level gate has to reject first."""
        made = []
        original = logging.Logger.makeRecord

        def counting(self, *args, **kwargs):
            made.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(logging.Logger, "makeRecord", counting)
        logger = get_logger("core.cluseq")
        if logger.isEnabledFor(logging.INFO):  # the gate used in hot paths
            logger.info("should not happen")
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("should not happen")
        assert made == []

    def test_configure_logging_emits_human_lines(self):
        stream = io.StringIO()
        configure_logging(level="INFO", stream=stream)
        get_logger("core.test").info("hello %s", "world")
        text = stream.getvalue()
        assert "hello world" in text
        assert "repro.core.test" in text

    def test_configure_logging_json_lines(self):
        stream = io.StringIO()
        configure_logging(level="DEBUG", json_lines=True, stream=stream)
        get_logger("core.test").info(
            "iteration done", extra={"iteration": 3, "clusters": 7}
        )
        line = stream.getvalue().strip()
        record = json.loads(line)
        assert record["message"] == "iteration done"
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.core.test"
        assert record["iteration"] == 3
        assert record["clusters"] == 7
        assert isinstance(record["ts"], float)

    def test_reconfigure_replaces_handler(self):
        first = io.StringIO()
        second = io.StringIO()
        configure_logging(stream=first)
        configure_logging(stream=second)
        get_logger("core.test").info("once")
        assert first.getvalue() == ""
        assert second.getvalue().count("once") == 1

    def test_reset_logging_silences_again(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        reset_logging()
        get_logger("core.test").info("silent")
        assert stream.getvalue() == ""

    def test_json_formatter_exception_rendering(self):
        formatter = JsonLinesFormatter()
        try:
            raise RuntimeError("kaboom")
        except RuntimeError:
            record = logging.LogRecord(
                "repro.t", logging.ERROR, __file__, 1, "failed", (),
                sys.exc_info(),
            )
        payload = json.loads(formatter.format(record))
        assert payload["message"] == "failed"
        assert "kaboom" in payload["exc_info"]


def test_import_repro_leaves_root_logger_alone():
    """``import repro`` must not install handlers on the root logger
    (library good-citizenship; run in a subprocess for a clean slate)."""
    import subprocess

    code = (
        "import logging, repro\n"
        "assert logging.getLogger().handlers == [], logging.getLogger().handlers\n"
        "assert any(isinstance(h, logging.NullHandler)\n"
        "           for h in logging.getLogger('repro').handlers)\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
