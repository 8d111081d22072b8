"""Unit tests for the rate catalog (repro.utils.rates)."""

from __future__ import annotations

import random

import pytest

from repro.events import (
    Event,
    EventLogReader,
    EventLogWriter,
    EventStream,
    StreamStatistics,
    bounded_shuffle,
)
from repro.events.log import LOG_VERSION
from repro.queries import Pattern
from repro.utils import RateCatalog


class TestRateCatalogConstruction:
    def test_uniform(self):
        catalog = RateCatalog.uniform(["A", "B"], 3.0)
        assert catalog.rate("A") == 3.0
        assert catalog.rate("B") == 3.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RateCatalog({"A": -1.0})

    def test_unknown_type_without_default_raises(self):
        catalog = RateCatalog({"A": 1.0})
        with pytest.raises(KeyError, match="no rate registered"):
            catalog.rate("B")
        assert "A" in catalog and "B" not in catalog

    def test_default_rate_fallback(self):
        catalog = RateCatalog({"A": 1.0}, default_rate=0.5)
        assert catalog.rate("B") == 0.5
        assert "B" in catalog


class TestRateCatalogFromStream:
    def _stream(self):
        events = [Event("A", t) for t in range(10)] + [Event("B", t) for t in range(0, 10, 2)]
        return EventStream(events)

    def test_per_time_unit(self):
        catalog = RateCatalog.from_stream(self._stream(), per="time-unit")
        assert catalog.rate("A") == pytest.approx(1.0)
        assert catalog.rate("B") == pytest.approx(0.5)

    def test_a_type_the_sample_lacks_has_rate_zero(self):
        assert RateCatalog.from_stream(self._stream(), per="time-unit").rate("Z") == 0.0

    def test_per_window(self):
        catalog = RateCatalog.from_stream(self._stream(), per="window", window_size=20)
        assert catalog.rate("A") == pytest.approx(20.0)
        assert catalog.rate("B") == pytest.approx(10.0)

    def test_per_window_requires_size(self):
        with pytest.raises(ValueError, match="window_size"):
            RateCatalog.from_stream(self._stream(), per="window")

    def test_unknown_unit(self):
        with pytest.raises(ValueError, match="unknown rate unit"):
            RateCatalog.from_stream(self._stream(), per="fortnight")

    @pytest.mark.parametrize("shuffled", [False, True], ids=["in order", "bounded shuffle"])
    def test_one_pass_over_a_log_measures_what_its_stream_does(self, shuffled, tmp_path):
        """``repro replay`` samples rates from the log's runs without loading it."""
        rng = random.Random(3)
        events = [
            Event(f"T{rng.randrange(4)}", 5 + index // 3, {"v": index}, index) for index in range(300)
        ]
        if shuffled:
            events = bounded_shuffle(events, max_lateness=6, seed=1)
        path = tmp_path / "events.jsonl"
        with EventLogWriter(path) as writer:
            writer.extend(events)
        reader = EventLogReader(path)
        assert reader.header["version"] == LOG_VERSION
        assert ('"t":[' in path.read_text(encoding="utf-8")) is shuffled  # frames span timestamps
        stats = StreamStatistics.from_runs(reader.batches_from(0))
        stream = reader.read_stream()
        assert stats == stream.statistics()
        assert stats.total_events == len(stream) == 300 and stats.duration == 100
        expected = RateCatalog.from_stream(stream, per="time-unit")
        assert RateCatalog.from_statistics(stats, per="time-unit").rates == expected.rates


class TestPatternRates:
    def test_pattern_rate_is_sum_of_type_rates(self):
        # Equation 1: Rate(P) = sum of Rate(Ej).
        catalog = RateCatalog({"A": 1.0, "B": 2.0, "C": 4.0})
        assert catalog.pattern_rate(Pattern(["A", "B", "C"])) == 7.0
        assert catalog.pattern_rate(Pattern(["A", "A"])) == 2.0

    def test_start_rate(self):
        catalog = RateCatalog({"A": 1.0, "B": 2.0})
        assert catalog.start_rate(Pattern(["B", "A"])) == 2.0
        assert catalog.start_rate(Pattern.empty()) == 0.0

    def test_scaled(self):
        catalog = RateCatalog({"A": 1.0}, default_rate=2.0)
        scaled = catalog.scaled(3.0)
        assert scaled.rate("A") == 3.0
        assert scaled.rate("unknown") == 6.0
        with pytest.raises(ValueError):
            catalog.scaled(-1.0)
