"""Replaying a recorded v2 log: results bytes that must not move, and where events are built.

``tests/fixtures/aggregates_v2/`` holds a seeded v2 event log (frame and
record lines, some events without ``price``, float and int ``value``\\ s, an
irrelevant type ``D``), a workload file returning every aggregate kind —
COUNT(*), COUNT(E), SUM, MIN, MAX, AVG — under a ``WHERE`` filter and
``GROUP BY``, and the ``results.jsonl`` each window strategy wrote for it
(``results-panes.jsonl``, ``results-instances.jsonl``), recorded by the
engine while it still routed :class:`~repro.events.event.Event` lists to
the window strategies.  They were written by::

    ReplayRunner(workload, plan=random_maximal_plan(workload, 0), panes=panes).run(
        log, checkpoint_every=7, checkpoint_dir=directory)

The bench workloads are all COUNT(*), so their digests cannot see the order
in which the aggregate summariser adds floats; these bytes can (the two
strategies already differ in the last digits of some SUM/AVG values).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import load_workload
from repro.datasets.workloads import random_maximal_plan
from repro.events import Event, EventLogReader, write_event_log
from repro.events.log import LOG_VERSION
from repro.replay import RESULTS_LOG_NAME, ReplayRunner

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "aggregates_v2"
LOG = FIXTURE_DIR / "events.jsonl"
STRATEGIES = {"panes": True, "instances": False}
#: The log, and the same log read into an in-memory stream (no ``Event`` built).
SOURCES = {"log": lambda: LOG, "stream": lambda: EventLogReader(LOG).read_stream()}


def runner(panes: bool) -> ReplayRunner:
    workload = load_workload(FIXTURE_DIR / "workload.sase")
    return ReplayRunner(workload, plan=random_maximal_plan(workload, 0), panes=panes)


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("mode", STRATEGIES)
def test_results_log_bytes_match_the_recorded_fixture(mode, source, tmp_path):
    report = runner(STRATEGIES[mode]).run(
        SOURCES[source](), checkpoint_every=7, checkpoint_dir=tmp_path
    )
    assert report.metrics.results_emitted > 0
    recorded = (FIXTURE_DIR / f"results-{mode}.jsonl").read_bytes()
    assert (tmp_path / RESULTS_LOG_NAME).read_bytes() == recorded


@pytest.mark.parametrize("mode", STRATEGIES)
def test_the_log_recorded_again_by_the_current_writer_replays_to_the_same_bytes(mode, tmp_path):
    log = tmp_path / "again.jsonl"
    write_event_log(EventLogReader(LOG), log)
    assert EventLogReader(log).header["version"] == LOG_VERSION
    assert '"id":{"from":' in log.read_text(encoding="utf-8")  # frames store id runs
    report = runner(STRATEGIES[mode]).run(log, checkpoint_every=7, checkpoint_dir=tmp_path / "out")
    recorded = (FIXTURE_DIR / f"results-{mode}.jsonl").read_bytes()
    assert (tmp_path / "out" / RESULTS_LOG_NAME).read_bytes() == recorded


def test_the_fixture_covers_what_the_guard_is_for():
    lines = LOG.read_text(encoding="utf-8").splitlines()[1:]
    assert any('"type":["' in line for line in lines)  # frame lines
    assert any('"type":"' in line for line in lines)  # record lines
    queries = load_workload(FIXTURE_DIR / "workload.sase")
    kinds = {query.aggregate.kind for query in queries}
    assert kinds == {"COUNT(*)", "COUNT", "SUM", "MIN", "MAX", "AVG"}
    assert all(query.predicates.filters and query.group_by for query in queries)
    # Float order shows: the two strategies' bytes differ only in float digits.
    panes, instances = (
        (FIXTURE_DIR / f"results-{mode}.jsonl").read_text(encoding="utf-8").splitlines()
        for mode in STRATEGIES
    )
    differing = [(a, b) for a, b in zip(panes, instances) if a != b]
    assert differing and len(panes) == len(instances)
    for a, b in differing:
        assert a.rsplit(",", 1)[0] == b.rsplit(",", 1)[0]
        assert float(a.rsplit(",", 1)[1][:-1]) == pytest.approx(float(b.rsplit(",", 1)[1][:-1]))


class TestWhereEventsAreBuilt:
    """Routing hands out row indices; an :class:`Event` exists only where one is consumed."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        built = [0]
        check = Event.__post_init__

        def counting(event):
            built[0] += 1
            check(event)

        monkeypatch.setattr(Event, "__post_init__", counting)
        return built

    @pytest.mark.parametrize("source", SOURCES)
    def test_the_pane_strategy_builds_none(self, constructions, source):
        report = runner(panes=True).run(SOURCES[source]())
        assert report.metrics.relevant_events > 0
        assert constructions[0] == 0

    @pytest.mark.parametrize("source", SOURCES)
    def test_the_instance_strategy_builds_none(self, constructions, source):
        report = runner(panes=False).run(SOURCES[source]())
        assert report.metrics.relevant_events > 0
        assert constructions[0] == 0

    def test_an_on_batch_observer_gets_every_row(self, constructions):
        seen = []
        report = runner(panes=True).run(LOG, on_batch=lambda _t, events: seen.extend(events))
        assert constructions[0] == len(seen) == report.metrics.total_events
