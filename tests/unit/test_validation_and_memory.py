"""Unit tests for the small utility modules (memory sizing)."""

from __future__ import annotations

from repro.utils import PeakMemoryTracker, deep_sizeof


class TestDeepSizeof:
    def test_containers_grow_size(self):
        assert deep_sizeof([1, 2, 3]) > deep_sizeof([])
        assert deep_sizeof({"a": [1, 2, 3]}) > deep_sizeof({})

    def test_shared_objects_counted_once(self):
        shared = list(range(100))
        duplicated = [shared, shared]
        independent = [list(range(100)), list(range(100))]
        assert deep_sizeof(duplicated) < deep_sizeof(independent)

    def test_objects_with_dict_and_slots(self):
        class WithDict:
            def __init__(self):
                self.payload = list(range(50))

        class WithSlots:
            __slots__ = ("payload",)

            def __init__(self):
                self.payload = list(range(50))

        assert deep_sizeof(WithDict()) > deep_sizeof(object())
        assert deep_sizeof(WithSlots()) > deep_sizeof(object())

    def test_cycles_terminate(self):
        a = []
        a.append(a)
        assert deep_sizeof(a) > 0


class TestPeakMemoryTracker:
    def test_sample_keeps_maximum(self):
        tracker = PeakMemoryTracker()
        small = tracker.sample([1])
        large = tracker.sample(list(range(1000)))
        assert tracker.peak_bytes == max(small, large)
        assert tracker.samples == 2
