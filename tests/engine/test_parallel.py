"""Tests for the process-pool fan-out and per-point seeding
(repro.engine.parallel)."""

from __future__ import annotations

from repro.engine.parallel import imap, point_seed


class TestDeterministicSeeding:
    def test_per_point_seeds_are_stable_and_distinct(self):
        seeds = [point_seed(7, {"n": n}) for n in (1, 2, 3)]
        assert len(set(seeds)) == 3
        assert seeds == [point_seed(7, {"n": n}) for n in (1, 2, 3)]

    def test_point_seed_ignores_key_order(self):
        assert point_seed(1, {"a": 1, "b": 2}) == point_seed(1, {"b": 2, "a": 1})

    def test_point_seed_canonicalizes_value_spellings(self):
        # The cache-key layer treats 1 and 1.0 as the same parameter value
        # and thaws tuples to lists; the derived seed must agree, or equal
        # points would run with different randomness depending on spelling.
        assert point_seed(7, {"f": 1}) == point_seed(7, {"f": 1.0})
        assert point_seed(7, {"xs": (1, 2)}) == point_seed(7, {"xs": [1, 2]})
        assert point_seed(7, {"xs": (1, (2.0, 3))}) == point_seed(7, {"xs": [1, [2, 3]]})

    def test_point_seed_canonicalization_keeps_distinct_values_distinct(self):
        assert point_seed(7, {"f": 1}) != point_seed(7, {"f": 2})
        assert point_seed(7, {"f": 1.5}) != point_seed(7, {"f": 1})
        # bool is a distinct parameter value, not the integer it subclasses.
        assert point_seed(7, {"f": True}) != point_seed(7, {"f": 1})


def double_payload(payload):
    return {"doubled": payload["x"] * 2}


class TestImap:
    PAYLOADS = [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_pool_preserves_submission_order(self):
        expected = [{"doubled": 2}, {"doubled": 4}, {"doubled": 6}]
        assert list(imap(double_payload, self.PAYLOADS, max_workers=2)) == expected

    def test_single_payload_runs_lazily_in_process(self):
        # One payload runs in-process even with workers configured (no pool
        # start-up cost), so unpicklable functions are fine, and nothing runs
        # before the first result is asked for.
        calls = []

        def recording(payload):
            calls.append(payload["x"])
            return payload["x"]

        iterator = imap(recording, [{"x": 9}], max_workers=4)
        assert calls == []
        assert list(iterator) == [9]
        assert calls == [9]

    def test_no_payloads_yield_nothing(self):
        assert list(imap(double_payload, [], max_workers=2)) == []
