"""Unit tests for the trace recorder."""

from repro.simulator import COUNTS_ONLY, TraceRecorder


class TestTraceRecorder:
    def test_records_in_order(self):
        t = TraceRecorder()
        t.record(1.0, "a", x=1)
        t.record(2.0, "b", y=2)
        assert [r.kind for r in t] == ["a", "b"]
        assert t.records[0].detail == {"x": 1}

    def test_counts_always_maintained(self):
        t = TraceRecorder(kinds=frozenset({"keep"}))
        t.record(0.0, "keep")
        t.record(0.0, "filtered")
        t.record(0.0, "filtered")
        assert t.count("filtered") == 2
        assert t.count("keep") == 1
        assert len(t) == 1  # only "keep" retained

    def test_count_unknown_kind(self):
        assert TraceRecorder().count("nothing") == 0

    def test_counts_copy(self):
        t = TraceRecorder()
        t.record(0.0, "a")
        counts = t.counts()
        counts["a"] = 99
        assert t.count("a") == 1

    def test_last(self):
        t = TraceRecorder()
        t.record(0.0, "a", n=1)
        t.record(1.0, "a", n=2)
        assert t.last("a").detail["n"] == 2
        assert t.last("missing") is None

    def test_clear(self):
        t = TraceRecorder()
        t.record(0.0, "a")
        t.clear()
        assert len(t) == 0
        assert t.count("a") == 0


class TestKindFiltering:
    """The kinds filter: records dropped, counts kept."""

    def test_filter_drops_records_but_keeps_counts(self):
        t = TraceRecorder(kinds=frozenset({"keep"}))
        for i in range(3):
            t.record(float(i), "keep", n=i)
            t.record(float(i), "dropped", n=i)
        assert t.count("keep") == 3
        assert t.count("dropped") == 3
        assert len(t) == 3
        assert all(r.kind == "keep" for r in t)

    def test_last_skips_filtered_kinds(self):
        t = TraceRecorder(kinds=frozenset({"keep"}))
        t.record(0.0, "keep", n=1)
        t.record(1.0, "dropped", n=2)
        assert t.last("keep").detail["n"] == 1
        assert t.last("dropped") is None

    def test_wants(self):
        everything = TraceRecorder()
        assert everything.wants("anything")
        filtered = TraceRecorder(kinds=frozenset({"keep"}))
        assert filtered.wants("keep")
        assert not filtered.wants("dropped")


class TestCountingOnlyMode:
    """``kinds=frozenset()``: totals only, no record construction."""

    def test_record_retains_nothing(self):
        t = TraceRecorder(kinds=COUNTS_ONLY)
        t.record(0.0, "a", x=1)
        t.record(1.0, "b")
        assert len(t) == 0
        assert t.records == []
        assert t.counts() == {"a": 1, "b": 1}
        assert t.last("a") is None

    def test_wants_nothing(self):
        t = TraceRecorder(kinds=COUNTS_ONLY)
        assert not t.wants("a")

    def test_bump_matches_record_counts(self):
        via_record = TraceRecorder(kinds=COUNTS_ONLY)
        via_bump = TraceRecorder(kinds=COUNTS_ONLY)
        for kind in ("a", "b", "a", "c", "a"):
            via_record.record(0.0, kind, detail="ignored")
            via_bump.bump(kind)
        assert via_bump.counts() == via_record.counts()

    def test_bump_on_unfiltered_recorder_keeps_no_record(self):
        t = TraceRecorder()
        t.bump("a")
        assert t.count("a") == 1
        assert len(t) == 0  # bump never materialises a record

    def test_clear_resets_counting_only_recorder(self):
        t = TraceRecorder(kinds=COUNTS_ONLY)
        t.bump("a")
        t.clear()
        assert t.counts() == {}
        t.record(0.0, "b")
        assert len(t) == 0  # the counting-only mode survives a clear
