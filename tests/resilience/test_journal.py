"""Edge-case tests for the crash-safe checkpoint journal."""

from __future__ import annotations

import json

import pytest

from repro.errors import ResilienceError
from repro.resilience import JOURNAL_SCHEMA, SweepJournal, sweep_config_hash, task_key


POINTS = [0.002, 0.004, 0.008, 0.016]
HASH = sweep_config_hash("tests:task", 7, POINTS)


def _write_journal(path, results: dict[int, object]) -> SweepJournal:
    journal = SweepJournal(path)
    journal.begin(HASH, seed=7, points=len(POINTS), task="tests:task")
    for index, value in results.items():
        journal.record(index, value, key=task_key(7, 0x7A5C, index))
    journal.close()
    return journal


class TestRoundTrip:
    def test_write_then_resume_recovers_everything(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        results = {i: {"value": i * 1.5} for i in range(len(POINTS))}
        _write_journal(path, results)
        with SweepJournal(path) as journal:
            recovered = journal.begin(
                HASH, seed=7, points=len(POINTS), resume=True
            )
        assert recovered == results
        assert journal.hits == len(POINTS)
        assert journal.misses == 0

    def test_truncation_at_every_byte_recovers_the_intact_prefix(self, tmp_path):
        """SIGKILL mid-append loses at most the in-flight record."""
        path = tmp_path / "sweep.journal.jsonl"
        results = {i: ("point", i) for i in range(len(POINTS))}
        _write_journal(path, results)
        full = path.read_bytes()
        lines = full.decode().splitlines(keepends=True)
        # Byte offsets at which each record line becomes complete.
        complete_at = []
        offset = len(lines[0])
        for line in lines[1:]:
            offset += len(line)
            complete_at.append(offset)
        header_end = len(lines[0])
        for cut in range(header_end, len(full) + 1, 7):
            path.write_bytes(full[:cut])
            with SweepJournal(path) as journal:
                recovered = journal.begin(
                    HASH, seed=7, points=len(POINTS), resume=True
                )
            expected_count = sum(1 for end in complete_at if end <= cut)
            assert len(recovered) == expected_count, f"cut at byte {cut}"
            for index, value in recovered.items():
                assert value == results[index]

    def test_resume_can_append_further_records(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        _write_journal(path, {0: "a"})
        with SweepJournal(path) as journal:
            recovered = journal.begin(HASH, seed=7, points=len(POINTS), resume=True)
            assert recovered == {0: "a"}
            journal.record(1, "b", key=task_key(7, 0x7A5C, 1))
        with SweepJournal(path) as journal:
            recovered = journal.begin(HASH, seed=7, points=len(POINTS), resume=True)
        assert recovered == {0: "a", 1: "b"}


class TestDuplicates:
    def test_duplicate_index_is_last_write_wins(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        journal = SweepJournal(path)
        journal.begin(HASH, seed=7, points=len(POINTS))
        journal.record(2, "first attempt", attempt=0)
        journal.record(2, "second attempt", attempt=1)
        journal.close()
        with SweepJournal(path) as reopened:
            recovered = reopened.begin(
                HASH, seed=7, points=len(POINTS), resume=True
            )
        assert recovered == {2: "second attempt"}


class TestRefusals:
    def test_schema_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        _write_journal(path, {0: "a"})
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = JOURNAL_SCHEMA + 1
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ResilienceError, match="schema"):
            SweepJournal(path).begin(HASH, seed=7, points=len(POINTS), resume=True)

    def test_schema_1_journal_is_refused(self, tmp_path):
        # Schema-1 journals hold points drawn on the row-only random
        # stream; resuming one would mix them with class-count points.
        path = tmp_path / "sweep.journal.jsonl"
        _write_journal(path, {0: "a"})
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == JOURNAL_SCHEMA == 2
        header["schema"] = 1
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ResilienceError, match="schema 1"):
            SweepJournal(path).begin(HASH, seed=7, points=len(POINTS), resume=True)

    def test_sweep_hash_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        _write_journal(path, {0: "a"})
        other = sweep_config_hash("tests:task", 8, POINTS)
        with pytest.raises(ResilienceError, match="refusing to resume"):
            SweepJournal(path).begin(other, seed=8, points=len(POINTS), resume=True)

    def test_unreadable_header_is_refused(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ResilienceError, match="header"):
            SweepJournal(path).begin(HASH, seed=7, points=len(POINTS), resume=True)

    def test_empty_journal_is_refused(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        path.write_text("")
        with pytest.raises(ResilienceError, match="empty"):
            SweepJournal(path).begin(HASH, seed=7, points=len(POINTS), resume=True)

    def test_record_before_begin_is_refused(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal.jsonl")
        with pytest.raises(ResilienceError, match="begin"):
            journal.record(0, "x")


class TestCorruption:
    def test_corrupt_payload_is_dropped_not_resurrected(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        _write_journal(path, {0: "keep", 1: "corrupt me"})
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["result"] = record["result"][:-4] + "AAAA"  # CRC now mismatches
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with SweepJournal(path) as journal:
            recovered = journal.begin(
                HASH, seed=7, points=len(POINTS), resume=True
            )
        assert recovered == {0: "keep"}

    def test_foreign_lines_are_ignored(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        _write_journal(path, {0: "keep"})
        with open(path, "a") as handle:
            handle.write('{"ev": "note", "text": "not a point"}\n')
        with SweepJournal(path) as journal:
            recovered = journal.begin(
                HASH, seed=7, points=len(POINTS), resume=True
            )
        assert recovered == {0: "keep"}


class TestFreshStart:
    def test_begin_without_resume_replaces_existing_journal(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        _write_journal(path, {0: "stale", 1: "stale"})
        journal = SweepJournal(path)
        recovered = journal.begin(HASH, seed=7, points=len(POINTS))
        journal.close()
        assert recovered == {}
        assert journal.misses == len(POINTS)

    def test_config_hash_covers_task_seed_and_grid(self):
        base = sweep_config_hash("tests:task", 7, POINTS)
        assert sweep_config_hash("tests:other", 7, POINTS) != base
        assert sweep_config_hash("tests:task", 8, POINTS) != base
        assert sweep_config_hash("tests:task", 7, POINTS[:-1]) != base
        assert sweep_config_hash("tests:task", 7, POINTS) == base
