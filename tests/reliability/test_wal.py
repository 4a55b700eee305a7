"""Unit tests for the write-ahead log: CRC framing, torn tails, corruption."""

import pytest

from repro.errors import DurabilityError
from repro.reliability.wal import WriteAheadLog, _decode, _encode


def open_wal(tmp_path) -> WriteAheadLog:
    wal = WriteAheadLog(tmp_path / "wal.jsonl")
    wal.open_for_append()
    return wal


class TestFraming:
    def test_encode_decode_roundtrip(self):
        line = _encode(7, "txn", {"tid": 3, "ops": []}).decode("utf-8").strip()
        record = _decode(line)
        assert record is not None
        assert record.lsn == 7
        assert record.type == "txn"
        assert record.data == {"tid": 3, "ops": []}

    def test_bit_flip_fails_crc(self):
        line = _encode(1, "txn", {"tid": 1, "ops": []}).decode("utf-8").strip()
        flipped = line.replace('"tid":1', '"tid":2')
        assert _decode(flipped) is None

    def test_garbage_is_rejected(self):
        assert _decode("not json at all") is None
        assert _decode('{"crc": 1, "lsn": 1}') is None


class TestAppendScan:
    def test_appends_are_scannable_with_increasing_lsns(self, tmp_path):
        wal = open_wal(tmp_path)
        for i in range(3):
            wal.append("txn", {"tid": i + 1, "ops": []})
        wal.close()
        scan = WriteAheadLog(tmp_path / "wal.jsonl").scan()
        assert [r.lsn for r in scan.records] == [1, 2, 3]
        assert scan.torn_records_dropped == 0

    def test_append_requires_open_handle(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        with pytest.raises(DurabilityError):
            wal.append("txn", {})

    def test_stats_counters(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append("txn", {"tid": 1, "status": "committed", "ops": []})
        wal.append("merge", {"table": "t", "group": None, "snapshot": 1})
        assert wal.stats.records_appended == 2
        assert wal.stats.transactions_logged == 1
        assert wal.stats.merges_logged == 1
        assert wal.stats.last_lsn == 2
        assert wal.stats.bytes_written > 0
        wal.close()


class TestTornTail:
    def test_torn_tail_is_tolerated_and_counted(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append("txn", {"tid": 1, "ops": []})
        wal.close()
        with (tmp_path / "wal.jsonl").open("ab") as fh:
            fh.write(b'{"crc": 123, "lsn": 2, "ty')  # torn mid-record
        scan = WriteAheadLog(tmp_path / "wal.jsonl").scan()
        assert len(scan.records) == 1
        assert scan.torn_records_dropped == 1

    def test_missing_final_newline_counts_as_torn(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append("txn", {"tid": 1, "ops": []})
        wal.close()
        # A fully CRC-valid record without its terminating newline is still
        # a torn write: the record boundary never made it to disk.
        payload = _encode(2, "txn", {"tid": 2, "ops": []})
        with (tmp_path / "wal.jsonl").open("ab") as fh:
            fh.write(payload[:-1])
        scan = WriteAheadLog(tmp_path / "wal.jsonl").scan()
        assert [r.lsn for r in scan.records] == [1]
        assert scan.torn_records_dropped == 1

    def test_open_for_append_truncates_torn_tail(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append("txn", {"tid": 1, "ops": []})
        wal.close()
        with (tmp_path / "wal.jsonl").open("ab") as fh:
            fh.write(b"garbage tail")
        reopened = WriteAheadLog(tmp_path / "wal.jsonl")
        reopened.open_for_append()
        reopened.append("txn", {"tid": 2, "ops": []})
        reopened.close()
        scan = WriteAheadLog(tmp_path / "wal.jsonl").scan()
        assert [r.lsn for r in scan.records] == [1, 2]
        assert scan.torn_records_dropped == 0

    def test_lsn_continues_after_reopen(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append("txn", {"tid": 1, "ops": []})
        wal.append("txn", {"tid": 2, "ops": []})
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal.jsonl")
        reopened.open_for_append()
        assert reopened.append("txn", {"tid": 3, "ops": []}) == 3


class TestCorruption:
    def test_bad_record_before_valid_ones_raises(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append("txn", {"tid": 1, "ops": []})
        wal.close()
        path = tmp_path / "wal.jsonl"
        with path.open("ab") as fh:
            fh.write(b"corrupted middle record\n")
            fh.write(_encode(2, "txn", {"tid": 2, "ops": []}))
        with pytest.raises(DurabilityError):
            WriteAheadLog(path).scan()

    def test_non_increasing_lsn_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with path.open("wb") as fh:
            fh.write(_encode(2, "txn", {"tid": 1, "ops": []}))
            fh.write(_encode(1, "txn", {"tid": 2, "ops": []}))
        with pytest.raises(DurabilityError):
            WriteAheadLog(path).scan()
