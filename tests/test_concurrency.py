"""Unit tests for the concurrency primitives behind the serving facade."""

import sys
import threading
import time

import pytest

from repro.concurrency import ReadWriteLock


class TestReadWriteLock:
    def test_concurrent_readers(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # all three readers hold the lock at once

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                time.sleep(0.05)
                order.append("write")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read():
                order.append("read")

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=reader)
        tw.start()
        tr.start()
        tw.join(timeout=5)
        tr.join(timeout=5)
        assert order == ["write", "read"]

    def test_writer_preference_over_new_readers(self):
        lock = ReadWriteLock()
        order = []
        reader_in = threading.Event()
        writer_waiting = threading.Event()

        def first_reader():
            with lock.read():
                reader_in.set()
                writer_waiting.wait(timeout=5)
                time.sleep(0.05)  # give the late reader time to queue up

        def writer():
            reader_in.wait(timeout=5)
            writer_waiting.set()
            with lock.write():
                order.append("write")

        def late_reader():
            writer_waiting.wait(timeout=5)
            time.sleep(0.01)  # arrive after the writer started waiting
            with lock.read():
                order.append("late-read")

        threads = [
            threading.Thread(target=first_reader),
            threading.Thread(target=writer),
            threading.Thread(target=late_reader),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert order == ["write", "late-read"]

    def test_write_reentrant(self):
        lock = ReadWriteLock()
        with lock.write():
            with lock.write():
                pass
        # Fully released: another thread can acquire immediately.
        acquired = []
        t = threading.Thread(target=lambda: acquired.append(lock.write().__enter__()))
        t.start()
        t.join(timeout=5)
        assert acquired

    def test_read_within_write(self):
        lock = ReadWriteLock()
        with lock.write():
            with lock.read():
                pass
            # The write side survives the nested read's release.
            with lock.write():
                pass

    def test_read_reentrant(self):
        lock = ReadWriteLock()
        with lock.read():
            with lock.read():
                pass

    def test_upgrade_refused(self):
        lock = ReadWriteLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_release_misuse(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()



class TestWriterArrivalOrder:
    def test_transaction_loop_does_not_starve_a_business_object_writer(
        self, tmp_path
    ):
        """Two writer threads on a durable database: one loops ``begin`` /
        ``insert(txn=)`` / ``commit`` (two write-lock takes per turn), the
        other writes business objects.  A writer that releases the lock
        queues behind the one already waiting, so the objects are done
        while the loop still runs (it stops after 3 s at most either
        way)."""
        from .conftest import make_erp_db

        db = make_erp_db(path=tmp_path / "db")
        db.insert("category", {"cid": 0, "name": "c", "lang": "ENG"})
        objects = 20
        done = threading.Event()
        looped = []

        def transaction_loop():
            deadline = time.monotonic() + 3.0
            cid = 1
            while not done.is_set() and time.monotonic() < deadline:
                txn = db.begin()
                db.insert("category", {"cid": cid, "name": "c", "lang": "ENG"}, txn=txn)
                txn.commit()
                cid += 1
            looped.append(cid - 1)

        def object_writer():
            for hid in range(objects):
                db.insert_business_object(
                    "header",
                    {"hid": hid, "year": 2014},
                    "item",
                    [{"iid": hid, "hid": hid, "cid": 0, "price": 1.0}],
                )
            done.set()

        loop = threading.Thread(target=transaction_loop)
        loop.start()
        time.sleep(0.01)  # the loop is running when the objects arrive
        started = time.monotonic()
        writer = threading.Thread(target=object_writer)
        writer.start()
        writer.join(timeout=10)
        elapsed = time.monotonic() - started
        loop.join(timeout=10)
        assert not writer.is_alive() and not loop.is_alive()
        assert done.is_set() and elapsed < 2.0, (elapsed, looped)
        assert looped and looped[0] > 0
        assert db.table("header").row_count() == objects
        db.close()

    def test_queued_writers_exclude_each_other_and_readers(self):
        """More writers than cores, plus readers, under a short switch
        interval: every write-side increment survives, no reader sees a
        writer inside, and every thread finishes."""
        lock = ReadWriteLock()
        state = {"count": 0, "writing": False}
        overlaps = []
        writers, rounds = 4, 200

        def writer():
            for _ in range(rounds):
                with lock.write():
                    state["writing"] = True
                    value = state["count"]
                    time.sleep(0)
                    state["count"] = value + 1
                    state["writing"] = False

        def reader():
            for _ in range(rounds):
                with lock.read():
                    if state["writing"]:
                        overlaps.append(state["count"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer) for _ in range(writers)]
            threads += [threading.Thread(target=reader) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert state["count"] == writers * rounds
        assert overlaps == []
        assert not lock._write_queue and not lock._writer
