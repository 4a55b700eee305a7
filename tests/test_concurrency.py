"""Unit tests for the concurrency primitives behind the serving facade."""

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

