"""Unit tests for the fault-injection harness."""

import time

import pytest

from repro.errors import DurabilityError, FaultError
from repro.reliability.faults import FaultInjector, SimulatedCrash, TransientIOError


class TestArming:
    def test_unknown_point_rejected(self):
        with pytest.raises(DurabilityError):
            FaultInjector().arm("not.a.point")

    def test_unknown_mode_rejected(self):
        with pytest.raises(DurabilityError):
            FaultInjector().arm("wal.append", mode="explode")

    def test_armed_points_listing_and_disarm(self):
        injector = FaultInjector()
        injector.arm("wal.append")
        injector.arm("merge.before_swap")
        assert injector.armed_points() == ["merge.before_swap", "wal.append"]
        injector.disarm("wal.append")
        assert injector.armed_points() == ["merge.before_swap"]
        injector.disarm()
        assert injector.armed_points() == []


class TestFiring:
    def test_unarmed_fire_is_a_noop_but_counts(self):
        injector = FaultInjector()
        injector.fire("wal.append")
        injector.fire("wal.append")
        assert injector.hits["wal.append"] == 2

    def test_raise_mode_trips_exactly_times(self):
        injector = FaultInjector()
        injector.arm("wal.append", mode="raise", times=2)
        for _ in range(2):
            with pytest.raises(FaultError):
                injector.fire("wal.append")
        injector.fire("wal.append")  # exhausted: no longer trips

    def test_after_skips_initial_hits(self):
        injector = FaultInjector()
        injector.arm("wal.append", mode="raise", after=2)
        injector.fire("wal.append")
        injector.fire("wal.append")
        with pytest.raises(FaultError):
            injector.fire("wal.append")

    def test_crash_mode_is_not_an_ordinary_exception(self):
        injector = FaultInjector()
        injector.arm("wal.append", mode="crash")
        with pytest.raises(SimulatedCrash) as excinfo:
            try:
                injector.fire("wal.append")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash must not be caught by 'except Exception'")
        assert excinfo.value.point == "wal.append"

    def test_delay_mode_sleeps(self):
        injector = FaultInjector()
        injector.arm("wal.append", mode="delay", delay=0.01)
        start = time.monotonic()
        injector.fire("wal.append")
        assert time.monotonic() - start >= 0.01

    def test_custom_message(self):
        injector = FaultInjector()
        injector.arm("wal.append", message="disk full")
        with pytest.raises(FaultError, match="disk full"):
            injector.fire("wal.append")


class TestUnlimitedFiring:
    def test_times_none_never_self_disarms(self):
        injector = FaultInjector()
        injector.arm("wal.append", times=None)
        for _ in range(50):
            with pytest.raises(FaultError):
                injector.fire("wal.append")
        assert injector.armed_points() == ["wal.append"]

    def test_times_none_composes_with_after(self):
        injector = FaultInjector()
        injector.arm("wal.append", times=None, after=3)
        for _ in range(3):
            injector.fire("wal.append")
        for _ in range(10):
            with pytest.raises(FaultError):
                injector.fire("wal.append")


class TestIOErrorMode:
    def test_raises_a_real_oserror(self):
        injector = FaultInjector()
        injector.arm("checkpoint.write", mode="io_error")
        with pytest.raises(OSError) as excinfo:
            injector.fire("checkpoint.write")
        err = excinfo.value
        assert isinstance(err, TransientIOError)
        assert err.point == "checkpoint.write"
        assert "checkpoint.write" in str(err)

    def test_io_error_is_not_a_fault_error(self):
        # Retry wrappers catch OSError; they must not accidentally catch
        # the permanent-failure FaultError, and vice versa.
        injector = FaultInjector()
        injector.arm("wal.append", mode="io_error")
        with pytest.raises(TransientIOError):
            try:
                injector.fire("wal.append")
            except FaultError:  # pragma: no cover - the point of the test
                pytest.fail("io_error mode must not raise FaultError")

    def test_custom_message(self):
        injector = FaultInjector()
        injector.arm("wal.append", mode="io_error", message="EINTR")
        with pytest.raises(TransientIOError, match="EINTR"):
            injector.fire("wal.append")


class TestProbabilisticFiring:
    def test_invalid_probability_rejected(self):
        with pytest.raises(DurabilityError):
            FaultInjector().arm("wal.append", probability=1.5)
        with pytest.raises(DurabilityError):
            FaultInjector().arm("wal.append", probability=-0.1)

    def test_probability_zero_never_trips(self):
        injector = FaultInjector(seed=1)
        injector.arm("wal.append", times=None, probability=0.0)
        for _ in range(100):
            injector.fire("wal.append")

    def test_probability_one_always_trips(self):
        injector = FaultInjector(seed=1)
        injector.arm("wal.append", times=None, probability=1.0)
        for _ in range(20):
            with pytest.raises(FaultError):
                injector.fire("wal.append")

    @staticmethod
    def _trip_count(seed, fires=400, p=0.3):
        injector = FaultInjector(seed=seed)
        injector.arm("wal.append", times=None, probability=p)
        trips = 0
        for _ in range(fires):
            try:
                injector.fire("wal.append")
            except FaultError:
                trips += 1
        return trips

    def test_trip_rate_roughly_matches_probability(self):
        trips = self._trip_count(seed=42)
        # p=0.3 over 400 fires: expect ~120; bounds are ~6 sigma wide.
        assert 60 <= trips <= 180

    def test_same_seed_reproduces_the_same_run(self):
        assert self._trip_count(seed=7) == self._trip_count(seed=7)

    def test_probability_composes_with_times_and_after(self):
        injector = FaultInjector(seed=3)
        injector.arm(
            "wal.append", times=2, after=5, probability=0.5
        )
        trips = 0
        for _ in range(200):
            try:
                injector.fire("wal.append")
            except FaultError:
                trips += 1
        # `after` shields the first 5 hits, `times` caps total trips at 2
        # no matter how many eligible hits the coin flip selects.
        assert trips == 2
        assert injector.hits["wal.append"] == 200
