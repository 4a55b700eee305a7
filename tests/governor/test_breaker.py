"""Retry policy units (seeded RNGs)."""

import random

import pytest

from repro.governor.retry import WRITE_RETRY, RetryPolicy


class TestRetryPolicy:
    def test_succeeds_first_try_without_sleeping(self):
        sleeps = []
        policy = RetryPolicy(attempts=3)
        result = policy.call(lambda: "ok", sleep=sleeps.append)
        assert result == "ok"
        assert sleeps == []

    def test_retries_transient_oserror_then_succeeds(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "recovered"

        policy = RetryPolicy(attempts=3, backoff_ms=1.0, jitter=0.0)
        assert policy.call(flaky, sleep=sleeps.append) == "recovered"
        assert calls["n"] == 3
        assert len(sleeps) == 2

    def test_exhausted_attempts_reraise_the_last_error(self):
        policy = RetryPolicy(attempts=2, backoff_ms=0.1)

        def always_fails():
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            policy.call(always_fails, sleep=lambda s: None)

    def test_non_retryable_exceptions_propagate_immediately(self):
        calls = {"n": 0}

        def fails():
            calls["n"] += 1
            raise ValueError("logic bug")

        policy = RetryPolicy(attempts=5)
        with pytest.raises(ValueError):
            policy.call(fails, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_on_retry_called_per_retry_with_attempt_and_error(self):
        seen = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("nope")
            return None

        policy = RetryPolicy(attempts=3)
        policy.call(
            flaky,
            on_retry=lambda attempt, err: seen.append((attempt, str(err))),
            sleep=lambda s: None,
        )
        assert [a for a, _ in seen] == [0, 1]
        assert all(msg == "nope" for _, msg in seen)

    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            attempts=10, backoff_ms=1.0, cap_ms=4.0, jitter=0.0
        )
        delays_ms = [policy.delay_s(n) * 1000.0 for n in range(5)]
        assert delays_ms == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(
            attempts=3, backoff_ms=8.0, cap_ms=1000.0, jitter=0.5
        )
        rng = random.Random(7)
        for _ in range(200):
            delay_ms = policy.delay_s(0, rng=rng) * 1000.0
            assert 4.0 <= delay_ms <= 12.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_ms=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_durable_write_policy_is_fixed_and_short(self):
        # WAL appends and checkpoint writes share one policy with no
        # setting: it retries, and a write-rejecting probe stays cheap.
        assert WRITE_RETRY.attempts >= 2
        worst_ms = sum(
            WRITE_RETRY.backoff_ms * (2.0 ** n) * (1.0 + WRITE_RETRY.jitter)
            for n in range(WRITE_RETRY.attempts - 1)
        )
        assert worst_ms <= 10.0
