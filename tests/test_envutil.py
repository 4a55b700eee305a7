"""The shared environment-variable helper (repro.envutil).

Contract: unset/empty -> default; malformed -> RuntimeWarning once per
variable per process, then default; a well-formed value below the minimum
-> ValueError (misconfiguration should fail loudly, not be silently
clamped).
"""

import warnings

import pytest

from repro import envutil
from repro.envutil import env_float, env_int


@pytest.fixture(autouse=True)
def _fresh_warning_state():
    envutil._reset_warnings()
    yield
    envutil._reset_warnings()


class TestEnvInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_empty_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "")
        assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_none_default_passes_through(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", None) is None

    def test_valid_value_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "42")
        assert env_int("REPRO_TEST_KNOB", 7) == 42

    def test_whitespace_tolerated(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "  42  ")
        assert env_int("REPRO_TEST_KNOB", 7) == 42

    def test_malformed_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "banana")
        with pytest.warns(RuntimeWarning, match="REPRO_TEST_KNOB"):
            assert env_int("REPRO_TEST_KNOB", 7) == 7
        # Second read of the same malformed variable stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_each_variable_warns_independently(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "x")
        monkeypatch.setenv("REPRO_OTHER_KNOB", "y")
        with pytest.warns(RuntimeWarning, match="REPRO_TEST_KNOB"):
            env_int("REPRO_TEST_KNOB", 1)
        with pytest.warns(RuntimeWarning, match="REPRO_OTHER_KNOB"):
            env_int("REPRO_OTHER_KNOB", 1)

    def test_below_minimum_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
            env_int("REPRO_TEST_KNOB", 7, minimum=1)

    def test_at_minimum_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "1")
        assert env_int("REPRO_TEST_KNOB", 7, minimum=1) == 1


class TestEnvFloat:
    def test_valid_value_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "2.5")
        assert env_float("REPRO_TEST_KNOB", 1.0) == 2.5

    def test_malformed_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "fast")
        with pytest.warns(RuntimeWarning):
            assert env_float("REPRO_TEST_KNOB", 1.5) == 1.5

    def test_below_minimum_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0.5")
        with pytest.raises(ValueError, match="must be >="):
            env_float("REPRO_TEST_KNOB", None, minimum=1.0)

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_warns_and_falls_back(self, monkeypatch, raw):
        # NaN compares false against every minimum, so it used to slip
        # past the range check; infinities are no budget or deadline.
        monkeypatch.setenv("REPRO_TEST_KNOB", raw)
        with pytest.warns(RuntimeWarning, match="REPRO_TEST_KNOB"):
            assert env_float("REPRO_TEST_KNOB", 1.5, minimum=1.0) == 1.5


class TestGovernorConfigFromEnv:
    def test_defaults_with_nothing_set(self, monkeypatch):
        from repro.governor import GovernorConfig

        for var in (
            "REPRO_QUERY_TIMEOUT_MS",
            "REPRO_MEMORY_BUDGET_MB",
            "REPRO_WAL_RETRIES",
            "REPRO_RETRY_BACKOFF_MS",
            "REPRO_BREAKER_THRESHOLD",
            "REPRO_BREAKER_RESET_MS",
        ):
            monkeypatch.delenv(var, raising=False)
        config = GovernorConfig.from_env()
        assert config == GovernorConfig()
        assert config.query_timeout_ms is None
        assert config.memory_budget_mb is None

    def test_knobs_read_from_env(self, monkeypatch):
        from repro.governor import GovernorConfig

        monkeypatch.setenv("REPRO_QUERY_TIMEOUT_MS", "250")
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "64")
        monkeypatch.setenv("REPRO_WAL_RETRIES", "5")
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "2")
        config = GovernorConfig.from_env()
        assert config.query_timeout_ms == 250.0
        assert config.memory_budget_mb == 64.0
        assert config.wal_retries == 5
        assert config.breaker_threshold == 2

    def test_malformed_timeout_falls_back_to_disabled(self, monkeypatch):
        from repro.governor import GovernorConfig

        monkeypatch.setenv("REPRO_QUERY_TIMEOUT_MS", "soon")
        with pytest.warns(RuntimeWarning):
            config = GovernorConfig.from_env()
        assert config.query_timeout_ms is None

    def test_nan_knobs_fall_back_to_defaults(self, monkeypatch):
        from repro import Database

        monkeypatch.setenv("REPRO_QUERY_TIMEOUT_MS", "nan")
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "nan")
        with pytest.warns(RuntimeWarning):
            db = Database()
        config = db.governor.config
        assert config.query_timeout_ms is None
        assert config.memory_budget_mb is None
        db.close()
