"""Pinning tests for the environment-knob helpers.

``env_flag`` used to compare case-sensitively, so a flag set to
``False`` (or ``OFF``, or ``" 0 "``) silently *enabled* the feature it
was meant to disable; ``env_int`` must fall back and clamp instead of
crashing a long-lived process on a typo.
"""

import pytest

from repro._config import env_flag, env_int


class TestEnvFlag:
    @pytest.mark.parametrize(
        "raw",
        ["0", "false", "False", "FALSE", "no", "No", "NO", "off", "OFF",
         "Off", " 0 ", "\tfalse\n", " Off "],
    )
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_flag("REPRO_X", default=True) is False

    @pytest.mark.parametrize("raw", ["1", "true", "True", "yes", "on", "anything"])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_X", raw)
        assert env_flag("REPRO_X", default=False) is True

    @pytest.mark.parametrize("default", [True, False])
    def test_unset_and_empty_yield_default(self, monkeypatch, default):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert env_flag("REPRO_X", default) is default
        monkeypatch.setenv("REPRO_X", "")
        assert env_flag("REPRO_X", default) is default
        monkeypatch.setenv("REPRO_X", "   ")
        assert env_flag("REPRO_X", default) is default


class TestEnvInt:
    def test_reads_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_N", " 12 ")
        assert env_int("REPRO_N", 5) == 12

    def test_malformed_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_N", "twelve")
        assert env_int("REPRO_N", 5) == 5

    def test_clamping(self, monkeypatch):
        monkeypatch.setenv("REPRO_N", "99")
        assert env_int("REPRO_N", 5, lo=1, hi=16) == 16
        monkeypatch.setenv("REPRO_N", "-3")
        assert env_int("REPRO_N", 5, lo=1, hi=16) == 1

    def test_unset_default_is_not_clamp_exempt(self, monkeypatch):
        monkeypatch.delenv("REPRO_N", raising=False)
        assert env_int("REPRO_N", 99, lo=1, hi=16) == 16
