"""Matcher engine selection around the packed tables.

An engine named outright must be a registered one; a value read from
``$REPRO_MATCHER`` that names no engine is ignored and the packed
default runs.  The warning that accompanies an ignored value is covered
in ``tests/matcher/test_engine_env_warning.py``.
"""

import pytest

from repro.matcher import engine as engine_mod
from repro.matcher.engine import resolve_engine


@pytest.fixture(autouse=True)
def _fresh_warning_state():
    engine_mod._WARNED_ENV_VALUES.clear()
    yield
    engine_mod._WARNED_ENV_VALUES.clear()


class TestEngineSelection:
    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError):
            resolve_engine("jit")

    def test_misspelled_environment_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_MATCHER", "turbo")
        assert resolve_engine() == "packed"
        monkeypatch.delenv("REPRO_MATCHER")
        assert resolve_engine() == "packed"
