"""An unknown ``$REPRO_MATCHER`` value is reported, never swallowed.

A misspelled engine in the environment must not break compiles (the
default still runs), but it must not vanish either: the user asked for
an engine and got a different one.  The contract is a structured
ENGINE-UNKNOWN warning on stderr naming the bad value and the fallback,
emitted once per distinct value per process, plus a metric tick on
every ignored resolution.
"""

import pytest

from repro.diag import codes
from repro.matcher import engine as engine_mod
from repro.matcher.engine import DEFAULT_ENGINE, resolve_engine
from repro.obs.metrics import REGISTRY as METRICS


@pytest.fixture(autouse=True)
def _fresh_warning_state():
    engine_mod._WARNED_ENV_VALUES.clear()
    yield
    engine_mod._WARNED_ENV_VALUES.clear()


def test_unknown_env_value_warns_and_falls_back(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_MATCHER", "turbo")
    assert resolve_engine() == DEFAULT_ENGINE
    err = capsys.readouterr().err
    assert codes.ENGINE_UNKNOWN in err
    assert "'turbo'" in err
    assert DEFAULT_ENGINE in err


def test_warning_once_per_distinct_value(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_MATCHER", "turbo")
    resolve_engine()
    resolve_engine()
    monkeypatch.setenv("REPRO_MATCHER", "warp")
    resolve_engine()
    err = capsys.readouterr().err
    assert err.count("'turbo'") == 1
    assert err.count("'warp'") == 1


def test_every_ignored_resolution_ticks_the_metric(monkeypatch):
    monkeypatch.setenv("REPRO_MATCHER", "turbo")
    before = METRICS.snapshot().counters.get(
        "matcher.engine.env_ignored", 0)
    resolve_engine()
    resolve_engine()
    after = METRICS.snapshot().counters.get(
        "matcher.engine.env_ignored", 0)
    assert after - before == 2


def test_known_env_values_stay_silent(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_MATCHER", "dict")
    assert resolve_engine() == "dict"
    assert capsys.readouterr().err == ""


def test_explicit_unknown_engine_still_hard_errors():
    with pytest.raises(ValueError):
        resolve_engine("turbo")


def test_explicit_engine_wins_over_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_MATCHER", "dict")
    assert resolve_engine("packed") == "packed"


def test_environment_selects_the_default(monkeypatch):
    for engine in engine_mod.ENGINES:
        monkeypatch.setenv("REPRO_MATCHER", engine)
        assert resolve_engine() == engine


def test_removed_compiled_engine_warns_and_falls_back(monkeypatch, capsys):
    """The generated-code engine is gone: its old env value takes the
    ordinary unknown-value path, and naming it explicitly is an error."""
    monkeypatch.setenv("REPRO_MATCHER", "compiled")
    assert resolve_engine() == "packed"
    assert codes.ENGINE_UNKNOWN in capsys.readouterr().err
    with pytest.raises(ValueError):
        resolve_engine("compiled")
