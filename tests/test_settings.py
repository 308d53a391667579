"""Tests for ``repro.settings``: the one table of run-wide settings.

Every ``REPRO_*`` variable resolves through :data:`SETTINGS`: a
``parallel_config`` override, then the environment, then the default.
The guard tests pin that no other module in ``src/repro`` reads the
environment, and that the README documents exactly the table.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pathlib
import re
import typing

import pytest

from repro.settings import SETTINGS, Settings, parallel_config, settings

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

FIELDS = [row.field for row in SETTINGS]
VARS = {row.field: row.var for row in SETTINGS}

# Per field: an env spelling, the value it resolves to, and a
# parallel_config value that differs from it (None where
# parallel_config has no parameter for the field).
CASES = {
    "workers": ("3", 3, 5),
    "cache_enabled": ("1", False, True),
    "cache_root": ("env-cache", pathlib.Path("env-cache"),
                   pathlib.Path("cfg-cache")),
    "resume": ("yes", True, False),
    "journal_root": ("env-results", pathlib.Path("env-results"),
                     pathlib.Path("cfg-results")),
    "shard_timeout_s": ("2.5", 2.5, None),
    "full": ("on", True, None),
    "lp_backend": (" Reference ", "reference", None),
}
OVERRIDABLE = [field for field in FIELDS if CASES[field][2] is not None]

BOOL_FIELDS = [field for field, hint
               in typing.get_type_hints(Settings).items() if hint is bool]
# REPRO_NO_CACHE is the one negated boolean: true turns the cache off.
NEGATED = {"cache_enabled"}
TRUE_SPELLINGS = ["1", "true", "yes", "on", "TRUE", "Yes", " On "]
FALSE_SPELLINGS = ["", "0", "false", "no", "off", "FALSE", "No", "OFF"]
BAD_SPELLINGS = ["2", "maybe", "y", "enabled"]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for row in SETTINGS:
        monkeypatch.delenv(row.var, raising=False)


class TestTable:
    def test_table_rows_are_the_dataclass_fields(self):
        assert FIELDS == [f.name for f in dataclasses.fields(Settings)]
        assert sorted(CASES) == sorted(FIELDS)
        assert len(set(VARS.values())) == len(FIELDS)
        assert all(var.startswith("REPRO_") for var in VARS.values())
        assert sorted(BOOL_FIELDS) == ["cache_enabled", "full", "resume"]

    def test_parallel_config_parameters(self):
        params = inspect.signature(parallel_config).parameters
        assert list(params) == OVERRIDABLE

    def test_defaults(self, tmp_path, monkeypatch):
        (tmp_path / "pyproject.toml").touch()
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "a" / "b").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "a" / "b")
        assert settings() == Settings(
            workers=1, cache_enabled=True,
            cache_root=tmp_path / "benchmarks" / ".cache",
            resume=False, journal_root=tmp_path / "results",
            shard_timeout_s=None, full=False, lp_backend="bounded")

    def test_default_roots_outside_a_checkout(self, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        current = settings()
        home = tmp_path / "home" / ".cache"
        assert current.cache_root == home / "repro-characterization"
        assert current.journal_root == home / "repro-results"


@pytest.mark.parametrize("field", FIELDS)
def test_env_resolves_field(field, monkeypatch):
    raw, expected, _ = CASES[field]
    monkeypatch.setenv(VARS[field], raw)
    assert getattr(settings(), field) == expected


@pytest.mark.parametrize("field", OVERRIDABLE)
def test_parallel_config_beats_env_and_restores(field, monkeypatch):
    raw, from_env, override = CASES[field]
    monkeypatch.setenv(VARS[field], raw)
    with parallel_config(**{field: override}):
        assert getattr(settings(), field) == override
        with parallel_config():
            assert getattr(settings(), field) == override
    assert getattr(settings(), field) == from_env


@pytest.mark.parametrize("field", OVERRIDABLE)
def test_parallel_config_restores_on_exception(field, monkeypatch):
    raw, from_env, override = CASES[field]
    monkeypatch.setenv(VARS[field], raw)
    with pytest.raises(RuntimeError, match="boom"):
        with parallel_config(**{field: override}):
            raise RuntimeError("boom")
    assert getattr(settings(), field) == from_env


@pytest.mark.parametrize("spelling", TRUE_SPELLINGS + FALSE_SPELLINGS)
@pytest.mark.parametrize("field", BOOL_FIELDS)
def test_boolean_spellings(field, spelling, monkeypatch):
    truth = spelling in TRUE_SPELLINGS
    monkeypatch.setenv(VARS[field], spelling)
    assert getattr(settings(), field) is (truth != (field in NEGATED))


@pytest.mark.parametrize("spelling", BAD_SPELLINGS)
@pytest.mark.parametrize("field", BOOL_FIELDS)
def test_unknown_boolean_spelling_raises(field, spelling, monkeypatch):
    monkeypatch.setenv(VARS[field], spelling)
    with pytest.raises(ValueError, match=VARS[field]):
        settings()


@pytest.mark.parametrize("var,raw", [
    ("REPRO_WORKERS", "four"),
    ("REPRO_WORKERS", "2.5"),
    ("REPRO_SHARD_TIMEOUT_S", "5m"),
])
def test_malformed_number_raises(var, raw, monkeypatch):
    monkeypatch.setenv(var, raw)
    with pytest.raises(ValueError, match=f"{var}='{re.escape(raw)}'"):
        settings()


@pytest.mark.parametrize("var,raw,field,expected", [
    ("REPRO_WORKERS", "0", "workers", 1),
    ("REPRO_WORKERS", "-3", "workers", 1),
    ("REPRO_SHARD_TIMEOUT_S", "0", "shard_timeout_s", None),
    ("REPRO_SHARD_TIMEOUT_S", "-1.5", "shard_timeout_s", None),
])
def test_numeric_clamps(var, raw, field, expected, monkeypatch):
    monkeypatch.setenv(var, raw)
    assert getattr(settings(), field) == expected


def _environment_reads(path: pathlib.Path):
    """Lines of ``path`` that touch ``os.environ`` or ``os.getenv``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv")
                   for alias in node.names):
                yield node.lineno


def test_only_settings_reads_the_environment():
    offenders = [f"{path.relative_to(SRC)}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 if path != SRC / "settings.py"
                 for line in _environment_reads(path)]
    assert offenders == []
    assert list(_environment_reads(SRC / "settings.py"))


def test_readme_table_lists_exactly_the_settings():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Environment variables", 1)[1]
    section = section.split("\n## ", 1)[0]
    names = re.findall(r"^\|\s*`(REPRO_[A-Z_]+)`", section, re.MULTILINE)
    assert sorted(names) == sorted(VARS.values())
