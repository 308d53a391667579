"""Run-wide settings: the one module that reads ``REPRO_*`` variables.

Every run-wide setting resolves the same way, at the moment it is
used (never at import, so a variable set after import still counts):
a :func:`parallel_config` override, then the environment variable,
then the default. :data:`SETTINGS` is the table of (field, variable,
parser, default) behind :func:`settings`; the README's environment
table lists the same variables.

Boolean variables accept ``1``/``true``/``yes``/``on`` and
``0``/``false``/``no``/``off`` (case-insensitive; empty means unset).
Any other value, and any malformed number, raises ``ValueError``
naming the variable instead of silently falling back to a default.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Union

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def parse_bool(var: str, raw: str) -> bool:
    """A boolean variable's value; raises on an unknown spelling."""
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError(f"{var}={raw!r} is not a boolean; expected one of "
                     f"{', '.join(_TRUE + _FALSE)}")


def _parse_no_cache(var: str, raw: str) -> bool:
    return not parse_bool(var, raw)


def _parse_workers(var: str, raw: str) -> int:
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"{var}={raw!r} is not an integer") from None


def _parse_timeout(var: str, raw: str) -> Optional[float]:
    """Seconds; a non-positive value means no timeout."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{var}={raw!r} is not a number of "
                         "seconds") from None
    return value if value > 0 else None


def _parse_path(var: str, raw: str) -> pathlib.Path:
    return pathlib.Path(raw)


def _parse_name(var: str, raw: str) -> str:
    return raw.strip().lower()


def _checkout_path(*parts: str, fallback: str) -> pathlib.Path:
    """``<checkout>/<parts>`` of the checkout enclosing the CWD (found
    by walking up to a directory holding ``pyproject.toml`` and
    ``benchmarks/``), else ``~/.cache/<fallback>``."""
    cwd = pathlib.Path.cwd()
    for base in (cwd, *cwd.parents):
        if ((base / "pyproject.toml").exists()
                and (base / "benchmarks").is_dir()):
            return base.joinpath(*parts)
    return pathlib.Path.home() / ".cache" / fallback


class Setting(NamedTuple):
    """One row of :data:`SETTINGS`."""

    field: str
    var: str
    parse: Callable[[str, str], Any]
    default: Callable[[], Any]


SETTINGS = (
    Setting("workers", "REPRO_WORKERS", _parse_workers, lambda: 1),
    Setting("cache_enabled", "REPRO_NO_CACHE", _parse_no_cache,
            lambda: True),
    Setting("cache_root", "REPRO_CACHE_DIR", _parse_path,
            lambda: _checkout_path("benchmarks", ".cache",
                                   fallback="repro-characterization")),
    Setting("resume", "REPRO_RESUME", parse_bool, lambda: False),
    Setting("journal_root", "REPRO_JOURNAL_DIR", _parse_path,
            lambda: _checkout_path("results", fallback="repro-results")),
    Setting("shard_timeout_s", "REPRO_SHARD_TIMEOUT_S", _parse_timeout,
            lambda: None),
    Setting("full", "REPRO_FULL", parse_bool, lambda: False),
    Setting("lp_backend", "REPRO_LP_BACKEND", _parse_name,
            lambda: "bounded"),
)


@dataclasses.dataclass(frozen=True)
class Settings:
    """The resolved run-wide settings.

    Attributes:
        workers: Processes for batch characterisation (>= 1).
        cache_enabled: Whether ``cache="auto"`` uses the on-disk
            characterisation cache.
        cache_root: Directory of the default characterisation cache.
        resume: Whether campaigns journal completed units and resume.
        journal_root: Directory holding ``<run>/journal.jsonl``.
        shard_timeout_s: Per-shard wall-time limit of the pool
            (``None``: no limit).
        full: Whether experiments default to the paper's 200 dies and
            20 trials.
        lp_backend: LinOpt's LP backend name when none is given.
    """

    workers: int
    cache_enabled: bool
    cache_root: pathlib.Path
    resume: bool
    journal_root: pathlib.Path
    shard_timeout_s: Optional[float]
    full: bool
    lp_backend: str


# The active parallel_config overrides, by field. Rebound (never
# mutated) so a restore is one assignment; a plain global, so forked
# pool workers and daemon threads see what the parent set.
_overrides: Dict[str, Any] = {}


def settings() -> Settings:
    """Resolve every setting now: override, then env, then default."""
    values = {}
    for row in SETTINGS:
        if row.field in _overrides:
            values[row.field] = _overrides[row.field]
            continue
        raw = os.environ.get(row.var, "")
        values[row.field] = (row.parse(row.var, raw) if raw.strip()
                             else row.default())
    return Settings(**values)


@contextmanager
def parallel_config(workers: Optional[int] = None,
                    cache_enabled: Optional[bool] = None,
                    cache_root: Union[str, os.PathLike, None] = None,
                    resume: Optional[bool] = None,
                    journal_root: Union[str, os.PathLike, None] = None,
                    ) -> Iterator[None]:
    """Override settings for the duration of a ``with`` block.

    Used by the CLI (for the lifetime of a run) and by benchmarks and
    tests that compare serial, sharded, cold and warm configurations.
    ``None`` leaves a setting to the environment (or an enclosing
    ``parallel_config``). The previous overrides are restored on exit,
    also when the block raises.
    """
    global _overrides
    given = {
        "workers": None if workers is None else max(1, int(workers)),
        "cache_enabled": cache_enabled,
        "cache_root": (None if cache_root is None
                       else pathlib.Path(cache_root)),
        "resume": resume,
        "journal_root": (None if journal_root is None
                         else pathlib.Path(journal_root)),
    }
    previous = _overrides
    _overrides = {**previous,
                  **{k: v for k, v in given.items() if v is not None}}
    try:
        yield
    finally:
        _overrides = previous
