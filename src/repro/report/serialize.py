"""JSON serialisation of experiment results.

Every experiment returns a (frozen) dataclass; this module converts
those — including nested dataclasses, dicts, tuples and numpy values —
into plain JSON for archival next to the rendered tables, and back
into dictionaries for downstream analysis.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Union

import numpy as np

from ..storage import write_atomic


def to_jsonable(obj: Any) -> Any:
    """Recursively convert a result object to JSON-compatible types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def dump_result(result: Any, path: Union[str, pathlib.Path]) -> None:
    """Write an experiment result as pretty-printed JSON, atomically:
    a crash leaves the previous file, never a truncated one."""
    payload = json.dumps(to_jsonable(result), indent=2, sort_keys=True)
    write_atomic(path, (payload + "\n").encode("utf-8"))


def load_result(path: Union[str, pathlib.Path]) -> Any:
    """Load a previously dumped result as plain dicts/lists."""
    return json.loads(pathlib.Path(path).read_text())
