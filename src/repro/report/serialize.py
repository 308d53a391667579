"""JSON conversion of experiment results.

Every experiment returns a (frozen) dataclass; :func:`to_jsonable`
converts those — including nested dataclasses, dicts, tuples and numpy
values — into plain JSON-compatible types.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np


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
