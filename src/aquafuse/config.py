"""Typed loading of config dataclasses from JSON objects: the CLI's run
config and the simulator's scenario config."""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np


def config_from_dict(cls, data, label: str, where: str = ""):
    """``cls`` from the JSON object ``data`` at the dotted key ``where``
    ("" for the root), ``label`` naming the config. Every key must name a
    field and every value have the type of the field's default: a finite
    number for a float, an object for a nested config, finite numbers
    shaped like a tuple (any shape for an empty one), a name for an enum.
    A malformed entry raises ValueError naming it. The class's own checks
    (``require_positive`` and the like) then run; their ValueError, which
    begins with the field's name, is raised again with the dotted key."""
    if not isinstance(data, dict):
        raise ValueError(f"{label} {where or 'root'}: expected an object, "
                         f"got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    prefix = where + "." if where else ""
    unknown = [prefix + name for name in sorted(set(data) - set(fields))]
    if unknown:
        raise ValueError(f"unknown {label} keys: {unknown}")
    kwargs = {}
    for name, value in data.items():
        f = fields[name]
        default = f.default if f.default is not dataclasses.MISSING \
            else f.default_factory()
        kwargs[name] = _config_value(value, default, label, prefix + name)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{label} {prefix}{exc}") from None


def require_positive(cfg, names) -> None:
    """Refuse the config ``cfg`` unless its fields ``names`` are positive
    and finite, naming the first that is not."""
    for name in names:
        if not 0 < getattr(cfg, name) < math.inf:
            raise ValueError(f"{name} must be positive and finite")


def _config_value(value, default, label: str, key: str):
    if dataclasses.is_dataclass(default):
        return config_from_dict(type(default), value, label, key)
    if isinstance(default, enum.Enum):
        try:
            return type(default)(value)
        except ValueError:
            raise ValueError(f"{label} {key}: {value!r} is not one of "
                             f"{[m.value for m in type(default)]}") from None
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, bool):
        ok, expected = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, expected = number and isinstance(value, int), "an integer"
    elif isinstance(default, float):
        expected = "a finite number"
        try:
            ok = number and math.isfinite(value)
        except OverflowError:  # an integer beyond every float
            ok = False
        value = float(value) if ok else value
    elif isinstance(default, str):
        ok, expected = isinstance(value, str), "a string"
    elif isinstance(default, tuple):
        shape = np.shape(default)
        try:
            arr = np.asarray(value)
        except ValueError:
            arr = np.asarray(None)
        ok = (arr.shape == shape or (not default and arr.ndim > 0)) \
            and arr.dtype.kind in "iuf" and bool(np.isfinite(arr).all())
        expected = f"finite numbers shaped {list(shape)}"
        value = _tuples(arr.astype(float).tolist()) if ok else value
    else:
        raise ValueError(f"{label} {key} cannot be set from a file")
    if not ok:
        raise ValueError(f"{label} {key}: expected {expected}, "
                         f"got {value!r}")
    return value


def _tuples(x):
    return tuple(map(_tuples, x)) if isinstance(x, list) else x
