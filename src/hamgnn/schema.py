"""JSON form of the config dataclasses, read from their fields.

Each config dataclass is the only declaration of its schema: the keys a
config section may hold, their JSON types and the echo written into
metrics.json and checkpoints all come from ``dataclasses.fields`` and the
field annotations.
"""

from __future__ import annotations

import dataclasses
import types
import typing

from .hamiltonian import Signature

__all__ = ["check_json_value", "config_from_dict", "config_to_dict"]

_EXPECTED = {int: "an integer", float: "a number", str: "a string",
             bool: "true or false", Signature: "a list [r, s] of two integers"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_json_value(value, hint, name: str):
    """``value`` converted to the annotated type ``hint``, or a ValueError
    naming ``name``.  Integers are accepted where a number is expected;
    ``Signature`` is written as ``[r, s]``; an optional field also takes null.
    """
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (inner,) = set(typing.get_args(hint)) - {type(None)}
        return None if value is None else check_json_value(value, inner, name)
    if hint is Signature:
        if isinstance(value, list) and len(value) == 2 and all(map(_is_int, value)):
            return Signature(*value)
    elif hint is float:
        if _is_int(value) or isinstance(value, float):
            return float(value)
    elif hint is int:
        if _is_int(value):
            return value
    elif isinstance(value, hint):  # str and bool
        return value
    raise ValueError(f"{name} must be {_EXPECTED[hint]}, got {value!r}")


def config_from_dict(cls, section, where: str, *, complete: bool = False, **fixed):
    """Build the config dataclass ``cls`` from the JSON object ``section``.

    Its keys are the fields of ``cls`` other than those passed in ``fixed``.
    An unknown key, a value of the wrong type or, with ``complete``, a
    missing key fails with a ValueError naming ``where.key``; otherwise a
    missing key takes the field's default.
    """
    if not isinstance(section, dict):
        raise ValueError(f"section {where!r} must be an object")
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls) if f.name not in fixed]
    for key in section:
        if key not in names:
            raise ValueError(f"unknown key {where}.{key}")
    missing = [f"{where}.{name}" for name in names if name not in section]
    if complete and missing:
        raise ValueError(f"missing key {', '.join(missing)}")
    values = {key: check_json_value(value, hints[key], f"{where}.{key}")
              for key, value in section.items()}
    return cls(**values, **fixed)


def config_to_dict(cfg, *skip: str) -> dict:
    """JSON object of a config dataclass: every field not named in ``skip``,
    in declaration order."""
    return {f.name: _to_json(getattr(cfg, f.name))
            for f in dataclasses.fields(cfg) if f.name not in skip}


def _to_json(value):
    return [value.r, value.s] if isinstance(value, Signature) else value
