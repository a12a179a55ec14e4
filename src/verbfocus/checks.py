"""The field type rule every config dataclass applies when it is built.

Config values arrive from JSON files, where 4.5, "false" and true are all
valid. Each field's annotation names what it may hold: an int field an
integer, a float field an integer or a float (a `float | None` field also
None), a bool field a bool. A bool is never a number.
"""

from __future__ import annotations

from dataclasses import fields

# annotation -> (the types it accepts, how a message names them)
_RULES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, type(None)), "a number or null"),
    "bool": (bool, "true or false"),
}


def check_fields(config, **lows: float) -> None:
    """Raise ValueError naming the first field of the dataclass config whose
    value breaks the rule, or is below the least value lows gives it."""
    for f in fields(config):
        if f.type not in _RULES:
            continue
        kinds, what = _RULES[f.type]
        value, low = getattr(config, f.name), lows.get(f.name)
        if (not isinstance(value, kinds) or isinstance(value, bool) != (f.type == "bool")
                or low is not None and value < low):
            bound = "" if low is None else f" >= {low}"
            raise ValueError(f"{f.name} must be {what}{bound}, got {value!r}")
