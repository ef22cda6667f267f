"""Each option's default and rule, declared once on its dataclass field."""

from __future__ import annotations

import math
from dataclasses import field, fields


def option(default, ok, rule):
    """A dataclass field whose values must pass ok(); rule says which in words."""
    return field(default=default, metadata={"ok": ok, "rule": rule})


def check_field(f, value):
    if not f.metadata["ok"](value):
        raise ValueError(f"{f.name} must be {f.metadata['rule']}, got {value!r}")
    return value


class Options:
    """Base of the option dataclasses: validate() checks each field's rule."""

    def validate(self):
        for f in fields(self):
            check_field(f, getattr(self, f.name))


# (ok, rule) pairs to unpack into option()
COUNT = (lambda v: v >= 1), ">= 1"
SEED = (lambda v: v >= 0), ">= 0"
FINITE = math.isfinite, "finite"
NONNEGATIVE = (lambda v: 0.0 <= v < math.inf), "finite and >= 0"
POSITIVE = (lambda v: 0.0 < v < math.inf), "finite and > 0"
RATE = (lambda v: 0.0 <= v <= 1.0), "in [0, 1]"
