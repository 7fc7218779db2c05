"""Declared settings: what each config field may hold, and the one check.

Every field of a config section (``ExperimentConfig``, ``PlantConfig``,
``FleetConfig``, ``channel.ChannelParams`` and ``agent.PpoHyperparams``)
and of a pinned fleet record (``sensing.SensingAgentSpec``) is declared
with ``setting(default, rule)``, next to its default; a record's fields
have none (``dataclasses.MISSING``), so each is required. A rule names the
field's type and range: ``within("[0, 1]")`` a number in an interval,
``at_least(1)`` an integer, ``FLAG`` true or false, ``one_of(names)`` a
name, ``numbers(...)`` and ``integers(...)`` lists of them, ``TEXT`` a
string or null and ``RECORDS`` a list or null. ``SECTION`` marks a nested
section, whose fields ``check`` checks after its parent's.

``check`` is the package's only per-field check of a setting: it checks
every declared field of a section or record, all types first and then all
ranges, so a value of the wrong type is named by its field before any
comparison, and then each nested section in field order. A bad value
raises ``ConfigurationError`` as ``<section>.<field> must ...: <value>``.
Checks that span several fields or settings (a cap per plant feature, a
generated fleet's coverage and distances, a fleet's features, ids and
summed precision, the channel's derived values, the link powers) stay with
the code that builds from them.
"""

from __future__ import annotations

import functools
import math
import numbers as _numbers
from dataclasses import field, fields
from typing import NamedTuple

from .errors import ConfigurationError


class Rule(NamedTuple):
    """What a field must hold: a value passing ``test``, described by
    ``what`` ("a number"), and, when ``bounds`` is given, ``lo <= value <=
    hi`` (for a list, ``many``, each of its values), described by
    ``bounds`` ("lie in [0, 1]"). A ``one_of`` rule lists its ``choices``
    when a check fails, so that a name registered later counts. A rule
    without a ``test`` is checked elsewhere, as its ``what`` says."""

    what: str
    test: object = None
    lo: float = -math.inf
    hi: float = math.inf
    bounds: str = ""
    many: bool = False
    choices: object = None


def is_number(value) -> bool:
    """Whether ``value`` is a real number and not a bool. A float or an int
    is answered without asking ``numbers.Real``, whose check costs more."""
    return (type(value) in (float, int)
            or isinstance(value, _numbers.Real) and not isinstance(value, bool))


def is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool (2.0 is not one)."""
    return (type(value) is int
            or isinstance(value, _numbers.Integral) and not isinstance(value, bool))


def _interval(text: str) -> tuple:
    """The closed float bounds of the interval ``text``, such as "[0, 1e6]"
    or "(0, inf)": an open end moves to the next float inward, so that
    ``lo <= value <= hi`` tests floats and ints alike, and a NaN fails it."""
    lo, hi = (float(end) for end in text[1:-1].split(","))
    if text[0] == "(":
        lo = math.nextafter(lo, math.inf)
    if text[-1] == ")":
        hi = math.nextafter(hi, -math.inf)
    return lo, hi


def within(interval: str) -> Rule:
    """A number in ``interval``, such as "[0, 1]" or "(0, inf)"."""
    return Rule("a number", is_number, *_interval(interval), f"lie in {interval}")


def at_least(n: int) -> Rule:
    """An integer >= ``n``."""
    return Rule("an integer", is_integer, n, math.inf, f"be >= {n}")


def one_of(choices) -> Rule:
    """A name in ``choices``: the values of an Enum class, or a registry
    that is read at check time."""
    if isinstance(choices, type):
        choices = tuple(member.value for member in choices)
    return Rule("one of", lambda v: isinstance(v, str) and v in choices,
                choices=choices)


def numbers(interval: str, length: int = 0) -> Rule:
    """A list of ``length`` numbers (any number but none when 0), each in
    ``interval``."""
    def test(v):
        return (isinstance(v, (list, tuple)) and 0 < len(v) == (length or len(v))
                and all(map(is_number, v)))
    what = f"a list of {length} numbers" if length else "a non-empty list of numbers"
    return Rule(what, test, *_interval(interval), f"hold values in {interval}", True)


def integers(n: int) -> Rule:
    """A list of integers, each >= ``n``."""
    def test(v):
        return isinstance(v, (list, tuple)) and all(map(is_integer, v))
    return Rule("a list of integers", test, n, math.inf, f"hold values >= {n}", True)


FLAG = Rule("true or false", lambda v: isinstance(v, bool))
TEXT = Rule("a string or null", lambda v: v is None or isinstance(v, str))
# each record is checked when the fleet is indexed (sensing.FleetIndex)
RECORDS = Rule("a list of agent records or null",
               lambda v: v is None or isinstance(v, (list, tuple)))
SECTION = Rule("a section, whose fields are checked after its parent's")


def setting(default, rule: Rule):
    """A config field with ``default`` and its ``rule``; a class default is
    a section, built afresh for each config, and ``dataclasses.MISSING``
    makes the field required."""
    if isinstance(default, type):
        return field(default_factory=default, metadata={"rule": rule})
    return field(default=default, metadata={"rule": rule})


@functools.cache
def _tables(cls) -> tuple:
    """The type and the range rows of ``cls``'s rules and the names of its
    nested sections, read once per class."""
    rules = [(f.name, f.metadata["rule"]) for f in fields(cls)
             if f.metadata["rule"].test is not None]
    types = tuple((name, r.test, r.what if r.choices is None else r.choices)
                  for name, r in rules)
    ranges = tuple((name, r.lo, r.hi, r.bounds, r.many) for name, r in rules if r.bounds)
    sections = tuple(f.name for f in fields(cls) if f.metadata["rule"] is SECTION)
    return types, ranges, sections


def check(section, prefix: str = "") -> None:
    """Check every declared field of the config section or record
    ``section`` against its rule, types first and then ranges, and then
    each nested section with the prefix ``prefix`` + its name + ".";
    raises ConfigurationError naming the first bad field as ``prefix`` +
    its name. A float is taken as a number without asking ``numbers.Real``,
    whose check costs more than the rest."""
    types, ranges, sections = _tables(type(section))
    for name, test, what in types:
        value = getattr(section, name)
        if not (type(value) is float and test is is_number or test(value)):
            if not isinstance(what, str):
                what = f"one of {list(what)}"
            raise ConfigurationError(f"{prefix}{name} must be {what}: {value!r}")
    for name, lo, hi, bounds, many in ranges:
        value = getattr(section, name)
        if not (all(lo <= v <= hi for v in value) if many else lo <= value <= hi):
            raise ConfigurationError(f"{prefix}{name} must {bounds}: {value!r}")
    for name in sections:
        check(getattr(section, name), f"{prefix}{name}.")
