"""Scenario files: a small sectioned key-value format, plus built-ins.

The format is deliberately plain so files stay diff-friendly and auditable:
sections in brackets (a section may be reopened), `key = value` lines, `#`
comments, and numbers restricted to optionally signed decimals (no exponents).
parse_scenario reads a file in two passes: every line into the entries that
_SECTIONS allows, then the entries into a Scenario.  It refuses unknown
sections and keys and reports every violation together, each with its line
where it has one.  Labels obey rewards.check_labels, so every Scenario renders
to a file that parses back to it and exports a table that import_values reads.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from typing import Any, Callable

import numpy as np

from .dynamics import RequestBehavior
from .rewards import RewardVariant, Scenario, check_labels

_NUMBER_RE = re.compile(r"^[+-]?[0-9]+(\.[0-9]+)?$")


class ScenarioParseError(ValueError):
    """Carries every violation found in a scenario file, with line numbers."""

    def __init__(self, source: str, errors: list[str]):
        self.source = source
        self.errors = errors
        super().__init__(f"{source}: " + "; ".join(errors))


_RATES = ("calm_to_alert", "alert_to_alert")

# Each line of a section is `names = value`: shape names the words left of '=',
# keys the names allowed (None: any label; pass 2 checks it against [model]).
_SECTIONS: dict[str, tuple[tuple[str, ...], tuple[str, ...] | None]] = {
    "model": (("name",), ("users", "resources", "beta", "behavior", "reward_variant")),
    "emergency": (("name",), _RATES),
    "reward_access": (("user", "resource"), None),
    "reward_resource": (("resource",), None),
}

_INTERVALS = {"[0, 1]": lambda x: 0.0 <= x <= 1.0, "[0, 1)": lambda x: 0.0 <= x < 1.0}

_Entry = tuple[str, int]  # value text, line number


def _read_entries(text: str, errors: list[str]) -> dict[str, dict[tuple[str, ...], _Entry]]:
    """Pass 1: entries[section][names] for every line, recording each misplaced line."""
    entries: dict[str, dict[tuple[str, ...], _Entry]] = {name: {} for name in _SECTIONS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if section is None:
            problem = f"content outside any known section: {line!r}"
        elif "=" not in line:
            problem = f"expected 'key = value', got {line!r}"
        else:
            shape, keys = _SECTIONS[section]
            left, value = (part.strip() for part in line.split("=", 1))
            names = tuple(left.split())
            if len(names) != len(shape):
                problem = f"[{section}] lines are '{' '.join(shape)} = value', got {line!r}"
            elif keys is not None and names[0] not in keys:
                problem = f"unknown [{section}] key {left!r}"
            elif names in entries[section]:
                problem = f"duplicate [{section}] entry {left!r}"
            else:
                entries[section][names] = (value, lineno)
                continue
        errors.append(f"line {lineno}: {problem}")
    return entries


def _number(text: str, interval: str | None = None) -> float:
    """The finite signed decimal that text writes, checked against interval if given."""
    if not _NUMBER_RE.match(text) or not math.isfinite(float(text)):
        raise ValueError(f"malformed number {text!r} (finite signed decimal, no exponent)")
    if interval is not None and not _INTERVALS[interval](float(text)):
        raise ValueError(f"{text} outside {interval}")
    return float(text)


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse and fully validate a scenario file; raises ScenarioParseError."""
    errors: list[str] = []
    entries = _read_entries(text, errors)

    def value(section: str, names: tuple[str, ...], convert: Callable[[str], Any]) -> Any:
        """Pass 2: convert(value text) of an entry, or None after recording why not."""
        if names not in entries[section]:
            errors.append(f"missing [{section}] entry {' '.join(names)}")
            return None
        text, line = entries[section][names]
        try:
            return convert(text)
        except ValueError as exc:
            errors.append(f"line {line}: {' '.join(names)}: {exc}")
            return None

    def table(section: str, axes: tuple[tuple[str, ...] | None, ...]) -> tuple:
        """The section's numbers, one per combination of labels, in label-product order."""
        for names, (_, line) in entries[section].items():
            for kind, name, axis in zip(_SECTIONS[section][0], names, axes):
                if axis is not None and name not in axis:
                    errors.append(f"line {line}: undeclared {kind} {name!r}")
        if None in axes:  # without the labels only the numbers can be checked
            for names in entries[section]:
                value(section, names, _number)
            return ()
        return tuple(value(section, names, _number) for names in itertools.product(*axes))

    users = value("model", ("users",), lambda t: check_labels("user", tuple(t.split())))
    resources = value(
        "model", ("resources",), lambda t: check_labels("resource", tuple(t.split()))
    )
    beta = value("model", ("beta",), lambda t: _number(t, "[0, 1)"))
    behavior = value("model", ("behavior",), RequestBehavior)
    variant = value("model", ("reward_variant",), RewardVariant)
    rates = [value("emergency", (key,), lambda t: _number(t, "[0, 1]")) for key in _RATES]
    access = table("reward_access", (users, resources))
    penalties = table("reward_resource", (resources,))

    if not errors:
        try:
            return Scenario(
                user_names=users,
                resource_names=resources,
                reward_access=access,
                reward_resource=penalties,
                **dict(zip(_RATES, rates)),
                behavior=behavior,
                variant=variant,
                beta=beta,
            )
        except ValueError as exc:
            errors.append(str(exc))
    raise ScenarioParseError(source, errors)


def _fmt_num(x: float) -> str:
    # the shortest digits that read back as x, without the exponent the format forbids
    return np.format_float_positional(x, trim="-")


def render_scenario(sc: Scenario) -> str:
    """Canonical rendering; parse(render(sc)) == sc."""
    lines = [
        "[model]",
        "users = " + " ".join(sc.user_names),
        "resources = " + " ".join(sc.resource_names),
        f"beta = {_fmt_num(sc.beta)}",
        f"behavior = {sc.behavior.value}",
        f"reward_variant = {sc.variant.value}",
        "",
        "[emergency]",
        f"calm_to_alert = {_fmt_num(sc.calm_to_alert)}",
        f"alert_to_alert = {_fmt_num(sc.alert_to_alert)}",
        "",
        "[reward_access]",
    ]
    labels = itertools.product(sc.user_names, sc.resource_names)
    lines += [f"{u} {r} = {_fmt_num(x)}" for (u, r), x in zip(labels, sc.reward_access)]
    lines += ["", "[reward_resource]"]
    lines += [f"{r} = {_fmt_num(x)}" for r, x in zip(sc.resource_names, sc.reward_resource)]
    return "\n".join(lines) + "\n"


def scenario_fingerprint(sc: Scenario) -> str:
    return hashlib.sha256(render_scenario(sc).encode()).hexdigest()[:16]


_DRIFTING = (0.1, 1.0)
# the paper's tables: name -> (beta, _RATES, behavior, variant), in BUILTIN_NAMES order
_BUILTINS = {
    "table1": (0.0, (0.0, 1.0), RequestBehavior.UNIQUE, RewardVariant.EPS_ZERO),
    "table2_unique": (0.9, _DRIFTING, RequestBehavior.UNIQUE, RewardVariant.EPS_ZERO),
    "table2_once": (0.9, _DRIFTING, RequestBehavior.ONCE, RewardVariant.EPS_ZERO),
    "table2_all": (0.9, _DRIFTING, RequestBehavior.ALL, RewardVariant.EPS_ZERO),
    "modified_unique": (0.9, _DRIFTING, RequestBehavior.UNIQUE, RewardVariant.EPS_ACCRUES),
    "modified_once": (0.9, _DRIFTING, RequestBehavior.ONCE, RewardVariant.EPS_ACCRUES),
    "modified_all": (0.9, _DRIFTING, RequestBehavior.ALL, RewardVariant.EPS_ACCRUES),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_scenario(name: str) -> Scenario:
    """Named reference configurations with known decision-value tables."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin scenario {name!r}; choose from {BUILTIN_NAMES}")
    beta, rates, behavior, variant = _BUILTINS[name]
    # users alice/bob, resources low/high in table column order; grants in bit order
    return Scenario(
        user_names=("alice", "bob"),
        resource_names=("low", "high"),
        reward_access=(6.0, 10.0, 4.0, -10.0),
        reward_resource=(0.0, -20.0),
        **dict(zip(_RATES, rates)),
        behavior=behavior,
        variant=variant,
        beta=beta,
    )
