"""Scenario files: a small sectioned key-value format, plus built-ins.

The format is deliberately plain so files stay diff-friendly and auditable:
sections in brackets, `key = value` lines, `#` comments, and numbers
restricted to optionally signed decimals (no exponents).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

from .dynamics import EmergencyMatrix, RequestBehavior
from .rewards import RewardTables, RewardVariant, Scenario
from .states import ModelDims

_NUMBER_RE = re.compile(r"^[+-]?[0-9]+(\.[0-9]+)?$")

BUILTIN_NAMES = (
    "table1",
    "table2_unique",
    "table2_once",
    "table2_all",
    "modified_unique",
    "modified_once",
    "modified_all",
)


class ScenarioParseError(ValueError):
    """Carries every violation found in a scenario file, with line numbers."""

    def __init__(self, source: str, errors: list[str]):
        self.source = source
        self.errors = errors
        super().__init__(f"{source}: " + "; ".join(errors))


class _Collector:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def add(self, line: int, msg: str) -> None:
        self.errors.append(f"line {line}: {msg}")


def _parse_number(text: str, line: int, errs: _Collector) -> float | None:
    if not _NUMBER_RE.match(text):
        errs.add(line, f"malformed number {text!r} (signed decimal, no exponent)")
        return None
    return float(text)


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse and fully validate a scenario file; raises ScenarioParseError."""
    errs = _Collector()
    section = None
    model: dict[str, tuple[list[str], int]] = {}
    emergency: dict[str, tuple[float, int]] = {}
    reward_access: dict[tuple[str, str], float] = {}
    reward_resource: dict[str, float] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("model", "emergency", "reward_access", "reward_resource"):
                errs.add(lineno, f"unknown section [{section}]")
                section = None
            continue
        if section is None:
            errs.add(lineno, f"content outside any known section: {line!r}")
            continue
        if "=" not in line:
            errs.add(lineno, f"expected 'key = value', got {line!r}")
            continue
        left, right = (part.strip() for part in line.split("=", 1))
        keys = left.split()
        values = right.split()

        if section == "model":
            if len(keys) != 1:
                errs.add(lineno, f"model keys take a single name, got {left!r}")
                continue
            if keys[0] in model:
                errs.add(lineno, f"duplicate model key {keys[0]!r}")
                continue
            model[keys[0]] = (values, lineno)
        elif section == "emergency":
            if len(keys) != 1 or keys[0] not in ("calm_to_alert", "alert_to_alert"):
                errs.add(lineno, f"unknown emergency key {left!r}")
                continue
            if keys[0] in emergency:
                errs.add(lineno, f"duplicate emergency key {keys[0]!r}")
                continue
            value = _parse_number(right, lineno, errs)
            if value is None:
                continue
            if not 0.0 <= value <= 1.0:
                errs.add(lineno, f"{keys[0]} = {right} outside [0, 1]")
                continue
            emergency[keys[0]] = (value, lineno)
        elif section == "reward_access":
            if len(keys) != 2:
                errs.add(lineno, f"reward_access lines are 'user resource = value', got {line!r}")
                continue
            if (keys[0], keys[1]) in reward_access:
                errs.add(lineno, f"duplicate reward_access entry {keys[0]} {keys[1]}")
                continue
            value = _parse_number(right, lineno, errs)
            if value is not None:
                reward_access[(keys[0], keys[1])] = value
        else:  # reward_resource
            if len(keys) != 1:
                errs.add(lineno, f"reward_resource lines are 'resource = value', got {line!r}")
                continue
            if keys[0] in reward_resource:
                errs.add(lineno, f"duplicate reward_resource entry {keys[0]}")
                continue
            value = _parse_number(right, lineno, errs)
            if value is not None:
                reward_resource[keys[0]] = value

    def model_value(key: str) -> tuple[list[str] | None, int]:
        if key not in model:
            errs.add(0, f"missing [model] key {key!r}")
            return None, 0
        return model[key]

    users, users_line = model_value("users")
    resources, resources_line = model_value("resources")
    beta_tokens, beta_line = model_value("beta")
    behavior_tokens, behavior_line = model_value("behavior")
    variant_tokens, variant_line = model_value("reward_variant")

    if users is not None and len(set(users)) != len(users):
        errs.add(users_line, "duplicate user labels")
    if resources is not None and len(set(resources)) != len(resources):
        errs.add(resources_line, "duplicate resource labels")

    beta = None
    if beta_tokens is not None:
        beta = _parse_number(" ".join(beta_tokens), beta_line, errs)
        if beta is not None and not 0.0 <= beta < 1.0:
            errs.add(beta_line, f"beta = {beta} outside [0, 1)")
            beta = None

    behavior = None
    if behavior_tokens is not None:
        try:
            behavior = RequestBehavior(" ".join(behavior_tokens))
        except ValueError:
            errs.add(behavior_line, f"unknown behavior {' '.join(behavior_tokens)!r}")

    variant = None
    if variant_tokens is not None:
        try:
            variant = RewardVariant(" ".join(variant_tokens))
        except ValueError:
            errs.add(variant_line, f"unknown reward_variant {' '.join(variant_tokens)!r}")

    for key in ("calm_to_alert", "alert_to_alert"):
        if key not in emergency:
            errs.add(0, f"missing [emergency] key {key!r}")

    if users is not None and resources is not None and not errs.errors:
        access_tab: dict[tuple[int, int], float] = {}
        for (uname, rname), value in reward_access.items():
            if uname not in users:
                errs.add(0, f"reward_access entry for undeclared user {uname!r}")
            elif rname not in resources:
                errs.add(0, f"reward_access entry for undeclared resource {rname!r}")
            else:
                access_tab[(users.index(uname), resources.index(rname))] = value
        for uname in users:
            for rname in resources:
                if uname in users and rname in resources:
                    if (uname, rname) not in reward_access:
                        errs.add(0, f"missing reward_access entry for {uname} {rname}")
        resource_tab = []
        for rname in resources:
            if rname not in reward_resource:
                errs.add(0, f"missing reward_resource entry for {rname}")
            else:
                resource_tab.append(reward_resource[rname])
        for rname in reward_resource:
            if rname not in resources:
                errs.add(0, f"reward_resource entry for undeclared resource {rname!r}")

        if not errs.errors:
            try:
                return Scenario(
                    dims=ModelDims(len(users), len(resources)),
                    user_names=tuple(users),
                    resource_names=tuple(resources),
                    rewards=RewardTables(access_tab, tuple(resource_tab)),
                    emergency=EmergencyMatrix.from_rates(
                        emergency["calm_to_alert"][0], emergency["alert_to_alert"][0]
                    ),
                    behavior=behavior,
                    variant=variant,
                    beta=beta,
                )
            except ValueError as exc:
                errs.add(0, str(exc))

    raise ScenarioParseError(source, errs.errors)


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
        f"calm_to_alert = {_fmt_num(sc.emergency.prob_calm_to_alert)}",
        f"alert_to_alert = {_fmt_num(sc.emergency.prob_alert_to_alert)}",
        "",
        "[reward_access]",
    ]
    for u, uname in enumerate(sc.user_names):
        for r, rname in enumerate(sc.resource_names):
            lines.append(f"{uname} {rname} = {_fmt_num(sc.rewards.reward_access[(u, r)])}")
    lines.append("")
    lines.append("[reward_resource]")
    for r, rname in enumerate(sc.resource_names):
        lines.append(f"{rname} = {_fmt_num(sc.rewards.reward_resource[r])}")
    return "\n".join(lines) + "\n"


def scenario_fingerprint(sc: Scenario) -> str:
    return hashlib.sha256(render_scenario(sc).encode()).hexdigest()[:16]


_CLASSIC_REWARDS = RewardTables(
    reward_access={(0, 0): 6.0, (0, 1): 10.0, (1, 0): 4.0, (1, 1): -10.0},
    reward_resource=(0.0, -20.0),
)


def _classic_scenario(
    beta: float,
    emergency: EmergencyMatrix,
    behavior: RequestBehavior,
    variant: RewardVariant,
) -> Scenario:
    # users alice/bob, resources low/high in table column order
    return Scenario(
        dims=ModelDims(2, 2),
        user_names=("alice", "bob"),
        resource_names=("low", "high"),
        rewards=_CLASSIC_REWARDS,
        emergency=emergency,
        behavior=behavior,
        variant=variant,
        beta=beta,
    )


def builtin_scenario(name: str) -> Scenario:
    """Named reference configurations with known decision-value tables."""
    if name == "table1":
        return _classic_scenario(
            0.0, EmergencyMatrix.identity(), RequestBehavior.UNIQUE, RewardVariant.EPS_ZERO
        )
    drifting = EmergencyMatrix.from_rates(0.1, 1.0)
    variants = {
        "table2_unique": (RequestBehavior.UNIQUE, RewardVariant.EPS_ZERO),
        "table2_once": (RequestBehavior.ONCE, RewardVariant.EPS_ZERO),
        "table2_all": (RequestBehavior.ALL, RewardVariant.EPS_ZERO),
        "modified_unique": (RequestBehavior.UNIQUE, RewardVariant.EPS_ACCRUES),
        "modified_once": (RequestBehavior.ONCE, RewardVariant.EPS_ACCRUES),
        "modified_all": (RequestBehavior.ALL, RewardVariant.EPS_ACCRUES),
    }
    if name not in variants:
        raise KeyError(f"unknown builtin scenario {name!r}; choose from {BUILTIN_NAMES}")
    behavior, variant = variants[name]
    return _classic_scenario(0.9, drifting, behavior, variant)
