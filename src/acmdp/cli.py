"""Command-line front end: solve, decisions, sweep, eval, selfcheck."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import BUILTIN_NAMES, ScenarioParseError, builtin_scenario, parse_scenario
from .experiments import SweepSpec, run_sweep, self_check, sweep_csv
from .policy import (
    SOLVERS,
    ValueFileError,
    export_values,
    import_values,
    solve_scenario,
)
from .rewards import Scenario
from .states import Access, Emergency, set_insert
from .value_iteration import ConvergenceError


SOLVER_HELP = "lp: the LP by policy iteration, exact; vi: value iteration (default %(default)s)"
# from this size on a float's spacing is at least 0.125, so two decimals say nothing
EXPONENT_FROM = 1e15


def _shown(value: float) -> str:
    """A decision value as decisions and eval print it: two decimals, or exponent form when huge."""
    return f"{value:.2f}" if abs(value) < EXPONENT_FROM else f"{value:.2e}"


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if args.builtin:
        return builtin_scenario(args.builtin)
    text = args.scenario.read_text(encoding="utf-8-sig")
    return parse_scenario(text, source=str(args.scenario))


def cmd_solve(args: argparse.Namespace) -> int:
    sc = _load_scenario(args)
    solution = solve_scenario(sc, solver=args.solver)
    unit = "policy bases" if args.solver == "lp" else "iterations"
    print(f"states: {solution.system.num_states}")
    print(f"{unit}: {solution.iterations}")
    print(f"max residual: {solution.report.residual:.3g}")
    if args.out:
        export_values(solution, args.out)
        print(f"values written to {args.out}")
    return 0


def cmd_decisions(args: argparse.Namespace) -> int:
    sc = _load_scenario(args)
    solution = solve_scenario(sc, solver=args.solver)

    accesses = list(sc.dims.accesses())
    headers = [
        f"({sc.user_names[a.user]}, {sc.resource_names[a.resource]})" for a in accesses
    ]
    col_width = max(12, max(len(h) for h in headers) + 2)
    print("Status  Decision" + "".join(h.rjust(col_width) for h in headers))
    csv_lines = ["status,user,resource,dv_deny,dv_allow,chosen,gap"]
    for emergency in (Emergency.CALM, Emergency.ALERT):
        # the (status, nothing granted, access) states; accesses are requests 0.. in bit order
        rows = sc.dims.position(int(emergency), 0, np.arange(len(accesses)))
        status = emergency.label.capitalize().ljust(8)
        for act_idx, act_label in ((0, "deny"), (1, "allow")):
            cells = [_shown(dv).rjust(col_width) for dv in solution.dv[act_idx, rows]]
            print(f"{status}{act_label:<8}" + "".join(cells))
        for a, i in zip(accesses, rows):
            csv_lines.append(
                ",".join(
                    [
                        emergency.label,
                        sc.user_names[a.user],
                        sc.resource_names[a.resource],
                        f"{solution.dv[0, i]:.12g}",
                        f"{solution.dv[1, i]:.12g}",
                        solution.policy.action(i).label,
                        f"{solution.policy.gaps[i]:.12g}",
                    ]
                )
            )
    if args.csv:
        Path(args.csv).write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
        print(f"csv written to {args.csv}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    sc = _load_scenario(args)
    spec = SweepSpec(sc, start=args.start, stop=args.stop, step=args.step)
    result = run_sweep(spec, solver=args.solver)
    csv_text = sweep_csv(result)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(f"csv written to {args.out}")
    else:
        sys.stdout.write(csv_text)
    for crossover in result.crossovers:
        user = sc.user_names[crossover.access.user]
        resource = sc.resource_names[crossover.access.resource]
        if crossover.root is None:
            print(f"crossover ({user}, {resource}): none on the grid")
        else:
            print(
                f"crossover ({user}, {resource}): {crossover.root:.4f} "
                f"in [{crossover.bracket[0]:.4f}, {crossover.bracket[1]:.4f}]"
            )
    return 0


def _decoded(text: str) -> str:
    """An argument as UTF-8 text: under a locale that cannot decode its bytes, such as C's
    ASCII, Python hands them over as lone surrogates (PEP 383), which no label matches."""
    try:
        return text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError:
        raise argparse.ArgumentTypeError(f"{text!r} is not UTF-8 text") from None


def _parse_access(text: str, sc: Scenario) -> Access:
    """An access 'user:resource' named with the scenario's labels."""
    if ":" not in text:
        raise ValueError(f"accesses look like user:resource, got {text!r}")
    uname, rname = (t.strip() for t in text.split(":", 1))
    if uname not in sc.user_names:
        raise ValueError(f"unknown user {uname!r}")
    if rname not in sc.resource_names:
        raise ValueError(f"unknown resource {rname!r}")
    return Access(sc.user_names.index(uname), sc.resource_names.index(rname))


def _parse_granted(text: str, sc: Scenario) -> int:
    """Granted-set spec 'user:resource,user:resource' (blank = no grants)."""
    k = 0
    if not text.strip():
        return 0
    for part in text.split(","):
        k = set_insert(k, _parse_access(part.strip(), sc), sc.dims)
    return k


def cmd_eval(args: argparse.Namespace) -> int:
    sc = _load_scenario(args)
    loaded = import_values(args.values, scenario=sc)
    if args.request == "eps":
        req_user = req_resource = "eps"
    else:
        a = _parse_access(args.request, sc)
        req_user, req_resource = sc.user_names[a.user], sc.resource_names[a.resource]
    k = _parse_granted(args.granted, sc)
    row = loaded.lookup(args.emergency, k, req_user, req_resource)
    gap = abs(row.dv_allow - row.dv_deny)
    print(f"decision: {row.action}")
    print(f"dv_deny: {_shown(row.dv_deny)}")
    print(f"dv_allow: {_shown(row.dv_allow)}")
    print(f"gap: {_shown(gap)}")
    return 0 if row.action == "allow" else 1


def cmd_selfcheck(args: argparse.Namespace) -> int:
    sc = _load_scenario(args)
    checks = self_check(sc)
    failed = [c for c in checks if c.passed is False]
    for check in checks:
        mark = {True: "PASS", False: "FAIL", None: "SKIP"}[check.passed]
        print(f"{mark}  {check.name}: {check.detail}")
    if failed:
        print(f"selfcheck failed at: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acmdp",
        description="Solve access control decision processes and inspect decision values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solving = argparse.ArgumentParser(add_help=False)  # the options of every command that solves
    solving.add_argument("--solver", choices=SOLVERS, default="lp", help=SOLVER_HELP)
    scenario = argparse.ArgumentParser(add_help=False)  # the options of every command
    given = scenario.add_mutually_exclusive_group(required=True)
    given.add_argument("--scenario", type=Path, help="path to a scenario file")
    given.add_argument("--builtin", choices=BUILTIN_NAMES, help="built-in scenario name")

    solve = sub.add_parser(
        "solve", parents=[solving, scenario], help="solve a scenario and export the value table"
    )
    solve.add_argument("--out", type=Path, help="value-table output path")
    solve.set_defaults(func=cmd_solve)

    decisions = sub.add_parser(
        "decisions", parents=[solving, scenario], help="print the decision-value grid"
    )
    decisions.add_argument("--csv", type=Path, help="also write the grid as CSV")
    decisions.set_defaults(func=cmd_decisions)

    sweep = sub.add_parser(
        "sweep", parents=[solving, scenario], help="sweep the calm-to-alert probability"
    )
    sweep.add_argument(
        "--start",
        type=float,
        default=SweepSpec.start,
        help="first calm-to-alert probability of the grid, in [0, 1] and at most --stop "
        "(default %(default)s)",
    )
    sweep.add_argument(
        "--stop",
        type=float,
        default=SweepSpec.stop,
        help="last calm-to-alert probability of the grid, in [0, 1] and at least --start "
        "(default %(default)s)",
    )
    sweep.add_argument(
        "--step",
        type=float,
        default=SweepSpec.step,
        help="spacing of the grid from --start, which always ends at --stop (default %(default)s)",
    )
    sweep.add_argument("--out", type=Path, help="CSV output path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    evaluate = sub.add_parser("eval", parents=[scenario], help="query a solved value table")
    evaluate.add_argument(
        "--values", type=Path, required=True, help="value table written by solve --out"
    )
    evaluate.add_argument(
        "--emergency",
        choices=("calm", "alert"),
        required=True,
        help="alert status of the state to decide",
    )
    evaluate.add_argument(
        "--granted", type=_decoded, default="", help="granted accesses, e.g. 'alice:high,bob:low'"
    )
    evaluate.add_argument(
        "--request", type=_decoded, required=True, help="pending request 'user:resource' or 'eps'"
    )
    evaluate.set_defaults(func=cmd_eval)

    selfcheck = sub.add_parser(
        "selfcheck", parents=[scenario], help="check the model and cross-validate lp against vi"
    )
    selfcheck.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # rewards that overflow are refused by the one error line below, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ScenarioParseError as exc:
        print(f"scenario error in {exc.source}:", file=sys.stderr)
        for err in exc.errors:
            print(f"  {err}", file=sys.stderr)
        return 2
    except (ValueFileError, ConvergenceError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
