"""Command-line front end: solve, decisions, sweep, eval, selfcheck."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import BUILTIN_NAMES, ScenarioParseError, builtin_scenario, parse_scenario
from .experiments import SweepSpec, run_sweep, self_check, sweep_csv
from .policy import (
    SolverError,
    ValueFileError,
    export_values,
    import_values,
    solve_scenario,
)
from .rewards import Scenario
from .states import Emergency, State
from .value_iteration import ConvergenceError


TOL_HELP = "solver tolerance (default: the solver's own, 1e-9 for lp, 1e-10 for vi)"


def _add_scenario_args(parser: argparse.ArgumentParser, required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--scenario", type=Path, help="path to a scenario file")
    group.add_argument("--builtin", choices=BUILTIN_NAMES, help="built-in scenario name")


def _load_scenario(args: argparse.Namespace) -> Scenario | None:
    if args.builtin:
        return builtin_scenario(args.builtin)
    if args.scenario:
        return parse_scenario(args.scenario.read_text(), source=str(args.scenario))
    return None


def cmd_solve(args: argparse.Namespace) -> int:
    sc = _load_scenario(args)
    solution = solve_scenario(sc, solver=args.solver, tol=args.tol)
    unit = "pivots" if args.solver == "lp" else "iterations"
    print(f"states: {solution.system.num_states}")
    print(f"{unit}: {solution.iterations}")
    print(f"max residual: {solution.max_residual:.3g}")
    if args.out:
        export_values(solution, args.out)
        print(f"values written to {args.out}")
    return 0


def cmd_decisions(args: argparse.Namespace) -> int:
    sc = _load_scenario(args)
    solution = solve_scenario(sc, solver=args.solver, tol=args.tol)
    space = solution.system.space

    accesses = list(sc.dims.accesses())
    headers = [
        f"({sc.user_names[a.user]}, {sc.resource_names[a.resource]})" for a in accesses
    ]
    col_width = max(12, max(len(h) for h in headers) + 2)
    print("Status  Decision" + "".join(h.rjust(col_width) for h in headers))
    csv_lines = ["status,user,resource,dv_deny,dv_allow,chosen,gap"]
    for emergency in (Emergency.CALM, Emergency.ALERT):
        for act_idx, act_label in ((0, "deny"), (1, "allow")):
            cells = []
            for a in accesses:
                i = space.state_index(State(emergency, 0, a))
                cells.append(f"{solution.dv[act_idx, i]:.2f}".rjust(col_width))
            status = emergency.label.capitalize().ljust(8)
            print(f"{status}{act_label:<8}" + "".join(cells))
        for a in accesses:
            i = space.state_index(State(emergency, 0, a))
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
        Path(args.csv).write_text("\n".join(csv_lines) + "\n")
        print(f"csv written to {args.csv}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    sc = _load_scenario(args)
    spec = SweepSpec(sc, start=args.start, stop=args.stop, step=args.step)
    result = run_sweep(spec, solver=args.solver)
    csv_text = sweep_csv(result)
    if args.out:
        Path(args.out).write_text(csv_text)
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


def _parse_granted(text: str, loaded_users: tuple[str, ...], loaded_resources: tuple[str, ...]) -> int:
    """Granted-set spec 'user:resource,user:resource' (empty string = no grants)."""
    k = 0
    if not text:
        return 0
    for part in text.split(","):
        part = part.strip()
        if ":" not in part:
            raise ValueError(f"granted entries look like user:resource, got {part!r}")
        uname, rname = (t.strip() for t in part.split(":", 1))
        if uname not in loaded_users:
            raise ValueError(f"unknown user {uname!r}")
        if rname not in loaded_resources:
            raise ValueError(f"unknown resource {rname!r}")
        k |= 1 << (loaded_users.index(uname) * len(loaded_resources) + loaded_resources.index(rname))
    return k


def cmd_eval(args: argparse.Namespace) -> int:
    loaded = import_values(args.values, scenario=_load_scenario(args))
    if args.request == "eps":
        req_user = req_resource = "eps"
    else:
        if ":" not in args.request:
            raise ValueError(f"request looks like user:resource or eps, got {args.request!r}")
        req_user, req_resource = (t.strip() for t in args.request.split(":", 1))
    k = _parse_granted(args.granted, loaded.user_names, loaded.resource_names)
    row = loaded.lookup(args.emergency, k, req_user, req_resource)
    gap = abs(row.dv_allow - row.dv_deny)
    print(f"decision: {row.action}")
    print(f"dv_deny: {row.dv_deny:.2f}")
    print(f"dv_allow: {row.dv_allow:.2f}")
    print(f"gap: {gap:.2f}")
    return 0 if row.action == "allow" else 1


def cmd_selfcheck(args: argparse.Namespace) -> int:
    sc = _load_scenario(args)
    checks = self_check(sc)
    failed = [c for c in checks if not c.passed]
    for check in checks:
        mark = "PASS" if check.passed else "FAIL"
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

    solve = sub.add_parser("solve", help="solve a scenario and export the value table")
    _add_scenario_args(solve)
    solve.add_argument("--solver", choices=("lp", "vi"), default="lp")
    solve.add_argument("--tol", type=float, help=TOL_HELP)
    solve.add_argument("--out", type=Path, help="value-table output path")
    solve.set_defaults(func=cmd_solve)

    decisions = sub.add_parser("decisions", help="print the decision-value grid")
    _add_scenario_args(decisions)
    decisions.add_argument("--solver", choices=("lp", "vi"), default="lp")
    decisions.add_argument("--tol", type=float, help=TOL_HELP)
    decisions.add_argument("--csv", type=Path, help="also write the grid as CSV")
    decisions.set_defaults(func=cmd_decisions)

    sweep = sub.add_parser("sweep", help="sweep the calm-to-alert probability")
    _add_scenario_args(sweep)
    sweep.add_argument("--solver", choices=("lp", "vi"), default="lp")
    sweep.add_argument("--start", type=float, default=0.0)
    sweep.add_argument("--stop", type=float, default=1.0)
    sweep.add_argument("--step", type=float, default=0.01)
    sweep.add_argument("--out", type=Path, help="CSV output path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    evaluate = sub.add_parser("eval", help="query a solved value table")
    # with a scenario, a table whose fingerprint does not match is refused
    _add_scenario_args(evaluate, required=False)
    evaluate.add_argument("--values", type=Path, required=True)
    evaluate.add_argument("--emergency", choices=("calm", "alert"), required=True)
    evaluate.add_argument(
        "--granted", default="", help="granted accesses, e.g. 'alice:high,bob:low'"
    )
    evaluate.add_argument(
        "--request", required=True, help="pending request 'user:resource' or 'eps'"
    )
    evaluate.set_defaults(func=cmd_eval)

    selfcheck = sub.add_parser("selfcheck", help="cross-validate both solvers")
    _add_scenario_args(selfcheck)
    selfcheck.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioParseError as exc:
        print(f"scenario error in {exc.source}:", file=sys.stderr)
        for err in exc.errors:
            print(f"  {err}", file=sys.stderr)
        return 2
    except (ValueFileError, SolverError, ConvergenceError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
