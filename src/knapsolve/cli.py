"""Command-line front end: solve and verify exponent equations.

    knapsolve solve  --group g.json --expr "(a b)^x c"
    knapsolve verify --group g.json --expr "(a b)^x c" --result out.json --box 10

Group files hold a constructor-tagged description tree (see
groups.build_backend); expressions use the textual syntax of
expr.parse_expr.  solve makes one call to groups.solve_exponent, the
solve entry of every group, and prints {"vars", "components",
"diagnostics"} and exits 0, or prints {"diagnostics"} and exits 2 when
a search budget was exhausted, or exits 1 on bad input, a negative
budget or box included.  --budget-refinement caps the refinement splits
of every reduction search of the solve, nested ones included, and
--budget-automata the states of all of them together.  solve warns on
stderr when diagnostics["complete"] is false: a splits cap below a
search's ceiling, or FACTOR_CAP, refused a split in the solve or in a
nested one.  verify compares a saved result against brute force on a box.
"""

import argparse
import json
import sys

from .errors import BudgetExceededError, InputError
from .expr import parse_expr
from .groups import build_backend, solve_exponent
from .oracle import compare
from .reduction import SEARCH_STATES_CAP
from .semilinear import SemilinearSet


def _read_json(path, what):
    """The JSON value in the file at path; what names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{what} file nests too deeply: {exc}") from exc


def cmd_solve(args):
    backend = build_backend(_read_json(args.group, "group"))
    e = parse_expr(args.expr)
    diagnostics = {}
    try:
        sols = solve_exponent(
            backend, e, args.budget_refinement, args.budget_automata,
            diagnostics,
        )
    except BudgetExceededError:
        # the work done so far; main prints the error line and exits 2
        print(json.dumps({"diagnostics": diagnostics},
                         indent=args.json_indent))
        raise
    data = sols.to_json_dict()
    data["components"].sort(key=lambda c: (c["base"], c["periods"]))
    data["diagnostics"] = diagnostics
    print(json.dumps(data, indent=args.json_indent))
    if not diagnostics.get("complete", True):
        print(
            "warning: the search ran outside its completeness bounds; the "
            "result may miss solutions",
            file=sys.stderr,
        )
    return 0


def cmd_verify(args):
    backend = build_backend(_read_json(args.group, "group"))
    e = parse_expr(args.expr)
    sols = SemilinearSet.from_json_dict(_read_json(args.result, "result"))
    if set(sols.vars) != set(e.variables):
        raise InputError(
            f"result variables {list(sols.vars)} do not match "
            f"expression variables {list(e.variables)}"
        )
    report = compare(backend, e, sols, args.box)
    print(json.dumps(report, indent=args.json_indent))
    return 0 if report["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="knapsolve",
        description="solve exponent equations over compositionally "
        "described groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve e = 1 and print the set")
    solve.add_argument("--group", required=True, help="group description JSON")
    solve.add_argument("--expr", required=True, help="exponent expression")
    solve.add_argument(
        "--budget-refinement", type=int, default=None,
        help="cap on refinement splits in the reduction search",
    )
    solve.add_argument(
        "--budget-automata", type=int, default=SEARCH_STATES_CAP,
        help="cap on the reduction-search states of the whole solve",
    )
    solve.add_argument("--json-indent", type=int, default=None)
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser(
        "verify", help="check a saved result against brute force"
    )
    verify.add_argument("--group", required=True)
    verify.add_argument("--expr", required=True)
    verify.add_argument("--result", required=True, help="solve output JSON")
    verify.add_argument("--box", type=int, default=10)
    verify.add_argument("--json-indent", type=int, default=None)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("budget_refinement", "budget_automata", "box"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
                flag = "--" + name.replace("_", "-")
                raise InputError(f"{flag} must be nonnegative, got {value}")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
