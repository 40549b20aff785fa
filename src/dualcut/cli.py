"""Command-line interface.

Subcommands: solve (approximate with certificate), exact (exhaustive
optimum), verify (re-check a solve report against its instance file),
gen (write generated instances + advice), gap (solve and compare against
the optimum).

Exit codes: 0 success, 1 infeasible instance or failed verification,
2 parse/usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .advisor import ScriptedAdvisor
from .dpa import approx_dpa
from .generators import (
    MAX_EXTRA_EDGES,
    gen_dpa_tight,
    gen_random_2ecs,
    gen_random_bidirected,
    gen_random_dpa,
    gen_random_ssc,
    gen_ssc_tight,
)
from .instances import DPAInstance, InfeasibleInstanceError
from .io import (
    ParseError,
    extract_witness,
    parse_advice,
    parse_instance,
    witness_comment,
    write_advice,
    write_instance,
)
from .oracles import certify_exact_by_bound, exact_2ecs, exact_dpa, exact_ssc
from .report import (
    RUNS,
    RunCheckError,
    _ratio,
    report_from_json,
    report_to_json,
    verify_run,
)
from .ssc import approx_ssc
from .twoecs import approx_2ecs

PROBLEMS = ("2ecs", "mscs", "dpa", "ssc")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualcut",
        description="Cut-based connectivity approximations with dual certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the approximation algorithm")
    solve.add_argument("--problem", required=True, choices=PROBLEMS)
    solve.add_argument("--input", required=True, help="instance file")
    solve.add_argument("--advice", help="advice script file (integer indices)")
    solve.add_argument("--out", help="write the full JSON run report here")
    solve.set_defaults(func=_cmd_solve)

    exact = sub.add_parser("exact", help="exhaustive optimum (small instances)")
    exact.add_argument("--problem", required=True, choices=PROBLEMS)
    exact.add_argument("--input", required=True)
    exact.add_argument("--limit", type=int, default=22, help="search size limit")
    exact.set_defaults(func=_cmd_exact)

    verify = sub.add_parser("verify", help="re-check a solve report")
    verify.add_argument("--input", required=True, help="instance file")
    verify.add_argument("--report", required=True, help="JSON report file")
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate an instance file (+ advice)")
    gen.add_argument(
        "family",
        choices=(
            "gk",
            "tk",
            "random-ssc",
            "random-bidirected",
            "random-dpa",
            "random-2ecs",
        ),
    )
    gen.add_argument("--out", required=True, help="instance file to write")
    gen.add_argument("--k", type=int, default=1, help="tight-family parameter")
    gen.add_argument("--n", type=int, default=6, help="random-family vertex count")
    gen.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random-family seed; generation uses Python's random.Random "
        "(Mersenne Twister), so the same flags reproduce the same file",
    )
    gen.add_argument(
        "--extra-factor",
        type=float,
        default=None,
        help="extra arcs/edges as a fraction of n; random-ssc and "
        "random-bidirected stop once every arc or pair is taken, and "
        f"random-2ecs accepts at most {MAX_EXTRA_EDGES} extra edges",
    )
    gen.add_argument("--fan", type=int, help="max sinks per star")
    gen.add_argument("--zero-cost-prob", type=float)
    gen.set_defaults(func=_cmd_gen)

    gap = sub.add_parser("gap", help="solve and compare against the optimum")
    gap.add_argument("--problem", required=True, choices=PROBLEMS)
    gap.add_argument("--input", required=True)
    gap.add_argument("--advice")
    gap.add_argument("--limit", type=int, default=22, help="exact search size limit")
    gap.set_defaults(func=_cmd_gap)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ParseError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleInstanceError as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return 1
    except RunCheckError as exc:
        # The finished run's own report failed verify_run, or a round guard
        # stopped a run that could not go on: no result is printed.
        for problem in exc.problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _read_text(path: str) -> str:
    """The file's text; bytes that do not decode are a ParseError."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


class _UsageError(Exception):
    """A flag that does not fit the input it is given; `main` exits 2."""


def _load_instance(problem: str, path: str):
    """Parse the file and check the problem flag can consume its kind.

    Returns (instance, raw text) or raises _UsageError.
    """
    text = _read_text(path)
    kind, instance = parse_instance(text)
    tag = "ssc" if problem == "mscs" else problem
    if type(instance) not in RUNS[tag][2]:
        raise _UsageError(f"--problem {problem} cannot consume a {kind} instance")
    if tag == "dpa" and kind != "dpa" and not instance.is_bidirected():
        raise _UsageError(
            f"--problem dpa needs a bidirected instance; "
            f"{path} (kind {kind}) is not"
        )
    return instance, text


def _run_solver(problem: str, instance, advisor):
    if problem == "2ecs":
        return approx_2ecs(instance, advisor)
    if problem == "dpa":
        return approx_dpa(instance, advisor)
    return approx_ssc(instance, advisor)


def _read_advice(path: Optional[str]) -> list[int]:
    if not path:
        return []
    return parse_advice(_read_text(path))


def _print_summary(report) -> None:
    b = report.bounds
    print(f"problem: {report.problem}")
    print(f"vertices: {report.n}")
    print(f"iterations: {report.k}")
    print(f"cost: {report.cost}")
    print(f"selected {report.selection_kind}: {_ids(report.selected)}")
    if report.selected_stars is not None:
        print(f"selected stars: {_ids(report.selected_stars)}")
    print(f"dual objective: {b.dual_objective}")
    print(f"vertex-count bound: {b.n_bound}")
    print(f"best lower bound: {b.best}")
    print(
        f"ratio vs best bound: {report.ratio_vs_best} "
        f"≈ {float(report.ratio_vs_best):.4f}"
    )
    if report.advisor_fallbacks:
        print(f"advisor fallbacks: {report.advisor_fallbacks}")


def _ids(values) -> str:
    return " ".join(str(v) for v in sorted(values))


def _cmd_solve(args) -> int:
    instance, _text = _load_instance(args.problem, args.input)
    advisor = ScriptedAdvisor(_read_advice(args.advice))
    report = _run_solver(args.problem, instance, advisor)
    _print_summary(report)
    if args.out:
        Path(args.out).write_text(report_to_json(report))
        print(f"report written to {args.out}")
    return 0


def _exact_result(problem: str, instance, limit: int):
    if problem == "2ecs":
        return exact_2ecs(instance, limit)
    if problem == "dpa" and isinstance(instance, DPAInstance):
        return exact_dpa(instance, limit)
    return exact_ssc(instance, limit)


def _cmd_exact(args) -> int:
    instance, _text = _load_instance(args.problem, args.input)
    try:
        result = _exact_result(args.problem, instance, args.limit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"optimum: {result.optimum}")
    print(f"witness: {_ids(result.witness)}")
    print(f"method: {result.method} ({result.explored} subsets explored)")
    return 0


def _cmd_verify(args) -> int:
    kind, instance = parse_instance(_read_text(args.input))
    try:
        report = report_from_json(Path(args.report).read_text())
    except (KeyError, TypeError, ValueError) as exc:
        # A report that cannot even be decoded has failed verification.
        print(f"FAIL: malformed report: {exc}")
        return 1
    problems = verify_run(kind, instance, report)
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    print("report verified")
    return 0


# Each random family's generator, instance kind, and the gen flags it takes
# by the generator's parameter names.
_RANDOM_FAMILIES = {
    "random-ssc": (
        gen_random_ssc, "ssc", {"extra_factor": "extra_arc_factor", "fan": "max_star_fan"}
    ),
    "random-bidirected": (
        gen_random_bidirected, "ssc", {"extra_factor": "extra_edge_factor", "fan": "max_star_fan"}
    ),
    "random-dpa": (gen_random_dpa, "dpa", {"zero_cost_prob": "zero_cost_prob"}),
    "random-2ecs": (gen_random_2ecs, "2ecs", {"extra_factor": "extra_edge_factor"}),
}


def _cmd_gen(args) -> int:
    fam = args.family
    given = {}
    try:
        if fam == "gk":
            gi, kind = gen_dpa_tight(args.k), "mscs"
        elif fam == "tk":
            gi, kind = gen_ssc_tight(args.k), "mscs"
        else:
            generate, kind, params = _RANDOM_FAMILIES[fam]
            # A flag the user did not give leaves the generator's default.
            given = {
                flag: getattr(args, flag) for flag in params if getattr(args, flag) is not None
            }
            gi = generate(
                args.n, seed=args.seed, **{params[flag]: v for flag, v in given.items()}
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = write_instance(gi.instance, kind)
    if gi.opt_witness is not None:
        text += witness_comment(gi.opt_witness)
    if fam.startswith("random-"):
        # Reproducibility metadata: the flags named here regenerate the file.
        flags = "".join(f"{flag.replace('_', '-')}={v} " for flag, v in given.items())
        text += (
            f"# generator: {fam} n={args.n} seed={args.seed} {flags}"
            f"prng=mersenne-twister (python random.Random)\n"
        )
    Path(args.out).write_text(text)
    print(f"instance written to {args.out}")
    if gi.advice is not None:
        advice_path = args.out + ".advice"
        Path(advice_path).write_text(write_advice(gi.advice))
        print(f"advice written to {advice_path}")
    if gi.expected is not None:
        print(
            f"expected: algorithm cost {gi.expected.alg_cost}, "
            f"optimum {gi.expected.opt_cost}"
        )
    return 0


def _cmd_gap(args) -> int:
    instance, text = _load_instance(args.problem, args.input)
    advisor = ScriptedAdvisor(_read_advice(args.advice))
    report = _run_solver(args.problem, instance, advisor)
    optimum = None
    witness_ids = extract_witness(text)
    if witness_ids is not None:
        witness = frozenset(witness_ids)
        try:
            if certify_exact_by_bound(instance, witness, report.certificate):
                optimum = len(witness)
            else:
                print(
                    "note: shipped witness is feasible but not certified "
                    "optimal; falling back to search",
                    file=sys.stderr,
                )
        except ValueError as exc:
            print(f"note: shipped witness rejected ({exc})", file=sys.stderr)
    if optimum is None:
        try:
            optimum = _exact_result(args.problem, instance, args.limit).optimum
        except ValueError as exc:
            print(f"error: cannot determine the optimum: {exc}", file=sys.stderr)
            return 1
    print(f"cost: {report.cost}")
    print(f"optimum: {optimum}")
    print(f"gap: {report.cost}/{optimum} ≈ {float(_ratio(report.cost, optimum)):.4f}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
