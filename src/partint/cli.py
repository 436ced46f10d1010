"""Command-line interface for the exact-search library.

Subcommands: enumerate, count, max-family, verify, lemmas, ekr-check,
cache.  Reports go to stdout or --out in json or table form, and in csv
form too for enumerate and the sweeps (verify and ekr-check).  The
exit status gates a shell: 1 when max-family or a sweep refutes the
star (ekr-check: misses the Ahlswede-Khachatrian maximum) or a suite
fails, else 3 when some row ran out of budget before it was settled,
else 0.  Every sweep is one entry of _SWEEPS and takes only the grid
options its runner reads.  Bad arguments, and instances over the
vertex cap, exit 2 with one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from dataclasses import asdict, fields

from .cliques import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET_SECS,
    Relation,
    SearchBudgetExceeded,
)
from .harness import (
    RowCache,
    RunConfig,
    cross_validate_ekr,
    render_rows,
    run_lemma_suites,
    solve_instance,
    suite_report_to_json,
    suite_report_to_table,
    summarize_ekr_rows,
    summarize_rows,
    verify_strong_form,
    verify_t_conjectures,
    verify_weak_form,
)
from .partitions import (
    DEFAULT_MAX_VERTICES,
    ResourceGuardError,
    count_all,
    count_partitions,
    enumerate_partitions,
)


# Each sweep: (runner, summariser, grid axes it reads, RunConfig overrides).
# ekr-check is a subcommand of its own; the others are modes of verify.
_SWEEPS = {
    "strong": (verify_strong_form, summarize_rows, "nk", {}),
    "weak": (verify_weak_form, summarize_rows, "n", {}),
    "t-multiset": (verify_t_conjectures, summarize_rows, "nkt", {"relation": Relation.MULTISET}),
    "t-proper": (verify_t_conjectures, summarize_rows, "nkt", {"relation": Relation.PROPER}),
    "ekr-check": (cross_validate_ekr, summarize_ekr_rows, "nkt", {}),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error in one line and exits 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _at_least(low: int, kind: type = int) -> Callable[[str], float]:
    """An argparse type: an int (or float) no smaller than ``low``; NaN is refused."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not value >= low:
            raise argparse.ArgumentTypeError(f"expected {noun} >= {low}, got {value}")
        return value

    return parse


_POSITIVE, _NONNEGATIVE = _at_least(1), _at_least(0)


# Option dests are RunConfig field names, so _config_from_args can pick them up.
def _add_output_options(parser: argparse.ArgumentParser, *formats: str) -> None:
    choices = ("json", *formats, "table")
    parser.add_argument("--format", dest="fmt", choices=choices, default="table")
    parser.add_argument("--out", dest="out_path", metavar="PATH")


def _add_search_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-vertices", type=_NONNEGATIVE, default=DEFAULT_MAX_VERTICES)
    parser.add_argument("--node-budget", type=_NONNEGATIVE, default=DEFAULT_NODE_BUDGET)
    parser.add_argument(
        "--time-budget-secs", type=_at_least(0, float), default=DEFAULT_TIME_BUDGET_SECS
    )
    parser.add_argument(
        "--deterministic",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="canonical witnesses and zeroed timings (default on)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="partint",
        description="Exact maximum intersecting families of integer partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list P(n, k) in canonical order")
    p_enum.add_argument("n", type=_POSITIVE)
    p_enum.add_argument("k", type=_POSITIVE)
    p_enum.add_argument("--max-vertices", type=_NONNEGATIVE, default=DEFAULT_MAX_VERTICES)
    _add_output_options(p_enum, "csv")

    p_count = sub.add_parser("count", help="p(n, k), or p(n) when k is omitted")
    p_count.add_argument("n", type=_NONNEGATIVE)
    p_count.add_argument("k", type=_NONNEGATIVE, nargs="?", default=None)
    _add_output_options(p_count)

    p_max = sub.add_parser(
        "max-family", help="certified maximum intersecting family for one instance"
    )
    p_max.add_argument("--n", type=_POSITIVE, required=True)
    p_max.add_argument("--k", type=_POSITIVE, default=None, help="omit to mix all lengths")
    p_max.add_argument("--t", type=_NONNEGATIVE, default=1)
    p_max.add_argument(
        "--relation", choices=[r.value for r in Relation], default="multiset"
    )
    p_max.add_argument(
        "--uniqueness",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="also decide whether the star is the unique maximum (default on)",
    )
    _add_search_options(p_max)
    _add_output_options(p_max)

    p_verify = sub.add_parser("verify", help="sweep a grid and report star vs maximum")
    modes = p_verify.add_subparsers(dest="mode", required=True)

    p_lemmas = sub.add_parser("lemmas", help="run the construction suites")
    p_lemmas.add_argument("--trials", type=_POSITIVE, default=1000)
    p_lemmas.add_argument("--seed", type=int, default=0)
    _add_output_options(p_lemmas)

    for name, (_, _, axes, _) in _SWEEPS.items():
        is_mode = name != "ekr-check"
        p_sweep = modes.add_parser(name) if is_mode else sub.add_parser(
            name, help="cross-validate the engine on set-system ground truth"
        )
        p_sweep.set_defaults(sweep=name)
        for axis in axes:
            p_sweep.add_argument(f"--{axis}-min", type=int)
            p_sweep.add_argument(f"--{axis}-max", type=int)
        _add_search_options(p_sweep)
        _add_output_options(p_sweep, "csv")
        if is_mode:  # only verify_* sweeps go through the row cache and fail_fast
            p_sweep.add_argument("--cache", dest="cache_path", metavar="PATH")
            p_sweep.add_argument("--fail-fast", action="store_true")

    p_cache = sub.add_parser("cache", help="inspect or clear a row cache")
    p_cache.add_argument("action", choices=("stats", "clear"))
    p_cache.add_argument("--cache", dest="cache_path", metavar="PATH", required=True)

    return parser


def _config_from_args(args: argparse.Namespace, **overrides) -> RunConfig:
    """The fields the subcommand's options set; the rest keep their defaults."""
    names = {f.name for f in fields(RunConfig)}
    given = {name: value for name, value in vars(args).items() if name in names}
    return RunConfig(**{**given, **overrides})


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    members = enumerate_partitions(args.n, args.k, max_vertices=args.max_vertices)
    if args.fmt == "json":
        payload = {
            "n": args.n,
            "k": args.k,
            "count": len(members),
            "partitions": [list(p.parts) for p in members],
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.fmt == "csv":
        text = "parts\n" + "\n".join(" ".join(map(str, p.parts)) for p in members) + "\n"
    else:
        text = "\n".join(str(p) for p in members) + ("\n" if members else "")
    _emit(text, args.out_path)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    value = count_all(args.n) if args.k is None else count_partitions(args.n, args.k)
    if args.fmt == "json":
        text = json.dumps({"n": args.n, "k": args.k, "count": value}) + "\n"
    else:
        text = f"{value}\n"
    _emit(text, args.out_path)
    return 0


def _cmd_max_family(args: argparse.Namespace) -> int:
    relation = Relation(args.relation)
    config = _config_from_args(args, relation=relation)
    row = solve_instance(
        args.n, args.k, args.t, relation, config, None, uniqueness=args.uniqueness
    )
    if args.fmt == "json":
        text = json.dumps(asdict(row), indent=2) + "\n"
    else:
        pairs = ", ".join(f"{key}={value}" for key, value in asdict(row).items())
        text = pairs + "\n"
    _emit(text, args.out_path)
    if row.is_counterexample:
        return 1
    return 0 if row.conclusive else 3


def _cmd_sweep(args: argparse.Namespace) -> int:
    runner, summarise, _, overrides = _SWEEPS[args.sweep]
    config = _config_from_args(args, **overrides)
    rows = runner(config)
    summary = summarise(rows)
    _emit(render_rows(config, rows, summary), config.out_path)
    if summary["refuted"]:
        return 1
    return 3 if summary["inconclusive"] else 0


def _cmd_lemmas(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = run_lemma_suites(config)
    if config.fmt == "json":
        text = suite_report_to_json(config, report)
    else:
        text = suite_report_to_table(report)
    _emit(text, config.out_path)
    return 0 if report.all_passed else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = RowCache(args.cache_path)
    if args.action == "stats":
        sys.stdout.write(json.dumps(cache.stats(), indent=2) + "\n")
    else:
        cache.clear()
        sys.stdout.write(f"cleared {args.cache_path}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "enumerate": _cmd_enumerate,
        "count": _cmd_count,
        "max-family": _cmd_max_family,
        "verify": _cmd_sweep,
        "lemmas": _cmd_lemmas,
        "ekr-check": _cmd_sweep,
        "cache": _cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except SearchBudgetExceeded as exc:
        sys.stderr.write(
            f"search budget exhausted: best bounds [{exc.lower_bound}, "
            f"{exc.upper_bound}] after {exc.nodes_explored} nodes\n"
        )
        return 1
    except ResourceGuardError as exc:
        sys.stderr.write(f"partint: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
