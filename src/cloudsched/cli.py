"""Command-line front end: run scenarios, compare policies, sweep task counts.

Canonical outputs are CSV files in the output directory (``--out`` or the
CLOUDSCHED_OUT environment variable, falling back to the working
directory). Identical config + seed produces byte-identical CSV/TSV
files; "pretty" console tables are formatting only. Wall-clock timings
go to a separate sweep_timing.csv so sweep.csv stays deterministic.
"""

import argparse
import math
import os
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from .engine import execute_plan
from .metrics import compare, summarize
from .model import POLICIES, Scenario, SimulationResult
from .policies import assign
from .workload import (
    BUILTIN_NAMES,
    GeneratorSpec,
    builtin_scenario,
    derive_seed,
    generate,
    load_scenario,
)

FORMATS = ("csv", "tsv", "pretty")


class UsageError(ValueError):
    """Bad flag combination or value; reported on stderr with exit 1."""


# What a command produces: (file stem, header, rows of formatted cells).
Table = tuple[str, list[str], list[Sequence[str]]]


# ---------------------------------------------------------------------------
# table formatting

def _t(x: float, digits: int = 2) -> str:
    """`x` with `digits` decimals. Every number written goes through here,
    so a result that overflowed a float is an error, not an `inf` cell."""
    if not math.isfinite(x):
        raise ValueError(f"result {x} is not a finite number "
                         f"(the scenario overflows a float)")
    return "%.*f" % (digits, x)


def _t_column(values) -> list[str]:
    """`_t(x)` for each x, with one finiteness check for the whole column."""
    if all(map(math.isfinite, values)):
        return list(map("%.2f".__mod__, values))
    return [_t(x) for x in values]  # raises at the first non-finite value


def _table_text(delim: str, header: list[str], rows: list[Sequence[str]]) -> str:
    return "\n".join(delim.join(row) for row in [header, *rows]) + "\n"


def _print_pretty(title: str, header: list[str], rows: list[Sequence[str]]) -> None:
    widths = [len(col) for col in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print(f"== {title} ==")
    print("  ".join(col.ljust(w) for col, w in zip(header, widths)).rstrip())
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print()


# ---------------------------------------------------------------------------
# scenario resolution

def _resolve_jobs(args: argparse.Namespace) -> list[Scenario]:
    """Turn the source + policy flags into one scenario per run, each
    bound to the policy it runs under."""
    picked = sum([bool(args.builtin),
                  args.scenario is not None,
                  args.generate is not None])
    if picked != 1:
        raise UsageError("choose exactly one of --builtin, --scenario, --generate")

    if len(args.builtin) > 1:
        # Several builtins: each carries its own policy; --policy would be
        # ambiguous about which scenario it applies to.
        if args.policy:
            raise UsageError("--policy cannot be combined with multiple builtins")
        return [builtin_scenario(name) for name in args.builtin]

    if args.builtin:
        base = builtin_scenario(args.builtin[0])
    elif args.scenario is not None:
        base = load_scenario(Path(args.scenario))
    else:
        base = generate(GeneratorSpec(n_tasks=args.generate, seed=args.seed or 0))
    return [base.with_policy(policy) for policy in args.policy or POLICIES]


def _simulate(scenario: Scenario) -> SimulationResult:
    plan, mode = assign(scenario)
    return execute_plan(scenario, plan, mode)


_RUN_HEADER = ["cloudlet_id", "datacenter_id", "vm_id", "cpu_time", "start", "finish"]


# ---------------------------------------------------------------------------
# subcommands: each returns its tables and its other files, and writes nothing

def cmd_run(args: argparse.Namespace) -> tuple[list[Table], dict[str, str]]:
    """Run each requested policy: one <policy> table per run."""
    tables = []
    for scenario in _resolve_jobs(args):
        result = _simulate(scenario)
        # Records are tuples in CloudletRecord field order: transpose them
        # to format whole columns at a time.
        cloudlet_ids, vm_ids, dc_ids, cpu, start, finish = zip(*result.records)
        rows = list(zip(map(str, cloudlet_ids), map(str, dc_ids), map(str, vm_ids),
                        _t_column(cpu), _t_column(start), _t_column(finish)))
        rows.append(("mean", "", "", _t(result.mean_cpu_time), "", ""))
        tables.append((scenario.policy, _RUN_HEADER, rows))
    return tables, {}


_COMPARE_HEADER = ["policy", "mode", "n_cloudlets", "mean_cpu_time",
                   "mean_completion_time", "headline_mean", "makespan",
                   "mean_utilization", "improvement_pct"]


def cmd_compare(args: argparse.Namespace) -> tuple[list[Table], dict[str, str]]:
    """Summarize >= 2 policy runs side by side (compare table + compare.dat)."""
    jobs = _resolve_jobs(args)
    if len(jobs) < 2:
        raise UsageError("need >= 2 policies to compare")
    results = [summarize(_simulate(sc), policy=sc.policy) for sc in jobs]
    improvements = compare(results)
    rows = [[r.policy, r.mode.value, str(r.n_cloudlets),
             _t(r.mean_cpu_time), _t(r.mean_completion_time),
             _t(r.headline_mean), _t(r.makespan),
             _t(r.mean_utilization, 3), _t(pct, 1)]
            for r, pct in zip(results, improvements)]
    # Plot data for `plot "compare.dat" using 2:xtic(1)` style bar charts.
    dat = ["# policy headline_mean makespan"]
    dat += [f"{r.policy} {_t(r.headline_mean)} {_t(r.makespan)}" for r in results]
    return ([("compare", _COMPARE_HEADER, rows)],
            {"compare.dat": "\n".join(dat) + "\n"})


def cmd_sweep(args: argparse.Namespace) -> tuple[list[Table], dict[str, str]]:
    """Generate-and-run every (task count, policy) pair: one sweep table.

    Each count gets its own derived seed so adding counts never perturbs
    the others. Timings go to sweep_timing.csv, kept out of the sweep
    table so its files are byte-deterministic.
    """
    if any(n < 1 for n in args.counts):
        raise UsageError("task counts must be >= 1")
    policies = args.policy or POLICIES
    rows, timing_rows = [], []
    for n in args.counts:
        spec = GeneratorSpec(n_tasks=n, seed=derive_seed(args.seed, n))
        scenario = generate(spec)
        for policy in policies:
            started = time.perf_counter()
            result = _simulate(scenario.with_policy(policy))
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            rows.append([str(n), policy, _t(result.mean_cpu_time),
                         _t(result.makespan)])
            timing_rows.append([str(n), policy, _t(elapsed_ms, 3)])
    timing = _table_text(",", ["n", "policy", "wall_clock_ms"], timing_rows)
    return ([("sweep", ["n", "policy", "mean_cpu_time", "makespan"], rows)],
            {"sweep_timing.csv": timing})


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """A bad command line is a UsageError, like any other (argparse's own
    default is a usage dump and exit 2)."""

    def error(self, message: str):
        raise UsageError(message)


def _str_list(text: str) -> tuple[str, ...]:
    """The non-empty parts of a comma-separated list; a list with none
    (`,` or the empty string) is an error, not a silent default."""
    parts = tuple(part for part in text.split(",") if part)
    if not parts:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return parts


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, _str_list(text)))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _add_common(sub: argparse.ArgumentParser, with_source: bool) -> None:
    if with_source:
        sub.add_argument("--builtin", type=_str_list, default=(),
                         metavar="NAME[,NAME...]",
                         help=f"built-in scenario(s): {', '.join(BUILTIN_NAMES)}")
        sub.add_argument("--scenario", metavar="PATH",
                         help="scenario JSON file")
        sub.add_argument("--generate", type=int, metavar="N",
                         help="generate a synthetic scenario with N cloudlets")
    sub.add_argument("--policy", type=_str_list, default=(),
                     metavar="P[,P...]",
                     help="policies to run (default: all of %s)" % ",".join(POLICIES))
    # run and compare take a seed only with --generate (None: not given);
    # sweep always generates.
    sub.add_argument("--seed", type=int, default=None if with_source else 0,
                     metavar="U64", help="workload seed (default 0)")
    sub.add_argument("--out", metavar="DIR",
                     help="output directory (default: $CLOUDSCHED_OUT or .)")
    sub.add_argument("--format", type=_str_list, default=("csv",),
                     metavar="F[,F...]",
                     help="output formats: csv, tsv, pretty (default csv)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cloudsched",
        description="Deterministic cloud task-scheduling simulator "
                    "(fcfs / rr / gpa brokers).")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run policies, one table per policy")
    _add_common(run, with_source=True)
    run.set_defaults(command_fn=cmd_run)

    cmp_ = subs.add_parser("compare", help="side-by-side policy summary")
    _add_common(cmp_, with_source=True)
    cmp_.set_defaults(command_fn=cmd_compare)

    sweep = subs.add_parser("sweep", help="task-count sweep on generated workloads")
    sweep.add_argument("--counts", type=_int_list, required=True,
                       metavar="N[,N...]", help="task counts, e.g. 100,200,300")
    _add_common(sweep, with_source=False)
    sweep.set_defaults(command_fn=cmd_sweep)

    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Reject the flag values argparse lets through."""
    # A repeated entry would run twice and, in `run`, overwrite its own files.
    for flag in ("builtin", "policy", "format", "counts"):
        values = getattr(args, flag, ())
        if len(set(values)) != len(values):
            raise UsageError(f"duplicate entry in --{flag}: "
                             f"{','.join(map(str, values))}")
    if args.seed is not None:
        if not 0 <= args.seed < 2 ** 64:
            raise UsageError("--seed must fit in an unsigned 64-bit integer")
        if getattr(args, "generate", 0) is None:  # sweep has no --generate
            raise UsageError("--seed needs --generate: a builtin or a "
                             "scenario file has no seed")
    for fmt in args.format:
        if fmt not in FORMATS:
            raise UsageError(f"unknown format {fmt!r} "
                             f"(choose from {', '.join(FORMATS)})")
    for policy in args.policy:
        if policy not in POLICIES:
            raise UsageError(f"unknown policy {policy!r} "
                             f"(choose from {', '.join(POLICIES)})")
    generate_n = getattr(args, "generate", None)
    if generate_n is not None and generate_n < 1:
        raise UsageError("--generate needs at least one cloudlet")


def main(argv=None) -> int:
    """Run one subcommand and write what it produced; the exit code says
    how it ended.

    0 success; 1 usage, format, validation (an unplaceable scenario
    included) or overflow error, each a ValueError; 2 I/O error. Each
    error is one `error: ...` line on stderr. Only `--help` leaves through
    SystemExit(0). This is the only function that writes, and it writes
    only after the command succeeded.
    """
    try:
        args = _build_parser().parse_args(argv)
        _check_args(args)
        tables, files = args.command_fn(args)
        out_dir = Path(args.out or os.environ.get("CLOUDSCHED_OUT") or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        for stem, header, rows in tables:
            for fmt in args.format:
                if fmt == "pretty":
                    _print_pretty(stem, header, rows)
                else:
                    text = _table_text("," if fmt == "csv" else "\t", header, rows)
                    (out_dir / f"{stem}.{fmt}").write_text(text)
        for name, text in files.items():
            (out_dir / name).write_text(text)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
