"""Command-line front end: run scenarios, compare policies, sweep task counts.

Each flag's value is checked once, by its argparse type as argparse reads
it; a rule that joins flags is checked where the command uses them. The
parser is built once per process, on the first `main` call, and reused.
Canonical outputs are CSV files in the output directory (``--out``, else
CLOUDSCHED_OUT, else the working directory), byte-identical for identical
config + seed, as is TSV; "pretty" prints the same cells padded. Formats:
times %.2f, utilization %.3f, improvement %.1f, wall-clock %.3f. Tables
are columns, and each block of a table becomes text by one `%` per output
that holds it; `run` renders a result's own columns as they are. Nothing
is printed or written until every output has rendered. A sweep runs its
counts on the usable CPUs; the children it forks write only to a pipe
back to this process.
"pretty" replaces only the table files: the output directory is still
created, and compare.dat and sweep_timing.csv are still written.
"""

import argparse
import gc
import json
import math
import os
import signal
import sys
import threading
import time
from collections.abc import Callable, Sequence
from functools import cache
from pathlib import Path

from .engine import execute_plan
from .model import POLICIES, Scenario, SimulationResult, compare, summarize
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


# (name, header, blocks). A block is one `%` spec per column and a column
# of raw values per spec that has a `%`, at least one; a spec without one
# is a fixed cell. Every column is as long as the block has rows. Every
# number becomes text in `_render` alone, by one `%` per block.
Table = tuple[str, Sequence[str], list[tuple[Sequence[str], Sequence[Sequence]]]]
_DELIMITERS = {"csv": ",", "tsv": "\t", "dat": " "}


# ---------------------------------------------------------------------------
# table rendering

def _render(table: Table, delim: str) -> str:
    """The header, then each block's rows: the block's row template, once
    per row, applied by one `%` to its values row by row. One line per
    row, cells joined by `delim`.

    A result that overflowed a float is an error, not an `inf` cell, and
    is found before any text is built. A finite column sum means finite
    members; only a float column whose sum is not finite (it can
    overflow) is checked value by value."""
    for specs, columns in table[2]:
        for spec, column in zip([s for s in specs if "%" in s], columns):
            if spec.endswith("f") and not math.isfinite(sum(column)):
                for x in column:
                    if not math.isfinite(x):
                        raise ValueError(f"result {x} is not a finite number "
                                         f"(the scenario overflows a float)")
    parts = [delim.join(table[1]) + "\n"]
    for specs, columns in table[2]:
        k, n = len(columns), len(columns[0])
        values = [None] * (k * n)
        for j, column in enumerate(columns):
            values[j::k] = column
        parts.append((delim.join(specs) + "\n") * n % tuple(values))
    return "".join(parts)


def _pretty(table: Table) -> str:
    """A console listing: a title, then every column padded to its widest
    cell, with a rule under the header and no trailing blanks."""
    # NUL cannot occur in a cell, so it splits the rendered cells back out.
    lines = [line.split("\0") for line in _render(table, "\0").split("\n")[:-1]]
    widths = [max(map(len, column)) for column in zip(*lines)]
    lines.insert(1, ["-" * w for w in widths])
    body = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
            for line in lines]
    return "\n".join([f"== {table[0]} ==", *body, "", ""])


# ---------------------------------------------------------------------------
# scenario resolution

def _resolve_jobs(args: argparse.Namespace) -> list[Scenario]:
    """Turn the source + policy flags into one scenario per run, each
    bound to the policy it runs under."""
    if args.seed is not None and args.generate is None:
        raise UsageError("--seed needs --generate: a builtin or a "
                         "scenario file has no seed")
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
    return execute_plan(scenario, *assign(scenario))


_RUN_HEADER = ["cloudlet_id", "datacenter_id", "vm_id", "cpu_time", "start", "finish"]
_RUN_SPECS = ("%s", "%s", "%s", "%.2f", "%.2f", "%.2f")


# ---------------------------------------------------------------------------
# subcommands: each returns its tables (named by stem, written once per
# --format) and its other files (named in full), and writes nothing

def cmd_run(args: argparse.Namespace) -> tuple[list[Table], list[Table]]:
    """Run each requested policy: one <policy> table per run."""
    tables = []
    for scenario in _resolve_jobs(args):
        r = _simulate(scenario)
        tables.append((scenario.policy, _RUN_HEADER, [
            (_RUN_SPECS, (r.cloudlet_ids, r.datacenter_ids, r.vm_ids,
                          r.cpu_times, r.start_times, r.finish_times)),
            (("mean", "", "", "%.2f", "", ""), [(r.mean_cpu_time,)])]))
    return tables, []


_COMPARE_HEADER = ["policy", "mode", "n_cloudlets", "mean_cpu_time",
                   "mean_completion_time", "headline_mean", "makespan",
                   "mean_utilization", "improvement_pct"]
_COMPARE_SPECS = ("%s", "%s", "%s", "%.2f", "%.2f", "%.2f", "%.2f", "%.3f", "%.1f")


def cmd_compare(args: argparse.Namespace) -> tuple[list[Table], list[Table]]:
    """Summarize >= 2 policy runs side by side (compare table + compare.dat)."""
    results = [summarize(_simulate(sc), policy=sc.policy)
               for sc in _resolve_jobs(args)]
    improvements = compare(results)
    rows = [(r.policy, r.mode.value, r.n_cloudlets, r.mean_cpu_time,
             r.mean_completion_time, r.headline_mean, r.makespan,
             r.mean_utilization, pct)
            for r, pct in zip(results, improvements)]
    # Plot data for `plot "compare.dat" using 2:xtic(1)` style bar charts.
    dat = [(r.policy, r.headline_mean, r.makespan) for r in results]
    return ([("compare", _COMPARE_HEADER, [(_COMPARE_SPECS, list(zip(*rows)))])],
            [("compare.dat", ["# policy", "headline_mean", "makespan"],
              [(("%s", "%.2f", "%.2f"), list(zip(*dat)))])])


def _workers(n_counts: int) -> int:
    """How many processes sweep `n_counts` counts: one per CPU this process
    may use, at most one per count. One, and no fork, where there is no
    `os.fork` or another thread is alive: a forked child holds only the
    forking thread, so a lock another thread held would never be freed."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cpus, n_counts)


def _shares(counts: Sequence[int], k: int) -> list[list[int]]:
    """`counts` split into `k` shares by LPT: largest first, each to the
    share with the least total so far. Each share keeps `counts` order."""
    totals = [0] * k
    owner = {}
    for n in sorted(counts, reverse=True):
        owner[n] = i = totals.index(min(totals))
        totals[i] += n
    return [[n for n in counts if owner[n] == i] for i in range(k)]


def _sweep_share(counts: Sequence[int], seed: int, policies: Sequence[str]):
    """One (n, policy, mean_cpu_time, makespan, wall_clock_ms) entry per
    run of `counts`, in order."""
    entries = []
    for n in counts:
        scenario = generate(GeneratorSpec(n_tasks=n, seed=derive_seed(seed, n)))
        for policy in policies:
            started = time.perf_counter()
            result = _simulate(scenario.with_policy(policy))
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            entries.append((n, policy, result.mean_cpu_time,
                            result.makespan, elapsed_ms))
    return entries


def cmd_sweep(args: argparse.Namespace) -> tuple[list[Table], list[Table]]:
    """Generate-and-run every (task count, policy) pair: one sweep table.

    Each count gets its own derived seed so adding counts never perturbs
    the others. Timings go to sweep_timing.csv, kept out of the sweep
    table so its files are byte-deterministic.

    This process runs the first share of the counts; a child forked for
    each other share writes its entries, as JSON, to a pipe and nothing
    else, and ends in `os._exit`. A child that ends without writing them,
    whatever stopped it, is a ChildProcessError. Every child is reaped (or
    killed and reaped) before this returns or raises. Entries merge in
    `--counts` order, so they do not depend on the number of workers.
    """
    policies = args.policy or POLICIES
    first, *others = _shares(args.counts, _workers(len(args.counts)))
    running = {}  # pid -> (read end of its pipe, its share), until reaped
    try:
        for share in others:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child: whatever happens, it never returns
                status = 1
                try:
                    with open(write_fd, "w") as pipe:
                        pipe.write(json.dumps(
                            _sweep_share(share, args.seed, policies)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            running[pid] = open(read_fd), share
        entries = _sweep_share(first, args.seed, policies)
        for pid, (reader, share) in list(running.items()):
            with reader:
                text = reader.read()
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            if status:
                raise ChildProcessError(
                    f"the sweep worker for counts {','.join(map(str, share))} "
                    f"ended without a result (wait status {status})")
            entries += json.loads(text)
    finally:
        for pid, (reader, _) in running.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    position = {n: i for i, n in enumerate(args.counts)}
    entries.sort(key=lambda entry: position[entry[0]])
    n, policy, mean_cpu_time, makespan, wall_clock_ms = zip(*entries)
    return ([("sweep", ["n", "policy", "mean_cpu_time", "makespan"],
              [(("%s", "%s", "%.2f", "%.2f"),
                (n, policy, mean_cpu_time, makespan))])],
            [("sweep_timing.csv", ["n", "policy", "wall_clock_ms"],
              [(("%s", "%s", "%.3f"), (n, policy, wall_clock_ms))])])


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """A bad command line is a UsageError, like any other (argparse's own
    default is a usage dump and exit 2)."""

    def error(self, message: str):
        raise UsageError(message)


def _int_type(low: int, high: float = math.inf) -> Callable[[str], int]:
    """The argparse type of an integer from `low` to `high`."""
    def integer(text: str) -> int:  # argparse: "invalid integer value: 'x'"
        if not low <= (value := int(text)) <= high:
            bounds = f"from {low} to {high}" if high < math.inf else f">= {low}"
            raise argparse.ArgumentTypeError(
                f"expected an integer {bounds}, not {text!r}")
        return value
    return integer


def _list_type(known) -> Callable[[str], tuple]:
    """The argparse type of a comma-separated list flag: its entries, each
    one of the `known` names (for `int`, an integer >= 1), none repeated: a
    repeat would run twice and, in `run`, overwrite its own files. A list
    with no entries (`,` or the empty string) is an error, not a default."""
    def comma_list(text: str) -> tuple:  # argparse: "invalid comma_list value"
        entries = tuple(part for part in text.split(",") if part)
        if not entries:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        if known is int:
            entries = tuple(map(_int_type(1), entries))
        for entry in entries:
            if known is not int and entry not in known:
                raise argparse.ArgumentTypeError(
                    f"unknown entry {entry!r} (choose from {', '.join(known)})")
        if len(set(entries)) != len(entries):
            raise argparse.ArgumentTypeError(f"duplicate entry in {text}")
        return entries
    return comma_list


def _add_common(sub: argparse.ArgumentParser, with_source: bool) -> None:
    if with_source:
        sub.add_argument("--builtin", type=_list_type(BUILTIN_NAMES), default=(),
                         metavar="NAME[,NAME...]",
                         help=f"built-in scenario(s): {', '.join(BUILTIN_NAMES)}")
        sub.add_argument("--scenario", metavar="PATH",
                         help="scenario JSON file")
        sub.add_argument("--generate", type=_int_type(1), metavar="N",
                         help="generate a synthetic scenario with N cloudlets")
    sub.add_argument("--policy", type=_list_type(POLICIES), default=(),
                     metavar="P[,P...]",
                     help="policies to run (default: all of %s)" % ",".join(POLICIES))
    # run and compare take a seed only with --generate (None: not given);
    # sweep always generates.
    sub.add_argument("--seed", type=_int_type(0, 2 ** 64 - 1),
                     default=None if with_source else 0,
                     metavar="U64", help="workload seed (default 0)")
    sub.add_argument("--out", metavar="DIR",
                     help="output directory (default: $CLOUDSCHED_OUT or .)")
    sub.add_argument("--format", type=_list_type(FORMATS), default=("csv",),
                     metavar="F[,F...]",
                     help="output formats: csv, tsv, pretty (default csv)")


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cloudsched",
        description="Deterministic cloud task-scheduling simulator "
                    "(fcfs / rr / gpa brokers).")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, command_fn, help_ in (
            ("run", cmd_run, "run policies, one table per policy"),
            ("compare", cmd_compare, "side-by-side policy summary"),
            ("sweep", cmd_sweep, "task-count sweep on generated workloads")):
        sub = subs.add_parser(name, help=help_)
        if name == "sweep":
            sub.add_argument("--counts", type=_list_type(int), required=True,
                             metavar="N[,N...]", help="task counts, e.g. 100,200,300")
        _add_common(sub, with_source=name != "sweep")
        sub.set_defaults(command_fn=command_fn)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and write what it produced; the exit code says
    how it ended.

    0 success; 1 usage, format, validation (an unplaceable scenario
    included) or overflow error, each a ValueError; 2 I/O error. Each
    error is one `error: ...` line on stderr. Only `--help` leaves through
    SystemExit(0). This is the only function that prints or writes an
    output (a sweep's forked children write only to a pipe), and it does
    so only once every output has rendered, so one that cannot render (an
    overflow) leaves nothing behind. The first call builds the parser;
    every later one reuses it.

    The cyclic garbage collector is paused, process-wide, for the length
    of the call; every way out (`--help` and an unexpected exception
    included) leaves it on or off as it was found.
    """
    was_enabled = gc.isenabled()
    # A run builds no reference cycles, so a collection could only re-scan
    # live objects; reference counting frees everything a command drops.
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        tables, files = args.command_fn(args)
        named = [(f"{t[0]}.{fmt}", t) for fmt in args.format if fmt != "pretty"
                 for t in tables] + [(t[0], t) for t in files]
        texts = [(name, _render(t, _DELIMITERS[name.rsplit(".", 1)[1]]))
                 for name, t in named]
        listing = "".join(map(_pretty, tables)) if "pretty" in args.format else ""
        out_dir = Path(args.out or os.environ.get("CLOUDSCHED_OUT") or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        sys.stdout.write(listing)
        for name, text in texts:
            (out_dir / name).write_text(text)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
