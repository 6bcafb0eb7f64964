#!/usr/bin/env python3
"""cloudsched benchmark: host time of one CLI command, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with a single client: each
op is an in-process call to `cloudsched.cli.main(argv)` that starts when the
previous one has returned and been checked. Every op's canonical outputs
are hashed and compared with the reference (see oracle.py); a non-zero exit,
an exception or a differing digest counts the op as failed.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced ops and reports the per-layer metrics from spans recorded around the
calls into each module (see tracing.py), plus the tracing overhead. Times
are scaled to a reference host speed (see "host speed" below); raw wall
times are recorded too.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A fuller record (git sha, Python version, nproc, quartiles, checks)
goes to .bench_out/results/. Run it from the root of a source checkout: it
imports cloudsched from ./src and exits 2 if that is missing.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("wide-gpa", "deep-queue", "sweep")
DEFAULT_SEED = 1
SETUP_REPS = 7
WARMUP_OPS = 1

perf_counter = time.perf_counter


# ---------------------------------------------------------------------------
# set-up: import cloudsched, build the scenario, write it


def import_cloudsched():
    """Import cloudsched afresh from ./src, dropping any earlier copy."""
    for name in [n for n in sys.modules
                 if n == "cloudsched" or n.startswith("cloudsched.")]:
        del sys.modules[name]
    cs = importlib.import_module("cloudsched")
    importlib.import_module("cloudsched.cli")
    return cs


def build_scenario(cs, workload: str, seed: int):
    """The scenario the workload's command reads, or None for sweep."""
    if workload == "deep-queue":
        return cs.generate(cs.GeneratorSpec(n_tasks=oracle.DEEP_N_CLOUDLETS,
                                            length_range=oracle.LENGTH_RANGE,
                                            seed=seed))
    if workload == "wide-gpa":
        inputs = oracle.wide_gpa_inputs(seed)
        dcs = defaultdict(list)
        for h in inputs.hosts:
            dcs[h.datacenter_id].append(cs.Host(
                id=h.id, datacenter_id=h.datacenter_id, total_mips=h.total_mips,
                ram_mb=h.ram_mb, storage_mb=oracle.HOST_STORAGE_MB))
        return cs.validate_scenario(cs.Scenario(
            datacenters=tuple(cs.Datacenter(id=dc, hosts=tuple(hosts))
                              for dc, hosts in dcs.items()),
            vms=tuple(cs.Vm(id=i + 1, mips=m, ram_mb=oracle.VM_RAM_MB)
                      for i, m in enumerate(inputs.vm_mips)),
            cloudlets=tuple(cs.Cloudlet(id=i + 1, length=length, arrival_index=i)
                            for i, length in enumerate(inputs.lengths)),
            policy="fcfs",
        ))
    return None


def command(workload: str, seed: int, scenario_path: Path, out_dir: Path) -> list[str]:
    if workload == "wide-gpa":
        return ["compare", "--scenario", str(scenario_path),
                "--policy", ",".join(oracle.POLICIES), "--out", str(out_dir)]
    if workload == "deep-queue":
        return ["run", "--scenario", str(scenario_path), "--out", str(out_dir)]
    return ["sweep", "--counts", ",".join(map(str, oracle.SWEEP_COUNTS)),
            "--seed", str(seed), "--out", str(out_dir)]


# ---------------------------------------------------------------------------
# host speed
#
# The host's speed changes as other tenants load the machine: on the 2-core
# machine the bounds were set on, the loop below takes 5 to 16 ms from one
# op to the next, and op times follow it. So every time the benchmark takes
# is scaled to a reference speed: the loop is timed between consecutive ops
# (and set-ups), and an op's time is multiplied by
# CAL_REF_MS / (mean of the loop times just before and just after it).
# A change to cloudsched moves the op's time but not the loop's, so it moves
# the scaled figure by the same share. Only the adjacent loops are used,
# because medians over wider windows of loops made the tails less steady.
# The raw wall times and the loop times are recorded beside the scaled
# figures.

CAL_ITERS = 4000
CAL_REF_MS = 7.5   # the loop's median ms on the machine the bounds were set on


def calibrate() -> float:
    """Time (ms) of a fixed loop of integer, float, dict, sort and format work."""
    t0 = perf_counter()
    state = 1
    table: dict[int, float] = {}
    rows = []
    for i in range(CAL_ITERS):
        state = (state * 6364136223846793005 + 1442695040888963407) & oracle.MASK64
        x = (state >> 11) / 9007199254740992.0
        table[i & 255] = table.get(i & 255, 0.0) + x
        rows.append((x, i))
    rows.sort(key=lambda r: (-r[0], r[1]))
    "\n".join(f"{x:.2f},{i}" for x, i in rows)
    return (perf_counter() - t0) * 1e3


class SpeedScale:
    """Host-speed factors for a sequence of timed intervals.

    Call `mark` after each interval; interval i lies between loop times
    cal_ms[i] and cal_ms[i + 1].
    """

    def __init__(self):
        self.cal_ms = [calibrate()]

    def mark(self) -> None:
        self.cal_ms.append(calibrate())

    def scales(self) -> list[float]:
        cal = self.cal_ms
        return [2.0 * CAL_REF_MS / (before + after)
                for before, after in zip(cal, cal[1:])]


@dataclass
class Setup:
    cs: object
    raw_s: list[float]
    total_s: list[float]       # scaled, like every time below
    import_ms: list[float]
    build_ms: list[float]
    save_ms: list[float]


def set_up(workload: str, seed: int, scenario_path: Path) -> Setup:
    """Set up SETUP_REPS times; the modules of the last one are kept."""
    setup = Setup(None, [], [], [], [], [])
    speed = SpeedScale()
    phases = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        setup.cs = import_cloudsched()
        t1 = perf_counter()
        scenario = build_scenario(setup.cs, workload, seed)
        t2 = perf_counter()
        if scenario is not None:
            setup.cs.write_scenario(scenario, scenario_path)
        t3 = perf_counter()
        speed.mark()
        phases.append((t1 - t0, t2 - t1, t3 - t2))
    for (imp, build, save), scale in zip(phases, speed.scales()):
        setup.raw_s.append(imp + build + save)
        setup.total_s.append((imp + build + save) * scale)
        setup.import_ms.append(imp * 1e3 * scale)
        setup.build_ms.append(build * 1e3 * scale)
        setup.save_ms.append(save * 1e3 * scale)
    return setup


# ---------------------------------------------------------------------------
# one op


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class OpResult:
    ok: bool
    seconds: float          # raw wall time
    bytes_out: int
    scale: float = 1.0      # host speed factor, see SpeedScale

    @property
    def ms(self) -> float:
        """Wall time at the reference host speed, in ms."""
        return self.seconds * 1e3 * self.scale


def run_op(main, argv: list[str], out_dir: Path, expected_digests: dict,
           tracer=None) -> OpResult:
    """Call main(argv) once, timed, then check every canonical output."""
    for stale in out_dir.iterdir():
        stale.unlink()
    error = None
    t0 = perf_counter()
    try:
        if tracer is None:
            code = main(argv)
        else:
            code = tracer.call("cli.main", main, argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code, error = None, traceback.format_exc()
    elapsed = perf_counter() - t0
    if error is not None:
        print(f"op raised:\n{error}", file=sys.stderr)
    ok = code == 0
    for name, want in expected_digests.items():
        path = out_dir / name
        if not (path.is_file() and digest(path.read_bytes()) == want):
            ok = False
    bytes_out = sum(p.stat().st_size for p in out_dir.iterdir())
    return OpResult(ok, elapsed, bytes_out)


# ---------------------------------------------------------------------------
# statistics


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with >= 10 samples beyond it: (value, pct, beyond).

    With 10 samples or fewer there is no such percentile; the maximum is
    reported with 0 samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


# ---------------------------------------------------------------------------
# per-layer metrics from spans

SPAN_METRICS = {            # span name -> per-layer metric (self time, ms)
    "workload.load_scenario": "workload.load_ms",
    "workload.generate": "workload.generate_ms",
    "model.validate_scenario": "model.validate_scenario_ms",
    "model.validate_plan": "model.validate_plan_ms",
    "policies.assign.fcfs": "policies.assign_ms.fcfs",
    "policies.assign.rr": "policies.assign_ms.rr",
    "policies.assign.gpa": "policies.assign_ms.gpa",
    "engine.execute.space_shared": "engine.execute_ms.space_shared",
    "engine.execute.time_shared": "engine.execute_ms.time_shared",
    "engine.ps_finish_times": "engine.ps_kernel_ms",
    "engine.provision": "engine.provision_ms",
    "metrics.summarize": "metrics.summarize_ms",
    "metrics.compare": "metrics.compare_ms",
}
CALL_COUNTS = {             # per-layer metric -> span names it counts
    "workload.load_scenario.calls": ("workload.load_scenario",),
    "workload.generate.calls": ("workload.generate",),
    "model.validate_scenario.calls": ("model.validate_scenario",),
    "model.validate_plan.calls": ("model.validate_plan",),
    "policies.assign.calls": ("policies.assign.fcfs", "policies.assign.rr",
                              "policies.assign.gpa"),
    "engine.execute_plan.calls": ("engine.execute.space_shared",
                                  "engine.execute.time_shared"),
    "engine.ps_finish_times.calls": ("engine.ps_finish_times",),
    "engine.provision.calls": ("engine.provision",),
    "metrics.summarize.calls": ("metrics.summarize",),
    "metrics.compare.calls": ("metrics.compare",),
}
LAYERS = ("cli", "workload", "model", "policies", "engine", "metrics")
COMPUTED = ("engine.ps_events", "policies.gpa_key_evals")


def layer_metrics_per_op(tracer: tracing.Tracer, exp: oracle.Expected,
                         by_op: dict) -> list[dict]:
    """One dict of per-layer values for every traced op in `by_op`."""
    own = tracing.self_times(tracer.spans)
    values_by_op = defaultdict(lambda: defaultdict(float))
    for span, seconds in zip(tracer.spans, own):
        ms = seconds * 1e3 * by_op[span.op].scale
        values = values_by_op[span.op]
        values[span.name] += ms
        values[span.name + "#calls"] += 1
        values[span.name.split(".")[0] + "#self"] += ms
    rows = []
    for op, values in sorted(values_by_op.items()):
        row = {metric: values[name] for name, metric in SPAN_METRICS.items()}
        row.update({metric: sum(values[n + "#calls"] for n in names)
                    for metric, names in CALL_COUNTS.items()})
        row.update({f"{layer}.self_ms": values[layer + "#self"]
                    for layer in LAYERS})
        row["cli.bytes_out"] = by_op[op].bytes_out
        # Every op loads (or generates) and gpa-assigns each of its
        # exp.cloudlets once, so that is the per-cloudlet base.
        row["workload.load_us_per_cloudlet"] = (
            row["workload.load_ms"] * 1e3 / exp.cloudlets)
        row["policies.gpa_us_per_cloudlet"] = (
            row["policies.assign_ms.gpa"] * 1e3 / exp.cloudlets)
        row["engine.us_per_cloudlet"] = row["engine.self_ms"] * 1e3 / exp.executions
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# main


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    return args


def reference_digests(workload: str) -> dict:
    """Output digests recorded for DEFAULT_SEED at the seed commit."""
    return json.loads(REFERENCE.read_text())[workload]["digests"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cloudsched" / "__init__.py").is_file():
        print(f"error: no cloudsched sources under {SRC}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / f"{args.workload}-{os.getpid()}"
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, out_dir: Path) -> int:
    setup = set_up(args.workload, args.seed, work / "scenario.json")
    cs = setup.cs
    if not Path(cs.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported cloudsched from {cs.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    cli_main = sys.modules["cloudsched.cli"].main
    argv = command(args.workload, args.seed, work / "scenario.json", out_dir)

    exp = oracle.expected(args.workload, args.seed)
    want = {name: digest(data) for name, data in exp.outputs.items()}
    reference_ok = True
    if args.seed == DEFAULT_SEED:
        recorded = reference_digests(args.workload)
        reference_ok = recorded == want
        if not reference_ok:
            print("error: oracle digests differ from reference.json",
                  file=sys.stderr)
        want = recorded

    tracer = tracing.Tracer() if args.trace else None
    attempted = failed = 0
    ops, untraced, traced, by_op = [], [], [], {}
    speed = SpeedScale()

    def one(trace: bool) -> OpResult:
        nonlocal attempted, failed
        if trace:
            tracer.op = attempted
            tracer.install()
        try:
            res = run_op(cli_main, argv, out_dir, want, tracer if trace else None)
        finally:
            if trace:
                tracer.uninstall()
        speed.mark()
        ops.append(res)
        if trace:
            by_op[tracer.op] = res
        attempted += 1
        failed += not res.ok
        return res

    for _ in range(WARMUP_OPS):
        one(False)
    gc.collect()
    deadline = perf_counter() + args.seconds
    while True:     # at least one op, and in a traced run one of each kind
        untraced.append(one(False))
        if tracer is not None:
            traced.append(one(True))
        if perf_counter() >= deadline:
            break
    for res, scale in zip(ops, speed.scales()):
        res.scale = scale

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "warmup_ops": WARMUP_OPS,
        "checks": exp.checks,
        "counts": {"cloudlets": exp.cloudlets, "vms": exp.vms,
                   "hosts": exp.hosts, "executions": exp.executions},
        "op_raw_ms": [r.seconds * 1e3 for r in ops],
        "cal_ms": speed.cal_ms,
    }
    if tracer is None:
        metrics, quarts = end_to_end(setup, untraced, exp, summary)
    else:
        metrics, quarts = per_layer(setup, tracer, exp, by_op, untraced,
                                    traced, summary)
    summary["quartiles"] = quarts
    summary["metrics"] = metrics
    write_record(args, summary, tracer)

    print_report(summary, metrics, quarts)
    print(json.dumps({
        "correct": reference_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(setup: Setup, results: list[OpResult], exp: oracle.Expected,
               summary: dict):
    op_ms = [r.ms for r in results]
    per_s = [exp.executions * 1e3 / ms for ms in op_ms]
    tail_ms, tail_pct, beyond = tail(op_ms)
    summary.update(op_ms_tail_pct=tail_pct, op_ms_tail_beyond=beyond,
                   timed_ops=len(op_ms), raw={
                       "op_ms_p50": statistics.median(r.seconds * 1e3
                                                      for r in results),
                       "setup_s": statistics.median(setup.raw_s),
                       "mean_scale": statistics.mean(r.scale for r in results)})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "cloudlets_per_s": (exp.executions * 1e3 * len(op_ms) / sum(op_ms), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup.total_s), "s"),
    }
    # Quartiles of the per-op and per-set-up samples behind the metrics.
    quarts = {"op_ms": quartiles(op_ms), "cloudlets_per_s": quartiles(per_s),
              "setup_s": quartiles(setup.total_s)}
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            quarts)


def per_layer(setup: Setup, tracer: tracing.Tracer, exp: oracle.Expected,
              by_op: dict, untraced: list, traced: list, summary: dict):
    rows = layer_metrics_per_op(tracer, exp, by_op)
    units = {}
    for name in rows[0]:
        units[name] = ("count" if name.endswith(".calls") else
                       "bytes" if name == "cli.bytes_out" else
                       "us" if name.endswith("_per_cloudlet") else "ms")
    values = {name: [row[name] for row in rows] for name in units}
    metrics = {name: (statistics.median(v), units[name])
               for name, v in values.items()}
    untraced_p50 = statistics.median(r.ms for r in untraced)
    traced_p50 = statistics.median(r.ms for r in traced)
    metrics.update({
        "engine.ps_events": (exp.ps_events, "count"),
        "policies.gpa_key_evals": (exp.gpa_key_evals, "count"),
        "setup.import_ms": (statistics.median(setup.import_ms), "ms"),
        "setup.build_ms": (statistics.median(setup.build_ms), "ms"),
        "workload.save_ms": (statistics.median(setup.save_ms), "ms"),
        "trace.op_ms_p50": (traced_p50, "ms"),
        "trace.untraced_op_ms_p50": (untraced_p50, "ms"),
        "trace.overhead_pct": (100.0 * (traced_p50 / untraced_p50 - 1.0), "%"),
    })
    summary.update(traced_ops=len(traced), untraced_ops=len(untraced),
                   absent_spans=tracer.absent, computed=list(COMPUTED))
    quarts = {name: quartiles(v) for name, v in values.items()}
    return ({k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
            quarts)


def write_record(args, summary: dict, tracer) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(summary, indent=2) + "\n")
    if tracer is not None:
        with open(results / f"{stem}-spans.jsonl", "w") as fh:
            for i, s in enumerate(tracer.spans):
                fh.write(json.dumps({"id": i, "op": s.op, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")


def print_report(summary: dict, metrics: dict, quarts: dict) -> None:
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"trace {summary['trace']}  attempted {summary['attempted']}  "
          f"failed {summary['failed']}  error_rate {summary['error_rate']}")
    print(f"git {summary['git_sha']}  python {summary['python']}  "
          f"nproc {summary['nproc']}")
    if "op_ms_tail_pct" in summary:
        print(f"op_ms_tail is p{summary['op_ms_tail_pct']:.2f} of "
              f"{summary['timed_ops']} timed ops "
              f"({summary['op_ms_tail_beyond']} beyond)")
    if "raw" in summary:
        print("raw wall time: " + json.dumps(summary["raw"]))
    print("counts per op: " + json.dumps(summary["counts"]))
    if summary.get("absent_spans"):
        print("absent spans: " + ", ".join(summary["absent_spans"]))
    for name, m in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}{label}")
    for name, q in quarts.items():
        print(f"  quartiles of {name}: {q[0]:.6g} {q[1]:.6g} {q[2]:.6g}")
    print("checks " + json.dumps(summary["checks"]))


if __name__ == "__main__":
    sys.exit(main())
