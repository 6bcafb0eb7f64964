"""Command-line interface: artifacts, exit codes, determinism."""

import gc
import io
import json
import os
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout, suppress

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cloudsched.cli
import cloudsched.engine
import cloudsched.model
from cloudsched import (
    BUILTIN_NAMES,
    POLICIES,
    GeneratorSpec,
    builtin_scenario,
    generate,
    provision_vms,
    save_scenario,
    write_scenario,
)
from cloudsched.cli import FORMATS, _pretty, _render, main
from conftest import (
    make_scenario,
    make_shuffled_arrival_document,
    row_pretty_reference,
    row_render_reference,
)
from test_workload import _scenario_documents

FCFS_GOLDEN = """\
cloudlet_id,datacenter_id,vm_id,cpu_time,start,finish
1,2,1,80.00,0.00,80.00
2,2,2,10.00,0.00,10.00
3,2,3,80.00,0.00,80.00
4,3,4,20.00,0.00,20.00
5,3,5,40.00,0.00,40.00
6,2,1,80.00,80.00,160.00
7,2,2,10.00,10.00,20.00
8,2,3,80.00,80.00,160.00
9,3,4,20.00,20.00,40.00
10,3,5,40.00,40.00,80.00
11,2,1,80.00,160.00,240.00
12,2,2,10.00,20.00,30.00
mean,,,45.83,,
"""


def test_run_writes_the_golden_fcfs_table(tmp_path):
    code = main(["run", "--builtin", "paper12-fcfs", "--policy", "fcfs",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "fcfs.csv").read_text() == FCFS_GOLDEN


def test_run_defaults_to_all_three_policies(tmp_path):
    code = main(["run", "--builtin", "paper12-gpa", "--out", str(tmp_path)])
    assert code == 0
    for policy in ("fcfs", "rr", "gpa"):
        assert (tmp_path / f"{policy}.csv").exists()
    gpa_lines = (tmp_path / "gpa.csv").read_text().splitlines()
    assert gpa_lines[-1] == "mean,,,30.00,,"


def test_run_gpa_builtin_mean_row(tmp_path):
    code = main(["run", "--builtin", "paper12-gpa", "--policy", "gpa",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "gpa.csv").read_text().splitlines()[-1] == "mean,,,30.00,,"


def test_run_unknown_builtin_names_it(tmp_path, capsys):
    code = main(["run", "--builtin", "paper13", "--out", str(tmp_path)])
    assert code == 1
    assert "paper13" in capsys.readouterr().err


def test_run_rejects_duplicate_policies(tmp_path, capsys):
    code = main(["run", "--builtin", "paper12-fcfs",
                 "--policy", "fcfs,fcfs", "--out", str(tmp_path)])
    assert code == 1
    assert "duplicate" in capsys.readouterr().err


def test_run_rejects_unknown_policy(tmp_path, capsys):
    code = main(["run", "--builtin", "paper12-fcfs", "--policy", "sjf",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "sjf" in capsys.readouterr().err


def test_run_needs_exactly_one_source(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path)]) == 1
    assert main(["run", "--builtin", "paper12-fcfs", "--generate", "5",
                 "--out", str(tmp_path)]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_run_multiple_builtins_use_their_own_policies(tmp_path):
    code = main(["run", "--builtin", "paper12-fcfs,paper12-rr,paper12-gpa",
                 "--out", str(tmp_path)])
    assert code == 0
    for policy in ("fcfs", "rr", "gpa"):
        assert (tmp_path / f"{policy}.csv").exists()
    assert (tmp_path / "fcfs.csv").read_text() == FCFS_GOLDEN


def test_run_multiple_builtins_refuse_policy_flag(tmp_path, capsys):
    code = main(["run", "--builtin", "paper12-fcfs,paper12-rr",
                 "--policy", "fcfs", "--out", str(tmp_path)])
    assert code == 1
    assert "multiple builtins" in capsys.readouterr().err


def test_run_missing_scenario_file_is_an_io_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_run_malformed_scenario_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["fcfs", "rr", "gpa"])
@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_run_rejects_non_finite_lengths_without_output(tmp_path, capsys,
                                                       time_limit, policy,
                                                       number):
    # A NaN length that reached the rr kernel would never finish, and one
    # that reached gpa would print nan; time_limit bounds the first case.
    bad = tmp_path / "bad.json"
    bad.write_text(save_scenario(builtin_scenario("paper12-fcfs")).replace(
        '"length": 20000.0', f'"length": {number}', 1))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(bad), "--policy", policy,
                 "--out", str(out)])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_insufficient_capacity_is_an_error_not_a_traceback(tmp_path, capsys,
                                                           command):
    bad = tmp_path / "small.json"
    bad.write_text(save_scenario(builtin_scenario("paper12-fcfs")).replace(
        '"ram_mb": 1024', '"ram_mb": 512', 1))
    code = main([command, "--scenario", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: insufficient capacity for vm 5\n"


@pytest.mark.parametrize("argv", [
    ["run", "--policy", "fcfs"], ["run", "--policy", "rr"],
    ["run", "--policy", "gpa"], ["compare"]], ids=" ".join)
@pytest.mark.parametrize("vm_mips", [[1], [1, 1]], ids=["one-vm", "two-vms"])
@pytest.mark.parametrize("formats", [[], ["--format", "pretty,csv"]],
                         ids=["csv", "pretty-csv"])
def test_overflowing_results_are_an_error_not_inf(tmp_path, capsys, argv,
                                                  vm_mips, formats):
    # Each length is a finite float, but on one VM the finish (or the
    # processor-sharing clock) overflows; on two, every record is finite
    # and only the mean overflows.
    path = tmp_path / "huge.json"
    write_scenario(make_scenario(vm_mips, [1e308, 1e308]), path)
    out = tmp_path / "out"
    code = main(argv + formats + ["--scenario", str(path), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: result inf is not a finite number")
    assert err.count("\n") == 1
    assert not out.exists()
    assert captured.out == ""


def test_a_column_whose_sum_overflows_is_written(tmp_path):
    # Every start and finish is finite, but each column's sum overflows;
    # so does no mean.
    path = tmp_path / "big.json"
    write_scenario(make_scenario([1], [9e307, 1, 1, 1]), path)
    code = main(["run", "--policy", "fcfs", "--scenario", str(path),
                 "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "fcfs.csv").read_text().splitlines()[1:]
    big = "%.2f" % 9e307
    assert [row.split(",")[4] for row in rows] == [
        "0.00", big, "%.2f" % (9e307 + 1), "%.2f" % (9e307 + 2), ""]
    assert rows[-1] == "mean,,,%.2f,," % ((9e307 + 3) / 4)


# ---------------------------------------------------------------------------
# table rendering: columns against the row-wise reference

_RENDER_DELIMITERS = (",", "\t", " ")


def _rows_of(table):
    """The row-wise form of a column-wise `table`, as the reference reads it."""
    name, header, blocks = table
    return name, header, [(specs, list(zip(*columns))) for specs, columns in blocks]


def _assert_renders_like_the_reference(table):
    rows = _rows_of(table)
    for delim in _RENDER_DELIMITERS:
        assert _render(table, delim) == row_render_reference(rows, delim)
    assert _pretty(table) == row_pretty_reference(rows)


def test_one_column_under_two_specs_is_text_under_each():
    column = (1.2345, 0.5, 1e300)
    _assert_renders_like_the_reference(
        ("t", ["a", "b"], [(("%.2f", "%.3f"), (column, column))]))


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, 2.5e-310, 1e300, -1e300, 0.005, 2.675)
_NUMBERS = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-10 ** 6, 10 ** 6))
_FLOAT_SPECS = ("%.2f", "%.3f", "%.1f")


def _copy(x):
    """An equal number that is another object (small ints excepted)."""
    return float(repr(x)) if isinstance(x, float) else int(str(x))


@st.composite
def _column_tables(draw):
    """A column-wise table: ints, floats (both zeros, subnormals, 1e300)
    and text; one float object in several cells, equal floats that are
    distinct objects; fixed cells; blocks of zero or one row among others;
    and one column object under several specs."""
    width = draw(st.integers(1, 4))
    spec = st.sampled_from(("%s", *_FLOAT_SPECS, "", "mean", "0.00"))
    numeric = []  # the number columns drawn so far, for reuse
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.sampled_from((0, 1, 1, 2, 5)))
        specs = draw(st.lists(spec, min_size=width, max_size=width)
                     .filter(lambda specs: any("%" in s for s in specs)))
        columns = []
        for s in specs:
            if "%" not in s:
                continue
            same_length = [c for c in numeric if len(c) == n]
            if same_length and draw(st.booleans()):
                columns.append(draw(st.sampled_from(same_length)))
                continue
            if s == "%s" and draw(st.booleans()):
                columns.append(tuple(draw(st.lists(
                    st.text("ab ,\t-", max_size=3), min_size=n, max_size=n))))
                continue
            pool = draw(st.lists(_NUMBERS, min_size=1, max_size=4))
            picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                                  min_size=n, max_size=n))
            column = tuple(_copy(x) if copy else x for x, copy in picks)
            numeric.append(column)
            columns.append(column)
        blocks.append((specs, columns))
    return "t", [f"h{j}" for j in range(width)], blocks


@given(table=_column_tables())
def test_columns_render_the_bytes_of_the_row_wise_reference(table):
    _assert_renders_like_the_reference(table)


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_zero_makespan_is_an_error_in_compare_only(tmp_path, capsys, command):
    # 5e-324 MI on a 1000-MIPS VM takes 0.0 s: the makespan underflows,
    # and compare's utilization would divide by it.
    path = tmp_path / "tiny.json"
    write_scenario(make_scenario([1000], [5e-324]), path)
    out = tmp_path / "out"
    code = main([command, "--scenario", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if command == "run":
        assert code == 0 and err == ""
        return
    assert code == 1
    assert err == ("error: policy 'fcfs' has a makespan of 0 "
                   "(the scenario underflows a float)\n")
    assert not out.exists()


def test_deeply_nested_document_is_a_format_error(tmp_path, capsys,
                                                  time_limit):
    deep = tmp_path / "deep.json"
    deep.write_text('{"policy": ' + "[" * 200_000 + "]" * 200_000 + "}")
    code = main(["run", "--scenario", str(deep), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: document nested too deeply\n"


def test_run_writes_rows_in_arrival_order(tmp_path):
    text, by_arrival = make_shuffled_arrival_document()
    path = tmp_path / "shuffled.json"
    path.write_text(text)
    assert main(["run", "--scenario", str(path), "--policy", "fcfs,rr",
                 "--out", str(tmp_path)]) == 0
    expected = [str(cloudlet_id) for cloudlet_id in by_arrival]
    for policy in ("fcfs", "rr"):
        lines = (tmp_path / f"{policy}.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:-1]] == expected


def test_run_scenario_file_roundtrip(tmp_path):
    scenario = generate(GeneratorSpec(n_tasks=9, seed=3))
    path = tmp_path / "scenario.json"
    write_scenario(scenario, path)
    code = main(["run", "--scenario", str(path), "--policy", "gpa",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "gpa.csv").read_text().splitlines()
    assert len(lines) == 1 + 9 + 1              # header + rows + mean


def test_run_generated_scenario(tmp_path):
    code = main(["run", "--generate", "20", "--seed", "7",
                 "--out", str(tmp_path)])
    assert code == 0
    for policy in ("fcfs", "rr", "gpa"):
        lines = (tmp_path / f"{policy}.csv").read_text().splitlines()
        assert len(lines) == 22


def test_run_rejects_bad_generate_and_seed(tmp_path, capsys):
    assert main(["run", "--generate", "0", "--out", str(tmp_path)]) == 1
    assert main(["run", "--generate", "5", "--seed", "-1",
                 "--out", str(tmp_path)]) == 1
    assert main(["run", "--generate", "5", "--seed", str(2 ** 64),
                 "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("source", ["--builtin", "--scenario"])
def test_a_seed_without_generate_is_one_error_line_and_writes_nothing(
        tmp_path, capsys, command, source):
    # A builtin or a scenario file has no seed, so --seed would be ignored.
    path = tmp_path / "scenario.json"
    write_scenario(builtin_scenario("paper12-gpa"), path)
    value = "paper12-gpa" if source == "--builtin" else str(path)
    out = tmp_path / "out"
    assert main([command, source, value, "--seed", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: --seed needs --generate: a builtin "
                                       "or a scenario file has no seed\n")
    assert not out.exists()


def test_run_tsv_format(tmp_path):
    code = main(["run", "--builtin", "paper12-fcfs", "--policy", "fcfs",
                 "--format", "tsv", "--out", str(tmp_path)])
    assert code == 0
    assert not (tmp_path / "fcfs.csv").exists()
    text = (tmp_path / "fcfs.tsv").read_text()
    assert text == FCFS_GOLDEN.replace(",", "\t")


PRETTY_RUN = """\
== fcfs ==
cloudlet_id  datacenter_id  vm_id  cpu_time  start   finish
-----------  -------------  -----  --------  ------  ------
1            2              1      80.00     0.00    80.00
2            2              2      10.00     0.00    10.00
3            2              3      80.00     0.00    80.00
4            3              4      20.00     0.00    20.00
5            3              5      40.00     0.00    40.00
6            2              1      80.00     80.00   160.00
7            2              2      10.00     10.00   20.00
8            2              3      80.00     80.00   160.00
9            3              4      20.00     20.00   40.00
10           3              5      40.00     40.00   80.00
11           2              1      80.00     160.00  240.00
12           2              2      10.00     20.00   30.00
mean                               45.83

"""

PRETTY_COMPARE = """\
== compare ==
policy  mode          n_cloudlets  mean_cpu_time  mean_completion_time  \
headline_mean  makespan  mean_utilization  improvement_pct
------  ------------  -----------  -------------  --------------------  \
-------------  --------  ----------------  ---------------
fcfs    space_shared  12           45.83          80.00                 \
45.83          240.00    0.458             0.0
rr      time_shared   12           126.67         126.67                \
126.67         240.00    0.483             -176.4
gpa     space_shared  12           30.00          55.00                 \
30.00          80.00     0.900             34.5

"""

PRETTY_SWEEP = """\
== sweep ==
n   policy  mean_cpu_time  makespan
--  ------  -------------  --------
5   fcfs    42.00          80.00
5   rr      42.00          80.00
5   gpa     24.00          40.00
10  fcfs    38.00          120.00
10  rr      68.00          120.00
10  gpa     24.00          60.00

"""


# `pretty` replaces the tables' files; a command's other files are written
# whatever the format.
@pytest.mark.parametrize("argv, stdout, files", [
    (["run", "--builtin", "paper12-fcfs", "--policy", "fcfs"], PRETTY_RUN, []),
    (["compare", "--builtin", "paper12-fcfs,paper12-rr,paper12-gpa"],
     PRETTY_COMPARE, ["compare.dat"]),
    (["sweep", "--counts", "5,10"], PRETTY_SWEEP, ["sweep_timing.csv"]),
], ids=["run", "compare", "sweep"])
def test_run_pretty_format_prints_only(tmp_path, capsys, argv, stdout, files):
    code = main(argv + ["--format", "pretty", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out == stdout
    assert sorted(path.name for path in tmp_path.iterdir()) == files


def test_run_unknown_format(tmp_path, capsys):
    code = main(["run", "--builtin", "paper12-fcfs", "--format", "yaml",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "yaml" in capsys.readouterr().err


def test_out_dir_defaults_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CLOUDSCHED_OUT", str(tmp_path))
    code = main(["run", "--builtin", "paper12-fcfs", "--policy", "fcfs"])
    assert code == 0
    assert (tmp_path / "fcfs.csv").read_text() == FCFS_GOLDEN


def test_compare_all_three_builtins(tmp_path):
    code = main(["compare", "--builtin",
                 "paper12-fcfs,paper12-rr,paper12-gpa", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("policy,mode,n_cloudlets,mean_cpu_time")
    assert lines[1].startswith("fcfs,space_shared,12,45.83,")
    assert lines[2].startswith("rr,time_shared,12,126.67,")
    assert lines[3].startswith("gpa,space_shared,12,30.00,")
    dat = (tmp_path / "compare.dat").read_text().splitlines()
    assert dat[0].startswith("#")
    assert dat[1:] == ["fcfs 45.83 240.00", "rr 126.67 240.00",
                       "gpa 30.00 80.00"]


def test_compare_matches_run_numbers(tmp_path):
    assert main(["run", "--builtin", "paper12-fcfs", "--out",
                 str(tmp_path / "runs")]) == 0
    assert main(["compare", "--builtin", "paper12-fcfs", "--out",
                 str(tmp_path / "cmp")]) == 0
    compare_rows = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()[1:]
    for row in compare_rows:
        policy, _, _, mean_cpu = row.split(",")[:4]
        run_mean = (tmp_path / "runs" / f"{policy}.csv") \
            .read_text().splitlines()[-1].split(",")[3]
        assert mean_cpu == run_mean


def test_compare_needs_two_policies(tmp_path, capsys):
    code = main(["compare", "--builtin", "paper12-fcfs", "--policy", "fcfs",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "2 policies" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compare", "--builtin", "paper12-gpa", "--policy", "gpa,gpa"],
    ["compare", "--builtin", "paper12-fcfs,paper12-fcfs"],
    ["sweep", "--counts", "5,5"],
    ["run", "--builtin", "paper12-gpa", "--format", "csv,csv"],
], ids=["compare-policy", "compare-builtin", "sweep-counts", "run-format"])
def test_a_repeated_list_entry_is_an_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "duplicate" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, placements", [
    (["compare", "--scenario", "SCENARIO", "--policy", "fcfs,rr,gpa"], 1),
    (["sweep", "--counts", "5,7"], 2),
], ids=["compare", "sweep"])
def test_first_fit_runs_once_per_scenario(argv, placements, tmp_path,
                                          monkeypatch):
    path = tmp_path / "scenario.json"
    path.write_text(save_scenario(builtin_scenario("paper12-gpa")))
    calls = []

    def counting(scenario):
        calls.append(scenario)
        return provision_vms(scenario)

    # Counted under both names, so first-fit run from either module shows.
    monkeypatch.setattr(cloudsched.model, "provision_vms", counting)
    monkeypatch.setattr(cloudsched.engine, "provision_vms", counting)
    # A forked sweep worker's calls would be counted in the child, unseen.
    monkeypatch.setattr(cloudsched.cli, "_workers", lambda n_counts: 1)
    argv = [str(path) if arg == "SCENARIO" else arg for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(calls) == placements


def test_sweep_row_count_and_timing_sidecar(tmp_path):
    code = main(["sweep", "--counts", "10,20", "--seed", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "n,policy,mean_cpu_time,makespan"
    assert len(lines) == 1 + 2 * 3
    assert [line.split(",")[0] for line in lines[1:]] == \
        ["10", "10", "10", "20", "20", "20"]
    timing = (tmp_path / "sweep_timing.csv").read_text().splitlines()
    assert timing[0] == "n,policy,wall_clock_ms"
    assert len(timing) == len(lines)
    assert [t.split(",")[:2] for t in timing[1:]] == \
        [line.split(",")[:2] for line in lines[1:]]


def test_sweep_is_byte_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["sweep", "--counts", "100,200", "--seed", "11",
                     "--out", str(tmp_path / sub)]) == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
        (tmp_path / "b" / "sweep.csv").read_bytes()


def test_sweep_seed_changes_the_workload(tmp_path):
    for sub, seed in (("a", "1"), ("b", "2")):
        assert main(["sweep", "--counts", "50", "--seed", seed,
                     "--out", str(tmp_path / sub)]) == 0
    assert (tmp_path / "a" / "sweep.csv").read_text() != \
        (tmp_path / "b" / "sweep.csv").read_text()


def test_sweep_rejects_empty_and_bad_counts(tmp_path, capsys):
    # An empty list is rejected while argparse parses the command line.
    assert main(["sweep", "--counts", "", "--out", str(tmp_path)]) == 1
    assert main(["sweep", "--counts", "0,10", "--out", str(tmp_path)]) == 1


def test_sweep_gpa_never_loses_to_fcfs_on_mean(tmp_path):
    assert main(["sweep", "--counts", "12,60", "--seed", "2",
                 "--out", str(tmp_path)]) == 0
    means = {}
    for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]:
        n, policy, mean_cpu, _ = line.split(",")
        means[(n, policy)] = float(mean_cpu)
    for n in ("12", "60"):
        assert means[(n, "gpa")] <= means[(n, "fcfs")]


# ---------------------------------------------------------------------------
# sweep workers: forked children take shares of the counts

# Unsorted, so a merge in share order differs from `--counts` order.
_UNSORTED_COUNTS = "300,5,2000,40"


def _sweep(argv, cpus, generate=None):
    """`main(["sweep", *argv])` with `cpus` usable CPUs (and `generate` in
    place of the CLI's, if given): (exit code, stdout, stderr, forks). It
    checks that every child the sweep forked has been reaped."""
    forks = []
    real_fork = os.fork
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            redirect_stdout(stdout), redirect_stderr(stderr):
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        if generate is not None:
            patch.setattr(cloudsched.cli, "generate", generate)
        code = main(["sweep", *argv])
    with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)
    return code, stdout.getvalue(), stderr.getvalue(), len(forks)


@settings(max_examples=6,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(counts=st.lists(st.sampled_from((1, 5, 40, 300, 2000)), min_size=1,
                       max_size=4, unique=True).map(lambda c: ",".join(map(str, c))))
@example(counts=_UNSORTED_COUNTS)
def test_sweep_bytes_do_not_depend_on_the_worker_count(counts, tmp_path_factory,
                                                       time_limit):
    work = tmp_path_factory.mktemp("sweep")
    outputs = []
    for cpus in (1, 2, 3):
        out = work / str(cpus)
        code, stdout, stderr, forks = _sweep(
            ["--counts", counts, "--seed", "5", "--format", "csv,tsv,pretty",
             "--out", str(out)], cpus)
        assert (code, stderr) == (0, "")
        assert forks == min(cpus, counts.count(",") + 1) - 1
        outputs.append((stdout, (out / "sweep.csv").read_bytes(),
                        (out / "sweep.tsv").read_bytes()))
        timing = (out / "sweep_timing.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in timing[1::3]] == counts.split(",")
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("failure", ["exit", "ValueError"])
def test_a_sweep_worker_that_dies_is_one_error_line_and_exit_2(failure, tmp_path,
                                                              time_limit):
    parent = os.getpid()

    def dying(spec):  # 40 is in the child's share
        if spec.n_tasks == 40 and os.getpid() != parent:
            if failure == "exit":
                os._exit(3)
            raise ValueError(f"count {spec.n_tasks} fails")
        return generate(spec)

    code, _, err, forks = _sweep(["--counts", _UNSORTED_COUNTS,
                                  "--out", str(tmp_path / "out")], 2, dying)
    assert (code, forks) == (2, 1)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "counts 300,5,40 " in err
    assert not (tmp_path / "out").exists()


def test_an_interrupted_sweep_kills_and_reaps_its_workers(tmp_path, time_limit):
    parent = os.getpid()

    def interrupted(spec):  # the child hangs; the parent is interrupted
        if os.getpid() != parent:
            threading.Event().wait()
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _sweep(["--counts", _UNSORTED_COUNTS, "--out", str(tmp_path)], 2,
               interrupted)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_sweep_forks_nothing_while_another_thread_is_alive(tmp_path,
                                                             monkeypatch,
                                                             time_limit):
    def no_fork():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert main(["sweep", "--counts", _UNSORTED_COUNTS,
                     "--out", str(tmp_path)]) == 0
    finally:
        release.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert (tmp_path / "sweep.csv").read_text().count("\n") == 1 + 4 * 3


def test_missing_subcommand_exits_via_argparse():
    assert main([]) == 1


def test_sweep_requires_counts_flag():
    assert main(["sweep"]) == 1


def test_only_help_leaves_through_system_exit(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cloudsched run")
    assert gc.isenabled()


# The last flag on each command line is the one at fault.
@pytest.mark.parametrize("argv", [
    ["sweep", "--counts", "a,b"],
    ["sweep", "--counts", "0,10"],
    ["run", "--bogus"],
    ["run", "--generate", "x"],
    ["run", "--generate", "0"],
    ["run", "--generate", "5", "--seed", str(2 ** 64)],
    ["run", "--builtin", "paper13"],
    ["run", "--builtin", "paper12-gpa", "--format", "xml"],
    ["sweep"],
    ["bogus"],
], ids=" ".join)
def test_a_command_line_argparse_rejects_is_one_error_line_and_exit_1(argv, tmp_path,
                                                                      capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # An unbounded integer flag states its lower bound alone.
    assert "inf" not in err
    flags = [arg for arg in argv if arg.startswith("--")]
    if flags:
        assert flags[-1] in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--builtin", "paper12-gpa", "--format", ","],
    ["run", "--builtin", "paper12-gpa", "--policy", ","],
    ["sweep", "--counts", ","],
], ids=" ".join)
def test_an_empty_list_flag_is_one_error_line_and_writes_nothing(argv, tmp_path,
                                                                 capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "empty list: ','" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the cyclic collector is paused for a command and restored after it

def test_an_unexpected_exception_leaves_the_collector_on(tmp_path, monkeypatch):
    def broken(scenario):
        raise RuntimeError("broken policy")

    monkeypatch.setattr(cloudsched.cli, "assign", broken)
    with pytest.raises(RuntimeError, match="broken policy"):
        main(["run", "--builtin", "paper12-fcfs", "--out", str(tmp_path)])
    assert gc.isenabled()


@pytest.mark.parametrize("argv", [
    ["run", "--builtin", "paper12-fcfs"],
    ["run", "--builtin", "paper13"],
    ["run", "--help"],
], ids=" ".join)
def test_a_caller_that_disabled_the_collector_finds_it_still_off(argv, tmp_path,
                                                                 capsys):
    gc.disable()
    try:
        with suppress(SystemExit):
            main(argv + ["--out", str(tmp_path)])
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_command_runs_without_a_collection(tmp_path):
    starts = []

    def on_collection(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(on_collection)
    try:
        assert main(["run", "--generate", "5000", "--out", str(tmp_path)]) == 0
    finally:
        gc.callbacks.remove(on_collection)
    assert starts == []


def _cyclic_garbage_left_by(argv, code):
    """The objects a full collection finds unreachable after `main(argv)`,
    which must end in `code`, with the collector off throughout so none is
    collected on the way."""
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == code
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("argv, code, cpus", [
    (["run", "--generate", "5000"], 0, 1),
    (["compare", "--generate", "5000"], 0, 1),
    (["sweep", "--counts", "100,2000"], 0, 1),
    (["sweep", "--counts", "100,2000"], 0, 2),  # one forked worker
    (["run", "--bogus"], 1, 1),
    (["run", "--policy", "fcfs", "--scenario", "huge.json"], 1, 1),  # overflow
], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
def test_a_command_leaves_no_cyclic_garbage(argv, code, cpus, tmp_path,
                                            monkeypatch, capsys):
    # The pause is safe only because a run builds no cycles: a
    # back-reference from a result to its owner would leave garbage that
    # grows with the run, and a parser built per call would leave its own.
    # With two CPUs the sweep's parent also reads a worker's pipe, reaps
    # it and merges its JSON.
    write_scenario(make_scenario([1], [1e308, 1e308]), tmp_path / "huge.json")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    # Building the parser leaves garbage, once per process.
    cloudsched.cli._build_parser()
    assert _cyclic_garbage_left_by(argv + ["--out", "out"], code) == 0
    assert len(forks) == cpus - 1


def test_two_commands_build_one_parser(tmp_path):
    cloudsched.cli._build_parser.cache_clear()
    for _ in range(2):
        assert main(["run", "--builtin", "paper12-fcfs", "--out", str(tmp_path)]) == 0
    info = cloudsched.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _outcomes(commands, out_root):
    """Each command's exit code, stderr, stdout and output files, in turn;
    a sweep's timings are left out, since they are wall-clock."""
    outcomes = []
    for k, argv in enumerate(commands):
        out = out_root / str(k)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = main(argv + ["--out", str(out)])
            except SystemExit as exit_:
                code = exit_.code
        files = {path.name: path.read_bytes() for path in sorted(out.glob("*"))
                 if path.name != "sweep_timing.csv"}
        outcomes.append((code, stderr.getvalue(), stdout.getvalue(), files))
    return outcomes


def test_commands_on_one_parser_end_as_on_fresh_ones(tmp_path, monkeypatch):
    # sweep's --seed defaults to 0 and run's to None: neither may leak
    # into a later command through the shared parser.
    commands = [["run", "--builtin", "paper12-fcfs"],
                ["run", "--generate", "0"],
                ["run", "--help"],
                ["sweep", "--counts", "100,200"],
                ["run", "--generate", "20"]]
    shared = _outcomes(commands, tmp_path / "shared")
    monkeypatch.setattr(cloudsched.cli, "_build_parser",
                        cloudsched.cli._build_parser.__wrapped__)
    fresh = _outcomes(commands, tmp_path / "fresh")
    assert [outcome[0] for outcome in shared] == [0, 1, 0, 0, 0]
    assert shared[2][2].startswith("usage: cloudsched run")
    assert set(shared[3][3]) == {"sweep.csv"} and set(shared[4][3]) == {
        "fcfs.csv", "rr.csv", "gpa.csv"}
    assert shared == fresh


# ---------------------------------------------------------------------------
# a run's memory grows linearly with its cloudlets

def test_run_peak_memory_is_linear_and_at_most_500_bytes_per_cloudlet(tmp_path):
    # tracemalloc's peak for a whole `run` of N generated cloudlets, its
    # three tables written. On CPython 3.11 it read 464 B per cloudlet at
    # N = 5,000 and 466 B at 10,000. One untraced call comes first, so
    # what a process allocates once (the parser) counts at neither size.
    argv = ["run", "--out", str(tmp_path), "--generate"]
    assert main(argv + ["5000"]) == 0
    peaks = []
    for n in (5000, 10000):
        tracemalloc.start()
        try:
            assert main(argv + [str(n)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 2.1
    assert peaks[1] / 10000 <= 500


# ---------------------------------------------------------------------------
# property: main ends in 0, 1 or 2, and a failure writes nothing

# Values each flag takes on a working command line. Scenario documents
# carry their own edits, and half of the paths have no file behind them.
_VALUES = {
    "--builtin": st.lists(st.sampled_from(BUILTIN_NAMES), min_size=1,
                          unique=True, max_size=3).map(",".join),
    "--scenario": st.none() | _scenario_documents(),
    "--generate": st.sampled_from(("1", "7", "40")),
    "--policy": st.lists(st.sampled_from(POLICIES), min_size=1, unique=True,
                         max_size=3).map(",".join),
    "--seed": st.sampled_from(("0", "7", str(2 ** 64 - 1))),
    "--format": st.lists(st.sampled_from(FORMATS), min_size=1, unique=True,
                         max_size=2).map(",".join),
    "--counts": st.lists(st.sampled_from(("1", "5", "30")), min_size=1,
                         unique=True, max_size=3).map(",".join),
}

# What each flag's value can be mixed up with.
_MIXUPS = {
    "--builtin": st.sampled_from(("paper13", "", "paper12-rr,paper12-rr")),
    "--scenario": st.none(),
    "--generate": st.sampled_from(("0", "-3", "x")),
    "--policy": st.sampled_from(("sjf", "fcfs,fcfs", "")),
    "--seed": st.sampled_from((str(2 ** 64), "-1", "x")),
    "--format": st.sampled_from(("xml", "", "csv,csv")),
    "--counts": st.sampled_from(("", "0", "-2", "x", "5,5")),
}


@st.composite
def _command_lines(draw):
    """A working command line with up to two edits: the command swapped
    (for an unknown one too), a flag dropped, or any flag set to a valid
    value or a mix-up, flags the command does not take included."""
    command = draw(st.sampled_from(("run", "compare", "sweep")))
    if command == "sweep":
        flags = ["--counts"]
    else:
        flags = [draw(st.sampled_from(("--builtin", "--scenario", "--generate")))]
    flags += draw(st.lists(st.sampled_from(("--policy", "--seed", "--format")),
                           unique=True))
    values = {flag: draw(_VALUES[flag]) for flag in flags}
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(("command", "drop", "set")))
        if edit == "command":
            command = draw(st.sampled_from(("run", "compare", "sweep", "bogus")))
        elif edit == "drop" and values:
            del values[draw(st.sampled_from(sorted(values)))]
        else:
            flag = draw(st.sampled_from(sorted(_VALUES)))
            values[flag] = draw(_VALUES[flag] | _MIXUPS[flag])
    return command, list(values.items())


# time_limit bounds the whole property, so it is meant to span every example.
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=_command_lines())
def test_main_ends_in_0_1_or_2_and_a_failure_writes_nothing(call, tmp_path_factory,
                                                            time_limit):
    command, flags = call
    work = tmp_path_factory.mktemp("main")
    out = work / "out"
    argv = [command, "--out", str(out)]
    for flag, value in flags:
        if flag == "--scenario":
            path = work / "scenario.json"
            if value is not None:
                path.write_text(json.dumps(value))
            value = str(path)
        argv += [flag, value]
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    assert gc.isenabled()
    if code == 0:
        assert out.is_dir() and stderr.getvalue() == ""
    else:
        assert not out.exists()
        assert stderr.getvalue().startswith("error: ")
        assert stderr.getvalue().count("\n") == 1
