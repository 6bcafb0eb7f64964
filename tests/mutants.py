"""Mutation gate: each listed mutant of `src/` must fail its killing tests.

Run from anywhere with `python tests/mutants.py`. For each mutant the
script copies `src/` to a temporary directory, replaces the mutant's old
text (which must occur exactly once in its file) with the new text, and
runs `pytest -x -q` on the mutant's killing tests with `PYTHONPATH`
pointing at the copy, under the `mutants` hypothesis profile (see
`conftest.py`). A test failure or a timeout kills the mutant. The
killing tests first run once on the unmutated copy and must pass there;
then `WORKERS` mutants are tested at a time.
Prints one line per mutant and exits 1 if any mutant survives or cannot
be run.

Not a pytest module: `tests/test_mutants.py` checks in tier 1 that every
old text still occurs exactly once in `src/`.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIMEOUT_S = 120
# pytest processes at once: each is single-threaded.
WORKERS = 2

_CLI = "tests/test_cli.py::"
_ENGINE = "tests/test_engine.py::"
_METRICS = "tests/test_metrics.py::"
_MODEL = "tests/test_model.py::"
_POLICIES = "tests/test_policies.py::"
_WORKLOAD = "tests/test_workload.py::"

# (name, file under src/, exact old text, new text, killing test ids)
MUTANTS = [
    ("gpa-tie-walk-one-step", "cloudsched/policies.py",
     "while i < len(works) and", "if i < len(works) and",
     [_POLICIES + "test_gpa_tie_walk_crosses_three_works"]),
    ("gpa-tie-walk-removed", "cloudsched/policies.py",
     "i = bisect(works, works[0])", "i = len(works)",
     [_POLICIES
      + "test_gpa_float_tie_between_unequal_works_prefers_lower_vm_id"]),
    ("gpa-tie-walk-higher-id", "cloudsched/policies.py",
     "if ranks[i] < ranks[pick]:", "if ranks[i] > ranks[pick]:",
     [_POLICIES
      + "test_gpa_float_tie_between_unequal_works_prefers_lower_vm_id"]),
    ("gpa-ranks-in-declared-order", "cloudsched/policies.py",
     "at_rank = sorted(range(len(vms)), key=lambda v: vms[v].id)",
     "at_rank = list(range(len(vms)))",
     [_POLICIES + "test_gpa_matches_the_linear_scan_on_tie_prone_scenarios",
      _POLICIES + "test_gpa_matches_exact_arithmetic_reference"]),
    ("gpa-class-tie-to-slower", "cloudsched/policies.py",
     "if ratio < best_ratio:", "if ratio <= best_ratio:",
     [_POLICIES + "test_gpa_ratio_tie_prefers_higher_mips"]),
    ("gpa-reinsert-without-id-walk", "cloudsched/policies.py",
     "        while j < len(works) and works[j] == work and ranks[j] < rank:\n"
     "            j += 1\n", "",
     [_POLICIES
      + "test_gpa_moves_a_pick_after_equal_works_with_lower_ids"]),
    ("loader-int-column-admits-bool", "cloudsched/workload.py",
     "return types <= {int}", "return types <= {int, bool}",
     [_WORKLOAD + "test_a_bool_in_a_cloudlet_column_is_a_located_type_error"]),
    ("loader-finite-sum-dropped", "cloudsched/workload.py",
     "math.isfinite(sum(numbers, 0.0))", "True",
     [_WORKLOAD + "test_load_rejects_non_finite_tokens_with_location"]),
    ("loader-unknown-key-admitted", "cloudsched/workload.py",
     "obj.keys() == set(keys)", "obj.keys() >= set(keys)",
     [_WORKLOAD + "test_a_key_outside_the_scenario_fields_is_an_unknown_key"]),
    ("loader-host-merge-overrides-document", "cloudsched/workload.py",
     '{"datacenter_id": dc_id, **host}', '{**host, "datacenter_id": dc_id}',
     [_WORKLOAD + "test_host_datacenter_mismatch_is_a_validation_error"]),
    ("validate-duplicate-id-check-dropped", "cloudsched/model.py",
     "len(distinct) == len(ids)", "True",
     [_MODEL + "test_duplicate_cloudlet_ids_are_flagged"]),
    ("validate-repeat-across-lists-dropped", "cloudsched/model.py",
     "and seen.isdisjoint(distinct)", "",
     [_MODEL + "test_duplicate_datacenter_and_host_ids_are_flagged"]),
    ("validate-id-sign-check-dropped", "cloudsched/model.py",
     "and (not positive_id or min(ids, default=1) > 0)", "",
     [_MODEL + "test_a_non_positive_cloudlet_id_is_flagged"]),
    ("validate-datacenter-pass-dropped", "cloudsched/model.py",
     "and (dc_id is None or set(columns[1]) <= {dc_id})", "",
     [_MODEL + "test_host_datacenter_mismatch_is_flagged"]),
    ("validate-finite-sum-dropped", "cloudsched/model.py",
     "(not finite or math.isfinite(sum(column, 0.0)))", "True",
     [_MODEL
      + "test_one_infinite_or_nan_length_among_positive_ones_is_flagged"]),
    ("validate-positivity-pass-always-true", "cloudsched/model.py",
     "and min(column, default=1) > 0", "and True",
     [_MODEL + "test_violations_match_a_per_row_reference_walk"]),
    ("validate-walk-positivity-dropped", "cloudsched/model.py",
     "elif column[i] <= 0:", "elif False:",
     [_MODEL + "test_non_positive_quantities_are_flagged"]),
    ("ps-active-count-dropped", "cloudsched/engine.py",
     "(length - served) * (k - i) / mips", "(length - served) / mips",
     [_ENGINE + "test_ps_equal_jobs_finish_together_exactly"]),
    ("first-fit-exact-fit-refused", "cloudsched/model.py",
     "if mips <= room[0] and", "if mips < room[0] and",
     [_ENGINE + "test_exact_fit_leaves_nothing_behind"]),
    ("first-fit-drops-a-host-at-the-least-demand", "cloudsched/model.py",
     "if room[0] < least_mips or room[1] < least_ram:",
     "if room[0] <= least_mips or room[1] <= least_ram:",
     [_ENGINE + "test_first_fit_binds_as_the_linear_scan"]),
    ("arrival-order-check-dropped", "cloudsched/model.py",
     "if indices != slots:", "if False:",
     [_MODEL + "test_arrival_indices_must_be_contiguous"]),
    ("space-shared-column-at-plan-position", "cloudsched/engine.py",
     "for slot, v in zip(order, vm_at):\n        vm_ids[slot]",
     "for slot, v in enumerate(vm_at):\n        vm_ids[slot]",
     [_ENGINE + "test_records_come_back_in_arrival_order_not_tuple_order"]),
    ("time-shared-column-at-plan-position", "cloudsched/engine.py",
     "for slot, v in zip(order, vm_at):\n        queues[v]",
     "for slot, v in enumerate(vm_at):\n        queues[v]",
     [_ENGINE + "test_records_come_back_in_arrival_order_not_tuple_order"]),
    ("plan-shape-guard-misses-extra-columns", "cloudsched/model.py",
     "except (TypeError, ValueError):", "except TypeError:",
     [_ENGINE + "test_a_bad_plan_entry_is_a_located_validation_error"]),
    ("plan-vm-index-sign-check-dropped", "cloudsched/model.py",
     "set(vm_at) <= set(range(m))", "max(vm_at, default=-1) < m",
     [_ENGINE + "test_a_bad_plan_entry_is_a_located_validation_error",
      _MODEL + "test_validate_plan_accepts_exactly_the_valid_plans"]),
    ("plan-type-check-admits-bool", "cloudsched/model.py",
     "set(map(type, vm_at)) <= {int}", "set(map(type, vm_at)) <= {int, bool}",
     [_ENGINE + "test_a_bad_plan_entry_is_a_located_validation_error",
      _MODEL + "test_validate_plan_accepts_exactly_the_valid_plans"]),
    ("plan-slot-type-check-admits-bool", "cloudsched/model.py",
     "set(map(type, order)) <= {int}", "set(map(type, order)) <= {int, bool}",
     [_ENGINE + "test_a_bad_plan_entry_is_a_located_validation_error",
      _MODEL + "test_validate_plan_accepts_exactly_the_valid_plans"]),
    # A range other than range(n) (a reversed one is a permutation too)
    # must take the general passes.
    ("plan-range-fast-path-without-fall-through", "cloudsched/model.py",
     "type(order) is range and order == range(n) or (",
     "order == range(n) if type(order) is range else (",
     [_MODEL + "test_validate_plan_accepts_exactly_the_valid_plans"]),
    ("plan-range-compared-by-length", "cloudsched/model.py",
     "type(order) is range and order == range(n)",
     "type(order) is range and len(order) == n",
     [_MODEL + "test_validate_plan_accepts_exactly_the_valid_plans"]),
    ("compare-single-result-accepted", "cloudsched/model.py",
     "if len(results) < 2:", "if len(results) < 1:",
     [_CLI + "test_compare_needs_two_policies",
      _METRICS + "test_compare_needs_two_reports"]),
    ("ps-grouping-tolerance", "cloudsched/engine.py",
     "if length != target:", "if not abs(length - target) <= 1e-3:",
     [_ENGINE + "test_ps_finish_order_follows_length_order"]),
    ("render-finiteness-check-dropped", "cloudsched/cli.py",
     'if spec.endswith("f") and not math.isfinite(sum(column)):', "if False:",
     [_CLI + "test_overflowing_results_are_an_error_not_inf"]),
    ("cli-gc-left-disabled", "cloudsched/cli.py",
     "gc.enable()", "pass",
     [_CLI + "test_only_help_leaves_through_system_exit",
      _CLI + "test_an_unexpected_exception_leaves_the_collector_on"]),
    ("save-fast-path-guard-dropped", "cloudsched/workload.py",
     "if type(scenario.policy) is str and _plain(numbers, float):",
     "if True:",
     [_WORKLOAD + "test_save_writes_json_dumps_of_an_unvalidated_scenario"]),
    ("validate-vm-id-sign-check-dropped", "cloudsched/model.py",
     'Vm: ("vm", True,', 'Vm: ("vm", False,',
     [_MODEL + "test_a_non_positive_vm_id_is_flagged"]),
    ("validate-vm-ram-check-dropped", "cloudsched/model.py",
     '{"mips": "mips", "ram_mb": "ram"}', '{"mips": "mips"}',
     [_MODEL + "test_a_non_positive_vm_ram_is_flagged"]),
    ("validate-host-storage-check-dropped", "cloudsched/model.py",
     ', "storage_mb": "storage"}', "}",
     [_MODEL + "test_a_non_positive_host_storage_is_flagged"]),
    ("validate-type-error-escapes-the-pass", "cloudsched/model.py",
     "except (OverflowError, TypeError):  # what the walk names",
     "except OverflowError:",
     [_MODEL + "test_validation_raises_nothing_but_validation_error"]),
    ("validate-overflow-escapes-the-walk", "cloudsched/model.py",
     "except OverflowError:  # an int that no float can hold",
     "except ZeroDivisionError:",
     [_MODEL
      + "test_an_int_past_float_range_in_a_number_field_is_flagged_not_raised"]),
    ("cli-repeated-entry-accepted", "cloudsched/cli.py",
     "if len(set(entries)) != len(entries):", "if False:",
     [_CLI + "test_a_repeated_list_entry_is_an_error"]),
    ("cli-unknown-entry-accepted", "cloudsched/cli.py",
     "if known is not int and entry not in known:", "if False:",
     [_CLI + "test_a_command_line_argparse_rejects_is_one_error_line_and_exit_1"]),
    ("cli-seed-upper-bound-dropped", "cloudsched/cli.py",
     "type=_int_type(0, 2 ** 64 - 1)", "type=_int_type(0)",
     [_CLI + "test_a_command_line_argparse_rejects_is_one_error_line_and_exit_1"]),
    ("cli-count-lower-bound-dropped", "cloudsched/cli.py",
     "entries = tuple(map(_int_type(1), entries))",
     "entries = tuple(map(int, entries))",
     [_CLI + "test_a_command_line_argparse_rejects_is_one_error_line_and_exit_1"]),
    ("sweep-rows-merged-in-share-order", "cloudsched/cli.py",
     "entries.sort(key=lambda entry: position[entry[0]])", "pass",
     [_CLI + "test_sweep_bytes_do_not_depend_on_the_worker_count"]),
    ("sweep-worker-not-reaped", "cloudsched/cli.py",
     "status = os.waitpid(pid, 0)[1]", "status = 0",
     [_CLI + "test_sweep_bytes_do_not_depend_on_the_worker_count"]),
    ("sweep-worker-failure-ignored", "cloudsched/cli.py",
     "if status:", "if False:",
     [_CLI + "test_a_sweep_worker_that_dies_is_one_error_line_and_exit_2"]),
]


def _pytest(src, test_ids):
    """pytest's exit code on `test_ids` with `src` first on the path, or
    None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-m", "pytest", "-x", "-q",
               "-p", "no:cacheprovider", "--hypothesis-profile=mutants",
               *test_ids]
    try:
        return subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def _run_mutant(tmp, mutant):
    """(verdict line, whether the mutant was not killed) for one mutant,
    tested on its own mutated copy of `src/` under `tmp`."""
    name, file, old, new, tests = mutant
    copy = Path(tmp) / name
    shutil.copytree(SRC, copy)
    path = copy / file
    text = path.read_text()
    if text.count(old) != 1:
        return (f"error     {name}: old text occurs "
                f"{text.count(old)} times in {file}"), True
    path.write_text(text.replace(old, new))
    started = time.perf_counter()
    code = _pytest(copy, tests)
    took = time.perf_counter() - started
    if code is None:
        return f"killed    {name} (timeout after {TIMEOUT_S} s)", False
    if code == 1:
        return f"killed    {name} ({took:.1f} s)", False
    # 0 is a survivor; any other exit means pytest could not run the
    # tests, which proves nothing.
    return (f"{'SURVIVED' if code == 0 else 'error':<9} "
            f"{name} (pytest exit {code})"), True


def main():
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        pristine = Path(tmp) / "src"
        shutil.copytree(SRC, pristine)
        every_test = sorted({t for *_, tests in MUTANTS for t in tests})
        code = _pytest(pristine, every_test)
        if code != 0:
            print(f"error: the killing tests fail on unmutated src/ "
                  f"(pytest exit {code})")
            return 1
        # Each mutant has its own copy, so WORKERS of them run at once;
        # verdicts print in list order.
        with ThreadPoolExecutor(WORKERS) as pool:
            verdicts = pool.map(lambda mutant: _run_mutant(tmp, mutant), MUTANTS)
            for (name, *_), (verdict, failed) in zip(MUTANTS, verdicts):
                print(verdict, flush=True)
                if failed:
                    problems.append(name)
    if problems:
        print(f"{len(problems)} of {len(MUTANTS)} mutants not killed: "
              f"{', '.join(problems)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
