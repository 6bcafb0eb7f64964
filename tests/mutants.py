"""Mutation gate: each listed mutant of `src/` must fail its killing tests.

Run from anywhere with `python tests/mutants.py`. For each mutant the
script copies `src/` to a temporary directory, replaces the mutant's old
text (which must occur exactly once in its file) with the new text, and
runs `pytest -x -q` on the mutant's killing tests with `PYTHONPATH`
pointing at the copy, under the `mutants` hypothesis profile (see
`conftest.py`). A test failure or a timeout kills the mutant. The
killing tests first run once on the unmutated copy and must pass there.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIMEOUT_S = 120

_CLI = "tests/test_cli.py::"
_ENGINE = "tests/test_engine.py::"
_MODEL = "tests/test_model.py::"
_POLICIES = "tests/test_policies.py::"
_WORKLOAD = "tests/test_workload.py::"

# (name, file under src/, exact old text, new text, killing test ids)
MUTANTS = [
    ("gpa-tie-walk-one-step", "cloudsched/policies.py",
     "while i < len(pairs) and", "if i < len(pairs) and",
     [_POLICIES + "test_gpa_tie_walk_crosses_three_works"]),
    ("gpa-tie-walk-removed", "cloudsched/policies.py",
     "i = bisect(pairs, (pairs[0][0], inf))", "i = len(pairs)",
     [_POLICIES
      + "test_gpa_float_tie_between_unequal_works_prefers_lower_vm_id"]),
    ("gpa-tie-walk-higher-id", "cloudsched/policies.py",
     "if pairs[i][1] < pairs[pick][1]:", "if pairs[i][1] > pairs[pick][1]:",
     [_POLICIES
      + "test_gpa_float_tie_between_unequal_works_prefers_lower_vm_id"]),
    ("gpa-class-tie-to-slower", "cloudsched/policies.py",
     "if ratio < best_ratio:", "if ratio <= best_ratio:",
     [_POLICIES + "test_gpa_ratio_tie_prefers_higher_mips"]),
    ("loader-int-column-admits-bool", "cloudsched/workload.py",
     "if types != {int}:", "if not types <= {int, bool}:",
     [_WORKLOAD + "test_a_bool_in_a_cloudlet_column_is_a_located_type_error"]),
    ("loader-finite-sum-dropped", "cloudsched/workload.py",
     "if not math.isfinite(sum(column)):", "if False:",
     [_WORKLOAD + "test_load_rejects_non_finite_tokens_with_location"]),
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
     "(target - served) * active / mips", "(target - served) / mips",
     [_ENGINE + "test_ps_equal_jobs_finish_together_exactly"]),
    ("first-fit-exact-fit-refused", "cloudsched/model.py",
     "if mips <= room[0] and", "if mips < room[0] and",
     [_ENGINE + "test_exact_fit_leaves_nothing_behind"]),
    ("arrival-order-check-dropped", "cloudsched/model.py",
     "if indices != slots:", "if False:",
     [_MODEL + "test_arrival_indices_must_be_contiguous"]),
    ("ps-grouping-tolerance", "cloudsched/engine.py",
     "lengths[order[i]] != target", "abs(lengths[order[i]] - target) > 1e-3",
     [_ENGINE + "test_ps_finish_order_follows_length_order"]),
    ("render-finiteness-check-dropped", "cloudsched/cli.py",
     'if spec.endswith("f") and not math.isfinite(sum(column)):', "if False:",
     [_CLI + "test_overflowing_results_are_an_error_not_inf"]),
    ("cli-gc-left-disabled", "cloudsched/cli.py",
     "gc.enable()", "pass",
     [_CLI + "test_only_help_leaves_through_system_exit",
      _CLI + "test_an_unexpected_exception_leaves_the_collector_on"]),
    ("save-fast-path-guard-dropped", "cloudsched/workload.py",
     "if set(map(type, doc.values())) == {str} and _plain_numbers(numbers):",
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
        for name, file, old, new, tests in MUTANTS:
            copy = Path(tmp) / name
            shutil.copytree(SRC, copy)
            path = copy / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"error     {name}: old text occurs "
                      f"{text.count(old)} times in {file}")
                problems.append(name)
                continue
            path.write_text(text.replace(old, new))
            started = time.perf_counter()
            code = _pytest(copy, tests)
            took = time.perf_counter() - started
            if code is None:
                verdict = f"killed    {name} (timeout after {TIMEOUT_S} s)"
            elif code == 1:
                verdict = f"killed    {name} ({took:.1f} s)"
            else:
                # 0 is a survivor; any other exit means pytest could not
                # run the tests, which proves nothing.
                verdict = (f"{'SURVIVED' if code == 0 else 'error':<9} "
                           f"{name} (pytest exit {code})")
                problems.append(name)
            print(verdict)
    if problems:
        print(f"{len(problems)} of {len(MUTANTS)} mutants not killed: "
              f"{', '.join(problems)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
