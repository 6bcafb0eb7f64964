"""Increasing relabelling: ids name VMs and cloudlets, and only their order
may matter.

The one rule that reads an id's value is gpa's tie break, which picks the
lower VM id; an increasing map keeps every such comparison. So mapping the
VM ids, and separately the cloudlet ids, through an increasing function,
with the declared VM and cloudlet order kept, must leave every plan (arrival
slots and VM positions) as it is, and map every output row through the same
function and change nothing else.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from cloudsched import POLICIES, assign, execute_plan, validate_scenario, write_scenario
from cloudsched.cli import main
from conftest import busy_of, make_scenario, result_rows

# Repeated values make gpa's ties and equal processor-sharing finishes common.
LENGTHS = st.lists(st.one_of(st.sampled_from([1000.0, 2500.0, 20000.0]),
                             st.floats(1.0, 1e6)), min_size=1, max_size=20)
MIPS = st.lists(st.one_of(st.sampled_from([250.0, 500.0, 1000.0]),
                          st.floats(1.0, 1e4)), min_size=1, max_size=6)


def increasing_ids(k):
    """k ids in increasing order: an increasing map of 1..k."""
    return st.lists(st.integers(1, 10 ** 12), min_size=k, max_size=k,
                    unique=True).map(sorted)


@st.composite
def relabellings(draw):
    """(mips, lengths, new VM ids, new cloudlet ids), one of the two id
    lists left as it is."""
    mips, lengths = draw(MIPS), draw(LENGTHS)
    vm_ids = list(range(1, len(mips) + 1))
    cloudlet_ids = list(range(1, len(lengths) + 1))
    if draw(st.booleans()):
        vm_ids = draw(increasing_ids(len(mips)))
    else:
        cloudlet_ids = draw(increasing_ids(len(lengths)))
    return mips, lengths, vm_ids, cloudlet_ids


def csv_rows(scenario, work):
    """The rows of `run`'s <policy>.csv for `scenario`, split into cells."""
    write_scenario(scenario, work / "scenario.json")
    assert main(["run", "--policy", scenario.policy, "--scenario",
                 str(work / "scenario.json"), "--out", str(work)]) == 0
    lines = (work / f"{scenario.policy}.csv").read_text().splitlines()
    return [line.split(",") for line in lines]


@given(relabellings())
def test_increasing_relabelling_keeps_plans_and_maps_rows(case):
    mips, lengths, vm_ids, cloudlet_ids = case
    vm_of = dict(zip(range(1, len(mips) + 1), vm_ids))
    cloudlet_of = dict(zip(range(1, len(lengths) + 1), cloudlet_ids))
    for policy in POLICIES:
        base = make_scenario(mips, lengths, policy=policy)
        moved = validate_scenario(replace(
            base,
            vms=tuple(vm._replace(id=vm_of[vm.id]) for vm in base.vms),
            cloudlets=tuple(cl._replace(id=cloudlet_of[cl.id])
                            for cl in base.cloudlets)))

        plan, mode = assign(base)
        assert assign(moved) == assign(base)
        original = execute_plan(base, plan, mode)
        result = execute_plan(moved, *assign(moved))
        assert result_rows(result) == [
            (cloudlet_of[c], vm_of[v], *rest)
            for c, v, *rest in result_rows(original)]
        assert busy_of(moved, result) == {
            vm_of[v]: busy for v, busy in busy_of(base, original).items()}

        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            expected = csv_rows(base, Path(a))
            got = csv_rows(moved, Path(b))
        # Columns: cloudlet_id, datacenter_id, vm_id, times; the last row is
        # the mean.
        for row in expected[1:-1]:
            row[0] = str(cloudlet_of[int(row[0])])
            row[2] = str(vm_of[int(row[2])])
        assert got == expected
