"""Shared test helpers: scenario builders, a result's rows, plans by id,
the linear first-fit scan, the PS reference integrator and the row-wise
table renderer."""

import json
import math
import random
import signal
from itertools import chain
from typing import NamedTuple

import pytest
from hypothesis import Phase, settings

from cloudsched import (
    Cloudlet,
    Datacenter,
    Host,
    Scenario,
    ValidationError,
    Vm,
    builtin_scenario,
    save_scenario,
    validate_scenario,
)

MIPS_CHOICES = (250.0, 500.0, 750.0, 1000.0, 1250.0)

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow shared host neither fails nor reshuffles them.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=60)
settings.load_profile("tier1")
# The mutation gate (tests/mutants.py) needs only a pass or a fail: it runs
# the same examples, but neither shrinks nor explains a failing one.
settings.register_profile("mutants", settings.get_profile("tier1"),
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))


def make_scenario(vm_mips, lengths, policy="fcfs", check=True, vm_ids=None):
    """Single-host scenario from bare MIPS and length lists, its VMs ids
    `vm_ids` in declared order (default 1..m). The host has twice the VMs'
    MIPS: an exact fit can fail to place the last VM in floats
    (0.3 + 0.3 + 0.3 < 0.9)."""
    vm_mips = [float(m) for m in vm_mips]
    host = Host(id=1, datacenter_id=1, total_mips=2 * sum(vm_mips) or 1.0,
                ram_mb=max(512 * len(vm_mips), 512), storage_mb=1_000_000)
    scenario = Scenario(
        datacenters=(Datacenter(id=1, hosts=(host,)),),
        vms=tuple(Vm(id=i, mips=m, ram_mb=512) for i, m in
                  zip(vm_ids or range(1, len(vm_mips) + 1), vm_mips, strict=True)),
        cloudlets=tuple(Cloudlet(id=j + 1, length=float(length), arrival_index=j)
                        for j, length in enumerate(lengths)),
        policy=policy,
    )
    return validate_scenario(scenario) if check else scenario


def violations(scenario):
    """The messages `validate_scenario` raises for `scenario`; [] if valid."""
    try:
        validate_scenario(scenario)
    except ValidationError as err:
        return err.violations
    return []


def make_shuffled_arrival_document(seed=3, n=12):
    """Scenario document whose `cloudlets` list is a shuffle of its arrival
    order, so code that confuses the two puts columns or rows in the wrong
    order. Returns (document text, cloudlet ids in arrival order)."""
    scenario = make_scenario([250, 500, 1000], [1000 * (k + 1) for k in range(n)])
    doc = json.loads(save_scenario(scenario))
    random.Random(seed).shuffle(doc["cloudlets"])
    assert [cl["arrival_index"] for cl in doc["cloudlets"]] != list(range(n))
    return json.dumps(doc), [cl.id for cl in scenario.cloudlets]


class Row(NamedTuple):
    """One cloudlet's outcome, read across a result's columns."""

    cloudlet_id: int
    vm_id: int
    cpu_time: float
    start_time: float
    finish_time: float


def result_rows(result):
    """A result's columns zipped into one `Row` per cloudlet, in arrival
    order; a column of another length is an error, not a shorter list."""
    return [Row(*row) for row in zip(
        result.cloudlet_ids, result.vm_ids, result.cpu_times,
        result.start_times, result.finish_times, strict=True)]


def busy_of(scenario, result):
    """vm id -> busy time, from `result.busy_times` in `scenario.vms` order."""
    return dict(zip([vm.id for vm in scenario.vms], result.busy_times,
                    strict=True))


def plan_pairs(scenario, plan):
    """`plan` as (cloudlet id, vm id) pairs, in plan order."""
    order, vm_at = plan
    return tuple((scenario.cloudlets[slot].id, scenario.vms[v].id)
                 for slot, v in zip(order, vm_at, strict=True))


def id_plan(scenario, pairs):
    """The plan `(order, vm_at)` that runs (cloudlet id, vm id) `pairs`, in
    their order; the inverse of `plan_pairs`."""
    slot_of = {cl.id: slot for slot, cl in enumerate(scenario.cloudlets)}
    position_of = {vm.id: v for v, vm in enumerate(scenario.vms)}
    return (tuple(slot_of[cloudlet_id] for cloudlet_id, _ in pairs),
            tuple(position_of[vm_id] for _, vm_id in pairs))


def vm_queues(scenario, plan):
    """Cloudlet ids queued per vm id, in plan order."""
    queues = {}
    for cloudlet_id, vm_id in plan_pairs(scenario, plan):
        queues.setdefault(vm_id, []).append(cloudlet_id)
    return queues


def make_random_scenario(rng: random.Random, policy=None, n_cloudlets=None,
                         max_vms=6, max_cloudlets=16):
    """Small random scenario; ids stay dense and 1-based."""
    n_vms = rng.randint(1, max_vms)
    n = n_cloudlets if n_cloudlets is not None else rng.randint(1, max_cloudlets)
    vm_mips = [rng.choice(MIPS_CHOICES) for _ in range(n_vms)]
    lengths = [rng.randint(1000, 100000) for _ in range(n)]
    chosen = policy if policy is not None else rng.choice(("fcfs", "rr", "gpa"))
    return make_scenario(vm_mips, lengths, policy=chosen)


def linear_first_fit_reference(scenario):
    """First-fit as a scan of every host for every VM: vm id -> host id.

    The same float debits as `provision_vms`, which leaves out hosts that
    fit no VM, so the two bindings must be equal, or both raise the same
    ValidationError.
    """
    rooms = [[h.total_mips, h.ram_mb, h.id] for h in scenario.hosts()]
    binding = {}
    for vm in scenario.vms:
        for room in rooms:
            if vm.mips <= room[0] and vm.ram_mb <= room[1]:
                room[0] -= vm.mips
                room[1] -= vm.ram_mb
                binding[vm.id] = room[2]
                break
        else:
            raise ValidationError([f"insufficient capacity for vm {vm.id}"])
    return binding


def integrate_ps(lengths, mips, dt=0.001):
    """Fixed-timestep reference for ps_finish_times.

    Semantically the naive loop: every dt, each of the n active jobs
    advances by (mips / n) * dt; a job is retired at the end of the step
    in which its remaining work reaches zero. Steps between completions
    are batched (k steps at once), which the naive loop cannot observe
    but keeps the reference fast enough to run thousands of times.
    """
    n = len(lengths)
    remaining = [float(length) for length in lengths]
    finish = [0.0] * n
    active = list(range(n))
    steps_done = 0
    while active:
        quantum = mips / len(active) * dt
        min_left = min(remaining[i] for i in active)
        k = max(1, math.ceil(min_left / quantum))
        steps_done += k
        still_running = []
        for i in active:
            remaining[i] -= k * quantum
            if remaining[i] <= 0.0:
                finish[i] = steps_done * dt
            else:
                still_running.append(i)
        active = still_running
    return finish


def row_render_reference(table, delim):
    """The CLI's renderer as it was before tables became columns: `table`
    is (name, header, blocks) with each block (specs, rows), every row a
    value per spec that has a `%`, and one `%` per block."""
    _, header, blocks = table
    parts = [delim.join(header) + "\n"]
    for specs, rows in blocks:
        values = tuple(chain.from_iterable(rows))
        fields = [spec for spec in specs if "%" in spec]
        for j, spec in enumerate(fields):
            column = values[j::len(fields)]
            if spec.endswith("f") and not math.isfinite(sum(column)):
                for x in column:
                    if not math.isfinite(x):
                        raise ValueError(f"result {x} is not a finite number "
                                         f"(the scenario overflows a float)")
        parts.append((delim.join(specs) + "\n") * len(rows) % values)
    return "".join(parts)


def row_pretty_reference(table):
    """The CLI's `pretty` listing of a row-wise `table`, as it was."""
    # NUL cannot occur in a cell, so it splits the rendered cells back out.
    lines = [line.split("\0")
             for line in row_render_reference(table, "\0").split("\n")[:-1]]
    widths = [max(map(len, column)) for column in zip(*lines)]
    lines.insert(1, ["-" * w for w in widths])
    body = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
            for line in lines]
    return "\n".join([f"== {table[0]} ==", *body, "", ""])


@pytest.fixture
def fcfs_scenario():
    return builtin_scenario("paper12-fcfs")


@pytest.fixture
def rr_scenario():
    return builtin_scenario("paper12-rr")


@pytest.fixture
def gpa_scenario():
    return builtin_scenario("paper12-gpa")


@pytest.fixture
def time_limit():
    """Fail the test, instead of stalling the suite, if it runs over 10 s."""
    def on_alarm(signum, frame):
        pytest.fail("timed out after 10 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
