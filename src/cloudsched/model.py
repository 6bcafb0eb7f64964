"""Domain types shared by the whole simulator, and the checks on them.

Everything here is an immutable value object: scenarios are validated once
and can then be shared freely between policies, engine runs and reports.
A scenario is its columns: it holds its cloudlets' ids and lengths, in
arrival order, and no object per cloudlet; `Cloudlet` is the schema of a
document row. What a scenario computes once - its placement, and its
arrival slots longest first - it keeps in a store that its `with_policy`
copies share. A plan `assign` built carries the cloudlet and VM counts it
was built for, and `validate_plan` accepts it on those counts alone. A
result is columns too, and carries its own summary numbers; `summarize`
labels it and `compare` ranks results against the first. Nothing here
rounds - formatting happens at output.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

POLICIES = ("fcfs", "rr", "gpa")


class ExecutionMode(Enum):
    """How a VM serves its queue: one task at a time, or all at once."""

    SPACE_SHARED = "space_shared"
    TIME_SHARED = "time_shared"


class ValidationError(ValueError):
    """Raised when a scenario breaks one or more model invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class Cloudlet(NamedTuple):
    """One task as a scenario document lists it, and as the rows form of
    `Scenario` takes it: `length` is total work in MI (millions of
    instructions); `arrival_index` is its 0-based place in arrival order.
    A scenario holds no `Cloudlet`: it holds their ids and lengths as
    columns, in arrival order."""

    id: int
    length: float
    arrival_index: int


class Vm(NamedTuple):
    """A virtual machine rated in MIPS."""

    id: int
    mips: float
    ram_mb: int


class Host(NamedTuple):
    id: int
    datacenter_id: int
    total_mips: float
    ram_mb: int
    storage_mb: int


class Datacenter(NamedTuple):
    id: int
    hosts: tuple[Host, ...]


# What each host, VM and cloudlet must hold beyond its fields' JSON types,
# which are their annotations (`int`, or `float` for any finite number):
# (the type's name in messages, whether its ids must be positive, each field
# that must be positive -> its word in messages).
ROW_RULES = {
    Host: ("host", False,
           {"total_mips": "mips", "ram_mb": "ram", "storage_mb": "storage"}),
    Vm: ("vm", True, {"mips": "mips", "ram_mb": "ram"}),
    Cloudlet: ("cloudlet", True, {"length": "length"}),
}


def _shared_once(compute):
    """A property of a scenario that `compute` works out on first access
    and keeps in the store the scenario shares with its `with_policy`
    copies. A raise is not kept, so it recurs on every access."""
    name = compute.__name__

    def get(scenario):
        shared = scenario._shared
        if name not in shared:
            shared[name] = compute(scenario)
        return shared[name]
    return property(get, doc=compute.__doc__)


# Scenario and SimulationResult are dataclasses, not named tuples: a
# scenario's store and a result's cached properties live in an instance
# dict.
@dataclass(frozen=True, init=False, eq=False)
class Scenario:
    """A complete simulation input: infrastructure, workload and policy.

    The workload is two columns in arrival order, `cloudlet_ids` and
    `lengths`: immutable sequences of one entry per cloudlet (a generated
    scenario's ids are a `range`). `vms` are in creation order; a plan
    names cloudlets and VMs by position, and cyclic dispatch follows both
    orders. `Scenario(datacenters, vms, cloudlets, policy)` takes the
    workload as `Cloudlet` rows instead, and unzips them once into the
    columns; rows given to `dataclasses.replace` replace the columns.
    Rows whose arrival indices are not 0..n-1 in order keep their indices
    in `arrival_indices`, which validation rejects; it is None otherwise.
    Two scenarios are equal when their columns hold equal values, whatever
    sequence type holds them. With distinct lengths, a generated scenario
    holds 32 B per cloudlet and a loaded one 68 B (CPython 3.11).

    Validation also requires that first-fit places every VM
    (`provision_vms`). A scenario is placed once, by validation or else
    on its first run, and keeps its placement; it sorts its arrival slots
    longest first once, when a plan or a run first needs them. Its
    `with_policy` copies share both: one store holds them for all. The
    policy alone fixes the execution mode (`assign`).
    """

    datacenters: tuple[Datacenter, ...]
    vms: tuple[Vm, ...]
    cloudlet_ids: Sequence[int]
    lengths: Sequence[float]
    policy: str
    arrival_indices: Optional[Sequence[int]] = None

    def __init__(self, datacenters, vms, cloudlets=None, policy="", *,
                 cloudlet_ids=(), lengths=(), arrival_indices=None):
        if cloudlets is not None:
            cloudlet_ids, lengths, arrival_indices = (
                tuple(zip(*cloudlets)) or ((), (), ()))
        if len(cloudlet_ids) != len(lengths):
            raise ValueError(f"{len(cloudlet_ids)} cloudlet ids "
                             f"for {len(lengths)} lengths")
        if arrival_indices is not None and (
                list(arrival_indices) == list(range(len(arrival_indices)))):
            arrival_indices = None
        vars(self).update(datacenters=datacenters, vms=vms,
                          cloudlet_ids=cloudlet_ids, lengths=lengths,
                          policy=policy, arrival_indices=arrival_indices,
                          _shared={})

    def _key(self) -> tuple:
        return (self.datacenters, self.vms, tuple(self.cloudlet_ids),
                tuple(self.lengths), self.policy, self.arrival_indices)

    def __eq__(self, other):
        return type(other) is Scenario and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def cloudlets(self) -> tuple[Cloudlet, ...]:
        """The workload as `Cloudlet` rows, built on each access."""
        arrival = self.arrival_indices
        return tuple(map(Cloudlet._make, zip(
            self.cloudlet_ids, self.lengths,
            range(len(self.lengths)) if arrival is None else arrival)))

    def hosts(self) -> tuple[Host, ...]:
        """All hosts, in datacenter order then host order."""
        return tuple(h for dc in self.datacenters for h in dc.hosts)

    def with_policy(self, policy: str) -> "Scenario":
        """This scenario under `policy`, sharing its columns and its store."""
        copy = replace(self, policy=policy)
        vars(copy)["_shared"] = self._shared
        return copy

    @_shared_once
    def _datacenter_of(self) -> dict[int, int]:
        """vm id -> datacenter id under first-fit. A scenario that cannot
        be placed raises on every access."""
        host_dc = {h.id: h.datacenter_id for h in self.hosts()}
        return {vm: host_dc[host] for vm, host in provision_vms(self).items()}

    @_shared_once
    def _longest_first(self) -> tuple[int, ...]:
        """The arrival slots, longest cloudlet first and equal lengths in
        arrival order (one stable sort); walked backwards, shortest first
        and equal lengths in reverse arrival order."""
        lengths = self.lengths
        return tuple(sorted(range(len(lengths)), key=lengths.__getitem__,
                            reverse=True))


# What a policy hands the engine: `(order, vm_at)`, the arrival slots in
# plan order and, for each plan position, the index of its VM in
# `Scenario.vms`. Each VM serves its cloudlets in plan order.
Plan = tuple[Sequence[int], Sequence[int]]


class _AssignedPlan(tuple):
    """A plan as `assign` builds it: two immutable columns, `order` a
    permutation of range(n_cloudlets) and `vm_at` ints in range(n_vms),
    and `built_for`, those two counts. Whether such a plan runs on a
    scenario depends on the scenario's counts alone."""

    def __new__(cls, order: Sequence[int], vm_at: Sequence[int],
                n_cloudlets: int, n_vms: int):
        plan = super().__new__(cls, (order, tuple(vm_at)))
        plan.built_for = (n_cloudlets, n_vms)
        return plan

    def __getnewargs__(self):  # what `copy` and `pickle` rebuild it from
        return (*self, *self.built_for)


@dataclass(frozen=True)
class SimulationResult:
    """One run, and the numbers the policies are ranked by. Space-shared
    runs are compared on mean CPU (service) time, time-shared runs on mean
    completion time; a result carries both. `policy` labels the run
    (`summarize`). The outcome is one column per field, in arrival order
    (times in seconds), and each VM's last finish in `Scenario.vms` order;
    a time-shared `cpu_times` is its `finish_times`; `cloudlet_ids` is the
    scenario's column itself; a VM's datacenter is the scenario's
    placement. Each scan of a column runs once per result."""

    mode: ExecutionMode
    cloudlet_ids: Sequence[int]
    vm_ids: tuple[int, ...]
    cpu_times: tuple[float, ...]
    start_times: tuple[float, ...]
    finish_times: tuple[float, ...]
    busy_times: tuple[float, ...]
    policy: str = ""

    @property
    def n_cloudlets(self) -> int:
        return len(self.cloudlet_ids)

    @cached_property
    def mean_cpu_time(self) -> float:
        return sum(self.cpu_times) / len(self.cpu_times)

    @cached_property
    def mean_completion_time(self) -> float:
        return sum(self.finish_times) / len(self.finish_times)

    @property
    def headline_mean(self) -> float:
        """The comparison metric: CPU time when space-shared, completion
        time when time-shared."""
        if self.mode is ExecutionMode.SPACE_SHARED:
            return self.mean_cpu_time
        return self.mean_completion_time

    @cached_property
    def makespan(self) -> float:
        return max(self.finish_times)

    @property
    def mean_utilization(self) -> float:
        """Mean over VMs of busy time / makespan."""
        makespan = self.makespan  # a cached attribute reads slower than a local
        return (sum(busy / makespan for busy in self.busy_times)
                / len(self.busy_times))


def summarize(result: SimulationResult, policy: str = "") -> SimulationResult:
    """`result` labelled with the policy that produced it."""
    if not result.cloudlet_ids:
        raise ValueError("empty result")
    return replace(result, policy=policy)


def compare(results: list[SimulationResult]) -> list[float]:
    """Improvement of each result's headline mean over the first result's,
    in percent: positive means that policy beat the first listed one.

    The results must cover the same number of cloudlets. A makespan of 0
    (which `mean_utilization` divides by) or a baseline headline mean of 0
    is an error: a length that small underflows a float.
    """
    if len(results) < 2:
        raise ValueError("need >= 2 policies to compare")
    counts = {r.n_cloudlets for r in results}
    if len(counts) > 1:
        raise ValueError(f"mismatched cloudlet counts: {sorted(counts)}")
    for result in results:
        if result.makespan == 0:
            raise ValueError(f"policy {result.policy!r} has a makespan of 0 "
                             f"(the scenario underflows a float)")
    baseline = results[0].headline_mean
    if baseline == 0:
        raise ValueError(f"policy {results[0].policy!r} has a headline mean of 0 "
                         f"(the scenario underflows a float)")
    return [100.0 * (baseline - r.headline_mean) / baseline for r in results]


def provision_vms(scenario: Scenario) -> dict[int, int]:
    """Bind VMs to hosts first-fit, returning vm_id -> host_id.

    VMs are placed in creation order onto the first host (datacenter order,
    then host order) with enough unreserved MIPS and RAM; each placement
    debits the host. A host whose MIPS or RAM left is below the smallest
    VM's, from the start or after a placement, fits no VM, so it leaves the
    scan; a host left exactly at the smallest demand stays. Raises
    ValidationError naming the first VM that fits on no host, which a
    validated scenario never has.
    """
    vms = scenario.vms
    least_mips = min(map(attrgetter("mips"), vms), default=0.0)
    least_ram = min(map(attrgetter("ram_mb"), vms), default=0)
    # [MIPS left, RAM left, host id] per host that fits some VM, in
    # first-fit order.
    rooms = [[h.total_mips, h.ram_mb, h.id] for h in scenario.hosts()
             if not (h.total_mips < least_mips or h.ram_mb < least_ram)]
    binding: dict[int, int] = {}
    for vm in vms:
        mips, ram = vm.mips, vm.ram_mb
        for room in rooms:
            if mips <= room[0] and ram <= room[1]:
                room[0] -= mips
                room[1] -= ram
                binding[vm.id] = room[2]
                if room[0] < least_mips or room[1] < least_ram:
                    rooms.remove(room)
                break
        else:
            raise ValidationError([f"insufficient capacity for vm {vm.id}"])
    return binding


def validate_scenario(scenario: Scenario) -> Scenario:
    """Return `scenario` unchanged if valid, else raise ValidationError
    (and nothing else, whatever the fields hold) with every invariant
    violation, one message per offender. Only a scenario with no other
    violation is placed, for every later run; the ValidationError of
    `provision_vms` names the first VM that fits nowhere.
    """
    problems: list[str] = []

    if not scenario.cloudlet_ids:
        problems.append("empty cloudlet set")
    if not scenario.vms:
        problems.append("empty vm set")
    if not scenario.datacenters:
        problems.append("no datacenters")
    if scenario.policy not in POLICIES:
        problems.append(f"unknown policy {scenario.policy!r}")

    seen_dc: set[int] = set()
    seen_host: set[int] = set()
    for dc in scenario.datacenters:
        try:
            if dc.id in seen_dc:
                problems.append(f"duplicate datacenter id {dc.id}")
            seen_dc.add(dc.id)
        except TypeError:  # unhashable
            problems.append(f"datacenter id {dc.id!r} is not a number")
        if not dc.hosts:
            problems.append(f"datacenter {dc.id} has no hosts")
        problems += _row_problems(Host, tuple(zip(*dc.hosts)), seen_host, dc.id)
    problems += _row_problems(Vm, tuple(zip(*scenario.vms)))
    problems += _row_problems(Cloudlet, (scenario.cloudlet_ids, scenario.lengths))

    indices = scenario.arrival_indices  # None when 0..n-1 in order
    if indices is not None:
        try:
            permuted = sorted(indices) == list(range(len(indices)))
        except TypeError:  # an index that is not a number
            permuted = False
        if permuted:
            problems.append("cloudlets are not listed in arrival order")
        else:
            problems.append("arrival indices do not form a contiguous 0..n-1 sequence")

    if problems:
        raise ValidationError(problems)
    scenario._datacenter_of  # places the scenario, or raises
    return scenario


def _row_problems(cls, columns, seen: Optional[set[int]] = None,
                  dc_id: Optional[int] = None) -> list[str]:
    """The `ROW_RULES` offences of the rows of type `cls` whose fields are
    `columns`, plus a repeated id (one already in `seen` too, if given,
    which gains each id) and a host outside datacenter `dc_id`, in row
    order. C-level passes over the columns accept the common case, and an
    ids `range` of step 1 from 1 up needs none; only when one fails or
    raises a TypeError are rows walked, naming each value that is not a
    number."""
    if not columns:  # no rows
        return []
    name, positive_id, positive = ROW_RULES[cls]
    ids = columns[0]
    checked = [(columns[cls._fields.index(field)], word,
                cls.__annotations__[field] is float)
               for field, word in positive.items()]
    # Distinct ints, the least of them its start.
    counted = type(ids) is range and ids.step == 1 and ids.start >= 1
    try:
        distinct = ids if counted else set(ids)
        if (len(distinct) == len(ids)
                and (seen is None or seen.isdisjoint(distinct))
                and (counted or not positive_id or min(ids, default=1) > 0)
                and (dc_id is None or set(columns[1]) <= {dc_id})
                and all((not finite or math.isfinite(sum(column, 0.0)))
                        and min(column, default=1) > 0
                        for column, _, finite in checked)):
            if seen is not None:
                seen.update(distinct)
            return []
    except (OverflowError, TypeError):  # what the walk names
        pass
    seen = set() if seen is None else seen
    problems = []
    for i, row_id in enumerate(ids):
        try:
            if positive_id and row_id <= 0:
                problems.append(f"non-positive {name} id {row_id}")
            if row_id in seen:
                problems.append(f"duplicate {name} id {row_id}")
            seen.add(row_id)
        except TypeError:
            problems.append(f"{name} id {row_id!r} is not a number")
        if dc_id is not None and columns[1][i] != dc_id:  # a host's datacenter_id
            problems.append(f"{name} {row_id} declares datacenter {columns[1][i]} "
                            f"but sits in datacenter {dc_id}")
        for column, word, finite in checked:
            try:
                if finite and not math.isfinite(column[i]):
                    problems.append(f"non-finite {word} on {name} {row_id}")
                elif column[i] <= 0:
                    problems.append(f"non-positive {word} on {name} {row_id}")
            except OverflowError:  # an int that no float can hold
                problems.append(f"{word} out of float range on {name} {row_id}")
            except TypeError:
                problems.append(f"{word} of {name} {row_id} is not a number")
    return problems


def validate_plan(scenario: Scenario, plan: Plan) -> Plan:
    """Return `plan` if its two columns hold one int per cloudlet: `order`
    a permutation of the arrival slots, `vm_at` positions in `scenario.vms`.
    A plan `assign` built for the scenario's cloudlet and VM counts takes
    one comparison of those counts, and so does an `order` that is
    `range(n)` itself; any other (a reversed range too) and `vm_at` take a
    few C-level passes. Only a plan that fails them is walked, and a
    ValidationError names each bad plan position (and its cloudlet) and
    each cloudlet left out."""
    if type(plan) is _AssignedPlan and plan.built_for == (
            len(scenario.cloudlet_ids), len(scenario.vms)):
        return plan
    try:
        order, vm_at = plan
        slots, vm_indices = len(order), len(vm_at)
    except (TypeError, ValueError):
        raise ValidationError(["plan is not two sized columns: "
                               "(arrival slots, vm indices)"]) from None
    if slots != vm_indices:
        raise ValidationError([f"plan has {slots} slots, {vm_indices} vm indices"])
    ids = scenario.cloudlet_ids
    n, m = len(ids), len(scenario.vms)
    # A range holds only ints.
    ordered = type(order) is range and order == range(n) or (
        slots == n and set(map(type, order)) <= {int} and len(set(order)) == n
        and min(order, default=0) >= 0 and max(order, default=-1) < n)
    if (ordered and set(map(type, vm_at)) <= {int}
            and set(vm_at) <= set(range(m))):
        return plan
    problems, seen = [], set()
    for p, (slot, v) in enumerate(zip(order, vm_at)):
        where = f"plan position {p}"
        if type(slot) is not int or not 0 <= slot < n:
            problems.append(f"{where}: slot {slot!r} is not an int in 0..{n - 1}")
        else:
            where += f" (cloudlet {ids[slot]})"
            if slot in seen:
                problems.append(f"{where} repeats its cloudlet")
            seen.add(slot)
        if type(v) is not int or not 0 <= v < m:
            problems.append(f"{where}: vm index {v!r} is not an int in 0..{m - 1}")
    raise ValidationError(problems + [f"plan leaves out cloudlet {ids[slot]}"
                                      for slot in range(n) if slot not in seen])
