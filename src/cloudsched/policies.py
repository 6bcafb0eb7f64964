"""Broker policies mapping cloudlets to VMs.

Three policies, each a pure function of the scenario:

* fcfs - arrival order dealt cyclically over VMs, run space-shared;
* rr   - same cyclic deal over the VM ring, run time-shared;
* gpa  - longest cloudlets first onto the VM with the earliest estimated
         finish, run space-shared.

All tie-breaks are total and documented, so each plan is deterministic.
"""

from bisect import bisect, bisect_left
from itertools import cycle
from operator import attrgetter, itemgetter

from .model import POLICIES, ExecutionMode, Plan, Scenario


def _cyclic_plan(scenario: Scenario) -> Plan:
    """Cloudlet k (arrival order) -> VM k mod m (declared VM order).

    fcfs and rr share this plan; the declared VM order is rr's ring, so
    reorder the VMs in the scenario to change the ring.
    """
    return tuple(zip(map(attrgetter("id"), scenario.cloudlets),
                     cycle([vm.id for vm in scenario.vms])))


def _gpa_plan(scenario: Scenario) -> Plan:
    """Greedy list scheduling: longest cloudlet to earliest estimated finish.

    Cloudlets are processed longest-first, equal lengths in arrival order
    (one stable sort of the id and length columns); each goes to the VM
    minimizing (already assigned work + length) / mips, ties broken by
    higher MIPS then lower VM id, and the chosen VM's assigned work is
    updated. With every VM empty this sends the first cloudlet to the
    fastest VM.

    The search looks at one candidate per distinct MIPS value, not at
    every VM. Each MIPS class is two parallel lists: its works, ascending
    floats, and their VM ids, each run of equal works in ascending id.
    Within a class the float ratio never decreases as the work grows
    (float addition and division round monotonically), so the class
    minimum is its first work, and the works that round to that minimum
    are a prefix of the list. Classes are visited fastest first and one
    displaces another only on a strictly smaller ratio, which is the
    higher-MIPS tie rule. The tie walk steps through the prefix one
    distinct work at a time, each work's lowest id first, and keeps the
    lowest id; the pick is moved to its new work, after equal works with
    lower ids. A class of one VM has no walk and no order to keep: its
    work is updated in place. The cost is O(n·(k + log m)) comparisons for
    n cloudlets on m VMs with k distinct MIPS values, where a scan of
    every VM is O(n·m), plus two list moves of up to the class's size per
    cloudlet, done in C; no tuple is built per move, and the plan is the
    scan's.
    """
    ids, lengths, _ = scenario._cloudlet_columns
    ranked = sorted(zip(ids, lengths), key=itemgetter(1), reverse=True)

    ids_by_mips: dict[float, list[int]] = {}
    for vm in scenario.vms:
        ids_by_mips.setdefault(vm.mips, []).append(vm.id)
    classes = [(mips, [0.0] * len(ids_by_mips[mips]), sorted(ids_by_mips[mips]))
               for mips in sorted(ids_by_mips, reverse=True)]

    rest = classes[1:]
    entries = []
    for cloudlet_id, length in ranked:
        best = classes[0]
        best_ratio = (best[1][0] + length) / best[0]
        for cls in rest:
            ratio = (cls[1][0] + length) / cls[0]
            if ratio < best_ratio:
                best, best_ratio = cls, ratio
        mips, works, vm_ids = best
        if len(works) == 1:
            works[0] += length
            entries.append((cloudlet_id, vm_ids[0]))
            continue

        pick = 0
        i = bisect(works, works[0])
        while i < len(works) and (works[i] + length) / mips == best_ratio:
            if vm_ids[i] < vm_ids[pick]:
                pick = i
            i = bisect(works, works[i], i)

        work = works.pop(pick) + length
        vm_id = vm_ids.pop(pick)
        j = bisect_left(works, work)
        while j < len(works) and works[j] == work and vm_ids[j] < vm_id:
            j += 1
        works.insert(j, work)
        vm_ids.insert(j, vm_id)
        entries.append((cloudlet_id, vm_id))

    return tuple(entries)


# policy -> (plan builder, default execution mode). model.POLICIES lists the
# names that validation, the CLI and the default run order use; a name in
# one and not the other fails the import instead of a later run.
_POLICIES = {
    "fcfs": (_cyclic_plan, ExecutionMode.SPACE_SHARED),
    "rr": (_cyclic_plan, ExecutionMode.TIME_SHARED),
    "gpa": (_gpa_plan, ExecutionMode.SPACE_SHARED),
}
if _POLICIES.keys() != set(POLICIES):
    raise ImportError(f"policy table {sorted(_POLICIES)} does not match "
                      f"model.POLICIES {sorted(POLICIES)}")


def assign(scenario: Scenario) -> tuple[Plan, ExecutionMode]:
    """`(plan, mode)`: the scenario's policy plan, and its execution mode
    (the scenario's `execution_mode` when set, else the policy's default).

    Expects a validated scenario (`load_scenario`, `generate` and
    `builtin_scenario` return one): cloudlets are taken in tuple order,
    which is not re-checked to be arrival order.
    """
    try:
        build_plan, default_mode = _POLICIES[scenario.policy]
    except KeyError:
        raise ValueError(f"unknown policy {scenario.policy!r}") from None
    return build_plan(scenario), scenario.execution_mode or default_mode
