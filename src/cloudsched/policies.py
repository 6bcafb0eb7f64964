"""Broker policies mapping cloudlets to VMs.

Three policies, each a pure function of the scenario:

* fcfs - arrival order dealt cyclically over VMs, run space-shared;
* rr   - same cyclic deal over the VM ring, run time-shared;
* gpa  - longest cloudlets first onto the VM with the earliest estimated
         finish, run space-shared.

All tie-breaks are total and documented, so each plan is deterministic.
"""

from heapq import heapify, heappop, heappush
from itertools import cycle
from operator import attrgetter

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
    (a stable sort of the tuple); each goes to the VM minimizing
    (already assigned work + length) / mips, ties broken by higher MIPS
    then lower VM id, and the chosen VM's assigned work is updated. With
    every VM empty this sends the first cloudlet to the fastest VM.

    The search looks at one candidate per distinct MIPS value, not at
    every VM: O(n·(k + log m)) for n cloudlets on m VMs with k distinct
    MIPS values, where a scan of every VM is O(n·m), and the same plan.
    Within one MIPS class the float ratio never decreases as the work
    grows (float addition and division round monotonically), so the
    class minimum sits at its smallest work. Each class keeps a heap of
    its distinct works and, per work, a heap of the VM ids carrying it.
    Classes are visited fastest first and one displaces another only on
    a strictly smaller ratio, which is the higher-MIPS tie rule. Two
    works can round to the same ratio; such works form a subtree at the
    root of the work heap, which is walked to find the lowest id among
    them.
    """
    ranked = sorted(scenario.cloudlets, key=attrgetter("length"), reverse=True)

    ids_by_mips: dict[float, list[int]] = {}
    for vm in scenario.vms:
        ids_by_mips.setdefault(vm.mips, []).append(vm.id)
    # (mips, heap of distinct works, work -> heap of VM ids). A work whose
    # id heap runs empty below the root (only after a tie pick) stays in
    # the work heap until it reaches the root.
    classes = []
    for mips in sorted(ids_by_mips, reverse=True):
        ids = ids_by_mips[mips]
        heapify(ids)
        classes.append((mips, [0.0], {0.0: ids}))

    rest = classes[1:]
    entries = []
    for cloudlet_id, length, _ in ranked:
        best = classes[0]
        best_ratio = (best[1][0] + length) / best[0]
        for cls in rest:
            ratio = (cls[1][0] + length) / cls[0]
            if ratio < best_ratio:
                best, best_ratio = cls, ratio
        mips, works, ids_at = best

        work = works[0]
        vm_id = ids_at[work][0]
        pending = [1, 2] if len(works) > 1 else []
        while pending:
            i = pending.pop()
            if i < len(works) and (works[i] + length) / mips == best_ratio:
                ids = ids_at[works[i]]
                if ids and ids[0] < vm_id:
                    work, vm_id = works[i], ids[0]
                pending += (2 * i + 1, 2 * i + 2)

        entries.append((cloudlet_id, vm_id))
        heappop(ids_at[work])
        new_work = work + length
        ids = ids_at.get(new_work)
        if ids is None:  # an empty id heap is still in the work heap
            ids_at[new_work] = [vm_id]
            heappush(works, new_work)
        else:
            heappush(ids, vm_id)
        while not ids_at[works[0]]:
            del ids_at[heappop(works)]

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
