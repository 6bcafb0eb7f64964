"""Broker policies mapping cloudlets to VMs.

Three policies, each a pure function of the scenario:

* fcfs - arrival order dealt cyclically over VMs, run space-shared;
* rr   - same cyclic deal over the VM ring, run time-shared;
* gpa  - longest cloudlets first onto the VM with the earliest estimated
         finish, run space-shared.

All tie-breaks are total and documented, so each plan is deterministic.
`assign` hands the engine each plan as immutable columns that record the
cloudlet and VM counts they were built for, so `engine.execute_plan`
checks such a plan by those counts alone.
"""

from bisect import bisect, bisect_left
from itertools import cycle, islice

from .model import POLICIES, ExecutionMode, Plan, Scenario, _AssignedPlan


def _cyclic_plan(scenario: Scenario) -> Plan:
    """Arrival slot k -> VM k mod m (declared VM order).

    fcfs and rr share this plan; the declared VM order is rr's ring, so
    reorder the VMs in the scenario to change the ring.
    """
    n = len(scenario.cloudlet_ids)
    return range(n), tuple(islice(cycle(range(len(scenario.vms))), n))


def _gpa_plan(scenario: Scenario) -> Plan:
    """Greedy list scheduling: longest cloudlet to earliest estimated finish.

    Cloudlets are processed longest-first, equal lengths in arrival order
    (the scenario's `_longest_first`, sorted once for it and its
    `with_policy` copies); each goes to the VM minimizing (already
    assigned work + length) / mips, ties broken by higher MIPS then lower
    VM id, and the chosen VM's assigned work is updated. With every VM
    empty this sends the first cloudlet to the fastest VM.

    The search looks at one candidate per distinct MIPS value, not at
    every VM. Each MIPS class is two parallel lists: its works, ascending
    floats, and their VMs' ranks by id, equal works in ascending rank.
    Within a class the float ratio never decreases as the work grows
    (float addition and division round monotonically), so the class
    minimum is its first work, and the works that round to that minimum
    are a prefix of the list. Classes are visited fastest first and one
    displaces another only on a strictly smaller ratio, which is the
    higher-MIPS tie rule. The tie walk steps through the prefix one
    distinct work at a time, each work's lowest rank first, and keeps the
    lowest rank; the pick is moved to its new work, after equal works with
    lower ranks. A pick's rank gives its VM's position. A class of one VM
    has no walk and no order to keep: its work is updated in place. The
    cost is O(n·(k + log m)) comparisons for n cloudlets on m VMs with k
    distinct MIPS values, where a scan of every VM is O(n·m), plus two
    list moves of up to the class's size per cloudlet, done in C; no tuple
    is built per move, and the plan is the scan's.
    """
    lengths = scenario.lengths
    order = scenario._longest_first

    vms = scenario.vms
    at_rank = sorted(range(len(vms)), key=lambda v: vms[v].id)
    ranks_by_mips: dict[float, list[int]] = {}
    for rank, v in enumerate(at_rank):
        ranks_by_mips.setdefault(vms[v].mips, []).append(rank)
    classes = [(mips, [0.0] * len(ranks_by_mips[mips]), ranks_by_mips[mips])
               for mips in sorted(ranks_by_mips, reverse=True)]

    rest = classes[1:]
    vm_at = []
    for slot in order:
        length = lengths[slot]
        best = classes[0]
        best_ratio = (best[1][0] + length) / best[0]
        for cls in rest:
            ratio = (cls[1][0] + length) / cls[0]
            if ratio < best_ratio:
                best, best_ratio = cls, ratio
        mips, works, ranks = best
        if len(works) == 1:
            works[0] += length
            vm_at.append(at_rank[ranks[0]])
            continue

        pick = 0
        i = bisect(works, works[0])
        while i < len(works) and (works[i] + length) / mips == best_ratio:
            if ranks[i] < ranks[pick]:
                pick = i
            i = bisect(works, works[i], i)

        work = works.pop(pick) + length
        rank = ranks.pop(pick)
        j = bisect_left(works, work)
        while j < len(works) and works[j] == work and ranks[j] < rank:
            j += 1
        works.insert(j, work)
        ranks.insert(j, rank)
        vm_at.append(at_rank[rank])

    return order, vm_at


# policy -> (plan builder, execution mode). model.POLICIES lists the
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
    """`(plan, mode)`: the plan of the scenario's policy, and the execution
    mode that policy runs in. `engine.execute_plan` runs any plan in either
    mode. The plan is two immutable columns, which record the scenario's
    cloudlet and VM counts; `validate_plan` accepts it on any scenario
    with those counts.

    Expects a validated scenario (`load_scenario`, `generate` and
    `builtin_scenario` return one): the scenario's columns are in arrival
    order, which is not re-checked.
    """
    try:
        build_plan, mode = _POLICIES[scenario.policy]
    except KeyError:
        raise ValueError(f"unknown policy {scenario.policy!r}") from None
    return _AssignedPlan(*build_plan(scenario), len(scenario.cloudlet_ids),
                         len(scenario.vms)), mode
