"""Work conservation: a VM's last finish does not depend on the mode.

`fcfs` and `rr` share their plan and differ only in the mode. Space-shared,
a VM runs its queue L_1..L_k back to back; time-shared, it serves every
job at once, at MIPS s in total. Either way it is busy exactly until its
work is done, at W = (L_1 + ... + L_k) / s. So each VM's time-shared last
finish equals its space-shared busy time, up to rounding.

Rounding. u = 2^-53 bounds the relative error of one float operation, and
gamma(j) = j*u / (1 - j*u) bounds the relative error of a product of j
such factors (Higham, "Accuracy and Stability of Numerical Algorithms",
2nd ed., 2002, Lemma 3.1). Every term below is positive, so a bound on
each term's relative error bounds the sum's, and summing a list of terms
from 0.0 rounds each partial sum once after the first.
- Space-shared, the busy time is the sum of the k terms L_j / s: one
  rounding per division, k - 1 per addition, so it is within
  gamma(k) * W of W.
- Time-shared (`ps_finish_times`), the last finish is the sum over the
  g <= k distinct lengths T_1 < ... < T_g of (T_i - T_(i-1)) * a_i / s,
  where a_i jobs are still active; these exact terms sum to W. Each term
  is rounded three times (subtract, multiply, divide) and the sum g - 1
  times, so it is within gamma(g + 2) * W <= gamma(k + 2) * W of W.
The test compares each with W computed in Fractions, so the check itself
does not round. Lengths and MIPS keep every quotient far from overflow
and from the subnormal range, where these bounds would not hold.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from cloudsched import assign, execute_plan
from conftest import make_scenario, plan_pairs, result_rows

U = Fraction(1, 2 ** 53)

# Repeated and near-equal lengths make tied groups and near-ties common.
LENGTH = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 1000.0, 1000.0 + 2.0 ** -20]),
                   st.floats(0.001, 1e6))
SPEED = st.one_of(st.sampled_from([0.3, 250.0, 500.0, 1000.0]),
                  st.floats(0.1, 1e4))


def gamma(j):
    return j * U / (1 - j * U)


def within(computed, exact, j):
    return abs(Fraction(computed) - exact) <= gamma(j) * exact


@given(st.lists(SPEED, min_size=1, max_size=8),
       st.lists(LENGTH, min_size=1, max_size=60))
def test_each_vm_finishes_its_work_at_the_same_time_in_both_modes(vm_mips, lengths):
    scenario = make_scenario(vm_mips, lengths)
    plan, space_mode = assign(scenario.with_policy("fcfs"))
    rr_plan, time_mode = assign(scenario.with_policy("rr"))
    assert rr_plan == plan and space_mode is not time_mode
    space = execute_plan(scenario, plan, space_mode)
    shared = execute_plan(scenario, plan, time_mode)

    work = {vm.id: Fraction(0) for vm in scenario.vms}
    jobs = dict.fromkeys(work, 0)
    length_of = {cl.id: cl.length for cl in scenario.cloudlets}
    for cloudlet_id, vm_id in plan_pairs(scenario, plan):
        work[vm_id] += Fraction(length_of[cloudlet_id])
        jobs[vm_id] += 1
    last_finish = dict.fromkeys(work, 0.0)
    for record in result_rows(shared):
        last_finish[record.vm_id] = max(last_finish[record.vm_id],
                                        record.finish_time)
    for vm, busy_time in zip(scenario.vms, space.busy_times, strict=True):
        exact = work[vm.id] / Fraction(vm.mips)
        k = jobs[vm.id]
        assert within(busy_time, exact, k)
        assert within(last_finish[vm.id], exact, k + 2)
