"""Makespan bounds from scheduling theory: properties that need no
reference simulator.

On VMs of speeds s_1..s_m, no schedule of lengths L_1..L_n finishes before
max(ΣL / Σs, L_max / s_max): the VMs together do at most Σs MI per second,
and the longest cloudlet needs at least L_max / s_max seconds on any one
VM. gpa is LPT list scheduling on uniformly related machines, so its
makespan is at most 2m/(m+1) times the optimum (Gonzalez, Ibarra & Sahni,
"Bounds for LPT schedules on uniform processors", SIAM J. Comput. 6(1),
1977), and at most 4/3 - 1/(3m) times it when every MIPS is equal (Graham,
"Bounds on multiprocessing timing anomalies", SIAM J. Appl. Math. 17(2),
1969). For n <= 7 cloudlets on m <= 3 VMs the optimum is brute-forced
over all m^n assignments.

Rounding. u = 2^-53 bounds the relative error of one float operation. A
VM's makespan is a sum of at most n terms, each one to three rounded
operations away from its exact value (length / mips when space-shared;
(target - served) * active / mips when time-shared, whose exact terms sum
to the VM's total length / mips). So a computed makespan is within a
factor (1 ± (n + 3)u) of its exact value, to first order. The lower bound
(two `fsum`s and a division) is within (1 ± 3u), each brute-force load (a
plain sum of at most n lengths and a division) within (1 ± (n + 1)u), and
each ratio constant within (1 ± 3u). Together the two sides of a
comparison are off by less than (2n + 7)u, so each allows
slack(n) = 2(n + 8)u: far below any real violation.
"""

from itertools import product
from math import fsum

from hypothesis import given
from hypothesis import strategies as st

from cloudsched import POLICIES, assign, execute_plan
from conftest import make_scenario

U = 2.0 ** -53

# Small whole lengths make the tight instances of the ratio bounds likely,
# repeated values make ties common, and nothing comes near overflow or the
# subnormal range.
LENGTH = st.one_of(st.integers(1, 12).map(float),
                   st.sampled_from([1000.0, 2500.0, 20000.0]), st.floats(1.0, 1e6))
SPEED = st.one_of(st.sampled_from([250.0, 500.0, 1000.0]), st.floats(1.0, 1e4))


def slack(n):
    return 2 * (n + 8) * U


def makespan(scenario):
    plan, mode = assign(scenario)
    return execute_plan(scenario, plan, mode).makespan


def optimum(lengths, mips):
    """The least makespan over every assignment of cloudlets to VMs."""
    best = float("inf")
    for choice in product(range(len(mips)), repeat=len(lengths)):
        loads = [0.0] * len(mips)
        for vm, length in zip(choice, lengths):
            loads[vm] += length
        best = min(best, max(load / s for load, s in zip(loads, mips)))
    return best


@given(st.lists(LENGTH, min_size=1, max_size=30), st.lists(SPEED, min_size=1, max_size=8))
def test_no_policy_beats_the_work_and_longest_job_bounds(lengths, mips):
    lower = max(fsum(lengths) / fsum(mips), max(lengths) / max(mips))
    for policy in POLICIES:
        got = makespan(make_scenario(mips, lengths, policy=policy))
        assert got >= lower * (1 - slack(len(lengths))), policy


@given(st.lists(LENGTH, min_size=1, max_size=7), st.lists(SPEED, min_size=1, max_size=3))
def test_gpa_is_within_2m_over_m_plus_1_of_the_optimum(lengths, mips):
    m = len(mips)
    got = makespan(make_scenario(mips, lengths, policy="gpa"))
    bound = 2 * m / (m + 1) * optimum(lengths, mips)
    assert got <= bound * (1 + slack(len(lengths)))


@given(st.lists(LENGTH, min_size=1, max_size=7), SPEED, st.integers(1, 3))
def test_gpa_on_equal_vms_is_within_grahams_bound(lengths, speed, m):
    mips = [speed] * m
    got = makespan(make_scenario(mips, lengths, policy="gpa"))
    bound = (4 / 3 - 1 / (3 * m)) * optimum(lengths, mips)
    assert got <= bound * (1 + slack(len(lengths)))
