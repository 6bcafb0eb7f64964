"""Power-of-two scaling is exact: a property that needs no reference numbers.

Multiplying a binary float by 2^k commutes with `+`, `-`, `*` and `/`
while nothing overflows or goes subnormal. So scaling every length by 2^a
and every MIPS by 2^b must leave each plan alone, scale every time by
exactly 2^(a-b), and leave every ratio of times bit-for-bit unchanged.
"""

from math import ldexp

from hypothesis import given
from hypothesis import strategies as st

from cloudsched import POLICIES, assign, compare, execute_plan, summarize
from conftest import make_scenario, result_rows

# Repeated values make ties (gpa's tie rule, equal processor-sharing
# finishes) common. With |a|, |b| <= 20 every time stays between about
# 1e-10 and 1e20: far from both the subnormal range and overflow.
LENGTHS = st.lists(st.one_of(st.sampled_from([1000.0, 2500.0, 20000.0]),
                             st.floats(1.0, 1e6)),
                   min_size=1, max_size=30)
MIPS = st.lists(st.one_of(st.sampled_from([250.0, 500.0, 1000.0]),
                          st.floats(1.0, 1e4)),
                min_size=1, max_size=8)
EXPONENT = st.integers(-20, 20)

SCALED = ("mean_cpu_time", "mean_completion_time", "headline_mean", "makespan")


def times(result):
    return [t for record in result_rows(result) for t in record[2:]]


@given(LENGTHS, MIPS, EXPONENT, EXPONENT)
def test_power_of_two_scaling_is_exact(lengths, mips, a, b):
    originals, scaled = [], []
    for policy in POLICIES:
        base = make_scenario(mips, lengths, policy=policy)
        big = make_scenario([ldexp(m, b) for m in mips],
                            [ldexp(length, a) for length in lengths],
                            policy=policy)
        plan, mode = assign(base)
        assert assign(big) == (plan, mode)
        original = summarize(execute_plan(base, plan, mode), policy)
        result = summarize(execute_plan(big, plan, mode), policy)

        assert ([record[:2] for record in result_rows(result)]
                == [record[:2] for record in result_rows(original)])
        assert times(result) == [ldexp(t, a - b) for t in times(original)]
        assert (list(result.busy_times)
                == [ldexp(busy, a - b) for busy in original.busy_times])
        for name in SCALED:
            assert getattr(result, name) == ldexp(getattr(original, name), a - b)
        assert result.mean_utilization == original.mean_utilization
        originals.append(original)
        scaled.append(result)
    assert compare(scaled) == compare(originals)
