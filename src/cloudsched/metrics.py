"""Labelling and comparison of simulation results.

The summary numbers are properties of `SimulationResult`, which carries
both the space-shared and the time-shared view. Nothing here rounds -
formatting happens at output.
"""

from dataclasses import replace

from .model import SimulationResult


def summarize(result: SimulationResult, policy: str = "") -> SimulationResult:
    """`result` labelled with the policy that produced it."""
    if not result.records:
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
        raise ValueError("need at least 2 results to compare")
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
