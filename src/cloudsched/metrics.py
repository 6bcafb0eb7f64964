"""Aggregation of simulation results into comparable reports.

Space-shared runs are compared on mean CPU (service) time, time-shared
runs on mean completion time; a report carries both so either view can be
read off directly. Nothing here rounds - formatting happens at output.
"""

from dataclasses import dataclass

from .model import ExecutionMode, SimulationResult, VmUsage


@dataclass(frozen=True)
class PolicyReport:
    policy: str
    mode: ExecutionMode
    n_cloudlets: int
    mean_cpu_time: float
    mean_completion_time: float
    makespan: float
    vm_usage: tuple[VmUsage, ...]

    @property
    def headline_mean(self) -> float:
        """The comparison metric: CPU time when space-shared, completion
        time when time-shared."""
        if self.mode is ExecutionMode.SPACE_SHARED:
            return self.mean_cpu_time
        return self.mean_completion_time

    @property
    def mean_utilization(self) -> float:
        """Mean over VMs of busy time / makespan."""
        return (sum(u.busy_time / self.makespan for u in self.vm_usage)
                / len(self.vm_usage))


def summarize(result: SimulationResult, policy: str = "") -> PolicyReport:
    """Aggregate one run into a PolicyReport."""
    if not result.records:
        raise ValueError("empty result")
    n = len(result.records)
    return PolicyReport(
        policy=policy,
        mode=result.mode,
        n_cloudlets=n,
        mean_cpu_time=result.mean_cpu_time,
        mean_completion_time=sum(r.finish_time for r in result.records) / n,
        makespan=result.makespan,
        vm_usage=result.vm_usage,
    )


def compare(reports: list[PolicyReport]) -> list[float]:
    """Improvement of each report's headline mean over the first report's,
    in percent: positive means that policy beat the first listed one.

    The reports must cover the same number of cloudlets. A makespan of 0
    (which `mean_utilization` divides by) or a baseline headline mean of 0
    is an error: a length that small underflows a float.
    """
    if len(reports) < 2:
        raise ValueError("need at least 2 reports to compare")
    counts = {r.n_cloudlets for r in reports}
    if len(counts) > 1:
        raise ValueError(f"mismatched cloudlet counts: {sorted(counts)}")
    for report in reports:
        if report.makespan == 0:
            raise ValueError(f"policy {report.policy!r} has a makespan of 0 "
                             f"(the scenario underflows a float)")
    baseline = reports[0].headline_mean
    if baseline == 0:
        raise ValueError(f"policy {reports[0].policy!r} has a headline mean of 0 "
                         f"(the scenario underflows a float)")
    return [100.0 * (baseline - r.headline_mean) / baseline for r in reports]
