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


def compare(reports: list[PolicyReport]) -> list[dict]:
    """Side-by-side rows, with relative improvement vs the first report.

    Improvement is on the headline mean: positive means this policy beat
    the first listed one.
    """
    if len(reports) < 2:
        raise ValueError("need at least 2 reports to compare")
    counts = {r.n_cloudlets for r in reports}
    if len(counts) > 1:
        raise ValueError(f"mismatched cloudlet counts: {sorted(counts)}")

    baseline = reports[0].headline_mean
    rows = []
    for report in reports:
        rows.append({
            "policy": report.policy,
            "mode": report.mode.value,
            "n_cloudlets": report.n_cloudlets,
            "mean_cpu_time": report.mean_cpu_time,
            "mean_completion_time": report.mean_completion_time,
            "headline_mean": report.headline_mean,
            "makespan": report.makespan,
            "mean_utilization": report.mean_utilization,
            "improvement_pct": 100.0 * (baseline - report.headline_mean) / baseline,
        })
    return rows
