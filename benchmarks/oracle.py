"""Independent reference for the benchmark's inputs and expected outputs.

The benchmark runs with any `--seed`, so it cannot rely on digests recorded
for one seed alone. This module rebuilds every workload's input from the
seed with its own copy of the pinned LCG64 generator (the algorithm is part
of cloudsched's workload contract, see README "the pinned PRNG"), replays
the three policies with the simulator's documented semantics, and renders
the canonical CSV/DAT bytes the CLI must write. It imports nothing from
cloudsched, so a change to the simulator that moves an output byte fails
the benchmark's output check instead of moving the reference with it.

Floating-point operations are done in the same order as the simulator's
specification (per-VM clock accumulation in queue order, sums in arrival
order), so the rendered bytes are exact, not approximate.
"""

from dataclasses import dataclass

MASK64 = (1 << 64) - 1
SEED_STRIDE = 0x9E3779B97F4A7C15
POLICIES = ("fcfs", "rr", "gpa")
TIME_SHARED = {"rr"}

DEFAULT_VM_MIPS = (250.0, 1000.0, 250.0, 500.0, 250.0)
DEFAULT_LENGTH_MIX = ((20000.0, 5.0), (10000.0, 7.0))
VM_RAM_MB = 512

# wide-gpa: 400 VMs from four MIPS classes on 4 datacenters x 10 hosts.
# Each host has RAM for exactly 10 VMs and MIPS for 10 of the largest class,
# so first-fit places every VM whatever classes the seed draws.
WIDE_N_CLOUDLETS = 1000
WIDE_N_VMS = 400
WIDE_MIPS_CLASSES = (250.0, 500.0, 1000.0, 2000.0)
WIDE_DATACENTERS = 4
WIDE_HOSTS_PER_DC = 10
WIDE_HOST_MIPS = 10 * max(WIDE_MIPS_CLASSES)
WIDE_HOST_RAM_MB = 10 * VM_RAM_MB
HOST_STORAGE_MB = 1_000_000

DEEP_N_CLOUDLETS = 5000
LENGTH_RANGE = (1000, 50000)

SWEEP_COUNTS = (100, 200, 300, 400, 500, 1000, 2000)


class Lcg64:
    """state' = state * 6364136223846793005 + 1442695040888963407 mod 2**64."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state * 6364136223846793005
                      + 1442695040888963407) & MASK64
        return self.state

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def unit(self) -> float:
        return (self.next_u64() >> 11) / 9007199254740992.0


def derive_seed(seed: int, n: int) -> int:
    return (seed + n * SEED_STRIDE) & MASK64


@dataclass(frozen=True)
class HostSpec:
    id: int
    datacenter_id: int
    total_mips: float
    ram_mb: int


@dataclass(frozen=True)
class Inputs:
    """One scenario as plain data; VM and cloudlet ids are index + 1."""

    lengths: tuple[float, ...]
    vm_mips: tuple[float, ...]
    hosts: tuple[HostSpec, ...]   # datacenter order, then host order


def uniform_lengths(rng: Lcg64, n: int) -> tuple[float, ...]:
    lo, hi = LENGTH_RANGE
    return tuple(float(lo + rng.below(hi - lo + 1)) for _ in range(n))


def mix_lengths(rng: Lcg64, n: int) -> tuple[float, ...]:
    total = sum(w for _, w in DEFAULT_LENGTH_MIX)
    lengths = []
    for _ in range(n):
        u = rng.unit() * total
        acc = 0.0
        picked = DEFAULT_LENGTH_MIX[-1][0]
        for value, weight in DEFAULT_LENGTH_MIX:
            acc += weight
            if u < acc:
                picked = value
                break
        lengths.append(picked)
    return tuple(lengths)


def single_host(vm_mips: tuple[float, ...]) -> tuple[HostSpec, ...]:
    """The generator's one exact-fit host in datacenter 1."""
    return (HostSpec(1, 1, float(sum(vm_mips)), VM_RAM_MB * len(vm_mips)),)


def wide_gpa_inputs(seed: int) -> Inputs:
    rng = Lcg64(seed)
    lengths = uniform_lengths(rng, WIDE_N_CLOUDLETS)
    vm_mips = tuple(WIDE_MIPS_CLASSES[rng.below(len(WIDE_MIPS_CLASSES))]
                    for _ in range(WIDE_N_VMS))
    hosts = tuple(HostSpec(dc * WIDE_HOSTS_PER_DC + h + 1, dc + 1,
                           WIDE_HOST_MIPS, WIDE_HOST_RAM_MB)
                  for dc in range(WIDE_DATACENTERS)
                  for h in range(WIDE_HOSTS_PER_DC))
    return Inputs(lengths, vm_mips, hosts)


def deep_queue_inputs(seed: int) -> Inputs:
    lengths = uniform_lengths(Lcg64(seed), DEEP_N_CLOUDLETS)
    return Inputs(lengths, DEFAULT_VM_MIPS, single_host(DEFAULT_VM_MIPS))


def sweep_inputs(seed: int, n: int) -> Inputs:
    lengths = mix_lengths(Lcg64(derive_seed(seed, n)), n)
    return Inputs(lengths, DEFAULT_VM_MIPS, single_host(DEFAULT_VM_MIPS))


def first_fit(inputs: Inputs) -> list[int]:
    """Datacenter id of each VM under first-fit provisioning."""
    free = [[h.total_mips, h.ram_mb] for h in inputs.hosts]
    placed = []
    for mips in inputs.vm_mips:
        for host, room in zip(inputs.hosts, free):
            if mips <= room[0] and VM_RAM_MB <= room[1]:
                room[0] -= mips
                room[1] -= VM_RAM_MB
                placed.append(host.datacenter_id)
                break
        else:
            raise ValueError(f"vm {len(placed) + 1} fits on no host")
    return placed


# ---------------------------------------------------------------------------
# policies and execution


def plan_queues(inputs: Inputs, policy: str) -> list[list[int]]:
    """Cloudlet indices queued on each VM, in plan order."""
    n, m = len(inputs.lengths), len(inputs.vm_mips)
    queues: list[list[int]] = [[] for _ in range(m)]
    if policy in ("fcfs", "rr"):
        for k in range(n):
            queues[k % m].append(k)
        return queues
    lengths, mips = inputs.lengths, inputs.vm_mips
    work = [0.0] * m
    for k in sorted(range(n), key=lambda i: (-lengths[i], i)):
        length = lengths[k]
        best = min(range(m), key=lambda j: ((work[j] + length) / mips[j],
                                            -mips[j], j))
        queues[best].append(k)
        work[best] += length
    return queues


def ps_finish(lengths: list[float], mips: float) -> list[float]:
    """Egalitarian processor sharing, all jobs released at t = 0."""
    n = len(lengths)
    order = sorted(range(n), key=lambda i: (lengths[i], i))
    finish = [0.0] * n
    clock = served = 0.0
    i = 0
    while i < n:
        target = lengths[order[i]]
        clock += (target - served) * (n - i) / mips
        served = target
        while i < n and lengths[order[i]] == target:
            finish[order[i]] = clock
            i += 1
    return finish


@dataclass(frozen=True)
class Report:
    policy: str
    mode: str
    rows: tuple        # (cloudlet_id, dc_id, vm_id, cpu, start, finish), arrival order
    mean_cpu: float
    mean_completion: float
    makespan: float
    mean_utilization: float
    ps_events: int     # distinct lengths per time-shared VM queue, summed

    @property
    def headline(self) -> float:
        return self.mean_completion if self.mode == "time_shared" else self.mean_cpu


def simulate(inputs: Inputs, policy: str) -> Report:
    placed = first_fit(inputs)
    queues = plan_queues(inputs, policy)
    n = len(inputs.lengths)
    rows: list = [None] * n
    busy = []
    ps_events = 0
    for j, (mips, queue) in enumerate(zip(inputs.vm_mips, queues)):
        dc, vm_id = placed[j], j + 1
        lengths = [inputs.lengths[k] for k in queue]
        if policy in TIME_SHARED:
            finishes = ps_finish(lengths, mips)
            ps_events += len(set(lengths))
            for k, fin in zip(queue, finishes):
                rows[k] = (k + 1, dc, vm_id, fin, 0.0, fin)
            busy.append(max(finishes, default=0.0))
        else:
            clock = 0.0
            for k, length in zip(queue, lengths):
                cpu = length / mips
                rows[k] = (k + 1, dc, vm_id, cpu, clock, clock + cpu)
                clock += cpu
            busy.append(clock)
    makespan = max(r[5] for r in rows)
    return Report(
        policy=policy,
        mode="time_shared" if policy in TIME_SHARED else "space_shared",
        rows=tuple(rows),
        mean_cpu=sum(r[3] for r in rows) / n,
        mean_completion=sum(r[5] for r in rows) / n,
        makespan=makespan,
        mean_utilization=sum(b / makespan for b in busy) / len(busy),
        ps_events=ps_events,
    )


# ---------------------------------------------------------------------------
# rendering


def _lines(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def run_csv(report: Report) -> bytes:
    lines = ["cloudlet_id,datacenter_id,vm_id,cpu_time,start,finish"]
    lines += [f"{c},{d},{v},{cpu:.2f},{s:.2f},{f:.2f}"
              for c, d, v, cpu, s, f in report.rows]
    lines.append(f"mean,,,{report.mean_cpu:.2f},,")
    return _lines(lines)


def compare_files(reports: list[Report]) -> dict[str, bytes]:
    base = reports[0].headline
    csv = ["policy,mode,n_cloudlets,mean_cpu_time,mean_completion_time,"
           "headline_mean,makespan,mean_utilization,improvement_pct"]
    csv += [f"{r.policy},{r.mode},{len(r.rows)},{r.mean_cpu:.2f},"
            f"{r.mean_completion:.2f},{r.headline:.2f},{r.makespan:.2f},"
            f"{r.mean_utilization:.3f},"
            f"{100.0 * (base - r.headline) / base:.1f}"
            for r in reports]
    dat = ["# policy headline_mean makespan"]
    dat += [f"{r.policy} {r.headline:.2f} {r.makespan:.2f}" for r in reports]
    return {"compare.csv": _lines(csv), "compare.dat": _lines(dat)}


@dataclass(frozen=True)
class Expected:
    """What one op of a workload must write, plus the numbers behind it."""

    outputs: dict            # file name -> bytes
    checks: dict             # simulated makespan / headline means per policy
    cloudlets: int           # distinct cloudlets in one op's inputs
    vms: int
    hosts: int
    executions: int          # cloudlet executions per op (cloudlets x policies)
    ps_events: int           # computed: summed over the op's time-shared runs
    gpa_key_evals: int       # computed: n * m per gpa assignment


def _checks(reports: list[Report]) -> dict:
    return {r.policy: {"makespan": f"{r.makespan:.2f}",
                       "headline_mean": f"{r.headline:.2f}"} for r in reports}


def _expected(inputs: Inputs, outputs: dict, reports: list[Report]) -> Expected:
    n, m = len(inputs.lengths), len(inputs.vm_mips)
    return Expected(
        outputs=outputs,
        checks=_checks(reports),
        cloudlets=n, vms=m, hosts=len(inputs.hosts),
        executions=n * len(reports),
        ps_events=sum(r.ps_events for r in reports),
        gpa_key_evals=n * m,
    )


def expected(workload: str, seed: int) -> Expected:
    """Reference outputs of one op of `workload` built from `seed`."""
    if workload == "wide-gpa":
        inputs = wide_gpa_inputs(seed)
        reports = [simulate(inputs, p) for p in POLICIES]
        return _expected(inputs, compare_files(reports), reports)
    if workload == "deep-queue":
        inputs = deep_queue_inputs(seed)
        reports = [simulate(inputs, p) for p in POLICIES]
        return _expected(inputs, {f"{r.policy}.csv": run_csv(r) for r in reports},
                         reports)
    if workload == "sweep":
        lines = ["n,policy,mean_cpu_time,makespan"]
        ps_events = 0
        checks = {}
        for n in SWEEP_COUNTS:
            reports = [simulate(sweep_inputs(seed, n), p) for p in POLICIES]
            lines += [f"{n},{r.policy},{r.mean_cpu:.2f},{r.makespan:.2f}"
                      for r in reports]
            ps_events += sum(r.ps_events for r in reports)
            checks[str(n)] = _checks(reports)
        total = sum(SWEEP_COUNTS)
        return Expected(
            outputs={"sweep.csv": _lines(lines)},
            checks=checks,
            cloudlets=total, vms=len(DEFAULT_VM_MIPS), hosts=1,
            executions=total * len(POLICIES),
            ps_events=ps_events,
            gpa_key_evals=total * len(DEFAULT_VM_MIPS),
        )
    raise ValueError(f"unknown workload {workload!r}")
