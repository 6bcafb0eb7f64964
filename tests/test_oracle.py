"""The command line against the benchmark's oracle (`benchmarks/oracle.py`),
an independent rebuild of first-fit, the three policies, both execution
modes and the output bytes, on drawn scenarios. The oracle is imported, not
changed."""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from cloudsched import POLICIES
from cloudsched.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import oracle  # noqa: E402

# Lengths tie often (a few sampled values) or never (floats); MIPS values
# repeat or are all distinct. Times stay far from underflow and overflow.
_lengths = st.lists(st.sampled_from((1.0, 10000.0, 20000.0, 20000.0))
                    | st.floats(1.0, 1e6), min_size=1, max_size=40)
_vm_mips = (st.lists(st.sampled_from((250.0, 500.0, 1000.0)), min_size=1,
                     max_size=12)
            | st.lists(st.floats(100.0, 5000.0), min_size=1, max_size=12,
                       unique=True))


@st.composite
def _cases(draw):
    """(oracle inputs, whether each host's document leaves out its
    datacenter_id). 1-4 hosts in 1-3 datacenters, listed in datacenter
    order; a host may be too small in MIPS or RAM for what first-fit
    would put on it."""
    lengths = tuple(draw(_lengths))
    vm_mips = tuple(draw(_vm_mips))
    dc_ids = sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    hosts = tuple(
        oracle.HostSpec(k + 1, dc_id,
                        draw(st.sampled_from((0.3, 0.5, 1.0, 2.0))) * sum(vm_mips),
                        oracle.VM_RAM_MB * draw(st.integers(1, 12)))
        for k, dc_id in enumerate(dc_ids))
    omitted = draw(st.lists(st.booleans(), min_size=len(hosts),
                            max_size=len(hosts)))
    return oracle.Inputs(lengths, vm_mips, hosts), omitted


def _document(inputs, omitted) -> str:
    """The scenario document of `inputs`, written field by field."""
    datacenters: dict = {}
    for host, omit in zip(inputs.hosts, omitted):
        entry = {"id": host.id, "datacenter_id": host.datacenter_id,
                 "total_mips": host.total_mips, "ram_mb": host.ram_mb,
                 "storage_mb": oracle.HOST_STORAGE_MB}
        if omit:
            del entry["datacenter_id"]
        datacenters.setdefault(host.datacenter_id, []).append(entry)
    return json.dumps({
        "policy": "fcfs",
        "datacenters": [{"id": dc_id, "hosts": hosts}
                        for dc_id, hosts in datacenters.items()],
        "vms": [{"id": j + 1, "mips": mips, "ram_mb": oracle.VM_RAM_MB}
                for j, mips in enumerate(inputs.vm_mips)],
        "cloudlets": [{"id": k + 1, "length": length, "arrival_index": k}
                      for k, length in enumerate(inputs.lengths)],
    })


def _main(command, path, out):
    """(exit code, stderr) of one in-process CLI command."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([command, "--scenario", str(path), "--out", str(out)])
    return code, stderr.getvalue()


@given(case=_cases())
def test_run_and_compare_write_the_oracle_bytes(case):
    inputs, omitted = case
    try:
        oracle.first_fit(inputs)
        unplaced = None
    except ValueError as err:  # "vm N fits on no host"
        unplaced = str(err).split()[1]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(_document(inputs, omitted))
        for command in ("run", "compare"):
            code, stderr = _main(command, path, out)
            if unplaced is None:
                assert (code, stderr) == (0, "")
            else:
                assert (code, stderr) == (
                    1, f"error: insufficient capacity for vm {unplaced}\n")
                assert not out.exists()
        if unplaced is None:
            reports = [oracle.simulate(inputs, policy) for policy in POLICIES]
            expected = {f"{r.policy}.csv": oracle.run_csv(r) for r in reports}
            expected.update(oracle.compare_files(reports))
            assert {p.name: p.read_bytes() for p in out.iterdir()} == expected
