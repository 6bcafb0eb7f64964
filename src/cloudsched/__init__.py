"""Deterministic cloud task-scheduling simulator.

Scenarios (datacenters, hosts, VMs, cloudlets) are assigned to VMs by a
broker policy — fcfs, rr, or gpa — and executed either space-shared
(sequential per VM) or time-shared (egalitarian processor sharing).
Everything is a pure function of the scenario, so runs replay exactly.
"""

from .engine import execute_plan
from .model import (
    POLICIES,
    Cloudlet,
    Datacenter,
    ExecutionMode,
    Host,
    Scenario,
    SimulationResult,
    ValidationError,
    Vm,
    compare,
    provision_vms,
    summarize,
    validate_scenario,
)
from .policies import assign
from .workload import (
    BUILTIN_NAMES,
    GeneratorSpec,
    ScenarioFormatError,
    builtin_scenario,
    derive_seed,
    generate,
    load_scenario,
    save_scenario,
    write_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "Cloudlet",
    "Datacenter",
    "ExecutionMode",
    "GeneratorSpec",
    "Host",
    "POLICIES",
    "Scenario",
    "ScenarioFormatError",
    "SimulationResult",
    "ValidationError",
    "Vm",
    "assign",
    "builtin_scenario",
    "compare",
    "derive_seed",
    "execute_plan",
    "generate",
    "load_scenario",
    "provision_vms",
    "save_scenario",
    "summarize",
    "validate_scenario",
    "write_scenario",
]
