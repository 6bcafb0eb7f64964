"""Scenario files, built-in scenarios and the seeded workload generator.

The scenario document is a single JSON object with exactly the keys
`policy`, `datacenters`, `vms` and `cloudlets`, the fields of `Scenario`;
ids are explicit and each host, VM and cloudlet holds only its domain
type's fields. Any other key is rejected with its location, so fixture
typos fail loudly.
"""

import json
import math
import re
from collections.abc import Iterator
from itertools import chain, count, islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple, Optional

from .model import (
    Cloudlet,
    Datacenter,
    Host,
    Scenario,
    Vm,
    validate_scenario,
)

VM_RAM_MB = 512
BENCH_LENGTHS = (20000.0, 10000.0, 20000.0, 10000.0, 10000.0, 20000.0,
                 10000.0, 20000.0, 10000.0, 10000.0, 20000.0, 10000.0)
BENCH_VM_MIPS = (250.0, 1000.0, 250.0, 500.0, 250.0)

# The shipped scenarios: name -> (VM MIPS in declaration order, policy,
# RAM of the two hosts).
_BUILTINS = {
    "paper12-fcfs": (BENCH_VM_MIPS, "fcfs", (3 * VM_RAM_MB, 2 * VM_RAM_MB)),
    "paper12-rr": ((250.0, 250.0, 250.0, 500.0, 1000.0), "rr",
                   (4 * VM_RAM_MB, 1 * VM_RAM_MB)),
    "paper12-gpa": ((1000.0, 500.0, 250.0, 250.0, 250.0), "gpa",
                    (3 * VM_RAM_MB, 2 * VM_RAM_MB)),
}
BUILTIN_NAMES = tuple(_BUILTINS)


class ScenarioFormatError(ValueError):
    """Malformed scenario document (syntax, types, or unknown keys)."""


# ---------------------------------------------------------------------------
# pinned PRNG

MASK64 = (1 << 64) - 1
_SEED_STRIDE = 0x9E3779B97F4A7C15  # odd 64-bit constant for per-n seed spacing


def _lcg(seed: int) -> Iterator[int]:
    """64-bit linear congruential generator with Knuth's MMIX constants:
    yields each new state, starting from `seed` mod 2**64.

    state' = state * 6364136223846793005 + 1442695040888963407  (mod 2**64)

    The update rule and the two ways a draw is used (`draw % n` for an
    integer in [0, n), its top 53 bits / 2**53 for a float in [0, 1)) are
    part of the workload contract, so any implementation of the same
    integer arithmetic reproduces identical scenarios byte for byte.
    """
    state = seed & MASK64
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) & MASK64
        yield state


def derive_seed(seed: int, n: int) -> int:
    """Per-size sub-seed for sweeps: seed + n strides, mod 2**64."""
    return (seed + n * _SEED_STRIDE) & MASK64


# ---------------------------------------------------------------------------
# generated and built-in scenarios

def _scenario(hosts, vm_mips, lengths, policy: str) -> Scenario:
    """Validated scenario with each host in a datacenter of its own, one
    512 MB VM per MIPS value and one cloudlet per length, in arrival order;
    VM and cloudlet ids count from 1."""
    return validate_scenario(Scenario(
        datacenters=tuple(Datacenter(id=h.datacenter_id, hosts=(h,))
                          for h in hosts),
        vms=tuple(Vm(id=i + 1, mips=m, ram_mb=VM_RAM_MB)
                  for i, m in enumerate(vm_mips)),
        cloudlets=tuple(map(tuple.__new__, repeat(Cloudlet),
                            zip(count(1), lengths, count()))),
        policy=policy,
    ))


class GeneratorSpec(NamedTuple):
    """Synthetic workload description.

    Lengths are either the benchmark mix (20000 MI with weight 5, 10000 MI
    with weight 7, drawn independently per cloudlet) or, with
    `length_range` = (min_mi, max_mi), uniform integers in that range.
    """

    n_tasks: int
    length_range: Optional[tuple[int, int]] = None
    seed: int = 0


def _spec_problems(spec: GeneratorSpec) -> list[str]:
    problems = []
    if spec.n_tasks < 1:
        problems.append("n_tasks must be >= 1")
    if spec.length_range is not None:
        lo, hi = spec.length_range
        if lo <= 0:
            problems.append("length_range minimum must be positive")
        if lo > hi:
            problems.append("length_range minimum exceeds maximum")
    return problems


def _draw_lengths(spec: GeneratorSpec) -> list[float]:
    draws = islice(_lcg(spec.seed), spec.n_tasks)
    if spec.length_range is not None:
        lo, hi = spec.length_range
        return [float(lo + u % (hi - lo + 1)) for u in draws]
    return [20000.0 if (u >> 11) / 9007199254740992.0 * 12.0 < 5.0 else 10000.0
            for u in draws]


def generate(spec: GeneratorSpec) -> Scenario:
    """Deterministic fcfs scenario from `spec`: same seed, same bytes.

    The VMs are the five-VM benchmark set (BENCH_VM_MIPS), each with
    512 MB RAM, on a single exact-fit host.
    """
    problems = _spec_problems(spec)
    if problems:
        raise ValueError("; ".join(problems))

    host = Host(id=1, datacenter_id=1,
                total_mips=float(sum(BENCH_VM_MIPS)),
                ram_mb=VM_RAM_MB * len(BENCH_VM_MIPS),
                storage_mb=1_000_000)
    return _scenario((host,), BENCH_VM_MIPS,
                     _draw_lengths(spec), "fcfs")


def builtin_scenario(name: str) -> Scenario:
    """One of the shipped benchmark scenarios (see BUILTIN_NAMES).

    All three share the same 12-cloudlet workload and VM MIPS multiset;
    they differ in VM declaration order (which fixes cyclic dispatch and
    the round-robin ring) and in the bound policy. The five VMs sit on two
    hosts in two datacenters; host RAM fixes which VMs land where.
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin scenario {name!r}")
    vm_mips, policy, ram_split = _BUILTINS[name]
    hosts = [Host(id=k + 1, datacenter_id=k + 2, total_mips=2000.0,
                  ram_mb=ram_mb, storage_mb=1_000_000)
             for k, ram_mb in enumerate(ram_split)]
    return _scenario(hosts, vm_mips, BENCH_LENGTHS, policy)


# ---------------------------------------------------------------------------
# serialization

def _template(keys: tuple[str, ...], depth: int) -> str:
    """`%` template of an object whose values are each one `%r`, as
    json.dumps(indent=2) writes it `depth` levels deep, led by its newline
    and indent."""
    pad = "\n" + "  " * depth
    return pad + "{" + ",".join(f'{pad}  "{key}": %r' for key in keys) + pad + "}"


# A host, VM or cloudlet is written as its fields, in declaration order.
_HOST = _template(Host._fields, 4)
_VM = _template(Vm._fields, 2)
_CLOUDLET = _template(Cloudlet._fields, 2)
_DATACENTER = '\n    {\n      "id": %r,\n      "hosts": %s\n    }'


def _json_list(template: str, rows, depth: int) -> str:
    """The list of `rows`, each formatted by `template`, as json.dumps(
    indent=2) writes it `depth` levels deep."""
    if not rows:
        return "[]"
    return "[" + ",".join(map(template.__mod__, rows)) + "\n" + "  " * depth + "]"


def _plain(numbers: list, kind: type) -> bool:
    """Whether `numbers` fit a document field of type `kind`, each written
    by json.dumps as its repr: exact ints for `int`; for `float`, exact
    ints or floats whose sum is finite, so none is NaN, infinite or past
    float range (a sum past float range declines finite numbers too)."""
    types = set(map(type, numbers))
    if kind is int:
        return types <= {int}
    try:
        return types <= {int, float} and math.isfinite(sum(numbers, 0.0))
    except OverflowError:  # an int past float range
        return False


def save_scenario(scenario: Scenario) -> str:
    """Scenario as a JSON document; fixed key order, diff-friendly.

    The text is json.dumps(indent=2) of the document, byte for byte. When
    every number is an exact int or a finite float, as in any loaded or
    generated scenario, each host, VM and cloudlet is written from one `%`
    template; otherwise json.dumps writes the whole document.
    """
    numbers = [dc.id for dc in scenario.datacenters]
    for rows in (*(dc.hosts for dc in scenario.datacenters), scenario.vms,
                 scenario.cloudlets):
        numbers += chain.from_iterable(rows)
    if type(scenario.policy) is str and _plain(numbers, float):
        datacenters = [(dc.id, _json_list(_HOST, dc.hosts, 3))
                       for dc in scenario.datacenters]
        return ('{\n  "policy": ' + json.dumps(scenario.policy)
                + ',\n  "datacenters": ' + _json_list(_DATACENTER, datacenters, 1)
                + ',\n  "vms": ' + _json_list(_VM, scenario.vms, 1)
                + ',\n  "cloudlets": ' + _json_list(_CLOUDLET, scenario.cloudlets, 1)
                + "\n}\n")
    # A bool, a non-finite float, an int past float range or a non-number.
    # Validation admits a bool in any number field; the document then holds
    # `true` there, which load_scenario refuses.
    return json.dumps({
        "policy": scenario.policy,
        "datacenters": [{"id": dc.id, "hosts": list(map(Host._asdict, dc.hosts))}
                        for dc in scenario.datacenters],
        "vms": list(map(Vm._asdict, scenario.vms)),
        "cloudlets": list(map(Cloudlet._asdict, scenario.cloudlets)),
    }, indent=2) + "\n"


def write_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(save_scenario(scenario))


def load_scenario(source) -> Scenario:
    """Parse and validate a scenario from JSON text or a file.

    A `str` is always the document text itself; an `os.PathLike` (such as
    a `pathlib.Path`) is the path of a UTF-8 file holding it. The scenario
    lists its cloudlets in arrival order, whatever order the document has
    them in.

    A well-formed list of hosts, VMs or cloudlets is checked column by
    column, at C speed. A list those checks do not accept is read element by
    element, which names the first offender: every rejection carries the
    same located message either way.
    """
    data = source if isinstance(source, str) else Path(source).read_bytes()
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
        doc = json.loads(text)
    except UnicodeDecodeError as err:
        raise ScenarioFormatError(
            f"parse error at byte {err.start}: invalid UTF-8") from None
    except RecursionError:
        raise ScenarioFormatError("document nested too deeply") from None
    except ValueError as err:
        if not isinstance(err, json.JSONDecodeError):
            # The other ValueError json.loads raises: an int past int()'s limit.
            err = json.JSONDecodeError("number out of range", text,
                                       _unconvertible_int_at(text))
        raise ScenarioFormatError(
            f"parse error at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    return validate_scenario(_scenario_from_doc(doc))


def _unconvertible_int_at(text: str) -> int:
    """Offset of the first integer literal in `text` that int() refuses.
    A token is a JSON string or a run of number characters: in the prefix
    that parsed, every digit outside a string belongs to a number."""
    for token in re.finditer(r'"(?:[^"\\]|\\.)*"|[-+.\deE]+', text):
        if token[0].lstrip("-").isdigit():
            try:
                int(token[0])
            except ValueError:
                return token.start()
    return 0


# json.loads builds exact dicts, lists, strs, ints, floats and bools, so the
# checks below compare exact types: a bool is not an int here. It also reads
# the bare tokens NaN, Infinity and -Infinity, which JSON does not have, and
# a literal past float range such as 1e400 as an infinity; `_number` rejects
# them where it reads them, and no other check accepts a float.


def _check_keys(obj, where: str, keys: tuple[str, ...]) -> None:
    """`obj` is an object with exactly the `keys`, else the first offence
    is raised."""
    if type(obj) is dict and obj.keys() == set(keys):
        return
    if type(obj) is not dict:
        raise ScenarioFormatError(f"{where}: expected an object")
    for key in obj:
        if key not in keys:
            raise ScenarioFormatError(f"{where}: unknown key {key!r}")
    key = next(k for k in keys if k not in obj)
    raise ScenarioFormatError(f"{where}: missing key {key!r}")


def _int(obj: dict, where: str, key: str) -> int:
    value = obj[key]
    if type(value) is not int:
        raise ScenarioFormatError(f"{where}.{key}: expected an integer")
    return value


def _number(obj: dict, where: str, key: str) -> float:
    value = obj[key]
    if type(value) is float:
        if math.isfinite(value):
            return value
        raise ScenarioFormatError(
            f"{where}.{key}: non-finite number {value} is not allowed")
    if type(value) is not int:
        raise ScenarioFormatError(f"{where}.{key}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioFormatError(
            f"{where}.{key}: number out of range") from None


def _columns(docs: list, cls) -> Optional[list[list]]:
    """The columns of `docs`, one per field of row type `cls` in field
    order, each `float` field's as floats, when every element is an object
    with exactly those keys and each column is `_plain` for its field's
    type; else None. Each check is one C-level pass over the list or a
    column. It only accepts: on None `_rows` reads element by element,
    which finds the first offender."""
    # Exactly the fields as keys: as many keys as fields, and each present.
    if set(map(type, docs)) != {dict} or set(map(len, docs)) != {len(cls._fields)}:
        return None
    columns = []
    for key, kind in cls.__annotations__.items():
        try:
            column = list(map(itemgetter(key), docs))
        except KeyError:
            return None
        if not _plain(column, kind):
            return None
        columns.append(list(map(float, column)) if kind is float else column)
    return columns


def _rows(cls, docs: list, where: str) -> list:
    """The rows of type `cls` that the objects `docs` at `where` describe,
    read by `_columns`, else object by object, which raises the located
    message of the first offender."""
    columns = _columns(docs, cls)
    if columns is not None:
        return list(map(tuple.__new__, repeat(cls), zip(*columns)))
    rows = []
    for i, obj in enumerate(docs):
        at = f"{where}[{i}]"
        _check_keys(obj, at, cls._fields)
        rows.append(tuple.__new__(cls, [
            (_number if kind is float else _int)(obj, at, key)
            for key, kind in cls.__annotations__.items()]))
    return rows


def _scenario_from_doc(doc) -> Scenario:
    _check_keys(doc, "document", ("policy", "datacenters", "vms", "cloudlets"))
    if type(doc["policy"]) is not str:
        raise ScenarioFormatError("document.policy: expected a string")

    for key in ("datacenters", "vms", "cloudlets"):
        if type(doc[key]) is not list:
            raise ScenarioFormatError(f"document.{key}: expected a list")

    datacenters = []
    for i, dc_doc in enumerate(doc["datacenters"]):
        where = f"datacenters[{i}]"
        _check_keys(dc_doc, where, ("id", "hosts"))
        dc_id = _int(dc_doc, where, "id")
        if type(dc_doc["hosts"]) is not list:
            raise ScenarioFormatError(f"{where}.hosts: expected a list")
        # A host's datacenter_id defaults to the datacenter that lists it.
        hosts = [{"datacenter_id": dc_id, **host} if type(host) is dict else host
                 for host in dc_doc["hosts"]]
        datacenters.append(Datacenter(dc_id, tuple(
            _rows(Host, hosts, f"{where}.hosts"))))
    vms = _rows(Vm, doc["vms"], "vms")
    cloudlets = _rows(Cloudlet, doc["cloudlets"], "cloudlets")
    # Every later stage reads tuple order as arrival order.
    cloudlets.sort(key=attrgetter("arrival_index"))

    return Scenario(
        datacenters=tuple(datacenters),
        vms=tuple(vms),
        cloudlets=tuple(cloudlets),
        policy=doc["policy"],
    )
