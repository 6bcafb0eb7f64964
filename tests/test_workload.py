"""Workload generation, the pinned PRNG, and scenario (de)serialization."""

import json
import re
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudsched import (
    BUILTIN_NAMES,
    POLICIES,
    Cloudlet,
    Datacenter,
    GeneratorSpec,
    Host,
    Scenario,
    ScenarioFormatError,
    ValidationError,
    Vm,
    builtin_scenario,
    derive_seed,
    generate,
    load_scenario,
    save_scenario,
    validate_scenario,
    write_scenario,
)
from cloudsched import workload
from cloudsched.cli import main
from cloudsched.workload import _lcg
from conftest import make_scenario


# ---------------------------------------------------------------------------
# PRNG pins — golden values frozen from the documented recurrence
# state' = state * 6364136223846793005 + 1442695040888963407 (mod 2**64)

def lcg_states(seed, n):
    return list(islice(_lcg(seed), n))


def test_lcg_sequence_pins():
    assert lcg_states(0, 3) == [
        1442695040888963407, 1876011003808476466, 11166244414315200793]
    assert lcg_states(1, 3) == [
        7806831264735756412, 9396908728118811419, 11960119808228829710]
    assert lcg_states(42, 3) == [
        10481999410520546993, 4159066171780167020, 7615522811268512075]


def test_lcg_unit_and_below_pins():
    # A float in [0, 1) is a draw's top 53 bits / 2**53; an integer in
    # [0, n) is draw % n, which a length range offsets by its minimum.
    assert (next(_lcg(0)) >> 11) / 2 ** 53 == 0.07820865487829387
    spec = GeneratorSpec(n_tasks=8, length_range=(1, 10), seed=0)
    assert [cl.length - 1 for cl in generate(spec).cloudlets] == [
        7, 6, 3, 0, 3, 0, 9, 4]


def test_lcg_unit_stays_in_range():
    # Every state is a 64-bit word, so its top 53 bits / 2**53 is in [0, 1).
    for u in lcg_states(99, 1000):
        assert 0 <= u < 2 ** 64
        assert 0.0 <= (u >> 11) / 2 ** 53 < 1.0


def test_lcg_seed_is_masked_to_64_bits():
    assert lcg_states(2 ** 64 + 5, 3) == lcg_states(5, 3)


def test_derive_seed_pins():
    assert derive_seed(0, 100) == 14820093436037199924
    assert derive_seed(7, 1) == 11400714819323198492
    assert derive_seed(0, 0) == 0
    assert 0 <= derive_seed(2 ** 64 - 1, 12345) < 2 ** 64


# ---------------------------------------------------------------------------
# generator

def test_generate_is_deterministic():
    spec = GeneratorSpec(n_tasks=40, seed=77)
    assert save_scenario(generate(spec)) == save_scenario(generate(spec))


def test_generate_uses_the_default_vm_template():
    scenario = generate(GeneratorSpec(n_tasks=3, seed=0))
    assert [vm.mips for vm in scenario.vms] == [250.0, 1000.0, 250.0, 500.0, 250.0]
    assert all(vm.ram_mb == 512 for vm in scenario.vms)
    assert len(scenario.cloudlets) == 3


def test_generate_degenerate_range_is_constant():
    scenario = generate(GeneratorSpec(n_tasks=1, length_range=(500, 500),
                                      seed=123))
    assert [cl.length for cl in scenario.cloudlets] == [500.0]


def test_generate_range_respects_bounds():
    spec = GeneratorSpec(n_tasks=500, length_range=(1000, 2000), seed=5)
    lengths = [cl.length for cl in generate(spec).cloudlets]
    assert all(1000.0 <= length <= 2000.0 for length in lengths)
    assert min(lengths) != max(lengths)


def test_generate_weighted_draws_roughly_match_weights():
    spec = GeneratorSpec(n_tasks=3000, seed=9)   # default 20000:5, 10000:7
    lengths = [cl.length for cl in generate(spec).cloudlets]
    share = lengths.count(20000.0) / len(lengths)
    assert abs(share - 5.0 / 12.0) < 0.03
    assert set(lengths) == {20000.0, 10000.0}


def test_generate_rejects_bad_specs():
    with pytest.raises(ValueError, match="n_tasks"):
        generate(GeneratorSpec(n_tasks=0))
    with pytest.raises(ValueError, match="minimum exceeds"):
        generate(GeneratorSpec(n_tasks=1, length_range=(10, 5)))


# ---------------------------------------------------------------------------
# built-in scenarios

def test_builtin_names_are_exposed_and_valid():
    assert BUILTIN_NAMES == ("paper12-fcfs", "paper12-rr", "paper12-gpa")
    for name in BUILTIN_NAMES:
        scenario = builtin_scenario(name)
        assert len(scenario.vms) == 5
        assert len(scenario.cloudlets) == 12
        assert len(scenario.datacenters) == 2


def test_builtin_vm_orders():
    assert [vm.mips for vm in builtin_scenario("paper12-fcfs").vms] == \
        [250.0, 1000.0, 250.0, 500.0, 250.0]
    assert [vm.mips for vm in builtin_scenario("paper12-rr").vms] == \
        [250.0, 250.0, 250.0, 500.0, 1000.0]
    assert [vm.mips for vm in builtin_scenario("paper12-gpa").vms] == \
        [1000.0, 500.0, 250.0, 250.0, 250.0]


def test_builtins_share_the_same_workload():
    expected = [20000.0, 10000.0, 20000.0, 10000.0, 10000.0, 20000.0,
                10000.0, 20000.0, 10000.0, 10000.0, 20000.0, 10000.0]
    for name in BUILTIN_NAMES:
        scenario = builtin_scenario(name)
        assert [cl.length for cl in scenario.cloudlets] == expected
        assert scenario.policy == name.rsplit("-", 1)[1]


def test_builtin_unknown_name_is_rejected():
    with pytest.raises(ValueError, match="paper13"):
        builtin_scenario("paper13")


# ---------------------------------------------------------------------------
# serialization

def test_save_load_roundtrip_on_builtins(tmp_path):
    for name in BUILTIN_NAMES:
        scenario = builtin_scenario(name)
        assert load_scenario(save_scenario(scenario)) == scenario
        path = tmp_path / f"{name}.json"
        write_scenario(scenario, path)
        assert load_scenario(path) == scenario


def test_save_load_roundtrip_on_generated():
    scenario = generate(GeneratorSpec(n_tasks=25, seed=4)).with_policy("gpa")
    assert load_scenario(save_scenario(scenario)) == scenario


def test_load_reads_every_str_as_document_text(tmp_path):
    path = tmp_path / "case.json"
    write_scenario(builtin_scenario("paper12-fcfs"), path)
    for text in ("[]", "42", "", str(path)):
        with pytest.raises(ScenarioFormatError):
            load_scenario(text)


def test_load_reports_parse_position(tmp_path):
    with pytest.raises(ScenarioFormatError, match=r"line 1 column"):
        load_scenario("{not json")
    # A file is UTF-8, whatever the locale says.
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"policy": "caf\xe9"}')
    with pytest.raises(ScenarioFormatError,
                       match=r"parse error at byte 15: invalid UTF-8"):
        load_scenario(path)


def test_load_rejects_unknown_keys_with_location():
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    doc["cloudlets"][3]["color"] = "red"
    with pytest.raises(ScenarioFormatError, match=r"cloudlets\[3\].*color"):
        load_scenario(json.dumps(doc))


def test_load_reports_missing_keys():
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    del doc["vms"][0]["mips"]
    with pytest.raises(ScenarioFormatError, match=r"vms\[0\].*mips"):
        load_scenario(json.dumps(doc))


def test_load_rejects_wrong_types():
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    doc["vms"][0]["ram_mb"] = True
    with pytest.raises(ScenarioFormatError, match=r"vms\[0\].ram_mb"):
        load_scenario(json.dumps(doc))


def test_a_bool_in_a_cloudlet_column_is_a_located_type_error():
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    doc["cloudlets"][4]["arrival_index"] = True
    with pytest.raises(ScenarioFormatError, match=re.escape(
            "cloudlets[4].arrival_index: expected an integer")):
        load_scenario(json.dumps(doc))


def test_a_well_formed_list_is_read_without_the_per_element_code(monkeypatch):
    def per_element(*args):
        raise AssertionError("the per-element loader ran")

    # Only the per-element code calls it.
    monkeypatch.setattr(workload, "_number", per_element)
    for scenario in (builtin_scenario("paper12-gpa"),
                     generate(GeneratorSpec(n_tasks=50, length_range=(1, 9)))):
        assert load_scenario(save_scenario(scenario)) == scenario
    # Hosts that leave their datacenter_id to the datacenter listing them.
    doc = json.loads(save_scenario(builtin_scenario("paper12-gpa")))
    for dc in doc["datacenters"]:
        for host in dc["hosts"]:
            del host["datacenter_id"]
    assert load_scenario(json.dumps(doc)) == builtin_scenario("paper12-gpa")


def test_load_delegates_semantic_checks_to_validation():
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    doc["vms"][0]["mips"] = -5
    with pytest.raises(ValidationError, match="non-positive mips"):
        load_scenario(json.dumps(doc))
    # Host 2 with RAM for one VM instead of two: first-fit cannot place VM 5.
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    doc["datacenters"][1]["hosts"][0]["ram_mb"] = 512
    with pytest.raises(ValidationError,
                       match="^insufficient capacity for vm 5$"):
        load_scenario(json.dumps(doc))


@pytest.mark.parametrize("edit, location", [
    (lambda d: d["cloudlets"][2].update(length=float("nan")),
     "cloudlets[2].length"),
    (lambda d: d["vms"][1].update(mips=float("inf")), "vms[1].mips"),
    (lambda d: d["datacenters"][0]["hosts"][0].update(total_mips=float("-inf")),
     "datacenters[0].hosts[0].total_mips"),
], ids=["nan-length", "inf-mips", "minus-inf-host-mips"])
def test_load_rejects_non_finite_tokens_with_location(edit, location):
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    edit(doc)
    text = json.dumps(doc)            # writes the bare NaN/Infinity token
    with pytest.raises(ScenarioFormatError,
                       match=re.escape(f"{location}: non-finite number")):
        load_scenario(text)


def _value_positions(node, where):
    """(location, parent, key) of every value in a parsed document, located
    as the loader's errors locate them."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, list):
            location = f"{where}[{key}]"
        else:
            location = f"{where}.{key}" if where else key
        yield location, node, key
        if isinstance(value, (dict, list)):
            yield from _value_positions(value, location)


def _document_with_every_key():
    """Saved paper12-fcfs: every key a document can hold."""
    return json.loads(save_scenario(builtin_scenario("paper12-fcfs")))


_LOCATIONS = [where for where, _, _ in
              _value_positions(_document_with_every_key(), "")]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("location", _LOCATIONS)
def test_a_non_finite_number_anywhere_is_a_located_format_error(location, token):
    doc = _document_with_every_key()
    _, parent, key = next(p for p in _value_positions(doc, "")
                          if p[0] == location)
    original, parent[key] = parent[key], "<token>"
    text = json.dumps(doc).replace('"<token>"', token)
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(text)
    message = str(err.value)
    where = location if "[" in location else f"document.{location}"
    assert message.startswith(f"{where}: ")
    if type(original) is float:      # a number field: the value is named
        assert message == (f"{where}: non-finite number {float(token)} "
                           f"is not allowed")


def test_load_drops_a_non_finite_token_that_a_duplicate_key_overrides():
    text = save_scenario(builtin_scenario("paper12-fcfs"))
    text = text.replace('"policy": "fcfs"', '"policy": NaN, "policy": "fcfs"', 1)
    assert load_scenario(text) == builtin_scenario("paper12-fcfs")


def test_load_rejects_numbers_beyond_float_range():
    text = save_scenario(builtin_scenario("paper12-fcfs"))
    # json.loads reads 1e400 as inf, which is rejected like the Infinity token.
    with pytest.raises(ScenarioFormatError, match=re.escape(
            "cloudlets[0].length: non-finite number inf is not allowed")):
        load_scenario(text.replace('"length": 20000.0', '"length": 1e400', 1))
    beyond = text.replace('"length": 20000.0', '"length": 1' + "0" * 400, 1)
    with pytest.raises(ScenarioFormatError,
                       match=r"cloudlets\[0\].length: number out of range"):
        load_scenario(beyond)
    # 5,000 digits: past the digit limit of int() where the interpreter has
    # one, which the parser reports at the literal's position.
    text = text.replace('"length": 20000.0', '"length": 1' + "0" * 5000, 1)
    with pytest.raises(ScenarioFormatError,
                       match=r"(parse error at line \d+ column \d+"
                             r"|cloudlets\[0\].length): number out of range"):
        load_scenario(text)


def test_host_datacenter_mismatch_is_a_validation_error():
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    doc["datacenters"][0]["hosts"][0]["datacenter_id"] = 3
    with pytest.raises(ValidationError, match="declares datacenter 3"):
        load_scenario(json.dumps(doc))


# Keys that older documents carried and the simulator never read, each with
# a value it once accepted, where it was accepted.
_RETIRED_KEYS = [
    ("document", "execution_mode", "time_shared"),
    ("vms[0]", "pe_count", 1),
    ("cloudlets[2]", "pe_count", 1),
    ("cloudlets[2]", "file_size", 300.0),
    ("cloudlets[2]", "output_size", 300.0),
]


def _with_key(where, key, value):
    """Saved paper12-fcfs with `key: value` added to the object at `where`."""
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    node = doc if where == "document" else doc[where[:-3]][int(where[-2])]
    node[key] = value
    return doc


@pytest.mark.parametrize("where, key, value", _RETIRED_KEYS)
def test_a_key_outside_the_scenario_fields_is_an_unknown_key(
        where, key, value, tmp_path, capsys):
    doc = _with_key(where, key, value)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    message = f"{where}: unknown key {key!r}"
    with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}$"):
        load_scenario(path)
    assert main(["run", "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# The key check comes before any value is read: a retired key holding a
# token JSON does not have, or a literal past float range, is still named
# as an unknown key of its object, not as a bad number.
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("where, key", [(w, k) for w, k, _ in _RETIRED_KEYS])
def test_a_non_finite_number_in_a_retired_key_is_an_unknown_key(where, key,
                                                                 token):
    text = json.dumps(_with_key(where, key, "<token>"))
    message = f"{where}: unknown key {key!r}"
    with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}$"):
        load_scenario(text.replace('"<token>"', token))


# ---------------------------------------------------------------------------
# property: any JSON value loads to a valid scenario or a library error

# Every key the format knows, plus five it does not: four that older
# documents carried (`execution_mode`, `pe_count`, `file_size`,
# `output_size`) and `bogus`.
_KEYS = ("policy", "execution_mode", "datacenters", "vms", "cloudlets", "id",
         "hosts", "datacenter_id", "total_mips", "ram_mb", "storage_mb", "mips",
         "pe_count", "length", "arrival_index", "file_size", "output_size",
         "bogus")

# Values a field can be mixed up with: bools for ints, floats for ints,
# numbers in strings, non-positive numbers, an int beyond float range, and
# NaN and infinities (written as bare tokens).
_MIXUPS = (None, True, False, 0, -1, 1, 1.5, 10 ** 400, 1e308, "", "1",
           float("nan"), float("inf"), float("-inf"))

_json_values = st.recursive(
    st.sampled_from(_MIXUPS) | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(_KEYS),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3)),
    max_leaves=6)


def _containers(node):
    """Every object and list in a parsed document, the document first."""
    found = []
    if isinstance(node, (dict, list)):
        found.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            found += _containers(child)
    return found


@st.composite
def _valid_documents(draw):
    """A valid scenario document: 1-3 VMs, 1-4 cloudlets, any policy, and
    one datacenter of two hosts, the first of which holds every VM."""
    vm_mips = draw(st.lists(st.sampled_from([250, 500, 1000]), min_size=1, max_size=3))
    lengths = draw(st.lists(st.integers(1, 50_000), min_size=1, max_size=4))
    doc = json.loads(save_scenario(
        make_scenario(vm_mips, lengths, policy=draw(st.sampled_from(POLICIES)))))
    hosts = doc["datacenters"][0]["hosts"]
    hosts.append(dict(hosts[0], id=2))
    return doc


@st.composite
def _scenario_documents(draw):
    """A valid scenario document with up to three edits anywhere in it:
    a value swapped for any JSON value, a key or item dropped, or a known
    or unknown key added."""
    doc = draw(_valid_documents())
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(_containers(doc)))
        edit = draw(st.sampled_from(("swap", "drop", "add")))
        if isinstance(node, dict):
            if edit == "add" or not node:
                node[draw(st.sampled_from(_KEYS))] = draw(_json_values)
            elif edit == "drop":
                del node[draw(st.sampled_from(sorted(node)))]
            else:
                node[draw(st.sampled_from(sorted(node)))] = draw(_json_values)
        elif edit == "add" or not node:
            node.insert(draw(st.integers(0, len(node))), draw(_json_values))
        elif edit == "drop":
            del node[draw(st.integers(0, len(node) - 1))]
        else:
            node[draw(st.integers(0, len(node) - 1))] = draw(_json_values)
    return doc


# Three scenario-shaped documents to one arbitrary value: most arbitrary
# values fail at the top level.
@given(doc=st.one_of(_scenario_documents(), _scenario_documents(),
                     _scenario_documents(), _json_values))
def test_any_json_value_loads_or_raises_a_library_error(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("load") / "scenario.json"
    path.write_text(json.dumps(doc))
    try:
        scenario = load_scenario(path)
    except (ScenarioFormatError, ValidationError):
        return
    assert validate_scenario(scenario) is scenario


# ---------------------------------------------------------------------------
# property: the cloudlets' list order in a document is not their arrival order

@given(doc=_valid_documents(), data=st.data())
def test_cloudlet_list_order_does_not_change_the_loaded_scenario(doc, data):
    scenario = load_scenario(json.dumps(doc))
    doc["cloudlets"] = data.draw(st.permutations(doc["cloudlets"]))
    assert load_scenario(json.dumps(doc)) == scenario


# ---------------------------------------------------------------------------
# property: the column pass and the per-element loader agree

def _load_outcome(doc):
    """The scenario `doc` loads to, or the type and text of its error."""
    try:
        return load_scenario(json.dumps(doc))
    except (ScenarioFormatError, ValidationError) as err:
        return type(err), str(err)


def _per_element_outcome(doc):
    """`_load_outcome(doc)` with every host, VM and cloudlet list read by
    the per-element code: the column pass declines each one."""
    with patch.object(workload, "_columns", return_value=None):
        return _load_outcome(doc)


# Values the column pass must accept, decline, or leave to a located
# error, by field: an int, a float whose sum with another overflows, an int
# past float range, a NaN, and a bool where a number or an int belongs; a
# host's datacenter_id may also name another datacenter or be left out.
_NUMBER_EDGES = (7, 1e308, 10 ** 400, float("nan"), True)
_OMITTED = object()
_EDGES = {("vms", "mips"): _NUMBER_EDGES,
          ("cloudlets", "length"): _NUMBER_EDGES,
          ("hosts", "total_mips"): _NUMBER_EDGES,
          ("vms", "ram_mb"): (True,),
          ("cloudlets", "arrival_index"): (True,),
          ("hosts", "ram_mb"): (True,),
          ("hosts", "storage_mb"): (True,),
          ("hosts", "datacenter_id"): (True, 2, _OMITTED)}


@st.composite
def _edge_documents(draw):
    """A valid document in which each field of `_EDGES` may hold one of its
    edge values in some of its objects."""
    doc = draw(_valid_documents())
    lists = {"hosts": doc["datacenters"][0]["hosts"],
             "vms": doc["vms"], "cloudlets": doc["cloudlets"]}
    for (key, field), values in _EDGES.items():
        value = draw(st.sampled_from((None, *values)))
        if value is not None:
            for entry in lists[key]:
                if draw(st.booleans()):
                    if value is _OMITTED:
                        del entry[field]
                    else:
                        entry[field] = value
    return doc


@given(doc=_scenario_documents())
def test_the_column_pass_and_the_per_element_code_agree(doc):
    assert _load_outcome(doc) == _per_element_outcome(doc)


@given(doc=_edge_documents())
def test_the_column_pass_and_the_per_element_code_agree_on_edge_numbers(doc):
    assert _load_outcome(doc) == _per_element_outcome(doc)


# ---------------------------------------------------------------------------
# property: save_scenario writes json.dumps(indent=2) of the document

def _document(scenario):
    """The scenario document, built field by field."""
    doc = {"policy": scenario.policy}
    doc["datacenters"] = [
        {"id": dc.id,
         "hosts": [{"id": h.id, "datacenter_id": h.datacenter_id,
                    "total_mips": h.total_mips, "ram_mb": h.ram_mb,
                    "storage_mb": h.storage_mb} for h in dc.hosts]}
        for dc in scenario.datacenters]
    doc["vms"] = [{"id": vm.id, "mips": vm.mips, "ram_mb": vm.ram_mb}
                  for vm in scenario.vms]
    doc["cloudlets"] = [{"id": cl.id, "length": cl.length,
                         "arrival_index": cl.arrival_index}
                        for cl in scenario.cloudlets]
    return doc


_positive = (st.floats(min_value=0.0, max_value=1e12, exclude_min=True)
             | st.integers(1, 10 ** 12))


@st.composite
def _validated_scenarios(draw):
    """A valid scenario of 1-3 datacenters of 1-2 hosts each, with float
    and int quantities; the first host holds every VM."""
    mips = draw(st.lists(_positive, min_size=1, max_size=4))
    lengths = draw(st.lists(_positive, min_size=1, max_size=6))
    ids = iter(range(1, 7))
    datacenters = []
    for dc_id in draw(st.lists(st.integers(-3, 10 ** 20), min_size=1,
                               max_size=3, unique=True)):
        hosts = tuple(
            Host(next(ids), dc_id, draw(_positive) + 2 * sum(mips),
                 draw(st.integers(512 * len(mips), 10 ** 20)),
                 draw(st.integers(1, 10 ** 20)))
            for _ in range(draw(st.integers(1, 2))))
        datacenters.append(Datacenter(dc_id, hosts))
    return validate_scenario(Scenario(
        tuple(datacenters),
        tuple(Vm(i + 1, m, 512) for i, m in enumerate(mips)),
        tuple(Cloudlet(j + 1, length, j) for j, length in enumerate(lengths)),
        draw(st.sampled_from(POLICIES))))


# Numbers only an API-built scenario holds: NaN, infinities, a bool, and
# ints past float range, among ordinary ones.
_edge_numbers = st.sampled_from((float("nan"), float("inf"), float("-inf"),
                                 True, False, 10 ** 400, -(10 ** 400), 0,
                                 1e308, 1.5, 7))


def _rows(row_type):
    return st.builds(row_type, *[_edge_numbers] * len(row_type._fields))


# A scenario whose every host, VM and cloudlet number is drawn from
# `_edge_numbers`, with any policy text and possibly empty lists.
_unvalidated_scenarios = st.builds(
    Scenario,
    st.lists(st.builds(Datacenter, _edge_numbers,
                       st.lists(_rows(Host), max_size=2).map(tuple)),
             max_size=2).map(tuple),
    st.lists(_rows(Vm), max_size=3).map(tuple),
    st.lists(_rows(Cloudlet), max_size=3).map(tuple),
    st.text(max_size=3))


@given(scenario=_validated_scenarios())
def test_save_writes_json_dumps_of_a_validated_scenario(scenario):
    assert save_scenario(scenario) == json.dumps(_document(scenario),
                                                 indent=2) + "\n"


@given(scenario=_unvalidated_scenarios)
def test_save_writes_json_dumps_of_an_unvalidated_scenario(scenario):
    assert save_scenario(scenario) == json.dumps(_document(scenario),
                                                 indent=2) + "\n"
