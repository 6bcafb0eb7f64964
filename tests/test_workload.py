"""Workload generation, the pinned PRNG, and scenario (de)serialization."""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudsched import (
    BUILTIN_NAMES,
    POLICIES,
    GeneratorSpec,
    Lcg64,
    ScenarioFormatError,
    ValidationError,
    builtin_scenario,
    derive_seed,
    generate,
    load_scenario,
    save_scenario,
    scenario_violations,
    write_scenario,
)
from conftest import make_scenario


# ---------------------------------------------------------------------------
# PRNG pins — golden values frozen from the documented recurrence
# state' = state * 6364136223846793005 + 1442695040888963407 (mod 2**64)

def test_lcg_sequence_pins():
    assert [Lcg64(0).next_u64() for _ in range(1)] == [1442695040888963407]
    rng = Lcg64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        1442695040888963407, 1876011003808476466, 11166244414315200793]
    rng = Lcg64(1)
    assert [rng.next_u64() for _ in range(3)] == [
        7806831264735756412, 9396908728118811419, 11960119808228829710]
    rng = Lcg64(42)
    assert [rng.next_u64() for _ in range(3)] == [
        10481999410520546993, 4159066171780167020, 7615522811268512075]


def test_lcg_unit_and_below_pins():
    assert Lcg64(0).unit() == 0.07820865487829387
    rng = Lcg64(0)
    assert [rng.below(10) for _ in range(8)] == [7, 6, 3, 0, 3, 0, 9, 4]


def test_lcg_unit_stays_in_range():
    rng = Lcg64(99)
    for _ in range(1000):
        u = rng.unit()
        assert 0.0 <= u < 1.0


def test_lcg_below_rejects_non_positive_bounds():
    with pytest.raises(ValueError):
        Lcg64(0).below(0)
    with pytest.raises(ValueError):
        Lcg64(0).below(-3)


def test_lcg_seed_is_masked_to_64_bits():
    assert Lcg64(2 ** 64 + 5).next_u64() == Lcg64(5).next_u64()


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
    (lambda d: d["cloudlets"][0].update(file_size=float("nan")),
     "cloudlets[0].file_size"),
], ids=["nan-length", "inf-mips", "minus-inf-host-mips", "nan-ignored-key"])
def test_load_rejects_non_finite_tokens_with_location(edit, location):
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    edit(doc)
    text = json.dumps(doc)            # writes the bare NaN/Infinity token
    with pytest.raises(ScenarioFormatError,
                       match=re.escape(f"{location}: non-finite number")):
        load_scenario(text)


def test_load_drops_a_non_finite_token_that_a_duplicate_key_overrides():
    text = save_scenario(builtin_scenario("paper12-fcfs"))
    text = text.replace('"policy": "fcfs"', '"policy": NaN, "policy": "fcfs"', 1)
    assert load_scenario(text) == builtin_scenario("paper12-fcfs")


def test_load_rejects_numbers_beyond_float_range():
    text = save_scenario(builtin_scenario("paper12-fcfs"))
    with pytest.raises(ValidationError, match="non-finite length on cloudlet 1"):
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


def test_load_ignores_cloudlet_size_metadata():
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    doc["cloudlets"][0]["file_size"] = 300
    doc["cloudlets"][0]["output_size"] = 300
    assert load_scenario(json.dumps(doc)) == builtin_scenario("paper12-fcfs")


def test_load_accepts_legacy_pe_count_and_rejects_a_bad_one():
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    assert "pe_count" not in json.dumps(doc)
    for entry in doc["vms"] + doc["cloudlets"]:
        entry["pe_count"] = 1
    assert load_scenario(json.dumps(doc)) == builtin_scenario("paper12-fcfs")
    doc["vms"][0]["pe_count"] = 0
    with pytest.raises(ScenarioFormatError,
                       match=re.escape("vms[0].pe_count: expected a positive")):
        load_scenario(json.dumps(doc))
    doc["vms"][0]["pe_count"] = 1
    doc["cloudlets"][1]["pe_count"] = 1.5
    with pytest.raises(ScenarioFormatError,
                       match=re.escape("cloudlets[1].pe_count: expected an integer")):
        load_scenario(json.dumps(doc))


def test_load_roundtrips_execution_mode():
    scenario = generate(GeneratorSpec(n_tasks=2, seed=0))
    doc = json.loads(save_scenario(scenario))
    doc["execution_mode"] = "time_shared"
    loaded = load_scenario(json.dumps(doc))
    assert loaded.execution_mode is not None
    assert loaded.execution_mode.value == "time_shared"
    assert load_scenario(save_scenario(loaded)) == loaded


def test_load_rejects_unknown_execution_mode():
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    doc["execution_mode"] = "warp"
    with pytest.raises(ScenarioFormatError, match="execution_mode"):
        load_scenario(json.dumps(doc))


def test_host_datacenter_mismatch_is_a_validation_error():
    doc = json.loads(save_scenario(builtin_scenario("paper12-fcfs")))
    doc["datacenters"][0]["hosts"][0]["datacenter_id"] = 3
    with pytest.raises(ValidationError, match="declares datacenter 3"):
        load_scenario(json.dumps(doc))


# ---------------------------------------------------------------------------
# property: any JSON value loads to a valid scenario or a library error

# Every key the format knows, plus one it does not.
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
    """A valid scenario document: 1-3 VMs, 1-4 cloudlets, any policy."""
    vm_mips = draw(st.lists(st.sampled_from([250, 500, 1000]), min_size=1, max_size=3))
    lengths = draw(st.lists(st.integers(1, 50_000), min_size=1, max_size=4))
    return json.loads(save_scenario(
        make_scenario(vm_mips, lengths, policy=draw(st.sampled_from(POLICIES)))))


@st.composite
def _scenario_documents(draw):
    """A valid scenario document with up to three edits anywhere in it:
    a value swapped for any JSON value, a key or item dropped, or a known,
    legacy or unknown key added."""
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
    assert scenario_violations(scenario) == []


# ---------------------------------------------------------------------------
# property: the cloudlets' list order in a document is not their arrival order

@given(doc=_valid_documents(), data=st.data())
def test_cloudlet_list_order_does_not_change_the_loaded_scenario(doc, data):
    scenario = load_scenario(json.dumps(doc))
    doc["cloudlets"] = data.draw(st.permutations(doc["cloudlets"]))
    assert load_scenario(json.dumps(doc)) == scenario
