"""Canonical output bytes, pinned by SHA-256 from one commit to the next.

Each case runs one CLI command and hashes the files it writes. A digest
moves only when a canonical output moves by a byte; a change that means
to move one updates the digest here and says why.
"""

import hashlib

import pytest

import cloudsched.cli
from cloudsched import GeneratorSpec, generate, save_scenario
from cloudsched.cli import main


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


GOLDEN = {
    ("run", "--builtin", "paper12-fcfs", "--policy", "fcfs", "--format", "csv,tsv"): {
        "fcfs.csv": "99b3aa3600ebe3766905527b29a540c911a35e95190fa7567ff7179e728f5a57",
        "fcfs.tsv": "aacefe5d84ca00c1a35afacc40ba62325a3258c33aeaf8a84f7837401ed36452",
    },
    ("run", "--builtin", "paper12-rr", "--policy", "rr", "--format", "csv,tsv"): {
        "rr.csv": "dc39f0ade0251012a0f511508af898c08fce1b5b5e056e8aec200849f535ad96",
        "rr.tsv": "365a3e88056d65722eeda040cbeb5c69fa1d1a464434cf1210899f70d06da851",
    },
    ("run", "--builtin", "paper12-gpa", "--policy", "gpa", "--format", "csv,tsv"): {
        "gpa.csv": "2ea8aa11dfd35afd390cb4822fba2bae195df3b0008ad123b3f879b67b6c4d34",
        "gpa.tsv": "baa143312e65a587b82df050d4335a04a356fc1706c02bc158f3755528b63a9f",
    },
    ("run", "--generate", "500", "--seed", "3", "--format", "csv,tsv"): {
        "fcfs.csv": "ab391fda6d858948880423a1aef8c7fd7dec1a921c58a5c8fd642b456fd85c00",
        "fcfs.tsv": "30863b268f9c6de1e72033d8586abaf68173014c8a4db9cf1199750334d774a7",
        "rr.csv": "4f78afafd37c309cb4aeb063048b5a148897d8bc71e99af2a8f8cc0f92ad8178",
        "rr.tsv": "7502d6ef001f540bf95f2341d94ca35cf43dcc9ee3fd2d1947f894dca138c160",
        "gpa.csv": "5880fcfd3e846ea820e6a71808341638e766e06d815ce99241303ce9c1730a7b",
        "gpa.tsv": "ff3a07f0525eaeae1f9e96e138eff11832332d185447b2414a00a1ace9ee16be",
    },
    ("compare", "--builtin", "paper12-fcfs,paper12-rr,paper12-gpa",
     "--format", "csv,tsv"): {
        "compare.csv": "b7fabccf76138575832f80f1a4d31fc15761cc82c8bff31c4c2b3865865578d5",
        "compare.tsv": "bf08a9a5d593b7bf549ba1fbbb797e8738b3e306d9610cdb59c31973fe0f2bfa",
        "compare.dat": "b9f9f015f6df067897dfa7dca800f4091c2982b7ebe04b74b871f2ae205822d3",
    },
    ("compare", "--generate", "500", "--seed", "3", "--format", "csv,tsv"): {
        "compare.csv": "2bbca55dbfe4200e952420c54cf8b66bf3402cef4dc5af13065ccbfd640cb128",
        "compare.tsv": "16df2cad73ba4bac53bff38a4485458ddbe40a8789a5ba6bde197bf298c1e478",
        "compare.dat": "18dd5d4184de61edeba8b21b4f4744f5d870e994db34bcfa8880803c3229e7c9",
    },
    ("sweep", "--counts", "100,200,300,400,500", "--seed", "42"): {
        "sweep.csv": "130b89a0e7aa320a0add826fb0e6a836c1d5cb998495805a9e54fc958d2c869d",
    },
}


def _assert_writes_its_digests(argv, out):
    assert main([*argv, "--out", str(out)]) == 0
    written = {path.name for path in out.iterdir()}
    expected = GOLDEN[argv]
    assert set(expected) <= written
    assert {name: _sha256((out / name).read_bytes())
            for name in expected} == expected


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_bytes_match_their_digests(argv, tmp_path):
    _assert_writes_its_digests(argv, tmp_path)


# Both `run` table shapes: one datacenter, whose id is a fixed cell (and
# rr's start too), and two, whose ids are a column. Chunks of 1, 7 and 499
# rows put chunk boundaries inside every table, and the last chunk of a
# 500-row table holds one row.
@pytest.mark.parametrize("chunk_rows", [1, 7, 499])
@pytest.mark.parametrize("argv", [
    ("run", "--builtin", "paper12-rr", "--policy", "rr", "--format", "csv,tsv"),
    ("run", "--generate", "500", "--seed", "3", "--format", "csv,tsv"),
], ids=" ".join)
def test_run_tables_in_short_chunks_match_their_digests(argv, chunk_rows,
                                                        tmp_path, monkeypatch):
    monkeypatch.setattr(cloudsched.cli, "_CHUNK_ROWS", chunk_rows)
    _assert_writes_its_digests(argv, tmp_path)


# `--format pretty` writes its listing to stdout, not to a file.
PRETTY_GOLDEN = {
    ("run", "--generate", "500", "--seed", "3"):
        "0c51b58dd94812b6dcb3d1f47254b60f45ffca6f94c5c945fbf64078b57ebe60",
    ("compare", "--generate", "500", "--seed", "3"):
        "13576cb35ebe11a035f7447602d5c197e4668bcf2f2096dac143ee3e7b961e6c",
}


@pytest.mark.parametrize("argv", list(PRETTY_GOLDEN), ids=" ".join)
def test_pretty_listing_matches_its_digest(argv, tmp_path, capsys):
    assert main([*argv, "--format", "pretty", "--out", str(tmp_path)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == PRETTY_GOLDEN[argv]


@pytest.mark.parametrize("argv", list(PRETTY_GOLDEN), ids=" ".join)
def test_three_formats_at_once_write_the_bytes_of_three_single_runs(
        argv, tmp_path, capsys):
    # Each format renders its own text; one command with all three writes
    # and prints what three single-format commands do.
    assert main([*argv, "--format", "csv,tsv,pretty",
                 "--out", str(tmp_path / "all")]) == 0
    together = capsys.readouterr().out
    alone = {}
    for fmt in ("csv", "tsv", "pretty"):
        assert main([*argv, "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
        alone[fmt] = capsys.readouterr().out
    assert together == alone["pretty"]
    written = {path.name: path.read_bytes()
               for path in (tmp_path / "all").iterdir()}
    assert written == {path.name: path.read_bytes()
                       for fmt in ("csv", "tsv", "pretty")
                       for path in (tmp_path / fmt).iterdir()}
    assert any(name.endswith(".tsv") for name in written)


@pytest.mark.parametrize("spec, digest", [
    (GeneratorSpec(n_tasks=500, seed=3),
     "e38b4f763ef50071af196c6e7cc248e801b81ee8bf23dd4636dc633f5db9f47b"),
    (GeneratorSpec(n_tasks=500, seed=3, length_range=(1000, 50000)),
     "99c2bfbfe1a4fa38d369d4b9433ca56dd494b0a30a9331f7947dd6dbb503082d"),
], ids=["mix", "range"])
def test_generated_scenario_bytes_match_their_digests(spec, digest):
    assert _sha256(save_scenario(generate(spec)).encode()) == digest
