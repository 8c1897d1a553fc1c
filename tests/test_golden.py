"""Golden outputs: the CLI's stdout on every committed instance, byte for byte.

The expected files under ``tests/golden/`` were produced by the CLI itself.
A refactor that changes any certificate, trace, exit code or experiment row
fails here; a deliberate output change regenerates the expected file by
running the same subcommand and says why in CHANGES.md.
"""

import json
import pathlib

import pytest

from conftest import INSTANCE_DIR, instance_path
from orbitsep.cli import main
from orbitsep.oracle import INSTANCE_KINDS

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

# instance stem -> (subcommand, exit code)
INSTANCE_RUNS = {
    "c4_discrete_all": ("discrete", 2),
    "c4_full": ("escape", 2),
    "c4_separate": ("separate", 2),
    "compact_z": ("compact", 0),
    "empty_p": ("separate", 0),
    "escape_zd2": ("escape", 0),
    "fallback": ("separate", 0),
    "fullexist_z": ("fullexist", 0),
    "net_z": ("net", 0),
    "orbit_zd2": ("orbit", 0),
    "restart": ("separate", 0),
    "sequence_z": ("sequence", 0),
    "shift_pair": ("discrete", 0),
    "verify_c4_bad": ("verify", 4),
    "verify_zd2": ("verify", 0),
    "z1_single": ("separate", 0),
}

# `orbitsep instance` runs pinned by instance_kinds_seeds.out, one line each.
INSTANCE_SEEDS = (0, 1, 2, 3, 99, 12345, 2**64 - 1)


def test_every_instance_has_a_golden_run():
    stems = {p.stem for p in INSTANCE_DIR.glob("*.json")}
    assert stems == set(INSTANCE_RUNS)


@pytest.mark.parametrize("stem", sorted(INSTANCE_RUNS))
def test_instance_stdout_matches_golden(capsys, stem):
    command, expected_code = INSTANCE_RUNS[stem]
    code = main([command, "--in", instance_path(f"{stem}.json")])
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN_DIR / f"{stem}.out").read_text(encoding="utf-8")


def test_experiment_csv_matches_golden(capsys):
    code = main(["experiment", "--kinds", "zd2", "-n", "100", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    expected = (GOLDEN_DIR / "experiment_zd2_n100_seed7.csv").read_text(encoding="utf-8")
    assert out == expected


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_seeded_instance_matches_golden(capsys, kind):
    golden = (GOLDEN_DIR / "instance_kinds_seeds.out").read_text(encoding="utf-8")
    expected = [
        line for line in golden.splitlines(keepends=True) if json.loads(line)["kind"] == kind
    ]
    out = []
    for seed in INSTANCE_SEEDS:
        assert main(["instance", "--kind", kind, "--seed", str(seed)]) == 0
        out.append(capsys.readouterr().out)
    assert out == expected
