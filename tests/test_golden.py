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
    "free2_seed3": ("separate", 0),
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

Z1_CERT = json.loads((GOLDEN_DIR / "z1_single.out").read_text(encoding="utf-8"))
# Certificates the table runs read, by the file name they are written under.
TABLE_CERTS = {
    "z1_cert.json": Z1_CERT,
    "z1_cert_ratio5.json": {**Z1_CERT, "ratio": "5"},
    # one letter short and without its trace: the oracle reports a mismatch
    "z1_cert_short.json": {
        **{key: value for key, value in Z1_CERT.items() if key != "trace"},
        "word": Z1_CERT["word"][:-1],
    },
}

# `--format table` runs pinned by tables.out: every golden instance run, its
# certificate trace where there is one, and one run for each payload status
# (ok, check-ok, budget-exhausted, violations, check-failed, mismatch).
TABLE_RUNS = [
    [command, "--in", f"{stem}.json"] for stem, (command, _) in INSTANCE_RUNS.items()
]
TABLE_RUNS += [
    run + ["--trace"] for run in TABLE_RUNS if run[0] in ("separate", "discrete", "compact")
]
TABLE_RUNS += [
    ["oracle", "--in", "z1_single.json"],
    ["oracle", "--in", "c4_separate.json"],
    ["oracle", "--in", "z1_single.json", "--certificate", "z1_cert_short.json"],
    ["separate", "--in", "z1_single.json", "--check", "z1_cert.json"],
    ["separate", "--in", "z1_single.json", "--check", "z1_cert_ratio5.json"],
]


def table_transcript(run, cert_dir):
    """Each table run as ``$ orbitsep <argv>``, ``exit <code>`` and its stdout.

    ``run(argv)`` returns the exit code and stdout of ``main(argv)``; the
    certificates of ``TABLE_CERTS`` are written to ``cert_dir`` first.
    """
    for name, doc in TABLE_CERTS.items():
        (cert_dir / name).write_text(json.dumps(doc), encoding="utf-8")
    paths = {f"{p.stem}.json": instance_path(p.name) for p in INSTANCE_DIR.glob("*.json")}
    paths.update((name, str(cert_dir / name)) for name in TABLE_CERTS)
    blocks = []
    for argv in TABLE_RUNS:
        argv = argv + ["--format", "table"]
        code, out = run([paths.get(arg, arg) for arg in argv])
        blocks.append(f"$ orbitsep {' '.join(argv)}\nexit {code}\n{out}")
    return "".join(blocks)


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


def test_table_output_matches_golden(capsys, tmp_path):
    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    expected = (GOLDEN_DIR / "tables.out").read_text(encoding="utf-8")
    assert table_transcript(run, tmp_path) == expected


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
