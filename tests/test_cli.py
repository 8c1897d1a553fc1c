import copy
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import orbitsep.oracle
from conftest import instance_path
from orbitsep import cli
from orbitsep.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_separate_basic(capsys):
    code, out, _ = run(capsys, "separate", "--in", instance_path("z1_single.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["word"] == [-1] * 6
    assert payload["ratio"] == "1"
    assert payload["achieved"] == [[[0], "6"]]
    assert payload["trace"][0]["case"] == "direct"


def test_separate_empty_p(capsys):
    code, out, _ = run(capsys, "separate", "--in", instance_path("empty_p.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == []
    assert payload["ratio"] == "inf"


def test_separate_output_deterministic(capsys):
    _, out1, _ = run(capsys, "separate", "--in", instance_path("restart.json"))
    _, out2, _ = run(capsys, "separate", "--in", instance_path("restart.json"))
    assert out1 == out2


def test_separate_table_format(capsys):
    code, out, _ = run(
        capsys,
        "separate",
        "--in",
        instance_path("z1_single.json"),
        "--format",
        "table",
        "--trace",
    )
    assert code == 0
    assert "word" in out and "ratio" in out and "level 0" in out


def test_escape_c4_budget_exhausted(capsys):
    code, out, err = run(capsys, "escape", "--in", instance_path("c4_full.json"))
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "budget-exhausted"
    assert payload["explored"] == 4
    assert "budget" in err


def test_separate_c4_budget_exhausted(capsys):
    code, out, _ = run(capsys, "separate", "--in", instance_path("c4_separate.json"))
    assert code == 2
    assert json.loads(out)["status"] == "budget-exhausted"


def test_budget_exhausted_payload_lists_partial_levels(capsys, tmp_path):
    """Innermost level first; the outer level records its escape and restarts."""
    c4 = json.loads(pathlib.Path(instance_path("c4_separate.json")).read_text())
    # The pivot 0 escapes Q = [2]; Q' = [2, 0] then leaves vertex 1 no escape
    # at radius 2.
    c4["P"] = [{"point": 0, "eps": "2"}, {"point": 1, "eps": "2"}]
    c4["Q"] = [2]
    infile = tmp_path / "c4_two.json"
    infile.write_text(json.dumps(c4))
    code, out, _ = run(capsys, "separate", "--in", str(infile))
    assert code == 2
    assert json.loads(out)["partial_levels"] == [
        {"pivot": 1, "eps": "2", "stage": "escape"},
        {"pivot": 0, "eps": "2", "stage": "recursion", "escape": [], "restarts": 0},
    ]
    code, out, _ = run(capsys, "escape", "--in", instance_path("c4_full.json"))
    assert code == 2
    assert json.loads(out)["partial_levels"] == []


def test_deep_instance_solves_and_checks(capsys, tmp_path):
    """|P| = 1200 is 1200 trace levels: it solves, and its certificate checks."""
    doc = {
        "space": {"kind": "zd", "dim": 1, "norm": "l1"},
        "generators": [{"kind": "translation", "v": [1]}],
        "P": [{"point": [i], "eps": "1"} for i in range(1200)],
        "Q": [],
    }
    infile = tmp_path / "deep.json"
    infile.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "separate", "--in", str(infile))
    assert code == 0
    assert len(json.loads(out)["trace"]) == 1200
    certfile = tmp_path / "deep.cert.json"
    certfile.write_text(out)
    argv = ["separate", "--in", str(infile), "--check", str(certfile)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"status": "check-ok"}


@pytest.mark.parametrize(
    "edit",
    [lambda trace: trace[:1] + trace[2:], lambda trace: trace[:1] + trace],
    ids=["level-dropped", "level-duplicated"],
)
def test_check_rejects_trace_of_wrong_length(capsys, tmp_path, edit):
    cert = json.loads((pathlib.Path(Z1_CERT).parent / "restart.out").read_text())
    cert["trace"] = edit(cert["trace"])
    certfile = tmp_path / "restart.cert.json"
    certfile.write_text(json.dumps(cert))
    argv = ["separate", "--in", instance_path("restart.json"), "--check", str(certfile)]
    code, out, _ = run(capsys, *argv)
    assert code == 5
    payload = json.loads(out)
    assert payload["status"] == "check-failed"
    assert any("trace levels for 3 points" in p for p in payload["problems"])


def test_oracle_budget_exhausted_carries_oracle_verdict(capsys):
    code, out, _ = run(capsys, "oracle", "--in", instance_path("c4_separate.json"))
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "budget-exhausted"
    assert payload["oracle"]["best_ratio"] == "0"


def test_escape_zd2(capsys):
    code, out, _ = run(capsys, "escape", "--in", instance_path("escape_zd2.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == [-1, -1]
    assert payload["point"] == [-2, 0]


def test_escape_table_prints_point_as_json(capsys):
    path = instance_path("escape_zd2.json")
    code, out, _ = run(capsys, "escape", "--in", path, "--format", "table")
    assert code == 0
    assert out == "word   [-1 -1]\npoint  [-2, 0]\n"


def test_discrete_pair(capsys):
    code, out, _ = run(capsys, "discrete", "--in", instance_path("shift_pair.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == [-1, -1]


def test_discrete_c4_all_vertices(capsys):
    code, out, _ = run(
        capsys, "discrete", "--in", instance_path("c4_discrete_all.json")
    )
    assert code == 2


def test_compact(capsys):
    code, out, _ = run(capsys, "compact", "--in", instance_path("compact_z.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] == "1/3"
    assert payload["net_p"] == [
        {"point": [0], "eps": "3"},
        {"point": [1], "eps": "3"},
    ]
    assert payload["certificate"]["status"] == "ok"


def test_sequence(capsys):
    code, out, _ = run(capsys, "sequence", "--in", instance_path("sequence_z.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["words"] == [[], [1] * 6, [-1] * 6]
    assert payload["images"] == [[[0]], [[6]], [[-6]]]


def test_fullexist(capsys):
    code, out, _ = run(capsys, "fullexist", "--in", instance_path("fullexist_z.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == []
    assert payload["realization"] == [[5]]


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "--in", instance_path("orbit_zd2.json"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["orbit"]) == 13  # l1 ball of radius 2 in Z^2
    assert payload["orbit"][0] == [[0, 0], []]


def test_net(capsys):
    code, out, _ = run(capsys, "net", "--in", instance_path("net_z.json"))
    assert code == 0
    assert json.loads(out)["net"] == [[0], [2], [10]]


def test_verify_clean(capsys):
    code, out, _ = run(capsys, "verify", "--in", instance_path("verify_zd2.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["metric_violations"] == []
    assert payload["isometry_violations"] == []


def test_verify_bad_permutation(capsys):
    """Each of the swap's 16 moved distances is reported once."""
    code, out, _ = run(capsys, "verify", "--in", instance_path("verify_c4_bad.json"))
    assert code == 4
    payload = json.loads(out)
    assert payload["status"] == "violations"
    keys = [
        (v["kind"], v["generator"], tuple(v["points"]))
        for v in payload["isometry_violations"]
    ]
    assert len(keys) == len(set(keys)) == 16


def _path_graph_with_perm(perm, **fields):
    """The unit path graph on len(perm) vertices under one vertex
    permutation, which is no isometry of it."""
    n = len(perm)
    edges = [[i, i + 1, 1] for i in range(n - 1)]
    space = {"kind": "finite_graph", "n": n, "edges": edges}
    return {"space": space, "generators": [{"kind": "perm", "p": perm}], **fields}


# PERM_A and PERM_D fail the separation postcondition whether or not Q0 is
# detected before the recursion: neither case rests on the eager Q0 scan.
PERM_A = [8, 7, 5, 3, 1, 0, 10, 12, 14, 6, 11, 15, 13, 2, 9, 4]
PERM_D = [5, 15, 10, 6, 3, 2, 9, 11, 0, 12, 14, 13, 8, 7, 4, 1]
PERM_B = [2, 13, 10, 6, 4, 14, 7, 15, 0, 5, 1, 9, 3, 12, 11, 8]
# 40 vertices, so that epsilon = 36/18 = 2 leaves points of C out of its net.
PERM_C = [
    29, 27, 12, 13, 2, 23, 8, 18, 31, 35, 16, 9, 26, 5, 33, 14, 4, 36, 32, 25,
    7, 10, 15, 38, 34, 3, 0, 19, 1, 28, 20, 39, 30, 22, 11, 6, 24, 37, 17, 21,
]


@pytest.mark.parametrize(
    "command, doc, failed",
    [
        (
            "separate",
            _path_graph_with_perm(
                PERM_A, P=[{"point": v, "eps": "7/2"} for v in (10, 8)], Q=[15, 7]
            ),
            "separation postcondition",
        ),
        (
            "compact",
            _path_graph_with_perm(
                PERM_D, C=[{"point": v, "delta": "9"} for v in (1, 12)], D=[0, 5]
            ),
            "separation postcondition",
        ),
        (
            "compact",
            _path_graph_with_perm(
                PERM_C, C=[{"point": v, "delta": "36"} for v in (25, 3, 24)], D=[22, 20]
            ),
            "compact separation postcondition",
        ),
        (
            "fullexist",
            _path_graph_with_perm(
                PERM_B,
                anchors=[7, 5],
                obstacles=[{"point": 0, "eps": "2"}, {"point": 8, "eps": "4"}],
            ),
            "full-existence transfer",
        ),
    ],
    ids=["separate", "compact-inner", "compact", "fullexist"],
)
def test_non_isometric_generator_exits_4(capsys, tmp_path, command, doc, failed):
    """A postcondition whose proof assumes isometries fails: exit 4 with one
    stderr line naming it, as ``verify`` does on the same action."""
    infile = tmp_path / "instance.json"
    infile.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--in", str(infile))
    assert (code, out) == (4, "")
    assert err == f"isometry violation: {failed} failed\n"
    code, out, _ = run(capsys, "verify", "--in", str(infile))
    assert code == 4 and json.loads(out)["isometry_violations"]


def test_oracle_ok(capsys):
    code, out, _ = run(capsys, "oracle", "--in", instance_path("z1_single.json"))
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_oracle_rejects_corrupted_certificate(capsys, tmp_path):
    code, out, _ = run(capsys, "separate", "--in", instance_path("z1_single.json"))
    cert = json.loads(out)
    cert["word"] = cert["word"][:-1]
    del cert["trace"]
    bad = tmp_path / "bad_cert.json"
    bad.write_text(json.dumps(cert))
    code, out, _ = run(
        capsys,
        "oracle",
        "--in",
        instance_path("z1_single.json"),
        "--certificate",
        str(bad),
    )
    assert code == 5
    assert json.loads(out)["status"] == "mismatch"


def test_check_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "separate", "--in", instance_path("fallback.json"))
    assert code == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out, _ = run(
        capsys,
        "separate",
        "--in",
        instance_path("fallback.json"),
        "--check",
        str(cert_file),
    )
    assert code == 0
    assert json.loads(out)["status"] == "check-ok"


def test_check_detects_tampering(capsys, tmp_path):
    code, out, _ = run(capsys, "separate", "--in", instance_path("fallback.json"))
    cert = json.loads(out)
    cert["ratio"] = "5"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    code, out, _ = run(
        capsys,
        "separate",
        "--in",
        instance_path("fallback.json"),
        "--check",
        str(cert_file),
    )
    assert code == 5
    payload = json.loads(out)
    assert payload["status"] == "check-failed"
    assert payload["problems"]


def test_invalid_inputs_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, "separate", "--in", str(tmp_path / "missing.json"))
    assert code == 3 and "invalid input" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "separate", "--in", str(bad))
    assert code == 3

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"space": "\xe9"}')
    code, _, err = run(capsys, "separate", "--in", str(latin1))
    assert code == 3 and err.startswith(f"invalid input: cannot read {latin1}")

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"space": {"kind": "discrete_shift"}}))
    code, _, err = run(capsys, "separate", "--in", str(incomplete))
    assert code == 3

    zero_eps = tmp_path / "zero_eps.json"
    zero_eps.write_text(
        json.dumps(
            {
                "space": {"kind": "discrete_shift"},
                "generators": [{"kind": "shift"}],
                "P": [{"point": 0, "eps": "0"}],
                "Q": [],
            }
        )
    )
    code, _, err = run(capsys, "separate", "--in", str(zero_eps))
    assert code == 3


Z1 = {
    "space": {"kind": "zd", "dim": 1, "norm": "l1"},
    "generators": [{"kind": "translation", "v": [1]}],
}
VALID_SEPARATE = {**Z1, "P": [{"point": [0], "eps": "2"}], "Q": [[0]]}
VALID_SEQUENCE = {**Z1, "tuple": [[0]], "eps": "2", "n": 2}
C2 = {"kind": "finite_graph", "n": 2, "edges": [[0, 1, 1]]}
FREE2 = {
    "space": {"kind": "free", "rank": 2},
    "generators": [{"kind": "leftmul", "w": "a"}],
    "P": [],
    "Q": [],
}
VALID_DISCRETE = {**Z1, "P": [[0]], "Q": [[0]]}
Z1_CERT = str(pathlib.Path(__file__).resolve().parent / "golden" / "z1_single.out")
Z1_CERT_DOC = json.loads(pathlib.Path(Z1_CERT).read_text(encoding="utf-8"))


def _cert(**fields):
    """z1_single's certificate with some fields replaced."""
    return {**Z1_CERT_DOC, **fields}


def _trace(**fields):
    """z1_single's certificate with some fields of its trace replaced."""
    return _cert(trace=[{**Z1_CERT_DOC["trace"][0], **fields}])


VERIFY_C4_BAD = json.loads(pathlib.Path(instance_path("verify_c4_bad.json")).read_text())
RESTART = json.loads(pathlib.Path(instance_path("restart.json")).read_text())


RESTART_CERT = json.loads(
    (pathlib.Path(Z1_CERT).parent / "restart.out").read_text(encoding="utf-8")
)
SHIFT_PAIR = json.loads(pathlib.Path(instance_path("shift_pair.json")).read_text())
SHIFT_PAIR_CERT = json.loads(
    (pathlib.Path(Z1_CERT).parent / "shift_pair.out").read_text(encoding="utf-8")
)


def _edited(cert, path, value):
    """A copy of ``cert`` with the field at the key ``path`` set to ``value``."""
    cert = copy.deepcopy(cert)
    *parents, last = path
    node = cert
    for key in parents:
        node = node[key]
    node[last] = value
    return cert


def _restart_cert(path, value):
    """restart's golden certificate with one field replaced."""
    return _edited(RESTART_CERT, path, value)


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


# A letter naming no generator: at the front of the word, in level 0's
# escape, and in a Q0 witness.
LETTER_9 = {
    "word": (("word",), [9] + RESTART_CERT["word"]),
    "escape": (("trace", 0, "escape"), [9]),
    "witness": (("trace", 0, "q0", 0, "witness"), [1, 1, 9, -1]),
}


def _probe(name, command, doc, *extra, message):
    """One malformed run: ``doc`` is written to --in, as is when it is a
    string, as JSON otherwise (None: --in is a directory); in ``extra`` a None
    also stands for that directory and a dict is written to a certificate
    file whose path takes its place."""
    return pytest.param(command, doc, extra, message, id=name)


@pytest.mark.parametrize(
    "command, doc, extra, message",
    [
        _probe("P-not-a-list", "separate", {**VALID_SEPARATE, "P": 5}, message="array"),
        _probe(
            "budgets-misspelt",
            "separate",
            {**VALID_SEPARATE, "budgets": {"max_points": 1, "max_word_length": 1}},
            message="unknown field 'budgets'",
        ),
        _probe("Q-not-a-list", "separate", {**VALID_SEPARATE, "Q": 5}, message="array"),
        _probe(
            "generators-not-a-list",
            "separate",
            {**VALID_SEPARATE, "generators": 5},
            message="array",
        ),
        _probe(
            "tuple-not-a-list",
            "sequence",
            {**VALID_SEQUENCE, "tuple": 5},
            message="array",
        ),
        _probe(
            "budget-not-an-object",
            "separate",
            {**VALID_SEPARATE, "budget": [1]},
            message="budget",
        ),
        _probe(
            "budget-bool",
            "separate",
            {**VALID_SEPARATE, "budget": {"max_points": True}},
            message="max_points",
        ),
        _probe("in-directory", "separate", None, message="cannot read"),
        _probe(
            "check-directory",
            "separate",
            VALID_SEPARATE,
            "--check",
            None,
            message="cannot read",
        ),
        _probe(
            "eps-inf-on-check",
            "separate",
            {**Z1, "P": [{"point": [0], "eps": "inf"}], "Q": [[0], [10]]},
            "--check",
            Z1_CERT,
            message="eps",
        ),
        _probe(
            "translation-not-a-list",
            "separate",
            {**VALID_SEPARATE, "generators": [{"kind": "translation", "v": 5}]},
            message="'v'",
        ),
        _probe(
            "leftmul-not-a-word",
            "separate",
            {**VALID_SEPARATE, "generators": [{"kind": "leftmul", "w": 5}]},
            message="'w'",
        ),
        _probe(
            "perm-not-a-list",
            "separate",
            {"space": C2, "generators": [{"kind": "perm", "p": 5}], "P": [], "Q": []},
            message="'p'",
        ),
        _probe(
            "perm-entry-a-string",
            "separate",
            {"space": C2, "generators": [{"kind": "perm", "p": [0, "a"]}], "P": [], "Q": []},
            message="permutation entries",
        ),
        _probe(
            "perm-entry-a-float",
            "oracle",
            {
                "space": {"kind": "finite_graph", "n": 3, "edges": [[0, 1, 1], [1, 2, 1]]},
                "generators": [{"kind": "perm", "p": [0, 2.0, 1]}],
                "P": [],
                "Q": [],
            },
            message="permutation entries",
        ),
        _probe(
            "perm-entry-a-bool",
            "verify",
            {"space": C2, "generators": [{"kind": "perm", "p": [True, 0]}]},
            message="permutation entries",
        ),
        _probe(
            "edges-not-a-list",
            "separate",
            {"space": {**C2, "edges": 5}, "generators": [], "P": [], "Q": []},
            message="edges",
        ),
        _probe(
            "edge-not-a-list",
            "separate",
            {"space": {**C2, "edges": [5]}, "generators": [], "P": [], "Q": []},
            message="edge",
        ),
        _probe("n-bool", "sequence", {**VALID_SEQUENCE, "n": True}, message="n must"),
        _probe(
            "achieved-entry-not-a-pair",
            "separate",
            VALID_SEPARATE,
            "--check",
            _cert(achieved=[[1]]),
            message="achieved entry",
        ),
        _probe(
            "achieved-a-string",
            "discrete",
            VALID_DISCRETE,
            "--check",
            _cert(achieved="ab"),
            message="achieved entry",
        ),
        _probe(
            "restarts-a-string",
            "oracle",
            VALID_SEPARATE,
            "--certificate",
            _trace(restarts="x"),
            message="restarts",
        ),
        _probe(
            "restarts-negative",
            "separate",
            VALID_SEPARATE,
            "--check",
            _trace(restarts=-5),
            message="restarts",
        ),
        _probe(
            "restarts-bool",
            "discrete",
            VALID_DISCRETE,
            "--check",
            _trace(restarts=True),
            message="restarts",
        ),
        _probe(
            "trace-nested-object",
            "separate",
            VALID_SEPARATE,
            "--check",
            _cert(trace={**Z1_CERT_DOC["trace"][0], "child": None}),
            message="trace must be a JSON array of levels",
        ),
        _probe(
            "nested-too-deep",
            "separate",
            "[" * 100000 + "]" * 100000,
            message="bad JSON",
        ),
        *(
            _probe(
                f"verify-generators-{name}",
                "verify",
                {**VERIFY_C4_BAD, "generators": value},
                message=message,
            )
            for name, value, message in [
                ("object", {}, "generators must be a JSON array"),
                ("null", None, "generators must be a JSON array"),
                ("zero", 0, "generators must be a JSON array"),
                ("false", False, "generators must be a JSON array"),
                ("empty-string", "", "generators must be a JSON array"),
                ("empty", [], "generator list must be nonempty"),
            ]
        ),
        _probe(
            "q0-witness-letter-out-of-range",
            "separate",
            RESTART,
            "--check",
            _restart_cert(*LETTER_9["witness"]),
            message="generator index 9 out of range",
        ),
        *(
            _probe(
                f"{where}-letter-out-of-range-{command}",
                command,
                RESTART,
                flag,
                _restart_cert(*LETTER_9[where]),
                message="generator index 9 out of range",
            )
            for where in LETTER_9
            for command, flag in [("separate", "--check"), ("oracle", "--certificate")]
            if (where, command) != ("witness", "separate")
        ),
        _probe(
            "word-letter-out-of-range-discrete",
            "discrete",
            SHIFT_PAIR,
            "--check",
            _edited(SHIFT_PAIR_CERT, ("word",), [9] + SHIFT_PAIR_CERT["word"]),
            message="generator index 9 out of range",
        ),
        _probe(
            "trace-level-without-escape",
            "separate",
            RESTART,
            "--check",
            _restart_cert(("trace", 0), _without(RESTART_CERT["trace"][0], "escape")),
            message="malformed trace level",
        ),
        _probe(
            "certificate-without-ratio",
            "separate",
            RESTART,
            "--check",
            _without(RESTART_CERT, "ratio"),
            message="malformed certificate object",
        ),
        _probe(
            "verify-negative-samples",
            "verify",
            VERIFY_C4_BAD,
            "--samples",
            "-5",
            message="samples must be an int >= 0",
        ),
        _probe(
            "graph-with-too-few-edges",
            "separate",
            {"space": {**C2, "n": 2000, "edges": []}, "generators": [], "P": [], "Q": []},
            message="not connected",
        ),
        _probe(
            "graph-with-enough-edges-not-connected",
            "separate",
            {
                "space": {**C2, "n": 4, "edges": [[0, 1, 1], [0, 1, 2], [2, 3, 1]]},
                "generators": [],
                "P": [],
                "Q": [],
            },
            message="not connected",
        ),
        _probe(
            "translation-empty",
            "separate",
            {**VALID_SEPARATE, "generators": [{"kind": "translation", "v": []}]},
            message="translation vector must be nonempty",
        ),
        _probe(
            "perm-repeated-entry",
            "separate",
            {"space": C2, "generators": [{"kind": "perm", "p": [0, 0]}], "P": [], "Q": []},
            message="not a permutation",
        ),
        _probe(
            "generator-without-kind",
            "separate",
            {**VALID_SEPARATE, "generators": [{}]},
            message="generator description must have a 'kind'",
        ),
        _probe(
            "space-without-kind",
            "separate",
            {**VALID_SEPARATE, "space": {}},
            message="space description must have a 'kind'",
        ),
        _probe(
            "norm-l2",
            "separate",
            {**VALID_SEPARATE, "space": {**Z1["space"], "norm": "l2"}},
            message="norm must be",
        ),
        _probe(
            "free-rank-27",
            "separate",
            {**FREE2, "space": {"kind": "free", "rank": 27}},
            message="rank must be in 1..26",
        ),
        _probe(
            "zd-dim-1000000",
            "verify",
            {"space": {"kind": "zd", "dim": 1000000, "norm": "linf"}},
            message="dimension must be in 1..64",
        ),
        _probe(
            "zd-dim-10**30",
            "separate",
            {**VALID_SEPARATE, "space": {**Z1["space"], "dim": 10**30}},
            message="dimension must be in 1..64",
        ),
        _probe(
            "free-point-an-int",
            "separate",
            {**FREE2, "P": [{"point": 5, "eps": "1"}]},
            message="free-group point must be a string",
        ),
        _probe(
            "free-point-dangling-inverse",
            "separate",
            {**FREE2, "P": [{"point": "'a", "eps": "1"}]},
            message="dangling inverse mark",
        ),
        _probe(
            "free-point-double-inverse",
            "separate",
            {**FREE2, "P": [{"point": "a''b", "eps": "1"}]},
            message="doubled inverse mark",
        ),
        _probe(
            "eps-bool",
            "separate",
            {**VALID_SEPARATE, "P": [{"point": [0], "eps": True}]},
            message="expected a rational, got a bool",
        ),
        _probe(
            "eps-a-list",
            "separate",
            {**VALID_SEPARATE, "P": [{"point": [0], "eps": [1]}]},
            message="expected a rational, got list",
        ),
        _probe(
            "P-entry-without-eps",
            "separate",
            {**VALID_SEPARATE, "P": [{"point": [0]}]},
            message="weighted entry must have 'point' and 'eps'",
        ),
        _probe(
            "C-entry-without-point",
            "compact",
            {**Z1, "C": [{"delta": "1"}], "D": []},
            message="weighted entry must have 'point' and 'delta'",
        ),
        _probe(
            "fullexist-duplicate-anchor",
            "fullexist",
            {**Z1, "anchors": [[0], [0]], "obstacles": [{"point": [5], "eps": "2"}]},
            message="duplicate point (0,) in anchors",
        ),
        _probe(
            "fullexist-duplicate-obstacle",
            "fullexist",
            {
                **Z1,
                "anchors": [[5]],
                "obstacles": [{"point": [0], "eps": "2"}, {"point": [0], "eps": "3"}],
            },
            message="duplicate point (0,) in obstacles",
        ),
    ],
)
def test_malformed_input_exits_3(capsys, tmp_path, command, doc, extra, message):
    """Malformed documents exit 3 with one diagnostic line, never a traceback."""
    infile = tmp_path
    if doc is not None:
        infile = tmp_path / "instance.json"
        infile.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [command, "--in", str(infile)]
    for arg in extra:
        if isinstance(arg, dict):
            certificate = tmp_path / "certificate.json"
            certificate.write_text(json.dumps(arg))
            arg = certificate
        argv.append(str(tmp_path if arg is None else arg))
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("invalid input:") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", orbitsep.oracle.INSTANCE_KINDS)
def test_written_instances_have_no_unknown_field(capsys, tmp_path, kind):
    """Every key ``orbitsep instance`` writes is one an --in document may hold."""
    assert main(["instance", "--kind", kind, "--seed", "3"]) == 0
    infile = tmp_path / "instance.json"
    infile.write_text(capsys.readouterr().out)
    assert cli._Instance(str(infile)).obj["kind"] == kind  # raises on an unknown field


@pytest.mark.parametrize("where", sorted(LETTER_9))
def test_oracle_refuses_a_bad_letter_before_its_search(capsys, tmp_path, monkeypatch, where):
    """A certificate whose word, escape or witness names no generator exits 3
    at bound 10 without the oracle's search, which checking it needs none of."""

    def brute_force_separate(*args, **kwargs):
        raise AssertionError("the oracle searched before the certificate was checked")

    monkeypatch.setattr(orbitsep.oracle, "brute_force_separate", brute_force_separate)
    infile, certfile = tmp_path / "restart.json", tmp_path / "cert.json"
    infile.write_text(json.dumps(RESTART))
    certfile.write_text(json.dumps(_restart_cert(*LETTER_9[where])))
    argv = ["oracle", "--in", str(infile), "--bound", "10", "--certificate", str(certfile)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "invalid input: generator index 9 out of range\n"


def _nested_space_file(tmp_path, wrappers):
    """A separate document whose space nests ``wrappers`` scaled spaces."""
    space = (
        '{"kind": "scaled", "factor": "2", "inner": ' * wrappers
        + json.dumps(Z1["space"])
        + "}" * wrappers
    )
    rest = {key: value for key, value in VALID_SEPARATE.items() if key != "space"}
    infile = tmp_path / "nested.json"
    infile.write_text('{"space": ' + space + ", " + json.dumps(rest)[1:])
    return infile


def test_space_nested_200_deep_exits_3(capsys, tmp_path):
    """200 nested scaled spaces decode; the nesting cap refuses them before a
    distance call can recurse through every wrapper."""
    infile = _nested_space_file(tmp_path, 200)
    code, out, err = run(capsys, "separate", "--in", str(infile))
    assert code == 3
    assert out == ""
    assert err == "invalid input: space nests more than 64 scaled/discrete wrappers\n"


def test_json_nested_980_deep_exits_3_whatever_the_stack(capsys, tmp_path):
    """The JSON depth cap refuses a 980-deep document before decoding it, in
    this process under pytest's stack and in a fresh interpreter alike."""
    infile = _nested_space_file(tmp_path, 980)
    message = f"invalid input: bad JSON in {infile}: nested deeper than 256 levels\n"
    code, out, err = run(capsys, "separate", "--in", str(infile))
    assert (code, out, err) == (3, "", message)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "orbitsep.cli", "separate", "--in", str(infile)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (result.returncode, result.stdout, result.stderr) == (3, "", message)


OUT_OF_MEMORY = "out of memory: the work asked for does not fit\n"


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    def orbit(doc, args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_orbit", orbit)
    code, out, err = run(capsys, "orbit", "--in", instance_path("orbit_zd2.json"))
    assert (code, out, err) == (2, "", OUT_OF_MEMORY)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_orbit_past_the_memory_limit_exits_2(tmp_path):
    """A document's budget has no cap, so an orbit of a million points with
    their words outgrows a 512 MiB address space; the CLI says so on one
    line instead of a traceback.  Only the child's own limit is set."""
    resource = pytest.importorskip("resource")
    limit = 512 << 20
    doc = {
        "space": {"kind": "zd", "dim": 2, "norm": "l1"},
        "generators": [
            {"kind": "translation", "v": [1, 0]},
            {"kind": "translation", "v": [0, 1]},
        ],
        "p": [0, 0],
        "budget": {"max_word_length": 1000000000, "max_points": 1000000},
    }
    infile = tmp_path / "orbit.json"
    infile.write_text(json.dumps(doc))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "orbitsep.cli", "orbit", "--in", str(infile)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=120,
    )
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout, result.stderr) == (2, "", OUT_OF_MEMORY)


def test_discrete_refuses_a_non_discrete_metric_when_checking_too(capsys, tmp_path):
    """``discrete --in`` and ``discrete --check`` share one rule: on an l1
    lattice both exit 3, even with a certificate ``separate`` made."""
    weighted = tmp_path / "weighted.json"
    doc = {**VALID_SEPARATE, "P": [{"point": [0], "eps": "1"}]}
    weighted.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "separate", "--in", str(weighted))
    assert code == 0
    certfile = tmp_path / "cert.json"
    certfile.write_text(out)
    infile = tmp_path / "discrete.json"
    infile.write_text(json.dumps(VALID_DISCRETE))
    message = "separate_discrete needs a discrete metric (native or adapter)"
    for extra in ([], ["--check", str(certfile)]):
        code, out, err = run(capsys, "discrete", "--in", str(infile), *extra)
        assert (code, out, err) == (3, "", f"invalid input: {message}\n")


def _identity_cert_for_twice(point):
    """The identity word, with one direct level for each of two copies of
    ``point`` (unit weights, Q empty)."""
    level = {
        "pivot": point,
        "eps": "1",
        "escape": [],
        "q0": [],
        "restarts": 0,
        "case": "direct",
        "fallback_y": None,
    }
    achieved = [[point, "inf"]] * 2
    return {"status": "ok", "word": [], "achieved": achieved, "ratio": "inf", "trace": [level] * 2}


Z1_SINGLE = json.loads(pathlib.Path(instance_path("z1_single.json")).read_text())
SHIFT = {"space": {"kind": "discrete_shift"}, "generators": [{"kind": "shift"}]}


@pytest.mark.parametrize(
    "command, doc, flag, certificate, message",
    [
        (
            "separate",
            {**Z1_SINGLE, "Q": [[0], [10], [0]]},
            "--check",
            Z1_CERT_DOC,
            "duplicate point (0,) in Q",
        ),
        (
            "separate",
            {**Z1, "P": [{"point": [0], "eps": "1"}] * 2, "Q": []},
            "--check",
            _identity_cert_for_twice([0]),
            "duplicate point (0,) in P",
        ),
        (
            "discrete",
            {**SHIFT, "P": [0, 0], "Q": []},
            "--check",
            _identity_cert_for_twice(0),
            "duplicate point 0 in P",
        ),
        (
            "oracle",
            {**Z1_SINGLE, "Q": [[0], [10], [0]]},
            "--certificate",
            Z1_CERT_DOC,
            "duplicate point (0,) in Q",
        ),
    ],
    ids=["separate-Q", "separate-P", "discrete-P", "oracle-Q"],
)
def test_check_paths_refuse_what_the_solver_refuses(
    capsys, tmp_path, command, doc, flag, certificate, message
):
    """A document the solver refuses with exit 3 is refused as well when a
    certificate comes with it to be checked."""
    infile = tmp_path / "instance.json"
    infile.write_text(json.dumps(doc))
    certfile = tmp_path / "cert.json"
    certfile.write_text(json.dumps(certificate))
    expected = (3, "", f"invalid input: {message}\n")
    assert run(capsys, command, "--in", str(infile)) == expected
    assert run(capsys, command, "--in", str(infile), flag, str(certfile)) == expected


@pytest.mark.parametrize("eps", ["1e10000000", "1.5", "1e3", "+3", " 3/2 ", "1_000", "1/0"])
def test_rational_literals_outside_the_grammar_exit_3_promptly(capsys, tmp_path, eps):
    """Only ``-?n(/m)?`` and ``inf`` are rational literals; an exponent form
    such as "1e10000000" (eleven bytes for a four-MiB integer) is refused
    before any work is done."""
    infile = tmp_path / "instance.json"
    infile.write_text(json.dumps({**VALID_SEPARATE, "P": [{"point": [0], "eps": eps}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "separate", "--in", str(infile))
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (3, "", f"invalid input: bad rational literal {eps!r}\n")


@pytest.mark.parametrize("eps", ["9" * 5000, "x" * 5000], ids=["digits", "letters"])
def test_long_refused_literal_is_echoed_in_part(capsys, tmp_path, eps):
    """A refused literal past 40 characters is echoed by its first 40 and its
    length, on one short line."""
    infile = tmp_path / "instance.json"
    infile.write_text(json.dumps({**VALID_SEPARATE, "P": [{"point": [0], "eps": eps}]}))
    code, out, err = run(capsys, "separate", "--in", str(infile))
    shown = eps[:40] + "…"
    assert (code, out) == (3, "")
    assert err == f"invalid input: bad rational literal {shown!r} (5000 characters)\n"
    assert len(err.encode()) < 200


ACHIEVED = RESTART_CERT["achieved"]


@pytest.mark.parametrize(
    "command, doc, flag, certificate, problems",
    [
        (
            "separate",
            RESTART,
            "--check",
            _restart_cert(("achieved",), ACHIEVED[1:]),
            ["stored achieved list is missing point (0,)"],
        ),
        (
            "separate",
            RESTART,
            "--check",
            _restart_cert(("achieved",), ACHIEVED + ACHIEVED[:1]),
            ["stored achieved list has an extra entry for (0,)"],
        ),
        (
            "separate",
            RESTART,
            "--check",
            _restart_cert(("achieved", 0, 0), [999]),
            [
                "stored achieved list has an extra entry for (999,)",
                "stored achieved list is missing point (0,)",
            ],
        ),
        (
            "separate",
            RESTART,
            "--check",
            _restart_cert(("trace", 0, "escape"), [1] * 6),  # lands at (6,), near (8,)
            ["trace replay failed: recorded escape word does not escape Q"],
        ),
        (
            "separate",
            RESTART,
            "--check",
            _restart_cert(("trace", 0, "q0", 0, "y"), [9]),
            ["trace replay failed: recorded Q0 member (9,) is not in Q"],
        ),
        (
            "separate",
            RESTART,
            "--check",
            _restart_cert(("word",), RESTART_CERT["word"] + [1, -1]),  # same distances
            ["trace replay produced a different word"],
        ),
        (
            "oracle",
            Z1_SINGLE,
            "--certificate",
            {"status": "ok", "word": [], "achieved": [[[0], "0"]], "ratio": "0"},
            [
                "ratio 0 is below 1/3",
                "certificate word [] (length 0) is not oracle-valid at bound 8",
            ],
        ),
    ],
    ids=[
        "achieved-dropped",
        "achieved-duplicated",
        "achieved-foreign",
        "escape-does-not-escape",
        "q0-member-not-in-q",
        "word-not-reduced",
        "oracle-identity-word",
    ],
)
def test_check_reports_each_true_problem_once(
    capsys, tmp_path, command, doc, flag, certificate, problems
):
    """A tampered certificate fails its check with exactly the problems it
    has: an entry of P left out of ``achieved`` is missing, not also extra."""
    infile = tmp_path / "instance.json"
    infile.write_text(json.dumps(doc))
    certfile = tmp_path / "cert.json"
    certfile.write_text(json.dumps(certificate))
    code, out, _ = run(capsys, command, "--in", str(infile), flag, str(certfile))
    assert code == 5
    assert json.loads(out)["problems"] == problems


def test_check_refuses_more_restarts_than_q0_members(capsys, tmp_path):
    """Each restart records one Q0 member, so a level with none cannot have
    restarted."""
    assert Z1_CERT_DOC["trace"][0]["q0"] == []
    certfile = tmp_path / "cert.json"
    certfile.write_text(json.dumps(_trace(restarts=1)))
    code, out, _ = run(
        capsys, "separate", "--in", instance_path("z1_single.json"), "--check", str(certfile)
    )
    assert code == 5
    assert json.loads(out)["problems"] == ["trace replay failed: 1 restarts, 0 Q0 members"]


def test_json_integer_past_4300_digits_exits_3(capsys, tmp_path):
    """Python refuses to convert a decimal integer longer than 4300 digits;
    the CLI reports it as bad JSON instead of a traceback."""
    infile = tmp_path / "instance.json"
    infile.write_text(json.dumps(VALID_SEPARATE).replace("[[0]]", "[[" + "9" * 4301 + "]]"))
    code, out, err = run(capsys, "separate", "--in", str(infile))
    assert (code, out) == (3, "")
    assert err.startswith(f"invalid input: bad JSON in {infile}: ")
    assert "4300 digits" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["separate"], 3),
        (["separate", "--budget-points=x", "--in", instance_path("z1_single.json")], 3),
        (["nonsense"], 3),
        ([], 3),
        (["separate", "--help"], 0),
        (["net", "--budget-points", "5", "--in", instance_path("net_z.json")], 3),
        (["verify", "--trace", "--in", instance_path("verify_zd2.json")], 3),
        (["orbit", "--trace", "--in", instance_path("orbit_zd2.json")], 3),
        (["oracle", "--trace", "--in", instance_path("z1_single.json")], 3),
    ],
    ids=[
        "missing-in",
        "non-int-flag",
        "unknown-subcommand",
        "no-subcommand",
        "help",
        "net-budget-points",
        "verify-trace",
        "orbit-trace",
        "oracle-trace",
    ],
)
def test_usage_errors_exit_3(capsys, argv, code):
    """argparse's own exit 2 would read as "budget exhausted"."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
    captured = capsys.readouterr()
    assert "usage:" in captured.out + captured.err


def test_experiment_csv(capsys):
    code, out, err = run(capsys, "experiment", "-n", "5", "--seed", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("kind,seed,")
    assert len(lines) == 6
    assert "minimum certificate ratio" in err


def test_experiment_deterministic(capsys):
    _, out1, _ = run(capsys, "experiment", "-n", "6", "--seed", "3")
    _, out2, _ = run(capsys, "experiment", "-n", "6", "--seed", "3")
    assert out1 == out2


def test_experiment_rejects_unknown_kind(capsys):
    code, _, err = run(capsys, "experiment", "--kinds", "nope", "-n", "1")
    assert code == 3


def test_experiment_refuses_an_empty_kind_list(capsys):
    code, out, err = run(capsys, "experiment", "--kinds", ",")
    assert (code, out) == (3, "")
    assert err == "invalid input: at least one instance kind is required\n"


def test_experiment_rejects_compact_kind(capsys):
    """Compact instances have C and D, not the P and Q a row compares."""
    code, out, err = run(capsys, "experiment", "--kinds", "compact1d", "-n", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("invalid input:")


@pytest.mark.parametrize("n", ["1", "2"])
def test_experiment_rejects_compact_kind_before_any_row(capsys, n):
    """A compact kind later in the cycle is refused before the zd2 row runs."""
    code, out, err = run(capsys, "experiment", "--kinds", "zd2,compact1d", "-n", n)
    assert code == 3
    assert out == ""
    assert err == "invalid input: differential_check expects a P/Q instance\n"


def test_instance_subcommand(capsys):
    code, out, _ = run(capsys, "instance", "--kind", "zd2", "--seed", "42")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "zd2"
    assert payload["seed"] == 42
