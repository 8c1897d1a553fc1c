"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines).  The seeded pools are shared across criteria via
module-scoped fixtures, so the whole file stays fast.
"""

import json
import time
from fractions import Fraction

import pytest

import orbitsep as O
from conftest import instance_path
from orbitsep.cli import main

POOL_SEED = 20260810
POOL_SIZE = 500
ORACLE_BOUND = 8


def announce(k, text):
    print(f"\nACCEPTANCE {k} PASS — {text}")


@pytest.fixture(scope="module")
def zd2_pool():
    """500 seeded lattice instances with their certificates and solve time."""
    master = O.SplitMix64(POOL_SEED)
    instances = [
        O.random_instance("zd2", master.next_u64()) for _ in range(POOL_SIZE)
    ]
    start = time.monotonic()
    certs = [
        O.separate_points(
            inst.action(), inst.weighted_p, inst.q_points, inst.budget
        )
        for inst in instances
    ]
    elapsed = time.monotonic() - start
    return {"instances": instances, "certs": certs, "elapsed": elapsed}


def test_criterion_01_main_postcondition(zd2_pool):
    instances, certs = zd2_pool["instances"], zd2_pool["certs"]
    assert len(certs) == POOL_SIZE  # 100% success: any failure would have raised
    for inst, cert in zip(instances, certs):
        assert not O.is_inf(cert.ratio) and 3 * cert.ratio >= 1
        for (_, eps), (_, d) in zip(inst.weighted_p, cert.achieved):
            assert 3 * d >= eps  # exact rational comparison
    assert zd2_pool["elapsed"] < 30, f"solving took {zd2_pool['elapsed']:.1f}s"
    announce(
        1,
        f"{POOL_SIZE} lattice instances separated, all ratios >= 1/3 exactly, "
        f"in {zd2_pool['elapsed']:.1f}s",
    )


def test_criterion_02_oracle_agreement(zd2_pool):
    mismatches = 0
    for inst, cert in zip(zd2_pool["instances"], zd2_pool["certs"]):
        report = O.differential_check(
            inst, oracle_bound=ORACLE_BOUND, certificate=cert
        )
        if report.status != "ok":
            mismatches += 1
        action = inst.action()
        if len(cert.word) <= ORACLE_BOUND:
            verdict = O.brute_force_separate(
                action, inst.weighted_p, inst.q_points, ORACLE_BOUND
            )
            assert verdict.contains_word(action, inst.weighted_p, cert.word)
    assert mismatches == 0
    announce(2, f"zero differential mismatches over {POOL_SIZE} instances at bound 8")


def test_criterion_03_discrete_reduction():
    sizes = O.SizeCaps(p_max=3, q_max=5)
    master = O.SplitMix64(777)
    for _ in range(200):
        inst = O.random_instance("shift", master.next_u64(), sizes)
        action = inst.action()
        points = [p for p, _ in inst.weighted_p]
        cert = O.separate_discrete(action, points, inst.q_points, inst.budget)
        images = {action.apply_word(cert.word, p) for p in points}
        assert not images & set(inst.q_points)
        audit = []
        assert (
            O.replay_trace(action, inst.weighted_p, inst.q_points, cert.trace, audit)
            == cert.word
        )
        assert all(lv["restarts"] <= lv["q_size"] for lv in audit)
    announce(3, "200 discrete-shift instances: moved set disjoint from Q on 100%")


def test_criterion_04_compact_chain():
    master = O.SplitMix64(4242)
    for _ in range(50):
        inst = O.random_instance("compact1d", master.next_u64())
        action = inst.action()
        res = O.separate_compact(action, inst.c_weighted, inst.d_points, inst.budget)
        assert res.epsilon == Fraction(1, 18) * min(
            Fraction(d) for _, d in res.net_a
        )
        for _, d in res.certificate.achieved:
            assert d >= 3 * res.epsilon
        for c, _ in inst.c_weighted:
            img = action.apply_word(res.certificate.word, c)
            for y in inst.d_points:
                assert action.space.distance(img, y) >= res.epsilon
        audit = []
        assert (
            O.replay_trace(action, res.net_p, res.net_q, res.certificate.trace, audit)
            == res.certificate.word
        )
        assert all(lv["restarts"] <= lv["q_size"] for lv in audit)
    announce(4, "50 compact instances: epsilon = min(delta)/18, 3eps and eps bounds exact")


def test_criterion_05_separated_sequences():
    cases = [
        (
            O.ZdSpace(1, "l1"),
            [O.Translation((1,))],
            [(0,), (1,), (5,)],
            O.OrbitBudget(100000, 64),
        ),
        (
            O.FreeSpace(2),
            [O.LeftMultiplication((1,)), O.LeftMultiplication((2,))],
            [(), (1,), (2, 1)],
            O.OrbitBudget(4000, 16),
        ),
    ]
    n = 10
    for space, gens, tup, budget in cases:
        action = O.GeneratedAction(space, gens)
        for eps in (1, 2):
            words = O.separated_sequence(action, tup, eps, n, budget)
            assert len(words) == n and words[0] == ()
            # elements must reproduce from their witness words alone, even
            # through a serialization round-trip of the action
            rebuilt = O.GeneratedAction(
                O.space_from_json(space.to_json()),
                [O.generator_from_json(g.to_json()) for g in gens],
            )
            images = [[rebuilt.apply_word(w, t) for t in tup] for w in words]
            for i in range(n):
                for j in range(i + 1, n):
                    for x in images[i]:
                        for y in images[j]:
                            assert space.distance(x, y) >= eps
    announce(5, "sequences on Z and free(2): all cross-copy pairs >= eps, words replay")


def test_criterion_06_restart_soundness(zd2_pool):
    def audit_cert(action, weighted, q_points, cert):
        audit = []
        word = O.replay_trace(action, weighted, q_points, cert.trace, audit)
        assert word == cert.word
        for level in audit:
            assert level["restarts"] <= level["q_size"]

    for inst, cert in zip(zd2_pool["instances"], zd2_pool["certs"]):
        audit_cert(inst.action(), inst.weighted_p, inst.q_points, cert)

    z1 = O.GeneratedAction(O.ZdSpace(1, "l1"), [O.Translation((1,))])
    budget = O.OrbitBudget(10000, 6)

    fb_p = [((0,), 3), ((50,), 3)]
    fb_q = [(0,), (3,), (39,), (41,)]
    fb = O.separate_points(z1, fb_p, fb_q, budget)
    assert fb.trace[0].case == "fallback"
    audit_cert(z1, fb_p, fb_q, fb)

    rs_p = [((0,), 3), ((50,), 3), ((100,), 3)]
    rs_q = [(8,), (47,), (51,), (101,), (105,)]
    rs = O.separate_points(z1, rs_p, rs_q, budget)
    assert rs.trace[0].restarts >= 1
    audit_cert(z1, rs_p, rs_q, rs)
    announce(
        6,
        "restart counts bounded by |Q| on every audited level; "
        "fallback and restart branches both exercised",
    )


def test_criterion_07_negative_control(capsys):
    code = main(["escape", "--in", instance_path("c4_full.json")])
    out = capsys.readouterr().out
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "budget-exhausted"
    assert payload["explored"] == 4

    code = main(["separate", "--in", instance_path("c4_separate.json")])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["status"] == "budget-exhausted"
    announce(7, "orbit-inside-Q instance exits 2 with no certificate emitted")


def test_criterion_08_equivariance(zd2_pool):
    for inst, cert in zip(zd2_pool["instances"][:50], zd2_pool["certs"][:50]):
        scaled = O.ScaledSpace(inst.space, 2)
        action = O.GeneratedAction(scaled, inst.generators)
        doubled = [(p, 2 * Fraction(e)) for p, e in inst.weighted_p]
        achieved, ratio = O.evaluate_word(action, doubled, inst.q_points, cert.word)
        assert not O.is_inf(ratio) and 3 * ratio >= 1
        for (_, eps), (_, d) in zip(doubled, achieved):
            assert 3 * d >= eps
    announce(8, "50 certificates re-verified on the x2-scaled space with doubled weights")


def test_criterion_09_determinism(capsys):
    runs = []
    for _ in range(2):
        code = main(["separate", "--in", instance_path("restart.json")])
        assert code == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]

    csvs = []
    for _ in range(2):
        code = main(["experiment", "-n", "20", "--seed", "11"])
        assert code == 0
        csvs.append(capsys.readouterr().out)
    assert csvs[0] == csvs[1]

    assert (
        O.random_instance("free2", 99).to_json()
        == O.random_instance("free2", 99).to_json()
    )
    announce(9, "repeated seeded runs produce byte-identical JSON and CSV")


def test_criterion_10_experiment():
    start = time.monotonic()
    result = O.ratio_experiment(["zd2"], 100, 20260810, oracle_bound=ORACLE_BOUND)
    elapsed = time.monotonic() - start
    lines = result.csv_text.strip().split("\n")
    assert lines[0] == "kind,seed,p_size,q_size,cert_ratio,oracle_best_ratio,word_len,explored,status"
    assert len(lines) == 101
    for line in lines[1:]:
        assert len(line.split(",")) == 9
    assert result.min_ratio is not None and 3 * result.min_ratio >= 1
    assert elapsed < 60, f"experiment took {elapsed:.1f}s"
    announce(
        10,
        f"experiment CSV well-formed, min certificate ratio "
        f"{O.format_rational(result.min_ratio)} >= 1/3, {elapsed:.1f}s",
    )
