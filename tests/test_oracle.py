from fractions import Fraction

import pytest

import orbitsep as O
from orbitsep import oracle
from orbitsep.errors import InvalidInputError
from orbitsep.oracle import CSV_COLUMNS


def test_brute_force_single_point_example(z1_action):
    P = [((0,), Fraction(6))]
    Q = [(0,), (10,)]
    verdict = O.brute_force_separate(z1_action, P, Q, 8)
    assert verdict.explored == 17  # the 17 points of [-8, 8]
    assert ((-6,),) in verdict.valid_images
    assert verdict.best_ratio == Fraction(4, 3)
    assert verdict.best_word == (-1,) * 8
    assert verdict.contains_word(z1_action, P, (-1,) * 6)


def test_brute_force_valid_words_reverify(z1_action):
    P = [((0,), Fraction(6))]
    Q = [(0,), (10,)]
    verdict = O.brute_force_separate(z1_action, P, Q, 8)
    for word in verdict.valid_words:
        _, ratio = O.evaluate_word(z1_action, P, Q, word)
        assert 3 * ratio >= 1


def test_brute_force_empty_p(z1_action):
    verdict = O.brute_force_separate(z1_action, [], [(0,)], 4)
    assert verdict.best_ratio == O.INF
    assert verdict.valid_words == [()]
    assert verdict.contains_word(z1_action, [], (1, 1))


def test_brute_force_c4_no_escape(c4_action):
    P = [(v, Fraction(1)) for v in range(4)]
    Q = [0, 1, 2, 3]
    verdict = O.brute_force_separate(c4_action, P, Q, 6)
    assert verdict.valid_words == []
    assert verdict.best_ratio == 0


def test_brute_force_monotone_in_bound(z1_action):
    P = [((0,), Fraction(6))]
    Q = [(0,), (10,)]
    ratios = [
        O.brute_force_separate(z1_action, P, Q, bound).best_ratio
        for bound in range(0, 9)
    ]
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))


def test_random_instance_determinism():
    a = O.random_instance("zd2", 42)
    b = O.random_instance("zd2", 42)
    assert a.to_json() == b.to_json()
    c = O.random_instance("zd2", 43)
    assert c.to_json() != a.to_json()


def test_random_instance_free2_points_bounded():
    inst = O.random_instance("free2", 7)
    for p, _ in inst.weighted_p:
        assert len(p) <= 6
        inst.space.check_point(p)
    for q in inst.q_points:
        assert len(q) <= 6


def test_random_instance_caps():
    with pytest.raises(InvalidInputError):
        O.SizeCaps(p_max=7)
    with pytest.raises(InvalidInputError):
        O.SizeCaps(coord_max=33)
    with pytest.raises(InvalidInputError):
        O.SizeCaps(p_max=True)
    with pytest.raises(InvalidInputError):
        O.SizeCaps(delta_choices=(True, 3))
    with pytest.raises(InvalidInputError):
        O.random_instance("heisenberg", 1)


def test_random_instance_respects_sizes():
    sizes = O.SizeCaps(p_max=3, q_max=4, coord_max=10, eps_max=2)
    for seed in range(20):
        inst = O.random_instance("zd2", seed, sizes)
        assert 1 <= len(inst.weighted_p) <= 3
        assert 1 <= len(inst.q_points) <= 4
        for (x, y), eps in inst.weighted_p:
            assert abs(x) <= 10 and abs(y) <= 10
            assert eps in (1, 2)


def test_differential_check_seeded_instances():
    master = O.SplitMix64(2718)
    for kind in ("zd2", "shift"):
        for _ in range(25):
            inst = O.random_instance(kind, master.next_u64())
            report = O.differential_check(inst)
            assert report.status == "ok", report.problems


def test_differential_check_free_group():
    master = O.SplitMix64(555)
    budget = O.OrbitBudget(4000, 12)
    for _ in range(5):
        inst = O.random_instance("free2", master.next_u64(), budget=budget)
        report = O.differential_check(inst, oracle_bound=6)
        assert report.status == "ok", report.problems


def test_differential_check_empty_p():
    inst = O.random_instance("zd2", 5)
    inst.weighted_p.clear()
    report = O.differential_check(inst)
    assert report.status == "ok"


def test_differential_check_flags_corrupted_certificate():
    inst = O.random_instance("zd2", 1)
    act = inst.action()
    cert = O.separate_points(act, inst.weighted_p, inst.q_points, inst.budget)
    corrupted = O.SeparationCertificate(
        cert.word[:-1] if cert.word else (1,), cert.achieved, cert.ratio, None
    )
    report = O.differential_check(inst, certificate=corrupted)
    assert report.status == "mismatch"
    assert report.problems
    payload = report.to_json()
    assert payload["status"] == "mismatch"
    assert payload["instance"]["kind"] == "zd2"


def test_differential_check_budget_exhaustion_is_not_mismatch():
    inst = O.random_instance("c4", 0)
    report = O.differential_check(inst)
    assert report.status == "budget-exhausted"
    assert not report.mismatch
    assert report.certificate is None
    assert report.to_json()["oracle"]["best_ratio"] == "0"


def test_experiment_single_row():
    result = O.ratio_experiment(["zd2"], 1, 9)
    lines = result.csv_text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].count(",") == len(CSV_COLUMNS) - 1


def test_experiment_c4_row_records_budget_exhaustion():
    result = O.ratio_experiment(["c4"], 1, 0)
    row = result.rows[0]
    assert row["status"] == "budget-exhausted"
    assert row["cert_ratio"] == ""
    assert result.min_ratio is None


def test_experiment_row_reports_mismatch(monkeypatch):
    """A row is a differential check: a wrong certificate reads "mismatch"."""
    solve = oracle.separate_points

    def inflated_ratio(*args):
        cert = solve(*args)
        return O.SeparationCertificate(cert.word, cert.achieved, cert.ratio + 1, cert.trace)

    monkeypatch.setattr(oracle, "separate_points", inflated_ratio)
    row = O.ratio_experiment(["zd2"], 1, 9).rows[0]
    assert row["status"] == "mismatch"
    assert row["cert_ratio"] != ""


def test_experiment_min_ratio_at_least_third():
    result = O.ratio_experiment(["zd2"], 30, 77)
    assert all(row["status"] == "ok" for row in result.rows)
    assert 3 * result.min_ratio >= 1


def test_experiment_deterministic():
    a = O.ratio_experiment(["zd2", "shift"], 12, 123)
    b = O.ratio_experiment(["zd2", "shift"], 12, 123)
    assert a.csv_text == b.csv_text


def test_instance_spec_json_shapes():
    sep = O.random_instance("zd2", 11).to_json()
    assert set(sep) == {"kind", "seed", "space", "generators", "P", "Q", "budget"}
    comp = O.random_instance("compact1d", 11).to_json()
    assert set(comp) == {"kind", "seed", "space", "generators", "C", "D", "budget"}


def test_splitmix_is_stable():
    rng = O.SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = O.SplitMix64(0)
    assert first == [rng2.next_u64() for _ in range(3)]
    with pytest.raises(InvalidInputError):
        O.SplitMix64(-1)
