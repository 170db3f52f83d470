import json

import pytest

from mincodes import spectra
from mincodes.code import (
    WeightDistribution,
    codeword,
    weight,
    weight_distribution_bruteforce,
)
from mincodes.field import (
    FieldError,
    factor_prime_power,
    field_of_order,
    make_field,
)
from mincodes.pointset import (
    FAMILIES,
    FAMILY_H_MIN,
    ParameterError,
    family1,
    family2,
    family3,
    family4,
    tilde_join,
)
from mincodes.spectra import (
    LENGTHS,
    closed_form_report,
    family1_distribution,
    family1_length,
    family1_tilde_distribution,
    family2_length,
    family2_min_weight,
    family3_length,
    family3_min_weight,
    family4_distribution,
    family4_length,
    family4_tilde_distribution,
    lambda_r_pos,
    lambda_r_zero,
    oracle_failure,
    tilde_transfer,
)


def test_lengths_reject_orders_that_are_not_prime_powers():
    # GF(6) and GF(10) do not exist, so no closed form has a value there
    for fn in (family1_length, family2_length, family3_length,
               family4_length, family1_distribution, family4_distribution):
        for q in (6, 10):
            with pytest.raises(FieldError):
                fn(q, 4, 4)


def test_lengths_match_constructions():
    cases = [
        (family1_length, family1, 3, 1, 4, 4, 70),
        (family1_length, family1, 3, 1, 5, 4, 212),
        (family2_length, family2, 5, 1, 3, 3, 60),
        (family2_length, family2, 7, 1, 3, 3, 126),
        (family3_length, family3, 5, 1, 3, 3, 96),
        (family3_length, family3, 7, 1, 3, 3, 216),
        (family3_length, family3, 2, 2, 3, 3, 57),
        (family4_length, family4, 3, 1, 3, 3, 18),
        (family4_length, family4, 5, 1, 3, 3, 60),
        (family4_length, family4, 3, 1, 4, 3, 56),
    ]
    for length_fn, ctor, p, m, k, h, expected in cases:
        q = p ** m
        assert length_fn(q, k, h) == expected
        assert len(ctor(make_field(p, m), k, h)) == expected


def test_family2_length_char2_relaxed():
    # diagonal pairs over GF(4), h = 2
    assert family2_length(4, 2, 2) == 3
    assert len(family2(make_field(2, 2), 2, 2, relaxed=True)) == 3
    # h beyond q: no injective assignment survives, whole space
    assert family2_length(2, 3, 3) == 7
    # every h at q in {2, 4, 8} with q^k <= 4096, across h = q, q+1, q+2,
    # where the char-2 lengths change form
    for p, m in ((2, 1), (2, 2), (2, 3)):
        gf = make_field(p, m)
        q = gf.q
        for k in range(1, 13):
            if q ** k > 4096:
                break
            for h in range(1, k + 1):
                assert family2_length(q, k, h) == len(
                    family2(gf, k, h, relaxed=True)), (q, k, h)
                assert family3_length(q, k, h) == len(
                    family3(gf, k, h, relaxed=True)), (q, k, h)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_lengths_count_the_relaxed_constructions(q):
    # every h from 1, where family 2's pair product is empty and D is too
    gf = field_of_order(q)
    for k in range(1, 4):
        for h in range(1, k + 1):
            for f, length in LENGTHS.items():
                assert length(q, k, h) == len(
                    FAMILIES[f](gf, k, h, relaxed=True)), (f, q, k, h)


def test_lambda_formulas_match_hyperplane_sizes():
    gf3 = make_field(3)
    d = family1(gf3, 5, 4)
    n = len(d)
    assert lambda_r_pos(3, 5, 4) == 71
    # Lambda counts kernel points of D together with the origin, so the
    # codeword weight is n - Lambda + 1
    # r >= 1 regime: x_5 = 0
    lam = 1 + sum(1 for pt in d.points if pt[4] == 0)
    assert lam == lambda_r_pos(3, 5, 4)
    assert weight(codeword(d, (0, 0, 0, 0, 1))) == n - lam + 1 == 142
    # r = 0 regime: x_1 + 2 x_2 = 0 has s=2 with distinct coefficients
    lam = 1 + sum(1 for pt in d.points
                  if gf3.add(pt[0], gf3.mul(2, pt[1])) == 0)
    assert lam == lambda_r_zero(3, 5, 4, 2, (1, 1))
    # and x_1 + x_2 = 0: one repeated coefficient block
    lam = 1 + sum(1 for pt in d.points if gf3.add(pt[0], pt[1]) == 0)
    assert lam == lambda_r_zero(3, 5, 4, 2, (2,))


def test_lambda_r_zero_validation():
    with pytest.raises(ParameterError):
        lambda_r_zero(3, 5, 4, 3, (1, 1))  # parts do not sum to s
    with pytest.raises(ParameterError):
        lambda_r_zero(3, 5, 4, 3, (1, 1, 1))  # needs 3 distinct in GF(3)*
    with pytest.raises(ParameterError):
        lambda_r_pos(3, 4, 4)


def test_family1_distribution_matches_oracle():
    for p, m, k, h in ((3, 1, 4, 4), (3, 1, 5, 4), (2, 2, 4, 4),
                       (3, 1, 4, 3), (5, 1, 4, 4)):
        q = p ** m
        rep = family1_distribution(q, k, h, relaxed=(h < 4))
        d = family1(make_field(p, m), k, h, relaxed=(h < 4))
        assert rep.n == len(d)
        assert rep.distribution.total == q ** k
        oracle = weight_distribution_bruteforce(d)
        assert rep.distribution == oracle, (q, k, h)


def test_family4_distribution():
    rep = family4_distribution(3, 3, 3)
    assert rep.distribution.counts() == {0: 1, 10: 6, 12: 8, 14: 12}
    rep = family4_distribution(3, 4, 3)
    assert rep.n == 56
    assert rep.distribution.counts()[38] == 54
    oracle = weight_distribution_bruteforce(family4(make_field(3), 4, 3))
    assert rep.distribution == oracle
    rep5 = family4_distribution(5, 3, 3)
    assert rep5.distribution.counts() == {0: 1, 36: 12, 48: 64, 52: 48}


def test_distribution_weights_divisible():
    # scale-invariant families: every closed-form weight is a multiple
    # of q - 1
    for q, k, h in ((5, 3, 3), (7, 4, 3), (9, 3, 3)):
        rep = family4_distribution(q, k, h)
        assert all(w % (q - 1) == 0 for w, _ in rep.distribution.entries)
    for q, k, h in ((5, 4, 4), (7, 5, 4), (9, 4, 4)):
        rep = family1_distribution(q, k, h)
        assert all(w % (q - 1) == 0 for w, _ in rep.distribution.entries)


def test_provenance_covers_all_weights():
    for rep in (family4_distribution(3, 4, 3),
                family1_distribution(3, 5, 4),
                family4_tilde_distribution(5, 3, 3),
                family1_tilde_distribution(3, 4, 4)):
        labelled = {w for w, _ in rep.provenance}
        for w, _ in rep.distribution.nonzero_entries():
            assert w in labelled


def test_tilde_transfer():
    base = WeightDistribution.from_counts({0: 1, 10: 6, 12: 8, 14: 12})
    lifted = tilde_transfer(base, 18, 3)
    assert lifted.counts() == {
        0: 1, 18: 2, 20: 6, 23: 12, 24: 24, 25: 24, 28: 12}
    # single-weight base: all nonzero points of AG(2, 3), constant
    # weight 6 on length 8
    simplex = WeightDistribution.from_counts({0: 1, 6: 8})
    lifted = tilde_transfer(simplex, 8, 3)
    assert lifted.counts() == {0: 1, 8: 2, 11: 16, 12: 8}
    assert lifted.total == 27


def test_tilde_transfer_validation():
    with pytest.raises(ParameterError):
        tilde_transfer(WeightDistribution.from_counts({0: 1, 3: 2}), 4, 3)
    with pytest.raises(ParameterError):
        tilde_transfer(WeightDistribution.from_counts({0: 1, 2: 2}), 5, 3)
    # no zero entry: the transfer would give {4: 2, 5: 4}, 6 words, not 27
    with pytest.raises(ParameterError, match="zero word"):
        tilde_transfer(WeightDistribution.from_counts({2: 2}), 4, 3)


def test_family4_tilde():
    rep = family4_tilde_distribution(3, 3, 3)
    d = family4(make_field(3), 3, 3)
    oracle = weight_distribution_bruteforce(tilde_join(d, d))
    assert rep.distribution == oracle
    assert (rep.n, rep.dim) == (36, 4)
    # collision regime: 2*48 and 60 + (3/4)*48 both land on 96
    rep5 = family4_tilde_distribution(5, 3, 3)
    assert rep5.distribution.counts()[96] == 320
    d5 = family4(make_field(5), 3, 3)
    assert rep5.distribution == weight_distribution_bruteforce(
        tilde_join(d5, d5))
    # collision-free regime
    rep54 = family4_tilde_distribution(5, 4, 3)
    d54 = family4(make_field(5), 4, 3)
    assert rep54.distribution == weight_distribution_bruteforce(
        tilde_join(d54, d54))


def test_family1_tilde():
    rep = family1_tilde_distribution(3, 4, 4)
    assert rep.distribution.total == 3 ** 5
    d = family1(make_field(3), 4, 4)
    assert rep.distribution == weight_distribution_bruteforce(
        tilde_join(d, d))
    rep54 = family1_tilde_distribution(3, 5, 4)
    d54 = family1(make_field(3), 5, 4)
    assert rep54.distribution == weight_distribution_bruteforce(
        tilde_join(d54, d54))


def test_family23_min_weight():
    w, wit = family2_min_weight(7, 3, 3)
    assert w == 78
    assert wit == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    d = family2(make_field(7), 3, 3)
    oracle = weight_distribution_bruteforce(d)
    assert oracle.min_weight == 78
    # achieved exactly by the listed hyperplanes (up to scalars)
    assert oracle.counts()[78] == 6 * len(wit)

    w3, wit3 = family3_min_weight(7, 3, 3)
    assert w3 == 168
    assert len(wit3) == 6
    d3 = family3(make_field(7), 3, 3)
    oracle3 = weight_distribution_bruteforce(d3)
    assert oracle3.min_weight == 168
    assert oracle3.counts()[168] == 6 * len(wit3)


def test_min_weight_hypotheses_enforced():
    for q in (3, 5, 4, 8, 9):
        if q > 5 and factor_prime_power(q)[0] != 2:
            continue
        with pytest.raises(ParameterError):
            family2_min_weight(q, 3, 3)
        with pytest.raises(ParameterError):
            family3_min_weight(q, 3, 3)
    assert family2_min_weight(9, 3, 3)[0] == family2_length(9, 3, 3) - 80


def test_closed_form_report_dispatch():
    rep = closed_form_report(4, 3, 3, 3)
    assert rep.distribution.counts() == {0: 1, 10: 6, 12: 8, 14: 12}
    assert closed_form_report(4, 3, 3, 3, tilde=True).n == 36
    for family in (2, 3):
        with pytest.raises(ParameterError):
            closed_form_report(family, 7, 3, 3)


def test_report_emitters():
    rep = family4_distribution(3, 3, 3)
    doc = rep.to_json_dict()
    assert doc["family"] == 4 and doc["n"] == 18 and not doc["tilde"]
    assert {e["w"]: e["count"] for e in doc["weights"]} == rep.distribution.counts()
    assert all(set(p) == {"w", "origin"} for p in doc["provenance"])
    json.dumps(doc)  # must be serializable
    md = rep.to_markdown()
    assert md.splitlines()[0].startswith("| Weight")
    assert "| 10 | 6 |" in md and "w_3" in md


def test_parameter_validation():
    with pytest.raises(ParameterError):
        family1_distribution(3, 4, 3)  # h < 4 without relaxed
    with pytest.raises(ParameterError):
        family4_distribution(3, 3, FAMILY_H_MIN[4] - 1)
    assert family4_distribution(3, 3, FAMILY_H_MIN[4] - 1, relaxed=True)
    for family, min_weight in ((2, family2_min_weight),
                               (3, family3_min_weight)):
        with pytest.raises(ParameterError):
            min_weight(7, 3, FAMILY_H_MIN[family] - 1)
    with pytest.raises(ParameterError):
        family4_length(3, 2, 3)  # h > k
    with pytest.raises(ParameterError):
        family4_distribution(1, 3, 3)


@pytest.mark.parametrize("family", [2, 3])
def test_oracle_failure_evaluates_every_witness(family, monkeypatch):
    # a witness that is not a minimum-weight hyperplane fails the check,
    # wherever it sits in the list
    d = FAMILIES[family](field_of_order(7), 3, 3)
    oracle = weight_distribution_bruteforce(d)
    assert oracle_failure(family, 7, 3, 3, False, d, oracle) is None
    name = f"family{family}_min_weight"
    real = getattr(spectra, name)
    w_min, witnesses = real(7, 3, 3)
    for i in (0, len(witnesses) - 1):
        wrong = list(witnesses)
        wrong[i] = (1, 2, 0)
        monkeypatch.setattr(spectra, name,
                            lambda q, k, h, wrong=wrong: (w_min, wrong))
        assert oracle_failure(family, 7, 3, 3, False, d, oracle) == (
            "witness (1, 2, 0) misses minimum weight")
