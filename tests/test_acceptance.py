"""Acceptance gate: one test (and one pass/fail line) per criterion.

Each criterion prints an ``[acceptance] criterion N: PASS`` line on
success; a failed assertion suppresses the line and fails the test, so
the pytest verdict and the printed line always agree.
"""

import math
import time
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from mincodes import code, combinat, pointset, spectra
from mincodes.code import (
    ab_check,
    codeword,
    dimension,
    functional_count,
    is_minimal_direct,
    weight_distribution_bruteforce,
)
from mincodes.combinat import (
    count_A,
    multinomial,
    phi,
    psi,
)
from mincodes.field import field_of_order
from mincodes.pointset import (
    FAMILIES,
    FAMILY_H_MIN,
    is_cutting,
    tilde_join,
)
from mincodes.spectra import (
    closed_form_report,
    family1_distribution,
    family2_min_weight,
    family3_min_weight,
    family4_distribution,
    family4_tilde_distribution,
    tilde_transfer,
)
from conftest import brute_block_system_count, brute_sum_count, \
    count_A_closed, count_A_nonzero_gamma, first_short_class

EXAMPLES = settings(max_examples=200, deadline=None)


def _announce(n: int, detail: str) -> None:
    print(f"[acceptance] criterion {n}: PASS  {detail}")


def test_criterion_1_family4_base():
    start = time.perf_counter()
    rep = family4_distribution(3, 3, 3)
    assert rep.distribution.nonzero_entries() == ((10, 6), (12, 8), (14, 12))
    d = FAMILIES[4](field_of_order(3), 3, 3)
    n = len(d)
    assert rep.n == n == 18
    assert rep.distribution.min_weight == 10 == n - 3 ** 2 + 1
    oracle = weight_distribution_bruteforce(d)
    assert rep.distribution == oracle
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _announce(1, f"distribution {{10:6, 12:8, 14:12}} exact in {elapsed:.3f}s")


def test_criterion_2_ab_violation_still_minimal():
    start = time.perf_counter()
    d = FAMILIES[4](field_of_order(5), 3, 3)
    dist = weight_distribution_bruteforce(d)
    assert not ab_check(dist, 5)
    assert functional_count(5, 3) == 31
    res = is_minimal_direct(d)
    assert res.minimal and res.witness is None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _announce(2, "ab_check false, is_minimal_direct true over 31 classes "
                 f"in {elapsed:.3f}s")


def test_criterion_3_family1_distributions():
    start = time.perf_counter()
    gf3 = field_of_order(3)
    for k, n_expected in ((4, 70), (5, 212)):
        rep = family1_distribution(3, k, 4)
        d = FAMILIES[1](gf3, k, 4)
        assert rep.n == len(d) == n_expected
        oracle = weight_distribution_bruteforce(d)
        # weights derived as n - Lambda + 1 from the solution counts; the
        # enumeration confirms this resolution of the printed spectrum's
        # flipped middle signs
        assert rep.distribution == oracle, (k, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(3, "n=70 and n=212 exact; weights n-Lambda+1 confirmed "
                 "against enumeration (printed-spectrum signs rejected) "
                 f"in {elapsed:.3f}s")


def test_criterion_4_family2():
    start = time.perf_counter()
    for q, k, h, n_expected in ((5, 3, 3, 60), (7, 3, 3, 126), (4, 2, 2, 3)):
        d = FAMILIES[2](field_of_order(q), k, h, relaxed=(h < 3))
        assert spectra.family2_length(q, k, h) == len(d) == n_expected
    d7 = FAMILIES[2](field_of_order(7), 3, 3)
    w_min, witnesses = family2_min_weight(7, 3, 3)
    assert w_min == 78 and len(witnesses) == 3
    oracle = weight_distribution_bruteforce(d7)
    assert oracle.min_weight == 78
    assert all(sum(map(bool, codeword(d7, f))) == 78 for f in witnesses)
    # achieved exactly by those hyperplanes: q-1 scalars per witness
    assert oracle.counts()[78] == 6 * 3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(4, "lengths 60/126/3; q=7 min weight 78 exact over "
                 f"witnesses e_i+e_j in {elapsed:.3f}s")


def test_criterion_5_family3():
    start = time.perf_counter()
    for q, n_expected in ((5, 96), (7, 216), (4, 57)):
        d = FAMILIES[3](field_of_order(q), 3, 3)
        assert spectra.family3_length(q, 3, 3) == len(d) == n_expected
    d7 = FAMILIES[3](field_of_order(7), 3, 3)
    w_min, witnesses = family3_min_weight(7, 3, 3)
    assert w_min == 168 and len(witnesses) == 6
    oracle = weight_distribution_bruteforce(d7)
    assert oracle.min_weight == 168
    assert all(sum(map(bool, codeword(d7, f))) == 168 for f in witnesses)
    assert oracle.counts()[168] == 6 * 6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(5, "lengths 96/216/57; q=7 min weight 168 exact over 6 "
                 f"witnesses in {elapsed:.3f}s")


def test_criterion_6_tilde_transfer():
    start = time.perf_counter()
    rep = family4_tilde_distribution(3, 3, 3)
    assert (rep.n, rep.dim) == (36, 4)
    assert rep.distribution.min_weight == 18
    assert rep.distribution.nonzero_entries() == (
        (18, 2), (20, 6), (23, 12), (24, 24), (25, 24), (28, 12))
    d = FAMILIES[4](field_of_order(3), 3, 3)
    t = tilde_join(d, d)
    oracle = weight_distribution_bruteforce(t)
    assert rep.distribution == oracle
    # the 24 entry is the merge 2*12 = 18 + 12/2
    assert 2 * 12 == 18 + 12 // 2 == 24

    rep5 = family4_tilde_distribution(5, 3, 3)
    assert rep5.distribution.counts()[96] == 320
    d5 = FAMILIES[4](field_of_order(5), 3, 3)
    oracle5 = weight_distribution_bruteforce(tilde_join(d5, d5))
    assert rep5.distribution == oracle5
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(6, "[36,4,18] transfer exact incl. merges; (5,3,3) weight 96 "
                 f"count 320 exact in {elapsed:.3f}s")


def test_criterion_7_table2_regime():
    start = time.perf_counter()
    rep = family4_tilde_distribution(3, 4, 3)
    d = FAMILIES[4](field_of_order(3), 4, 3)
    oracle = weight_distribution_bruteforce(tilde_join(d, d))
    assert rep.distribution == oracle
    # aggregated rows: provenance labels every surviving weight
    labelled = {w for w, _ in rep.provenance}
    assert {w for w, _ in rep.distribution.nonzero_entries()} <= labelled
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(7, f"(3,4,3) tilde rows aggregate and match enumeration "
                 f"in {elapsed:.3f}s")


def test_criterion_8_property_suites():
    start = time.perf_counter()

    @EXAMPLES
    @given(s=st.integers(1, 5), q=st.sampled_from((2, 3, 4, 5, 7)))
    def psi_phi_vs_brute(s, q):
        assert psi(s, q) == brute_sum_count(s, q, 0)
        assert phi(s, q) == brute_sum_count(s, q, 1)

    @EXAMPLES
    @given(data=st.data(), q=st.sampled_from((5, 7)))
    def a_recursion_vs_brute(data, q):
        total = data.draw(st.integers(1, 4))
        parts = []
        while total:
            r = data.draw(st.integers(1, total))
            parts.append(r)
            total -= r
        parts = tuple(parts)
        alphas = tuple(data.draw(
            st.permutations(range(1, q)))[: len(parts)])
        expected = count_A(parts, q)
        assert expected == brute_block_system_count(parts, alphas, q, 0)
        assert expected == count_A_closed(parts, q)
        gamma = data.draw(st.integers(1, q - 1))
        assert count_A_nonzero_gamma(parts, q) == \
            brute_block_system_count(parts, alphas, q, gamma)

    @EXAMPLES
    @given(s=st.integers(1, 8), q=st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    def completeness_identity(s, q):
        total = 0
        for parts, mult_type in combinat.enumerate_part_multisets(
                s, min(s, q - 1)):
            total += (multinomial(s, parts)
                      * multinomial(len(parts), mult_type)
                      * math.comb(q - 1, len(parts)))
        assert total == (q - 1) ** s

    @EXAMPLES
    @given(q=st.sampled_from((3, 4, 5, 7, 8, 9)),
           k=st.integers(3, 6), data=st.data())
    def divisibility_invariants(q, k, data):
        h = data.draw(st.integers(3, k))
        n = spectra.family4_length(q, k, h)
        if k > h:
            # in the k > h regime the length is = -1 mod q, so no weight
            # can collide with its own lift (that needs (q-1)n = qw)
            assert n % q != 0
        rep = family4_distribution(q, k, h)
        for w, _ in rep.distribution.nonzero_entries():
            # weights of scale-invariant sets are multiples of q-1
            assert w % (q - 1) == 0
            if k > h:
                assert 2 * w != n + (q - 2) * w // (q - 1)

    @EXAMPLES
    @given(q=st.sampled_from((2, 3, 4, 5, 7, 9)),
           tilde=st.booleans(), data=st.data())
    def report_totals(q, tilde, data):
        family = data.draw(st.sampled_from((1, 4)))
        h_min = FAMILY_H_MIN[family]
        k = data.draw(st.integers(h_min, h_min + 2))
        h = data.draw(st.integers(h_min, k))
        rep = closed_form_report(family, q, k, h, tilde=tilde)
        dim = k + 1 if tilde else k
        assert rep.dim == dim
        assert rep.distribution.total == q ** dim
        assert sum(c for _, c in rep.distribution.nonzero_entries()) \
            == q ** dim - 1

    psi_phi_vs_brute()
    a_recursion_vs_brute()
    completeness_identity()
    divisibility_invariants()
    report_totals()
    elapsed = time.perf_counter() - start
    _announce(8, f"5 suites x 200 cases in {elapsed:.1f}s")


def test_criterion_9_cutting_equals_minimality(monkeypatch):
    start = time.perf_counter()
    budget = 10 ** 9
    max_points = 10 ** 4
    verdicts: dict = {}
    tilde_checked = set()
    instances = 0
    # seconds spent in each check, per q, the line test's route per q:
    # settled by the weight levels, the scan of the lines through some
    # classes or the scan of every line, and the classes is_cutting's
    # echelon certificate settled or sent to the sample route per q,
    # reported on the acceptance line
    spent = {"is_cutting": Counter(), "is_cutting tilde": Counter(),
             "is_minimal_direct": Counter()}
    routes = Counter()
    certified = Counter()
    ran = []

    def certificate(gf, k, codes, real=pointset._echelon_certificate):
        settled = real(gf, k, codes)

        def counted(fs):
            out = settled(fs)
            certified[gf.q, "settled"] += int(out.sum())
            certified[gf.q, "sampled"] += int((~out).sum())
            return out

        return counted

    monkeypatch.setattr(pointset, "_echelon_certificate", certificate)

    def scan(gf, k, wts, through, real=code._line_scan):
        ran.append("scan" if through is None else "restricted")
        return real(gf, k, wts, through)

    def minimality(gf, k, wts, real=code._minimality):
        ran.clear()
        out = real(gf, k, wts)
        routes[gf.q, ran[0] if ran else "settled"] += 1
        return out

    for name, spy in (("_line_scan", scan), ("_minimality", minimality)):
        monkeypatch.setattr(code, name, spy)

    def timed(name, q, check, *args):
        t0 = time.perf_counter()
        out = check(*args, budget=budget)
        spent[name][q] += time.perf_counter() - t0
        return out

    for family, ctor in sorted(FAMILIES.items()):
        h_min = FAMILY_H_MIN[family]
        for q in (2, 3, 4, 5, 7):
            gf = field_of_order(q)
            k = h_min
            while q ** k <= max_points:
                for h in range(h_min, k + 1):
                    d = ctor(gf, k, h)
                    instances += 1
                    key = (q, d.dim, d.codes.tobytes())
                    if key not in verdicts:
                        cut = timed("is_cutting", q, is_cutting, d)
                        res = timed("is_minimal_direct", q,
                                    is_minimal_direct, d)
                        assert cut == res.minimal, (family, q, k, h)
                        # the first hyperplane D fails to span holds the
                        # smallest containing codeword of a violating pair
                        if not cut:
                            assert first_short_class(d) == res.witness[0], (
                                family, q, k, h)
                        verdicts[key] = cut
                        if cut and key not in tilde_checked:
                            t = tilde_join(d, d)
                            assert timed("is_cutting tilde", q, is_cutting,
                                         t), (family, q, k, h)
                            tilde_checked.add(key)
                k += 1
    assert instances > 100
    non_cutting = sum(1 for v in verdicts.values() if not v)
    # the only non-cutting (hence non-minimal) instances in range are
    # family 2 in characteristic 2, outside the proved hypotheses
    assert non_cutting == 4
    elapsed = time.perf_counter() - start

    def split(name):
        by_q = spent[name]
        return f"{name} {sum(by_q.values()):.1f}s (" + ", ".join(
            f"q={q} {t:.2f}s" for q, t in sorted(by_q.items())) + ")"

    line_tests = ", ".join(f"q={q} {route} {n}"
                           for (q, route), n in sorted(routes.items()))
    certificate = ", ".join(
        f"q={q} {certified[q, 'settled']} settled {certified[q, 'sampled']} "
        f"sampled" for q in sorted({q for q, _ in certified}))

    _announce(9, f"{instances} instances ({len(verdicts)} distinct sets): "
                 f"is_cutting == is_minimal_direct everywhere "
                 f"({non_cutting} agreed non-minimal, on the same first "
                 f"class), tilde joins of cutting sets cutting, in "
                 f"{elapsed:.1f}s (" + ", ".join(map(split, spent))
                 + f"; line test {line_tests}; classes of is_cutting "
                 f"{certificate})")
