"""Acceptance suite: each criterion at its stated bounds, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every criterion demands zero failures and zero skips. The every-k oracle
check, which criterion 2 runs at each base n(k), factors only n, its
reversal and p - 1 for their primes p (criterion 7 also factors n(k)), so a
harness skip could come only from one of those failing to factor under the
budget (recorded, never guessed).
"""

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from unittest import mock

from vpal.digits import digit_count, repeat_concat, repunit, reverse_digits
from vpal.factor import factor_repunit, factorize, v_of_factorization, v_value, valuation
from vpal.oracle import (
    VerificationReport,
    compare_procedure_oracle,
    corpus,
    oracle_is_vpal,
    oracle_is_vpal_concat,
    sweep,
    verify_disjointness,
    verify_enumeration,
    verify_invariance,
    verify_lemmas,
)
from vpal.order import repunit_valuation
from vpal.procedure import run_procedure

from schema1 import rebuild

GOLDEN_TRACES = json.loads(
    (Path(__file__).parent / "data" / "golden_procedures.json").read_text()
)


def _report_line(cid, name, rep):
    ok = rep.failed == 0
    status = "PASS" if ok else "FAIL"
    print(
        f"\nACCEPTANCE {cid} ({name}): {status} - "
        f"checked {rep.checked}, passed {rep.passed}, failed {rep.failed}, "
        f"skipped {rep.skipped}, {rep.elapsed:.1f}s"
    )
    return ok


@functools.cache
def _every_k_sweep():
    """One sweep of compare_procedure_oracle at n <= 2000, shared by criteria 1
    and 5: the whole report, and the part of it for n <= 1000."""
    head = VerificationReport(corpus="n<=1000")
    record, record_skip = VerificationReport.record, VerificationReport.record_skip

    def tally(self, passed, **inputs):
        record(self, passed, **inputs)
        if inputs["n"] <= 1000:
            record(head, passed, **inputs)

    def tally_skip(self, **inputs):
        record_skip(self, **inputs)
        if inputs["n"] <= 1000:
            record_skip(head, **inputs)

    with mock.patch.object(VerificationReport, "record", tally), \
            mock.patch.object(VerificationReport, "record_skip", tally_skip):
        rep = sweep(compare_procedure_oracle, 2000)
    head.elapsed = rep.elapsed
    return rep, head


def test_criterion_1_oracle_equivalence():
    rep, _ = _every_k_sweep()
    ok = _report_line(1, "procedure vs factorization oracle, n<=2000, every k", rep)
    assert ok, rep.failures[:5]
    assert rep.skipped == 0, rep.skips[:5]
    assert rep.checked == 26_272  # one check per element of M' for each n


def _split_by_kind(run):
    """The report of run(), and its checks split into one report per kind."""
    by_kind = defaultdict(lambda: VerificationReport(corpus="by kind"))
    record = VerificationReport.record

    def tally(self, passed, **inputs):
        record(self, passed, **inputs)
        record(by_kind[inputs["kind"]], passed, **inputs)

    with mock.patch.object(VerificationReport, "record", tally):
        rep = run()
    for part in by_kind.values():
        part.elapsed = rep.elapsed
    return rep, dict(by_kind)


@functools.cache
def _invariance_sweep():
    """One sweep of verify_invariance at n <= 500, k <= 6, shared by criteria 2
    (its every-j records) and 7 (its shift tables), split by kind."""
    return _split_by_kind(lambda: sweep(verify_invariance, 500, kmax=6))


def test_criterion_2_type_invariance():
    rep, by_kind = _invariance_sweep()
    every_j = by_kind["every j"]
    ok = _report_line(2, "type of n(kj) from bases n and n(k), every j, n<=500 k<=6", every_j)
    assert ok, every_j.failures[:5]
    assert rep.skipped == 0, rep.skips[:5]
    assert every_j.checked == 22_637  # one check per point of M_k for each n and k


@functools.cache
def _lemmas_grid():
    """One verify_lemmas grid at p <= 100, alpha <= 3, k <= 60, L <= 14, shared
    by criteria 3 and 4, split by kind."""
    return _split_by_kind(lambda: verify_lemmas(p_max=100, alpha_max=3, k_max=60, L_max=14))


def test_criterion_3_entry_order_divisibility():
    rep, by_kind = _lemmas_grid()
    part = VerificationReport(corpus="divisibility + h lower bound")
    part.merge(by_kind["divisibility"]).merge(by_kind["h lower bound"])
    part.elapsed = rep.elapsed
    ok = _report_line(3, "entry-order divisibility + lower bound, p<=100 a<=3 L<=14 k<=60", part)
    assert ok, part.failures[:5]
    assert rep.skipped == 0
    # 966 = 23 primes * 3 alphas * 14 block lengths, each with 60 k and one bound
    assert part.checked == 966 * 61


def test_criterion_4_rescaling_identity():
    rep, by_kind = _lemmas_grid()
    rescale = by_kind["rescale"]
    ok = _report_line(4, "block-length rescaling identity, p<=100 a<=3 k<=60 L<=14", rescale)
    assert ok, rescale.failures[:5]
    assert rep.skipped == 0
    assert rescale.checked == 966 * 60


def test_criterion_5_periodicity():
    """The oracle's pattern is omega-periodic, for every n <= 1000, with no cap.

    Each column accepts k by which constraint elements divide k, and all of
    them divide omega, so the procedure's pattern is omega-periodic by
    construction. Criterion 1's sweep shows the oracle agrees with it for
    every k; so the oracle's pattern is omega-periodic too. This reads that
    sweep's checks for n <= 1000, where a scan of [1, 2 omega] had to skip
    every n with omega above a cap.
    """
    _, rep = _every_k_sweep()
    ok = _report_line(5, "oracle pattern is omega-periodic, n<=1000, every omega", rep)
    assert ok, rep.failures[:5]
    assert rep.skipped == 0, rep.skips[:5]
    assert rep.checked == 9_058


def test_criterion_6_golden_traces():
    checks = 0
    for n in (18, 12, 13):
        assert rebuild(run_procedure(n).to_dict()) == GOLDEN_TRACES[str(n)], n
        checks += 1

    r18 = run_procedure(18)
    assert r18.solutions == ((2, 2),)
    assert rebuild(r18.to_dict())["case_table"] == [["iii"], ["vi"]]
    for k in range(1, 9):
        nk = repeat_concat(18, k)
        rk = reverse_digits(nk)
        assert rk == repeat_concat(81, k)
        assert v_value(nk) == v_value(rk), k  # both sides by direct factorization
        assert r18.accepts(k)
        checks += 1

    r12 = run_procedure(12)
    assert r12.first_member() is None
    for k in range(1, 9):
        assert not r12.accepts(k)
        assert not oracle_is_vpal(repeat_concat(12, k)), k
        checks += 1

    r13 = run_procedure(13)
    assert r13.first_member() == 15
    assert oracle_is_vpal(repeat_concat(13, 15))  # direct 30-digit factorization
    for k in range(1, 15):
        assert not oracle_is_vpal(repeat_concat(13, k)), k
        checks += 1

    print(f"\nACCEPTANCE 6 (golden traces 18/12/13): PASS - checked {checks}, failed 0")


def test_criterion_7_shift_invariances():
    rep, by_kind = _invariance_sweep()
    tables = by_kind["shift tables"]
    ok = _report_line(7, "crucial primes/solutions/delta invariant, mu shifts, n<=500 k<=6", tables)
    assert ok, tables.failures[:5]
    assert rep.skipped == 0, rep.skips[:5]
    assert tables.checked == 2352


def test_criterion_8_disjointness():
    rep = sweep(verify_disjointness, 2000)
    ok = _report_line(8, "no k accepted by two columns, full corpus", rep)
    assert ok, rep.failures[:5]
    assert rep.skipped == 0


def _product(f, g):
    """The factorization of the product of two factorizations: exponents add."""
    counts = Counter(dict(f)) + Counter(dict(g))
    return tuple(sorted(counts.items()))


def test_criterion_9_cancellation_equals_full_product():
    # The concatenation oracle cancels the primes of the repunit that divide
    # neither n nor r(n); the reference factors the whole repunit instead.
    # The oracle's x_p, repunit_valuation, is also checked against dividing
    # the materialized repunit, at every prime of n * r(n).
    t0 = time.monotonic()
    checked = mismatched = valuations = 0
    ns = corpus(2000)
    repunits = {(k, L): factor_repunit(k, L) for L in {digit_count(n) for n in ns} for k in range(1, 9)}
    for n in ns:
        fn, fr = factorize(n), factorize(reverse_digits(n))
        L = digit_count(n)
        for k in range(1, 9):
            rho = repunits[k, L]
            full = v_of_factorization(_product(fn, rho)) == v_of_factorization(_product(fr, rho))
            checked += 1
            mismatched += oracle_is_vpal_concat(n, k) != full
            R = repunit(k, L)
            for p in dict(fn).keys() | dict(fr).keys():
                valuations += 1
                mismatched += repunit_valuation(p, k, L) != valuation(p, R)
    status = "PASS" if mismatched == 0 else "FAIL"
    print(
        f"\nACCEPTANCE 9 (cancellation oracle vs full repunit product, and x_p, n<=2000 k<=8): "
        f"{status} - checked {checked} + {valuations} valuations, mismatched {mismatched}, "
        f"skipped 0, {time.monotonic() - t0:.1f}s"
    )
    assert (checked, valuations, mismatched) == (13_456, 47_920, 0)


def test_enumeration_golden_file():
    # companion check: the shipped enumeration golden matches a fresh scan
    from importlib import resources

    golden = [
        int(line)
        for line in resources.files("vpal").joinpath("data/vpalindromes_1e4.txt").read_text().split()
    ]
    fresh = verify_enumeration(10_000)[0]
    assert fresh == golden
    assert fresh[:3] == [18, 81, 198]
    print(f"\nACCEPTANCE + (enumeration golden, limit 10^4): PASS - {len(fresh)} values")
