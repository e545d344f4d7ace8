"""Acceptance suite: each criterion at its stated bounds, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every criterion demands zero failures and, except criterion 5, zero skips.
The concatenation oracle factors only n and its reversal, so a harness skip
can come only from n or r(n) failing to factor under the budget (recorded,
never guessed) or, in criterion 5, from omega exceeding the cap.
"""

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from unittest import mock

from vpal.digits import digit_count, repeat_concat, reverse_digits
from vpal.factor import factor_repunit, factorize, v_of_factorization, v_value
from vpal.oracle import (
    VerificationReport,
    compare_procedure_oracle,
    corpus,
    enumerate_vpals,
    oracle_is_vpal,
    oracle_is_vpal_concat,
    sweep,
    verify_disjointness,
    verify_invariance,
    verify_lemmas,
    verify_periodicity,
)
from vpal.procedure import CaseLabel, run_procedure

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


def test_criterion_1_oracle_equivalence():
    rep = sweep(compare_procedure_oracle, 2000, kmax=8)
    ok = _report_line(1, "procedure vs factorization oracle, n<=2000 k<=8", rep)
    assert ok, rep.failures[:5]
    assert rep.skipped == 0, rep.skips[:5]


@functools.cache
def _invariance_sweep():
    """One sweep of verify_invariance at n <= 500, k <= 6, shared by criteria 2
    and 7: the whole report, and its checks split into one report per kind."""
    by_kind = defaultdict(lambda: VerificationReport(corpus="by kind"))
    record = VerificationReport.record

    def tally(self, passed, **inputs):
        record(self, passed, **inputs)
        record(by_kind[inputs["kind"]], passed, **inputs)

    with mock.patch.object(VerificationReport, "record", tally):
        rep = sweep(verify_invariance, 500, kmax=6)
    for part in by_kind.values():
        part.elapsed = rep.elapsed
    return rep, dict(by_kind)


def test_criterion_2_type_invariance():
    rep, by_kind = _invariance_sweep()
    pullback = by_kind["pullback"]
    ok = _report_line(2, "type of n(kj) from bases n and n(k), every j, n<=500 k<=6", pullback)
    assert ok, pullback.failures[:5]
    assert rep.skipped == 0, rep.skips[:5]
    assert pullback.checked == 3726


def test_criterion_3_entry_order_divisibility():
    rep = verify_lemmas(p_max=100, alpha_max=3, k_max=60, L_max=6, checks=("divisibility",))
    ok = _report_line(3, "entry-order divisibility + lower bound, p<=100 a<=3 L<=6 k<=60", rep)
    assert ok, rep.failures[:5]
    assert rep.skipped == 0


def test_criterion_4_rescaling_identity():
    rep = verify_lemmas(p_max=50, alpha_max=2, k_max=12, L_max=4, checks=("rescale",))
    ok = _report_line(4, "block-length rescaling identity, p<=50 a<=2 k<=12 L<=4", rep)
    assert ok, rep.failures[:5]
    assert rep.skipped == 0


def test_criterion_5_periodicity():
    rep = sweep(verify_periodicity, 1000, periods=2, omega_cap=60)
    ok = _report_line(5, "oracle pattern is omega-periodic, n<=1000 omega<=60", rep)
    assert ok, rep.failures[:5]
    assert not [s for s in rep.skips if "cofactor" in s]  # only omega-cap skips
    assert rep.passed > 500  # the comparable corpus must stay substantial


def test_criterion_6_golden_traces():
    checks = 0
    for n in (18, 12, 13):
        assert run_procedure(n).to_dict() == GOLDEN_TRACES[str(n)], n
        checks += 1

    r18 = run_procedure(18)
    assert r18.solutions == ((2, 2),)
    assert r18.case_table == ((CaseLabel.III,), (CaseLabel.VI,))
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


def test_criterion_9_cancellation_equals_full_product():
    # The concatenation oracle cancels the primes of the repunit that divide
    # neither n nor r(n); the reference factors the whole repunit instead.
    t0 = time.monotonic()
    checked = mismatched = 0
    for n in corpus(2000):
        fn, fr = factorize(n), factorize(reverse_digits(n))
        for k in range(1, 9):
            rho = factor_repunit(k, digit_count(n))
            full = v_of_factorization(fn.merge(rho)) == v_of_factorization(fr.merge(rho))
            checked += 1
            mismatched += oracle_is_vpal_concat(n, k) != full
    status = "PASS" if mismatched == 0 else "FAIL"
    print(
        f"\nACCEPTANCE 9 (cancellation oracle vs full repunit product, n<=2000 k<=8): "
        f"{status} - checked {checked}, mismatched {mismatched}, skipped 0, "
        f"{time.monotonic() - t0:.1f}s"
    )
    assert checked == 13_456 and mismatched == 0


def test_enumeration_golden_file():
    # companion check: the shipped enumeration golden matches a fresh scan
    from importlib import resources

    golden = [
        int(line)
        for line in resources.files("vpal").joinpath("data/vpalindromes_1e4.txt").read_text().split()
    ]
    fresh = enumerate_vpals(10_000)
    assert fresh == golden
    assert fresh[:3] == [18, 81, 198]
    print(f"\nACCEPTANCE + (enumeration golden, limit 10^4): PASS - {len(fresh)} values")
