import functools
import importlib.resources
import json
import multiprocessing
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint

from vpal import oracle, order, procedure
from vpal.digits import digit_count, repeat_concat
from vpal.factor import Budget, BudgetExhausted
from vpal.order import multiplicative_order
from vpal.oracle import (
    VerificationReport,
    compare_procedure_oracle,
    corpus,
    eligible,
    oracle_is_vpal,
    oracle_is_vpal_concat,
    sweep,
    verify_disjointness,
    verify_invariance,
    verify_lemmas,
    verify_periodicity,
)
from vpal.procedure import ConstraintPair, lcm_closure, run_procedure


def _is_vpal_reference(n):
    # independent route: sympy factorization, literal definition
    if n % 10 == 0:
        return False
    r = int(str(n)[::-1])
    if n == r:
        return False
    v = lambda m: sum(p + e if e >= 2 else p for p, e in factorint(m).items())
    return v(n) == v(r)


def test_oracle_examples():
    assert oracle_is_vpal(18)
    assert not oracle_is_vpal(12)
    assert not oracle_is_vpal(20)
    assert not oracle_is_vpal(22)


@given(st.integers(1, 10**6))
@settings(max_examples=300)
def test_oracle_matches_sympy_reference(n):
    assert oracle_is_vpal(n) == _is_vpal_reference(n)


def test_eligible_and_corpus():
    assert not eligible(10) and not eligible(22) and not eligible(7)
    assert eligible(18)
    c = corpus(100)
    assert 18 in c and 10 not in c and 33 not in c
    assert all(eligible(n) for n in c)


@given(st.integers(1, 3000).filter(eligible), st.integers(1, 10))
@settings(max_examples=120, deadline=None)
def test_concat_oracle_equals_literal_oracle(n, k):
    assert oracle_is_vpal_concat(n, k) == oracle_is_vpal(repeat_concat(n, k))


def test_concat_oracle_equals_literal_oracle_on_a_grid():
    # The same identity on a fixed grid, so a fault in the one-pass sum fails
    # on every run and not only on the draws that reach it.
    mismatched = [(n, k) for n in corpus(200) for k in range(1, 5)
                  if oracle_is_vpal_concat(n, k) != oracle_is_vpal(repeat_concat(n, k))]
    assert mismatched == []


def _oracle_rows(n):
    return oracle._oracle_rows(oracle._concat_terms(n), digit_count(n))


def _thresholds(rows):
    return {t for *_, thresholds in rows for t in thresholds}


def _oracle_elements(n):
    return _thresholds(_oracle_rows(n))


def _elements_outside_the_thresholds(nmax):
    """The eligible n <= nmax with an entry order of their table that is not
    one of the oracle's thresholds, computed independently of it."""
    return [n for n in corpus(nmax) if not run_procedure(n).elements <= _oracle_elements(n)]


def test_every_entry_order_the_table_reads_is_an_oracle_threshold():
    assert _elements_outside_the_thresholds(2000) == []


def test_compare_procedure_oracle_examples():
    # one check per element of M', the lcm-closure of 1 and both element sets
    for n, size in ((18, 3), (12, 3), (13, 7)):
        rep = compare_procedure_oracle(n)
        elements = run_procedure(n).elements | _oracle_elements(n)
        assert len(lcm_closure(elements)) == size
        assert (rep.checked, rep.failed, rep.skipped) == (size, 0, 0), n
    # 18 = 2 * 3**2 and 81 = 3**4: d_3 = 1 at L = 2, so x_d = 0 and the
    # thresholds of 3 are 3 and 9, not 1; 2 has none, and no constraint element
    assert _oracle_elements(18) == {3, 9}


def test_compare_procedure_oracle_skips_when_p_minus_1_does_not_factor(monkeypatch):
    def exhausted(*args):
        raise BudgetExhausted(1001)

    monkeypatch.setattr(oracle, "_oracle_rows", exhausted)
    rep = compare_procedure_oracle(13)
    assert (rep.checked, rep.failed, rep.skipped) == (1, 0, 1)
    assert rep.skips == [{"n": 13, "reason": "budget", "cofactor": "1001"}]


@pytest.mark.parametrize("harness", [compare_procedure_oracle, verify_disjointness, verify_invariance,
                                     verify_periodicity])
def test_harness_skips_when_n_does_not_factor(harness):
    # factorize(n) alone needs 13,054 rho iterations
    n = 860334011495401
    rep = harness(n, budget=Budget(seconds=1e9, iterations=13_000))
    assert (rep.checked, rep.failed, rep.skipped) == (1, 0, 1)
    assert rep.skips == [{"n": n, "reason": "budget", "cofactor": str(n)}]


# run_procedure(n) spends 13,948 rho iterations on n and r(n); a harness
# that factored them again would overrun 14,500. verify_invariance runs at
# kmax 1, where n(1) = n needs no new factoring: one shift-tables check and
# the 171 every-j points of copies 1; omega = 1 for this n, so
# verify_periodicity makes one comparison.
@pytest.mark.parametrize("harness, params, counts", [
    (compare_procedure_oracle, {}, (171, 0, 0)),
    (verify_invariance, {"kmax": 1}, (172, 0, 0)),
    (verify_periodicity, {}, (1, 0, 0)),
], ids=["compare_procedure_oracle", "verify_invariance", "verify_periodicity"])
def test_harness_factors_n_and_its_reversal_once(harness, params, counts):
    n = 860334011495401
    rep = harness(n, budget=Budget(seconds=1e9, iterations=14_500), **params)
    assert (rep.checked, rep.failed, rep.skipped) == counts


def test_oracle_elements_match_a_scan_of_powers_of_ten():
    # Each crucial p's row holds, for alpha in {1, 2}, the least k with p**alpha
    # dividing repunit(k, L), here found by scanning the repunits themselves.
    # 18 has d_3 = 1 at L = 2. 487 has the reversal 784 = 2**4 * 7**2, and
    # h(1) = h(2) = 162 at the base-10 Wieferich prime 487 at L = 3.
    for n, thresholds in ((13, {3, 39, 15, 465}), (18, {3, 9}), (255, {16, 272, 22, 506}),
                          (487, {2, 14, 162})):
        L = len(str(n))
        a, b = factorint(n), factorint(int(str(n)[::-1]))
        expected = {}
        for p in a.keys() | b.keys():
            if a.get(p, 0) == b.get(p, 0):
                continue
            R, k, ks = 1, 1, ()  # repunit(k, L), materialised; 2 and 5 divide none
            for alpha in () if p in (2, 5) else (1, 2):
                while R % p**alpha:
                    R, k = R * 10**L + 1, k + 1
                ks += (k,)
            expected[p] = ks
        assert set().union(*expected.values()) == thresholds, n
        assert {p: ts for p, _, ts in _oracle_rows(n)} == expected, n


def test_the_threshold_verdict_is_the_literal_verdict():
    # compare_procedure_oracle reads min(x_p, 2) off the thresholds; here that
    # verdict meets repunit_valuation's modular powers at every point of M'
    # and at 20 seeded random k < 10**12 per n, off the lattice too.
    rng = random.Random(20261019)
    compared, disagree = 0, []
    for n in corpus(2000):
        terms, L = oracle._concat_terms(n), digit_count(n)
        rows = oracle._oracle_rows(terms, L)
        lattice = sorted(lcm_closure(run_procedure(n).elements | _thresholds(rows)))
        for k in lattice + [rng.randrange(1, 10**12) for _ in range(20)]:
            compared += 1
            if oracle._threshold_verdict(rows, k) != oracle._concat_verdict(terms, L, k):
                disagree.append((n, k))
    assert (compared, disagree) == (59_912, [])


def test_procedure_oracle_agreement_beyond_corpus():
    # seeded sample of five-digit bases, outside the acceptance corpus
    import random

    rng = random.Random(20260811)
    for n in (rng.randrange(2001, 100_000) for _ in range(120)):
        if not eligible(n):
            continue
        rep = compare_procedure_oracle(n)
        assert rep.failed == 0 and rep.skipped == 0, (n, rep.failures[:2])


def _kinds(rep):
    return sorted({f["kind"] for f in rep.failures})


def test_verify_invariance_examples():
    # per k: one shift-tables check plus one every-j check per point of M_k
    # 12: its one column is empty, so no k is ever accepted
    for n, kmax, points in ((18, 3, [3, 3, 2]), (12, 3, [3, 3, 2]), (13, 5, [7, 7, 6, 7, 5])):
        rep = verify_invariance(n, kmax)
        assert [compare_procedure_oracle(n, copies=k).checked for k in range(1, kmax + 1)] == points
        assert (rep.checked, rep.failed, rep.skipped) == (kmax + sum(points), 0, 0), n


def test_verify_shift_parametrization():
    # five shift-tables checks, and the every-j points of copies 1 to 5
    for n, points in ((18, 14), (12, 14), (13, 32), (132, 13)):
        rep = verify_invariance(n, 5)
        assert rep.failed == 0, rep.failures[:3]
        assert rep.passed == 5 + points


def test_verify_invariance_catches_each_mutant(monkeypatch):
    # The two kinds are complementary: dropping the mu shift leaves n and n(k)
    # classified alike from scratch, so the shift tables see it, and so does
    # the every-j scan at copies > 1; rescaling off keeps the shifted and
    # from-scratch tables of n(k) identical, and only the every-j scan sees it.
    monkeypatch.setattr(procedure, "repunit_valuation", lambda p, k, L: 0)
    rep = sweep(verify_invariance, 200, kmax=4)
    assert (rep.failed, _kinds(rep)) == (239, ["every j", "shift tables"])
    assert {f["copies"] for f in rep.failures if f["kind"] == "every j"} == {2, 3, 4}
    # A shift-tables record is one equality of results, so its failure keeps
    # only the inputs that reproduce it.
    assert {tuple(f) for f in rep.failures if f["kind"] == "shift tables"} == {("n", "k", "kind")}
    monkeypatch.undo()

    order_at = procedure.repunit_order
    monkeypatch.setattr(procedure, "repunit_order",
                        lambda p, alpha, L: order_at(p, alpha, 1))
    rep = sweep(verify_invariance, 200, kmax=4)
    assert (rep.failed, _kinds(rep)) == (642, ["every j"])


def test_a_run_out_on_n_k_skips_only_its_shift_tables(monkeypatch):
    # 20,000 rho iterations factor 13 and 31 and p - 1 for their crucial
    # primes, but not 13(k) for k = 14 and every k from 16 to 30. The every-j
    # scan at copies k factors nothing new, so it runs at each of the 30 k.
    kinds = []
    record = VerificationReport.record

    def tally(self, passed, **inputs):
        record(self, passed, **inputs)
        kinds.append((inputs["kind"], inputs.get("copies", inputs["k"])))

    monkeypatch.setattr(VerificationReport, "record", tally)
    rep = verify_invariance(13, 30, budget=Budget(seconds=1e9, iterations=20_000))
    skipped = [s["k"] for s in rep.skips]
    assert skipped == [14, *range(16, 31)]
    assert {k for kind, k in kinds if kind == "every j"} == set(range(1, 31))
    assert {k for kind, k in kinds if kind == "shift tables"} == set(range(1, 31)) - set(skipped)
    assert (rep.checked, rep.failed, rep.skipped) == (212, 0, 16)


def test_verify_invariance_builds_each_input_once(monkeypatch):
    # run_procedure(n) and the oracle's rows once per n, run_procedure(n,
    # copies=k) once per k > 1 and the from-scratch n(k) once per k: 1 + 5 + 6
    # = 12 results at kmax 6, and no nested harness report to merge.
    calls = Counter()

    def counted(name, fn):
        return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

    for name in ("run_procedure", "_oracle_rows", "compare_procedure_oracle"):
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    monkeypatch.setattr(VerificationReport, "merge", counted("merge", VerificationReport.merge))
    rep = verify_invariance(13, 6)
    assert rep.failed == 0 and rep.skipped == 0
    assert calls["run_procedure"] <= 13
    assert calls == Counter(run_procedure=calls["run_procedure"], _oracle_rows=1)


def test_compare_procedure_oracle_catches_the_lift_mutant(monkeypatch):
    # h(2) = h(1) * p is wrong at a base-10 Wieferich prime: 487**2 divides
    # 10**486 - 1, so h(2) = h(1) for p = 487. Among n <= 2000 the patch
    # changes the tables of these six n only, and at each of them an entry
    # order leaves the oracle's thresholds. The every-k check finds four
    # failures, at 1461 = 3 * 487 and its reversal 1641 = 3 * 547; a window
    # k <= 8 finds none.
    changed = [479, 974, 1336, 1461, 1641, 1948]
    order_at = procedure.repunit_order
    monkeypatch.setattr(
        procedure, "repunit_order",
        lambda p, alpha, L: order_at(p, 1, L) * p if alpha == 2 else order_at(p, alpha, L),
    )
    failed = {n: sorted(f["k"] for f in compare_procedure_oracle(n).failures) for n in changed}
    lattice_ks = [22113, 12095811]
    assert failed == {479: [], 974: [], 1336: [], 1461: lattice_ks, 1641: lattice_ks, 1948: []}
    assert _elements_outside_the_thresholds(2000) == changed
    window = [(n, k) for n in changed for k in range(1, 9)
              if run_procedure(n).accepts(k) != oracle_is_vpal_concat(n, k)]
    assert window == []


@pytest.mark.parametrize("mutant, failed", [
    # h(1) * p**max(0, alpha - x) with x = v_p(repunit(h(1), L)) capped at 1:
    # wrong only where h(2) = h(1), which the default grid reaches at
    # (p, L) = (7, 7), (7, 14), (11, 11) and (13, 13) alone
    (lambda p, alpha, L: order.repunit_order(p, 1, L) * p ** (alpha - 1), 70),
    # d * p**max(0, alpha - x_d) with x_d = v_p(repunit(d, L)) dropped
    (lambda p, alpha, L: multiplicative_order(pow(10, L, p), p) * p**alpha, 2205),
])
def test_verify_lemmas_catches_each_entry_order_mutant(monkeypatch, mutant, failed):
    # The divisibility kind checks the entry orders that verify_lemmas reads
    # against a scan of repunit(k, L) mod p**alpha.
    monkeypatch.setattr(oracle, "repunit_order", functools.cache(mutant))
    rep = verify_lemmas()
    assert sum(f["kind"] == "divisibility" for f in rep.failures) == failed


def test_verify_periodicity_examples():
    rep = verify_periodicity(18, 2)
    assert rep.failed == 0 and rep.passed >= 1  # omega = 1: constant-true pattern
    rep = verify_periodicity(12, 2, budget=Budget(seconds=1.0))
    assert rep.failed == 0
    rep = verify_periodicity(13, 2)
    assert rep.failed == 0 and rep.skipped == 1  # omega 6045 exceeds the cap


def test_verify_periodicity_skips_n_when_its_procedure_runs_out_of_budget():
    # n = (10**29 + 319)(10**29 + 379), a product of two 30-digit primes: out of
    # reach of 50 rho iterations
    n = 10000000000000000000000000069800000000000000000000000120901
    rep = verify_periodicity(n, budget=Budget(seconds=1e9, iterations=50))
    assert (rep.checked, rep.failed, rep.skipped) == (1, 0, 1)
    assert rep.skips == [{"n": n, "reason": "budget", "cofactor": str(n)}]


def test_verify_disjointness():
    for n in (18, 12, 13, 112, 1234):
        rep = verify_disjointness(n)
        assert rep.failed == 0


def test_verify_disjointness_checks_past_any_window(monkeypatch, table_result):
    # Entry orders 24 and 25 at 7 and 11, each delta 1 and mu 0: solution
    # (1, 1) accepts the multiples of 600 and (2, 2) accepts nothing. Rigged
    # as a copy of column 0, column 1 overlaps it first at k = 600.
    rigged = table_result((7, 1, 0, 24, 24), (11, 0, 1, 25, 25))
    assert rigged.solutions == ((1, 1), (2, 2)) and rigged.lattice == {1, 24, 25, 600}
    rigged.__dict__["columns"] = (rigged.columns[0],) * 2
    monkeypatch.setattr(oracle, "run_procedure", lambda n, budget=None: rigged)
    rep = verify_disjointness(13)
    assert {"n": 13, "k": 600, "hits": 2, "kind": "lattice scan"} in rep.failures
    assert [f["k"] for f in rep.failures if f["kind"] == "lattice scan"] == [600]


def test_verify_disjointness_checks_cell_masks_against_columns(monkeypatch):
    # a signed-sum verdict that never accepts for solution 0 disagrees with
    # the columns wherever column 0 accepts; the columns alone see nothing wrong
    real = procedure.ProcedureResult.accepts
    monkeypatch.setattr(procedure.ProcedureResult, "accepts",
                        lambda self, k: real(self, k) and self.type_of(k) != self.solutions[0])
    rep = verify_disjointness(13)
    assert [f["k"] for f in rep.failures] == [6045]
    assert rep.failures[0] == {"n": 13, "k": 6045, "hits": 1, "kind": "lattice scan", "accepted": False}


def test_verify_disjointness_scans_the_columns_own_elements(monkeypatch, table_result):
    # Column 1, rigged as column 0 (the multiples of 600) that also asks 7 | k,
    # reads an element no row of the table holds: the two columns overlap
    # first at k = 4200, outside the table's lattice {1, 24, 25, 600}.
    rigged = table_result((7, 1, 0, 24, 24), (11, 0, 1, 25, 25))
    col = rigged.columns[0]
    rigged.__dict__["columns"] = (col, ConstraintPair(col.A | {7}, col.B))
    monkeypatch.setattr(oracle, "run_procedure", lambda n, budget=None: rigged)
    assert 4200 not in rigged.lattice
    assert verify_disjointness(13).failures == [{"n": 13, "k": 4200, "hits": 2, "kind": "lattice scan"}]


def test_verify_lemmas_small_grid():
    rep = verify_lemmas(p_max=20, alpha_max=2, k_max=10, L_max=2)
    assert rep.failed == 0
    assert rep.checked > 0 and rep.skipped == 0
    assert rep.elapsed > 0


def test_enumerate_examples():
    assert oracle.verify_enumeration(17)[0] == []
    assert oracle.verify_enumeration(18)[0] == [18]
    assert oracle.verify_enumeration(100)[0] == [18, 81]


def test_enumerate_is_budget_insensitive():
    generous, generous_report = oracle.verify_enumeration(2000)
    tight, tight_report = oracle.verify_enumeration(2000, Budget(seconds=5.0))
    assert generous == tight
    assert generous_report.skipped == tight_report.skipped == 0


@pytest.mark.parametrize("at, values, failures", [
    (50, [18, 81], []),
    (81, [18], [{"limit": 100, "expected_count": 2, "got_count": 1}]),
])
def test_a_budget_run_out_in_the_enumeration_is_that_ns_skip(monkeypatch, at, values, failures):
    literal = oracle.oracle_is_vpal

    def run_out(n, budget=None):
        if n == at:
            raise BudgetExhausted(1001)
        return literal(n, budget)

    monkeypatch.setattr(oracle, "oracle_is_vpal", run_out)
    got, report = oracle.verify_enumeration(100)
    assert got == values
    assert report.skips == [{"n": at, "reason": "budget", "cofactor": "1001"}]
    assert report.failures == failures
    assert (report.checked, report.skipped) == (2, 1)


def test_a_doctored_golden_list_fails_the_enumeration(monkeypatch, tmp_path):
    shipped = (Path(oracle.__file__).parent / "data" / "vpalindromes_1e4.txt").read_text().split()
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "vpalindromes_1e4.txt").write_text("\n".join(shipped[1:]) + "\n")
    monkeypatch.setattr(importlib.resources, "files", lambda package: tmp_path)
    for limit, expected, got in ((100, 1, 2), (10_500, len(shipped) - 1, len(shipped))):
        _, report = oracle.verify_enumeration(limit)
        assert (report.checked, report.failed, report.skipped) == (1, 1, 0)
        assert report.failures == [{"limit": limit, "expected_count": expected, "got_count": got}]


@pytest.mark.parametrize("limit, count, values_past", [
    (100, 2, []), (10_000, 26, []), (10_500, 26, []), (12_500, 27, [12441]),
])
def test_the_enumeration_report_keeps_its_label_and_counts(limit, count, values_past):
    # the golden list holds the 26 v-palindromes up to 10**4; those past it go unchecked
    values, report = oracle.verify_enumeration(limit)
    assert report.corpus == f"enumeration vs golden file: limit {limit}"
    assert (report.checked, report.passed, report.failed, report.skipped) == (1, 1, 0, 0)
    assert report.failures == report.skips == [] and report.elapsed > 0
    assert values[:2] == [18, 81] and len(values) == count
    assert [x for x in values if x > oracle.GOLDEN_LIMIT] == values_past


def test_report_invariant_and_merge():
    a = VerificationReport(corpus="a")
    a.record(True, x=1)
    a.record(False, x=2)
    a.record_skip(x=3)
    assert a.checked == a.passed + a.failed + a.skipped == 3
    assert not a.ok and a.failures == [{"x": 2}]
    b = VerificationReport(corpus="b")
    b.record(True, x=4)
    a.merge(b)
    assert (a.checked, a.passed, a.failed, a.skipped) == (4, 2, 1, 1)


def test_a_reports_counts_are_read_from_its_records():
    # failed and skipped are the lengths of the failures and skips, checked
    # adds the passes to them, in each report and in their merge; no count
    # can be set apart from the records it counts.
    a = VerificationReport(corpus="a", elapsed=0.25)
    a.record(True, n=13, k=1)
    a.record(False, n=13, k=2)
    a.record_skip(n=17, reason="budget", cofactor="1001")
    b = VerificationReport(corpus="b", elapsed=0.5)
    for k in (1, 2, 3):
        b.record(k != 2, n=19, k=k)
    b.record_skip(n=23, reason="omega_cap", omega=6045)
    b.record_skip(n=29, reason="budget", cofactor="91")
    merged = VerificationReport(corpus="n<=29").merge(a).merge(b)
    for rep, counts in ((a, (3, 1, 1, 1)), (b, (5, 2, 1, 2)), (merged, (8, 3, 2, 3))):
        assert (rep.checked, rep.passed, rep.failed, rep.skipped) == counts
        assert rep.checked == rep.passed + rep.failed + rep.skipped
        assert (rep.failed, rep.skipped) == (len(rep.failures), len(rep.skips))
        assert not rep.ok
        with pytest.raises(AttributeError):
            rep.failed = 0
    schema = json.loads((Path(__file__).parent.parent / "docs" / "verification-report.schema.json").read_text())
    d = merged.to_dict()
    assert list(d) == list(schema["properties"])
    assert d == {
        "corpus": "n<=29", "checked": 8, "passed": 3, "failed": 2, "skipped": 3,
        "failures": [{"n": 13, "k": 2}, {"n": 19, "k": 2}],
        "skips": [{"n": 17, "reason": "budget", "cofactor": "1001"},
                  {"n": 23, "reason": "omega_cap", "omega": 6045},
                  {"n": 29, "reason": "budget", "cofactor": "91"}],
        "elapsed_seconds": 0.75,
    }
    assert merged.to_text().splitlines()[1] == "checked 8: 3 passed, 2 failed, 3 skipped (0.8s)"
    for k in range(50):
        merged.record(False, n=31, k=k)
    assert merged.to_text().splitlines()[-2:] == ["  FAIL {'n': 31, 'k': 47}", "  ... and 2 more failures"]


def test_report_serialization():
    rep = compare_procedure_oracle(18)
    d = rep.to_dict()
    assert d["checked"] == 3 and d["failed"] == 0
    assert "procedure vs oracle" in rep.to_text()
    jsonschema = pytest.importorskip("jsonschema")
    import json
    from pathlib import Path

    schema = json.loads(
        (Path(__file__).parent.parent / "docs" / "verification-report.schema.json").read_text()
    )
    jsonschema.validate(d, schema)
    rep.record_skip(n=13, k=2, reason="budget", cofactor="1001")
    rep.record_skip(n=13, reason="omega_cap", omega=6045)
    jsonschema.validate(rep.to_dict(), schema)
    for bad in ({"n": 13}, {"n": 13, "reason": "budget"},
                {"n": 13, "reason": "omega exceeds cap", "omega": 6045}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**rep.to_dict(), "skips": [bad]}, schema)


@pytest.mark.parametrize(
    "check, nmax, params, label, label_13",
    [
        (compare_procedure_oracle, 60, {},
         "procedure vs oracle: n<=60, every k", "procedure vs oracle: n=13, every k"),
        (verify_invariance, 40, {"kmax": 3},
         "type invariance: n<=40, k<=3", "type invariance: n=13, k<=3"),
        (verify_periodicity, 60, {"omega_cap": 12},
         "periodicity: n<=60, periods=2, omega cap 12", "periodicity: n=13, periods=2, omega cap 12"),
        (verify_disjointness, 100, {},
         "column disjointness: n<=100", "column disjointness: n=13"),
    ],
)
def test_sweep_parallel_matches_serial_and_keeps_labels(check, nmax, params, label, label_13):
    serial = sweep(check, nmax, **params)
    parallel = sweep(check, nmax, jobs=2, **params)
    assert serial.corpus == parallel.corpus == label
    assert check(13, **params).corpus == label_13
    assert serial.elapsed > 0 and check(13, **params).elapsed > 0
    assert serial.checked > 0 and serial.failed == 0
    assert serial.checked == sum(check(n, **params).checked for n in corpus(nmax))
    for key in ("checked", "passed", "failed", "skipped", "failures", "skips"):
        assert getattr(serial, key) == getattr(parallel, key), key


def test_sweep_starts_no_more_workers_than_cpus(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("sweep started a worker pool")

    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    rep = sweep(verify_disjointness, 40, jobs=10**6)
    assert rep.checked > 0 and rep.failed == 0


def test_import_leaves_multiprocessing_unloaded():
    # only a sweep with jobs > 1 imports it, so a serial command never pays for it
    code = "import sys, vpal, vpal.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("n", [10, 22, 1210, 12321])
def test_the_concat_oracle_rejects_n_outside_the_domain(n):
    # 10 | n or n equals its reversal: so does every concatenation of n
    assert [oracle_is_vpal_concat(n, k) for k in (1, 2, 3)] == [False] * 3


def test_the_enumeration_needs_a_positive_limit():
    with pytest.raises(ValueError, match="expected limit >= 1"):
        oracle.verify_enumeration(0)
