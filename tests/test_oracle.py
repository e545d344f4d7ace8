import functools
import importlib.resources
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint

from vpal import oracle, order, procedure
from vpal.digits import digit_count, repeat_concat, reverse_digits
from vpal.factor import Budget, BudgetExhausted, factorize
from vpal.order import multiplicative_order
from vpal.oracle import (
    VerificationReport,
    compare_procedure_oracle,
    corpus,
    eligible,
    enumerate_vpals,
    oracle_is_vpal,
    oracle_is_vpal_concat,
    sweep,
    verify_disjointness,
    verify_invariance,
    verify_lemmas,
    verify_periodicity,
)
from vpal.procedure import CaseLabel, ConstraintPair, lcm_closure, run_procedure


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


def _oracle_elements(n):
    return oracle._oracle_elements(factorize(n), factorize(reverse_digits(n)), digit_count(n))


def test_compare_procedure_oracle_examples():
    # one check per element of M', the lcm-closure of 1 and both element sets
    for n, size in ((18, 3), (12, 7), (13, 13)):
        rep = compare_procedure_oracle(n)
        elements = run_procedure(n).elements | _oracle_elements(n)
        assert len(lcm_closure(elements)) == size
        assert (rep.checked, rep.failed, rep.skipped) == (size, 0, 0), n
    # 18 = 2 * 3**2 and 81 = 3**4: d_3 = 1 at L = 2, and no constraint element
    assert _oracle_elements(18) == {1, 3, 9}


def test_compare_procedure_oracle_skips_when_p_minus_1_does_not_factor(monkeypatch):
    def exhausted(*args):
        raise BudgetExhausted(1001)

    monkeypatch.setattr(oracle, "_oracle_elements", exhausted)
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
# kmax 1, where n(1) = n needs no new factoring; omega = 1 for this n, so
# verify_periodicity makes one comparison.
@pytest.mark.parametrize("harness, params, counts", [
    (compare_procedure_oracle, {}, (784, 0, 0)),
    (verify_invariance, {"kmax": 1}, (1, 0, 0)),
    (verify_periodicity, {}, (1, 0, 0)),
], ids=["compare_procedure_oracle", "verify_invariance", "verify_periodicity"])
def test_harness_factors_n_and_its_reversal_once(harness, params, counts):
    n = 860334011495401
    rep = harness(n, budget=Budget(seconds=1e9, iterations=14_500), **params)
    assert (rep.checked, rep.failed, rep.skipped) == counts


def test_oracle_elements_match_a_scan_of_powers_of_ten():
    # d_p = ord_p(10**L), here by scanning j until 10**(j*L) = 1 (mod p)
    for n in (13, 1461, 98765):
        L = len(str(n))
        primes = (set(factorint(n)) | set(factorint(int(str(n)[::-1])))) - {2, 5}
        expected = set()
        for p in primes:
            d = next(j for j in range(1, p) if pow(10, j * L, p) == 1)
            expected |= {d, d * p, d * p * p}
        assert _oracle_elements(n) == expected, n


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
    # per k: one shift-tables check plus one pullback check per column of n
    # 12: its one column is empty, so no k is ever accepted
    for n, kmax, columns in ((18, 3, 1), (12, 3, 1), (13, 5, 2)):
        rep = verify_invariance(n, kmax)
        assert len(run_procedure(n).columns) == columns
        assert (rep.checked, rep.failed, rep.skipped) == (kmax * (1 + columns), 0, 0), n


def test_verify_shift_parametrization():
    for n in (18, 12, 13, 132):
        rep = verify_invariance(n, 5)
        assert rep.failed == 0, rep.failures[:3]
        assert rep.passed == 5 * (1 + len(run_procedure(n).columns))


def test_verify_invariance_catches_each_mutant(monkeypatch):
    # The two kinds are complementary: dropping the mu shift leaves n and n(k)
    # classified alike from scratch, and rescaling off keeps the shifted and
    # from-scratch tables of n(k) identical.
    monkeypatch.setattr(procedure, "repunit_valuation", lambda p, k, L: 0)
    rep = sweep(verify_invariance, 200, kmax=4)
    assert (rep.failed, _kinds(rep)) == (113, ["shift tables"])
    monkeypatch.undo()

    order_at = procedure.repunit_order
    monkeypatch.setattr(procedure, "repunit_order",
                        lambda p, alpha, L: order_at(p, alpha, 1))
    rep = sweep(verify_invariance, 200, kmax=4)
    assert (rep.failed, _kinds(rep)) == (234, ["pullback"])


def test_compare_procedure_oracle_catches_the_lift_mutant(monkeypatch):
    # h(2) = h(1) * p is wrong at a base-10 Wieferich prime: 487**2 divides
    # 10**486 - 1, so h(2) = h(1) for p = 487. Among n <= 2000 the patch
    # changes the tables of these six n only. The every-k check finds six
    # failures, at 1461 = 3 * 487 and its reversal 1641 = 3 * 547; a window
    # k <= 8 finds none.
    changed = (479, 974, 1336, 1461, 1641, 1948)
    order_at = procedure.repunit_order
    monkeypatch.setattr(
        procedure, "repunit_order",
        lambda p, alpha, L: order_at(p, 1, L) * p if alpha == 2 else order_at(p, alpha, L),
    )
    failed = {n: sorted(f["k"] for f in compare_procedure_oracle(n).failures) for n in changed}
    lattice_ks = [22113, 12095811, 6616408617]
    assert failed == {479: [], 974: [], 1336: [], 1461: lattice_ks, 1641: lattice_ks, 1948: []}
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


def _case_ii_allows_x_0(monkeypatch):
    # set after _CASE is built, so only the cells' pairs, and the columns, change
    monkeypatch.setitem(procedure._INTERVAL, CaseLabel.II, (0, 1))


def _signed_sum_skips_last_row(monkeypatch):
    decide = procedure.ProcedureResult._decide
    monkeypatch.setattr(procedure.ProcedureResult, "_decide",
                        lambda self, k: decide(replace(self, table=self.table[:-1]), k))


def _sum_walk_drops_largest_entry(monkeypatch):
    taken = procedure._taken_entries
    monkeypatch.setattr(procedure, "_taken_entries",
                        lambda levels, reach: taken(tuple((s, us[:-1]) for s, us in levels), reach))


# Mutants of the procedure core: per name, the patch, the check that kills it,
# a witness n, and the (k, kind) of each failure the check reports there.
MUTANTS = {
    "case ii allows x in [0, 1]": (
        _case_ii_allows_x_0, verify_disjointness, 13, [(1, "lattice scan"), (3, "lattice scan")]),
    "the signed sum skips its last row": (
        _signed_sum_skips_last_row, compare_procedure_oracle, 1461,
        [(k, None) for k in (12095811, 5890659957, 6616408617, 2868751399059, 3222190996479,
                             1569207015285273)]),
    # At 255 the row of 23 loses its taken entry 23, so its h1 = 22 goes unread.
    "the sum walk drops a row's largest entry": (
        _sum_walk_drops_largest_entry, compare_procedure_oracle, 255, [(16, None), (48, None), (144, None)]),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_mutant_fails_its_check_at_its_witness(monkeypatch, mutant):
    patch, check, n, failures = MUTANTS[mutant]
    assert check(n).failed == 0
    patch(monkeypatch)
    assert [(f["k"], f.get("kind")) for f in check(n).failures] == failures


def test_verify_lemmas_small_grid():
    rep = verify_lemmas(p_max=20, alpha_max=2, k_max=10, L_max=2)
    assert rep.failed == 0
    assert rep.checked > 0 and rep.skipped == 0


def test_enumerate_examples():
    assert enumerate_vpals(17) == []
    assert enumerate_vpals(18) == [18]
    assert enumerate_vpals(100) == [18, 81]


def test_enumerate_is_budget_insensitive():
    generous = enumerate_vpals(2000)
    tight = enumerate_vpals(2000, Budget(seconds=5.0))
    assert generous == tight


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
    with pytest.raises(BudgetExhausted):  # the bare enumeration records nothing
        enumerate_vpals(100)


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
