"""Named mutants of the procedure core, the oracle's rows and the repunit
valuation they share, each pinned by the check that kills it: at its witness n
the check passes, and under the mutant's patch it reports exactly the listed
failures. The mirror check, which needs no oracle, is pinned here too."""

from dataclasses import replace
from functools import partial

import pytest

from vpal import oracle, order, procedure
from vpal.digits import reverse_digits
from vpal.oracle import compare_procedure_oracle, corpus, verify_disjointness, verify_lemmas
from vpal.procedure import CaseLabel, run_procedure


def _case_ii_allows_x_0(monkeypatch):
    # set after _CASE is built, so only the cells' pairs, and the columns, change
    monkeypatch.setitem(procedure._INTERVAL, CaseLabel.II, (0, 1))


def _signed_sum_skips_last_row(monkeypatch):
    decide = procedure.ProcedureResult._decide
    monkeypatch.setattr(procedure.ProcedureResult, "_decide",
                        lambda self, k: decide(replace(self, table=self.table[:-1]), k))


def _sum_walk_drops_largest_entry(monkeypatch):
    # the sum graph is built from levels without their largest entry
    level = procedure._level
    monkeypatch.setattr(procedure, "_level", lambda cp: (lambda s, us: (s, us[:-1]))(*level(cp)))


def _lift_ignores_wieferich_primes(monkeypatch):
    # h(2) = h(1) * p, wrong where p**2 divides repunit(h(1), L), as 487**2
    # divides 10**486 - 1
    order_at = procedure.repunit_order
    monkeypatch.setattr(procedure, "repunit_order",
                        lambda p, alpha, L: order_at(p, 1, L) * p if alpha == 2 else order_at(p, alpha, L))


def _lister_drops_last_solution(monkeypatch):
    walk = procedure._SumGraph.__iter__
    monkeypatch.setattr(procedure._SumGraph, "__iter__", lambda graph: iter(tuple(walk(graph))[:-1]))


def _increment_1_1_is_1(monkeypatch):
    # v_increment(p, 1, 1) = 1, where v of p**1 -> p**2 grows by 2
    increments = procedure._increments_at
    monkeypatch.setattr(procedure, "_increments_at",
                        lambda p, delta: (p, 1, 1) if delta == 1 else increments(p, delta))


def _orders_at_digit_length_1(monkeypatch):
    order_at = procedure.repunit_order
    monkeypatch.setattr(procedure, "repunit_order", lambda p, alpha, L: order_at(p, alpha, 1))


def _copies_shift_mu_by_0(monkeypatch):
    monkeypatch.setattr(procedure, "repunit_valuation", lambda p, k, L: 0)


def _merge_drops_primes_only_the_reversal_has(monkeypatch):
    crucial = procedure.crucial_primes
    monkeypatch.setattr(procedure, "crucial_primes", lambda n: tuple(cp for cp in crucial(n) if cp.a > 0))


def _oracle_t2_is_t1_times_p(monkeypatch):
    # x_d dropped from t2, wrong where p**2 divides repunit(t1, L)
    rows = oracle._oracle_rows
    monkeypatch.setattr(oracle, "_oracle_rows", lambda terms, L: tuple(
        (p, f, (t[0], t[0] * p) if t else t) for p, f, t in rows(terms, L)))


def _valuation_2_read_as_1(monkeypatch):
    # a fault shared by the procedure, the oracle's rows and the entry orders
    valuation = order.repunit_valuation

    def wrong(p, k, block_len=1):
        x = valuation(p, k, block_len)
        return 1 if x == 2 else x

    for module in (order, oracle, procedure):
        monkeypatch.setattr(module, "repunit_valuation", wrong)
    # entry orders cached under the true valuation would hide the fault
    order.repunit_order.cache_clear()


# Mutants of the procedure core, the oracle's rows and their shared valuation:
# per name, the patch, the check that kills it, a witness n, and the (k, kind)
# of each failure the check reports there.
MUTANTS = {
    "case ii allows x in [0, 1]": (
        _case_ii_allows_x_0, verify_disjointness, 13, [(1, "lattice scan"), (3, "lattice scan")]),
    "the signed sum skips its last row": (
        _signed_sum_skips_last_row, compare_procedure_oracle, 1461,
        [(12095811, "every j")]),
    # At 255 only the solution (3, 2, 2, 1) is left: the row of 23 takes only 1,
    # so its h1 = 22 goes unread (k = 16), and the types at 176 and 68816 are gone.
    "the sum walk drops a row's largest entry": (
        _sum_walk_drops_largest_entry, compare_procedure_oracle, 255,
        [(16, "every j"), (176, "every j"), (68816, "every j")]),
    # 1461 = 3 * 487: the lift moves 487's h2 off the oracle's t2.
    "h(2) = h(1) * p (the Wieferich lift)": (
        _lift_ignores_wieferich_primes, compare_procedure_oracle, 1461,
        [(22113, "every j"), (12095811, "every j")]),
    # At 13 the dropped solution is the type the table gives at k = 15.
    "the lister drops its last solution": (
        _lister_drops_last_solution, compare_procedure_oracle, 13, [(15, "every j")]),
    "v_increment(p, 1, 1) = 1": (
        _increment_1_1_is_1, compare_procedure_oracle, 13, [(195, "every j"), (465, "every j")]),
    "entry orders taken at digit length 1": (
        _orders_at_digit_length_1, compare_procedure_oracle, 13, [(15, "every j"), (6045, "every j")]),
    # Only a concatenated base shifts mu, so the check runs at copies 2.
    "copies shift mu by 0": (
        _copies_shift_mu_by_0, partial(compare_procedure_oracle, copies=2), 103, [(5117, "every j")]),
    # 48 = 2**4 * 3 and 84 = 2**2 * 3 * 7, so the row of 7 goes.
    "the merge drops the primes only r(n) has": (
        _merge_drops_primes_only_the_reversal_has, compare_procedure_oracle, 48, [(3, "every j")]),
    # 1461 = 3 * 487: the oracle's t2 of 487 moves off the procedure's h2.
    "the oracle's t2 = t1 * p": (
        _oracle_t2_is_t1_times_p, compare_procedure_oracle, 1461,
        [(22113, "every j"), (12095811, "every j")]),
    # v_3(repunit(9)) = 2, so the rescaled order at k = 9 reads the entry
    # order of 3**(alpha + 1), not 3**(alpha + 2).
    "repunit_valuation reads a valuation of 2 as 1": (
        _valuation_2_read_as_1, partial(verify_lemmas, alpha_max=2, k_max=9, L_max=1), 3,
        [(9, "rescale"), (9, "rescale")]),
    # The oracle's rows read min(x_d, 2) from their own modular power, not from
    # repunit_valuation, so the fault moves only the procedure's h2 of 487
    # (487**2 divides repunit(486)); 1641, another witness, fails at the same k.
    "repunit_valuation reads a valuation of 2 as 1, against the oracle": (
        _valuation_2_read_as_1, compare_procedure_oracle, 1461,
        [(22113, "every j"), (12095811, "every j")]),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_mutant_fails_its_check_at_its_witness(monkeypatch, mutant):
    patch, check, n, failures = MUTANTS[mutant]
    assert check(n).failed == 0
    patch(monkeypatch)
    try:
        assert [(f["k"], f.get("kind")) for f in check(n).failures] == failures
    finally:
        # entry orders cached under a patched repunit_valuation must not outlive it
        monkeypatch.undo()
        order.repunit_order.cache_clear()


def _facts(res, sign=1):
    """The crucial primes' (p, a, b), with a and b swapped and each t negated
    at sign -1, the rows' (h1, h2, t), the solutions and the digit length."""
    return ([(cp.p, *(cp.a, cp.b)[::sign]) for cp in res.crucial],
            [(h1, h2, tuple(None if e is None else sign * e for e in t)) for h1, h2, t in res.table],
            res.solutions, res.digit_len)


def _mirror_failures(ns, copies=(1, 2, 3)):
    """The (n, c) at which run_procedure(r(n), copies=c) is not run_procedure(n,
    copies=c) mirrored: each crucial prime's a and b swapped, each row's h1 and
    h2 kept and its t negated, the same solutions and digit length. This holds
    because r(n)(k) = r(n(k))."""
    return [(n, c) for n in ns for c in copies
            if _facts(run_procedure(n, copies=c), -1) != _facts(run_procedure(reverse_digits(n), copies=c))]


def test_the_reversal_mirrors_the_procedure():
    assert _mirror_failures(corpus(2000)) == []


def test_the_mirror_check_kills_the_merge_mutant(monkeypatch):
    # 48 = 2**4 * 3 loses the row of 7 that 84 = 2**2 * 3 * 7 keeps.
    assert _mirror_failures([48]) == []
    _merge_drops_primes_only_the_reversal_has(monkeypatch)
    assert _mirror_failures([48]) == [(48, 1), (48, 2), (48, 3)]
