import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vpal import procedure
from vpal.digits import reverse_digits
from vpal.factor import Budget, BudgetExhausted, factorize
from vpal.oracle import corpus, oracle_is_vpal_concat
from vpal.order import repunit_order, repunit_valuation
from vpal.procedure import (
    _INTERVAL,
    AmbiguousType,
    CaseLabel,
    ConstraintPair,
    CrucialPrime,
    InvalidInput,
    NotAVPalindrome,
    ProcedureResult,
    classify_case,
    constraint_entry,
    crucial_primes,
    lcm_closure,
    run_procedure,
    solve_characteristic,
    v_increment,
    v_increment_range,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_procedures.json").read_text())


# --- v_increment and its preimages -------------------------------------------


def test_v_increment_branch_values():
    # (2, 1): 2 on {0, 1}, then 1
    assert v_increment(2, 1, 0) == 2
    assert v_increment(2, 1, 1) == 2
    assert v_increment(2, 1, 5) == 1
    # odd p, delta 1: p, 2, 1
    assert v_increment(3, 1, 0) == 3
    assert v_increment(3, 1, 1) == 2
    assert v_increment(3, 1, 2) == 1
    # delta >= 2: p+delta, 1+delta, delta
    assert v_increment(3, 2, 0) == 5
    assert v_increment(3, 2, 1) == 3
    assert v_increment(3, 2, 5) == 2


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 9), st.integers(0, 30))
def test_v_increment_is_v_difference(p, delta, alpha):
    # the increment is v(p**(alpha+delta)) - v(p**alpha) with v(p)=p, v(p**a)=p+a
    v_pp = lambda a: 0 if a == 0 else p if a == 1 else p + a
    assert v_increment(p, delta, alpha) == v_pp(alpha + delta) - v_pp(alpha)


def test_v_increment_range_examples():
    assert v_increment_range(2, 1) == {2, 1}
    assert v_increment_range(7, 1) == {7, 2, 1}
    assert v_increment_range(3, 2) == {5, 3, 2}


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 8))
def test_v_increment_range_is_full_image(p, delta):
    r = v_increment_range(p, delta)
    assert r == {v_increment(p, delta, a) for a in range(0, 50)}
    assert len(r) == (2 if (p, delta) == (2, 1) else 3)


# --- case classification ------------------------------------------------------


def test_classify_case_examples():
    assert classify_case(2, 1, 2, 0) is CaseLabel.III
    assert classify_case(3, 2, 2, 2) is CaseLabel.VI
    assert classify_case(13, 1, 2, 0) is CaseLabel.II


def test_classify_case_full_table():
    # odd p, delta 1: preimages {0} / {1} / {2,3,...} for u = p / 2 / 1
    expect = {
        (7, 0): CaseLabel.I,   # {0}, mu=0
        (7, 1): CaseLabel.VII,
        (7, 2): CaseLabel.VII,
        (2, 0): CaseLabel.II,  # {1}, mu=0
        (2, 1): CaseLabel.I,
        (2, 2): CaseLabel.VII,
        (1, 0): CaseLabel.V,   # {2,3,...}
        (1, 1): CaseLabel.IV,
        (1, 2): CaseLabel.VI,
        (1, 7): CaseLabel.VI,
    }
    for (u, mu), label in expect.items():
        assert classify_case(7, 1, u, mu) is label, (u, mu)
    # (2, 1): u=2 has preimage {0,1}
    assert classify_case(2, 1, 2, 0) is CaseLabel.III
    assert classify_case(2, 1, 2, 1) is CaseLabel.I
    assert classify_case(2, 1, 2, 2) is CaseLabel.VII
    assert classify_case(2, 1, 1, 0) is CaseLabel.V


def test_classify_case_rejects_impossible_u():
    with pytest.raises(ValueError):
        classify_case(7, 1, 5, 0)


@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(1, 6), st.integers(0, 6))
def test_exactly_one_case_holds(p, delta, mu):
    for u in v_increment_range(p, delta):
        label = classify_case(p, delta, u, mu)
        assert label in CaseLabel


# --- constraint pairs ---------------------------------------------------------


def test_s_membership():
    pair = ConstraintPair((3, 15), (39,))
    assert pair.accepts(15)
    assert not pair.accepts(39)
    assert not pair.accepts(5)
    assert not ConstraintPair((), (1,)).accepts(123)  # 1 divides everything
    assert ConstraintPair((), ()).accepts(123)  # vacuous


def test_constraint_pair_exact_counts():
    # members of S({6}, {4, 9}) in [1, 36]: multiples of 6 minus those div by 4 or 9
    pair = ConstraintPair((6,), (4, 9))
    scan = [x for x in range(1, math.lcm(6, 4, 9) + 1) if pair.accepts(x)]
    assert pair.first_member() == scan[0]
    empty = ConstraintPair((3,), (3,))
    assert empty.is_empty() and empty.first_member() is None


def test_pullback_and_canonical_examples():
    assert ConstraintPair((6,), (4, 9)).pullback(2) == ConstraintPair((3,), (2, 9))
    assert ConstraintPair((2, 3), (4, 12, 9)).canonical() == (6, frozenset({12, 18}))
    assert ConstraintPair((3,), (3,)).canonical() is None
    assert ConstraintPair((), (4,)).pullback(4).canonical() is None


# Every element divides 720, so the membership windows below stay at most 1440.
_DIVISORS_720 = [d for d in range(1, 721) if 720 % d == 0]
_pairs = st.builds(
    ConstraintPair,
    st.sets(st.sampled_from(_DIVISORS_720), max_size=3),
    st.sets(st.sampled_from(_DIVISORS_720), max_size=3),
)


@st.composite
def _pair_pairs(draw):
    """Two pairs; half the time the second is a syntactic variant of the same set."""
    first = draw(_pairs)
    if draw(st.booleans()):
        return first, draw(_pairs)
    a0 = math.lcm(*first.A)
    divisors = [d for d in _DIVISORS_720 if a0 % d == 0]
    A = first.A | draw(st.sets(st.sampled_from(divisors), max_size=2))
    B = {math.lcm(a0, b) if draw(st.booleans()) else b for b in first.B}
    for b in first.B:
        B |= draw(st.sets(st.sampled_from([m for m in _DIVISORS_720 if m % b == 0]), max_size=1))
    return first, ConstraintPair(A, B)


def _members(pair, window):
    return frozenset(x for x in range(1, window + 1) if pair.accepts(x))


@given(_pair_pairs())
@settings(max_examples=300, deadline=None)
def test_canonical_form_decides_set_equality(pairs):
    # both sets have period dividing the lcm of all elements, so the window decides
    p, q = pairs
    window = 2 * math.lcm(*(p.A | p.B | q.A | q.B))
    assert (p.canonical() == q.canonical()) == (_members(p, window) == _members(q, window))
    members = sorted(_members(p, window))
    assert (p.canonical() is None) == (not members)
    assert p.canonical() is None or p.canonical()[0] == members[0]


@given(_pairs, st.integers(1, 1000))
@settings(max_examples=300, deadline=None)
def test_pullback_accepts_j_exactly_when_pair_accepts_kj(pair, k):
    # the pullback's elements divide the pair's, so j over two periods covers every j
    back = pair.pullback(k)
    window = 2 * math.lcm(*(pair.A | pair.B))
    assert all(back.accepts(j) == pair.accepts(k * j) for j in range(1, window + 1))


def test_constraint_entries_by_case():
    # away from 2 and 5 the entries use the two entry orders
    assert constraint_entry(13, CaseLabel.II, 2) == ConstraintPair((3,), (39,))
    assert constraint_entry(13, CaseLabel.I, 2) == ConstraintPair((), (3,))
    assert constraint_entry(13, CaseLabel.III, 2) == ConstraintPair((), (39,))
    assert constraint_entry(13, CaseLabel.IV, 2) == ConstraintPair((3,), ())
    assert constraint_entry(13, CaseLabel.V, 2) == ConstraintPair((39,), ())
    # p in {2, 5}: no orders involved
    for label in (CaseLabel.I, CaseLabel.III, CaseLabel.VI):
        assert constraint_entry(2, label, 9) == ConstraintPair()
        assert constraint_entry(5, label, 9) == ConstraintPair()
    for label in (CaseLabel.II, CaseLabel.IV, CaseLabel.V, CaseLabel.VII):
        assert constraint_entry(2, label, 9) == ConstraintPair((), (1,))
        assert constraint_entry(5, label, 9) == ConstraintPair((), (1,))
    # any p: vi is unconstrained, vii accepts nothing
    assert constraint_entry(13, CaseLabel.VI, 2) == ConstraintPair()
    assert constraint_entry(13, CaseLabel.VII, 2) == ConstraintPair((), (1,))


def test_each_cell_accepts_exactly_the_k_its_entry_holds_at():
    # From the definition: at k copies of the analyzed number, the exponent of
    # p at the smaller side is mu + v_p(R(k, L)), and the cell with entry u
    # must accept k exactly when that exponent gives the v-increment u.
    checks = 0
    for n in corpus(500):
        for copies in (1, 2):
            r = run_procedure(n, copies=copies)
            for cp, row in zip(r.crucial, r.rows):
                for cell in row:
                    for k in range(1, 61):
                        x = repunit_valuation(cp.p, k, r.digit_len)
                        held = v_increment(cp.p, abs(cp.delta), cp.mu + x) == cell.entry
                        assert cell.pair.accepts(k) == held, (n, copies, cp.p, cell, k)
                        checks += 1
    assert checks == 146_160


# --- crucial primes and the characteristic equation ---------------------------


def test_crucial_primes_examples():
    assert [(c.p, c.a, c.b, c.delta, c.mu) for c in crucial_primes(18)] == [
        (2, 1, 0, 1, 0),
        (3, 2, 4, -2, 2),
    ]
    assert [(c.p, c.a, c.b, c.delta, c.mu) for c in crucial_primes(12)] == [
        (2, 2, 0, 2, 0),
        (7, 0, 1, -1, 0),
    ]
    assert [(c.p, c.a, c.b, c.delta, c.mu) for c in crucial_primes(13)] == [
        (13, 1, 0, 1, 0),
        (31, 0, 1, -1, 0),
    ]


def test_crucial_primes_rejects_out_of_domain():
    with pytest.raises(InvalidInput):
        crucial_primes(20)
    with pytest.raises(InvalidInput):
        crucial_primes(22)
    with pytest.raises(InvalidInput):
        crucial_primes(7)  # single digit: equals its own reversal
    with pytest.raises(ValueError):
        crucial_primes(0)


def test_solve_characteristic_examples():
    assert solve_characteristic(crucial_primes(18)) == (((2, 2),), ({2: 0b1}, {2: 0b1}))
    assert solve_characteristic(crucial_primes(13)).solutions == ((1, 1), (2, 2))
    assert solve_characteristic(crucial_primes(13)).entry_masks == ({1: 0b01, 2: 0b10},) * 2
    # a single crucial prime can never balance
    assert solve_characteristic((CrucialPrime(3, 2, 0),)) == ((), ({},))


def test_solutions_satisfy_signed_sum_and_are_sorted():
    for n in (18, 13, 112, 132, 1234):
        crucial = crucial_primes(n)
        sols = solve_characteristic(crucial).solutions
        assert list(sols) == sorted(sols)
        for u in sols:
            assert sum((1 if c.delta > 0 else -1) * x for c, x in zip(crucial, u)) == 0
            for c, x in zip(crucial, u):
                assert x in v_increment_range(c.p, abs(c.delta))


def _brute_force_solutions(crucial):
    # the literal definition: every increment vector, kept when its signed sum is zero
    signs = [1 if cp.delta > 0 else -1 for cp in crucial]
    ranges = [sorted(v_increment_range(cp.p, abs(cp.delta))) for cp in crucial]
    return tuple(u for u in itertools.product(*ranges) if sum(s * x for s, x in zip(signs, u)) == 0)


@given(
    st.lists(
        st.tuples(
            st.sampled_from([2, 3, 5, 7, 11, 13, 1_000_003, 1_000_033, 1_000_037, 1_000_039]),
            st.integers(-4, 4).filter(bool),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_solve_characteristic_matches_brute_force(primes_and_deltas):
    crucial = tuple(CrucialPrime(p, max(d, 0), max(-d, 0)) for p, d in primes_and_deltas)
    solutions, entry_masks = solve_characteristic(crucial)
    assert solutions == _brute_force_solutions(crucial)
    # per prime, each entry in order of first appearance with the mask of the
    # solutions taking it
    for i, masks in enumerate(entry_masks):
        expected = {}
        for l, sol in enumerate(solutions):
            expected[sol[i]] = expected.get(sol[i], 0) | 1 << l
        assert list(masks.items()) == list(expected.items())


# 2 and the 23 primes from 29 on, each with delta 1: entries in {1, 2} below 29
_SMALL = [2] + [p for p in range(29, 200) if all(p % d for d in range(2, p))][:23]


def test_solve_characteristic_one_signed_is_empty():
    # 28 crucial primes (2 * 3^27 vectors), every delta positive: no sum can be zero
    crucial = tuple(CrucialPrime(p, 1, 0) for p in _SMALL) + tuple(
        CrucialPrime(p, 4, 1) for p in (1_000_003, 1_000_033, 1_000_037, 1_000_039)
    )
    assert solve_characteristic(crucial).solutions == ()


def test_solve_characteristic_closed_form_at_25_primes():
    # 24 entries in {1, 2, p >= 29} balance q = 1000003 with delta -24, whose entry is
    # 24, 25 or q + 24; the 24 sum to at most 1753 and 29 > 25, so the solutions are
    # all ones against 24 and a single 2 against 25.
    crucial = tuple(CrucialPrime(p, 1, 0) for p in _SMALL) + (CrucialPrime(1_000_003, 0, 24),)
    expected = sorted(
        [(1,) * 24 + (24,)] + [(1,) * j + (2,) + (1,) * (23 - j) + (25,) for j in range(24)]
    )
    start = time.perf_counter()
    assert solve_characteristic(crucial).solutions == tuple(expected)
    assert time.perf_counter() - start < 1.0  # the product has 2 * 3^24 vectors


# --- full runs against frozen traces ------------------------------------------


@pytest.mark.parametrize("n", [18, 12, 13])
def test_run_procedure_matches_golden_trace(n):
    assert run_procedure(n).to_dict() == GOLDEN[str(n)]


def test_run_procedure_18():
    r = run_procedure(18)
    assert r.solutions == ((2, 2),)
    assert r.case_table == ((CaseLabel.III,), (CaseLabel.VI,))
    assert r.columns == (ConstraintPair(),)
    assert r.omega == 1 and r.first_member() == 1 and r.minimal_period() == 1
    assert all(r.accepts(k) for k in range(1, 30))
    assert r.type_of(1) == (2, 2) and r.type_of(7) == (2, 2)


def test_run_procedure_12():
    r = run_procedure(12)
    assert r.solutions == ((2, 2),)
    assert r.case_table == ((CaseLabel.V,), (CaseLabel.II,))
    assert r.first_member() is None
    assert not any(r.accepts(k) for k in range(1, 50))
    with pytest.raises(NotAVPalindrome):
        r.type_of(3)


def test_run_procedure_13():
    r = run_procedure(13)
    assert r.solutions == ((1, 1), (2, 2))
    assert r.columns[1] == ConstraintPair((3, 15), (39, 465))
    assert r.first_member() == 15
    assert r.type_of(15) == (2, 2)
    assert _nondegenerate(r) == ((1, 1), (2, 2))
    assert r.accepts(15) and not r.accepts(14)


def _nondegenerate(result):
    """The solutions whose column accepts some k."""
    return tuple(sol for sol, col in zip(result.solutions, result.columns) if not col.is_empty())


def test_nondegenerate_examples():
    assert _nondegenerate(run_procedure(18)) == ((2, 2),)
    assert _nondegenerate(run_procedure(12)) == ()


def test_minimal_period_divides_omega_and_preserves_pattern():
    for n in (12, 13, 112, 132):
        r = run_procedure(n)
        d = r.minimal_period()
        assert r.omega % d == 0
        assert all(r.accepts(k) == r.accepts(k + d) for k in range(1, r.omega + 1))


def test_minimal_period_of_13_is_omega():
    assert run_procedure(13).minimal_period() == 6045


def test_minimal_period_skips_an_empty_cell():
    # 1461 = 3 * 487 and 487**2 | 10**486 - 1, so at L = 4 the cell of 487 with
    # entry 2 is A = B = {243} and accepts nothing: only 243 * 49777 | k counts.
    assert run_procedure(1461).minimal_period() == 243 * 49777


def _scan_minimal_period(r: ProcedureResult) -> int:
    # least d | omega under which the pattern over [1, 2*omega] repeats
    w = r.omega
    pattern = bytes(r.accepts(k) for k in range(1, 2 * w + 1))
    return next(d for d in range(1, w + 1) if w % d == 0 and pattern[:w] == pattern[d:d + w])


def _scan_onset(accepts, omega: int) -> int | None:
    return next((k for k in range(1, omega + 1) if accepts(k)), None)


# Every element pool divides its modulus, so omega <= 7429 and the scans stay cheap.
_ELEMENT_POOLS = [[e for e in range(1, 61) if m % e == 0] for m in (5040, 3960, 6552, 2652, 7429)]


@st.composite
def _columns(draw):
    # arbitrary pairs, for the facts that hold of any pair
    pool = draw(st.sampled_from(_ELEMENT_POOLS))
    side = st.sets(st.sampled_from(pool), max_size=3)
    return tuple(ConstraintPair(draw(side), draw(side)) for _ in range(draw(st.integers(0, 4))))


@st.composite
def _tables(draw, rows=st.integers(2, 4), width=st.integers(1, 5)):
    # Rows for table_result: per made-up crucial prime, 2 and 5 among them,
    # entry orders h1 | h2 from one pool and at most 3 cells of random cases.
    pool = draw(st.sampled_from(_ELEMENT_POOLS))
    w = draw(width)
    table = []
    for _ in range(draw(rows)):
        h1 = draw(st.sampled_from(pool))
        h2 = draw(st.sampled_from([e for e in pool if e % h1 == 0]))
        labels = draw(st.lists(st.sampled_from(CaseLabel), min_size=1, max_size=3))
        entries = draw(st.lists(st.integers(0, len(labels) - 1), min_size=w, max_size=w))
        table.append((draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19])), h1, h2, labels, entries))
    return table


@given(rows=_tables(rows=st.just(1), width=st.integers(0, 4)), columns=_columns())
@settings(max_examples=150, deadline=None)
def test_closed_forms_match_scan_on_random_columns(table_result, rows, columns):
    r = table_result(*rows)
    assert r.minimal_period() == _scan_minimal_period(r)
    assert r.first_member() == _scan_onset(r.accepts, r.omega)
    omega = math.lcm(*(x for col in columns for x in col.A | col.B))
    for col in columns:
        assert col.first_member() == _scan_onset(col.accepts, omega)


@given(columns=_columns())
@settings(max_examples=150, deadline=None)
def test_lattice_carries_every_acceptance_pattern(columns):
    # k and D(k) = lcm{e : e | k} in the lattice are accepted by the same columns
    elements = [x for col in columns for x in col.A | col.B]
    pattern = lambda k: tuple(col.accepts(k) for col in columns)
    assert ({pattern(k) for k in range(1, math.lcm(*elements) + 1)}
            == {pattern(m) for m in lcm_closure(elements)})


def _assert_cells_decide_as_columns(r: ProcedureResult, k: int):
    accepting = [sol for sol, col in zip(r.solutions, r.columns) if col.accepts(k)]
    assert r.accepts(k) == bool(accepting), k
    if len(accepting) == 1:
        assert r.type_of(k) == accepting[0], k
    else:
        with pytest.raises(AmbiguousType if accepting else NotAVPalindrome):
            r.type_of(k)


@given(rows=_tables())
@settings(max_examples=60, deadline=None)
def test_cell_masks_decide_as_columns_on_random_tables(table_result, rows):
    r = table_result(*rows)
    assert r.omega == math.lcm(*(x for col in r.columns for x in col.A | col.B))
    for k in range(1, r.omega + 1):
        _assert_cells_decide_as_columns(r, k)
    assert r.minimal_period() == _scan_minimal_period(r)


def test_cell_masks_decide_as_columns_on_corpus():
    for n in corpus(2000):
        r = run_procedure(n)
        for k in range(1, 61):
            _assert_cells_decide_as_columns(r, k)


def test_closed_forms_match_scan_on_corpus():
    checked = 0
    for n in corpus(2000):
        r = run_procedure(n)
        if r.omega <= 20_000:
            assert r.minimal_period() == _scan_minimal_period(r), n
            assert r.first_member() == _scan_onset(r.accepts, r.omega), n
            checked += 1
    assert checked == 602


def test_shift_parametrization_copies():
    # copies=k reuses the crucial primes with shifted exponents; deltas survive
    base = run_procedure(18)
    shifted = run_procedure(18, copies=3)
    assert shifted.digit_len == 6
    assert [c.p for c in shifted.crucial] == [c.p for c in base.crucial]
    assert [c.delta for c in shifted.crucial] == [c.delta for c in base.crucial]
    assert shifted.solutions == base.solutions
    # 18(3) = 181818 = 2 * 3^3 * 7 * 13 * 37; exponents of 2 and 3 shift by ord(rho)
    assert [(c.p, c.a, c.b) for c in shifted.crucial] == [(2, 1, 0), (3, 3, 5)]


@pytest.mark.parametrize(
    "n, copies",
    [(5078732016940072, 1), (7955605587183862, 3), (123456789012345678901234567, 1)],
)
def test_large_inputs_finish_within_an_iteration_budget(n, copies):
    # Entry orders at primes of 16 to 23 digits factor only p - 1.
    result = run_procedure(n, copies=copies, budget=Budget(seconds=1e9, iterations=10**6))
    assert result.omega % result.minimal_period() == 0


def test_entry_orders_spend_the_callers_budget():
    n = 390003068004863  # prime; n - 1 = 2 * 13 * 3000017 * 5000011 needs rho
    with pytest.raises(BudgetExhausted) as exc:
        run_procedure(n, budget=Budget(seconds=1e9, iterations=1))
    assert (n - 1) % exc.value.cofactor == 0
    # The failure is not cached: a larger budget finds h(1) = n - 1, h(2) = n * (n - 1).
    result = run_procedure(n, budget=Budget(seconds=1e9, iterations=10**6))
    assert result.constraint_table[-1][1] == ConstraintPair((n - 1,), (n * (n - 1),))


def test_a_budget_bounds_the_sum_of_a_calls_factorizations():
    # factorize(n) spends 13,054 rho iterations and factorize(r(n)) 894: each
    # fits 13,500, their sum does not.
    n = 860334011495401
    budget = Budget(seconds=1e9, iterations=13_500)
    factorize(n, budget)
    factorize(reverse_digits(n), budget)
    with pytest.raises(BudgetExhausted):
        run_procedure(n, budget=budget)
    with pytest.raises(BudgetExhausted):
        oracle_is_vpal_concat(n, 1, budget)


def _per_cell_tables(r: ProcedureResult):
    # The tables built one cell at a time, each column the union down its cells.
    case_table = tuple(
        tuple(classify_case(cp.p, abs(cp.delta), sol[i], cp.mu) for sol in r.solutions)
        for i, cp in enumerate(r.crucial)
    )
    constraint_table = tuple(
        tuple(constraint_entry(cp.p, label, r.digit_len) for label in row)
        for cp, row in zip(r.crucial, case_table)
    )
    columns = tuple(
        ConstraintPair(
            frozenset().union(*(row[l].A for row in constraint_table)),
            frozenset().union(*(row[l].B for row in constraint_table)),
        )
        for l in range(len(r.solutions))
    )
    omega = math.lcm(*(x for col in columns for x in col.A | col.B))
    return case_table, constraint_table, columns, omega


def _assert_tables_match_per_cell(n: int, copies: int, budget: Budget | None = None):
    r = run_procedure(n, copies=copies, budget=budget)
    expected = _per_cell_tables(r)
    assert (r.case_table, r.constraint_table, r.columns, r.omega) == expected, (n, copies)


@pytest.mark.parametrize(
    "n, copies",
    [(5078732016940072, 1), (7955605587183862, 3), (123456789012345678901234567, 1)],
)
def test_tables_match_per_cell_reference_on_large_inputs(n, copies):
    _assert_tables_match_per_cell(n, copies, Budget(seconds=1e9, iterations=10**6))


def test_tables_match_per_cell_reference_on_corpus():
    for n in corpus(500):
        for copies in (1, 2, 3):
            _assert_tables_match_per_cell(n, copies)


@given(
    st.integers(10**11, 10**16 - 1).filter(lambda n: n % 10 and str(n) != str(n)[::-1]),
    st.sampled_from([1, 2, 3]),
)
@settings(max_examples=100, deadline=None)
def test_tables_match_per_cell_reference_on_random_large_n(n, copies):
    _assert_tables_match_per_cell(n, copies, Budget(seconds=1e9, iterations=10**6))


def test_tables_classify_each_distinct_entry_once(monkeypatch):
    calls = {"classify_case": 0, "constraint_entry": 0}
    for name in calls:
        def counted(*args, _real=getattr(procedure, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(procedure, name, counted)
    r = run_procedure(7955605587183862, copies=3)
    distinct = sum(len({sol[i] for sol in r.solutions}) for i in range(len(r.crucial)))
    assert calls == {"classify_case": distinct, "constraint_entry": distinct}
    # 8 calls each, where a per-cell build makes 4 primes * 6 solutions = 24
    assert distinct <= 3 * len(r.crucial) < len(r.crucial) * len(r.solutions)


def test_ambiguous_type_assertion_fires_on_bad_columns(table_result):
    # entry orders 3 | 15 at one prime: the cells of cases iv (3 | k) and v
    # (15 | k) both accept 15
    rigged = table_result((7, 3, 15, (CaseLabel.IV, CaseLabel.V), (0, 1)))
    with pytest.raises(AmbiguousType):
        rigged.type_of(15)


def test_case_vii_never_accepts():
    # a rigged mu makes case vii appear; its column must accept nothing
    label = classify_case(7, 1, 7, 3)  # preimage {0} with mu >= 1
    assert label is CaseLabel.VII
    pair = constraint_entry(7, label, 1)
    assert all(not pair.accepts(k) for k in range(1, 100))


def test_to_dict_round_trips():
    # The digest pins the bytes of all 5,046 documents, one newline after each.
    digest = hashlib.sha256()
    for n in corpus(2000):
        for copies in (1, 2, 3):
            r = run_procedure(n, copies=copies)
            text = r.to_json()
            assert text == json.dumps(r.to_dict(), indent=2), (n, copies)
            # A mask swap between two cells with equal pairs changes no byte,
            # so the rows are checked against the solutions here.
            for i, (cp, row) in enumerate(zip(r.crucial, r.rows)):
                us = [sol[i] for sol in r.solutions]
                assert [cell.entry for cell in row] == list(dict.fromkeys(us)), (n, copies, i)
                for cell in row:
                    mask = sum(1 << l for l, u in enumerate(us) if u == cell.entry)
                    assert cell.mask == mask, (n, copies, i)
                # The row's code thresholds: the entry order h(alpha) where a
                # cell reads it (A holds h(lo), B holds h(hi + 1); case vii and
                # p in {2, 5} read none), else 1 for h1 and h1 for h2. So
                # h1 | h2, and each above 1 is an element, which minimal_period's
                # lookup needs.
                reads = set()
                if cp.p not in (2, 5):
                    for cell in row:
                        lo, hi = _INTERVAL.get(cell.label, (0, 2))
                        reads |= {lo, hi + 1} & {1, 2}
                h = {alpha: repunit_order(cp.p, alpha, r.digit_len) for alpha in reads}
                h1, h2, _ = r._code_table[i]
                assert (h1, h2) == (h.get(1, 1), h.get(2, h.get(1, 1))), (n, copies, i)
                assert h2 % h1 == 0 and {h1, h2} - {1} <= r.elements, (n, copies, i)
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == "f9230dc12d1cfcd8ab92b1629d8e09cceced236a584e618f7018bb1d0091840f"


# (n, copies) of 12 to 16 digits: one without solutions, then 1, 5, 20 and 21
# solutions, then the widest table under 20 ms per digit length and copies.
_WIDE_ITEMS = [
    (107240193705, 1), (213085777972, 1), (547718139057, 3), (396871711257, 3),
    (535749848604, 3), (292277430733, 1), (695589112183, 2), (856668031023, 3),
    (2653267845325, 1), (4556715502781, 2), (8418828846635, 3), (18575935096125, 1),
    (61718724236119, 2), (51435861169833, 3), (823795783696145, 1), (636734409392165, 2),
    (388781612269968, 3), (6600137782187808, 1), (1564732921789476, 2), (5818274800416984, 3),
]


def test_to_json_bytes_at_12_to_16_digits():
    # The digest pins the bytes of all 20 documents, one newline after each.
    digest = hashlib.sha256()
    for n, copies in _WIDE_ITEMS:
        digest.update(run_procedure(n, copies=copies).to_json().encode() + b"\n")
    assert digest.hexdigest() == "31bda5ce3a69ef71e7cc67f51636d8f513de381b20016454d856d5ab3ce68da6"


def test_accepts_reads_the_rows_without_building_the_tables():
    r = run_procedure(396871711257, copies=3)
    assert len(r.solutions) == 20 and all(len(row) <= 3 for row in r.rows)
    for k in range(1, 9):
        r.accepts(k)
    assert "case_table" not in r.__dict__ and "constraint_table" not in r.__dict__


def test_rows_hold_each_entry_once_with_its_solution_mask():
    r = run_procedure(49)
    assert r.solutions == ((1, 2, 1), (1, 3, 2), (2, 3, 1))
    assert [(cell.entry, cell.label, cell.mask) for cell in r.rows[0]] == [
        (1, CaseLabel.V, 0b011), (2, CaseLabel.III, 0b100)
    ]


def test_json_matches_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(__file__).parent.parent / "docs" / "procedure-result.schema.json").read_text()
    )
    for n in (18, 12, 13):
        jsonschema.validate(run_procedure(n).to_dict(), schema)
