import hashlib
import importlib.util
import itertools
import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import vpal
from vpal import factor, oracle, order, procedure
from vpal.digits import repunit, reverse_digits
from vpal.factor import Budget, BudgetExhausted, factorize, valuation
from vpal.oracle import corpus, oracle_is_vpal_concat
from vpal.order import repunit_order, repunit_valuation
from vpal.procedure import (
    _INTERVAL,
    CaseLabel,
    ConstraintPair,
    CrucialPrime,
    InvalidInput,
    NotAVPalindrome,
    ProcedureResult,
    constraint_entry,
    crucial_primes,
    lcm_closure,
    run_procedure,
    solve_characteristic,
    v_increment,
)

from schema1 import rebuild

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_procedures.json").read_text())


# --- v_increment and its preimages -------------------------------------------


def v_increment_range(p: int, delta: int) -> frozenset[int]:
    """All values v_increment(p, delta, .) attains; size 2 for (2, 1), else 3."""
    return frozenset(v_increment(p, delta, alpha) for alpha in (0, 1, 2))


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

_LABEL = {interval: label for label, interval in _INTERVAL.items()}


def classify_case(p: int, delta_abs: int, u: int, mu: int) -> CaseLabel:
    """Which of the seven cases the quadruple falls into; exactly one always
    holds. The per-cell reference: the interval of x in {0, 1, 2} at which
    the entry u holds, mu capped at 2, past which nothing changes."""
    if mu < 0:
        raise ValueError(f"expected mu >= 0, got {mu}")
    xs = [x for x in (0, 1, 2) if v_increment(p, delta_abs, min(mu, 2) + x) == u]
    if xs:
        return _LABEL[xs[0], xs[-1]]
    if u not in v_increment_range(p, delta_abs):
        raise ValueError(f"{u} is not a possible v-increment for p={p}, delta={delta_abs}")
    return CaseLabel.VII


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
    assert empty.first_member() is None


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
            for cp, row in zip(r.crucial, r._cells()):
                for u, (_, A, B) in row.items():
                    pair = ConstraintPair(A, B)
                    for k in range(1, 61):
                        x = repunit_valuation(cp.p, k, r.digit_len)
                        held = v_increment(cp.p, abs(cp.delta), cp.mu + x) == u
                        assert pair.accepts(k) == held, (n, copies, cp.p, u, k)
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
    assert solve_characteristic(crucial_primes(18)) == ((2, 2),)
    assert solve_characteristic(crucial_primes(13)) == ((1, 1), (2, 2))
    # a single crucial prime can never balance, and its graph counts no path
    assert solve_characteristic((CrucialPrime(3, 2, 0),)) == ()
    assert procedure._SumGraph((CrucialPrime(3, 2, 0),)).count() == 0


def test_solutions_satisfy_signed_sum_and_are_sorted():
    for n in (18, 13, 112, 132, 1234):
        crucial = crucial_primes(n)
        sols = solve_characteristic(crucial)
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


# Up to 8 crucial primes as (p, delta): a list of one, or of one sign, has no
# solution, and so has the first example.
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
@example([(3, 2)])
@example([(3, 1), (7, -1)])
@settings(max_examples=200, deadline=None)
def test_solve_characteristic_matches_brute_force(primes_and_deltas):
    crucial = tuple(CrucialPrime(p, max(d, 0), max(-d, 0)) for p, d in primes_and_deltas)
    solutions = _brute_force_solutions(crucial)
    graph = procedure._SumGraph(crucial)
    assert solve_characteristic(crucial) == tuple(graph) == solutions
    assert graph.count() == len(solutions)
    # The forward pass over sums keeps, per row, exactly the entries some
    # solution takes there; with no solution every row's set is empty.
    assert graph.taken == ([set(column) for column in zip(*solutions)] if solutions else [set()] * len(crucial))


# 2 and the 23 primes from 29 on, each with delta 1: entries in {1, 2} below 29
_SMALL = [2] + [p for p in range(29, 200) if all(p % d for d in range(2, p))][:23]


def test_solve_characteristic_one_signed_is_empty():
    # 28 crucial primes (2 * 3^27 vectors), every delta positive: no sum can be zero
    crucial = tuple(CrucialPrime(p, 1, 0) for p in _SMALL) + tuple(
        CrucialPrime(p, 4, 1) for p in (1_000_003, 1_000_033, 1_000_037, 1_000_039)
    )
    assert solve_characteristic(crucial) == ()
    assert procedure._SumGraph(crucial).count() == 0


def test_solve_characteristic_closed_form_at_25_primes():
    # 24 entries in {1, 2, p >= 29} balance q = 1000003 with delta -24, whose entry is
    # 24, 25 or q + 24; the 24 sum to at most 1753 and 29 > 25, so the solutions are
    # all ones against 24 and a single 2 against 25.
    crucial = tuple(CrucialPrime(p, 1, 0) for p in _SMALL) + (CrucialPrime(1_000_003, 0, 24),)
    expected = sorted(
        [(1,) * 24 + (24,)] + [(1,) * j + (2,) + (1,) * (23 - j) + (25,) for j in range(24)]
    )
    start = time.perf_counter()
    assert solve_characteristic(crucial) == tuple(expected)
    assert time.perf_counter() - start < 1.0  # the product has 2 * 3^24 vectors


# --- full runs against frozen traces ------------------------------------------


@pytest.mark.parametrize("n", [18, 12, 13])
def test_run_procedure_matches_golden_trace(n):
    assert rebuild(run_procedure(n).to_dict()) == GOLDEN[str(n)]


def test_run_procedure_18():
    r = run_procedure(18)
    assert r.solutions == ((2, 2),)
    assert [[cell["case"] for cell in row] for row in r.to_dict()["cells"]] == [["iii"], ["vi"]]
    assert r.columns == (ConstraintPair(),)
    assert r.omega == 1 and r.first_member() == 1 and r.minimal_period() == 1
    assert all(r.accepts(k) for k in range(1, 30))
    assert r.type_of(1) == (2, 2) and r.type_of(7) == (2, 2)


def test_run_procedure_12():
    r = run_procedure(12)
    assert r.solutions == ((2, 2),)
    assert [[cell["case"] for cell in row] for row in r.to_dict()["cells"]] == [["v"], ["ii"]]
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
    return tuple(sol for sol, col in zip(result.solutions, result.columns) if col.first_member() is not None)


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


def _reference_coprime_base(xs) -> set[int]:
    """Pairwise coprime integers > 1 over which every x in xs factors: split
    any two elements with a common factor g > 1 into g, a/g and b/g, and scan
    all pairs again after each split."""
    base = {x for x in xs if x > 1}
    pairs = lambda: ((a, b) for a, b in itertools.combinations(base, 2) if math.gcd(a, b) > 1)
    while pair := next(pairs(), None):
        a, b = pair
        g = math.gcd(a, b)
        base = base - {a, b} | {g, a // g, b // g} - {1}
    return base


# Products of a few small primes share factors often, so the refinement splits.
_smooth = st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=6).map(math.prod)


@given(st.lists(_smooth | st.integers(1, 10**6), max_size=8))
@settings(max_examples=150, deadline=None)
@example([12, 18, 8])
@example([4, 2, 2, 1])
def test_coprime_base_is_the_reference_refinement(xs):
    base = procedure._coprime_base(xs)
    assert base == _reference_coprime_base(xs)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
    assert min(base, default=2) > 1
    for x in xs:
        for b in base:
            while x % b == 0:
                x //= b
        assert x == 1


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
def _tables(draw):
    # Rows for table_result: 2 to 4 made-up crucial primes, 2 and 5 among
    # them, with mu <= 3, |delta| <= 3 and entry orders h1 | h2 from one pool.
    # The first two deltas have opposite signs, so that the rows can balance.
    pool = draw(st.sampled_from(_ELEMENT_POOLS))
    table = []
    for i in range(draw(st.integers(2, 4))):
        mu, delta = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        positive = i == 0 if i < 2 else draw(st.booleans())
        h1 = draw(st.sampled_from(pool))
        h2 = draw(st.sampled_from([e for e in pool if e % h1 == 0]))
        a, b = (mu + delta, mu) if positive else (mu, mu + delta)
        table.append((draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19])), a, b, h1, h2))
    return table


@given(rows=_tables(), columns=_columns())
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


def _assert_cells_decide_as_columns(r: ProcedureResult, k: int, rep: int | None = None):
    # rep, when given, is the materialized repunit R(k, L): the type of an
    # accepted k must then be the increments at its valuations.
    accepting = [sol for sol, col in zip(r.solutions, r.columns) if col.accepts(k)]
    assert r.accepts(k) == bool(accepting), k
    if accepting:
        assert len(accepting) == 1 and r.type_of(k) == accepting[0], k
        if rep is not None:
            assert r.type_of(k) == tuple(
                v_increment(cp.p, abs(cp.delta), min(cp.mu, 2) + min(valuation(cp.p, rep), 2))
                for cp in r.crucial
            ), k
    else:
        with pytest.raises(NotAVPalindrome):
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
    reps = {(k, L): repunit(k, L) for k in range(1, 61) for L in range(2, 5)}
    for n in corpus(2000):
        r = run_procedure(n)
        for k in range(1, 61):
            _assert_cells_decide_as_columns(r, k, reps[k, r.digit_len])


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
    assert rebuild(result.to_dict())["constraint_table"][-1][1] == {"A": [n - 1], "B": [n * (n - 1)]}


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
    # The tables built one cell at a time, each column the union down its
    # cells, with each pair from the definition rather than from the cases.
    def pair(cp, u, label):
        # The cell allows the x in {0, 1, 2} where its entry holds, and x >= alpha
        # iff h(alpha) | k; for p in {2, 5}, x = 0 at every k.
        xs = [x for x in (0, 1, 2) if v_increment(cp.p, abs(cp.delta), min(cp.mu, 2) + x) == u]
        if cp.p in (2, 5):
            expected = ConstraintPair((), () if 0 in xs else (1,))
        elif not xs:
            expected = ConstraintPair((), (1,))
        else:
            h = lambda alpha: repunit_order(cp.p, alpha, r.digit_len)
            expected = ConstraintPair((h(xs[0]),) if xs[0] else (), (h(xs[-1] + 1),) if xs[-1] < 2 else ())
        assert constraint_entry(cp.p, label, r.digit_len) == expected, (r.n, cp.p, u)
        return expected

    case_table = tuple(
        tuple(classify_case(cp.p, abs(cp.delta), sol[i], cp.mu) for sol in r.solutions)
        for i, cp in enumerate(r.crucial)
    )
    constraint_table = tuple(
        tuple(pair(cp, sol[i], label) for sol, label in zip(r.solutions, row))
        for i, (cp, row) in enumerate(zip(r.crucial, case_table))
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
    # The schema-1 tables, columns, omega, c and counts rebuilt from the
    # document, and the result's columns, omega and onset, as the per-cell
    # reference gives them.
    r = run_procedure(n, copies=copies, budget=budget)
    case_table, constraint_table, columns, omega = _per_cell_tables(r)
    firsts = [col.first_member() for col in columns]
    expected = {
        "case_table": [[label.value for label in row] for row in case_table],
        "constraint_table": [[{"A": sorted(pair.A), "B": sorted(pair.B)} for pair in row]
                             for row in constraint_table],
        "columns": [{"solution": list(sol), "A": sorted(col.A), "B": sorted(col.B), "first_member": f}
                    for sol, col, f in zip(r.solutions, columns, firsts)],
        "omega": omega,
        "c": min((f for f in firsts if f is not None), default=None),
        "nondegenerate": [list(sol) for sol, f in zip(r.solutions, firsts) if f is not None],
        "case_vii_count": sum(row.count(CaseLabel.VII) for row in case_table),
    }
    document = rebuild(r.to_dict())
    assert {key: document[key] for key in expected} == expected, (n, copies)
    assert (r.columns, r.omega, r.first_member()) == (columns, omega, expected["c"]), (n, copies)


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


def _unlisted(*args):
    raise AssertionError("listed the solutions")


def test_run_procedure_and_accepts_build_no_cell(monkeypatch):
    # The table holds the entry orders; no cell is paired, no solution is
    # listed, and each entry order read is computed once.
    calls = {"constraint_entry": [], "repunit_order": []}
    for name in calls:
        def counted(*args, _real=getattr(procedure, name), _name=name):
            calls[_name].append(args)
            return _real(*args)
        monkeypatch.setattr(procedure, name, counted)
    monkeypatch.setattr(procedure._SumGraph, "__iter__", _unlisted)
    r = run_procedure(7955605587183862, copies=3)
    for k in range(1, 9):
        r.accepts(k)
    with pytest.raises(NotAVPalindrome):
        r.type_of(1)
    assert r.type_of(1276442171468360427622484993435) == (2, 2, 2, 2)  # the least accepted k
    assert r.omega % r.minimal_period() == 0
    assert calls["constraint_entry"] == []
    orders = calls["repunit_order"]
    assert len(orders) == len(set(orders)) > 0
    for p, alpha, digit_len in orders:
        [i] = [i for i, cp in enumerate(r.crucial) if cp.p == p]
        assert digit_len == r.digit_len and r.table[i][alpha - 1] == repunit_order(p, alpha, digit_len)


def test_thirty_digits_decide_without_listing_five_million_solutions(monkeypatch):
    # 22 crucial primes and 5,396,157 solutions: the table reads reachable
    # sums only, no k up to 60 gives a v-palindrome (the oracle agrees at 1),
    # and the sum graph counts the solutions without listing them.
    monkeypatch.setattr(procedure._SumGraph, "__iter__", _unlisted)
    start = time.perf_counter()
    r = run_procedure(294350988072419291464119994383)
    assert not any(r.accepts(k) for k in range(1, 61))
    assert r._graph.count() == 5396157
    assert time.perf_counter() - start < 1.0
    assert len(r.crucial) == 22


def test_the_onset_and_the_period_list_no_solution(monkeypatch):
    # The least k of each type is a lattice point, so c and omega0 come from
    # one pass over the lattice, with the solutions never listed.
    monkeypatch.setattr(procedure._SumGraph, "__iter__", _unlisted)
    r = run_procedure(7955605587183862, copies=3)
    assert r.first_member() == 1276442171468360427622484993435
    assert r.omega % r.minimal_period() == 0


def _table_from_listed_solutions(r: ProcedureResult):
    # The table as the listed solutions give it: an entry order where the
    # entries at alpha - 1 and alpha differ and the column of solutions
    # takes one of them.
    table = []
    for i, cp in enumerate(r.crucial):
        taken = {sol[i] for sol in r.solutions}
        e = [v_increment(cp.p, abs(cp.delta), min(cp.mu, 2) + x) for x in (0, 1, 2)]
        if cp.p in (2, 5):
            e = [e[0]] * 3
        h = {alpha: repunit_order(cp.p, alpha, r.digit_len) for alpha in (1, 2)
             if e[alpha - 1] != e[alpha] and taken & {e[alpha - 1], e[alpha]}}
        s = 1 if cp.delta > 0 else -1
        table.append((h.get(1, 1), h.get(2, h.get(1, 1)), (s * e[0], s * e[1], None, s * e[2])))
    return tuple(table)


_BIGN = Path(__file__).parent.parent / "benchmarks" / "data" / "bign.txt"


@pytest.fixture(scope="module")
def bign_results():
    """run_procedure of every n of bign.txt at copies 1 and at its own copies."""
    items = [tuple(map(int, line.split()[:2])) for line in _BIGN.read_text().splitlines()]
    assert len(items) == 2000
    items = [(n, 1) for n, _ in items] + [(n, copies) for n, copies in items if copies > 1]
    return [run_procedure(n, copies=copies) for n, copies in items]


def test_table_reads_the_entries_the_listed_solutions_take(bign_results):
    results = [run_procedure(n, copies=copies) for n in corpus(600) for copies in (1, 2, 3)]
    for r in results + bign_results:
        assert r.table == _table_from_listed_solutions(r), (r.n, r.copies)


def test_column_first_members_match_the_lattice_pass(bign_results):
    # Two producers of a column's least member: the closed form lcm(A) that
    # columns give, and the least k of the column's type from the lattice pass,
    # which the document prints; c is the least of them. 400 results of 12 to
    # 16 digits, beyond the per-cell reference's n <= 2000.
    for r in bign_results[:400]:
        firsts = [col.first_member() for col in r.columns]
        assert [col["first_member"] for col in rebuild(r.to_dict())["columns"]] == firsts, (r.n, r.copies)
        assert r.first_member() == min((f for f in firsts if f is not None), default=None), (r.n, r.copies)


def _decide_by_rows(r: ProcedureResult, k: int) -> tuple[int, int]:
    """The reference of ProcedureResult._decide: each row's code, shifted to
    bits 2i and 2i + 1, selects its signed entry."""
    code = total = 0
    for i, (h1, h2, t) in enumerate(r.table):
        c = 0 if k % h1 else 1 if k % h2 else 3
        code |= c << 2 * i
        total += t[c]
    return code, total


def _least_k_of_each_type(r: ProcedureResult) -> dict:
    """The reference of the types _lattice_pass returns: every point of M is
    decided by _decide_by_rows, which _decide must match there, and the
    accepted points are written in descending order, so that each type keeps
    its least."""
    accepted = []
    for m in r.lattice:
        decided = _decide_by_rows(r, m)
        assert r._decide(m) == decided, (r.n, r.copies, m)
        if not decided[1]:
            accepted.append(m)
    return {r.type_of(m): m for m in sorted(accepted, reverse=True)}


def test_the_lattice_pass_matches_its_reference(bign_results):
    # Each type the pass finds has one accepted point of M, its least k.
    results = [run_procedure(n, copies=copies) for n in corpus(2000) for copies in (1, 2, 3)]
    assert len(results) == 5046
    for r in results + bign_results:
        assert r._lattice_pass[1] == _least_k_of_each_type(r), (r.n, r.copies)


def test_the_sum_graph_counts_the_listed_solutions(bign_results):
    # The count reads the graph's node sets, not the list.
    results = [run_procedure(n, copies=copies) for n in corpus(2000) for copies in (1, 2, 3)]
    assert len(results) == 5046
    assert [(r.n, r.copies) for r in results + bign_results if r._graph.count() != len(r.solutions)] == []


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # The benchmark's tracer wraps functions by module, so a module that loses
    # a name it lists fails here as well as in a traced benchmark run. The test
    # references among them are module attributes, not package exports.
    spec = importlib.util.spec_from_file_location("tracing", _BIGN.parents[1] / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        procedure.run_procedure(13)
    finally:
        tracer.uninstall()
    assert "procedure.run_procedure" in {span[tracing.NAME] for span in tracer.spans}
    assert procedure.run_procedure is run_procedure
    assert order.repunit_order.cache_info().currsize > 0
    references = {"solve_characteristic": procedure, "constraint_entry": procedure,
                  "factor_repunit": factor, "multiplicative_order": order,
                  "verify_periodicity": oracle}
    for name, module in references.items():
        assert callable(getattr(module, name)) and not hasattr(vpal, name), name


def test_case_vii_never_accepts():
    # a rigged mu makes case vii appear; its column must accept nothing
    label = classify_case(7, 1, 7, 3)  # preimage {0} with mu >= 1
    assert label is CaseLabel.VII
    pair = constraint_entry(7, label, 1)
    assert all(not pair.accepts(k) for k in range(1, 100))


def test_to_dict_round_trips():
    # The text is canonical, the one json.dumps(indent=2) writes for the
    # document it holds, and to_dict is that document parsed. The digests pin
    # the bytes of all 5,046 documents and of the schema-1 documents rebuilt
    # from them, one newline after each.
    digest, digest1 = hashlib.sha256(), hashlib.sha256()
    for n in corpus(2000):
        for copies in (1, 2, 3):
            r = run_procedure(n, copies=copies)
            text = r.to_json()
            assert text == json.dumps(json.loads(text), indent=2), (n, copies)
            assert r.to_dict() == json.loads(text), (n, copies)
            for i, (cp, row) in enumerate(zip(r.crucial, r._cells())):
                us = [sol[i] for sol in r.solutions]
                assert set(row) == set(us), (n, copies, i)
                # The row's code thresholds: the entry order h(alpha) where a
                # cell reads it (A holds h(lo), B holds h(hi + 1); case vii and
                # p in {2, 5} read none), else 1 for h1 and h1 for h2. So
                # h1 | h2, and each above 1 is an element, which minimal_period's
                # lookup needs.
                reads = set()
                if cp.p not in (2, 5):
                    for label, _, _ in row.values():
                        lo, hi = _INTERVAL.get(label, (0, 2))
                        reads |= {lo, hi + 1} & {1, 2}
                h = {alpha: repunit_order(cp.p, alpha, r.digit_len) for alpha in reads}
                h1, h2, _ = r.table[i]
                assert (h1, h2) == (h.get(1, 1), h.get(2, h.get(1, 1))), (n, copies, i)
                assert h2 % h1 == 0 and {h1, h2} - {1} <= r.elements, (n, copies, i)
            digest.update(text.encode() + b"\n")
            digest1.update(json.dumps(rebuild(r.to_dict()), indent=2).encode() + b"\n")
    assert digest.hexdigest() == "1a029368fe2250406805e94ce18856f5094f6b579a39ff7d03ce4068a059c797"
    assert digest1.hexdigest() == "f9230dc12d1cfcd8ab92b1629d8e09cceced236a584e618f7018bb1d0091840f"


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
    # The digests pin the bytes of all 20 documents and of the schema-1
    # documents rebuilt from them, one newline after each.
    digest, digest1 = hashlib.sha256(), hashlib.sha256()
    for n, copies in _WIDE_ITEMS:
        r = run_procedure(n, copies=copies)
        digest.update(r.to_json().encode() + b"\n")
        digest1.update(json.dumps(rebuild(r.to_dict()), indent=2).encode() + b"\n")
    assert digest.hexdigest() == "b2144c5351e6bc14a313c1dda772ae7b38083726d4f0562ef3414dfb8e88d61c"
    assert digest1.hexdigest() == "31bda5ce3a69ef71e7cc67f51636d8f513de381b20016454d856d5ab3ce68da6"


def test_the_document_matches_the_per_cell_reference():
    # The schema-1 keys rebuilt from to_dict, which lists no solution; the
    # reference builds them one cell at a time from the definition.
    items = [(n, copies) for n in corpus(2000) for copies in (1, 2, 3)] + _WIDE_ITEMS
    assert len(items) == 5_066
    for n, copies in items:
        _assert_tables_match_per_cell(n, copies)


def _no_encoder(*args, **kwargs):
    raise AssertionError("ran a json encoder")


def test_to_json_runs_no_json_encoder(monkeypatch):
    # The writer formats the sections itself; json.dumps is the tests' reference.
    monkeypatch.setattr(json, "dumps", _no_encoder)
    monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", _no_encoder)
    for n, copies in [(n, 1) for n in corpus(2000)] + _WIDE_ITEMS:
        run_procedure(n, copies=copies).to_json()


def _no_pair(*args, **kwargs):
    raise AssertionError("built a ConstraintPair")


def test_to_json_builds_no_view(monkeypatch):
    monkeypatch.setattr(ConstraintPair, "__init__", _no_pair)
    for n, copies in _WIDE_ITEMS + [(13, 1), (1461, 1), (49, 2)]:
        r = run_procedure(n, copies=copies)
        r.to_json()
        assert "columns" not in r.__dict__, (n, copies)


def test_the_writers_list_no_solution(monkeypatch):
    # The document holds the cells, the graph's node sets and count, and the
    # columns of the types that occur, none of which lists a solution.
    monkeypatch.setattr(procedure._SumGraph, "__iter__", _unlisted)
    for n, copies in _WIDE_ITEMS + [(13, 1), (1461, 1), (49, 2)]:
        r = run_procedure(n, copies=copies)
        r.to_json()
        r.to_text()
        assert "solutions" not in r.__dict__, (n, copies)


def _no_coprime_base(xs):
    raise AssertionError("walked the coprime base")


def test_a_pattern_that_accepts_no_k_has_period_1_at_once(monkeypatch):
    # No lattice point is accepted, so 1 is a period: the pass returns it
    # without the coprime base and the descent.
    monkeypatch.setattr(procedure, "_coprime_base", _no_coprime_base)
    for n in (7243529084560665, 12):
        assert run_procedure(n).minimal_period() == 1, n


def _no_cells(self):
    raise AssertionError("built the cells")


def test_accepts_reads_the_rows_without_building_the_tables(monkeypatch):
    r = run_procedure(396871711257, copies=3)
    with monkeypatch.context() as m:
        m.setattr(ProcedureResult, "_cells", _no_cells)
        for k in range(1, 9):
            r.accepts(k)
        assert r.omega % r.minimal_period() == 0
    assert len(r.solutions) == 20 and all(len(row) <= 3 for row in r._cells())


def test_the_cells_list_no_solution(monkeypatch):
    # The cells read the entries tabulate found from sums alone: at 30 digits
    # (5,396,157 solutions) they are built without the list, and elsewhere
    # they are the entries the listed solutions take, ascending.
    big = run_procedure(294350988072419291464119994383)
    results = [run_procedure(n, copies=copies) for n, copies in _WIDE_ITEMS + [(13, 1), (49, 1)]]
    with monkeypatch.context() as m:
        m.setattr(procedure._SumGraph, "__iter__", _unlisted)
        assert all(0 < len(row) <= 3 for row in big._cells())
        cells = [r._cells() for r in results]
    for r, rows in zip(results, cells):
        for i, row in enumerate(rows):
            assert list(row) == sorted({sol[i] for sol in r.solutions}), (r.n, r.copies, i)


def test_rows_hold_each_entry_once_with_its_solution_mask():
    r = run_procedure(49)
    assert r.solutions == ((1, 2, 1), (1, 3, 2), (2, 3, 1))
    assert [(u, label) for u, (label, _, _) in r._cells()[0].items()] == [(1, CaseLabel.V), (2, CaseLabel.III)]
    # solutions 0 and 1 take the cell of entry 1, solution 2 that of entry 2
    assert rebuild(r.to_dict())["case_table"][0] == ["v", "v", "iii"]


def test_json_matches_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(__file__).parent.parent / "docs" / "procedure-result.schema.json").read_text()
    )
    for n in (18, 12, 13, 16, 49):  # 16 has no solution
        jsonschema.validate(run_procedure(n).to_dict(), schema)


@pytest.mark.parametrize("call, message", [
    (lambda: v_increment(2, 0, 0), "expected delta >= 1"),
    (lambda: v_increment(2, 1, -1), "expected alpha >= 0"),
    (lambda: ConstraintPair(A=[0]), "must be positive"),
    (lambda: CrucialPrime(2, 1, 1), "need distinct nonnegative exponents"),
    (lambda: solve_characteristic(()), "need at least one crucial prime"),
    (lambda: run_procedure(13).accepts(0), "expected k >= 1"),
    (lambda: run_procedure(13, copies=0), "expected copies >= 1"),
], ids=["delta 0", "alpha -1", "element 0", "equal exponents", "no prime", "k 0", "copies 0"])
def test_arguments_outside_the_domain_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
