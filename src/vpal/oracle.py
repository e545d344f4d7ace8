"""Brute-force verification: the literal v-palindrome test and every harness.

Every verdict the command line prints is decided here. The literal test
factors a number and its reversal and compares v values; the harnesses check
the classification tables against it, or the enumeration against the shipped
golden list, and produce mergeable reports. A harness's budget bounds all the
factoring it does for its one n, so each n of a sweep gets its own;
factorization misses under the budget are recorded as skips, never guessed.
"""

from __future__ import annotations

import inspect
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

from .digits import digit_count, repeat_concat, repunit, reverse_digits
from .factor import (
    Budget,
    BudgetExhausted,
    Factorization,
    factorize,
    metered,
    primes_up_to,
    v_term,
    v_value,
    valuation,
)
from .order import repunit_order, repunit_order_rescaled, repunit_valuation
from .procedure import lcm_closure, run_procedure

# Corpus defaults: small enough that worst-case factorizations stay tractable,
# large enough to exercise nontrivial entry orders.
DEFAULT_NMAX = 2000
DEFAULT_OMEGA_CAP = 60
GOLDEN_LIMIT = 10_000  # data/vpalindromes_1e4.txt lists every v-palindrome up to it


@dataclass
class VerificationReport:
    """Counts plus exact reproduction inputs for every failure and skip."""

    corpus: str
    checked: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[dict] = field(default_factory=list)
    skips: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, passed: bool, **inputs) -> None:
        self.checked += 1
        if passed:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(inputs)

    def record_skip(self, **inputs) -> None:
        self.checked += 1
        self.skipped += 1
        self.skips.append(inputs)

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        self.checked += other.checked
        self.passed += other.passed
        self.failed += other.failed
        self.skipped += other.skipped
        self.failures.extend(other.failures)
        self.skips.extend(other.skips)
        self.elapsed += other.elapsed
        return self

    def to_dict(self) -> dict:
        return {
            "corpus": self.corpus,
            "checked": self.checked,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "failures": self.failures,
            "skips": self.skips,
            "elapsed_seconds": round(self.elapsed, 3),
        }

    def to_text(self) -> str:
        lines = [
            f"corpus: {self.corpus}",
            f"checked {self.checked}: {self.passed} passed, "
            f"{self.failed} failed, {self.skipped} skipped "
            f"({self.elapsed:.1f}s)",
        ]
        for f in self.failures[:50]:
            lines.append(f"  FAIL {f}")
        if len(self.failures) > 50:
            lines.append(f"  ... and {len(self.failures) - 50} more failures")
        return "\n".join(lines)


def _outside_domain(n: int, r: int) -> str | None:
    """The domain rule of the literal test: why n, with reversal r, is outside it, or None."""
    if n % 10 == 0:
        return "divisible by 10"
    return "equals its own reversal" if n == r else None


def eligible(n: int) -> bool:
    """In the procedure's domain: positive, not divisible by 10, not self-reversed."""
    return n >= 1 and _outside_domain(n, reverse_digits(n)) is None


def corpus(nmax: int) -> list[int]:
    return [n for n in range(1, nmax + 1) if eligible(n)]


class Witness(NamedTuple):
    """The literal test's verdict on n and its witness: the reason n is outside
    the domain, or else v(n), the reversal r(n) and v(r(n))."""

    vpalindrome: bool
    reason: str | None = None
    v: int | None = None
    reversal: int | None = None
    v_of_reversal: int | None = None


@metered
def literal_test(n: int, budget: Budget | None = None) -> Witness:
    """The literal test: 10 does not divide n, n differs from its reversal,
    and v(n) equals v of the reversal, both via complete factorization."""
    r = reverse_digits(n)  # a ValueError unless n >= 1
    if reason := _outside_domain(n, r):
        return Witness(False, reason)
    vn, vr = v_value(n), v_value(r)
    return Witness(vn == vr, None, vn, r, vr)


def oracle_is_vpal(n: int, budget: Budget | None = None) -> bool:
    """The verdict of literal_test(n, budget)."""
    return literal_test(n, budget).vpalindrome


@metered
def oracle_is_vpal_concat(n: int, k: int, budget: Budget | None = None) -> bool:
    """oracle_is_vpal(repeat_concat(n, k)), factoring only n and its reversal.

    With L the digit count of n and R = repunit(k, L), n(k) = n*R. As 10 does
    not divide n, r(n) also has L digits, so r(n(k)) = r(n)*R. With a_p, b_p
    and x_p the valuations of n, r(n) and R at p, v is the sum over primes of
    c(p, .) (factor.v_term: c(p, 0) = 0, c(p, 1) = p, c(p, e) = p + e for
    e >= 2), so

        v(n*R) - v(r(n)*R) = sum over p | n*r(n) of c(p, a_p + x_p) - c(p, b_p + x_p):

    every prime of R dividing neither n nor r(n) adds c(p, x_p) to both sides
    and cancels, and so does every prime with a_p = b_p, at every x_p. The
    literal test holds exactly when this sum is 0, and _concat_verdict adds it
    up over the primes _concat_terms keeps, those with a_p != b_p. x_p is
    repunit_valuation(p, k, L), from modular powers that never build R,
    independently of the entry orders; so k may run into the millions and past.
    """
    if not eligible(n):
        return False
    terms = _concat_terms(factorize(n), factorize(reverse_digits(n)))
    return _concat_verdict(terms, digit_count(n), k)


def _concat_terms(fn: Factorization, fr: Factorization) -> tuple[tuple[int, int, int], ...]:
    """(p, a_p, b_p) for each prime of n*r(n) with a_p != b_p, from the
    factorizations fn of n and fr of r(n): the primes whose terms of the sum in
    oracle_is_vpal_concat can be nonzero. They depend on n alone, not on k."""
    a, b = dict(fn.entries), dict(fr.entries)
    exponents = ((p, a.get(p, 0), b.get(p, 0)) for p in a.keys() | b.keys())
    return tuple(t for t in exponents if t[1] != t[2])


def _concat_verdict(terms: tuple[tuple[int, int, int], ...], L: int, k: int) -> bool:
    """oracle_is_vpal_concat at k, from the _concat_terms of n, L digits long:
    whether c(p, a_p + x_p) - c(p, b_p + x_p) sums to 0 over them."""
    total = 0
    for p, a_p, b_p in terms:
        x = repunit_valuation(p, k, L)
        total += v_term(p, a_p + x) - v_term(p, b_p + x)
    return total == 0


def _labelled(template: str):
    """Give a per-n harness its report label; the {n} slot reads "=13" for one n
    and "<=500" for a sweep, the other slots name the harness's parameters."""
    def attach(check):
        check.label = template
        return check
    return attach


def _record_budget_skip(report: VerificationReport, exc: BudgetExhausted, **inputs) -> None:
    """The one writer of a budget skip record: inputs, the reason and the cofactor."""
    report.record_skip(**inputs, reason="budget", cofactor=str(exc.cofactor))


@contextmanager
def _budget_skip(report: VerificationReport, **inputs):
    """Record a BudgetExhausted that escapes the block as the skip of inputs."""
    try:
        yield
    except BudgetExhausted as exc:
        _record_budget_skip(report, exc, **inputs)


@contextmanager
def _per_n_report(check, n: int, **params):
    """The report of one per-n harness check at n, labelled from check.label
    with params, timed, and recording a budget run-out in the block as n's skip."""
    t0 = time.monotonic()
    report = VerificationReport(corpus=check.label.format(n=f"={n}", **params))
    with _budget_skip(report, n=n):
        yield report
    report.elapsed = time.monotonic() - t0


def _oracle_elements(fn: Factorization, fr: Factorization, L: int) -> set[int]:
    """d_p, d_p*p and d_p*p**2 for each prime p outside {2, 5} of n*r(n),
    given the factorizations fn of n and fr of r(n), L digits each.

    d_p = ord_p(10**L) is the least divisor d of p - 1 with 10**(d*L) = 1
    (mod p). The oracle finds it by its own scan of the divisors of p - 1,
    from factorize(p - 1) alone and never from the entry orders: it is the
    independent side of compare_procedure_oracle's check of them.
    """
    primes = set(fn.primes()) | set(fr.primes())
    out = set()
    for p in primes - {2, 5}:
        divisors = [1]
        for q, e in factorize(p - 1):
            divisors = [d * q**i for d in divisors for i in range(e + 1)]
        d = min(d for d in divisors if pow(10, d * L, p) == 1)
        out |= {d, d * p, d * p * p}
    return out


@_labelled("procedure vs oracle: n{n}, every k")
@metered
def compare_procedure_oracle(n: int, budget: Budget | None = None) -> VerificationReport:
    """Procedure verdicts against the concatenation oracle, for every k at once.

    Both are compared at each m of M', the lcm-closure of 1, the constraint
    elements E of n and the oracle elements d_p*p**i (i <= 2, p a prime of
    n*r(n) outside {2, 5}; see _oracle_elements). With E' the union of the
    two element sets, both verdicts at any k >= 1 equal their verdicts at
    D'(k) = lcm{e in E' : e | k}, which lies in M', so the checks decide
    every k:

    - e | k iff e | D'(k) for each e in E', since e | k puts e among the lcm's
      arguments and D'(k) | k.
    - The procedure's verdict depends on k only through which of its entry
      orders divide k (the h1 | h2 of ProcedureResult.table, each 1 or in
      E), so it is the same at k and at D'(k).
    - The oracle's verdict is whether the sum over p | n*r(n) of
      c(p, a_p + x_p) - c(p, b_p + x_p) is 0, with x_p = v_p(repunit(k, L))
      (see oracle_is_vpal_concat). Each term is constant in x_p once
      x_p >= 2, as a_p + x_p and b_p + x_p are then both >= 2 and the term is
      a_p - b_p; so only min(x_p, 2) matters. For p in {2, 5}, x_p = 0.
      Otherwise p is odd and coprime to 10: if d_p does not divide k, p does
      not divide 10**(kL) - 1, a multiple of repunit(k, L), so x_p = 0; if it
      does, x_p = x_p(d_p) + v_p(k) by lifting the exponent, as stated in
      the docstring of the order module.
      As d_p and p are coprime, min(x_p, 2) is fixed by which of d_p, d_p*p
      and d_p*p**2 divide k, the same at k and at D'(k).

    The oracle side takes d_p and x_p from modular powers and factorize
    alone, so the check does not lean on the entry orders it tests. The
    procedure's verdict is a signed sum that never reads the solution list,
    so the same check also requires the type of each accepted m to be a
    listed solution. It factors n and r(n) once, for the procedure, the
    elements and every m.
    """
    with _per_n_report(compare_procedure_oracle, n) as report:
        L = digit_count(n)
        result = run_procedure(n)
        fn = factorize(n)
        fr = factorize(reverse_digits(n))
        terms = _concat_terms(fn, fr)
        for m in sorted(lcm_closure(result.elements | _oracle_elements(fn, fr, L))):
            predicted = result.accepts(m)
            actual = _concat_verdict(terms, L, m)
            # the type of an accepted m must be a solution the solver listed
            listed = not predicted or result.type_of(m) in result.solutions
            inputs = {"n": n, "k": m, "predicted": predicted, "actual": actual}
            if not listed:
                inputs["listed"] = False
            report.record(predicted == actual and listed, **inputs)
    return report


@_labelled("type invariance: n{n}, k<={kmax}")
@metered
def verify_invariance(
    n: int,
    kmax: int = 6,
    budget: Budget | None = None,
) -> VerificationReport:
    """The type of n(k*j) is the same from base n as from base n(k), for every j.

    For each k, the shift-parametrized result run_procedure(n, copies=k) and
    the from-scratch classification of the integer n(k) are built once.

    "shift tables": both have the crucial primes and deltas of n, mu shifted by
    the valuation of the materialized repunit, identical tables and identical
    solutions.

    "pullback", one per column l of n: the paper's theorem says n and n(k)
    share their solutions and column l of n(k) accepts j exactly when column
    l of n accepts k*j, that is, equals col_l(n).pullback(k) as a set. Both
    sides are compared in canonical form, which decides the type of n(k*j)
    for every j at once. A budget run-out at k is the skip of (n, k).
    """
    with _per_n_report(verify_invariance, n, kmax=kmax) as report:
        base = run_procedure(n)
        block = digit_count(n)
        for k in range(1, kmax + 1):
            with _budget_skip(report, n=n, k=k):
                shifted = run_procedure(n, copies=k)
                scratch = run_procedure(repeat_concat(n, k))
                same_primes = [cp.p for cp in scratch.crucial] == [cp.p for cp in base.crucial]
                same_delta = [cp.delta for cp in scratch.crucial] == [cp.delta for cp in base.crucial]
                rho = repunit(k, block)
                mu_shift_ok = same_primes and all(
                    sc.mu == bc.mu + valuation(bc.p, rho) for sc, bc in zip(scratch.crucial, base.crucial)
                )
                # every row, so every table cell; the solutions are a view, not a field
                tables_equal = (replace(shifted, n=scratch.n, copies=1) == scratch
                                and shifted.solutions == scratch.solutions)
                report.record(
                    same_primes and same_delta and mu_shift_ok and tables_equal,
                    n=n, k=k, kind="shift tables",
                    same_primes=same_primes, same_delta=same_delta,
                    mu_shift_ok=mu_shift_ok, tables_equal=tables_equal,
                )
                same_solutions = scratch.solutions == base.solutions
                for l, col in enumerate(base.columns):
                    pulled = col.pullback(k).canonical()
                    agree = same_solutions and pulled == scratch.columns[l].canonical()
                    report.record(agree, n=n, k=k, column=l, kind="pullback")
    return report


@_labelled("periodicity: n{n}, periods={periods}, omega cap {omega_cap}")
@metered
def verify_periodicity(
    n: int,
    periods: int = 2,
    budget: Budget | None = None,
    omega_cap: int = DEFAULT_OMEGA_CAP,
) -> VerificationReport:
    """Oracle membership over [1, periods*omega] must be omega-periodic.

    omega comes from the classification; the membership pattern comes from the
    concatenation oracle alone. Numbers whose omega exceeds the cap are
    reported as skipped (their window is too wide to scan), and so is n when
    run_procedure(n) runs out of budget. No k can run out: run_procedure(n)
    leaves the factorizations of n and r(n) in the call's meter, and each k's
    verdict (_concat_verdict) takes only modular powers.

    Superseded by compare_procedure_oracle: the columns are omega-periodic by
    construction, so agreement for every k makes the oracle omega-periodic,
    with no cap. No harness or command of the package calls this scan; it is
    kept only for the benchmark's periodicity workload and goes when that
    workload is retired (ROADMAP item 7).
    """
    with _per_n_report(verify_periodicity, n, periods=periods, omega_cap=omega_cap) as report:
        omega = run_procedure(n).omega
        if omega > omega_cap:
            report.record_skip(n=n, reason="omega_cap", omega=omega)
        else:
            terms, L = _concat_terms(factorize(n), factorize(reverse_digits(n))), digit_count(n)
            pattern = {k: _concat_verdict(terms, L, k) for k in range(1, periods * omega + 1)}
            for k in range(1, (periods - 1) * omega + 1):
                a, b = pattern[k], pattern[k + omega]
                report.record(a == b, n=n, k=k, omega=omega, at_k=a, at_k_plus_omega=b)
    return report


@_labelled("column disjointness: n{n}")
@metered
def verify_disjointness(n: int, budget: Budget | None = None) -> VerificationReport:
    """No k may be accepted by two solution columns.

    With E the result's elements and those of every column's A and B, e | k
    iff e | D(k) = lcm{e in E : e | k}, so each column accepts k iff it
    accepts D(k), which lies in M, the lcm-closure of 1 and E. Counting the
    columns that accept each m in M thus decides every k, also for a column
    that reads an element the table lacks. At each m, accepts(m), the signed
    sum over the table's rows (whose entry orders are in E), must also hold
    exactly when that count, from the cells' pairs over the solution list,
    is nonzero.
    """
    with _per_n_report(verify_disjointness, n) as report:
        result = run_procedure(n)
        cols = result.columns
        elements = result.elements.union(*(col.A | col.B for col in cols))
        for m in sorted(lcm_closure(elements)):
            hits = sum(col.accepts(m) for col in cols)
            accepted = result.accepts(m)
            inputs = {"n": n, "k": m, "hits": hits, "kind": "lattice scan"}
            if accepted != (hits > 0):
                inputs["accepted"] = accepted
            report.record(hits <= 1 and accepted == (hits > 0), **inputs)
    return report


def verify_lemmas(
    p_max: int = 100,
    alpha_max: int = 3,
    k_max: int = 60,
    L_max: int = 14,
) -> VerificationReport:
    """Exhaustive grid checks of the two entry-order facts.

    divisibility: p**alpha divides repunit(k, L) exactly when the entry order
    divides k, and the entry order is always >= 2.
    rescale: the block-length rescaling identity against the direct order at
    block length L*k.
    """
    t0 = time.monotonic()
    report = VerificationReport(
        corpus=f"entry orders: p<={p_max}, alpha<={alpha_max}, k<={k_max}, L<={L_max}"
    )
    for p in primes_up_to(p_max):
        if p in (2, 5):
            continue
        for alpha in range(1, alpha_max + 1):
            for L in range(1, L_max + 1):
                h = repunit_order(p, alpha, L)
                report.record(h >= 2, p=p, alpha=alpha, L=L, h=h, kind="h lower bound")
                m = p**alpha
                t = pow(10, L, m)
                acc = 0
                for k in range(1, k_max + 1):
                    acc = (acc * t + 1) % m
                    divides = acc == 0
                    report.record(
                        divides == (k % h == 0),
                        p=p, alpha=alpha, L=L, k=k, h=h, kind="divisibility",
                    )
                    lhs = repunit_order_rescaled(p, alpha, k, L)
                    rhs = repunit_order(p, alpha, L * k)
                    report.record(
                        lhs == rhs, p=p, alpha=alpha, L=L, k=k, lhs=lhs, rhs=rhs, kind="rescale",
                    )
    report.elapsed = time.monotonic() - t0
    return report


def enumerate_vpals(limit: int, budget: Budget | None = None) -> list[int]:
    """All v-palindromes up to limit, ascending, by the literal oracle."""
    if limit < 1:
        raise ValueError(f"expected limit >= 1, got {limit}")
    return [n for n in range(1, limit + 1) if oracle_is_vpal(n, budget)]


def verify_enumeration(limit: int, budget: Budget | None = None) -> tuple[list[int], VerificationReport]:
    """enumerate_vpals(limit), with a budget run-out at an n recorded as that
    n's skip, and the report of one check: the values up to GOLDEN_LIMIT are
    the shipped golden list's. Larger values go unchecked."""
    from importlib import resources  # imported here: no other code reads the golden list

    if limit < 1:
        raise ValueError(f"expected limit >= 1, got {limit}")
    t0 = time.monotonic()
    report = VerificationReport(corpus=f"enumeration vs golden file: limit {limit}")
    values = []
    for n in range(1, limit + 1):
        try:
            if oracle_is_vpal(n, budget):
                values.append(n)
        except BudgetExhausted as exc:
            _record_budget_skip(report, exc, n=n)
    golden = map(int, resources.files("vpal").joinpath("data/vpalindromes_1e4.txt").read_text().split())
    expected = [g for g in golden if g <= limit]
    got = [x for x in values if x <= GOLDEN_LIMIT]
    report.record(got == expected, limit=limit, expected_count=len(expected), got_count=len(got))
    report.elapsed = time.monotonic() - t0
    return values, report


def sweep(check, nmax: int, jobs: int = 1, **params) -> VerificationReport:
    """Run check(n, **params) for every n in corpus(nmax); merge the reports in corpus order.

    ``check`` is one of the per-n harnesses above. The merged report takes the
    harness's label with n<=nmax, and its elapsed time is wall time. With
    jobs > 1 the corpus is spread over at most os.cpu_count() worker processes.
    """
    t0 = time.monotonic()
    args = inspect.signature(check).bind(0, **params)
    args.apply_defaults()
    merged = VerificationReport(corpus=check.label.format(**{**args.arguments, "n": f"<={nmax}"}))
    item = partial(check, **params)
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool  # imported here: a serial run never needs it

        with Pool(workers) as pool:
            for rep in pool.imap(item, corpus(nmax), chunksize=8):
                merged.merge(rep)
    else:
        for n in corpus(nmax):
            merged.merge(item(n))
    merged.elapsed = time.monotonic() - t0
    return merged
