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
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

from .digits import digit_count, repeat_concat, reverse_digits
from .factor import (
    Budget,
    BudgetExhausted,
    factorize,
    metered,
    primes_up_to,
    v_term,
    v_value,
)
from .order import repunit_order, repunit_order_rescaled, repunit_valuation
from .procedure import ProcedureResult, _outside_domain, lcm_closure, run_procedure

# Corpus defaults: small enough that worst-case factorizations stay tractable,
# large enough to exercise nontrivial entry orders.
DEFAULT_NMAX = 2000
DEFAULT_OMEGA_CAP = 60
GOLDEN_LIMIT = 10_000  # data/vpalindromes_1e4.txt lists every v-palindrome up to it


@dataclass
class VerificationReport:
    """Passes counted, and exact reproduction inputs for every failure and skip."""

    corpus: str
    passed: int = 0
    failures: list[dict] = field(default_factory=list)
    skips: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def skipped(self) -> int:
        return len(self.skips)

    @property
    def checked(self) -> int:
        return self.passed + self.failed + self.skipped

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, passed: bool, **inputs) -> None:
        if passed:
            self.passed += 1
        else:
            self.failures.append(inputs)

    def record_skip(self, **inputs) -> None:
        self.skips.append(inputs)

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        self.passed += other.passed
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
        if self.failed > 50:
            lines.append(f"  ... and {self.failed - 50} more failures")
        return "\n".join(lines)


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
    return _concat_verdict(_concat_terms(n), digit_count(n), k)


def _concat_terms(n: int) -> tuple[tuple[int, int, int], ...]:
    """(p, a_p, b_p) for each prime of n*r(n) with a_p != b_p, from factorize
    of n and of r(n): the primes whose terms of the sum in oracle_is_vpal_concat
    can be nonzero. They depend on n alone, not on k."""
    a, b = dict(factorize(n)), dict(factorize(reverse_digits(n)))
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


@contextmanager
def _budget_skip(report: VerificationReport, **inputs):
    """The one writer of a budget skip record: a BudgetExhausted that escapes
    the block is the skip of inputs, with the reason and the cofactor."""
    try:
        yield
    except BudgetExhausted as exc:
        report.record_skip(**inputs, reason="budget", cofactor=str(exc.cofactor))


@contextmanager
def _report(corpus: str):
    """The one builder of a VerificationReport: the report of corpus, whose
    elapsed time is the wall time of the block."""
    t0 = time.monotonic()
    report = VerificationReport(corpus=corpus)
    yield report
    report.elapsed = time.monotonic() - t0


@contextmanager
def _per_n_report(check, n: int, **params):
    """The report of one per-n harness check at n, labelled from check.label
    with params, recording a budget run-out in the block as n's skip."""
    with _report(check.label.format(n=f"={n}", **params)) as report, _budget_skip(report, n=n):
        yield report


def _oracle_rows(terms: tuple[tuple[int, int, int], ...], L: int) -> tuple[tuple, ...]:
    """(p, f, (t1, t2)) for each of the _concat_terms (p, a_p, b_p) of n, L
    digits long: x_p = v_p(repunit(k, L)) >= alpha exactly when t_alpha | k,
    and f[x] = c(p, a_p + x) - c(p, b_p + x) is p's term of the sum at
    min(x_p, 2) = x. At p in {2, 5}, x_p = 0 at every k and the row has no
    threshold. Otherwise d_p = ord_p(10**L), the least divisor d of p - 1
    with 10**(d*L) = 1 (mod p), comes from factorize(p - 1) alone and x_d =
    repunit_valuation(p, d_p, L), reading no entry order: the independent
    side of compare_procedure_oracle's check of them. If d_p does not divide
    k, p does not divide 10**(kL) - 1, a multiple of repunit(k, L), so x_p =
    0; if it does, x_p = x_d + v_p(k) by lifting the exponent (see the order
    module), and d_p | p - 1 is coprime to p, so t_alpha = d_p *
    p**max(0, alpha - x_d). At d_p = 1, x_d = 0, so t1 = p.
    """
    rows = []
    for p, a_p, b_p in terms:
        thresholds = ()
        if p not in (2, 5):
            divisors = [1]
            for q, e in factorize(p - 1):
                divisors = [d * q**i for d in divisors for i in range(e + 1)]
            d = min(d for d in divisors if pow(10, d * L, p) == 1)
            x_d = repunit_valuation(p, d, L)
            thresholds = (d * p ** max(0, 1 - x_d), d * p ** max(0, 2 - x_d))
        f = tuple(v_term(p, a_p + x) - v_term(p, b_p + x) for x in (0, 1, 2))
        rows.append((p, f, thresholds))
    return tuple(rows)


def _threshold_verdict(rows: tuple[tuple, ...], k: int) -> bool:
    """_concat_verdict at k: min(x_p, 2) is the number of thresholds of p
    that divide k (t1 | t2), and it picks p's term."""
    total = 0
    for _, f, thresholds in rows:
        x = 0
        for t in thresholds:
            if k % t:
                break
            x += 1
        total += f[x]
    return total == 0


def _record_every_j(report: VerificationReport, n: int, base: ProcedureResult,
                    result: ProcedureResult, rows: tuple[tuple, ...], copies: int) -> None:
    """Record into report the checks of compare_procedure_oracle at copies c:
    base is r_1, result is r_c and rows are the _oracle_rows of n."""
    pulled = {e // math.gcd(e, copies) for e in base.elements.union(*(ts for *_, ts in rows))}
    for m in sorted(lcm_closure(result.elements | pulled)):
        predicted = result.accepts(m)
        actual = _threshold_verdict(rows, copies * m)
        inputs = {"n": n, "k": m, "kind": "every j", "copies": copies,
                  "predicted": predicted, "actual": actual}
        typed = listed = True
        if predicted:
            found = result.type_of(m)
            typed = base.accepts(copies * m) and found == base.type_of(copies * m)
            listed = found in result.solutions
        if not typed:
            inputs["same_type"] = False
        if not listed:
            inputs["listed"] = False
        report.record(predicted == actual and typed and listed, **inputs)


@_labelled("procedure vs oracle: n{n}, every k")
@metered
def compare_procedure_oracle(n: int, copies: int = 1, budget: Budget | None = None) -> VerificationReport:
    """Procedure verdicts from base n(copies) against the concatenation
    oracle, and the paper's theorem, for every k at once.

    With c = copies, r_1 = run_procedure(n) and r_c = run_procedure(n,
    copies=c): n(c) concatenated k times is n(c*k), so r_c must accept k
    exactly when the oracle accepts n at c*k, and, by the theorem, with the
    type r_1 gives at c*k. Both are checked at each m of M_c, the lcm-closure
    of 1, the constraint elements E(r_c) and e/gcd(e, c) for each e in E(r_1)
    or in the oracle's thresholds T (two per crucial prime outside {2, 5};
    see _oracle_rows). With E' the elements M_c is closed over, each check at
    any k >= 1 equals the check at D'(k) = lcm{e in E' : e | k}, which lies
    in M_c, so the checks decide every k:

    - e | k iff e | D'(k) for each e in E', since e | k puts e among the lcm's
      arguments and D'(k) | k.
    - e | c*k iff e/gcd(e, c) | k, as e/gcd(e, c) and c/gcd(e, c) are
      coprime. So each e in E(r_1) or T divides c*k exactly when it divides
      c*D'(k).
    - A procedure's verdict and type depend on k only through which of its
      entry orders divide k (the h1 | h2 of ProcedureResult.table, each 1 or
      in E), so r_c is the same at k and at D'(k), and r_1 at c*k and at
      c*D'(k).
    - The oracle's verdict at c*k, whether c(p, a_p + x_p) - c(p, b_p + x_p)
      sums to 0 over the crucial primes p (see oracle_is_vpal_concat), reads
      only min(x_p, 2): once x_p >= 2, a_p + x_p and b_p + x_p are both >= 2
      and the term is a_p - b_p. As t1 | t2, min(x_p, 2) is the number of p's
      thresholds that divide c*k, the same at k and at D'(k);
      _threshold_verdict counts them and adds the terms _oracle_rows computed
      for those counts, with no modular power.

    The verdict is a signed sum that never reads the solution list, so the
    type of an accepted m must also be a listed solution. Each record has
    kind "every j", the copies c and k = m. n and r(n) are factored once.
    """
    with _per_n_report(compare_procedure_oracle, n) as report:
        base = run_procedure(n)
        result = base if copies == 1 else run_procedure(n, copies=copies)
        _record_every_j(report, n, base, result, _oracle_rows(_concat_terms(n), digit_count(n)), copies)
    return report


@_labelled("type invariance: n{n}, k<={kmax}")
@metered
def verify_invariance(
    n: int,
    kmax: int = 6,
    budget: Budget | None = None,
) -> VerificationReport:
    """The type of n(k*j) is the same from base n as from base n(k), for every j.

    For each k <= kmax, two kinds of record:

    "shift tables": the shift-parametrized result run_procedure(n, copies=k)
    equals the from-scratch classification of the integer n(k), n and copies
    aside: the same digit length, crucial primes (each p, a, b) and table.
    Equal primes give the deltas of n and exponents a + v_p(R(k, L)) that
    factorize(n(k)) found; the solutions follow from the primes. A budget
    run-out while factoring n(k) is the skip of (n, k).

    "every j": the checks of compare_procedure_oracle(n, copies=k), on
    run_procedure(n) and the oracle's rows, built once per n, and the shift
    tables' run_procedure(n, copies=k). They factor nothing but n, r(n) and
    p - 1 for their crucial primes p, so they run at every k, also where n(k)
    does not factor; a run-out while building them is the skip of n.
    """
    with _per_n_report(verify_invariance, n, kmax=kmax) as report:
        base = run_procedure(n)
        rows = _oracle_rows(_concat_terms(n), digit_count(n))
        for k in range(1, kmax + 1):
            shifted = base if k == 1 else run_procedure(n, copies=k)
            with _budget_skip(report, n=n, k=k):
                scratch = run_procedure(repeat_concat(n, k))
                report.record(replace(shifted, n=scratch.n, copies=1) == scratch,
                              n=n, k=k, kind="shift tables")
            _record_every_j(report, n, base, shifted, rows, k)
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
            terms, L = _concat_terms(n), digit_count(n)
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
    is nonzero. The columns are the result's columns, one per solution; the
    document prints those of the types that occur only.
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
    with _report(f"entry orders: p<={p_max}, alpha<={alpha_max}, k<={k_max}, L<={L_max}") as report:
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
    return report


def verify_enumeration(limit: int, budget: Budget | None = None) -> tuple[list[int], VerificationReport]:
    """All v-palindromes up to limit, ascending, by the literal oracle, with a
    budget run-out at an n recorded as that n's skip, and the report of one
    check: the values up to GOLDEN_LIMIT are the shipped golden list's.
    Larger values go unchecked."""
    from importlib import resources  # imported here: no other code reads the golden list

    if limit < 1:
        raise ValueError(f"expected limit >= 1, got {limit}")
    with _report(f"enumeration vs golden file: limit {limit}") as report:
        values = []
        for n in range(1, limit + 1):
            with _budget_skip(report, n=n):
                if oracle_is_vpal(n, budget):
                    values.append(n)
        golden = map(int, resources.files("vpal").joinpath("data/vpalindromes_1e4.txt").read_text().split())
        expected = [g for g in golden if g <= limit]
        got = [x for x in values if x <= GOLDEN_LIMIT]
        report.record(got == expected, limit=limit, expected_count=len(expected), got_count=len(got))
    return values, report


def sweep(check, nmax: int, jobs: int = 1, **params) -> VerificationReport:
    """Run check(n, **params) for every n in corpus(nmax); merge the reports in corpus order.

    ``check`` is one of the per-n harnesses above. The merged report takes the
    harness's label with n<=nmax, and its elapsed time is wall time. With
    jobs > 1 the corpus is spread over at most os.cpu_count() worker processes.
    """
    args = inspect.signature(check).bind(0, **params)
    args.apply_defaults()
    item = partial(check, **params)
    workers = min(jobs, os.cpu_count() or 1)
    with _report(check.label.format(**{**args.arguments, "n": f"<={nmax}"})) as merged:
        if workers > 1:
            from multiprocessing import Pool  # imported here: a serial run never needs it

            with Pool(workers) as pool:
                for rep in pool.imap(item, corpus(nmax), chunksize=8):
                    merged.merge(rep)
        else:
            for n in corpus(nmax):
                merged.merge(item(n))
    return merged
