"""The v-palindrome classification of repeated concatenations.

Given an eligible n (not divisible by 10, not equal to its digit reversal),
the classification decides for every k >= 1 whether the k-fold concatenation
n(k) is a v-palindrome, by pure divisibility arithmetic:

1. factor n and its reversal; the primes whose exponents differ are the
   crucial primes, each carrying delta (exponent difference) and mu (shared
   exponent part);
2. solve the signed-sum equation over the per-prime ranges of possible
   v-increments; each solution is one way the v values can balance. A
   prefix of a vector is extended only while the suffix sums reachable from
   the remaining primes can still cancel it, so every prefix kept completes
   to a solution: the cost is the suffix sets plus O(m * #solutions) for m
   crucial primes, not the 3^m vectors of the full product;
3. write each crucial prime's row: x = min(v_p(R(k, L)), 2), R(k, L) the
   repunit of k blocks of length L, is fixed by which of the entry orders
   h(1) | h(2) divide k (x >= alpha iff h(alpha) | k), and at each x one
   entry u = v_increment(p, |delta|, mu + x) holds. The row keeps the entry
   orders it reads and, per x, the signed entry sign(delta) * u;
4. a solution accepts k exactly when its entry holds at x(k) at every
   crucial prime. So k is accepted exactly when the vector of the entries
   that hold at k is a solution, that is, when the signed entries it
   selects sum to zero, and that vector is the type of the v-palindrome
   n(k). A k fixes x(k), so it fixes one vector: the accepted sets are
   pairwise disjoint. Each distinct (prime, entry) pair of the solutions is
   a cell; its case is the interval of x where its entry holds (the seven
   cases are the six intervals and the empty one), which gives its
   constraints S(A, B) = {x : every a in A divides x, no b in B divides x}.
   A solution's column, the union of its cells, accepts the k every cell
   accepts, as S(A ∪ A', B ∪ B') = S(A, B) ∩ S(A', B'). The cells, the case
   and constraint tables and the columns are views built from the rows and
   the solutions only when asked for.

run_procedure(n, copies=k) produces the same tables for the base number n(k)
without ever factoring n(k): crucial primes and deltas carry over, mu shifts
by the repunit valuation, and entry orders are taken at digit length L*k.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from .digits import decimal_string, digit_count, reverse_digits
from .factor import Budget, factorize, metered
from .order import repunit_order, repunit_valuation


class InvalidInput(ValueError):
    """The number is outside the procedure's domain (10 | n or n equals its reversal)."""


class NotAVPalindrome(LookupError):
    """Asked for the type of a concatenation count that no solution accepts."""


Solution = tuple[int, ...]


def v_increment(p: int, delta: int, alpha: int) -> int:
    """Increase of v when the exponent of prime p grows from alpha to alpha + delta."""
    if delta < 1:
        raise ValueError(f"expected delta >= 1, got {delta}")
    if alpha < 0:
        raise ValueError(f"expected alpha >= 0, got {alpha}")
    if delta == 1:
        return p if alpha == 0 else 2 if alpha == 1 else 1
    return p + delta if alpha == 0 else 1 + delta if alpha == 1 else delta


def _increments_at(p: int, delta: int, mu: int) -> tuple[int, int, int]:
    """v_increment(p, delta, mu + x) at x = 0, 1 and 2."""
    return v_increment(p, delta, mu), v_increment(p, delta, mu + 1), v_increment(p, delta, mu + 2)


class CaseLabel(str, enum.Enum):
    I = "i"
    II = "ii"
    III = "iii"
    IV = "iv"
    V = "v"
    VI = "vi"
    VII = "vii"


# A cell of crucial prime p is an entry u, and it accepts k exactly when
# v_increment(p, |delta|, mu + x) == u, with x = v_p(R(k, L)) and mu + x the
# exponent of p at the smaller side of n(k). v_increment takes each of its
# values on an interval of exponents and stops changing at 2, so the cell
# allows an interval [lo, hi] of x in {0, 1, 2}, 2 standing for every x >= 2.
# Each case is one such interval, and case vii is the empty one.
_INTERVAL = {CaseLabel.I: (0, 0), CaseLabel.II: (1, 1), CaseLabel.III: (0, 1),
             CaseLabel.IV: (1, 2), CaseLabel.V: (2, 2), CaseLabel.VI: (0, 2)}
_CASE = {interval: label for label, interval in _INTERVAL.items()}


@dataclass(frozen=True)
class ConstraintPair:
    """The set S(A, B) of integers divisible by every a in A and by no b in B."""

    A: frozenset[int]
    B: frozenset[int]

    def __init__(self, A=(), B=()):
        object.__setattr__(self, "A", frozenset(A))
        object.__setattr__(self, "B", frozenset(B))
        if any(x < 1 for x in self.A | self.B):
            raise ValueError("constraint elements must be positive")

    def accepts(self, x: int) -> bool:
        return all(x % a == 0 for a in self.A) and all(x % b != 0 for b in self.B)

    def is_empty(self) -> bool:
        return self.first_member() is None

    def first_member(self) -> int | None:
        """Least positive member, or None: every member is a multiple of lcm(A),
        so the least is lcm(A) itself unless some b in B divides it."""
        base = math.lcm(*self.A)
        return None if any(base % b == 0 for b in self.B) else base

    def pullback(self, k: int) -> "ConstraintPair":
        """{j : k*j in S(A, B)}: a | k*j iff a/gcd(a, k) | j, as a/g and k/g are coprime."""
        return ConstraintPair((a // math.gcd(a, k) for a in self.A),
                              (b // math.gcd(b, k) for b in self.B))

    def canonical(self) -> tuple[int, frozenset[int]] | None:
        """A form that depends only on the accepted set: None when it is empty,
        else (a0, B') with a0 = lcm(A) and B' the divisibility-minimal elements
        of {lcm(a0, b) : b in B}.

        Every member is a multiple of a0 and a0 is a member, so a0 = min S. The
        multiples of a0 outside S are the multiples of some lcm(a0, b); that set
        depends only on S, and so do its minimal elements under divisibility,
        which are B'. Conversely S = S({a0}, B'), so equal forms give equal sets.
        """
        a0 = self.first_member()
        if a0 is None:
            return None
        c = {math.lcm(a0, b) for b in self.B}
        return a0, frozenset(x for x in c if not any(x % y == 0 and y != x for y in c))


def _cell_pair(p: int, label: CaseLabel, h) -> ConstraintPair:
    """The constraints of a cell of prime p in the given case, h(alpha) its
    entry orders: called only for the alpha the case reads.

    The case allows the x = v_p(R(k, L)) in its interval [lo, hi], and x >= alpha
    exactly when the entry order h(alpha) divides k: lo >= 1 asks h(lo) | k and
    hi <= 1 asks that h(hi + 1) not divide k. For p in {2, 5}, x is always 0,
    so the cell accepts every k when lo == 0 and none otherwise.
    """
    if label is CaseLabel.VII:
        return ConstraintPair((), (1,))
    lo, hi = _INTERVAL[label]
    if p in (2, 5):
        return ConstraintPair((), () if lo == 0 else (1,))
    return ConstraintPair((h(lo),) if lo else (), (h(hi + 1),) if hi < 2 else ())


def constraint_entry(p: int, label: CaseLabel, digit_len: int) -> ConstraintPair:
    """Divisibility constraints contributed by prime p under the given case
    (see _cell_pair), with entry orders taken at the digit length L of the
    analyzed number."""
    return _cell_pair(p, label, lambda alpha: repunit_order(p, alpha, digit_len))


@dataclass(frozen=True)
class CrucialPrime:
    """A prime whose exponents in n and in the reversal of n differ."""

    p: int
    a: int  # exponent in n
    b: int  # exponent in reverse_digits(n)

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.a == self.b:
            raise ValueError(f"need distinct nonnegative exponents, got a={self.a}, b={self.b}")

    @property
    def delta(self) -> int:
        return self.a - self.b

    @property
    def mu(self) -> int:
        return min(self.a, self.b)

    def shifted(self, x: int) -> "CrucialPrime":
        """Both exponents raised by x (the repunit valuation shift)."""
        return CrucialPrime(self.p, self.a + x, self.b + x)


def crucial_primes(n: int) -> tuple[CrucialPrime, ...]:
    """Primes dividing n and its reversal to different powers, ascending."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n % 10 == 0:
        raise InvalidInput(f"{n} is divisible by 10")
    r = reverse_digits(n)
    if n == r:
        raise InvalidInput(f"{n} equals its own digit reversal")
    fn = factorize(n)
    fr = factorize(r)
    out = []
    for p in sorted(set(fn.primes()) | set(fr.primes())):
        a, b = fn.exponent(p), fr.exponent(p)
        if a != b:
            out.append(CrucialPrime(p, a, b))
    return tuple(out)


def solve_characteristic(crucial: tuple[CrucialPrime, ...]) -> tuple[Solution, ...]:
    """All sign-balanced increment vectors, in lexicographic order.

    Entry i ranges over the values v_increment(p_i, |delta_i|, .) takes at
    exponents 0, 1 and 2 (it stops changing at 2), ascending; a vector solves
    the equation when the delta-signed sum of its entries is zero.

    With t_i = s_i * u_i the signed entries and [lo_i, hi_i] the range of the
    prefix sums t_0 + ... + t_{i-1}, R_i, the reachable suffix sums, holds
    each t_i + ... + t_{m-1} in [-hi_i, -lo_i] (the only ones a prefix can
    cancel); R_m = {0}.
    A prefix with sum P extends by u_i only when -(P + t_i) is in R_{i+1}, so
    every prefix the walk keeps completes to a solution. The cost is building
    the R_i plus O(m * #solutions), in place of the 3^m vectors of the
    product; extending each prefix in ascending u_i keeps the lexicographic
    order.
    """
    if not crucial:
        raise ValueError("need at least one crucial prime")
    levels = [(1 if cp.delta > 0 else -1, sorted(set(_increments_at(cp.p, abs(cp.delta), 0))))
              for cp in crucial]
    lo, hi = [0], [0]
    for s, us in levels:
        # us ascends, so its signed extremes sit at its two ends
        first, last = s * us[0], s * us[-1]
        lo.append(lo[-1] + min(first, last))
        hi.append(hi[-1] + max(first, last))
    reach = [{0}]  # R_m, ..., R_1
    for i in range(len(levels) - 1, 0, -1):
        s, us = levels[i]
        reach.append({x for u in us for r in reach[-1] if -hi[i] <= (x := s * u + r) <= -lo[i]})
    prefixes = [((), 0)]  # (entries so far, their signed sum)
    for (s, us), rest in zip(levels, reversed(reach)):
        prefixes = [(pre + (u,), total + s * u) for pre, total in prefixes for u in us
                    if -(total + s * u) in rest]
    return tuple(pre for pre, _ in prefixes)


def _by_prime(solutions: tuple[Solution, ...], m: int) -> tuple[tuple[int, ...], ...]:
    """Per crucial prime (m of them), the entries the solutions take there."""
    return tuple(zip(*solutions)) if solutions else ((),) * m


class Cell(NamedTuple):
    """One distinct cell of a table row: the entry u that solutions take at the
    row's prime, with its case and constraints."""

    entry: int
    label: CaseLabel
    pair: ConstraintPair


@dataclass(frozen=True)
class ProcedureResult:
    """Everything the classification produces for one analyzed number.

    The analyzed number is the copies-fold concatenation of n (copies == 1
    means n itself). ``table[i]`` is the row acceptance reads for crucial
    prime i: (h1, h2, t), with h1 | h2 the entry orders that x = min(v_p(R(k,
    L)), 2) reads (x >= alpha iff h(alpha) | k; an order no cell reads is 1
    for h1 and h1 for h2), and t[c] the signed entry that holds at the k of
    code c (see _decide). ``accepts``, ``type_of``, ``omega`` and
    ``minimal_period`` read only that table.

    ``rows`` (the distinct cells of each prime, with case and pair),
    ``case_table`` and ``constraint_table``, indexed [prime][solution], and the
    ``columns`` (``columns[l]`` the union of column l's cells) are views
    built from the table and the solutions when first read. Results are
    built by ``tabulate``.
    """

    n: int
    copies: int
    digit_len: int
    crucial: tuple[CrucialPrime, ...]
    solutions: tuple[Solution, ...]
    table: tuple[tuple[int, int, tuple[int, int, None, int]], ...]

    @classmethod
    def tabulate(cls, n: int, copies: int, digit_len: int, crucial: tuple[CrucialPrime, ...],
                 solutions: tuple[Solution, ...], order) -> "ProcedureResult":
        """The result whose row i reads the entry orders order(i, alpha).

        Row i's t holds sign(delta) * v_increment(p, |delta|, min(mu, 2) + x)
        at t[0], t[1] and t[3] for x = 0, 1 and 2; no k has code 2. For p in
        {2, 5}, x is 0 at every k, so all three are the x = 0 entry. order(i,
        alpha) is called only where the entries at alpha - 1 and alpha differ
        and some solution takes one of them, which is where some cell reads it.
        """
        table = []
        for i, (cp, us) in enumerate(zip(crucial, _by_prime(solutions, len(crucial)))):
            e0, e1, e2 = _increments_at(cp.p, abs(cp.a - cp.b), min(cp.a, cp.b, 2))
            if cp.p in (2, 5):
                e1 = e2 = e0
            s = 1 if cp.a > cp.b else -1
            taken = set(us)
            h1 = order(i, 1) if e0 != e1 and (e0 in taken or e1 in taken) else 1
            h2 = order(i, 2) if e1 != e2 and (e1 in taken or e2 in taken) else h1
            table.append((h1, h2, (s * e0, s * e1, None, s * e2)))
        return cls(n, copies, digit_len, crucial, solutions, tuple(table))

    @cached_property
    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        """Per crucial prime, its distinct cells: the entries its solutions
        take, in order of first appearance.

        A cell's case is the interval of x where the increment v_increment(p,
        |delta|, min(mu, 2) + x) equals its entry (case vii when there is none),
        at p in {2, 5} too; its pair is read off the row's entry orders by the
        function constraint_entry uses too.
        """
        rows = []
        for cp, us, (h1, h2, _) in zip(self.crucial, self._entries, self.table):
            h = (None, h1, h2).__getitem__
            increments = _increments_at(cp.p, abs(cp.a - cp.b), min(cp.a, cp.b, 2))
            row = []
            for u in dict.fromkeys(us):
                xs = [x for x in (0, 1, 2) if increments[x] == u]
                label = _CASE[xs[0], xs[-1]] if xs else CaseLabel.VII
                row.append(Cell(u, label, _cell_pair(cp.p, label, h)))
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def _entries(self) -> tuple[tuple[int, ...], ...]:
        return _by_prime(self.solutions, len(self.crucial))

    def _spread(self, of) -> tuple[tuple, ...]:
        # Per row, of(cell) for each solution's cell, looked up by its entry:
        # of runs once per distinct cell.
        return tuple(
            tuple(map({cell.entry: of(cell) for cell in row}.__getitem__, us))
            for row, us in zip(self.rows, self._entries)
        )

    @cached_property
    def case_table(self) -> tuple[tuple[CaseLabel, ...], ...]:
        return self._spread(attrgetter("label"))

    @cached_property
    def constraint_table(self) -> tuple[tuple[ConstraintPair, ...], ...]:
        return self._spread(attrgetter("pair"))

    @cached_property
    def columns(self) -> tuple[ConstraintPair, ...]:
        """Per solution, the union of its cells down the constraint table."""
        return tuple(
            ConstraintPair(frozenset().union(*(pair.A for pair in column)),
                           frozenset().union(*(pair.B for pair in column)))
            for column in zip(*self.constraint_table)
        )

    def _decide(self, k: int) -> tuple[int, int]:
        """k's code and the sum of the signed entries that hold at k.

        Row i's code, at bits 2i and 2i + 1 of k's, is 0 when its h1 does not
        divide k, 1 when only h1 does and 3 when h2 does too; it selects the
        row's signed entry t[code].
        """
        if k < 1:
            raise ValueError(f"expected k >= 1, got {k}")
        code = total = 0
        for i, (h1, h2, t) in enumerate(self.table):
            c = 0 if k % h1 else 1 if k % h2 else 3
            code |= c << 2 * i
            total += t[c]
        return code, total

    def accepts(self, k: int) -> bool:
        """Whether the k-fold concatenation of the analyzed number is a
        v-palindrome: whether the signed entries that hold at k sum to zero."""
        return self._decide(k)[1] == 0

    def type_of(self, k: int) -> Solution:
        """The unique solution whose column accepts k: the entries that hold at k,
        which are a solution exactly when their signed sum is zero."""
        code, total = self._decide(k)
        if total:
            raise NotAVPalindrome(f"concatenation count {k} gives no v-palindrome")
        return tuple(abs(t[code >> 2 * i & 3]) for i, (_, _, t) in enumerate(self.table))

    @cached_property
    def _column_firsts(self) -> tuple[int | None, ...]:
        """Per solution, the least k its column accepts, or None when it accepts none."""
        return tuple(col.first_member() for col in self.columns)

    def first_member(self) -> int | None:
        """Least accepted k (the onset c), or None when no k is ever accepted."""
        return min((f for f in self._column_firsts if f is not None), default=None)

    @cached_property
    def elements(self) -> frozenset[int]:
        """E: every constraint element above 1 of every cell, so of every column.

        These are the entry orders the cells read, which the table keeps: an
        unread h1 is 1 and an unread h2 is h1. The element 1, of case vii and
        of p in {2, 5}, changes no lcm, lattice or coprime base.
        """
        return frozenset(h for h1, h2, _ in self.table for h in (h1, h2) if h > 1)

    @cached_property
    def omega(self) -> int:
        """The lcm of E, a period of the acceptance pattern."""
        return math.lcm(*self.elements)

    @cached_property
    def lattice(self) -> frozenset[int]:
        """M: 1 and every constraint element, closed under lcm.

        With E the constraint elements and D(k) = lcm{e in E : e | k}, e | k iff
        e | D(k), so D(k) lies in M and k is accepted by exactly the columns that
        accept D(k). A fact about the acceptance of every k is decided on M alone.
        """
        return lcm_closure(self.elements)

    def minimal_period(self) -> int:
        """Least period of the acceptance pattern; it divides omega.

        Since accept(k) = accept(D(k)) with D(k) in the lattice M, d | omega is a
        period iff accept(m) = accept(D(gcd(m, d))) for all m in M; necessity is a
        CRT step, as some k = m (mod d) has gcd(k, omega) = gcd(m, d). Periods are
        closed under gcd, so the least, d0, divides every period and equals D(d0),
        a product of powers of a coprime base of E. Dividing omega by base
        elements while the quotient stays a period stops at d0.

        _decide packs k's row codes into code(k), 2 bits per row, and sums the
        signed entries they select, which decides the point. As h1 | h2,
        code(gcd(k, j)) = code(k) & code(j); accept(k) depends on k only
        through code(k), and code(D(k)) = code(k) as every threshold above 1
        is in E.
        """
        accept = {code: total == 0 for code, total in map(self._decide, self.lattice)}
        d = self.omega
        for b in _coprime_base(self.elements):
            while d % b == 0:
                q = self._decide(d // b)[0]  # s & q is the code of gcd(m, d // b) for s = code(m)
                if any(accept[s & q] != v for s, v in accept.items()):
                    break
                d //= b
        return d

    @cached_property
    def case_vii_count(self) -> int:
        """Occurrences of the catch-all case in the table (expected never to accept)."""
        return sum(us.count(cell.entry) for row, us in zip(self.rows, self._entries)
                   for cell in row if cell.label is CaseLabel.VII)

    def to_dict(self) -> dict:
        """The document of docs/procedure-result.schema.json: the parse of to_json."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The text ``vpal procedure --json`` prints, json.dumps(to_dict(), indent=2)
        byte for byte, written from the rows: per row each distinct cell's text
        once, and each solution's list once."""
        p1, p2, p3, p4 = _PAD[1:]
        sols = [_array(map(str, sol), p2) for sol in self.solutions]
        crucial = _array((f'{{{p3}"p": {cp.p},{p3}"a": {cp.a},{p3}"b": {cp.b},'
                          f'{p3}"delta": {cp.delta},{p3}"mu": {cp.mu}{p2}}}' for cp in self.crucial), p1)
        label = lambda cell: f'"{cell.label.value}"'
        pair = lambda cell: (f'{{{p4}"A": {_array(map(str, sorted(cell.pair.A)), p4)},'
                             f'{p4}"B": {_array(map(str, sorted(cell.pair.B)), p4)}{p3}}}')
        table = lambda of: _array((_array(row, p2) for row in self._spread(of)), p1)
        firsts = self._column_firsts
        # In a column a solution's list sits one level deeper: two more spaces per line.
        columns = _array((f'{{{p3}"solution": {text.replace(_PAD[0], p1)},'
                          f'{p3}"A": {_array(map(str, sorted(col.A)), p3)},'
                          f'{p3}"B": {_array(map(str, sorted(col.B)), p3)},'
                          f'{p3}"first_member": {_null_or(f)}{p2}}}'
                          for text, col, f in zip(sols, self.columns, firsts)), p1)
        return (f'{{\n  "n": "{decimal_string(self.n)}",\n  "copies": {self.copies},'
                f'\n  "digit_length": {self.digit_len},\n  "crucial_primes": {crucial},'
                f'\n  "solutions": {_array(sols, p1)},\n  "case_table": {table(label)},'
                f'\n  "constraint_table": {table(pair)},\n  "columns": {columns},'
                f'\n  "omega": {self.omega},\n  "omega0": {self.minimal_period()},'
                f'\n  "c": {_null_or(self.first_member())},'
                f'\n  "nondegenerate": {_array((t for t, f in zip(sols, firsts) if f is not None), p1)},'
                f'\n  "case_vii_count": {self.case_vii_count}\n}}')


def lcm_closure(elements) -> frozenset[int]:
    """1 and the given positive integers, closed under lcm: the lcm of every subset."""
    closure = {1}
    for e in set(elements):
        closure |= {math.lcm(m, e) for m in closure}
    return frozenset(closure)


def _coprime_base(xs) -> set[int]:
    """Pairwise coprime integers > 1 over which every x in xs factors, by gcd refinement."""
    base = {x for x in xs if x > 1}
    pairs = lambda: ((a, b) for a, b in itertools.combinations(base, 2) if math.gcd(a, b) > 1)
    while pair := next(pairs(), None):
        a, b = pair
        g = math.gcd(a, b)
        base = base - {a, b} | {g, a // g, b // g} - {1}
    return base


# What json.dumps(..., indent=2) writes before an item at each depth: a newline
# and two spaces per level.
_PAD = tuple("\n" + "  " * depth for depth in range(5))


def _array(items, pad: str) -> str:
    """The indent-2 text of a list of items already written, the list itself at
    the depth of pad; as no item's text is empty, an empty join is an empty list."""
    inner = pad + "  "
    body = ("," + inner).join(items)
    return "[" + inner + body + pad + "]" if body else "[]"


def _null_or(x: int | None) -> str:
    return "null" if x is None else str(x)


@metered
def run_procedure(n: int, copies: int = 1, budget: Budget | None = None) -> ProcedureResult:
    """Classify the copies-fold concatenation of n without factoring it.

    With copies == 1 this is the plain classification of n. With copies == k
    the result describes n(k): crucial primes and deltas are reused, mu is
    shifted by the repunit valuation at each prime, and entry orders are taken
    at the concatenation's digit length. ``budget`` bounds the whole call:
    the factorizations of n, of its reversal, and of p - 1 for each
    entry-order prime p all spend from one meter (see factor.metered).
    """
    if copies < 1:
        raise ValueError(f"expected copies >= 1, got {copies}")
    base = crucial_primes(n)
    block = digit_count(n)
    digit_len = block * copies
    if copies == 1:
        crucial = base
    else:
        crucial = tuple(cp.shifted(repunit_valuation(cp.p, copies, block)) for cp in base)
    solutions = solve_characteristic(crucial)
    # tabulate computes the entry orders in the call's meter, in the order the rows read them.
    order = lambda i, alpha: repunit_order(crucial[i].p, alpha, digit_len)
    return ProcedureResult.tabulate(n, copies, digit_len, crucial, solutions, order)
