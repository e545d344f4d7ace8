"""The v-palindrome classification of repeated concatenations.

Given an eligible n (not divisible by 10, not equal to its digit reversal),
the classification decides for every k >= 1 whether the k-fold concatenation
n(k) is a v-palindrome, by pure divisibility arithmetic:

1. factor n and its reversal and merge the two exponent maps once; the
   primes whose exponents differ are the crucial primes, each carrying delta
   (exponent difference) and mu (shared exponent part);
2. solve the signed-sum equation over the per-prime ranges of possible
   v-increments; each solution is one way the v values can balance. A
   backward pass builds R_i, the signed sums the primes from i on can reach
   that a prefix can still cancel; a forward pass keeps G_i, the negated
   sums of the solutions' prefixes, and per prime the entries some solution
   takes there. The solutions are the paths through the G_i (_SumGraph),
   counted without listing. Both passes handle sets of integers, not
   vectors: the cost follows the number of reachable sums, neither 3^m for
   m crucial primes nor the number of solutions;
3. write each crucial prime's row: x = min(v_p(R(k, L)), 2), R(k, L) the
   repunit of k blocks of length L, is fixed by which of the entry orders
   h(1) | h(2) divide k (x >= alpha iff h(alpha) | k), and at each x one
   entry u = v_increment(p, |delta|, mu + x) holds. The row keeps the entry
   orders that separate two entries of which some solution takes one, and,
   per x, the signed entry sign(delta) * u;
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
   accepts, as S(A ∪ A', B ∪ B') = S(A, B) ∩ S(A', B'). The solutions
   themselves are listed only when asked for, by a walk along the graph's edges
   (O(m * #solutions)). One producer writes each prime's distinct cells, from
   the entries of step 2 and the row's entries per x that step 3 computed, and
   one the columns of any solutions it is given. The pass over the lattice M that finds
   omega0 also finds the types that occur and the least k of each (k and
   D(k) | k have one type), so the document lists the cells, the graph, the
   count and the columns of those types alone, never the solutions.

run_procedure(n, copies=k) produces the same tables for the base number n(k)
without ever factoring n(k): crucial primes and deltas carry over, mu shifts
by the repunit valuation, and entry orders are taken at digit length L*k.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

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
    return _increments_at(p, delta)[alpha if alpha < 2 else 2]


def _increments_at(p: int, delta: int) -> tuple[int, int, int]:
    """v_increment(p, delta, alpha) at alpha = 0, 1 and at every alpha >= 2: v
    of p^a is p at a = 1 and p + a from a = 2 on, so the increase stops
    changing at alpha = 2."""
    return (p, 2, 1) if delta == 1 else (p + delta, 1 + delta, delta)


def _shifted(increments: tuple[int, int, int], mu: int) -> tuple[int, int, int]:
    """The increments at alpha = mu + x for x = 0, 1 and 2, from those at 0, 1, 2."""
    m = min(mu, 2)
    return increments[m:] + increments[2:] * m


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
# A case read off where its entry holds: per x in {0, 1, 2}, whether it does.
_CASE = {tuple(lo <= x <= hi for x in (0, 1, 2)): label for label, (lo, hi) in _INTERVAL.items()}


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

    def first_member(self) -> int | None:
        """The least positive member, or None: every member is a multiple of
        lcm(A), so the least is lcm(A) itself unless some b in B divides it."""
        base = math.lcm(*self.A)
        return base if all(map(base.__mod__, self.B)) else None


def _cell_label(increments: tuple[int, int, int], u: int) -> CaseLabel:
    """The case of entry u, given the increments at x = 0, 1 and 2 (_shifted):
    the interval of x where the increment is u, case vii when there is none."""
    return _CASE.get(tuple(map(u.__eq__, increments)), CaseLabel.VII)


def _cell_pair(p: int, label: CaseLabel, h) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The constraints (A, B) of a cell of prime p in the given case, h(alpha)
    its entry orders: called only for the alpha the case reads.

    The case allows the x = v_p(R(k, L)) in its interval [lo, hi], and x >= alpha
    exactly when the entry order h(alpha) divides k: lo >= 1 asks h(lo) | k and
    hi <= 1 asks that h(hi + 1) not divide k. For p in {2, 5}, x is always 0,
    so the cell accepts every k when lo == 0 and none otherwise.
    """
    if label is CaseLabel.VII:
        return (), (1,)
    lo, hi = _INTERVAL[label]
    if p in (2, 5):
        return (), () if lo == 0 else (1,)
    return (h(lo),) if lo else (), (h(hi + 1),) if hi < 2 else ()


def constraint_entry(p: int, label: CaseLabel, digit_len: int) -> ConstraintPair:
    """Divisibility constraints contributed by prime p under the given case
    (see _cell_pair), with entry orders taken at the digit length L of the
    analyzed number."""
    return ConstraintPair(*_cell_pair(p, label, lambda alpha: repunit_order(p, alpha, digit_len)))


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


def _outside_domain(n: int, r: int) -> str | None:
    """The domain rule: why n, with reversal r, is outside the domain, or None."""
    if n % 10 == 0:
        return "divisible by 10"
    return "equals its own reversal" if n == r else None


def crucial_primes(n: int) -> tuple[CrucialPrime, ...]:
    """Primes dividing n and its reversal to different powers, ascending."""
    r = reverse_digits(n)  # a ValueError unless n >= 1
    if reason := _outside_domain(n, r):
        raise InvalidInput(f"{n}: {reason}")
    a, b = dict(factorize(n)), dict(factorize(r))
    return tuple(CrucialPrime(p, a.get(p, 0), b.get(p, 0))
                 for p in sorted(a.keys() | b.keys()) if a.get(p, 0) != b.get(p, 0))


# A level of the signed-sum equation: the sign s_i of delta_i and the ascending
# range of the entry u_i, the values v_increment(p_i, |delta_i|, .) takes.
Level = tuple[int, tuple[int, ...]]


def _level(cp: CrucialPrime) -> Level:
    increments = _increments_at(cp.p, abs(cp.a - cp.b))
    # The increments fall strictly from alpha = 0 to 2 but at p = 2, delta = 1: (2, 2, 1).
    us = increments[:0:-1] if increments[0] == increments[1] else increments[::-1]
    return 1 if cp.a > cp.b else -1, us


def _suffix_sums(levels: tuple[Level, ...]) -> list[set[int]]:
    """R_1, ..., R_m: R_i holds the signed sums t_i + ... + t_{m-1} (t_j = s_j *
    u_j) that the rows from i on reach and that lie in [-hi_i, -lo_i], with
    [lo_i, hi_i] the range of the prefix sums t_0 + ... + t_{i-1}, the only
    ones a prefix can cancel; R_m = {0}, the empty suffix. Each such sum is
    t_i plus one in R_{i+1}, as the range moves by the extremes of t_i."""
    bounds, lo, hi = [], 0, 0  # bounds[i] = (-hi_i, -lo_i)
    for s, us in levels:
        bounds.append((-hi, -lo))
        # us ascends, so its signed extremes sit at its two ends
        lo, hi = (lo + us[0], hi + us[-1]) if s > 0 else (lo - us[-1], hi - us[0])
    reach = [{0}]  # R_m, ..., R_1
    for (s, us), (low, high) in zip(levels[:0:-1], bounds[:0:-1]):
        after = reach[-1]
        reach.append({x for u in us for r in after if low <= (x := s * u + r) <= high})
    return reach[::-1]


class _SumGraph:
    """The solution set as a layered graph, from sums alone: the levels
    (_level), the node sets G_0, ..., G_m and each row's taken entries.

    After the backward pass (_suffix_sums), a forward pass keeps G_i, the
    negated prefix sums -P that reach row i: G_0 = {0}; row i keeps each u for
    which some g in G_i has g - t in R_{i+1}, t = s_i * u, and G_{i+1} is the
    set of those g - t. By induction, G_i (i >= 1) is the set of -P for the
    prefix sums P = t_0 + ... + t_{i-1} of the solutions, and row i keeps
    exactly the entries u_i of the solutions:
    - kept u is taken: g = -P for some prefix (of a solution, or the empty
      one at i = 0), and g - t in R_{i+1} is the sum of some suffix of the
      rows after i, so that prefix, u and that suffix sum to P + t + g - t =
      0, a solution with entry u at row i and -(P + t) = g - t in G_{i+1};
    - taken u is kept: a solution's prefix sum P at i gives g = -P in G_i,
      and g - t is the sum of the solution's own suffix after i, which lies
      in [-hi_{i+1}, -lo_{i+1}] as P + t is a prefix sum, so it is in R_{i+1}.
    With no solution, row 0 keeps nothing, so every G_i for i >= 1 and every
    row's set is empty. The cost is O(m * max |G_i|), whatever the number
    of solutions.

    An edge takes g in G_i by entry u to g - s_i * u in G_{i+1}, so the solutions
    are the paths from G_0 to G_m = {0}: iterating walks them in lexicographic
    order in O(m * #solutions), and count() counts them in O(m * max |G_i|).
    """

    def __init__(self, crucial: tuple[CrucialPrime, ...]):
        self.levels = tuple(map(_level, crucial))
        self.nodes, self.taken = [{0}], []
        for (s, us), rest in zip(self.levels, _suffix_sums(self.levels)):
            owed, kept, reached = self.nodes[-1], set(), set()
            for u in us:
                if hits := {x for g in owed if (x := g - s * u) in rest}:
                    kept.add(u)
                    reached |= hits
            self.taken.append(kept)
            self.nodes.append(reached)

    def __iter__(self):
        """The solutions in lexicographic order: each prefix extends along its edges by ascending u."""
        prefixes = [((), 0)]  # (entries so far, minus their signed sum)
        for (s, us), after in zip(self.levels, self.nodes[1:]):
            prefixes = [(pre + (u,), x) for pre, owed in prefixes for u in us
                        if (x := owed - s * u) in after]
        return (pre for pre, _ in prefixes)

    def count(self) -> int:
        """The number of solutions: per node of G_i, the number of paths from G_0 to it."""
        paths = {0: 1}
        for (s, us), after in zip(self.levels, self.nodes[1:]):
            paths = {x: sum(paths.get(x + s * u, 0) for u in us) for x in after}
        return sum(paths.values())


def solve_characteristic(crucial: tuple[CrucialPrime, ...]) -> tuple[Solution, ...]:
    """All sign-balanced increment vectors, in lexicographic order.

    Entry i ranges over the values v_increment(p_i, |delta_i|, .) takes at
    exponents 0, 1 and 2 (it stops changing at 2), ascending; a vector solves
    the equation when the delta-signed sum of its entries is zero.

    They are the paths of the sum graph (_SumGraph), listed in O(m *
    #solutions) once its node sets are built, not the product's 3^m vectors.
    """
    if not crucial:
        raise ValueError("need at least one crucial prime")
    return tuple(_SumGraph(crucial))


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

    ``solutions`` lists every solution, in lexicographic order, on first read,
    by the walk of the sum graph (_SumGraph) that ``tabulate`` built for the
    table's taken entries; the table never waits for the list, and the graph
    counts it without listing. The cells come from _cells alone, which lists no
    solution, and the columns' A and B from _columns alone; ``columns``
    (``columns[l]`` the union of column l's cells, one per solution) holds them
    as ConstraintPairs when first read. The document (to_dict) reads the cells,
    the graph and the columns of the types that occur only, with the least k
    of each type from _lattice_pass. Results are built by ``tabulate``.
    """

    n: int
    copies: int
    digit_len: int
    crucial: tuple[CrucialPrime, ...]
    table: tuple[tuple[int, int, tuple[int, int, None, int]], ...]
    # The sum graph, and each row's entries at x = 0, 1, 2 (_shifted, without the
    # table's override at p in {2, 5}) the cells read; both follow from the crucial primes.
    _graph: _SumGraph = field(repr=False, compare=False)
    _entries: list[tuple[int, int, int]] = field(repr=False, compare=False)

    @classmethod
    def tabulate(cls, n: int, copies: int, digit_len: int, crucial: tuple[CrucialPrime, ...],
                 order) -> "ProcedureResult":
        """The result whose row i reads the entry orders order(i, alpha).

        Row i's t holds sign(delta) * v_increment(p, |delta|, min(mu, 2) + x)
        at t[0], t[1] and t[3] for x = 0, 1 and 2; no k has code 2. For p in
        {2, 5}, x is 0 at every k, so all three are the x = 0 entry. order(i,
        alpha) is called only where the entries at alpha - 1 and alpha differ
        and some solution takes one of them (the sum graph's taken entries),
        which is where some cell reads it.
        """
        graph = _SumGraph(crucial)
        entries = [_shifted(_increments_at(cp.p, abs(cp.a - cp.b)), min(cp.a, cp.b)) for cp in crucial]
        table = []
        rows = zip(crucial, entries, graph.levels, graph.taken)
        for i, (cp, (e0, e1, e2), (s, _), kept) in enumerate(rows):
            if cp.p in (2, 5):
                e1 = e2 = e0
            h1 = order(i, 1) if e0 != e1 and (e0 in kept or e1 in kept) else 1
            h2 = order(i, 2) if e1 != e2 and (e1 in kept or e2 in kept) else h1
            table.append((h1, h2, (s * e0, s * e1, None, s * e2)))
        return cls(n, copies, digit_len, crucial, tuple(table), graph, entries)

    @cached_property
    def solutions(self) -> tuple[Solution, ...]:
        """Every solution, in lexicographic order, listed on first read."""
        return tuple(self._graph)

    def _cells(self) -> list[dict[int, tuple[CaseLabel, tuple[int, ...], tuple[int, ...]]]]:
        """Per crucial prime, its distinct cells: each entry its solutions take,
        ascending, as the sum graph found them from sums alone, with
        the cell's case and constraints (A, B).

        A cell's case is the interval of x where the increment v_increment(p,
        |delta|, min(mu, 2) + x), which tabulate kept for x = 0, 1, 2, equals
        its entry (_cell_label), at p in {2, 5} too; its constraints are read
        off the row's entry orders by the function constraint_entry uses too
        (_cell_pair).
        """
        cells = []
        rows = zip(self.crucial, self._graph.taken, self._entries, self.table)
        for cp, kept, increments, (h1, h2, _) in rows:
            h = (None, h1, h2).__getitem__
            labels = {u: _cell_label(increments, u) for u in sorted(kept)}
            cells.append({u: (label, *_cell_pair(cp.p, label, h)) for u, label in labels.items()})
        return cells

    def _columns(self, cells, solutions):
        """Per solution given, its column's A and B, the unions of its cells'
        constraints, as sets of integers."""
        for sol in solutions:
            picked = list(map(dict.__getitem__, cells, sol))
            yield set().union(*(a for _, a, _ in picked)), set().union(*(b for _, _, b in picked))

    @cached_property
    def columns(self) -> tuple[ConstraintPair, ...]:
        """Per solution, the union of its cells' constraints; the document prints
        only the columns of the types that occur."""
        return tuple(ConstraintPair(A, B) for A, B in self._columns(self._cells(), self.solutions))

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

    def first_member(self) -> int | None:
        """Least accepted k (the onset c), or None when no k is ever accepted:
        the least of the least k of each type (_lattice_pass)."""
        return min(self._lattice_pass[1].values(), default=None)

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
        is in E. The pass over M that decides the points is _lattice_pass.
        """
        return self._lattice_pass[0]

    @cached_property
    def _lattice_pass(self) -> tuple[int, dict[Solution, int]]:
        """omega0 and the least k of each type that occurs, from one pass of
        _decide over M: k and D(k) | k have one type, so that k is a point of M."""
        accept, accepted = {}, []
        for m in self.lattice:
            code, total = self._decide(m)
            accept[code] = not total
            if not total:
                accepted.append(m)
        if not accepted:  # a constant pattern: 1 is a period
            return 1, {}
        d = self.omega
        for b in _coprime_base(self.elements):
            while d % b == 0:
                q = self._decide(d // b)[0]  # s & q is the code of gcd(m, d // b) for s = code(m)
                if any(accept[s & q] != v for s, v in accept.items()):
                    break
                d //= b
        # Written in descending order, each type keeps its least point.
        return d, {self.type_of(m): m for m in sorted(accepted, reverse=True)}

    def to_dict(self) -> dict:
        """The document of docs/procedure-result.schema.json (schema 2), which
        lists no solution: the crucial primes, each row's distinct cells
        (_cells), the sum graph's node sets and its count of the solutions,
        then the column of each type that occurs (_columns), in lexicographic
        order with its least k, and omega, omega0 and c. The types and their
        least k are the pass minimal_period runs.
        """
        omega0, firsts = self.minimal_period(), self._lattice_pass[1]
        cells, types = self._cells(), sorted(firsts)
        return {
            "n": decimal_string(self.n), "copies": self.copies, "digit_length": self.digit_len,
            "crucial_primes": [{"p": cp.p, "a": cp.a, "b": cp.b, "delta": cp.delta, "mu": cp.mu}
                               for cp in self.crucial],
            "cells": [[{"entry": u, "case": label.value, "A": list(A), "B": list(B)}
                       for u, (label, A, B) in row.items()] for row in cells],
            "sum_graph": [sorted(nodes) for nodes in self._graph.nodes],
            "solution_count": self._graph.count(),
            "columns": [{"solution": list(sol), "A": sorted(A), "B": sorted(B), "first_member": firsts[sol]}
                        for sol, (A, B) in zip(types, self._columns(cells, types))],
            "omega": self.omega, "omega0": omega0, "c": self.first_member(),
        }

    def to_json(self) -> str:
        """The text ``vpal procedure --json`` prints."""
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        """The text ``vpal procedure`` prints: to_dict's document, a line per
        crucial prime, per row of cells, per node set and per type that occurs;
        c is infinity when it is null."""
        d = self.to_dict()
        lines = [f"n = {d['n']}, copies = {d['copies']}, digit length = {d['digit_length']}", "crucial primes:"]
        lines += (f"  p={cp['p']}: a={cp['a']} b={cp['b']} delta={cp['delta']} mu={cp['mu']}"
                  for cp in d["crucial_primes"])
        lines.append("cells (entry [case] (A, B), accepting the k divisible by all of A, by none of B):")
        for cp, row in zip(d["crucial_primes"], d["cells"]):
            cells = (f"{cell['entry']} [{cell['case']}] (A={cell['A']}, B={cell['B']})" for cell in row)
            lines.append(f"  p={cp['p']}: " + ("  ".join(cells) or "none"))
        lines.append("sum graph (G_i: the negated sums of the solutions' first i entries):")
        lines += (f"  G_{i}: " + (" ".join(map(str, nodes)) or "none") for i, nodes in enumerate(d["sum_graph"]))
        lines.append(f"solutions: {d['solution_count']}")
        lines.append("types that occur (the columns that accept some k):" + ("" if d["columns"] else " none"))
        lines += (f"  {tuple(col['solution'])}: A={col['A']} B={col['B']} first accepted k = {col['first_member']}"
                  for col in d["columns"])
        lines.append(f"omega = {d['omega']}, omega0 = {d['omega0']}, c = {d['c'] or 'infinity'}")
        return "\n".join(lines)


def lcm_closure(elements) -> frozenset[int]:
    """1 and the given positive integers, closed under lcm: the lcm of every subset."""
    closure = {1}
    for e in set(elements):
        closure |= {math.lcm(m, e) for m in closure}
    return frozenset(closure)


def _coprime_base(xs) -> set[int]:
    """Pairwise coprime integers > 1 over which every x in xs factors, by gcd
    refinement: each x is refined against the base built so far. When x meets
    an element b with g = gcd(x, b) > 1, b leaves the base and g, x/g and b/g
    wait to be refined in their turn; the product of the base and the waiting
    numbers falls at each split, so the refinement ends."""
    base, waiting = set(), [x for x in xs if x > 1]
    while waiting:
        x = waiting.pop()
        for b in base:
            if (g := math.gcd(x, b)) > 1:
                base.remove(b)
                waiting += [y for y in (g, x // g, b // g) if y > 1]
                break
        else:
            base.add(x)
    return base


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
    # tabulate computes the entry orders in the call's meter, in the order the rows read them.
    order = lambda i, alpha: repunit_order(crucial[i].p, alpha, digit_len)
    return ProcedureResult.tabulate(n, copies, digit_len, crucial, order)
