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
3. classify each (prime, distinct solution entry) pair, at most three per
   prime, into one of seven cases and translate cases into divisibility
   constraints on k; the cells of a row are looked up by their entry;
4. a solution's column, the union of its cells, accepts exactly the k in
   S(A, B) = {x : every a in A divides x, no b in B divides x}; as
   S(A ∪ A', B ∪ B') = S(A, B) ∩ S(A', B'), that is the k every cell of the
   column accepts, so acceptance is decided cell by cell, each distinct cell
   of a row tested once. The accepted sets are pairwise disjoint, and the
   accepting solution is the type of the v-palindrome n(k). The columns and
   omega are derived from the constraint table only when asked for.

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
from functools import cache, cached_property

from .digits import decimal_string, digit_count, reverse_digits
from .factor import Budget, factorize, metered
from .order import repunit_order, repunit_valuation


class InvalidInput(ValueError):
    """The number is outside the procedure's domain (10 | n or n equals its reversal)."""


class NotAVPalindrome(LookupError):
    """Asked for the type of a concatenation count that no solution accepts."""


class AmbiguousType(RuntimeError):
    """Two solution columns accepted the same k; disjointness is violated."""


Solution = tuple[int, ...]


def v_increment(p: int, delta: int, alpha: int) -> int:
    """Increase of v when the exponent of prime p grows from alpha to alpha + delta."""
    if delta < 1:
        raise ValueError(f"expected delta >= 1, got {delta}")
    if alpha < 0:
        raise ValueError(f"expected alpha >= 0, got {alpha}")
    if p == 2 and delta == 1:
        return 2 if alpha <= 1 else 1
    if delta == 1:
        return p if alpha == 0 else 2 if alpha == 1 else 1
    return p + delta if alpha == 0 else 1 + delta if alpha == 1 else delta


def v_increment_range(p: int, delta: int) -> frozenset[int]:
    """All values v_increment(p, delta, .) attains; size 2 for (2, 1), else 3."""
    return frozenset(v_increment(p, delta, alpha) for alpha in (0, 1, 2))


@cache
def _preimage(p: int, delta: int, u: int) -> frozenset[int]:
    # The alpha with v_increment(p, delta, alpha) == u; 2 stands for every
    # alpha >= 2, where v_increment no longer depends on alpha.
    pre = frozenset(alpha for alpha in (0, 1, 2) if v_increment(p, delta, alpha) == u)
    if not pre:
        raise ValueError(f"{u} is not a possible v-increment for p={p}, delta={delta}")
    return pre


class CaseLabel(str, enum.Enum):
    I = "i"
    II = "ii"
    III = "iii"
    IV = "iv"
    V = "v"
    VI = "vi"
    VII = "vii"


# Keyed by preimage and min(mu, 2); a missing key is case vii.
_CASE_BY_PREIMAGE_AND_MU = {
    (frozenset({0}), 0): CaseLabel.I,
    (frozenset({1}), 1): CaseLabel.I,
    (frozenset({0, 1}), 1): CaseLabel.I,
    (frozenset({1}), 0): CaseLabel.II,
    (frozenset({0, 1}), 0): CaseLabel.III,
    (frozenset({2}), 1): CaseLabel.IV,
    (frozenset({2}), 0): CaseLabel.V,
    (frozenset({2}), 2): CaseLabel.VI,
}


def classify_case(p: int, delta_abs: int, u: int, mu: int) -> CaseLabel:
    """Which of the seven cases the quadruple falls into; exactly one always holds."""
    if mu < 0:
        raise ValueError(f"expected mu >= 0, got {mu}")
    return _CASE_BY_PREIMAGE_AND_MU.get((_preimage(p, delta_abs, u), min(mu, 2)), CaseLabel.VII)


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
        # Plain loops: the sets hold at most a few elements, and a generator
        # per call would cost more than the tests.
        for a in self.A:
            if x % a:
                return False
        for b in self.B:
            if not x % b:
                return False
        return True

    def union(self, other: "ConstraintPair") -> "ConstraintPair":
        return ConstraintPair(self.A | other.A, self.B | other.B)

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

    def to_dict(self) -> dict:
        return {"A": sorted(self.A), "B": sorted(self.B)}

    def __str__(self) -> str:
        fmt = lambda s: "{" + ",".join(map(str, sorted(s))) + "}"
        return f"({fmt(self.A)},{fmt(self.B)})"


def constraint_entry(p: int, label: CaseLabel, digit_len: int) -> ConstraintPair:
    """Divisibility constraints contributed by prime p under the given case.

    Entry orders are taken at the digit length of the analyzed number; they
    are needed only for p outside {2, 5} in cases i through v.
    """
    if p in (2, 5):
        if label in (CaseLabel.I, CaseLabel.III, CaseLabel.VI):
            return ConstraintPair()
        return ConstraintPair((), (1,))
    if label is CaseLabel.VI:
        return ConstraintPair()
    if label is CaseLabel.VII:
        return ConstraintPair((), (1,))
    h = lambda alpha: repunit_order(p, alpha, digit_len)
    if label is CaseLabel.I:
        return ConstraintPair((), (h(1),))
    if label is CaseLabel.II:
        return ConstraintPair((h(1),), (h(2),))
    if label is CaseLabel.III:
        return ConstraintPair((), (h(2),))
    if label is CaseLabel.IV:
        return ConstraintPair((h(1),), ())
    return ConstraintPair((h(2),), ())  # case v


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

    def to_dict(self) -> dict:
        return {"p": self.p, "a": self.a, "b": self.b, "delta": self.delta, "mu": self.mu}


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

    Entry i ranges over v_increment_range(p_i, |delta_i|); a vector solves the
    equation when the delta-signed sum of its entries is zero.

    With t_i = s_i * u_i the signed entries and [lo_i, hi_i] the range of the
    prefix sums t_0 + ... + t_{i-1}, R_i holds the suffix sums t_i + ... +
    t_{m-1} that lie in [-hi_i, -lo_i], the only ones a prefix can cancel;
    R_m = {0}.
    A prefix with sum P extends by u_i only when -(P + t_i) lies in R_{i+1}, so
    every prefix the walk keeps completes to a solution. The cost is building
    the R_i plus O(m * #solutions), in place of the 3^m vectors of the product;
    extending each prefix in ascending u_i keeps the lexicographic order.
    """
    if not crucial:
        raise ValueError("need at least one crucial prime")
    levels = [(1 if cp.delta > 0 else -1, sorted(v_increment_range(cp.p, abs(cp.delta))))
              for cp in crucial]
    lo, hi = [0], [0]
    for s, us in levels:
        lo.append(lo[-1] + min(s * u for u in us))
        hi.append(hi[-1] + max(s * u for u in us))
    reach = [{0}]  # R_m, ..., R_1
    for i in range(len(levels) - 1, 0, -1):
        s, us = levels[i]
        reach.append({x for u in us for r in reach[-1] if -hi[i] <= (x := s * u + r) <= -lo[i]})
    prefixes = [((), 0)]  # (entries so far, their signed sum)
    for (s, us), rest in zip(levels, reversed(reach)):
        prefixes = [(pre + (u,), total + s * u) for pre, total in prefixes for u in us
                    if -(total + s * u) in rest]
    return tuple(pre for pre, _ in prefixes)


@dataclass(frozen=True)
class ProcedureResult:
    """Everything the classification produces for one analyzed number.

    The analyzed number is the copies-fold concatenation of n (copies == 1
    means n itself). Tables are indexed [prime][solution]. Solution l accepts
    exactly the k that every cell of its column, constraint_table[i][l] over
    the primes i, accepts; ``accepts`` and ``type_of`` decide k that way, by
    per-row bitmasks of the solutions holding each distinct cell.
    ``columns[l]``, the union of those cells, and ``omega``, the lcm of every
    constraint element and a period of the acceptance pattern, are derived
    from the table when first read.
    """

    n: int
    copies: int
    digit_len: int
    crucial: tuple[CrucialPrime, ...]
    solutions: tuple[Solution, ...]
    case_table: tuple[tuple[CaseLabel, ...], ...]
    constraint_table: tuple[tuple[ConstraintPair, ...], ...]

    @cached_property
    def columns(self) -> tuple[ConstraintPair, ...]:
        """Per solution, the union of its cells down the constraint table."""
        return tuple(
            ConstraintPair(frozenset().union(*(pair.A for pair in column)),
                           frozenset().union(*(pair.B for pair in column)))
            for column in zip(*self.constraint_table)
        )

    @cached_property
    def _cell_masks(self) -> tuple[tuple[tuple[ConstraintPair, int], ...], ...]:
        # Per row, each distinct cell with the mask whose bit l says that
        # solution l's column holds it. Cells are told apart by identity:
        # run_procedure shares one object per distinct entry, at most three
        # per row, and an id hashes faster than a pair. Equal cells that are
        # separate objects only get separate masks.
        rows = []
        for row in self.constraint_table:
            groups: dict[int, list] = {}
            for l, cell in enumerate(row):
                if (group := groups.get(id(cell))) is None:
                    groups[id(cell)] = [cell, 1 << l]
                else:
                    group[1] |= 1 << l
            rows.append(tuple(map(tuple, groups.values())))
        return tuple(rows)

    def accept_mask(self, k: int) -> int:
        """Bitmask of the solutions whose column accepts k (bit l for solution l).

        A column accepts k iff each of its cells does, so this ANDs over the
        rows the OR of the masks of the cells accepting k.
        """
        if k < 1:
            raise ValueError(f"expected k >= 1, got {k}")
        mask = (1 << len(self.solutions)) - 1
        for row in self._cell_masks:
            hit = 0
            for cell, bits in row:
                if cell.accepts(k):
                    hit |= bits
            mask &= hit
            if not mask:
                break
        return mask

    def accepts(self, k: int) -> bool:
        """Whether the k-fold concatenation of the analyzed number is a v-palindrome."""
        return self.accept_mask(k) != 0

    def type_of(self, k: int) -> Solution:
        """The unique solution whose column accepts k."""
        mask = self.accept_mask(k)
        if not mask:
            raise NotAVPalindrome(f"concatenation count {k} gives no v-palindrome")
        if mask & (mask - 1):
            matches = [sol for l, sol in enumerate(self.solutions) if mask >> l & 1]
            raise AmbiguousType(f"k={k} accepted by {len(matches)} columns: {matches}")
        return self.solutions[mask.bit_length() - 1]

    def first_member(self) -> int | None:
        """Least accepted k (the onset c), or None when no k is ever accepted."""
        firsts = [f for col in self.columns if (f := col.first_member()) is not None]
        return min(firsts) if firsts else None

    @cached_property
    def elements(self) -> frozenset[int]:
        """E: every constraint element of every cell, so of every column."""
        cells = {id(cell): cell for row in self.constraint_table for cell in row}.values()
        return frozenset(x for cell in cells for x in cell.A | cell.B)

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
        """
        elements = self.elements
        below = lambda k: frozenset(e for e in elements if k % e == 0)  # equal for k and D(k)
        accept = {
            s: any(c.A <= s and not c.B & s for c in self.columns) for s in map(below, self.lattice)
        }
        d = self.omega
        for b in _coprime_base(elements):
            while d % b == 0:
                q = below(d // b)  # s & q is below(D(gcd(m, d // b))) for s = below(m)
                if any(accept[s & q] != v for s, v in accept.items()):
                    break
                d //= b
        return d

    def nondegenerate_solutions(self) -> tuple[Solution, ...]:
        """Solutions whose column accepts some k."""
        return tuple(sol for sol, col in zip(self.solutions, self.columns) if not col.is_empty())

    @cached_property
    def case_vii_count(self) -> int:
        """Occurrences of the catch-all case in the table (expected never to accept)."""
        return sum(row.count(CaseLabel.VII) for row in self.case_table)

    def to_dict(self) -> dict:
        return {
            "n": decimal_string(self.n),
            "copies": self.copies,
            "digit_length": self.digit_len,
            "crucial_primes": [cp.to_dict() for cp in self.crucial],
            "solutions": [list(sol) for sol in self.solutions],
            "case_table": [[label.value for label in row] for row in self.case_table],
            "constraint_table": [[pair.to_dict() for pair in row] for row in self.constraint_table],
            "columns": self._column_dicts(),
            "omega": self.omega,
            "omega0": self.minimal_period(),
            "c": self.first_member(),
            "nondegenerate": [list(sol) for sol in self.nondegenerate_solutions()],
            "case_vii_count": self.case_vii_count,
        }

    def _column_dicts(self) -> list[dict]:
        return [
            {"solution": list(sol), "A": sorted(col.A), "B": sorted(col.B),
             "first_member": col.first_member()}
            for sol, col in zip(self.solutions, self.columns)
        ]

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "ProcedureResult":
        """The result a to_dict document describes; ValueError when its tables are
        not one row per crucial prime and one cell per solution, or when its
        columns or omega disagree with those its constraint table gives."""
        result = cls(
            n=int(d["n"]),
            copies=d["copies"],
            digit_len=d["digit_length"],
            crucial=tuple(CrucialPrime(c["p"], c["a"], c["b"]) for c in d["crucial_primes"]),
            solutions=tuple(tuple(sol) for sol in d["solutions"]),
            case_table=tuple(tuple(CaseLabel(v) for v in row) for row in d["case_table"]),
            constraint_table=tuple(
                tuple(ConstraintPair(e["A"], e["B"]) for e in row) for row in d["constraint_table"]
            ),
        )
        width = len(result.solutions)
        if not result.crucial or any(
            len(table) != len(result.crucial) or any(len(row) != width for row in table)
            for table in (result.case_table, result.constraint_table)
        ):
            raise ValueError("tables need one row per crucial prime and one cell per solution")
        if d["columns"] != result._column_dicts() or d["omega"] != result.omega:
            raise ValueError("columns or omega disagree with the constraint table")
        return result


def lcm_closure(elements) -> frozenset[int]:
    """1 and the given positive integers, closed under lcm: the lcm of every subset."""
    closure = {1}
    for e in set(elements):
        closure |= {math.lcm(m, e) for m in closure}
    return frozenset(closure)


def _coprime_base(xs) -> set[int]:
    """Pairwise coprime integers > 1 over which every x in xs factors, by gcd refinement."""
    base = {x for x in xs if x > 1}
    while pairs := [(a, b) for a, b in itertools.combinations(base, 2) if math.gcd(a, b) > 1]:
        a, b = pairs[0]
        g = math.gcd(a, b)
        base = base - {a, b} | {g, a // g, b // g} - {1}
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
    solutions = solve_characteristic(crucial)
    # A cell depends on its solution only through the entry u = sol[i], which
    # takes at most three values per prime: classify each distinct u once and
    # fill the row by lookup. Taking the u in order of first appearance keeps
    # the entry orders, and so the budget they spend, in per-cell order.
    case_rows, constraint_rows = [], []
    for i, cp in enumerate(crucial):
        entries = [sol[i] for sol in solutions]
        labels = {u: classify_case(cp.p, abs(cp.delta), u, cp.mu) for u in dict.fromkeys(entries)}
        pairs = {u: constraint_entry(cp.p, label, digit_len) for u, label in labels.items()}
        case_rows.append(tuple(labels[u] for u in entries))
        constraint_rows.append(tuple(pairs[u] for u in entries))
    return ProcedureResult(
        n=n,
        copies=copies,
        digit_len=digit_len,
        crucial=crucial,
        solutions=solutions,
        case_table=tuple(case_rows),
        constraint_table=tuple(constraint_rows),
    )
