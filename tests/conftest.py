import pytest

from vpal.procedure import _INTERVAL, CaseLabel, Cell, ConstraintPair, CrucialPrime, ProcedureResult


def _pair(p: int, label: CaseLabel, h1: int, h2: int) -> ConstraintPair:
    # constraint_entry's pair, with h1 | h2 standing in for the entry orders
    if label is CaseLabel.VII:
        return ConstraintPair((), (1,))
    lo, hi = _INTERVAL[label]
    if p in (2, 5):
        return ConstraintPair((), () if lo == 0 else (1,))
    h = (None, h1, h2)
    return ConstraintPair((h[lo],) if lo else (), (h[hi + 1],) if hi < 2 else ())


def _table_result(*rows) -> ProcedureResult:
    # Each row is (p, h1, h2, labels, entries) for one made-up crucial prime p
    # with made-up entry orders h1 | h2: solution l takes entry entries[l], and
    # the cell of entry u has case labels[u] and that case's pair at h1 and h2.
    # Two cells of a row may share a case, and so a pair. A cell's mask holds
    # the solutions that take its entry; with one row, the columns are exactly
    # that row's cells.
    mask = lambda us, u: sum(1 << l for l, e in enumerate(us) if e == u)
    return ProcedureResult(
        n=13, copies=1, digit_len=2,
        crucial=tuple(CrucialPrime(p, 1, 0) for p, *_ in rows),
        solutions=tuple(zip(*(us for *_, us in rows))),
        rows=tuple(tuple(Cell(u, labels[u], _pair(p, labels[u], h1, h2), mask(us, u))
                         for u in dict.fromkeys(us))
                   for p, h1, h2, labels, us in rows),
    )


@pytest.fixture(scope="session")
def table_result():
    """Build a ProcedureResult from rows of made-up entry orders and cell cases."""
    return _table_result
