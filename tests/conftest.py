import pytest

from vpal.procedure import _INTERVAL, CrucialPrime, ProcedureResult, Solved


def _allows(label, x: int) -> bool:
    lo, hi = _INTERVAL.get(label, (1, 0))  # case vii allows no x
    return lo <= x <= hi


def _table_result(*rows) -> ProcedureResult:
    # Each row is (p, h1, h2, labels, entries) for one made-up crucial prime p
    # with made-up entry orders h1 | h2: solution l takes entry entries[l], and
    # the cell of entry u has case labels[u]. The row's mask at x holds the
    # solutions whose cell's case allows x (case vii allows none), so two cells
    # of a row may share a case, and so a pair. With one row, the columns are
    # exactly that row's cells.
    entry_masks = tuple({u: sum(1 << l for l, e in enumerate(us) if e == u) for u in us}
                        for *_, us in rows)
    by_x = [tuple(sum(m for u, m in masks.items() if _allows(labels[u], x)) for x in (0, 1, 2))
            for (_, _, _, labels, _), masks in zip(rows, entry_masks)]
    return ProcedureResult.tabulate(
        13, 1, 2, tuple(CrucialPrime(p, 1, 0) for p, *_ in rows),
        Solved(tuple(zip(*(us for *_, us in rows))), entry_masks),
        by_x, lambda i, alpha: rows[i][alpha],
    )


@pytest.fixture(scope="session")
def table_result():
    """Build a ProcedureResult from rows of made-up entry orders and cell cases."""
    return _table_result
