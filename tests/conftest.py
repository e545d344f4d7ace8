import pytest

from vpal.procedure import CaseLabel, Cell, CrucialPrime, ProcedureResult


def _table_result(*rows) -> ProcedureResult:
    # One made-up crucial prime per row. A cell's entry is the index of its
    # first occurrence as the same object in its row, so a shared object is one
    # cell of the row and an equal copy another; a cell's mask holds the
    # solutions that take its entry. With one row, the columns are exactly
    # that row's cells.
    entries = [[next(j for j, c in enumerate(row) if c is cell) for cell in row] for row in rows]
    mask = lambda us, u: sum(1 << l for l, e in enumerate(us) if e == u)
    return ProcedureResult(
        n=13, copies=1, digit_len=2,
        crucial=tuple(CrucialPrime(p, 1, 0) for p in (2, 3, 5, 7, 11)[:len(rows)]),
        solutions=tuple(zip(*entries)),
        rows=tuple(tuple(Cell(u, CaseLabel.VII, row[u], mask(us, u)) for u in dict.fromkeys(us))
                   for row, us in zip(rows, entries)),
    )


@pytest.fixture(scope="session")
def table_result():
    """Build a ProcedureResult whose constraint table has the given rows of cells."""
    return _table_result
