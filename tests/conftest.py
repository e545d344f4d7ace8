import pytest

from vpal.procedure import CaseLabel, CrucialPrime, ProcedureResult


def _table_result(*rows) -> ProcedureResult:
    # One made-up crucial prime per row. A cell's entry is the index of its
    # first occurrence as the same object in its row, so a shared object is one
    # cell of the row and an equal copy another. With one row, the columns are
    # exactly that row's cells.
    entries = [[next(j for j, c in enumerate(row) if c is cell) for cell in row] for row in rows]
    return ProcedureResult.from_tables(
        n=13, copies=1, digit_len=2,
        crucial=tuple(CrucialPrime(p, 1, 0) for p in (2, 3, 5, 7, 11)[:len(rows)]),
        solutions=tuple(zip(*entries)),
        case_table=tuple(tuple(CaseLabel.VII for _ in row) for row in rows),
        constraint_table=tuple(tuple(row) for row in rows),
    )


@pytest.fixture(scope="session")
def table_result():
    """Build a ProcedureResult whose constraint table has the given rows of cells."""
    return _table_result
