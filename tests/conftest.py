import pytest

from vpal.procedure import CaseLabel, CrucialPrime, ProcedureResult


def _table_result(*rows) -> ProcedureResult:
    # One made-up crucial prime per row; solution l is (l,). With one row,
    # the columns are exactly that row's cells.
    return ProcedureResult(
        n=13, copies=1, digit_len=2,
        crucial=tuple(CrucialPrime(p, 1, 0) for p in (2, 3, 5, 7, 11)[:len(rows)]),
        solutions=tuple((l,) for l in range(len(rows[0]))),
        case_table=tuple(tuple(CaseLabel.VII for _ in row) for row in rows),
        constraint_table=tuple(tuple(row) for row in rows),
    )


@pytest.fixture(scope="session")
def table_result():
    """Build a ProcedureResult whose constraint table has the given rows of cells."""
    return _table_result
