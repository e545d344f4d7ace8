import pytest

from vpal.procedure import CrucialPrime, ProcedureResult


def _table_result(*rows) -> ProcedureResult:
    # Each row is (p, a, b, h1, h2): a crucial prime p with exponents a in n
    # and b in its reversal, so with its real increments and the real
    # solutions of all the rows, and made-up entry orders h1 | h2, read only
    # where some cell reads them.
    crucial = tuple(CrucialPrime(p, a, b) for p, a, b, _, _ in rows)
    return ProcedureResult.tabulate(13, 1, 2, crucial, lambda i, alpha: rows[i][2 + alpha])


@pytest.fixture(scope="session")
def table_result():
    """Build a ProcedureResult from rows of real increments and made-up entry orders."""
    return _table_result
