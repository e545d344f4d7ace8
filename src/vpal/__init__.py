"""v-palindrome arithmetic: classification tables and brute-force verification.

A v-palindrome is a positive integer n with 10 not dividing n, n different
from its digit reversal r(n), and v(n) = v(r(n)), where v sums p + a over
prime-power divisors p**a with a >= 2 and p over primes of exponent 1. This
package classifies, for any eligible n, exactly which repeated concatenations
n(k) are v-palindromes, assigns each one its type, and verifies the
classification against direct factorization.
"""

from .digits import (
    decimal_string,
    digit_count,
    digits_of,
    parse_decimal,
    repeat_concat,
    repunit,
    reverse_digits,
)
from .factor import (
    Budget,
    BudgetExhausted,
    factorize,
    is_probable_prime,
    primes_up_to,
    v_of_factorization,
    v_value,
    valuation,
)
from .order import (
    repunit_order,
    repunit_order_rescaled,
    repunit_valuation,
    ten_power_valuation,
)
from .procedure import (
    CaseLabel,
    ConstraintPair,
    CrucialPrime,
    InvalidInput,
    NotAVPalindrome,
    ProcedureResult,
    crucial_primes,
    run_procedure,
    v_increment,
)
from .oracle import (
    VerificationReport,
    compare_procedure_oracle,
    corpus,
    eligible,
    literal_test,
    oracle_is_vpal,
    oracle_is_vpal_concat,
    sweep,
    verify_disjointness,
    verify_enumeration,
    verify_invariance,
    verify_lemmas,
)

__version__ = "0.1.0"
