"""Endomorphism algebras of two-row permutation modules at p = 3.

Exact arithmetic for the commutative algebras acting on two-row permutation
modules of symmetric groups: base-3 digit combinatorics, the canonical basis
with its binomial structure constants, the characteristic-3 primitive
idempotents, the Young-module labelling of each summand, and a tensor-space
brute-force oracle that cross-checks all of it at desk scale.
"""

from .algebra import AlgebraContext, AlgebraElement, mul, structure_constant
from .decompose import (
    SummandRecord,
    VerificationReport,
    kostka,
    partitions_up_to,
    summands,
    two_row_partitions,
    verify_complete_set,
)
from .errors import ContextMismatchError, InvalidPrimeError, UnsupportedCharacteristicError
from .idempotents import (
    Factor,
    build,
    build_prefix,
    factor_element,
    factor_sequence_text,
    psi,
    psi_recursion_check,
    square_closed_form,
)
from .padic import (
    CarrySequence,
    DigitVector,
    big_b,
    carry_sequence,
    digits,
    factor_digits,
    lucas_binom,
    truncate_below,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext",
    "AlgebraElement",
    "CarrySequence",
    "ContextMismatchError",
    "DigitVector",
    "Factor",
    "InvalidPrimeError",
    "SummandRecord",
    "UnsupportedCharacteristicError",
    "VerificationReport",
    "big_b",
    "build",
    "build_prefix",
    "carry_sequence",
    "digits",
    "factor_digits",
    "factor_element",
    "factor_sequence_text",
    "kostka",
    "lucas_binom",
    "mul",
    "partitions_up_to",
    "psi",
    "psi_recursion_check",
    "square_closed_form",
    "structure_constant",
    "summands",
    "truncate_below",
    "two_row_partitions",
    "verify_complete_set",
]
