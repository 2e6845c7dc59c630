"""Exact scalars: rationals with arbitrary-precision integer parts.

The ground field is the rationals throughout; ``fractions.Fraction``
already keeps values in lowest terms with a positive denominator, so it
is used directly as the scalar type.  No floating point enters any
algebraic module (floats appear only in the Monte Carlo sampler).

Every sparse map from keys to exact coefficients stores nonzero values
only and is updated through ``add_to``.
"""

from fractions import Fraction

Scalar = Fraction

ZERO = Scalar(0)
ONE = Scalar(1)


def add_to(terms: dict, key, value: Scalar) -> None:
    """Add the exact ``value`` to ``terms[key]``; a zero sum deletes the key."""
    old = terms.get(key)
    total = value if old is None else old + value
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


def parse_scalar(text: str) -> Scalar:
    """Parse ``"3/4"`` or ``"-2"`` into a Scalar."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Scalar(int(num), int(den))
    return Scalar(int(text))


def format_scalar(value: Scalar) -> str:
    """Format a Scalar as ``"3/4"`` or ``"-2"`` (denominator 1 omitted)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
