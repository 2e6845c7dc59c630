"""Exact scalars: ``int`` when integral, a reduced ``Fraction`` otherwise.

The ground field is the rationals throughout.  Almost every exact value
in the package (GUE coefficients, loop-equation tables, Mat_N structure
constants, decorated pairings) is an integer, and ``int`` arithmetic is
far cheaper than ``fractions.Fraction``'s, so a scalar is held as an
``int`` whenever it is integral and as a ``Fraction`` with denominator
> 1 only when it is not.  Python mixes the two exactly, an ``int`` and
an integral ``Fraction`` compare and hash equal, and ``format_scalar``
prints both the same way, so the representation never shows in output.
No floating point enters any algebraic module (floats appear only in
the Monte Carlo sampler and ``MultiTraceFunctional.evaluate``).

``Scalar(value, den=1)`` is the one constructor and normalizer: it
returns value/den exactly, as an ``int`` when integral.  ``int / int``
is a float, so ``div`` is the one exact division.  A product of scalars
may be an integral ``Fraction`` (2 * 1/2); results that are not summed
through ``add_to`` pass through ``Scalar``.

Every sparse map from keys to exact coefficients stores nonzero values
only and is updated through ``add_to``, which also turns a sum whose
denominator becomes 1 back into an ``int``.

``_field`` is the one reader of a field of outside JSON, for every
``from_json`` in the package, so it sits here, below them all.
"""

from collections.abc import Mapping
from fractions import Fraction

ZERO = 0
ONE = 1


def Scalar(value=0, den=1):
    """The exact rational value/den: an ``int`` when integral, else a
    reduced ``Fraction``.  Accepts ints, Fractions, other rationals,
    decimal strings and floats (taken exactly), as ``Fraction`` does."""
    if den == 1:
        if type(value) is int:
            return value
        if type(value) is not Fraction:
            value = Fraction(value)
    else:
        value = Fraction(value, den)
    return value.numerator if value.denominator == 1 else value


def div(num, den):
    """The exact quotient num / den of two scalars; a zero ``den`` raises
    ``ZeroDivisionError``."""
    if type(num) is int and type(den) is int and den and not num % den:
        return num // den
    return Scalar(num, den)


def add_to(terms: dict, key, value) -> None:
    """Add the exact ``value`` to ``terms[key]``; a zero sum deletes the
    key, and an integral sum is stored as an ``int``."""
    old = terms.get(key)
    total = value if old is None else old + value
    if not total:
        terms.pop(key, None)
    elif type(total) is int or total.denominator != 1:
        terms[key] = total
    else:
        terms[key] = total.numerator


def parse_scalar(text):
    """Read ``"3/4"``, ``"-2"`` or a JSON integer (not a ``bool``) as a
    scalar; another value or a zero denominator raises ``ValueError``."""
    if type(text) is int:
        return text
    if not isinstance(text, str):
        raise ValueError(f"a scalar must be a string or an integer, got {text!r}")
    num, slash, den = text.strip().partition("/")
    den = int(den) if slash else 1
    if not den:
        raise ValueError(f"zero denominator in {text.strip()!r}")
    return Scalar(int(num), den)


def as_int(value, what: str) -> int:
    """The one check on an exponent, degree or index from outside input:
    ints, integral numbers and decimal-integer strings (``"01"`` is 1)
    read as ``int`` reads them; a boolean or a non-integral value raises
    ``ValueError`` naming ``what``."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            out = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if isinstance(value, str) or out == value:
                return out
    raise ValueError(f"{what} must be an integer, got {value!r}")


_REQUIRED = object()


def _field(data, key: str, what: str, kind=object, default=_REQUIRED, each=None):
    """``data[key]`` of the JSON object ``what``, the one reader of a field of
    outside JSON.  A field that is missing, not a ``kind``, or a list with an
    item that is not an ``each`` (when given) raises ``ValueError`` naming the object and
    the field; an optional field, one given a ``default``, reads as the
    default when missing, and as None when null if the default is None."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} is not a JSON object")
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"{what} has no field {key!r}")
        return default
    value = data[key]
    if value is None and default is None:
        return value
    if not isinstance(value, kind):
        raise ValueError(f"{what} field {key!r} must be a {kind.__name__}, "
                         f"not {type(value).__name__}")
    if each is not None:
        for i, item in enumerate(value):
            if not isinstance(item, each):
                raise ValueError(f"{what} field {key!r} item {i} must be a {each.__name__}, "
                                 f"not {type(item).__name__}")
    return value


def format_scalar(value) -> str:
    """Format a scalar as ``"3/4"`` or ``"-2"`` (denominator 1 omitted)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
