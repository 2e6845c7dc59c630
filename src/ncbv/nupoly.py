"""Polynomials in the formal variable nu with exact coefficients."""

from collections.abc import Mapping

from .scalar import Scalar, _field, add_to, as_int, format_scalar, parse_scalar


def _exponent(exp) -> int:
    """The one check on an exponent from outside, made before it is summed."""
    exp = as_int(exp, "nu exponent")
    if exp < 0:
        raise ValueError("nu exponents are nonnegative")
    return exp


class NuPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[int, Scalar] = {}
        if coeffs:
            for exp, c in coeffs.items():
                add_to(self.coeffs, _exponent(exp), Scalar(c))

    @classmethod
    def zero(cls) -> "NuPolynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "NuPolynomial":
        return cls({0: Scalar(value)})

    @classmethod
    def nu(cls, power=1, coeff=1) -> "NuPolynomial":
        return cls({power: Scalar(coeff)})

    # Results of arithmetic on exact coefficients fill an empty polynomial
    # in place; only the constructor coerces outside input.

    def __add__(self, other: "NuPolynomial") -> "NuPolynomial":
        out = NuPolynomial()
        out.coeffs = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            add_to(out.coeffs, exp, c)
        return out

    def __neg__(self) -> "NuPolynomial":
        out = NuPolynomial()
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other: "NuPolynomial") -> "NuPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NuPolynomial):
            out = NuPolynomial()
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    add_to(out.coeffs, e1 + e2, c1 * c2)
            return out
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> "NuPolynomial":
        value = Scalar(value)
        out = NuPolynomial()
        if value:
            out.coeffs = {e: Scalar(value * c) for e, c in self.coeffs.items()}
        return out

    def shift(self, power: int) -> "NuPolynomial":
        """Multiply by nu^power."""
        if power < 0:
            raise ValueError("nu exponents are nonnegative")
        out = NuPolynomial()
        if power:
            out.coeffs = {e + power: c for e, c in self.coeffs.items()}
        else:
            out.coeffs = dict(self.coeffs)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, NuPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def leading_coefficient(self) -> Scalar:
        if not self.coeffs:
            return Scalar(0)
        return self.coeffs[self.degree]

    def __call__(self, value) -> Scalar:
        value = Scalar(value)
        total = 0
        for exp, c in self.coeffs.items():
            total += c * value**exp
        return Scalar(total)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for exp in sorted(self.coeffs, reverse=True):
            c = self.coeffs[exp]
            coeff = format_scalar(c)
            if exp == 0:
                bits.append(coeff)
            else:
                var = "nu" if exp == 1 else f"nu^{exp}"
                bits.append(var if c == 1 else f"-{var}" if c == -1 else f"{coeff}*{var}")
        return " + ".join(bits).replace("+ -", "- ")

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": {str(e): format_scalar(c) for e, c in sorted(self.coeffs.items())}}

    # Outside input may name one exponent twice (a repeated CSV line, or
    # JSON keys such as "1" and "01"); each is checked, then they are summed.

    @classmethod
    def from_json(cls, data: dict) -> "NuPolynomial":
        out = cls()
        for exp, c in _field(data, "coeffs", "the polynomial", Mapping).items():
            add_to(out.coeffs, _exponent(exp), parse_scalar(c))
        return out

    def to_csv(self) -> str:
        lines = ["exponent,numerator,denominator"]
        for exp in sorted(self.coeffs):
            c = self.coeffs[exp]
            lines.append(f"{exp},{c.numerator},{c.denominator}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "NuPolynomial":
        lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
        if not lines or lines[0] != "exponent,numerator,denominator":
            raise ValueError("missing or malformed CSV header")
        out = cls()
        for line in lines[1:]:
            exp, num, den = line.split(",")
            add_to(out.coeffs, _exponent(exp), parse_scalar(f"{num}/{den}"))
        return out
