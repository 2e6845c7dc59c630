"""Harer-Zagier closed form, recurrence and multi-trace sum relation.

The even single-trace moments satisfy

    I^N_{2k} = (2k)!/(2^k k!) sum_{m=0}^{k} 2^m C(k,m) C(N,m+1)

and, as polynomials in nu,

    (k+1) p_{2k} = (4k-2) nu p_{2k-2} + (k-1)(2k-1)(2k-3) p_{2k-4},

with p_0 = nu and p_2 = nu^2.  The multi-trace relation
sum_{i=1}^{2k-1} p_{i,2k-i} = p_{2k+2} - 2 nu p_{2k} comes from
splitting the cobracket of (x^{2k+1} xi) by arc length.
"""

from math import comb, factorial

from .nupoly import NuPolynomial
from .reduction import GueReducer, default_reducer
from .report import CheckReport, check_report
from .scalar import Scalar, div


MAX_K = 50  # the largest k_max the recurrence checks take from a flag


def check_k_max(k_max: int, flag: str) -> None:
    """Refuse, before any reduction, a k_max from ``flag`` below 2 or above
    MAX_K: every p_2k up to 2 k_max is reduced, and time and memory grow
    steeply with k_max."""
    if k_max < 2:
        raise ValueError(f"{flag} {k_max} must be at least 2")
    if k_max > MAX_K:
        raise ValueError(f"{flag} {k_max} exceeds the largest recurrence bound {MAX_K}")


def double_factorial(n: int) -> int:
    """(n)!! for odd n >= -1."""
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def harer_zagier_closed(k: int, size) -> Scalar:
    """The moment I^N_{2k} from the closed formula; exact in N."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    size = Scalar(size)
    prefactor = Scalar(factorial(2 * k), 2**k * factorial(k))
    total = 0
    binom = size  # C(N, m+1), carried from one m to the next
    for m in range(k + 1):
        total += 2**m * comb(k, m) * binom
        binom = div(binom * (size - m - 1), m + 2)
    return Scalar(prefactor * total)


def single_trace_polynomials(k_max: int, reducer: GueReducer | None = None):
    """[p_0, p_2, ..., p_{2 k_max}] with p_0 = nu."""
    reducer = reducer or default_reducer()
    return [reducer.reduce((2 * k,)) for k in range(k_max + 1)]


def hz_recurrence_check(k_max: int, reducer: GueReducer | None = None) -> CheckReport:
    """Assert the three-term recurrence exactly for 2 <= k <= k_max."""
    if k_max < 2:
        raise ValueError("the recurrence starts at k = 2")
    polys = single_trace_polynomials(k_max, reducer)

    def failures():
        for k in range(2, k_max + 1):
            lhs = polys[k].scale(k + 1)
            rhs = polys[k - 1].shift(1).scale(4 * k - 2) + polys[k - 2].scale(
                (k - 1) * (2 * k - 1) * (2 * k - 3)
            )
            if lhs != rhs:
                yield f"k={k}: (k+1)p_2k = {lhs} but rhs = {rhs}"

    return check_report("harer-zagier-recurrence", f"k <= {k_max}", failures())


def hz_closed_form_check(k_max: int, n_max: int, reducer: GueReducer | None = None) -> CheckReport:
    polys = single_trace_polynomials(k_max, reducer)

    def failures():
        for k in range(k_max + 1):
            for size in range(1, n_max + 1):
                if polys[k](size) != harer_zagier_closed(k, size):
                    yield (f"k={k}, N={size}: p={polys[k](size)} "
                           f"formula={harer_zagier_closed(k, size)}")

    return check_report("harer-zagier-closed-form", f"k <= {k_max}, N <= {n_max}", failures())


def catalan_leading_check(k_max: int, reducer: GueReducer | None = None) -> CheckReport:
    """Leading coefficient of p_2k is the k-th Catalan number; the next
    nonzero coefficient sits in degree k-1 (the torus stratum) and is
    positive."""
    polys = single_trace_polynomials(k_max, reducer)

    def failures():
        for k in range(1, k_max + 1):
            poly = polys[k]
            if poly.degree != k + 1 or poly.leading_coefficient() != catalan(k):
                yield f"k={k}: degree {poly.degree}, leading {poly.leading_coefficient()}"
            torus = poly.coeffs.get(k - 1, Scalar(0))
            if k >= 2 and torus <= 0:
                yield f"k={k}: torus-stratum coefficient {torus} is not positive"

    return check_report("catalan-leading-coefficient", f"k <= {k_max}", failures())


def multitrace_sum_check(k_max: int, reducer: GueReducer | None = None) -> CheckReport:
    """sum_{i=1}^{2k-1} p_{i,2k-i} = p_{2k+2} - 2 nu p_{2k}, exactly."""
    if k_max < 2:
        raise ValueError("the relation is checked from k = 2")
    reducer = reducer or default_reducer()

    def failures():
        for k in range(2, k_max + 1):
            lhs = NuPolynomial.zero()
            for i in range(1, 2 * k):
                lhs = lhs + reducer.reduce((i, 2 * k - i))
            rhs = reducer.reduce((2 * k + 2,)) - reducer.reduce((2 * k,)).shift(1).scale(2)
            if lhs != rhs:
                yield f"k={k}: lhs = {lhs}, rhs = {rhs}"

    return check_report("multitrace-sum-relation", f"k <= {k_max}", failures())


def all_ones_check(n_max: int, reducer: GueReducer | None = None) -> CheckReport:
    """p over 2n ones equals (2n-1)!! nu^n."""
    reducer = reducer or default_reducer()

    def failures():
        for n in range(1, n_max + 1):
            expected = NuPolynomial({n: Scalar(double_factorial(2 * n - 1))})
            got = reducer.reduce((1,) * (2 * n))
            if got != expected:
                yield f"n={n}: got {got}, want {expected}"

    return check_report("all-ones-double-factorial", f"n <= {n_max}", failures())
