"""Concrete algebras: the two-dimensional GUE algebra and friends.

The GUE engine is built on the two-dimensional complex with generators
a (degree 1) and b (degree 2), pairing <a,b> = 1 and differential
da = b, all products zero.  Its suspension carries the dual coordinates
x = a* (degree 0) and xi = -b* (degree -1), normalized so that
{x,xi} = 1 = {xi,x} and d* xi = -x, d* x = 0.

``exterior_line`` (the unital algebra on 1 and an odd square-zero
generator) exercises the binary-product branch of the encoders.
"""

from functools import lru_cache

from .ainfinity import CyclicAInfinity, letter_differential, suspend
from .operators import OperatorContext
from .scalar import Scalar


@lru_cache(maxsize=None)
def algebra_a() -> CyclicAInfinity:
    """The two-dimensional algebra: <a,b> = 1, da = b, trivial products."""
    return CyclicAInfinity(
        basis=("a", "b"),
        degrees=(1, 2),
        pairing=((0, 1), (1, 0)),
        ops={1: {(0,): {1: Scalar(1)}}},
    )


@lru_cache(maxsize=None)
def sigma_a_space():
    """Suspension of the two-dimensional algebra in the x, xi coordinates."""
    return suspend(algebra_a(), names=("x", "xi"), scales=(1, -1))


@lru_cache(maxsize=None)
def sigma_a_context() -> OperatorContext:
    """Operator context over the suspension, with d* xi = -x declared."""
    space = sigma_a_space()
    return OperatorContext(space, letter_differential(algebra_a(), space))


@lru_cache(maxsize=None)
def exterior_line() -> CyclicAInfinity:
    """The unital algebra on generators 1 (even) and an odd e with e^2 = 0,
    pairing <1,e> = 1."""
    one, e = 0, 1
    ops = {
        2: {
            (one, one): {one: Scalar(1)},
            (one, e): {e: Scalar(1)},
            (e, one): {e: Scalar(1)},
            (e, e): {},
        }
    }
    return CyclicAInfinity(
        basis=("1", "e"),
        degrees=(0, 1),
        pairing=((0, 1), (1, 0)),
        ops=ops,
        unit=(1, 0),
    )
