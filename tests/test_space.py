"""Odd symplectic spaces and the inverse pairing."""

import random

import pytest

from ncbv import GradedSymplecticSpace, Scalar, inverse_pairing
from ncbv.algebras import sigma_a_space
from ncbv.morita import MatrixExtension
from ncbv.verify import random_space


def test_sigma_a_inverse_is_symmetric_unit():
    space = sigma_a_space()
    x, xi = space.index("x"), space.index("xi")
    assert space.inverse[x][xi] == 1
    assert space.inverse[xi][x] == 1
    assert space.inverse[x][x] == 0
    assert space.inverse[xi][xi] == 0


def test_commuting_triangle_definition():
    """<u,v> = <.,.>^{-1}(D_l u (x) D_r v) with the Koszul sign of the
    odd map D_r passing u."""
    space = sigma_a_space()
    n = space.dim
    for i in range(n):
        for j in range(n):
            total = Scalar(0)
            for k in range(n):
                for l in range(n):
                    total += space.pairing[i][k] * space.inverse[k][l] * space.pairing[l][j]
            sign = -1 if space.degrees[i] % 2 else 1
            # letters carry minus the basis degree; mod 2 they agree
            assert sign * total == space.pairing[i][j]


def test_block_pairing_inverse_combines_trace_inverse():
    """Over V (x) Mat_N the inverse pairs (l;p,q) with (l';q,p) through
    the base inverse: the matrix side is sum E_ij (x) E_ji."""
    base = sigma_a_space()
    ext = MatrixExtension(base, 2)
    space = ext.space
    x, xi = 0, 1
    for p in range(2):
        for q in range(2):
            for r in range(2):
                for s in range(2):
                    entry = space.inverse[ext.encode(x, p, q)][ext.encode(xi, r, s)]
                    expected = base.inverse[x][xi] if (r, s) == (q, p) else Scalar(0)
                    assert entry == expected


@pytest.mark.parametrize("size", [1, 2, 3])
def test_decorated_inverse_matches_gauss_jordan(size):
    """The extension's inverse is decorated from the base inverse, not
    solved; Gauss-Jordan on the full pairing is the reference."""
    rng = random.Random(59 + size)
    for base in [sigma_a_space()] + [random_space(rng) for _ in range(4)]:
        space = MatrixExtension(base, size).space
        assert space.inverse == inverse_pairing(space.pairing, space.degrees)


def test_singular_pairing_rejected():
    with pytest.raises(ValueError, match="singular|antisymmetric"):
        GradedSymplecticSpace(("a", "b"), (0, 1), ((0, 0), (0, 0)))


def test_even_support_rejected():
    with pytest.raises(ValueError, match="odd degree"):
        GradedSymplecticSpace(("a", "b"), (0, 2), ((0, 1), (-1, 0)))


def test_non_antisymmetric_rejected():
    with pytest.raises(ValueError, match="antisymmetric"):
        GradedSymplecticSpace(("a", "b"), (0, 1), ((0, 1), (1, 0)))


def test_space_json_roundtrip():
    space = sigma_a_space()
    clone = GradedSymplecticSpace.from_json(space.to_json())
    assert clone == space
    assert clone.inverse == space.inverse
