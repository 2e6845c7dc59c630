"""Odd symplectic spaces and the inverse pairing."""

import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from ncbv import GradedSymplecticSpace, Scalar, hyperbolic_space, matrix_frobenius
from ncbv.algebras import sigma_a_space
from ncbv.morita import MatrixExtension
from ncbv.space import _solve
from ncbv.verify import random_space
from test_exact_scalars import is_exact

Matrix = tuple[tuple[Scalar, ...], ...]


def dense(form) -> Matrix:
    """A form's rows {j: entry} as the n x n table the references below take."""
    n = len(form)
    return tuple(tuple(row.get(j, 0) for j in range(n)) for row in form)


def invert_matrix(rows: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(rows)
    aug = [list(row) + [Scalar(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular pairing: matrix is not invertible")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [entry * inv for entry in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def inverse_pairing(pairing: Matrix, degrees) -> Matrix:
    """Inverse form on letters: P^{-1} times the degree-sign diagonal."""
    pinv = invert_matrix(tuple(tuple(Scalar(entry) for entry in row) for row in pairing))
    n = len(pinv)
    return tuple(
        tuple(pinv[i][j] * (1 if degrees[j] % 2 == 0 else -1) for j in range(n))
        for i in range(n)
    )


def dense_reference(letters, degrees, pairing, inverse=None):
    """The dense checks the constructor made before it went sparse,
    loop for loop: every entry of the pairing and of the inverse is
    visited, and a supplied inverse is trusted apart from symmetry.
    Returns the inverse or raises as that constructor did."""
    n = len(letters)
    if len(set(letters)) != n:
        raise ValueError("letter names must be distinct")
    if len(degrees) != n or len(pairing) != n:
        raise ValueError("letters, degrees and pairing sizes disagree")
    pairing = tuple(tuple(Scalar(entry) for entry in row) for row in pairing)
    for i in range(n):
        for j in range(n):
            entry = pairing[i][j]
            if entry != 0 and (degrees[i] + degrees[j]) % 2 == 0:
                raise ValueError(
                    f"pairing <{letters[i]},{letters[j]}> is nonzero "
                    "on an even-degree pair; the form must have odd degree"
                )
            if entry != -pairing[j][i]:
                raise ValueError("pairing must be antisymmetric")
    if inverse is None:
        inverse = inverse_pairing(pairing, degrees)
    inv = inverse
    for i in range(n):
        for j in range(n):
            if inv[i][j] != inv[j][i]:
                raise ValueError("inverse pairing failed its symmetry check")
    return inverse


def verdict(build):
    try:
        return "accepted", build()
    except Exception as exc:  # the exception type is part of the verdict
        return type(exc), None


def perturbations(space, rng):
    """Seeded defective (and a few valid) variants of ``space.pairing``:
    flipped signs, even-degree support, asymmetric entries, zeroed pairs."""
    n = space.dim
    pairing = dense(space.pairing)
    nonzero = [(i, j) for i in range(n) for j in range(n) if pairing[i][j]]
    same_parity = [
        (i, j) for i in range(n) for j in range(n) if space.parities[i] == space.parities[j]
    ]
    value = Scalar(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))

    def edited(*cells):
        rows = [list(row) for row in pairing]
        for (i, j), entry in cells:
            rows[i][j] = entry
        return rows

    i, j = rng.choice(nonzero)
    yield edited(((i, j), -pairing[i][j]))  # one sign flipped
    yield edited(((i, j), -pairing[i][j]), ((j, i), pairing[i][j]))  # both
    k, l = rng.choice(same_parity)
    yield edited(((k, l), value), ((l, k), -value))  # even-degree support
    yield edited(((k, l), value))  # even-degree support, one-sided
    k, l = rng.randrange(n), rng.randrange(n)
    yield edited(((k, l), pairing[k][l] + value))  # asymmetric entry
    yield edited(((i, j), 0), ((j, i), 0))  # zeroed pair
    yield edited(((i, j), 0))  # zeroed on one side


def assert_same_verdicts(space, rng):
    for rows in [dense(space.pairing), *perturbations(space, rng)]:
        old = verdict(lambda: dense_reference(space.letters, space.degrees, rows))
        new = verdict(
            lambda: dense(GradedSymplecticSpace(space.letters, space.degrees, rows).inverse))
        assert old == new


def test_sigma_a_inverse_is_symmetric_unit():
    space = sigma_a_space()
    x, xi = space.index("x"), space.index("xi")
    assert space.inverse[x][xi] == 1
    assert space.inverse[xi][x] == 1
    assert x not in space.inverse[x]
    assert xi not in space.inverse[xi]


def test_commuting_triangle_definition():
    """<u,v> = <.,.>^{-1}(D_l u (x) D_r v) with the Koszul sign of the
    odd map D_r passing u."""
    space = sigma_a_space()
    n = space.dim
    pairing, inverse = dense(space.pairing), dense(space.inverse)
    for i in range(n):
        for j in range(n):
            total = Scalar(0)
            for k in range(n):
                for l in range(n):
                    total += pairing[i][k] * inverse[k][l] * pairing[l][j]
            sign = -1 if space.degrees[i] % 2 else 1
            # letters carry minus the basis degree; mod 2 they agree
            assert sign * total == pairing[i][j]


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
                    entry = dense(space.inverse)[ext.encode(x, p, q)][ext.encode(xi, r, s)]
                    expected = base.inverse[x][xi] if (r, s) == (q, p) else Scalar(0)
                    assert entry == expected


@pytest.mark.parametrize("size", [1, 2, 3])
def test_decorated_inverse_matches_gauss_jordan(size):
    """The extension's inverse, the decorated base inverse, against dense
    Gauss-Jordan on the full decorated pairing."""
    rng = random.Random(59 + size)
    for base in [sigma_a_space()] + [random_space(rng) for _ in range(4)]:
        space = MatrixExtension(base, size).space
        assert dense(space.inverse) == inverse_pairing(dense(space.pairing), space.degrees)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_decorated_inverse_matches_the_sparse_solve(size):
    """The supplied trace_tensor of the base inverse is the inverse the
    space would have solved for itself."""
    rng = random.Random(61 + size)
    for base in [sigma_a_space()] + [random_space(rng) for _ in range(8)]:
        space = MatrixExtension(base, size).space
        assert space.inverse == _solve(space.pairing, space.parities)


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


def test_sparse_checks_match_dense_reference_on_random_spaces():
    rng = random.Random(71)
    for _ in range(60):
        assert_same_verdicts(random_space(rng), rng)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_sparse_checks_match_dense_reference_on_matrix_spaces(size):
    rng = random.Random(73 + size)
    for base in [sigma_a_space()] + [random_space(rng) for _ in range(6 // size)]:
        assert_same_verdicts(MatrixExtension(base, size).space, rng)


def test_hyperbolic_inverse_matches_gauss_jordan():
    rng = random.Random(79)
    for _ in range(240):
        space = random_space(rng)
        assert dense(space.inverse) == inverse_pairing(dense(space.pairing), space.degrees)


def test_zero_hyperbolic_coefficient_rejected():
    with pytest.raises(ValueError, match=r"\(c, d\) has coefficient zero"):
        hyperbolic_space([(("a", 0), ("b", 1), 1), (("c", 1), ("d", 2), 0)])


@pytest.mark.parametrize("size", [1, 2, 3])
def test_perturbed_decorated_inverse_rejected(size):
    rng = random.Random(83 + size)
    space = MatrixExtension(random_space(rng), size).space
    n = space.dim
    for _ in range(10):
        i, j = rng.randrange(n), rng.randrange(n)
        rows = [list(row) for row in dense(space.inverse)]
        rows[i][j] = rows[j][i] = rows[i][j] + rng.choice([1, -1, Scalar(1, 2)])
        # symmetric, so only the P . B check can catch it; the dense
        # constructor trusted it
        dense_reference(space.letters, space.degrees, dense(space.pairing), rows)
        with pytest.raises(ValueError, match="not the inverse"):
            GradedSymplecticSpace(space.letters, space.degrees, space.pairing, inverse=rows)
        rows[i][j] += 1
        if i != j:
            with pytest.raises(ValueError, match="symmetry"):
                GradedSymplecticSpace(space.letters, space.degrees, space.pairing, inverse=rows)


def test_malformed_inverse_shape_rejected():
    space = sigma_a_space()
    with pytest.raises(ValueError, match="row of 1 entries"):
        GradedSymplecticSpace(space.letters, space.degrees, space.pairing, inverse=((1,), (1,)))


def outcome(build):
    try:
        return "accepted", build()
    except ValueError as exc:
        return "rejected", str(exc)


def test_sparse_solve_matches_dense_gauss_jordan_on_rational_pairings():
    """Odd pairings with random rational entries: the zero diagonal forces
    row swaps and the dense blocks fill in.  The sparse solve returns the
    dense reference's rationals exactly, each an int when integral and a
    Fraction otherwise, and its message when singular (unequal parity
    counts, or a rank-deficient block)."""
    rng = random.Random(89)
    verdicts = set()
    for trial in range(200):
        k = rng.randint(1, 4)
        parities = [0] * k + [1] * (k + (trial % 6 == 0))
        rng.shuffle(parities)
        degrees = tuple(p + 2 * rng.randint(-1, 1) for p in parities)
        n = len(degrees)
        rows = [[Scalar(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if parities[i] != parities[j] and rng.random() < 0.6:
                    value = Scalar(rng.randint(-3, 3), rng.randint(1, 4))
                    rows[i][j], rows[j][i] = value, -value
        letters = tuple(f"e{i}" for i in range(n))
        want = outcome(lambda: inverse_pairing(rows, degrees))
        got = outcome(lambda: dense(GradedSymplecticSpace(letters, degrees, rows).inverse))
        assert got == want
        if got[0] == "accepted":
            assert all(is_exact(entry) for row in got[1] for entry in row)
        verdicts.add(got[0])
    assert verdicts == {"accepted", "rejected"}


@pytest.mark.parametrize("scales", [(1,), (0, 1), (1, 1, 1)])
def test_dual_scales_are_nonzero_one_per_letter(scales):
    with pytest.raises(ValueError, match="dual_scales"):
        GradedSymplecticSpace(("a", "b"), (0, 1), ((0, 1), (-1, 0)), dual_scales=scales)


def entries(form):
    return sum(len(row) for row in form)


def dense_decoration(pairing: Matrix, size: int) -> Matrix:
    """The trace-form decoration laid out densely: <(i,p,q),(j,q,p)> = <i,j>."""
    n = len(pairing)
    cells = [(i, p, q) for i in range(n) for p in range(size) for q in range(size)]
    return tuple(tuple(pairing[i][j] if (r, s) == (q, p) else Scalar(0) for j, r, s in cells)
                 for i, p, q in cells)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_decorated_pairing_holds_its_nonzero_entries(size):
    """Each nonzero of the base pairing gives exactly N^2 entries of the
    decorated Form, and the Form is the dense decoration's nonzeros."""
    rng = random.Random(97 + size)
    for base in [sigma_a_space()] + [random_space(rng) for _ in range(4)]:
        space = MatrixExtension(base, size).space
        assert entries(space.pairing) == size * size * entries(base.pairing)
        assert dense(space.pairing) == dense_decoration(dense(base.pairing), size)
        assert all(entry for row in (*space.pairing, *space.inverse) for entry in row.values())


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_matrix_frobenius_pairing_has_one_entry_per_basis_vector(size):
    assert entries(matrix_frobenius(size).pairing) == size * size


def test_dense_and_sparse_rows_build_the_same_space():
    rng = random.Random(101)
    for base in [sigma_a_space()] + [random_space(rng) for _ in range(20)]:
        for space in (base, MatrixExtension(base, 2).space):
            scales = space.dual_scales
            from_rows = GradedSymplecticSpace(space.letters, space.degrees, dense(space.pairing),
                                              dual_scales=scales)
            from_form = GradedSymplecticSpace(space.letters, space.degrees, space.pairing,
                                              dual_scales=scales)
            assert from_rows == from_form == space
            assert hash(from_rows) == hash(from_form) == hash(space)
            assert from_rows.inverse == from_form.inverse == space.inverse


def test_mutating_the_callers_rows_leaves_the_space_unchanged():
    rows = [{1: Scalar(1)}, {0: Scalar(-1)}]
    inverse = [{1: Scalar(1)}, {0: Scalar(1)}]
    space = GradedSymplecticSpace(("a", "b"), (0, 1), rows, inverse=inverse)
    rows[0][1] = Scalar(5)
    rows[1].clear()
    inverse[0][0] = Scalar(2)
    assert space.pairing == ({1: 1}, {0: -1})
    assert space.inverse == ({1: 1}, {0: 1})
    assert dense(space.pairing) == ((0, 1), (-1, 0))


@pytest.mark.parametrize("column", [-1, 2, True])
def test_mapping_row_column_out_of_range_rejected(column):
    message = rf"pairing row has column {column!r} outside 0\.\.1"
    with pytest.raises(ValueError, match=message):
        GradedSymplecticSpace(("a", "b"), (0, 1), ({1: 1}, {0: -1, column: 1}))
    with pytest.raises(ValueError, match="inverse " + message):
        GradedSymplecticSpace(("a", "b"), (0, 1), ({1: 1}, {0: -1}),
                              inverse=({column: 1}, {0: 1}))


def test_mapping_proxy_rows_are_accepted():
    rows = (MappingProxyType({1: 1}), MappingProxyType({0: -1}))
    inverse = (MappingProxyType({1: 1}), MappingProxyType({0: 1}))
    space = GradedSymplecticSpace(("a", "b"), (0, 1), rows, inverse=inverse)
    assert space == GradedSymplecticSpace(("a", "b"), (0, 1), ((0, 1), (-1, 0)))
    assert space.pairing == ({1: 1}, {0: -1}) and space.inverse == ({1: 1}, {0: 1})
    assert all(type(row) is dict for row in space.pairing + space.inverse)


@pytest.mark.parametrize("column", [-1, 2, True])
def test_mapping_proxy_row_column_out_of_range_rejected(column):
    message = rf"pairing row has column {column!r} outside 0\.\.1"
    with pytest.raises(ValueError, match=message):
        GradedSymplecticSpace(("a", "b"), (0, 1),
                              ({1: 1}, MappingProxyType({0: -1, column: 1})))
    with pytest.raises(ValueError, match="inverse " + message):
        GradedSymplecticSpace(("a", "b"), (0, 1), ({1: 1}, {0: -1}),
                              inverse=(MappingProxyType({column: 1}), {0: 1}))


@pytest.mark.parametrize("degree", [0.5, "0.5", True, None])
def test_non_integral_degree_rejected(degree):
    data = sigma_a_space().to_json()
    data["letters"][0]["degree"] = degree
    with pytest.raises(ValueError, match="letter degree must be an integer"):
        GradedSymplecticSpace.from_json(data)


def test_non_integral_degrees_rejected_by_the_constructor():
    with pytest.raises(ValueError, match="letter degree must be an integer, got 0.5"):
        GradedSymplecticSpace(("a", "b"), (0.5, 1.5), ((0, 1), (-1, 0)))
    data = sigma_a_space().to_json()
    data["letters"][1]["degree"] = "-1"
    assert GradedSymplecticSpace.from_json(data) == sigma_a_space()


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: GradedSymplecticSpace(("a", "b"), (0,), ((0, 1), (-1, 0))),
                 "basis and degrees sizes disagree", id="degree-count"),
    pytest.param(lambda: sigma_a_space().index("nope"), "unknown letter 'nope'",
                 id="unknown-letter"),
])
def test_space_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
