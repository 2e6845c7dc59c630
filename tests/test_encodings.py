"""Structure encodings, matrix extensions and the trace maps."""

import random

import pytest

from ncbv import (
    COMMUTATIVE,
    CYCLIC,
    CyclicAInfinity,
    Element,
    MatrixExtension,
    OperatorContext,
    Scalar,
    encode_ainfinity,
    encode_commutator_linfinity,
    matrix_ainfinity,
    sigma,
    sigma_K,
    suspend,
    suspend_matrix,
)
from ncbv.algebras import algebra_a, exterior_line, sigma_a_space
from ncbv.words import Monomial

A = algebra_a()
SPACE = sigma_a_space()


def test_encode_is_half_x_squared():
    m_tilde = encode_ainfinity(A, SPACE)
    assert m_tilde == Element.cyclic_word(SPACE, ["x", "x"], Scalar(1, 2))
    ctx = OperatorContext(SPACE)
    assert ctx.nc_bracket(m_tilde, m_tilde).is_zero()


def test_encode_rejects_broken_cyclicity():
    with pytest.raises(ValueError, match="cyclic"):
        CyclicAInfinity(
            basis=("a", "b"),
            degrees=(1, 2),
            pairing=((0, 1), (1, 0)),
            ops={1: {(0,): {1: Scalar(1)}, (1,): {0: Scalar(1)}}},
        )


def form_entries(rows):
    """Dense rows in the JSON layout of a form: row i as the entry
    {"args": [i], "out": {j: c}}, every entry kept."""
    return [{"args": [i], "out": {str(j): str(c) for j, c in enumerate(row)}}
            for i, row in enumerate(rows)]


ENTRY_MESSAGES = {"pairing row has 3 entries": "the pairing has index 2, which leaves",
                  "pairing row has 1 entries": "pairing must be symmetric",
                  "the pairing has 1 entries": "pairing must be symmetric"}


@pytest.mark.parametrize(
    "pairing,match",
    [
        (((0, 1, 5), (1, 0)), "pairing row has 3 entries"),
        (((0,), (1, 0)), "pairing row has 1 entries"),
        (((0, 1),), "the pairing has 1 entries"),
        (((0, 1), (2, 0)), "pairing must be symmetric"),
        (((1, 1), (1, 0)), "even-degree pair"),
        (((0, 0), (0, 0)), "singular pairing"),
    ],
)
def test_cyclic_algebra_rejects_bad_pairings(pairing, match):
    """The constructor and ``from_json`` refuse the same pairings.  In JSON
    a row is one arity-one entry and has no length, so a ragged row reads
    as a column outside the basis or as a missing entry."""
    with pytest.raises(ValueError, match=match):
        CyclicAInfinity(("a", "b"), (1, 2), pairing, {})
    data = {"basis": [{"name": "a", "degree": 1}, {"name": "b", "degree": 2}],
            "pairing": form_entries(pairing), "ops": {}}
    with pytest.raises(ValueError, match=ENTRY_MESSAGES.get(match, match)):
        CyclicAInfinity.from_json(data)


def test_cyclic_algebra_rejects_duplicate_basis_names():
    with pytest.raises(ValueError, match="letter names must be distinct"):
        CyclicAInfinity(("a", "a"), (1, 2), ((0, 1), (1, 0)), {})
    data = {"basis": [{"name": "a", "degree": 1}, {"name": "a", "degree": 2}],
            "pairing": form_entries([[0, 1], [1, 0]]), "ops": {}}
    with pytest.raises(ValueError, match="letter names must be distinct"):
        CyclicAInfinity.from_json(data)


@pytest.mark.parametrize("scales", [(0, 1), (1,)])
def test_suspend_rejects_bad_scales(scales):
    with pytest.raises(ValueError, match="dual_scales"):
        suspend(A, scales=scales)


def test_matrix_size_zero_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        matrix_ainfinity(A, 0)
    with pytest.raises(ValueError, match="at least 1"):
        MatrixExtension(SPACE, 0)


def test_matrix_size_one_is_the_algebra():
    mat1 = matrix_ainfinity(A, 1)
    assert mat1.degrees == A.degrees
    assert mat1.pairing == A.pairing
    assert mat1.structure_tensor(1) == A.structure_tensor(1)


def test_matrix_two_is_eight_dimensional_with_defect_zero():
    mat = matrix_ainfinity(A, 2)
    assert mat.dim == 8
    mat_space = suspend_matrix(A, 2, names=("x", "xi"), scales=(1, -1))
    encoded = encode_ainfinity(mat, mat_space)
    assert OperatorContext(mat_space).mc_defect(encoded).is_zero()


def test_matrix_pairing_off_diagonal_units():
    mat = matrix_ainfinity(A, 2)
    a_e12 = mat.basis.index("a[0,1]")
    b_e21 = mat.basis.index("b[1,0]")
    assert mat.pairing[a_e12][b_e21] == 1  # <a,b> Tr(E12 E21) = 1
    b_e12 = mat.basis.index("b[0,1]")
    assert b_e12 not in mat.pairing[a_e12]


def test_sigma_flattens_words():
    cubic = Element.cyclic_word(SPACE, ["x", "x", "x"])
    assert sigma(cubic) == Element.poly_letters(SPACE, ["x", "x", "x"])
    nu_x = Element.from_terms(SPACE, CYCLIC, [(0, 1, [[0]], 1)])
    assert sigma(nu_x) == Element.poly_letters(SPACE, "x")


def test_sigma_kills_odd_squares():
    squared = Element.cyclic_word(SPACE, ["xi", "x", "xi"])
    assert not squared.is_zero()
    assert sigma(squared).is_zero()


def test_sigma_k_weights():
    gamma_word = Element(SPACE, CYCLIC, {Monomial(1, 0, ((0, 0),)): Scalar(1)})
    assert sigma_K(gamma_word) == {2: Element.poly_letters(SPACE, ["x", "x"])}
    two_words = Element.cyclic_word(SPACE, ["x", "x"]) * Element.cyclic_word(SPACE, "x")
    assert sigma_K(two_words) == {1: Element.poly_letters(SPACE, ["x", "x", "x"])}
    # the bare nu monomial is one empty word: weight 2i+j+n-1 = 0
    assert sigma_K(Element.nu_power(SPACE, 1)) == {0: Element.unit(SPACE, COMMUTATIVE)}
    with pytest.raises(ValueError, match="at least one word"):
        sigma_K(Element.unit(SPACE, CYCLIC))


def test_morita_scales_nu():
    for size in (1, 2, 3):
        ext = MatrixExtension(SPACE, size)
        assert ext.inflate(Element.nu_power(SPACE, 1)) == Element.nu_power(ext.space, 1, size)


def test_morita_restriction_inverts_inflation():
    rng = random.Random(31)
    from ncbv.verify import random_cyclic_element, random_space

    for _ in range(40):
        base = random_space(rng)
        ext = MatrixExtension(base, rng.choice([2, 3]))
        element = random_cyclic_element(rng, base, max_words=2, max_len=3, allow_nu=False)
        assert ext.restrict(ext.inflate(element)) == element


def test_morita_restriction_kills_off_corner():
    ext = MatrixExtension(SPACE, 2)
    off = Element.cyclic_word(ext.space, [ext.encode(0, 0, 1), ext.encode(0, 1, 0)])
    assert ext.restrict(off).is_zero()


def test_morita_restriction_linear_over_nu_gamma():
    ext = MatrixExtension(SPACE, 2)
    corner = Element.from_terms(
        ext.space, CYCLIC, [(2, 3, [[ext.encode(0, 0, 0)]], Scalar(5, 2))]
    )
    expected = Element.from_terms(SPACE, CYCLIC, [(2, 3, [[0]], Scalar(5, 2))])
    assert ext.restrict(corner) == expected


def test_morita_cobracket_intertwine_at_two():
    ext = MatrixExtension(SPACE, 2)
    ctx = OperatorContext(SPACE)
    ctx_mat = OperatorContext(ext.space)
    for letters in (["x", "xi"], ["x", "x", "x", "xi"], ["x", "xi", "x", "xi"]):
        e = Element.cyclic_word(SPACE, letters)
        assert ext.inflate(ctx.nc_cobracket(e)) == ctx_mat.nc_cobracket(ext.inflate(e))


def test_morita_exchanges_encodings():
    """The matrix space equals the suspension of the matrix algebra with
    names and scales decorated by hand, and M/R swap the encodings."""
    cases = [(A, ("x", "xi"), (1, -1)), (exterior_line(), ("u", "e"), (1, 1))]
    for algebra, names, scales in cases:
        base = suspend(algebra, names, scales)
        m_base = encode_ainfinity(algebra, base)
        for size in (1, 2, 3):
            cells = [(p, q) for p in range(size) for q in range(size)]
            mat = matrix_ainfinity(algebra, size)
            reference = suspend(
                mat,
                [f"{name}[{p},{q}]" for name in names for p, q in cells],
                [scale for scale in scales for _ in cells],
            )
            mat_space = suspend_matrix(algebra, size, names=names, scales=scales)
            for field in ("letters", "degrees", "pairing", "inverse", "dual_scales"):
                assert getattr(mat_space, field) == getattr(reference, field), (field, size)
            ext = MatrixExtension(base, size)
            m_mat = encode_ainfinity(mat, mat_space)
            assert ext.inflate(m_base) == m_mat
            assert ext.restrict(m_mat) == m_base


def test_sigma_of_encoding_is_commutator_encoding():
    assert sigma(encode_ainfinity(A, SPACE)) == encode_commutator_linfinity(A, SPACE)
    mat = matrix_ainfinity(A, 2)
    mat_space = suspend_matrix(A, 2, names=("x", "xi"), scales=(1, -1))
    assert sigma(encode_ainfinity(mat, mat_space)) == encode_commutator_linfinity(mat, mat_space)


def test_commutator_encoding_keeps_the_curvature():
    curved = CyclicAInfinity(("a", "b"), (1, 2), ((0, 1), (1, 0)), {0: {(): {1: 1}}})
    space = suspend(curved)
    encoded = encode_commutator_linfinity(curved, space)
    assert sigma(encode_ainfinity(curved, space)) == encoded
    assert encoded == Element.from_terms(space, COMMUTATIVE, [(0, 0, [[0]], 1)])  # the letter a
    for size in (1, 2):
        mat = matrix_ainfinity(curved, size)
        mat_space = suspend_matrix(curved, size)
        assert sigma(encode_ainfinity(mat, mat_space)) == encode_commutator_linfinity(mat, mat_space)


def test_exterior_line_encoding_satisfies_master_equation():
    ext_line = exterior_line()
    space = suspend(ext_line, names=("u", "e"))
    encoded = encode_ainfinity(ext_line, space)
    ctx = OperatorContext(space)
    assert ctx.nc_bracket(encoded, encoded).is_zero()
    # matrices over it are genuinely noncommutative: commutator encoding
    mat = matrix_ainfinity(ext_line, 2)
    mat_space = suspend_matrix(ext_line, 2, names=("u", "e"))
    m_mat = encode_ainfinity(mat, mat_space)
    assert OperatorContext(mat_space).mc_defect(m_mat).is_zero()
    assert sigma(m_mat) == encode_commutator_linfinity(mat, mat_space)


def test_ainfinity_json_roundtrip():
    for algebra in (A, exterior_line(), matrix_ainfinity(A, 2)):
        clone = CyclicAInfinity.from_json(algebra.to_json())
        assert clone.basis == algebra.basis
        assert clone.degrees == algebra.degrees
        assert clone.pairing == algebra.pairing
        assert clone.ops == algebra.ops
        assert clone.unit == algebra.unit


def test_space_letter_degrees():
    assert SPACE.letters == ("x", "xi")
    assert SPACE.degrees == (0, -1)


def test_unit_validation():
    good = exterior_line()
    with pytest.raises(ValueError, match="unit"):
        CyclicAInfinity(
            basis=good.basis,
            degrees=good.degrees,
            pairing=good.pairing,
            ops=good.ops,
            unit=(0, 1),  # e is square-zero, not a unit
        )


@pytest.mark.parametrize("degree", [1.5, "1.5", True])
def test_cyclic_algebra_rejects_non_integral_degree(degree):
    data = A.to_json()
    data["basis"][0]["degree"] = degree
    with pytest.raises(ValueError, match="basis degree must be an integer"):
        CyclicAInfinity.from_json(data)
    with pytest.raises(ValueError, match="basis degree must be an integer"):
        CyclicAInfinity(A.basis, (degree, 2), ((0, 1), (1, 0)), A.ops)


def test_cyclic_algebra_rejects_non_integral_arity():
    with pytest.raises(ValueError, match="structure map arity must be an integer"):
        CyclicAInfinity(A.basis, A.degrees, ((0, 1), (1, 0)), {1.5: A.ops[1]})


# m_3(e, e, e) = 1 on the exterior line's basis: cyclic, but no commutator encoding
TERNARY = CyclicAInfinity(("1", "e"), (0, 1), ((0, 1), (1, 0)), {3: {(1, 1, 1): {0: 1}}})
EXT = MatrixExtension(SPACE, 2)
GAMMA_X = Element.from_terms(SPACE, CYCLIC, [(1, 0, [[0]], 1)])


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: encode_commutator_linfinity(TERNARY, suspend(TERNARY)),
                 "m_0, m_1, m_2 only", id="commutator-m3"),
    pytest.param(lambda: EXT.inflate(Element.cyclic_word(EXT.space, [0])),
                 "does not live over the base space", id="inflate-space"),
    pytest.param(lambda: EXT.inflate(Element.poly_letters(SPACE, "x")),
                 "M is defined on cyclic-side elements", id="inflate-flavor"),
    pytest.param(lambda: EXT.restrict(Element.cyclic_word(SPACE, "x")),
                 "does not live over the matrix space", id="restrict-space"),
    pytest.param(lambda: EXT.restrict(Element.poly_letters(EXT.space, [0])),
                 "R is defined on cyclic-side elements", id="restrict-flavor"),
    pytest.param(lambda: sigma(Element.poly_letters(SPACE, "x")),
                 "sigma takes cyclic-side elements", id="sigma-flavor"),
    pytest.param(lambda: sigma(GAMMA_X), "genus-weighted", id="sigma-gamma"),
    pytest.param(lambda: sigma_K(Element.poly_letters(SPACE, "x")),
                 "sigma_K takes cyclic-side elements", id="sigma-K-flavor"),
])
def test_encoding_and_morita_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
