"""Surface tensors over Frobenius algebras."""

import copy
import itertools
import random
from fractions import Fraction

import pytest

from ncbv import Scalar, ground_field, matrix_frobenius, otft_mu, truncated_polynomials
from ncbv.frobenius import FrobeniusAlgebra, matrix_trace_product
from ncbv.scalar import ONE, ZERO, format_scalar, parse_scalar
from ncbv.verify import otft_trace_case
from test_exact_scalars import is_exact
from test_space import dense, invert_matrix


def as_vector(mat, size):
    return tuple(Scalar(mat[p][q]) for p in range(size) for q in range(size))


def mat_mul(a, b, size):
    return [
        [sum(a[p][t] * b[t][q] for t in range(size)) for q in range(size)]
        for p in range(size)
    ]


def trace(mat, size):
    return sum(mat[p][p] for p in range(size))


def random_matrix(rng, size):
    return [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]


SIX = random.Random(6)


@pytest.mark.parametrize(
    "size, a, b, c",
    [
        (2, [[1, 2], [3, 4]], [[0, 1], [-1, 2]], [[2, 0], [1, 1]]),
        (6, *(random_matrix(SIX, 6) for _ in range(3))),
    ],
    ids=["N2", "N6"],
)
def test_matrix_tensor_is_trace_product(size, a, b, c):
    frob = matrix_frobenius(size)
    boundaries = [[as_vector(a, size), as_vector(b, size)], [as_vector(c, size)]]
    value = otft_mu(frob, 1, 2, boundaries)
    expected = Scalar(size) ** 2 * trace(mat_mul(a, b, size), size) * trace(c, size)
    assert value == expected
    assert matrix_trace_product(size, 2, [[a, b], [c]]) == (boundaries, expected)


def test_matrix_size_zero_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        matrix_frobenius(0)


def test_free_boundary_and_genus_maps():
    for size in (2, 3):
        frob = matrix_frobenius(size)
        mat = [[Fraction(p * size + q + 1) for q in range(size)] for p in range(size)]
        vec = as_vector(mat, size)
        assert frob.free_boundary(vec) == tuple(size * c for c in vec)
        assert frob.genus_map(vec) == vec


def test_ground_field_tensor_multiplies_entries():
    line = ground_field()
    value = otft_mu(line, 2, 3, [[(Scalar(2),), (Scalar(3),)], [(Scalar(5),)]])
    assert value == 30  # beta and gamma are the identity on the line


def test_placement_independence_over_truncated_polynomials():
    frob = truncated_polynomials(4, [1, 0, 2, -1])
    boundaries = [[0, 2], [1], [3]]
    spots = [(0, 0), (0, 1), (1, 0), (2, 0)]
    values = {spot: otft_mu(frob, 1, 1, boundaries, apply_at=spot) for spot in spots}
    assert len(set(values.values())) == 1


def test_arity_errors():
    frob = matrix_frobenius(2)
    with pytest.raises(ValueError, match="boundaries"):
        otft_mu(frob, 0, 0, [])
    with pytest.raises(ValueError, match="boundaries"):
        otft_mu(frob, 0, 0, [[]])
    with pytest.raises(ValueError, match="nonnegative"):
        otft_mu(frob, -1, 0, [[0]])
    with pytest.raises(ValueError, match="dimension"):
        otft_mu(frob, 0, 0, [[(Scalar(1),)]])


def test_frobenius_json_roundtrip():
    for frob in reference_algebras():
        clone = FrobeniusAlgebra.from_json(frob.to_json())
        assert clone.basis == frob.basis
        assert clone.mult == frob.mult
        assert clone.pairing == frob.pairing
        assert clone.unit == frob.unit


def test_frobenius_validation():
    from ncbv.frobenius import FrobeniusAlgebra

    one = Scalar(1)
    zero = Scalar(0)
    # non-symmetric pairing on a two-dimensional commutative algebra
    mult = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
    with pytest.raises(ValueError, match="symmetric"):
        FrobeniusAlgebra(("1", "t"), mult, ((zero, one), (Scalar(2), zero)), (one, zero))
    # K[t]/t^2 with the unit declared as t
    with pytest.raises(ValueError, match="declared unit fails 1.a = a"):
        FrobeniusAlgebra(("1", "t"), mult, ((zero, one), (one, zero)), (zero, one))
    # K[t]/t^2 with the identity pairing: <t t, 1> = 0 but <t, t 1> = 1
    with pytest.raises(ValueError, match="pairing is not invariant"):
        FrobeniusAlgebra(("1", "t"), mult, ((one, zero), (zero, one)), (one, zero))
    # a a = b and a b = b a = b: (a a) b = 0 but a (a b) = b
    products = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (0, 2): {2: one},
                (2, 0): {2: one}, (1, 1): {2: one}, (1, 2): {2: one}, (2, 1): {2: one}}
    identity = [[Scalar(int(i == j)) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError, match="multiplication is not associative"):
        FrobeniusAlgebra(("1", "a", "b"), products, identity, (one, zero, zero))


def product_table(data):
    """The n x n x n table of a Frobenius algebra's JSON product, filled
    from its entries; entries with equal args add up."""
    n = len(data["basis"])
    mult = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]
    for entry in data["mult"]:
        i, j = entry["args"]
        for k, c in entry["out"].items():
            mult[i][j][int(k)] += parse_scalar(c)
    return mult


def pairing_table(data):
    """The n x n table of a Frobenius algebra's JSON pairing, filled from
    its arity-one entries {"args": [i], "out": {j: c}}; equal args add up."""
    n = len(data["basis"])
    pairing = [[Scalar(0)] * n for _ in range(n)]
    for entry in data["pairing"]:
        (i,) = entry["args"]
        for j, c in entry["out"].items():
            pairing[i][int(j)] += parse_scalar(c)
    return pairing


def dense_check(data):
    """The constructor's checks the long way, over every basis triple and
    in the constructor's order: the first failure's message, or None."""
    n = len(data["basis"])
    mult = product_table(data)
    pairing = pairing_table(data)
    unit = [parse_scalar(c) for c in data["unit"]]
    e = [[Scalar(int(t == i)) for t in range(n)] for i in range(n)]

    def mul(x, y):
        return [
            sum(x[i] * y[j] * mult[i][j][k] for i in range(n) for j in range(n))
            for k in range(n)
        ]

    def form(x, y):
        return sum(x[i] * y[j] * pairing[i][j] for i in range(n) for j in range(n))

    if any(pairing[i][j] != pairing[j][i] for i in range(n) for j in range(n)):
        return "pairing must be symmetric"
    try:
        invert_matrix(pairing)
    except ValueError as exc:
        return str(exc)
    triples = list(itertools.product(e, repeat=3))
    for a in e:
        if mul(unit, a) != a:
            return "declared unit fails 1.a = a"
        if mul(a, unit) != a:
            return "declared unit fails a.1 = a"
    if any(mul(mul(a, b), c) != mul(a, mul(b, c)) for a, b, c in triples):
        return "multiplication is not associative"
    if any(form(mul(a, b), c) != form(a, mul(b, c)) for a, b, c in triples):
        return "pairing is not invariant: <ab,c> != <a,bc>"
    return None


def test_check_matches_dense_triple_check():
    """The sparse construction check rejects exactly the tables the check
    over all basis triples rejects, with the same message."""
    rng = random.Random(11)
    verdicts = set()
    for frob in reference_algebras():
        if frob.dim > 4:
            continue
        for trial in range(12):
            data = frob.to_json()
            n = frob.dim
            delta = format_scalar(Scalar(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2])))
            kind = trial % 3
            if kind == 0:
                i, j, k = (rng.randrange(n) for _ in range(3))
                data["mult"].append({"args": [i, j], "out": {str(k): delta}})
            elif kind == 1:
                i, j = rng.randrange(n), rng.randrange(n)
                for a, b in {(i, j), (j, i)}:
                    data["pairing"].append({"args": [a], "out": {str(b): delta}})
            else:
                i = rng.randrange(n)
                data["unit"][i] = format_scalar(parse_scalar(data["unit"][i]) + parse_scalar(delta))
            want = dense_check(data)
            verdicts.add(want)
            try:
                FrobeniusAlgebra.from_json(data)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, (frob.basis, data)
    assert {"multiplication is not associative",
            "pairing is not invariant: <ab,c> != <a,bc>"} <= verdicts


class DefiningFormulas:
    """The surface-tensor formulas evaluated the long way, over the dense
    structure constants: every product and t_k is rebuilt from scratch,
    beta and gamma sum over the handle pairs (i, j, h_ij) of the inverse
    form, and mu walks every choice of pairs, recomputing both trace
    products at each leaf."""

    def __init__(self, frob):
        data = frob.to_json()
        self.basis = tuple(data["basis"])
        self.dim = len(self.basis)
        self.mult = product_table(data)
        self.pairing = pairing_table(data)
        self.unit = tuple(parse_scalar(c) for c in data["unit"])
        inverse = invert_matrix(self.pairing)
        self.pairs = [(i, j, h) for i, row in enumerate(inverse) for j, h in enumerate(row) if h]

    def element(self, value):
        if isinstance(value, str):
            value = self.basis.index(value)
        if isinstance(value, int):
            return tuple(Scalar(int(t == value)) for t in range(self.dim))
        return tuple(value)

    def multiply(self, left, right):
        out = [Scalar(0)] * self.dim
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                if a and b:
                    for k, c in enumerate(self.mult[i][j]):
                        out[k] += a * b * c
        return tuple(out)

    def product(self, vectors):
        acc = self.unit
        for vec in vectors:
            acc = self.multiply(acc, vec)
        return acc

    def form(self, left, right):
        return sum(
            (a * b * self.pairing[i][j] for i, a in enumerate(left) for j, b in enumerate(right)),
            Scalar(0),
        )

    def trace_form(self, vectors):
        return self.form(self.product(vectors[:-1]), vectors[-1])

    def combine(self, terms):
        out = [Scalar(0)] * self.dim
        for coeff, vec in terms:
            for t, c in enumerate(vec):
                out[t] += coeff * c
        return tuple(out)

    def free_boundary(self, vec):
        return self.combine(
            (h, self.multiply(self.multiply(self.element(i), self.element(j)), vec))
            for i, j, h in self.pairs
        )

    def genus_map(self, vec):
        return self.combine(
            (h1 * h2, self.product([self.element(t) for t in (i, k, j, l)] + [vec]))
            for i, j, h1 in self.pairs
            for k, l, h2 in self.pairs
        )

    def otft_mu(self, genus, free, boundaries, apply_at):
        args = [[self.element(c) for c in boundary] for boundary in boundaries]
        bi, ki = apply_at
        for _ in range(genus):
            args[bi][ki] = self.genus_map(args[bi][ki])
        for _ in range(free):
            args[bi][ki] = self.free_boundary(args[bi][ki])
        total = Scalar(0)
        chosen = [None] * len(args)

        def walk(level, weight):
            nonlocal total
            if level == len(args):
                xs = [self.element(i) for i, _ in chosen]
                outer = self.trace_form(list(reversed(xs)))
                flat = []
                for (_, j), boundary in zip(chosen, args):
                    flat.append(self.element(j))
                    flat.extend(boundary)
                total += weight * outer * self.trace_form(flat)
                return
            for i, j, h in self.pairs:
                chosen[level] = (i, j)
                walk(level + 1, weight * h)

        walk(0, Scalar(1))
        return total


def reference_algebras():
    rng = random.Random(2024)
    algebras = [matrix_frobenius(size) for size in (1, 2, 3)] + [ground_field()]
    for depth in (1, 2, 3, 4):
        values = [Scalar(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(depth - 1)]
        algebras.append(truncated_polynomials(depth, values + [Scalar(rng.choice([1, -1, 2]))]))
    return algebras


def random_vector(rng, dim):
    return tuple(
        Scalar(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else Scalar(0)
        for _ in range(dim)
    )


def random_element(rng, frob):
    roll = rng.random()
    if roll < 0.15:
        return rng.randrange(frob.dim)
    if roll < 0.3:
        return rng.choice(frob.basis)
    return random_vector(rng, frob.dim)


@pytest.mark.parametrize("frob", reference_algebras(), ids=lambda f: f"dim{f.dim}-{f.basis[0]}")
def test_fixed_elements_match_defining_formulas(frob):
    rng = random.Random(frob.dim * 7919 + len(frob.mult))
    ref = DefiningFormulas(frob)
    for _ in range(6):
        vec = random_vector(rng, frob.dim)
        other = random_vector(rng, frob.dim)
        assert frob.multiply(vec, other) == ref.multiply(vec, other)
        assert frob.form(vec, other) == ref.form(vec, other)
        assert frob.free_boundary(vec) == ref.free_boundary(vec)
        assert frob.genus_map(vec) == ref.genus_map(vec)
        args = [random_element(rng, frob) for _ in range(rng.randint(1, 4))]
        assert frob.trace_form(args) == ref.trace_form([ref.element(a) for a in args])


@pytest.mark.parametrize("frob", reference_algebras(), ids=lambda f: f"dim{f.dim}-{f.basis[0]}")
def test_otft_mu_matches_leaf_walk(frob):
    rng = random.Random(frob.dim * 104729 + len(frob.mult))
    ref = DefiningFormulas(frob)
    for _ in range(5):
        genus, free = rng.randint(0, 2), rng.randint(0, 2)
        m = rng.randint(1, 2 if frob.dim > 4 else 3)
        boundaries = [
            [random_element(rng, frob) for _ in range(rng.randint(1, 2))] for _ in range(m)
        ]
        bi = rng.randrange(m)
        spot = (bi, rng.randrange(len(boundaries[bi])))
        expected = ref.otft_mu(genus, free, boundaries, spot)
        assert otft_mu(frob, genus, free, boundaries, apply_at=spot) == expected


@pytest.mark.parametrize("size, ks", [(3, (1, 2, 3, 1, 2, 3, 2, 1)), (12, (3, 3, 3))],
                         ids=["N3-eight-boundaries", "N12"])
def test_casimir_fold_matches_trace_product_beyond_the_leaf_walk(size, ks):
    """Scales where a walk over one handle per boundary would visit
    (N^2)^m leaves: 9^8 at N = 3, 144^3 at N = 12."""
    boundaries, value, expected = otft_trace_case(0, size, 2, 2, ks)
    assert value == expected


def test_genus_and_free_powers_equal_the_loop():
    """otft_mu raises G and H to the genus and free counts by repeated
    squaring.  On K[t]/(t^2 - t - 2) with <x, y> = tr(xy), tr(1) = 1 and
    tr(t) = 3, a semisimple algebra whose G and H are not multiples of
    the unit, that equals applying gamma and beta once per count, for
    every count 0..5."""
    from ncbv.frobenius import FrobeniusAlgebra

    mult = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}, (1, 1): {0: 2, 1: 1}}
    frob = FrobeniusAlgebra(("1", "t"), mult, ((1, 3), (3, 5)), (ONE, ZERO))
    assert len(frob.G) == len(frob.H) == 2
    rng = random.Random(35)
    vec, other, last = (random_vector(rng, frob.dim) for _ in range(3))
    for genus in range(6):
        for free in range(6):
            looped = vec
            for _ in range(genus):
                looped = frob.genus_map(looped)
            for _ in range(free):
                looped = frob.free_boundary(looped)
            assert frob._dense(frob._power_times(
                frob.H, free, frob._power_times(frob.G, genus, frob.coerce(vec)))) == looped
            assert (otft_mu(frob, genus, free, [[vec, other], [last]])
                    == otft_mu(frob, 0, 0, [[looped, other], [last]]))


def test_otft_mu_leaves_the_algebra_unchanged():
    """The fold accumulates products in place, into vectors it owns: the
    algebra's tables stay as built."""
    for frob in (f for f in reference_algebras() if f.dim <= 4):
        fields = ("unit", "counit", "H", "G", "inverse", "pairing", "mult")
        before = {name: copy.deepcopy(getattr(frob, name)) for name in fields}
        rng = random.Random(frob.dim)
        for _ in range(4):
            boundaries = [[random_element(rng, frob) for _ in range(rng.randint(1, 3))]
                          for _ in range(rng.randint(1, 4))]
            otft_mu(frob, rng.randint(0, 2), rng.randint(0, 2), boundaries)
        assert {name: getattr(frob, name) for name in fields} == before


def test_matrix_structure_constants_are_sparse():
    for size in (1, 2, 3):
        frob = matrix_frobenius(size)
        assert len(frob.mult) == size**3
        assert all(len(terms) == 1 for terms in frob.mult.values())


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_matrix_product_json_lists_only_nonzero_products(size):
    """The JSON product holds one entry per nonzero product, N^3 of the
    N^6 basis pairs and outputs."""
    assert len(matrix_frobenius(size).to_json()["mult"]) == size**3


def test_coerce_names_the_bad_value():
    frob = matrix_frobenius(2)
    for index in (4, 7, -1):
        with pytest.raises(ValueError, match=f"basis index {index} is out of range"):
            frob.coerce(index)
    with pytest.raises(ValueError, match="basis index 7"):
        otft_mu(frob, 0, 0, [[7]])
    with pytest.raises(ValueError, match="unknown basis name 'F\\[0,0\\]'"):
        frob.coerce("F[0,0]")


LINE = {(0, 0): {0: ONE}}
LINE_FORM = [{"args": [0], "out": {"0": "1"}}]


@pytest.mark.parametrize(
    "basis,mult,pairing,unit,match",
    [
        (("1",), [[["1"]]], LINE_FORM, ["1"], "the product entry"),
        (("1",), [{"args": [0, 0]}], LINE_FORM, ["1"], "the product entry"),
        (("1",), [{"args": [[0], 0], "out": {"0": "1"}}], LINE_FORM, ["1"], "the product entry"),
        (("1",), LINE, ((ONE, ONE),), (ONE,), "pairing row has 2 entries"),
        (("1",), LINE, ((ONE,), (ONE,)), (ONE,), "the pairing has 2 entries"),
        (("1",), LINE, ((ONE,),), (ONE, ZERO), "the unit has 2 entries"),
        (("1",), {(0, 1): {0: ONE}}, ((ONE,),), (ONE,), "leaves the basis indices"),
    ],
)
def test_constructor_rejects_ragged_tables(basis, mult, pairing, unit, match):
    """A product map goes to the constructor, a list of JSON entries
    through ``from_json``, which refuses the old dense table (mult[i][j]
    the coefficients of e_i e_j) and any entry but {"args": [...], "out": {...}}."""
    with pytest.raises(ValueError, match=match):
        if isinstance(mult, dict):
            FrobeniusAlgebra(basis, mult, pairing, unit)
        else:
            FrobeniusAlgebra.from_json(
                {"basis": list(basis), "mult": mult, "pairing": pairing, "unit": unit})


def test_from_json_rejects_bad_shapes_and_duplicate_names():
    data = ground_field().to_json()
    data["pairing"] = [{"args": [0, 0], "out": {"0": "1"}}]
    with pytest.raises(ValueError, match="the pairing takes 1 arguments, got 2"):
        FrobeniusAlgebra.from_json(data)
    data["pairing"] = [{"args": [0], "out": {"1": "1"}}]
    with pytest.raises(ValueError, match="the pairing has index 1, which leaves"):
        FrobeniusAlgebra.from_json(data)
    data = truncated_polynomials(2, [0, 1]).to_json()
    data["basis"] = ["a", "a"]
    with pytest.raises(ValueError, match="duplicate basis name 'a'"):
        FrobeniusAlgebra.from_json(data)


@pytest.mark.parametrize("depth", [0, -1])
def test_truncated_polynomials_rejects_nonpositive_depth(depth):
    with pytest.raises(ValueError, match="at least 1"):
        truncated_polynomials(depth, [])


def test_truncated_polynomial_inverse_matches_dense_gauss_jordan():
    """The Hankel pairings of K[t]/(t^d), with zero trace values below the
    top one, need row swaps and fill-in; the sparse solve returns the
    dense reference's rationals exactly, each an int when integral and a
    Fraction otherwise."""
    rng = random.Random(97)
    for _ in range(60):
        depth = rng.randint(1, 6)
        values = [rng.choice([0, 0, 1, -2, Fraction(3, 2)]) for _ in range(depth - 1)]
        frob = truncated_polynomials(depth, values + [rng.choice([1, -1, Fraction(2, 3)])])
        assert dense(frob.inverse) == invert_matrix(dense(frob.pairing))
        assert all(is_exact(entry) for row in dense(frob.inverse) for entry in row)


def test_singular_pairing_rejected_with_dense_message():
    mult = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}}
    pairing = ((ONE, ZERO), (ZERO, ZERO))
    with pytest.raises(ValueError) as dense:
        invert_matrix(pairing)
    with pytest.raises(ValueError) as sparse:
        FrobeniusAlgebra(("1", "t"), mult, pairing, (ONE, ZERO))
    assert str(sparse.value) == str(dense.value) == "singular pairing: matrix is not invertible"


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: ground_field().trace_form([]), "at least one argument",
                 id="empty-trace-form"),
    pytest.param(lambda: otft_mu(ground_field(), 0, 0, [[0]], apply_at=(0, 1)),
                 "apply_at is out of range", id="apply-at"),
    pytest.param(lambda: otft_mu(ground_field(), 0, 0, [[0]], apply_at=(1, 0)),
                 "apply_at is out of range", id="apply-at-boundary"),
    pytest.param(lambda: truncated_polynomials(2, [1]), "one trace value per power",
                 id="trace-value-count"),
    pytest.param(lambda: truncated_polynomials(2, [1, 0]), "top trace value must be nonzero",
                 id="zero-top-value"),
])
def test_frobenius_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
