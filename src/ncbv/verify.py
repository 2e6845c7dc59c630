"""Seeded verification suites for every structural identity.

Each check is a generator of counterexample strings reported through
``report.check_report``, as a CheckReport with the scale the check runs
at and the first counterexample on failure.  Random inputs are drawn
from seeded generators over small symplectic spaces (dimensions 2 to 6)
assembled from hyperbolic pairs, so the suites are deterministic and
exact.
"""

import random

from .ainfinity import (
    CyclicAInfinity,
    encode_ainfinity,
    encode_commutator_linfinity,
    letter_differential,
    matrix_ainfinity,
)
from .algebras import algebra_a, sigma_a_context, sigma_a_space
from .element import COMMUTATIVE, CYCLIC, Element
from .frobenius import matrix_frobenius, matrix_trace_product, otft_mu, truncated_polynomials
from .harer_zagier import (
    all_ones_check,
    catalan_leading_check,
    check_k_max,
    hz_closed_form_check,
    hz_recurrence_check,
    multitrace_sum_check,
)
from .morita import MatrixExtension, sigma, sigma_K
from .nupoly import NuPolynomial
from .operators import OperatorContext
from .reduction import GueReducer, default_reducer
from .report import CheckReport, check_report
from .scalar import Scalar, format_scalar
from .space import GradedSymplecticSpace, hyperbolic_space
from .wick import MAX_CAP, wick_oracle

MATRIX_SIZES = (2, 3)  # N of the Morita and matrix surface-tensor checks

GOLDEN_TABLE = {
    (2,): {2: 1},
    (4,): {3: 2, 1: 1},
    (6,): {4: 5, 2: 10},
    (8,): {5: 14, 3: 70, 1: 21},
    (10,): {6: 42, 4: 420, 2: 483},
    (1, 1): {1: 1},
    (1, 3): {2: 3},
    (2, 2): {4: 1, 2: 2},
    (1, 5): {3: 10, 1: 5},
    (2, 4): {5: 2, 3: 9, 1: 4},
    (3, 3): {3: 12, 1: 3},
    (1, 7): {4: 35, 2: 70},
    (2, 6): {6: 5, 4: 40, 2: 60},
    (3, 5): {4: 45, 2: 60},
    (4, 4): {6: 4, 4: 40, 2: 61},
}


# -- random generators -------------------------------------------------


def random_space(rng: random.Random) -> GradedSymplecticSpace:
    pairs = []
    for t in range(rng.randint(1, 3)):
        deg_u = rng.randint(-2, 2)
        deg_v = rng.choice([d for d in range(-2, 3) if (d + deg_u) % 2])
        coeff = Scalar(rng.choice([1, -1, 2, 3]), rng.choice([1, 1, 2]))
        pairs.append(((f"u{t}", deg_u), (f"v{t}", deg_v), coeff))
    return hyperbolic_space(pairs)


def random_scalar(rng: random.Random) -> Scalar:
    return Scalar(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))


def random_cyclic_element(rng, space, max_terms=2, max_words=2, max_len=3,
                          allow_nu=True, allow_gamma=False) -> Element:
    raw = []
    for _ in range(rng.randint(1, max_terms)):
        words = [
            [rng.randrange(space.dim) for _ in range(rng.randint(1, max_len))]
            for _ in range(rng.randint(0 if allow_nu else 1, max_words))
        ]
        gamma = rng.randint(0, 1) if allow_gamma else 0
        nu = rng.randint(0, 2) if allow_nu else 0
        if not words and nu == 0:
            nu = 1
        coeff = random_scalar(rng)
        raw.append((gamma, nu, words, coeff if coeff else Scalar(1)))
    return Element.from_terms(space, CYCLIC, raw)


def random_commutative_element(rng, space, max_terms=2, max_len=4) -> Element:
    raw = []
    for _ in range(rng.randint(1, max_terms)):
        letters = [rng.randrange(space.dim) for _ in range(rng.randint(0, max_len))]
        coeff = random_scalar(rng)
        raw.append((0, 0, [[l] for l in letters], coeff if coeff else Scalar(1)))
    return Element.from_terms(space, COMMUTATIVE, raw)


def _random_element(rng, space, flavor) -> Element:
    if flavor == CYCLIC:
        return random_cyclic_element(rng, space)
    return random_commutative_element(rng, space)


def _random_cases(cases: int, seed: int):
    """(case, rng, space, ctx) for each case: one rng seeded once, and a
    fresh random space with its operator context drawn per case."""
    rng = random.Random(seed)
    for case in range(cases):
        space = random_space(rng)
        yield case, rng, space, OperatorContext(space)


def homogeneous(rng, make) -> Element:
    """Draw until the element is parity-homogeneous and nonzero."""
    while True:
        candidate = make(rng)
        if candidate.is_zero():
            continue
        if candidate.parity() is None:
            candidate = candidate.parity_part(rng.randint(0, 1))
        if not candidate.is_zero():
            return candidate


# -- structural identity suites ----------------------------------------


def golden_table_check(reducer: GueReducer | None = None) -> CheckReport:
    """Every listed moment polynomial, coefficient for coefficient."""
    reducer = reducer or default_reducer()

    def failures():
        for idx, want in GOLDEN_TABLE.items():
            got = reducer.reduce(idx)
            expected = NuPolynomial({e: Scalar(c) for e, c in want.items()})
            if got != expected:
                diff_exp = sorted(
                    e
                    for e in set(got.coeffs) | set(expected.coeffs)
                    if got.coeffs.get(e, Scalar(0)) != expected.coeffs.get(e, Scalar(0))
                )[0]
                yield (f"p_{idx}: coefficient of nu^{diff_exp} is {got.coeffs.get(diff_exp, 0)}, "
                       f"table says {expected.coeffs.get(diff_exp, 0)}")

    return check_report("golden-table", f"{len(GOLDEN_TABLE)} polynomials", failures())


def _partitions_up_to(total: int):
    """Multisets of positive parts with sum between 1 and ``total``."""
    out = set()

    def grow(remaining, max_part, acc):
        for part in range(1, min(remaining, max_part) + 1):
            state = tuple(sorted(acc + (part,)))
            out.add(state)
            grow(remaining - part, part, acc + (part,))

    grow(total, total, ())
    return sorted(out)


def oracle_equivalence_check(degree_cap: int = 12,
                             reducer: GueReducer | None = None) -> CheckReport:
    """Cohomological reduction against the Wick matching oracle,
    exhaustively over all multi-indices with entry sum <= cap."""
    if degree_cap > MAX_CAP:
        raise ValueError(
            f"--degree-cap {degree_cap} exceeds the largest oracle cap {MAX_CAP}"
        )
    reducer = reducer or default_reducer()
    indices = _partitions_up_to(degree_cap)

    def failures():
        for idx in indices:
            reduced = reducer.reduce(idx)
            oracle = wick_oracle(idx, cap=degree_cap)
            if reduced != oracle:
                yield f"idx={idx}: reduction {reduced} != oracle {oracle}"

    return check_report("oracle-equivalence",
                        f"{len(indices)} indices, sum <= {degree_cap}", failures())


def confluence_check(degree_cap: int = 12, seed: int = 5) -> CheckReport:
    """Three pivot strategies agree on every index with sum <= cap."""
    leftmost = GueReducer("leftmost")
    largest = GueReducer("largest")
    randomized = GueReducer("random", seed=seed)
    indices = _partitions_up_to(degree_cap)

    def failures():
        for idx in indices:
            a, b, c = leftmost.reduce(idx), largest.reduce(idx), randomized.reduce(idx)
            if not (a == b == c):
                yield f"idx={idx}: leftmost {a}, largest {b}, random {c}"

    return check_report("reduction-confluence",
                        f"{len(indices)} indices, sum <= {degree_cap}", failures())


def parity_vanishing_check(degree_cap: int = 11,
                           reducer: GueReducer | None = None) -> CheckReport:
    reducer = reducer or default_reducer()

    def failures():
        for idx in _partitions_up_to(degree_cap):
            if sum(idx) % 2 and not reducer.reduce(idx).is_zero():
                yield f"idx={idx} gave {reducer.reduce(idx)}"

    return check_report("odd-sum-vanishing", f"sum <= {degree_cap}", failures())


def jacobi_check(flavor: str, cases: int = 200, seed: int = 101) -> CheckReport:
    """Odd Jacobi in the form forced by the symmetric normalization
    {x,xi} = 1 = {xi,x}:

        {a,{b,c}} = (-1)^{|a|+1} {{a,b},c}
                    + (-1)^{(|a|+1)(|b|+1)} {b,{a,c}}.

    (After the parity shift making the bracket an honest Lie bracket,
    this is the ordinary graded Jacobi identity.)"""

    def failures():
        for case, rng, space, ctx in _random_cases(cases, seed):
            make = lambda r: _random_element(r, space, flavor)
            a = homogeneous(rng, make)
            b = homogeneous(rng, make)
            c = make(rng)
            first = -1 if (a.parity() + 1) % 2 else 1
            second = -1 if ((a.parity() + 1) * (b.parity() + 1)) % 2 else 1
            bracket = ctx.bracket
            lhs = bracket(a, bracket(b, c))
            rhs = (bracket(bracket(a, b), c).scale(first)
                   + bracket(b, bracket(a, c)).scale(second))
            if lhs != rhs:
                yield f"case {case}: a={a} b={b} c={c}"

    return check_report(f"odd-jacobi-{flavor}", f"{cases} cases", failures())


def antisymmetry_check(cases: int = 200, seed: int = 103) -> CheckReport:
    """{a,b} = (-1)^{|a||b|} {b,a} (odd antisymmetry) on both flavors."""

    def failures():
        for case, rng, space, ctx in _random_cases(cases, seed):
            for flavor in (CYCLIC, COMMUTATIVE):
                make = lambda r: _random_element(r, space, flavor)
                a = homogeneous(rng, make)
                b = homogeneous(rng, make)
                sign = -1 if (a.parity() * b.parity()) % 2 else 1
                if ctx.bracket(a, b) != ctx.bracket(b, a).scale(sign):
                    yield f"case {case} ({flavor}): a={a} b={b}"

    return check_report("odd-antisymmetry", f"{cases} cases", failures())


def squares_check(cases: int = 200, seed: int = 107) -> CheckReport:
    """Squares of the differentials vanish: cobracket, delta, delta_K,
    the BV Laplacian, and the full (d* + delta + cobracket) over the
    two-dimensional algebra."""
    gue_ctx = sigma_a_context()

    def full(el):
        return (
            gue_ctx.internal_differential(el)
            + gue_ctx.ce_delta(el)
            + gue_ctx.nc_cobracket(el)
        )

    def failures():
        for case, rng, space, ctx in _random_cases(cases, seed):
            e = random_cyclic_element(rng, space, max_terms=2, max_words=3)
            f = random_commutative_element(rng, space)
            g = random_cyclic_element(rng, gue_ctx.space, max_words=3)
            checks = [
                ("cobracket^2", e, ctx.nc_cobracket(ctx.nc_cobracket(e))),
                ("delta^2", e, ctx.ce_delta(ctx.ce_delta(e))),
                ("delta_K^2", e, ctx.delta_K(ctx.delta_K(e))),
                ("laplacian^2", f, ctx.bv_laplacian(ctx.bv_laplacian(f))),
                ("(d*+delta+cobracket)^2", g, full(full(g))),
            ]
            for label, element, value in checks:
                if not value.is_zero():
                    yield f"case {case}: {label} != 0 on {element}"

    return check_report("differentials-square-to-zero", f"{cases} cases", failures())


def bv_identity_check(cases: int = 200, seed: int = 109) -> CheckReport:
    """Delta(fg) = (Delta f) g + (-1)^{|f|} f (Delta g) + {f,g}."""

    def failures():
        for case, rng, space, ctx in _random_cases(cases, seed):
            f = homogeneous(rng, lambda r: random_commutative_element(r, space))
            g = random_commutative_element(rng, space)
            sign = -1 if f.parity() else 1
            lhs = ctx.bv_laplacian(f * g)
            rhs = (ctx.bv_laplacian(f) * g + (f * ctx.bv_laplacian(g)).scale(sign)
                   + ctx.com_poisson(f, g))
            if lhs != rhs:
                yield f"case {case}: f={f} g={g}"

    return check_report("bv-identity", f"{cases} cases", failures())


def bialgebra_check(cases: int = 200, seed: int = 113) -> CheckReport:
    """Bracket/cobracket compatibility: delta and the cobracket
    anticommute on S(NCHam), which is the Lie-bialgebra condition in the
    form that makes delta_K a differential."""

    def failures():
        for case, rng, space, ctx in _random_cases(cases, seed):
            e = random_cyclic_element(rng, space, max_terms=2, max_words=3)
            mixed = ctx.ce_delta(ctx.nc_cobracket(e)) + ctx.nc_cobracket(ctx.ce_delta(e))
            if not mixed.is_zero():
                yield f"case {case}: (delta cob + cob delta)({e}) = {mixed}"

    return check_report("lie-bialgebra-compatibility", f"{cases} cases", failures())


def leibniz_check(cases: int = 200, seed: int = 127) -> CheckReport:
    """The cyclic bracket acts by derivations on symmetric products:
    {a, bc} = {a,b}c + (-1)^{(|a|+1)|b|} b {a,c}."""

    def failures():
        for case, rng, space, ctx in _random_cases(cases, seed):
            a = homogeneous(rng, lambda r: random_cyclic_element(r, space))
            b = homogeneous(rng, lambda r: random_cyclic_element(r, space))
            c = random_cyclic_element(rng, space)
            sign = -1 if ((a.parity() + 1) * b.parity()) % 2 else 1
            lhs = ctx.nc_bracket(a, b * c)
            rhs = ctx.nc_bracket(a, b) * c + (b * ctx.nc_bracket(a, c)).scale(sign)
            if lhs != rhs:
                yield f"case {case}: a={a} b={b} c={c}"

    return check_report("bracket-leibniz", f"{cases} cases", failures())


def sigma_homomorphism_check(cases: int = 200, seed: int = 131) -> CheckReport:
    """sigma is a map of Lie algebras: sigma{u,v} = {sigma u, sigma v}."""

    def failures():
        for case, rng, space, ctx in _random_cases(cases, seed):
            u = random_cyclic_element(rng, space)
            v = random_cyclic_element(rng, space)
            if sigma(ctx.nc_bracket(u, v)) != ctx.com_poisson(sigma(u), sigma(v)):
                yield f"case {case}: u={u} v={v}"

    return check_report("sigma-bracket-homomorphism", f"{cases} cases", failures())


def morita_check(cases: int = 120, seed: int = 137) -> CheckReport:
    """M is a bracket homomorphism, intertwines the cobracket, and
    R o M = id, over random small spaces at N in MATRIX_SIZES."""

    def failures():
        for case, rng, space, ctx in _random_cases(cases, seed):
            size = MATRIX_SIZES[case % len(MATRIX_SIZES)]
            ext = MatrixExtension(space, size)
            ctx_mat = OperatorContext(ext.space)
            where = f"case {case} (N={size})"
            u = random_cyclic_element(rng, space, max_terms=1, max_words=2, max_len=2)
            v = random_cyclic_element(rng, space, max_terms=1, max_words=2, max_len=2)
            u_mat = ext.inflate(u)
            if ext.inflate(ctx.nc_bracket(u, v)) != ctx_mat.nc_bracket(u_mat, ext.inflate(v)):
                yield f"bracket homomorphism, {where}: u={u} v={v}"
            if ext.inflate(ctx.nc_cobracket(u)) != ctx_mat.nc_cobracket(u_mat):
                yield f"cobracket intertwining, {where}: u={u}"
            # R o M = id on word monomials (M rescales nu by N, R is nu-linear)
            word = random_cyclic_element(rng, space, max_terms=2, max_words=2, max_len=2,
                                         allow_nu=False)
            if ext.restrict(ext.inflate(word)) != word:
                yield f"restriction identity, {where}: u={word}"

    return check_report("morita-maps", f"{cases} cases, N in {MATRIX_SIZES}", failures())


def _encode_failures():
    A = algebra_a()
    space = sigma_a_space()
    ctx = OperatorContext(space)
    m_tilde = encode_ainfinity(A, space)
    expected = Element.cyclic_word(space, ["x", "x"], Scalar(1, 2))
    if m_tilde != expected:
        yield f"algebra A: m~ = {m_tilde}, expected {expected}"
    if not ctx.mc_defect(m_tilde).is_zero():
        yield "algebra A: mc_defect(m~) != 0"
    if sigma(m_tilde) != encode_commutator_linfinity(A, space):
        yield "algebra A: sigma(m~) is not the commutator encoding"
    mat = matrix_ainfinity(A, 2)
    ext = MatrixExtension(space, 2)
    m_mat = encode_ainfinity(mat, ext.space)
    if not OperatorContext(ext.space).mc_defect(m_mat).is_zero():
        yield "Mat_2(A): mc_defect(m~_Mat) != 0"
    if ext.inflate(m_tilde) != m_mat:
        yield "Mat_2(A): M(m~) != m~_Mat"
    if ext.restrict(m_mat) != m_tilde:
        yield "Mat_2(A): R(m~_Mat) != m~"
    if sigma(m_mat) != encode_commutator_linfinity(mat, ext.space):
        yield "Mat_2(A): sigma(m~_Mat) is not the commutator encoding"
    try:
        CyclicAInfinity(
            basis=("a", "b"), degrees=(1, 2), pairing=((0, 1), (1, 0)),
            ops={1: {(0,): {1: Scalar(1)}, (1,): {0: Scalar(1)}}},
        )
    except ValueError:
        pass
    else:
        yield "negative control: a cyclicity-violating table was accepted"
    perturbed = m_tilde + Element.cyclic_word(space, ["x", "x", "xi"])
    if ctx.mc_defect(perturbed).is_zero():
        yield "negative control: a perturbed structure passed the master equation"


def encode_check() -> CheckReport:
    """Encoded structures: Maurer-Cartan defects vanish for the
    two-dimensional algebra and its 2x2 matrices, sigma of the encoding
    is the commutator encoding, M/R swap the encodings, and the negative
    controls fail as they should."""
    return check_report("encoded-structures", "A, Mat_2(A), negative controls",
                        _encode_failures())


def chain_map_check(cases: int = 60, seed: int = 139) -> CheckReport:
    """At h = 1 the composite sigma o M intertwines (d* + delta +
    cobracket) with (d* + Laplacian) over Mat_2 of the two-dimensional algebra."""
    size = 2
    rng = random.Random(seed)
    A = algebra_a()
    space = sigma_a_space()
    ctx = sigma_a_context()
    ext = MatrixExtension(space, size)
    ctx_mat = OperatorContext(ext.space,
                              letter_differential(matrix_ainfinity(A, size), ext.space))

    def push(el):
        return sigma(ext.inflate(el))

    def failures():
        for case in range(cases):
            e = random_cyclic_element(rng, space, max_terms=2, max_words=2, max_len=3)
            upstairs = (
                ctx.internal_differential(e) + ctx.ce_delta(e) + ctx.nc_cobracket(e)
            )
            lhs = push(upstairs)
            image = push(e)
            rhs = ctx_mat.internal_differential(image) + ctx_mat.bv_laplacian(image)
            if lhs != rhs:
                yield f"case {case}: e={e}"

    return check_report("quantized-trace-chain-map", f"{cases} cases, N={size}", failures())


def sigma_k_check(cases: int = 120, seed: int = 149) -> CheckReport:
    """The weighted quotient is a graded chain map: sigma_K(Delta_K e)
    matches the Laplacian of sigma_K(e) shifted one h-power up."""

    def failures():
        for case, rng, space, ctx in _random_cases(cases, seed):
            e = random_cyclic_element(rng, space, max_terms=2, max_words=2, allow_gamma=True)
            if e.is_zero():
                continue
            lhs = sigma_K(ctx.delta_K(e))
            rhs = {}
            for power, bucket in sigma_K(e).items():
                image = ctx.bv_laplacian(bucket)
                if not image.is_zero():
                    rhs[power + 1] = rhs.get(power + 1, Element.zero(space, COMMUTATIVE)) + image
            rhs = {p: el for p, el in rhs.items() if not el.is_zero()}
            if lhs != rhs:
                yield f"case {case}: e={e}"

    return check_report("sigma-K-graded-chain-map", f"{cases} cases", failures())


def otft_trace_case(rng, size: int, genus: int, free: int, ks, frob=None):
    """mu^{g,b} over Mat_N on random integer matrices (entries -2..2, k_i
    on boundary i) drawn from ``rng``, a random.Random or a seed, and its
    closed form N^b prod Tr: (boundaries, mu, trace product).  ``frob``
    defaults to ``matrix_frobenius(size)``."""
    frob = matrix_frobenius(size) if frob is None else frob
    rng = random.Random(rng) if isinstance(rng, int) else rng
    mats = [
        [[[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)] for _ in range(k)]
        for k in ks
    ]
    boundaries, expected = matrix_trace_product(size, free, mats)
    return boundaries, otft_mu(frob, genus, free, boundaries), expected


def otft_matrix_check(cases: int = 60, seed: int = 151) -> CheckReport:
    """mu^{g,b} over the matrix Frobenius algebras of MATRIX_SIZES equals
    N^b prod Tr(boundary products), independent of where beta/gamma act."""
    frobs = {size: matrix_frobenius(size) for size in MATRIX_SIZES}

    def failures():
        rng = random.Random(seed)
        for case in range(cases):
            size = MATRIX_SIZES[case % len(MATRIX_SIZES)]
            frob = frobs[size]
            genus, free = rng.randint(0, 2), rng.randint(0, 2)
            m = rng.randint(1, 3)
            ks = [rng.randint(1, 3) for _ in range(m)]
            boundaries, value, expected = otft_trace_case(rng, size, genus, free, ks, frob)
            if value != expected:
                yield f"case {case}: N={size} g={genus} b={free} ks={ks}: {value} != {expected}"
            spots = [(bi, ki) for bi in range(m) for ki in range(ks[bi])]
            probe = rng.choice(spots)
            if otft_mu(frob, genus, free, boundaries, apply_at=probe) != value:
                yield f"case {case}: placement {probe} changed the value"

    return check_report("otft-matrix-simplification", f"{cases} cases, N in {MATRIX_SIZES}",
                        failures())


def otft_placement_check(cases: int = 40, seed: int = 157) -> CheckReport:
    """Placement independence of beta^b gamma^g over random commutative
    Frobenius algebras of dimension <= 4."""

    def failures():
        rng = random.Random(seed)
        for case in range(cases):
            depth = rng.randint(1, 4)
            values = [random_scalar(rng) for _ in range(depth - 1)] + [
                Scalar(rng.choice([1, -1, 2]), rng.choice([1, 2]))
            ]
            frob = truncated_polynomials(depth, values)
            genus, free = rng.randint(0, 2), rng.randint(0, 2)
            m = rng.randint(1, 3)
            ks = [rng.randint(1, 2) for _ in range(m)]
            boundaries = [[rng.randrange(depth) for _ in range(k)] for k in ks]
            spots = [(bi, ki) for bi in range(m) for ki in range(ks[bi])]
            values_at = {spot: otft_mu(frob, genus, free, boundaries, apply_at=spot)
                         for spot in spots}
            if len(set(values_at.values())) != 1:
                values = ", ".join(f"{spot} -> {format_scalar(value)}"
                                   for spot, value in values_at.items())
                yield f"case {case}: {values}"

    return check_report("otft-placement-independence", f"{cases} cases, dim <= 4", failures())


# -- the full battery ---------------------------------------------------


def run_all(degree_cap: int = 12, cases: int = 200, hz_k: int = 15) -> list[CheckReport]:
    if cases < 1:
        raise ValueError(f"--cases {cases} must be at least 1")
    if degree_cap < 1:
        raise ValueError(f"--degree-cap {degree_cap} must be at least 1")
    check_k_max(hz_k, "--hz-k")
    reducer = default_reducer()
    return [
        golden_table_check(reducer),
        oracle_equivalence_check(degree_cap, reducer),
        hz_recurrence_check(hz_k, reducer),
        hz_closed_form_check(10, 6, reducer),
        catalan_leading_check(hz_k, reducer),
        multitrace_sum_check(6, reducer),
        all_ones_check(8, reducer),
        parity_vanishing_check(min(degree_cap, 11), reducer),
        antisymmetry_check(cases),
        jacobi_check(CYCLIC, cases),
        jacobi_check(COMMUTATIVE, cases),
        leibniz_check(cases),
        squares_check(cases),
        bv_identity_check(cases),
        bialgebra_check(cases),
        sigma_homomorphism_check(cases),
        morita_check(min(cases, 120)),
        encode_check(),
        chain_map_check(),
        sigma_k_check(min(cases, 120)),
        otft_matrix_check(min(cases, 60)),
        otft_placement_check(min(cases, 40)),
        confluence_check(degree_cap),
    ]
