"""Cyclic homotopy-associative algebras and their cyclic-word encodings.

A ``CyclicAInfinity`` is a finite graded basis, a symmetric odd pairing
and a finite family of structure maps ``m_k`` given as dense coefficient
tables.  Construction checks that the associated multilinear forms

    tau_k(a_0, ..., a_k) = <m_k(a_0, ..., a_{k-1}), a_k>

are cyclically antisymmetric in the twisted sense

    tau(a_0..a_k) = (-1)^k (-1)^{|a_k|(|a_0|+...+|a_{k-1}|)} tau(a_k, a_0..a_{k-1}),

which is the condition that survives suspension as plain Koszul cyclic
invariance.

``encode_ainfinity`` transports each tau through the suspension (sign
(-1)^{k(k+1)/2 + sum (k-j)|a_j|}) and divides by the tensor length,
realizing the invariant-to-coinvariant normalization 1/k.  The encoded
element satisfies {m, m} = 0 exactly when the homotopy relations hold,
and minus its adjoint action reproduces the dual differential on words
(for the two-dimensional algebra: d* xi = -x, d* x = 0).
"""

from .element import COMMUTATIVE, CYCLIC, Element
from .morita import MatrixExtension, decorate, index_chains, matrix_index
from .scalar import ONE, ZERO, Scalar, add_to
from .space import GradedSymplecticSpace, invert_matrix


class CyclicAInfinity:
    """Cyclic homotopy algebra given by dense structure tables.

    ``ops[k]`` maps an argument tuple of basis indices to a dict
    ``{output index: coefficient}``.  ``unit`` is an optional coefficient
    vector marking a strict unit.
    """

    def __init__(self, basis, degrees, pairing, ops, unit=None):
        self.basis = tuple(basis)
        self.degrees = tuple(degrees)
        self.pairing = tuple(tuple(Scalar(c) for c in row) for row in pairing)
        self.ops = {
            int(k): {
                tuple(args): {out: Scalar(c) for out, c in images.items() if c}
                for args, images in table.items()
            }
            for k, table in ops.items()
        }
        self.unit = None if unit is None else tuple(Scalar(c) for c in unit)
        n = len(self.basis)
        if len(self.degrees) != n or len(self.pairing) != n:
            raise ValueError("basis, degrees and pairing sizes disagree")
        for i in range(n):
            for j in range(n):
                if self.pairing[i][j] != self.pairing[j][i]:
                    raise ValueError("the pairing on a cyclic algebra is symmetric")
                if self.pairing[i][j] and (self.degrees[i] + self.degrees[j]) % 2 == 0:
                    raise ValueError("the pairing must have odd degree")
        invert_matrix(self.pairing)  # nondegeneracy
        self.check_cyclic()
        if self.unit is not None:
            self._check_unital()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def structure_tensor(self, k: int) -> dict:
        """tau_k as a dict over (k+1)-tuples of basis indices."""
        tensor = {}
        for args, images in self.ops.get(k, {}).items():
            for out, coeff in images.items():
                for last in range(self.dim):
                    pair = self.pairing[out][last]
                    if pair:
                        add_to(tensor, args + (last,), coeff * pair)
        return tensor

    def check_cyclic(self) -> None:
        for k in self.ops:
            tensor = self.structure_tensor(k)
            for key, value in tensor.items():
                rotated = (key[-1],) + key[:-1]
                sign = (-1) ** k
                if self.degrees[key[-1]] % 2 and sum(self.degrees[i] for i in key[:-1]) % 2:
                    sign = -sign
                if tensor.get(rotated, ZERO) != sign * value:
                    names = ",".join(self.basis[i] for i in key)
                    raise ValueError(f"structure tensor m_{k} is not cyclic at ({names})")

    def _check_unital(self) -> None:
        unit = self.unit
        # m_k (k != 2) vanishes whenever any argument is the unit
        for k, table in self.ops.items():
            if k == 2:
                continue
            partial = {}
            for args, images in table.items():
                for pos in range(len(args)):
                    weight = unit[args[pos]]
                    if not weight:
                        continue
                    slot = (args[:pos] + args[pos + 1 :], pos)
                    acc = partial.setdefault(slot, {})
                    for out, c in images.items():
                        add_to(acc, out, weight * c)
            if any(partial.values()):
                raise ValueError(f"declared unit fails: m_{k} does not vanish on it")
        # m2(1,a) = a = m2(a,1)
        for a in range(self.dim):
            for side in (0, 1):
                result = {}
                for u, coeff_u in enumerate(unit):
                    if not coeff_u:
                        continue
                    args = (u, a) if side == 0 else (a, u)
                    for out, c in self.ops.get(2, {}).get(args, {}).items():
                        add_to(result, out, coeff_u * c)
                if result != {a: ONE}:
                    raise ValueError("declared unit fails m2(1,a) = a = m2(a,1)")

    def to_json(self) -> dict:
        from .scalar import format_scalar

        return {
            "basis": [
                {"name": name, "degree": deg} for name, deg in zip(self.basis, self.degrees)
            ],
            "pairing": [[format_scalar(c) for c in row] for row in self.pairing],
            "ops": {
                str(k): [
                    {
                        "args": list(args),
                        "out": {str(o): format_scalar(c) for o, c in images.items()},
                    }
                    for args, images in sorted(table.items())
                ]
                for k, table in sorted(self.ops.items())
            },
            "unit": None if self.unit is None else [format_scalar(c) for c in self.unit],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CyclicAInfinity":
        from .scalar import parse_scalar

        basis = tuple(item["name"] for item in data["basis"])
        degrees = tuple(int(item["degree"]) for item in data["basis"])
        pairing = tuple(tuple(parse_scalar(c) for c in row) for row in data["pairing"])
        ops = {
            int(k): {
                tuple(entry["args"]): {
                    int(o): parse_scalar(c) for o, c in entry["out"].items()
                }
                for entry in entries
            }
            for k, entries in data["ops"].items()
        }
        unit = data.get("unit")
        if unit is not None:
            unit = tuple(parse_scalar(c) for c in unit)
        return cls(basis, degrees, pairing, ops, unit=unit)


def matrix_ainfinity(algebra: CyclicAInfinity, size: int) -> CyclicAInfinity:
    """Matrix extension: structure maps tensored with the product of
    elementary matrices, pairing tensored with the trace form."""
    basis, degrees, pairing = decorate(algebra.basis, algebra.degrees, algebra.pairing, size)
    ops = {}
    for k, table in algebra.ops.items():
        new_table = {}
        for args, images in table.items():
            for chain in index_chains(size, k + 1):
                new_args = tuple(
                    matrix_index(base, chain[t], chain[t + 1], size)
                    for t, base in enumerate(args)
                )
                new_table[new_args] = {
                    matrix_index(out, chain[0], chain[k], size): coeff
                    for out, coeff in images.items()
                }
        ops[k] = new_table

    unit = None
    if algebra.unit is not None:
        unit = [Scalar(0)] * len(basis)
        for i, c in enumerate(algebra.unit):
            for p in range(size):
                unit[matrix_index(i, p, p, size)] = c

    return CyclicAInfinity(basis, degrees, pairing, ops, unit=unit)


def suspend(algebra: CyclicAInfinity, names=None, scales=None) -> GradedSymplecticSpace:
    """Odd symplectic space on the suspension, with letters optionally
    renamed and rescaled relative to the plain dual basis."""
    n = algebra.dim
    if names is None:
        names = algebra.basis
    if scales is None:
        scales = (1,) * n
    scales = tuple(Scalar(s) for s in scales)
    # letters are (scaled) duals of the suspended basis: degree 1 - deg_A
    degrees = tuple(1 - d for d in algebra.degrees)
    pairing = tuple(
        tuple(
            (-1) ** (algebra.degrees[i] % 2) * algebra.pairing[i][j] / (scales[i] * scales[j])
            for j in range(n)
        )
        for i in range(n)
    )
    return GradedSymplecticSpace(tuple(names), degrees, pairing, dual_scales=scales)


def suspend_matrix(algebra, size, names=None, scales=None):
    """Suspension of the matrix extension with letter names and scales
    tensored from the base: the space of ``morita.MatrixExtension``."""
    return MatrixExtension(suspend(algebra, names, scales), size).space


def _suspension_sign(algebra, key) -> int:
    k = len(key) - 1
    exponent = (k * (k + 1)) // 2
    for j, idx in enumerate(key):
        exponent += (k - j) * algebra.degrees[idx]
    return -1 if exponent % 2 else 1


def encode_ainfinity(algebra: CyclicAInfinity, space: GradedSymplecticSpace) -> Element:
    """The cyclic-word element representing the structure, with the
    1/(tensor length) invariant-to-coinvariant weight."""
    scales = space.dual_scales
    raw = []
    for k in algebra.ops:
        tensor = algebra.structure_tensor(k)
        weight = Scalar(1, k + 1)
        for key, value in tensor.items():
            coeff = value * _suspension_sign(algebra, key) * weight
            for idx in key:
                coeff /= scales[idx]
            raw.append((0, 0, [key], coeff))
    return Element.from_terms(space, CYCLIC, raw)


def encode_commutator_linfinity(algebra: CyclicAInfinity, space: GradedSymplecticSpace) -> Element:
    """Symmetric-word encoding of the commutator homotopy Lie structure,
    with the 1/(tensor length)! weight.  Only differentials and binary
    products are supported; that covers every algebra used here."""
    for k in algebra.ops:
        if k > 2 and algebra.ops[k]:
            raise ValueError("commutator encoding implemented for m_1, m_2 only")
    scales = space.dual_scales
    factorial = [1, 1, 2, 6]
    raw = []
    for k in (1, 2):
        if k not in algebra.ops:
            continue
        tensor = {}
        if k == 1:
            tensor = algebra.structure_tensor(1)
        else:
            # l_2(u, v) = m_2(u, v) - (-1)^{|u||v|} m_2(v, u)
            base = algebra.structure_tensor(2)
            for (i, j, l), value in base.items():
                add_to(tensor, (i, j, l), value)
                sign = -1 if (algebra.degrees[i] * algebra.degrees[j]) % 2 else 1
                add_to(tensor, (j, i, l), -sign * value)
        weight = Scalar(1, factorial[k + 1])
        for key, value in tensor.items():
            coeff = value * _suspension_sign(algebra, key) * weight
            for idx in key:
                coeff /= scales[idx]
            raw.append((0, 0, [[idx] for idx in key], coeff))
    return Element.from_terms(space, COMMUTATIVE, raw)


def quadratic_part(encoded: Element) -> Element:
    """The single-word, two-letter piece of an encoded structure (the
    differential's contribution)."""
    terms = {
        m: c
        for m, c in encoded.terms.items()
        if m.gamma == 0 and m.nu == 0 and len(m.words) == 1 and len(m.words[0]) == 2
    }
    return Element(encoded.space, encoded.flavor, terms)


def letter_differential(algebra: CyclicAInfinity, space: GradedSymplecticSpace) -> dict:
    """The dual differential on letters, d = -{m_quadratic, -}, as a
    table letter -> ((coeff, letter), ...) for OperatorContext."""
    from .operators import OperatorContext

    ctx = OperatorContext(space)
    quad = quadratic_part(encode_ainfinity(algebra, space))
    table = {}
    for letter in range(space.dim):
        image = ctx.nc_bracket(quad, Element.cyclic_word(space, [letter])).scale(-1)
        entries = []
        for monomial, coeff in image.terms.items():
            if monomial.nu or monomial.gamma or len(monomial.words) != 1 or len(monomial.words[0]) != 1:
                raise ValueError("quadratic part did not act as a letter map")
            entries.append((coeff, monomial.words[0][0]))
        if entries:
            table[letter] = tuple(entries)
    return table
