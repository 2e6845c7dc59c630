"""Cyclic homotopy-associative algebras and their cyclic-word encodings.

A ``CyclicAInfinity`` is a finite graded basis, a symmetric odd pairing
and a finite family of structure maps ``m_k`` given as sparse maps
``{args: {out: coefficient}}``.  Construction checks that the
associated multilinear forms

    tau_k(a_0, ..., a_k) = <m_k(a_0, ..., a_{k-1}), a_k>

are cyclically antisymmetric in the twisted sense

    tau(a_0..a_k) = (-1)^k (-1)^{|a_k|(|a_0|+...+|a_{k-1}|)} tau(a_k, a_0..a_{k-1}),

which is the condition that survives suspension as plain Koszul cyclic
invariance.

``encode_ainfinity`` transports each tau through the suspension (sign
(-1)^{k(k+1)/2 + sum (k-j)|a_j|}) and divides by the tensor length,
realizing the invariant-to-coinvariant normalization 1/k.  The encoded
element satisfies {m, m} = 0 exactly when the homotopy relations hold,
and minus the adjoint action of its quadratic part q
(``letter_differential``) is the dual differential on words (for the
two-dimensional algebra: q = (x x)/2, d* xi = -x, d* x = 0).
"""

import math
from collections.abc import Mapping

from .element import COMMUTATIVE, CYCLIC, Element
from .morita import MatrixExtension, decorate, decorate_map, decorate_unit
from .scalar import ZERO, Scalar, _field, add_to, as_int, div, format_scalar, parse_scalar
from .space import (GradedSymplecticSpace, _check_unit, _checked_pairing, _dual_scales,
                    _form_json, _map_json, _read_basis, _read_form, _read_map, _sized,
                    _structure_map)


class CyclicAInfinity:
    """Cyclic homotopy algebra given by sparse structure maps.

    ``ops[k]`` is m_k as a map {args: {out: c}} from k-tuples of basis
    indices, the format of ``FrobeniusAlgebra.mult``, checked by
    ``space._structure_map``, written to JSON by ``space._map_json`` and
    kept with nonzero entries only; absent arguments map to zero, and an
    arity may be given once.  ``unit`` optionally marks a strict unit.
    """

    def __init__(self, basis, degrees, pairing, ops, unit=None):
        self.basis = tuple(basis)
        n = len(self.basis)
        self.degrees = tuple(as_int(d, "basis degree") for d in degrees)
        # symmetric, of odd degree and nondegenerate; the inverse is not kept
        self.pairing, _ = _checked_pairing(pairing, self.basis, 1, self.degrees)
        self.ops = {}
        for k, table in ops.items():
            k = as_int(k, "structure map arity")
            if k in self.ops:
                raise ValueError(f"structure map m_{k} is given twice")
            self.ops[k] = _structure_map(table, n, k, f"structure map m_{k}")
        self.unit = None if unit is None else tuple(map(Scalar, _sized(unit, n, "the unit")))
        self.check_cyclic()
        if self.unit is not None:
            _check_unit(self.ops, {i: c for i, c in enumerate(self.unit) if c}, n)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def structure_tensor(self, k: int) -> dict:
        """tau_k as a dict over (k+1)-tuples of basis indices."""
        tensor = {}
        for args, images in self.ops.get(k, {}).items():
            for out, coeff in images.items():
                for last, pair in self.pairing[out].items():
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

    def to_json(self) -> dict:
        return {
            "basis": [{"name": n, "degree": d} for n, d in zip(self.basis, self.degrees)],
            "pairing": _form_json(self.pairing),
            "ops": {str(k): _map_json(table) for k, table in sorted(self.ops.items())},
            "unit": None if self.unit is None else [format_scalar(c) for c in self.unit],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CyclicAInfinity":
        what = "the cyclic A-infinity algebra"
        basis, degrees = _read_basis(_field(data, "basis", what, list), "basis vector")
        pairing = _read_form(_field(data, "pairing", what), len(basis), "the pairing")
        ops = {k: _read_map(entries, f"structure map m_{k}")
               for k, entries in _field(data, "ops", what, Mapping).items()}
        unit = _field(data, "unit", what, list, default=None)
        return cls(basis, degrees, pairing, ops,
                   unit=None if unit is None else tuple(map(parse_scalar, unit)))


def matrix_ainfinity(algebra: CyclicAInfinity, size: int) -> CyclicAInfinity:
    """Matrix extension: structure maps tensored with the product of
    elementary matrices, pairing with the trace form, unit with the
    identity."""
    basis, degrees, pairing = decorate(algebra.basis, algebra.degrees, algebra.pairing, size)
    ops = {k: decorate_map(table, size) for k, table in algebra.ops.items()}
    unit = None if algebra.unit is None else decorate_unit(algebra.unit, size)
    return CyclicAInfinity(basis, degrees, pairing, ops, unit=unit)


def suspend(algebra: CyclicAInfinity, names=None, scales=None) -> GradedSymplecticSpace:
    """Odd symplectic space on the suspension, with letters optionally
    renamed and rescaled relative to the plain dual basis."""
    n = algebra.dim
    if names is None:
        names = algebra.basis
    scales = _dual_scales(scales, n)
    # letters are (scaled) duals of the suspended basis: degree 1 - deg_A
    degrees = tuple(1 - d for d in algebra.degrees)
    pairing = tuple({j: div((-1) ** (algebra.degrees[i] % 2) * entry, scales[i] * scales[j])
                     for j, entry in row.items()} for i, row in enumerate(algebra.pairing))
    return GradedSymplecticSpace(tuple(names), degrees, pairing, dual_scales=scales)


def suspend_matrix(algebra, size, names=None, scales=None):
    """Suspension of the matrix extension with letter names and scales
    tensored from the base: the space of ``morita.MatrixExtension``."""
    return MatrixExtension(suspend(algebra, names, scales), size).space


def _encoded_coeff(algebra, scales, key, value, weight) -> Scalar:
    """value * (suspension sign) * weight / prod of the key's letter scales."""
    k = len(key) - 1
    exponent = (k * (k + 1)) // 2
    for j, idx in enumerate(key):
        exponent += (k - j) * algebra.degrees[idx]
    coeff = value * (-1 if exponent % 2 else 1) * weight
    for idx in key:
        coeff = div(coeff, scales[idx])
    return coeff


def encode_ainfinity(algebra: CyclicAInfinity, space: GradedSymplecticSpace) -> Element:
    """The cyclic-word element representing the structure, with the
    1/(tensor length) invariant-to-coinvariant weight."""
    scales = space.dual_scales
    raw = {}
    for k in algebra.ops:
        tensor = algebra.structure_tensor(k)
        weight = Scalar(1, k + 1)
        for key, value in tensor.items():
            add_to(raw, (0, 0, (key,)), _encoded_coeff(algebra, scales, key, value, weight))
    return Element._from_raw(space, CYCLIC, raw)


def encode_commutator_linfinity(algebra: CyclicAInfinity, space: GradedSymplecticSpace) -> Element:
    """Symmetric-word encoding of the commutator homotopy Lie structure,
    with the 1/(tensor length)! weight.  Only a curvature (l_0 = m_0),
    differentials and binary products are supported; that covers every
    algebra used here."""
    for k in algebra.ops:
        if k > 2 and algebra.ops[k]:
            raise ValueError("commutator encoding implemented for m_0, m_1, m_2 only")
    scales = space.dual_scales
    raw = {}
    for k in (0, 1, 2):
        tensor = algebra.structure_tensor(k)
        if k == 2:
            # l_2(u, v) = m_2(u, v) - (-1)^{|u||v|} m_2(v, u)
            base, tensor = tensor, {}
            for (i, j, l), value in base.items():
                add_to(tensor, (i, j, l), value)
                sign = -1 if (algebra.degrees[i] * algebra.degrees[j]) % 2 else 1
                add_to(tensor, (j, i, l), -sign * value)
        weight = Scalar(1, math.factorial(k + 1))
        for key, value in tensor.items():
            add_to(raw, (0, 0, tuple((idx,) for idx in key)),
                   _encoded_coeff(algebra, scales, key, value, weight))
    return Element._from_raw(space, COMMUTATIVE, raw)


def letter_differential(algebra: CyclicAInfinity, space: GradedSymplecticSpace) -> Element:
    """The quadratic part q of the encoded structure (the two-letter words
    m_1 contributes), for ``OperatorContext``: d = -{q, -} is the dual
    differential on words."""
    q = encode_ainfinity(algebra, space)
    q.terms = {m: c for m, c in q.terms.items() if len(m.words[0]) == 2}
    return q
