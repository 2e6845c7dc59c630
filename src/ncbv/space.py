"""Graded vector spaces with an odd symplectic pairing.

A space is a finite ordered basis with integer degrees together with the
odd symplectic form on it.  Every form is held as a ``Form``, row i the
dict {j: nonzero entry}; ``_form`` normalizes rows given as n entries or
as such dicts.  The inverse form lives on the dual basis (the "letters"
out of which cyclic words and polynomials are built) and is the single
source of truth for every bracket, cobracket and Laplacian in the
package.  The structure maps of cyclic A-infinity and Frobenius algebras
are held alike, as {args: {out: nonzero c}}: ``_structure_map`` is their
one checker and normalizer, ``_check_unit`` their one unit law,
``_map_json`` and ``_read_map`` their JSON writer and reader.  A form is
the map of arity one {(i,): row i}, written and read as one by
``_form_json`` and ``_read_form``: no form is laid out densely.
``scalar._field`` reads each JSON field, naming a missing or bad one.

Sign conventions.  The pairing is supported on pairs of basis vectors
whose degrees sum to an odd number and is plainly antisymmetric there.
The inverse form on letters is obtained as

    B = P^{-1} . diag((-1)^{deg e_i}),

which is the matrix solving the commuting-triangle definition of the
inverse once the Koszul sign of applying (left-slot, right-slot) dual
maps to a tensor is taken into account.  On an odd pairing's support
this B is plainly symmetric.  ``_checked_pairing``, the one routine that
checks and inverts a pairing (here and in the cyclic A-infinity and
Frobenius algebras), asserts distinct basis names, the odd degree and
antisymmetry of P, the symmetry of B and P . B = diag((-1)^{deg e_i})
over nonzero entries only, whether B was supplied or solved for.
"""

from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field

from .scalar import ONE, ZERO, Scalar, _field, add_to, as_int, div, format_scalar, parse_scalar

Form = tuple[dict[int, Scalar], ...]  # row i is {column j: nonzero entry}


def _form(rows, n: int, what: str) -> Form:
    """``rows`` as a Form, each entry through ``Scalar``.
    Each row is a sequence of n entries (caller's rows) or a mapping
    {column: entry} (a Form's or JSON's rows); a new dict is built either way."""
    form = []
    for row in rows:
        if type(row) is dict or isinstance(row, Mapping):
            items = [(j, Scalar(entry)) for j, entry in row.items()]
            for j, _ in items:
                if isinstance(j, bool) or not (isinstance(j, int) and 0 <= j < n):
                    raise ValueError(f"{what} row has column {j!r} outside 0..{n - 1}")
        else:
            items = list(enumerate(map(Scalar, row)))
            if len(items) != n:
                raise ValueError(f"{what} row has {len(items)} entries: a row of {len(items)} "
                                 f"entries for a basis of {n}")
        form.append({j: entry for j, entry in items if entry})
    if len(form) != n:
        raise ValueError(f"the {what} has {len(form)} entries; the basis has {n} vectors")
    return tuple(form)


def _solve(pairing: Form, parities) -> Form:
    """B = P^{-1} . diag((-1)^parity), rows ordered by column, by
    Gauss-Jordan over the nonzero entries of P.  Each working row is a
    dict {column: value} of P augmented by the identity in columns
    n..2n-1; ``holders[c]`` is the set of rows with a nonzero entry in c."""
    n = len(pairing)
    rows = [{**row, n + i: ONE} for i, row in enumerate(pairing)]
    holders = [set() for _ in range(2 * n)]
    for i, row in enumerate(rows):
        for c in row:
            holders[c].add(i)
    free, pivots = set(range(n)), []
    for col in range(n):
        p = min(holders[col] & free, default=None)
        if p is None:
            raise ValueError("singular pairing: matrix is not invertible")
        free.discard(p)
        pivots.append(p)
        prow, pivot = rows[p], rows[p][col]
        for c, v in prow.items():
            prow[c] = div(v, pivot)
        for r in holders[col] - {p}:
            target, factor = rows[r], rows[r][col]
            for c, v in prow.items():
                total = Scalar(target.get(c, ZERO) - factor * v)
                if total:
                    target[c] = total
                    holders[c].add(r)
                else:
                    del target[c]
                    holders[c].discard(r)
    return tuple({c - n: -v if parities[c - n] else v
                  for c, v in sorted(rows[p].items()) if c >= n} for p in pivots)


def _checked_pairing(rows, names, sign, degrees=None, inverse=None):
    """The pairing P on the distinct basis ``names`` and B = P^{-1} . D
    with D = diag((-1)^deg) (D = 1 without ``degrees``), as Forms checked
    over nonzero entries only: P[j][i] = sign * P[i][j], P vanishes on
    even-degree pairs when ``degrees`` are given, and B, solved unless
    ``inverse`` supplies it, has the symmetry of P^{-1} . D (that of P when
    D = 1, the opposite on an odd pairing) and satisfies P . B = D."""
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("letter names must be distinct")
    if degrees is not None and len(degrees) != n:
        raise ValueError("basis and degrees sizes disagree")
    parities = [0] * n if degrees is None else [d % 2 for d in degrees]
    pairing = _form(rows, n, "pairing")
    # A zero entry can fail only through its nonzero transpose, which the
    # same scan visits.
    for i, row in enumerate(pairing):
        for j, entry in row.items():
            if degrees is not None and parities[i] == parities[j]:
                raise ValueError(
                    f"pairing <{names[i]},{names[j]}> is nonzero "
                    "on an even-degree pair; the form must have odd degree"
                )
            if pairing[j].get(i) != (entry if sign == 1 else -entry):
                raise ValueError(f"pairing must be {'' if sign == 1 else 'anti'}symmetric")
    inverse = (_solve(pairing, parities) if inverse is None
               else _form(inverse, n, "inverse pairing"))
    flip = sign if degrees is None else -sign
    for i, row in enumerate(inverse):
        for j, entry in row.items():
            if inverse[j].get(i) != (entry if flip == 1 else -entry):
                raise ValueError("inverse pairing failed its symmetry check")
    for i, row in enumerate(pairing):
        product = {}
        for k, p in row.items():
            for j, b in inverse[k].items():
                add_to(product, j, p * b)
        if product != {i: -1 if parities[i] else 1}:
            raise ValueError(f"inverse pairing is not the inverse of the pairing at {names[i]!r}")
    return pairing, inverse


def _sized(values, n: int, what: str) -> tuple:
    """``values`` as a tuple of n entries; another length raises naming ``what``."""
    values = tuple(values)
    if len(values) != n:
        raise ValueError(f"{what} has {len(values)} entries; the algebra has dimension {n}")
    return values


def _structure_map(table, n: int, arity: int, what: str) -> dict:
    """``table`` {args: {out: c}} as a structure map on n basis vectors:
    each index read through ``as_int`` and checked to lie in 0..n-1, each
    args tuple checked to have ``arity`` entries, coefficients summed
    through ``Scalar``, zeros and empty images dropped.  ``what`` names
    the map in each error."""

    def index(value):
        i = as_int(value, f"{what} index")
        if not 0 <= i < n:
            raise ValueError(f"{what} has index {i}, which leaves the basis indices 0..{n - 1}")
        return i

    if not isinstance(table, Mapping):
        raise ValueError(f"{what} must be a mapping {{args: {{out: coefficient}}}}")
    out = {}
    for args, images in table.items():
        args = tuple(map(index, args))
        if len(args) != arity:
            raise ValueError(f"{what} takes {arity} arguments, got {len(args)}: {args}")
        cell = out.setdefault(args, {})
        for o, c in images.items():
            add_to(cell, index(o), Scalar(c))
        if not cell:
            del out[args]
    return out


def _map_json(table: dict) -> list:
    """A structure map as JSON: one entry {"args": [...], "out": {...}} per args, sorted."""
    return [{"args": list(args), "out": {str(o): format_scalar(c) for o, c in images.items()}}
            for args, images in sorted(table.items())]


def _read_map(entries, what: str) -> dict:
    """The entries of ``_map_json`` as {args: {out: c}} for ``_structure_map``, equal
    args summed; anything but a list of such entries raises ``ValueError`` naming
    the map ``what``."""
    if not isinstance(entries, list):
        raise ValueError(f"{what} is not a list of entries")
    table = {}
    for t, entry in enumerate(entries):
        if not (isinstance(entry, Mapping) and entry.keys() == {"args", "out"}
                and isinstance(entry["args"], list) and isinstance(entry["out"], Mapping)
                and all(isinstance(i, Hashable) for i in entry["args"])):
            raise ValueError(f'{what} entry {t} is not {{"args": [...], "out": {{...}}}}')
        cell = table.setdefault(tuple(entry["args"]), {})
        for o, c in entry["out"].items():
            add_to(cell, o, parse_scalar(c))
    return table


def _form_json(form: Form) -> list:
    """A form as JSON: its nonzero rows as the entries of an arity-one map."""
    return _map_json({(i,): row for i, row in enumerate(form) if row})


def _read_form(entries, n: int, what: str) -> Form:
    """The n rows of the form ``_form_json`` wrote, read as an arity-one map."""
    table = _structure_map(_read_map(entries, what), n, 1, what)
    return tuple(table.get((i,), {}) for i in range(n))


def _read_basis(items, what: str) -> tuple[tuple[str, ...], tuple]:
    """Names and degrees of the JSON basis items {"name": ..., "degree": ...};
    item i is named ``what`` i in an error."""
    fields = [(_field(item, "name", f"{what} {i}", str), _field(item, "degree", f"{what} {i}"))
              for i, item in enumerate(items)]
    return tuple(name for name, _ in fields), tuple(degree for _, degree in fields)


def _check_unit(ops: dict, unit: dict, n: int) -> None:
    """The unit law for the sparse vector ``unit`` and the structure maps
    ``ops`` {k: m_k}: 1.a = a = a.1 under m_2 for every basis vector a,
    and m_k for k != 2 vanishes whenever an argument is the unit."""
    for k in sorted({*ops, 2}, key=lambda k: k == 2):  # m_2 last; a unit needs one
        slots = [{} for _ in range(k)]  # the unit in slot t: {other args: {out: c}}
        for args, images in ops.get(k, {}).items():
            for t, u in enumerate(args):
                if u in unit:
                    cell = slots[t].setdefault(args[:t] + args[t + 1 :], {})
                    for out, c in images.items():
                        add_to(cell, out, unit[u] * c)
        if k == 2:
            for a in range(n):
                if slots[0].get((a,)) != {a: ONE}:
                    raise ValueError("declared unit fails 1.a = a")
                if slots[1].get((a,)) != {a: ONE}:
                    raise ValueError("declared unit fails a.1 = a")
        elif any(cell for slot in slots for cell in slot.values()):
            raise ValueError(f"declared unit fails: m_{k} does not vanish on it")


def _dual_scales(scales, n: int) -> tuple[Scalar, ...]:
    """``scales`` as n nonzero Scalars, one per letter; all 1 when None."""
    scales = (ONE,) * n if scales is None else tuple(map(Scalar, scales))
    if len(scales) != n or not all(scales):
        raise ValueError(f"dual_scales must be {n} nonzero scalars, one per letter")
    return scales


@dataclass(frozen=True)
class GradedSymplecticSpace:
    """Finite graded basis with an odd nondegenerate pairing.

    ``letters`` names the dual basis; ``pairing`` is the form on the
    basis itself, held as a Form.  ``dual_scales`` records an optional
    rescaling of the letters relative to the plain dual basis of a
    suspended algebra (for example xi = -b* over the two-dimensional
    algebra), one nonzero scale per letter; it affects only how structure
    tensors are expressed in these letters.
    ``parities[i]`` is ``degrees[i] % 2``, the only way letter degrees
    enter a sign.  ``inverse`` is solved by Gauss-Jordan unless given;
    a given inverse is checked, not trusted.  Spaces compare by letters,
    degrees, pairing and scales and hash by letters and degrees alone.
    ``to_json`` writes the scales when any of them differs from 1.
    ``_words`` is the space's memo of canonical cyclic words, filled by
    ``words.canonicalize_cyclic``; it is not compared, hashed or shown.
    """

    letters: tuple[str, ...]
    degrees: tuple[int, ...]
    pairing: Form = field(hash=False)
    inverse: Form = field(compare=False, default=None)
    dual_scales: tuple[Scalar, ...] = field(hash=False, default=None)
    parities: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _words: dict = field(init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        n = len(self.letters)
        object.__setattr__(self, "_words", {})
        degrees = tuple(as_int(d, "letter degree") for d in self.degrees)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "parities", tuple(d % 2 for d in degrees))
        pairing, inverse = _checked_pairing(self.pairing, self.letters, -1, self.degrees,
                                            self.inverse)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "dual_scales", _dual_scales(self.dual_scales, n))

    @property
    def dim(self) -> int:
        return len(self.letters)

    def index(self, name: str) -> int:
        try:
            return self.letters.index(name)
        except ValueError:
            raise ValueError(f"unknown letter {name!r}") from None

    def to_json(self) -> dict:
        out = {
            "letters": [{"name": n, "degree": d} for n, d in zip(self.letters, self.degrees)],
            "pairing": _form_json(self.pairing),
        }
        if any(scale != ONE for scale in self.dual_scales):
            out["dual_scales"] = list(map(format_scalar, self.dual_scales))
        return out

    @classmethod
    def from_json(cls, data: dict) -> "GradedSymplecticSpace":
        what = "the space"
        letters, degrees = _read_basis(_field(data, "letters", what, list), "letter")
        scales = _field(data, "dual_scales", what, list, default=None)
        return cls(letters, degrees,
                   _read_form(_field(data, "pairing", what), len(letters), "the pairing"),
                   dual_scales=None if scales is None else tuple(map(parse_scalar, scales)))


def hyperbolic_space(names_degrees) -> GradedSymplecticSpace:
    """Space built from hyperbolic pairs ((u, deg_u), (v, deg_v), c) with <u,v> = c.

    Each argument is a triple of two (name, degree) pairs and a nonzero
    scalar; degrees in a pair must have odd sum.  The inverse is written
    pair by pair: [[0, c], [-c, 0]]^{-1} times the degree signs puts
    (-1)^{deg u} / c at both (u, v) and (v, u).
    """
    letters, degrees, rows, inverse = [], [], [], []
    for (name_u, deg_u), (name_v, deg_v), coeff in names_degrees:
        coeff = Scalar(coeff)
        if not coeff:
            raise ValueError(f"hyperbolic pair ({name_u}, {name_v}) has coefficient zero")
        i = len(letters)
        dual = div(-1 if deg_u % 2 else 1, coeff)
        letters.extend([name_u, name_v])
        degrees.extend([deg_u, deg_v])
        rows.extend([{i + 1: coeff}, {i: -coeff}])
        inverse.extend([{i + 1: dual}, {i: dual}])
    return GradedSymplecticSpace(tuple(letters), tuple(degrees), rows, inverse=inverse)
