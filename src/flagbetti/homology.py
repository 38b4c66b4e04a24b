"""Reduced simplicial homology over a field via augmented boundary matrices.

The chain complex is augmented: the empty face spans C_{-1}, so the empty
complex has one unit of homology in degree -1.  Betti numbers come from
b_i = dim C_i - rank d_i - rank d_{i+1}.

A column of a boundary matrix is an int: bit r is set when row r (a face
of the lower layer) lies in the column's face.  Signs are implied, not
stored.  Face f has entry (-1)^pos at f - v, where v is f's vertex at
ascending position pos; layers are sorted, so dropping a larger vertex
gives a smaller row, and the signs read +, -, +, ... from the column's
largest row to its smallest.

Two rank routines, both column reductions: GF(2) reduces the columns as
they are, by XOR (the default field); odd GF(p) and the exact rationals
share one routine that expands each column into a {row: coefficient}
dict by the sign rule, with int coefficients for both: reduced mod p
over GF(p), and fraction-free over Q, where a column is scaled by an
integer instead of divided by its pivot entry.

Clearing (Chen and Kerber): each d_i below the top is ranked without the
columns whose faces are the lowest row of some column of d_{i+1}.  The
lowest (largest) row of the column of a face t is s = t & (t - 1), t less
its lowest vertex.  The rank does not change, over any field:
d_i d_{i+1} = 0 at column t makes column s of d_i +-1 times a combination
of the columns of d_i at t's other rows, all smaller than s, so by
induction on s, ascending, the kept columns span every column of d_i.
The cleared columns are never built, as in Ripser.

Lazy columns (also as in Ripser): the kept columns are not built up
front either.  A rank routine takes each column's lowest row, which for
face f is the row of f & (f - 1) and needs no column, and a builder.  A
column whose lowest row holds no pivot becomes the pivot there unbuilt.
A column is built only when its lowest row already holds a pivot, and an
unbuilt pivot only when a reduction first reads it; it is then built
once and stored as any other pivot.  An unbuilt pivot is the column as
it stands, since no reduction touched it, so the ranks are those of the
eager reduction, step for step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import groupby
from math import gcd

from .complexes import Complex, all_faces

__all__ = [
    "FieldSpec",
    "GF2",
    "GF3",
    "RATIONALS",
    "BettiVector",
    "boundary_matrices",
    "betti",
    "total_betti",
    "reduced_euler",
]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the prime field GF(p), or the exact rationals
    when p is None."""

    p: int | None

    def __post_init__(self):
        p = self.p
        if p is not None and not (isinstance(p, int) and 2 <= p < 2**31 and _is_prime(p)):
            raise ValueError(f"p={p} is not a usable prime")

    @classmethod
    def parse(cls, name: str) -> "FieldSpec":
        name = name.strip().lower()
        if name in ("rational", "rationals", "q"):
            return cls(None)
        if name.startswith("gf") and name[2:].isascii() and name[2:].isdecimal():
            return cls(int(name[2:]))
        raise ValueError(f"unknown field {name!r}; use gf<p> or rational")

    def __str__(self):
        return "rational" if self.p is None else f"gf{self.p}"


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
RATIONALS = FieldSpec(None)


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers by degree, degree -1 included."""

    by_degree: tuple[tuple[int, int], ...]  # (degree, b_degree), nonzero only
    field: FieldSpec

    def __getitem__(self, degree: int) -> int:
        return dict(self.by_degree).get(degree, 0)

    def total(self) -> int:
        return sum(b for _, b in self.by_degree)

    def top_degree(self):
        return max((d for d, _ in self.by_degree), default=None)

    def to_json_dict(self) -> dict:
        return {
            "betti": {str(d): b for d, b in self.by_degree},
            "total": self.total(),
            "field": str(self.field),
        }


# ---------------------------------------------------------------------------
# boundary matrices, their columns built on demand

def _faces_by_dim(k: Complex) -> list[list[int]]:
    """Faces grouped by dimension -1..dim; all_faces sorts them by
    (size, mask), so each layer comes out sorted and none is empty."""
    return [list(layer) for _, layer in groupby(all_faces(k), int.bit_count)]


def boundary_matrices(k: Complex) -> list[tuple[list[int], partial]]:
    """Matrices d_i: C_i -> C_{i-1} for i = 0..dim, cleared, with no
    column built, each as `matrix_rank` takes it: (lows, build).  The
    columns are the faces of the sorted upper layer less the cleared
    faces (the top matrix is whole); lows[j] is the row of column j's
    face f less its lowest vertex, f & (f - 1), in the whole sorted lower
    layer, and build(j) builds column j.  Index 0 is the augmentation
    d_0: C_0 -> C_{-1}.  Each d_i has the rank of the full map."""
    if k.is_void:
        raise ValueError("void complex has no chain complex")
    layers = _faces_by_dim(k)
    mats = []
    for j, (lower, upper) in enumerate(zip(layers, layers[1:])):
        if j + 2 < len(layers):
            dropped = {t & (t - 1) for t in layers[j + 2]}
            upper = [f for f in upper if f not in dropped]
        index = {f: i for i, f in enumerate(lower)}
        mats.append(([index[f & f - 1] for f in upper], partial(_column, index, upper)))
    return mats


def _column(index: dict[int, int], faces: list[int], j: int) -> int:
    """Column j, the face faces[j], as a bitmask over the rows of index."""
    f = rest = faces[j]
    col = 0
    while rest:  # drop each vertex of f, from the top
        top = 1 << rest.bit_length() - 1
        col |= 1 << index[f ^ top]
        rest ^= top
    return col


# ---------------------------------------------------------------------------
# ranks

def _rank_gf2(lows: list[int], build) -> int:
    # lowest row -> reduced column, or ~j while column j is unbuilt
    basis: dict[int, int] = {}
    for j, low in enumerate(lows):
        if low not in basis:
            basis[low] = ~j
            continue
        col = build(j)
        while col:
            low = col.bit_length() - 1
            piv = basis.get(low)
            if piv is None:
                basis[low] = col
                break
            if piv < 0:
                piv = basis[low] = build(~piv)
            col ^= piv
    return len(basis)


def _signed(col: int) -> dict[int, int]:
    """The {row: coeff} dict of a bitmask column, signed +1, -1, +1, ...
    from its largest row down."""
    v, sign = {}, 1
    while col:
        r = col.bit_length() - 1
        v[r] = sign
        sign = -sign
        col ^= 1 << r
    return v


def _pivot(v: dict[int, int], c: int, p: int | None) -> dict[int, int]:
    """v, whose lowest entry is c, as a pivot is stored: scaled so that
    entry is 1 over GF(p), or divided by its content, with that entry
    positive, over Q."""
    if p is None:
        g = reduce(gcd, v.values())
        g = g if c > 0 else -g
        return {r: x // g for r, x in v.items()}
    inv = pow(c, -1, p)
    return {r: x * inv % p for r, x in v.items()}


def _rank_sparse(lows: list[int], build, p: int | None) -> int:
    """Rank over GF(p), or over Q when p is None, by column reduction
    with int coefficients for either.

    Each column, once built, becomes a `_signed` dict.  While its lowest
    (largest) row is the pivot of an earlier column piv, v becomes
    piv[low] * v - v[low] * piv (both factors divided by their gcd; mod p
    over GF(p)), which clears that row.  A column that survives becomes
    the pivot for its lowest row, stored by `_pivot`.  Each step
    multiplies v by a non-zero scalar and adds a multiple of an earlier
    column, so the span is kept and the rank is exact.  The rank is the
    number of pivots."""
    # lowest row -> reduced column, or j while column j is unbuilt
    pivots: dict[int, dict[int, int] | int] = {}
    for j, low in enumerate(lows):
        if low not in pivots:
            pivots[low] = j
            continue
        v = _signed(build(j))
        while v:
            low = max(v)
            c = v[low]
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = _pivot(v, c, p)
                break
            if type(piv) is int:  # its lowest entry is +1 by the sign rule
                piv = pivots[low] = _pivot(_signed(build(piv)), 1, p)
            a = piv[low]  # 1 over GF(p)
            if a != 1:
                g = gcd(a, c)
                a //= g
                c //= g
                v = {r: a * x for r, x in v.items()}
            for r, x in piv.items():
                y = v.get(r, 0) - c * x
                if p is not None:
                    y %= p
                if y:
                    v[r] = y
                else:
                    v.pop(r, None)
    return len(pivots)


def matrix_rank(m, field: FieldSpec) -> int:
    """Rank over field of m = (lows, build): lows[j] is the lowest row of
    column j, which is not zero, and build(j) returns column j as a
    bitmask; see the module docstring."""
    return _rank_gf2(*m) if field.p == 2 else _rank_sparse(*m, field.p)


# ---------------------------------------------------------------------------
# Betti numbers

def betti(k: Complex, field: FieldSpec = GF2) -> BettiVector:
    """Reduced Betti numbers of k over field.  The void complex is all
    zeros."""
    if k.is_void:
        return BettiVector((), field)
    layers = _faces_by_dim(k)
    # ranks[j]: rank of the map out of layers[j]; zero out of C_{-1} and into the top
    ranks = [0] + [matrix_rank(m, field) for m in boundary_matrices(k)] + [0]
    out = []
    for j, faces in enumerate(layers):
        b = len(faces) - ranks[j] - ranks[j + 1]
        if b:
            out.append((j - 1, b))
    return BettiVector(tuple(out), field)


def total_betti(k: Complex, field: FieldSpec = GF2) -> int:
    return betti(k, field).total()


def reduced_euler(k: Complex) -> int:
    """Reduced Euler characteristic: alternating face count over the
    augmented f-vector (the empty complex gives -1)."""
    if k.is_void:
        raise ValueError("void complex has no Euler characteristic")
    chi = 0
    for f in all_faces(k):
        # a face on c vertices has dimension c-1 and sign (-1)^(c-1)
        chi += -1 if f.bit_count() % 2 == 0 else 1
    return chi
