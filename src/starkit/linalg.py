"""Small exact matrices over ExactComplex (products also over Fraction).

Matrices are tuples of row tuples.  Everything here is meant for the tiny
structure matrices of symplectic forms and bivectors (dimension at most a
dozen or so), so the implementations favour clarity over asymptotics.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul

from .errors import InputError
from .scalars import ExactComplex


def as_matrix(rows) -> tuple[tuple[ExactComplex, ...], ...]:
    """Coerce a square array of scalars to a matrix of ExactComplex."""
    mat = tuple(tuple(ExactComplex.coerce(x) for x in row) for row in rows)
    if not mat:
        raise InputError("matrix must be nonempty")
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise InputError("matrix must be square")
    return mat


def identity(n: int):
    one, zero = ExactComplex(1), ExactComplex(0)
    return tuple(tuple(one if r == c else zero for c in range(n))
                 for r in range(n))


def transpose(mat):
    return tuple(zip(*mat))


def mat_neg(mat):
    return tuple(tuple(-x for x in row) for row in mat)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(reduce(add, map(mul, row, col)) for col in bt)
                 for row in a)


def mat_vec(mat, vec):
    return tuple(reduce(add, map(mul, row, vec)) for row in mat)


def congruence_residual(s, m):
    """(S M) S^T - M, zero iff congruence by S fixes M; S may be polynomial."""
    return mat_sub(mat_mul(mat_mul(s, m), transpose(s)), m)


def is_zero_matrix(mat) -> bool:
    return all(x.is_zero() for row in mat for x in row)


def mat_inv(mat):
    """Invert by Gauss-Jordan elimination; raises on singular input."""
    n = len(mat)
    work = [list(row) + list(ident_row)
            for row, ident_row in zip(mat, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n)
                      if not work[r][col].is_zero()), None)
        if pivot is None:
            raise InputError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = ExactComplex(1) / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor.is_zero():
                continue
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)

