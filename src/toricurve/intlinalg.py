"""Exact integer linear algebra on plain int rows.

Determinants, integer kernel bases, and the rank-3 cross and dot products
behind inverses of unimodular 3 x 3 matrices.  A matrix is a list or tuple
of equal-length int rows.  No floating point anywhere: entries are Python
ints and every result is exact.
"""
from __future__ import annotations


class NotUnimodular(ValueError):
    """A matrix that was required to have determinant +-1 does not."""


def det(rows) -> int:
    """Determinant of a square matrix by fraction-free Bareiss elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: exact division keeps entries integral
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def integer_kernel_basis(rows) -> list[tuple[int, ...]]:
    """Basis of the lattice {x integral : A x = 0}, A given by its (nonempty) rows.

    Diagonalises A by unimodular row and column operations, recording the
    column operations in V, so A V is diagonal and V's columns past the rank
    span the kernel.  Pivot: the smallest nonzero |entry| of the working
    submatrix, ties to the lowest (row, col); a remainder smaller than the
    pivot re-picks it.  This is the first sweep of a Smith normal form, and
    the later divisibility pass never touches a zero column, so the basis is
    the Smith form's V kernel columns, in their order.
    """
    m = [list(row) for row in rows]
    r, c = len(m), len(m[0])
    vt = [[int(i == j) for j in range(c)] for i in range(c)]  # vt[j] is column j of V
    k = 0
    while k < min(r, c):
        pivots = [(abs(m[i][j]), i, j) for i in range(k, r) for j in range(k, c) if m[i][j]]
        if not pivots:
            break
        _, pi, pj = min(pivots)
        m[k], m[pi] = m[pi], m[k]
        for row in m:
            row[k], row[pj] = row[pj], row[k]
        vt[k], vt[pj] = vt[pj], vt[k]
        if m[k][k] < 0:
            m[k] = [-x for x in m[k]]
        p = m[k][k]
        for i in range(k + 1, r):
            q = m[i][k] // p
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[k])]
        if any(m[i][k] for i in range(k + 1, r)):
            continue
        # rows other than k are zero in column k, so a column operation
        # changes only m[k][j] in M
        for j in range(k + 1, c):
            q, m[k][j] = divmod(m[k][j], p)
            if q:
                vt[j] = [x - q * y for x, y in zip(vt[j], vt[k])]
        if any(m[k][j] for j in range(k + 1, c)):
            continue
        k += 1
    assert abs(det(vt)) == 1
    basis = [tuple(col) for col in vt[k:]]
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows for v in basis)
    return basis


def cross(u, v) -> tuple[int, int, int]:
    """Cross product of two rank-3 int vectors."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def dot(u, v) -> int:
    """Pairing of two rank-3 int vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def unimodular_inverse(rows) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of a 3 x 3 matrix with determinant +-1, via the adjugate:
    with columns c_0, c_1, c_2, row t is c_(t+1) x c_(t+2) (indices mod 3)
    times det = c_0 . (c_1 x c_2), as dividing by +-1 is multiplying by it."""
    if any(len(row) != len(rows) for row in rows):
        raise NotUnimodular("matrix is not square")
    if len(rows) != 3:
        raise NotUnimodular(f"matrix is {len(rows)} x {len(rows)}, not 3 x 3")
    cols = tuple(zip(*rows))
    adj = (cross(cols[1], cols[2]), cross(cols[2], cols[0]), cross(cols[0], cols[1]))
    d = dot(cols[0], adj[0])
    if d not in (1, -1):
        raise NotUnimodular(f"determinant is {d}, not +-1")
    out = tuple(tuple(d * x for x in row) for row in adj)
    assert all(dot(m, c) == (s == t) for s, m in enumerate(out) for t, c in enumerate(cols))
    return out
