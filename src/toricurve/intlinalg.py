"""Exact integer linear algebra on arbitrary-precision ints.

Smith normal form with unimodular transforms, integer kernel bases and
inverses of unimodular matrices.  No floating point anywhere: entries are
Python ints and every result is exact.
"""
from __future__ import annotations

from dataclasses import dataclass


class NotUnimodular(ValueError):
    """A matrix that was required to have determinant +-1 does not."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("entries must be ints")

    @classmethod
    def from_rows(cls, rows: list[list[int]] | tuple) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(int(x) for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other[k, j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def mul_vector(self, v) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(
            sum(self[i, k] * v[k] for k in range(self.cols)) for i in range(self.rows)
        )

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.to_rows())


def _det(m: list[list[int]]) -> int:
    """Bareiss determinant of a square list of int rows, which it overwrites."""
    n = len(m)
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


@dataclass(frozen=True)
class SnfDecomposition:
    """U @ A @ V == S with U, V unimodular and S diagonal, d_k | d_{k+1}."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix


def _diag(S: list[list[int]], nmin: int) -> list[int]:
    return [S[k][k] for k in range(nmin)]


def smith_normal_form(A: IntMatrix) -> SnfDecomposition:
    """Smith normal form with transforms.

    Pivot rule: smallest absolute value among nonzero entries of the working
    submatrix, ties broken by lowest (row, col).  Together with the fixed
    sweep order this makes the output deterministic.
    """
    if A.rows == 0 or A.cols == 0:
        raise ValueError("matrix must be nonempty")
    r, c = A.rows, A.cols
    m = A.to_rows()
    u = IntMatrix.identity(r).to_rows()
    v = IntMatrix.identity(c).to_rows()
    nmin = min(r, c)

    def swap_rows(i1: int, i2: int) -> None:
        m[i1], m[i2] = m[i2], m[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1: int, j2: int) -> None:
        for row in m:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def negate_row(i: int) -> None:
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    def submul_row(dst: int, src: int, q: int) -> None:
        m[dst] = [x - q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def submul_col(dst: int, src: int, q: int) -> None:
        for row in m:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    def diagonalize() -> None:
        k = 0
        while k < nmin:
            best = None
            for i in range(k, r):
                for j in range(k, c):
                    a = abs(m[i][j])
                    if a and (best is None or a < best[0]):
                        best = (a, i, j)
            if best is None:
                break
            _, pi, pj = best
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            if m[k][k] < 0:
                negate_row(k)
            for i in range(k + 1, r):
                q = m[i][k] // m[k][k]
                if q:
                    submul_row(i, k, q)
            if any(m[i][k] for i in range(k + 1, r)):
                continue  # a remainder < pivot appeared; re-pick pivot
            for j in range(k + 1, c):
                q = m[k][j] // m[k][k]
                if q:
                    submul_col(j, k, q)
            if any(m[k][j] for j in range(k + 1, c)):
                continue
            k += 1

    diagonalize()
    while True:
        viol = None
        d = _diag(m, nmin)
        for k in range(nmin):
            for l in range(k + 1, nmin):
                if d[k] and d[l] % d[k] != 0:
                    viol = (k, l)
                    break
            if viol:
                break
        if viol is None:
            break
        k, l = viol
        submul_col(k, l, -1)  # pull d_l into column k, then re-reduce
        diagonalize()

    U = IntMatrix.from_rows(u)
    S = IntMatrix.from_rows(m)
    V = IntMatrix.from_rows(v)
    assert abs(U.det()) == 1 and abs(V.det()) == 1
    assert (U @ A) @ V == S
    return SnfDecomposition(U, S, V)


def integer_kernel_basis(A: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the lattice {x integral : A x = 0}, in column order of V."""
    if A.cols == 0:
        return []
    if A.rows == 0:
        return [IntMatrix.identity(A.cols).column(j) for j in range(A.cols)]
    snf = smith_normal_form(A)
    nmin = min(A.rows, A.cols)
    basis = []
    for j in range(A.cols):
        d = snf.S[j, j] if j < nmin else 0
        if d == 0:
            col = snf.V.column(j)
            assert A.mul_vector(col) == (0,) * A.rows
            basis.append(col)
    return basis


def unimodular_inverse(B: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1, via the adjugate.

    The cofactors are determinants of row lists, by the same Bareiss
    elimination as ``IntMatrix.det``.
    """
    if B.rows != B.cols:
        raise NotUnimodular("matrix is not square")
    n = B.rows
    rows = B.to_rows()
    d = _det([row[:] for row in rows])
    if d not in (1, -1):
        raise NotUnimodular(f"determinant is {d}, not +-1")

    def cofactor(i: int, j: int) -> int:
        minor = [row[:j] + row[j + 1:] for a, row in enumerate(rows) if a != i]
        return -_det(minor) if (i + j) % 2 else _det(minor)

    # adjugate / det; det is +-1 so dividing is multiplying by det
    out = IntMatrix.from_rows([[d * cofactor(j, i) for j in range(n)] for i in range(n)])
    assert out @ B == IntMatrix.identity(n)
    return out
