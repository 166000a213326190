"""Integer linear algebra on int rows against brute-force, direct-product and
Smith-form oracles.

The Smith normal form lives in oracles.py as the reference for
`integer_kernel_basis`: the kernel basis must be its V kernel columns, list
for list, so that kernel degree vectors keep their bytes.
"""

import random

import pytest
import sympy

from oracles import (
    kernel_basis_by_smith_form, kernel_vectors_brute_force, matmul, smith_normal_form,
)
from toricurve.fan import preset, ray_matrix, star_subdivision
from toricurve.intlinalg import NotUnimodular, det, integer_kernel_basis, unimodular_inverse


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def check_decomposition(A):
    """Every property the reference decomposition promises, checked by direct arithmetic."""
    U, S, V = smith_normal_form(A)
    assert matmul(matmul(U, A), V) == S
    diag = [S[k][k] for k in range(min(len(A), len(A[0])))]
    for i in range(len(A)):
        for j in range(len(A[0])):
            if i != j:
                assert S[i][j] == 0
    assert all(d >= 0 for d in diag)
    for k in range(len(diag) - 1):
        if diag[k + 1]:
            assert diag[k] != 0 and diag[k + 1] % diag[k] == 0
        # a zero may only be followed by zeros
        if diag[k] == 0:
            assert diag[k + 1] == 0
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    return diag


def test_snf_identity():
    eye = identity(3)
    assert smith_normal_form(eye) == (eye, eye, eye)


def test_snf_diag_2_3():
    """diag(2,3) has invariant factors (1, 6)."""
    assert check_decomposition([[2, 0], [0, 3]]) == [1, 6]


def test_snf_p3_ray_matrix(p3):
    """The rank-3 surjective ray matrix reduces to (I3 | 0)."""
    A = ray_matrix(p3)
    assert A == [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
    assert check_decomposition(A) == [1, 1, 1]


def test_snf_zero_and_single_entries():
    assert check_decomposition([[0, 0], [0, 0]]) == [0, 0]
    assert check_decomposition([[-7]]) == [7]
    assert check_decomposition([[4, 6]]) == [2]


def test_snf_random_matrices():
    """Seeded sweep over shapes; all decomposition invariants must hold."""
    rng = random.Random(101)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = check_decomposition(A)
        rank = sympy.Matrix(A).rank()
        assert sum(1 for d in diag if d) == rank


def test_kernel_identity_is_trivial():
    assert integer_kernel_basis(identity(3)) == []


def test_kernel_p3_matches_brute_force(p3):
    """Brute-force enumeration pins the kernel lattice of the ray matrix."""
    A = ray_matrix(p3)
    basis = integer_kernel_basis(A)
    assert len(basis) == 1
    vec = basis[0]
    assert vec in ((1, 1, 1, 1), (-1, -1, -1, -1))
    enumerated = kernel_vectors_brute_force(A, 2)
    assert enumerated == [(-2, -2, -2, -2), (-1, -1, -1, -1), (1, 1, 1, 1), (2, 2, 2, 2)]
    for w in enumerated:
        q = w[0] // vec[0]
        assert tuple(q * x for x in vec) == w


def test_kernel_p1p1p1_contains_pair_vectors(p1p1p1):
    """Rank-3 kernel; every opposite-ray pair vector is an integer combination."""
    A = ray_matrix(p1p1p1)
    basis = integer_kernel_basis(A)
    assert len(basis) == 3
    for vec in basis:
        assert matmul(A, [[x] for x in vec]) == [[0], [0], [0]]
    M = sympy.Matrix(basis).T
    for target in ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)):
        sol, params = M.gauss_jordan_solve(sympy.Matrix(target))
        assert not params
        assert all(x.is_Integer for x in sol)
    assert (1, 1, 0, 0, 0, 0) in kernel_vectors_brute_force(A, 1)


def test_kernel_random_matrices():
    rng = random.Random(77)
    for _ in range(40):
        cols = rng.randint(1, 5)
        A = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(3)]
        basis = integer_kernel_basis(A)
        rank = sympy.Matrix(A).rank()
        assert len(basis) == cols - rank
        for vec in basis:
            assert matmul(A, [[x] for x in vec]) == [[0], [0], [0]]
        if basis:
            assert sympy.Matrix(basis).rank() == len(basis)


def _random_matrix(rng):
    """1-4 rows by 1-7 columns in [-5, 5]; a third of them have a row that is
    a combination of the others, so the rank drops."""
    rows, cols = rng.randint(1, 4), rng.randint(1, 7)
    A = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 1 / 3:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        A[-1] = [a * x + b * y for x, y in zip(A[0], A[rows // 2 - 1])]
    return A


def test_kernel_basis_is_the_smith_form_kernel_on_random_matrices():
    rng = random.Random(13)
    shapes = {"deficient": 0, "tall": 0}
    for _ in range(2000):
        A = _random_matrix(rng)
        basis = integer_kernel_basis(A)
        assert basis == kernel_basis_by_smith_form(A), A
        shapes["deficient"] += len(A[0]) - len(basis) < min(len(A), len(A[0]))
        shapes["tall"] += len(A) > len(A[0])
    assert min(shapes.values()) >= 200, shapes


def _sheared_chain(rng):
    """The ray matrix of a random star-subdivision chain of a preset, with
    the rays written in a lattice basis made of 2 to 8 shears by +-2."""
    fan = preset(rng.choice(("p3", "p1p1p1", "bl-p3-point")))
    for _ in range(rng.randint(0, 5)):
        fan = star_subdivision(fan, rng.choice(fan.max_cones))
    A = ray_matrix(fan)
    for _ in range(rng.randint(2, 8)):
        i, j = rng.sample(range(3), 2)
        k = rng.choice((-2, 2))
        A[i] = [x + k * y for x, y in zip(A[i], A[j])]
    return A


def test_kernel_basis_is_the_smith_form_kernel_on_sheared_ray_matrices():
    rng = random.Random(29)
    no_unit_entry = 0
    for _ in range(300):
        A = _sheared_chain(rng)
        basis = integer_kernel_basis(A)
        assert basis == kernel_basis_by_smith_form(A), A
        assert len(basis) == len(A[0]) - 3
        # with no entry +-1 the sweep starts on a pivot that leaves remainders
        no_unit_entry += all(abs(x) != 1 for row in A for x in row)
    assert no_unit_entry >= 10


def test_unimodular_inverse_identity():
    eye = identity(3)
    assert unimodular_inverse(eye) == tuple(map(tuple, eye))


def test_unimodular_inverse_mixed_basis():
    """Columns (e2, e3, (-1,-1,-1)): the row dual to the last column is (-1,0,0)."""
    B = [[0, 0, -1], [1, 0, -1], [0, 1, -1]]
    inv = unimodular_inverse(B)
    assert inv[2] == (-1, 0, 0)
    assert matmul(inv, B) == identity(3)


def test_unimodular_inverse_rejects_index_two():
    B = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    with pytest.raises(NotUnimodular):
        unimodular_inverse(B)


def test_unimodular_inverse_random():
    """Random products of elementary matrices invert exactly."""
    rng = random.Random(5)
    for _ in range(30):
        M = identity(3)
        for _ in range(rng.randint(1, 8)):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-3, 3)
            for c in range(3):
                M[i][c] += q * M[j][c]
        inv = unimodular_inverse(M)
        assert matmul(inv, M) == identity(3)


def test_det_matches_sympy():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(rows) == int(sympy.Matrix(rows).det())


def test_det_refuses_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="non-square"):
        det([[1, 2, 3], [4, 5, 6]])
