from __future__ import annotations

import random
from fractions import Fraction

import pytest

from entwine import exactlin
from entwine.exactlin import (
    Field, Mat, SubspaceBasis, QuotientPresentation,
    kron, flip, hstack, vstack, vec, unvec, block_inj, block_proj,
    rref, rank, kernel_basis, solve_affine, inverse, cokernel,
    restrict_map, same_subspace, mat_solution_basis, affine_matrix_system,
    basis_columns, in_subspace, _is_prime,
)
from corpus import TALL
from oracles import (
    kron_oracle, matmul_oracle, det_oracle, rank_oracle, apply_oracle,
    random_mat,
)

Q = Field.rational()
F5 = Field.prime(5)
FIELDS = [Q, F5]


# -- fields -----------------------------------------------------------

def test_field_parse_show_roundtrip():
    for s in ["0", "1", "-2", "3/4", "-7/3", "10/4"]:
        x = Q.parse(s)
        assert Q.parse(Q.show(x)) == x
    # lowest terms, positive denominator, "/1" omitted
    assert Q.show(Q.parse("10/4")) == "5/2"
    assert Q.show(Q.parse("-10/4")) == "-5/2"
    assert Q.show(Q.parse("8/4")) == "2"


def test_prime_field_ops():
    assert F5.of(7) == 2
    assert F5.of(-1) == 4
    assert F5.of(Fraction(1, 2)) == 3  # 2 * 3 == 1 mod 5
    assert F5.inv(3) == 2
    assert F5.parse("7/3") == F5.mul(F5.of(7), F5.inv(F5.of(3)))
    with pytest.raises(ValueError):
        F5.of(Fraction(1, 5))
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ValueError):
        Q.of(True)


def test_scalar_parse_errors():
    with pytest.raises(ValueError):
        Q.parse("1/0")
    with pytest.raises(ValueError):
        Q.parse("a")
    with pytest.raises(ValueError):
        Q.parse(None)


# -- matrices ---------------------------------------------------------

def test_matmul_against_oracle():
    rng = random.Random(11)
    for F in FIELDS:
        for _ in range(8):
            a = random_mat(F, rng, rng.randint(1, 4), rng.randint(1, 4))
            b = random_mat(F, rng, a.cols, rng.randint(1, 4))
            assert a * b == matmul_oracle(a, b)


def test_matmul_shape_errors():
    a = Mat.from_rows(Q, [[1, 2]])
    with pytest.raises(ValueError):
        a * a
    with pytest.raises(ValueError):
        a + Mat.from_rows(Q, [[1], [2]])
    with pytest.raises(ValueError):
        a * Mat.from_rows(F5, [[1], [2]])


def test_mat_algebra():
    rng = random.Random(12)
    for F in FIELDS:
        a = random_mat(F, rng, 3, 3)
        b = random_mat(F, rng, 3, 3)
        c = random_mat(F, rng, 3, 3)
        i = Mat.identity(F, 3)
        assert (a * b) * c == a * (b * c)
        assert a * i == a and i * a == a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert (-a) + a == Mat.zeros(F, 3, 3)
        assert (a * b).t == b.t * a.t
        assert a.t.t == a
        assert a.scale(2) == a + a


def test_kron_against_oracle():
    rng = random.Random(13)
    for F in FIELDS:
        for _ in range(6):
            a = random_mat(F, rng, rng.randint(1, 3), rng.randint(1, 3))
            b = random_mat(F, rng, rng.randint(1, 3), rng.randint(1, 3))
            assert kron(a, b) == kron_oracle(a, b)


def test_kron_mixed_product():
    rng = random.Random(14)
    for F in FIELDS:
        a = random_mat(F, rng, 2, 3)
        b = random_mat(F, rng, 3, 2)
        c = random_mat(F, rng, 3, 2)
        d = random_mat(F, rng, 2, 3)
        assert kron(a, c) * kron(b, d) == kron(a * b, c * d)
        e = random_mat(F, rng, 2, 2)
        assert kron(kron(a, c), e) == kron(a, kron(c, e))
        assert kron(Mat.identity(F, 2), Mat.identity(F, 3)) == Mat.identity(F, 6)


def test_flip_swaps_simple_tensors():
    rng = random.Random(15)
    for F in FIELDS:
        u = random_mat(F, rng, 2, 1)
        v = random_mat(F, rng, 3, 1)
        assert flip(F, 2, 3) * kron(u, v) == kron(v, u)
        assert flip(F, 3, 2) * flip(F, 2, 3) == Mat.identity(F, 6)
        a = random_mat(F, rng, 2, 2)
        b = random_mat(F, rng, 3, 3)
        assert flip(F, 2, 3) * kron(a, b) == kron(b, a) * flip(F, 2, 3)


def test_stack_and_blocks():
    a = Mat.from_rows(Q, [[1, 2], [3, 4]])
    b = Mat.from_rows(Q, [[5], [6]])
    assert hstack([a, b]) == Mat.from_rows(Q, [[1, 2, 5], [3, 4, 6]])
    assert vstack([a, a])[3, 1] == Fraction(4)
    dims = [2, 3, 1]
    for k in range(3):
        inj = block_inj(Q, dims, k)
        assert block_proj(Q, dims, k) * inj == Mat.identity(Q, dims[k])
        for j in range(3):
            if j != k:
                assert (block_proj(Q, dims, j) * inj).is_zero()


def test_vec_identity():
    # vec(A F B) == kron(A, B^T) vec(F), the workhorse for system assembly
    rng = random.Random(16)
    for F in FIELDS:
        a = random_mat(F, rng, 2, 3)
        f = random_mat(F, rng, 3, 2)
        b = random_mat(F, rng, 2, 4)
        assert vec(a * f * b) == kron(a, b.t) * vec(f)
        assert unvec(F, vec(f), 3, 2) == f


# -- elimination ------------------------------------------------------

def test_rref_idempotent_and_rank():
    rng = random.Random(17)
    for F in FIELDS:
        for _ in range(10):
            m = random_mat(F, rng, rng.randint(1, 4), rng.randint(1, 4))
            r, piv = rref(m)
            r2, piv2 = rref(r)
            assert r == r2 and piv == piv2
            assert rank(m) == rank_oracle(m)
            assert rank(m) == rank(m.t)


def test_rref_known():
    m = Mat.from_rows(Q, [[0, 2, 4], [1, 1, 1]])
    r, piv = rref(m)
    assert piv == (0, 1)
    assert r == Mat.from_rows(Q, [[1, 0, -1], [0, 1, 2]])


def test_kernel_basis():
    rng = random.Random(18)
    for F in FIELDS:
        for _ in range(10):
            m = random_mat(F, rng, rng.randint(1, 4), rng.randint(1, 4))
            k = kernel_basis(m)
            assert (m * k).is_zero()
            assert rank(k) == k.cols
            assert rank(m) + k.cols == m.cols
            # every kernel column really maps to zero, by the naive action
            for j in range(k.cols):
                col = [k[i, j] for i in range(k.rows)]
                assert all(x == F.zero for x in apply_oracle(m, col))


def test_solve_affine():
    rng = random.Random(19)
    for F in FIELDS:
        for _ in range(8):
            a = random_mat(F, rng, 3, 4)
            x = random_mat(F, rng, 4, 2)
            b = a * x
            sol = solve_affine(a, b)
            assert sol is not None
            part, hom = sol
            assert a * part == b
            assert (a * hom).is_zero()
    # inconsistent
    a = Mat.from_rows(Q, [[1, 0], [1, 0]])
    b = Mat.from_rows(Q, [[1], [2]])
    assert solve_affine(a, b) is None


def test_inverse():
    m = Mat.from_rows(Q, [[2, 1], [1, 1]])
    assert m * inverse(m) == Mat.identity(Q, 2)
    assert inverse(m) * m == Mat.identity(Q, 2)
    with pytest.raises(ValueError):
        inverse(Mat.from_rows(Q, [[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        inverse(Mat.from_rows(Q, [[1, 1]]))
    m5 = Mat.from_rows(F5, [[2, 0], [0, 3]])
    assert m5 * inverse(m5) == Mat.identity(F5, 2)


def test_determinant_oracle_sanity():
    m = Mat.from_rows(Q, [[1, 2], [3, 4]])
    assert det_oracle(m) == Fraction(-2)


# -- subspaces and quotients ------------------------------------------

def test_subspace_basis_validation():
    b = Mat.from_rows(Q, [[1, 0], [0, 1], [0, 0]])
    s = SubspaceBasis(3, b)
    assert s.dim == 2
    with pytest.raises(ValueError):
        SubspaceBasis(3, Mat.from_rows(Q, [[1, 2], [2, 4], [0, 0]]))
    with pytest.raises(ValueError):
        SubspaceBasis(2, b)


# F64 is the largest prime below 2^64.
SPAN_FIELDS = {"Q": Q, "Qtall": Q, "F2": Field.prime(2), "F5": F5,
               "F64": Field.prime(18446744073709551557)}


def independent_columns(field, rows, cols, draw):
    """A random rows x cols matrix of independent columns, entries from draw."""
    while True:
        m = Mat(field, rows, cols, tuple(draw() for _ in range(rows * cols)))
        if rank(m) == cols:
            return m


def test_same_subspace():
    a = SubspaceBasis(3, Mat.from_rows(Q, [[1, 0], [0, 1], [0, 0]]))
    b = SubspaceBasis(3, Mat.from_rows(Q, [[1, 1], [1, -1], [0, 0]]))
    c = SubspaceBasis(3, Mat.from_rows(Q, [[1, 0], [0, 0], [0, 1]]))
    assert same_subspace(a, b)
    assert not same_subspace(a, c)
    assert not same_subspace(a, SubspaceBasis(3, Mat.from_rows(Q, [[1], [0], [0]])))
    # same_subspace compares the reduced rows each span keeps; the rank of
    # the stacked bases is the reference.
    for fname, F in SPAN_FIELDS.items():
        rng = random.Random("span-%s" % fname)

        def draw():
            if rng.random() < 0.4:
                return F.zero
            if fname == "Qtall":
                return F.of(rng.choice(TALL))
            return F.of(rng.randrange(-3, 4) if F.kind == "rational" else rng.randrange(F.p))

        outcomes = set()
        for n, d in [(1, 1), (3, 1), (4, 2), (5, 3), (6, 6), (8, 4)]:
            for _ in range(4):
                basis = independent_columns(F, n, d, draw)
                span = SubspaceBasis(n, basis)
                mix = independent_columns(F, d, d, draw)
                assert same_subspace(span, SubspaceBasis(n, basis * mix))
                # Column k replaced by a combination of the basis columns,
                # which keeps the span when column k's coefficient is
                # nonzero, or by a random vector.
                k = rng.randrange(d)
                for v in (basis * Mat(F, d, 1, tuple(draw() for _ in range(d))),
                          Mat(F, n, 1, tuple(draw() for _ in range(n)))):
                    other = hstack([basis.col_mat(j) if j != k else v for j in range(d)])
                    if rank(other) < d:
                        continue
                    same = same_subspace(span, SubspaceBasis(n, other))
                    assert same == (rank(hstack([basis, other])) == d)
                    assert same_subspace(SubspaceBasis(n, other), span) == same
                    outcomes.add(same)
        assert outcomes == {True, False}, fname
        # Other ambient dimensions are other spaces; spans over Q and F_p
        # are not compared.
        e1 = SubspaceBasis(2, Mat.from_rows(F, [[1], [0]]))
        assert not same_subspace(e1, SubspaceBasis(3, Mat.from_rows(F, [[1], [0], [0]])))
        with pytest.raises(ValueError):
            same_subspace(e1, SubspaceBasis(2, Mat.from_rows(
                F5 if F.kind == "rational" else Q, [[1], [0]])))


@pytest.mark.parametrize("field", [Q, Field.prime(5)], ids=["Q", "F5"])
def test_in_subspace_agrees_with_an_affine_solve(field):
    # Membership reduces vec(f) by the rows kept from the independence
    # check; an affine solve against the whole basis is the reference.
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        basis = kernel_basis(random_mat(field, rng, rng.randint(1, 4), rows * cols, -1, 1))
        if basis.cols == 0:
            continue
        space = SubspaceBasis(rows * cols, basis)
        member = unvec(field, basis * random_mat(field, rng, basis.cols, 1), rows, cols)
        for f in (member, random_mat(field, rng, rows, cols)):
            want = solve_affine(basis, vec(f)) is not None
            assert in_subspace(space, f) == want
            seen[want] += 1
    assert min(seen.values()) > 5
    with pytest.raises(ValueError, match="shape mismatch"):
        in_subspace(space, Mat.zeros(field, rows * cols + 1, 1))
    # the kept rows are not a field of the record
    again = SubspaceBasis(rows * cols, basis)
    assert again == space and hash(again) == hash(space)
    assert repr(space) == "SubspaceBasis(ambient_dim=%d, basis=%r)" % (rows * cols, basis)


def test_cokernel():
    rng = random.Random(20)
    for F in FIELDS:
        for _ in range(8):
            m = random_mat(F, rng, rng.randint(1, 4), rng.randint(1, 4))
            q = cokernel(m)
            assert q.dim == m.rows - rank(m)
            assert (q.projection * m).is_zero()
            assert q.projection * q.section == Mat.identity(F, q.dim)
            # ker(projection) is exactly the image of m
            kp = kernel_basis(q.projection)
            assert kp.cols == rank(m)
            assert rank(hstack([kp, m])) == rank(m)


def test_quotient_presentation_validation():
    m = Mat.from_rows(Q, [[1], [0]])
    with pytest.raises(ValueError):
        QuotientPresentation(2, m, Mat.from_rows(Q, [[1, 0]]), Mat.from_rows(Q, [[1], [0]]))
    with pytest.raises(ValueError):
        QuotientPresentation(2, m, Mat.from_rows(Q, [[0, 1]]), Mat.from_rows(Q, [[1], [0]]))


@pytest.mark.parametrize("F", FIELDS, ids=["Q", "F5"])
def test_cokernel_eliminates_once(F, monkeypatch):
    """A cokernel is read off one elimination of m^T.  Its presentation
    checks projection . section = I, which already makes the projection
    surjective, so no rank of the projection is taken."""
    calls = []

    def counted(field, rows, _f=exactlin._rref_rows):
        calls.append(field)
        return _f(field, rows)

    monkeypatch.setattr(exactlin, "_rref_rows", counted)
    rng = random.Random(11)
    for rows, cols in [(3, 2), (4, 4), (2, 5), (3, 0), (0, 2)]:
        calls.clear()
        q = cokernel(random_mat(F, rng, rows, cols))
        assert q.dim == rows - rank_oracle(q.relations)
        assert calls == [F]


def test_restrict_map():
    f = Mat.from_rows(Q, [[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    dom = Mat.from_rows(Q, [[1], [1], [0]])
    cod = Mat.from_rows(Q, [[1, 0], [0, 1], [0, 0]])
    r = restrict_map(f, dom, cod)
    assert cod * r == f * dom
    bad_cod = Mat.from_rows(Q, [[1], [0], [0]])
    with pytest.raises(ValueError):
        restrict_map(f, Mat.from_rows(Q, [[0], [0], [1]]), bad_cod)


def test_kernel_of_tensor_identity_factorizes():
    # kernel_basis(kron(I, m)) == kron(I, kernel_basis(m)) exactly, thanks
    # to the deterministic pivot order; quotient constructions rely on it
    rng = random.Random(21)
    for F in FIELDS:
        m = random_mat(F, rng, 3, 4)
        i2 = Mat.identity(F, 2)
        assert kernel_basis(kron(i2, m)) == kron(i2, kernel_basis(m))


# -- equation solvers on matrix unknowns ------------------------------

def test_mat_solution_basis_commutant():
    # commutant of a size-2 Jordan block is spanned by I and the block
    j = Mat.from_rows(Q, [[0, 1], [0, 0]])
    space = mat_solution_basis(Q, 2, 2, [lambda f: j * f - f * j])
    assert space.dim == 2
    expect = SubspaceBasis(4, hstack([vec(Mat.identity(Q, 2)), vec(j)]))
    assert same_subspace(space, expect)
    for b in basis_columns(Q, space.basis, 2, 2):
        assert j * b == b * j


def test_affine_matrix_system():
    # residual(F) = A F - B is zero iff F = A^{-1} B, uniquely
    a = Mat.from_rows(Q, [[2, 1], [1, 1]])
    b = Mat.from_rows(Q, [[1, 0], [0, 1]])
    sys_a, sys_b = affine_matrix_system(Q, 2, 2, lambda f: a * f - b)
    sol = solve_affine(sys_a, sys_b)
    assert sol is not None and sol[1].cols == 0
    f = unvec(Q, sol[0], 2, 2)
    assert a * f == b
    # infeasible affine system
    sys_a, sys_b = affine_matrix_system(Q, 1, 1, lambda f: f - f + Mat.from_rows(Q, [[1]]))
    assert solve_affine(sys_a, sys_b) is None


def test_prime_moduli_match_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))

    for p in range(-3, 5000):
        assert _is_prime(p) == trial(p), p
    for p in (561, 1105, 3215031751, 2 ** 32 + 1, (2 ** 31 - 1) * (2 ** 13 - 1)):
        assert not _is_prime(p)
    assert Field.prime(2 ** 61 - 1).p == 2 ** 61 - 1
    with pytest.raises(ValueError, match="not below 2"):
        Field.prime(2 ** 64 + 13)
