"""Differential tests of the sparse-row Mat against a dense reference.

A Mat stores one dict {column: value} of nonzeros per row.  Every
operation here is compared with a naive reference on lists of lists,
written from the scalar operations of `Field` alone, over Q, F_2 and F_5,
at fills 0, about 5%, 50% and 100% and on shapes with no rows or no
columns.  Each result is also checked to store no zeros, so that equality
and hashing of the rows agree with those of the entries.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from entwine.exactlin import (
    Field, Mat, block_diag, block_inj, block_proj, hstack, kron, reshape, unvec, vec,
    vstack,
)
from entwine.report import eq_check

FIELDS = {"Q": Field.rational(), "F2": Field.prime(2), "F5": Field.prime(5)}
FILLS = (0.0, 0.05, 0.5, 1.0)
SHAPES = ((1, 1), (3, 4), (5, 2), (0, 3), (3, 0), (0, 0))

params = pytest.mark.parametrize(
    "field_name, fill", [(f, x) for f in FIELDS for x in FILLS])


def seeded(field_name, fill):
    return random.Random("sparse-%s-%s" % (field_name, fill))


def rand_rows(F, rng, rows, cols, fill):
    """A dense reference: a list of row lists of field elements."""
    def entry():
        if rng.random() >= fill:
            return F.zero
        if F.kind == "rational":
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        return rng.randrange(1, F.p)
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def mat(F, ref, cols):
    return Mat(F, len(ref), cols, tuple(x for r in ref for x in r))


def check(m, ref, cols):
    """m has the entries of ref, typed as the field's, and stores no zero."""
    F = m.field
    assert (m.rows, m.cols) == (len(ref), cols)
    assert list(m.entries) == [x for r in ref for x in r]
    assert len(m.nz) == m.rows
    for r in m.nz:
        assert all(0 <= j < cols and x for j, x in r.items())
        for x in r.values():
            if F.kind == "rational":
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < F.p
    for i, r in enumerate(ref):
        assert m.row(i) == tuple(r)
        for j, x in enumerate(r):
            assert m[i, j] == x


# -- naive references on row lists ------------------------------------

def ref_matmul(F, a, b, inner, cols):
    return [[sum_(F, (F.mul(a[i][t], b[t][j]) for t in range(inner))) for j in range(cols)]
            for i in range(len(a))]


def sum_(F, xs):
    acc = F.zero
    for x in xs:
        acc = F.add(acc, x)
    return acc


def ref_kron(F, a, acols, b, bcols):
    return [[F.mul(a[i][j], b[k][l]) for j in range(acols) for l in range(bcols)]
            for i in range(len(a)) for k in range(len(b))]


def ref_t(a, cols):
    return [[r[j] for r in a] for j in range(cols)]


# -- elementwise and index maps ---------------------------------------

@params
def test_elementwise_and_transpose(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for rows, cols in SHAPES:
        a, b = rand_rows(F, rng, rows, cols, fill), rand_rows(F, rng, rows, cols, fill)
        ma, mb = mat(F, a, cols), mat(F, b, cols)
        check(ma, a, cols)
        check(ma + mb, [[F.add(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)], cols)
        check(ma - mb, [[F.sub(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)], cols)
        check(ma - ma, [[F.zero] * cols for _ in a], cols)
        check(-ma, [[F.neg(x) for x in r] for r in a], cols)
        for c in (0, 1, -1, 2):
            check(ma.scale(c), [[F.mul(F.of(c), x) for x in r] for r in a], cols)
            check(c * ma, [[F.mul(F.of(c), x) for x in r] for r in a], cols)
        check(ma.t, ref_t(a, cols), rows)
        assert ma.t.t == ma
        assert ma.is_zero() == all(not x for r in a for x in r)
        for j in range(cols):
            check(ma.col_mat(j), [[r[j]] for r in a], 1)
        flat = [x for r in a for x in r]
        check(vec(ma), [[x] for x in flat], 1)
        assert unvec(F, vec(ma), rows, cols) == ma
        if rows and cols:
            want = [flat[i * rows:(i + 1) * rows] for i in range(cols)]
            check(reshape(ma, cols, rows), want, rows)


@params
def test_products(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for n, m, k in [(1, 1, 1), (3, 4, 2), (6, 5, 7), (0, 3, 2), (2, 0, 3), (2, 3, 0)]:
        a, b = rand_rows(F, rng, n, m, fill), rand_rows(F, rng, m, k, fill)
        check(mat(F, a, m) * mat(F, b, k), ref_matmul(F, a, b, m, k), k)
    # A permutation times b shares b's rows; a scaled one scales them.
    b = rand_rows(F, rng, 3, 4, fill)
    for c in (1, 2):
        perm = [[F.of(c) if j == (i + 1) % 3 else F.zero for j in range(3)] for i in range(3)]
        check(mat(F, perm, 3) * mat(F, b, 4), ref_matmul(F, perm, b, 3, 4), 4)
    for (p, q), (r, s) in [((1, 1), (1, 1)), ((2, 3), (3, 2)), ((3, 3), (2, 4)),
                           ((0, 2), (2, 2)), ((2, 2), (2, 0))]:
        a, b = rand_rows(F, rng, p, q, fill), rand_rows(F, rng, r, s, fill)
        check(kron(mat(F, a, q), mat(F, b, s)), ref_kron(F, a, q, b, s), q * s)


@params
def test_stacks_and_blocks(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    a, b, c = (rand_rows(F, rng, 3, cols, fill) for cols in (2, 0, 4))
    check(hstack([mat(F, a, 2), mat(F, b, 0), mat(F, c, 4)]),
          [r + s + t for r, s, t in zip(a, b, c)], 6)
    d, e = rand_rows(F, rng, 2, 4, fill), rand_rows(F, rng, 0, 4, fill)
    check(vstack([mat(F, c, 4), mat(F, e, 4), mat(F, d, 4)]), c + e + d, 4)
    check(block_diag(mat(F, a, 2), mat(F, d, 4)),
          [r + [F.zero] * 4 for r in a] + [[F.zero] * 2 + r for r in d], 6)
    dims = (2, 0, 3)
    for k, dk in enumerate(dims):
        inj = [[F.one if i == sum(dims[:k]) + j else F.zero for j in range(dk)]
               for i in range(sum(dims))]
        check(block_inj(F, dims, k), inj, dk)
        check(block_proj(F, dims, k), ref_t(inj, dk), sum(dims))
    check(Mat.identity(F, 3), [[F.one if i == j else F.zero for j in range(3)]
                               for i in range(3)], 3)
    check(Mat.zeros(F, 2, 3), [[F.zero] * 3] * 2, 3)


# -- no stored zeros --------------------------------------------------

@params
def test_unshared_zeros_are_not_stored(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    fresh = (lambda: Fraction(0)) if F.kind == "rational" else (lambda: 0)
    for rows, cols in SHAPES:
        ref = rand_rows(F, rng, rows, cols, fill)
        m = mat(F, ref, cols)
        # Every zero a new object, and over Q also the int 0.
        for zero in (fresh, lambda: 0):
            other = Mat(F, rows, cols, tuple(x if x else zero() for r in ref for x in r))
            assert other.nz == m.nz and other == m and hash(other) == hash(m)
            check(other, ref, cols)
    # Sums that cancel leave nothing behind.
    m = mat(F, rand_rows(F, rng, 3, 3, max(fill, 0.5)), 3)
    assert (m + (-m)).nz == ({}, {}, {}) and m - m == Mat.zeros(F, 3, 3)
    assert hash(m - m) == hash(Mat.zeros(F, 3, 3))


def test_equality_and_hash_follow_the_entries():
    Q = FIELDS["Q"]
    a = Mat(Q, 2, 2, (Fraction(1), Fraction(0), Fraction(0), Fraction(2)))
    b = Mat.from_rows(Q, [[1, 0], [0, 2]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Mat.from_rows(Q, [[1, 0], [2, 0]])
    assert a != Mat(Q, 1, 4, (1, 0, 0, 2)) and a != a.entries
    assert a != Mat.from_rows(FIELDS["F5"], [[1, 0], [0, 2]])
    assert repr(a) == "Mat(2x2: 1 0; 0 2)"
    with pytest.raises(ValueError):
        Mat(Q, 2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        reshape(a, 3, 1)
    with pytest.raises(IndexError):
        a[2, 0]


# -- report.eq_check walks the nonzeros ------------------------------

def ref_witness(F, lhs, rhs):
    """The first differing entry in row-major order, from a dense scan."""
    for i in range(lhs.rows):
        for j in range(lhs.cols):
            if lhs[i, j] != rhs[i, j]:
                return {"kind": "entry", "row": i, "col": j,
                        "lhs": F.show(lhs[i, j]), "rhs": F.show(rhs[i, j])}
    return None


def test_eq_check_witness_at_a_zero_on_either_side():
    Q = FIELDS["Q"]
    lhs = Mat.from_rows(Q, [[1, 0, 3], [0, 5, 0]])
    rhs = Mat.from_rows(Q, [[1, 0, 3], [0, 0, Fraction(-7, 2)]])
    assert eq_check("c", lhs, rhs).as_dict() == {"name": "c", "passed": False, "witness": {
        "kind": "entry", "row": 1, "col": 1, "lhs": "5", "rhs": "0"}}
    assert eq_check("c", rhs, lhs).witness == {
        "kind": "entry", "row": 1, "col": 1, "lhs": "0", "rhs": "5"}
    assert eq_check("c", lhs, lhs).as_dict() == {"name": "c", "passed": True}
    # Row 0 of the product holds column 2 before column 0; the witness is
    # still the first column.
    prod = Mat.from_rows(Q, [[1, 1]]) * Mat.from_rows(Q, [[0, 0, 4], [6, 0, 0]])
    assert list(prod.nz[0]) == [2, 0]
    assert eq_check("c", prod, Mat.from_rows(Q, [[0, 0, 1]])).witness == {
        "kind": "entry", "row": 0, "col": 0, "lhs": "6", "rhs": "0"}
    assert eq_check("c", Mat.from_rows(Q, [[0, 0, 1]]), prod).witness == {
        "kind": "entry", "row": 0, "col": 0, "lhs": "0", "rhs": "6"}


@params
def test_eq_check_matches_a_dense_scan(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for rows, cols in SHAPES:
        a = rand_rows(F, rng, rows, cols, fill)
        for _ in range(4):
            b = [list(r) for r in a]
            for _ in range(rng.randrange(3)):
                if rows and cols:
                    i, j = rng.randrange(rows), rng.randrange(cols)
                    b[i][j] = rand_rows(F, rng, 1, 1, 0.5)[0][0]
            lhs, rhs = mat(F, a, cols), mat(F, b, cols)
            got = eq_check("c", lhs, rhs)
            assert got.witness == ref_witness(F, lhs, rhs)
            assert got.passed == (a == b)


def test_traced_methods_stay_in_the_class_dict():
    # The benchmark's tracer wraps these in Mat.__dict__; "t" is a property.
    for name in ("_matmul", "__mul__", "__add__", "__sub__", "__neg__", "scale"):
        assert callable(Mat.__dict__[name])
    assert isinstance(Mat.__dict__["t"], property)
