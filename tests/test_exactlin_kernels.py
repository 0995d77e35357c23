"""Differential tests of the zero-skipping exactlin kernels.

Every kernel is compared with a naive reference written here from the
scalar operations of `Field` alone.  Inputs are seeded random matrices at
fills 0, about 3%, 50% and 100%, over Q, F_2 and F_5.  Over Q each input
is also rebuilt with fresh `Fraction(0)` objects in place of the shared
zero, and products that cancel to zero are fed back in, so a kernel that
treated only the shared zero object as zero would give a different answer.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from entwine.exactlin import (
    Field, Mat, hstack, kernel_basis, kron, rref, solve_affine, vstack,
)

Q = Field.rational()
FIELDS = {"Q": Q, "F2": Field.prime(2), "F5": Field.prime(5)}
FILLS = (0.0, 0.03, 0.5, 1.0)


# -- inputs -----------------------------------------------------------

def rand_mat(F, rng, rows, cols, fill):
    def entry():
        if rng.random() >= fill:
            return F.zero
        x = F.of(rng.choice([-3, -2, -1, 1, 2, 3]) if F.kind == "rational"
                 else rng.randrange(1, F.p))
        if F.kind == "rational" and rng.random() < 0.3:
            x = x / 2
        return x
    return Mat(F, rows, cols, tuple(entry() for _ in range(rows * cols)))


def fresh_zeros(m):
    """The same matrix with every zero a new object, not the shared zero."""
    return Mat(m.field, m.rows, m.cols,
               tuple(Fraction(0) if not x else x for x in m.entries))


def variants(m):
    """m itself, and over Q m with fresh zero objects."""
    return [m, fresh_zeros(m)] if m.field.kind == "rational" else [m]


def cancelling_product(F, rng, n, m, k, fill):
    """(A, B) with A*B == 0 where every nonzero sum of A*B cancels."""
    a = rand_mat(F, rng, n, m, fill)
    b = rand_mat(F, rng, m, k, fill)
    neg_b = Mat(F, m, k, tuple(F.sub(F.zero, x) for x in b.entries))
    return hstack([a, a]), vstack([b, neg_b])


# -- naive references -------------------------------------------------

def ref_matmul(a, b):
    F = a.field
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = F.zero
            for t in range(a.cols):
                acc = F.add(acc, F.mul(a.entries[i * a.cols + t],
                                       b.entries[t * b.cols + j]))
            out.append(acc)
    return out


def ref_kron(a, b):
    F = a.field
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                for l in range(b.cols):
                    out.append(F.mul(a.entries[i * a.cols + j],
                                     b.entries[k * b.cols + l]))
    return out


def ref_rref(m):
    F = m.field
    rows = [list(m.entries[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if rows[i][c] != F.zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [x for row in rows for x in row], pivots


def ref_kernel(m):
    """Free-column basis of ker(m), as a list of columns."""
    F = m.field
    flat, pivots = ref_rref(m)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        x = [F.zero] * m.cols
        x[free] = F.one
        for j, pcol in enumerate(pivots):
            x[pcol] = F.sub(F.zero, flat[j * m.cols + free])
        basis.append(x)
    return basis


def columns(m):
    return [list(m.entries[j::m.cols]) for j in range(m.cols)] if m.cols else []


def assert_entries(m, want, rows, cols):
    assert (m.rows, m.cols) == (rows, cols)
    assert list(m.entries) == list(want)
    F = m.field
    for x in m.entries:
        if F.kind == "rational":
            assert type(x) is Fraction
        else:
            assert type(x) is int and 0 <= x < F.p


def seeded(field_name, fill):
    return random.Random("%s-%s" % (field_name, fill))


params = pytest.mark.parametrize(
    "field_name, fill", [(f, x) for f in FIELDS for x in FILLS])


# -- products ---------------------------------------------------------

@params
def test_matmul_matches_reference(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for n, m, k in [(1, 1, 1), (3, 4, 2), (6, 7, 5), (8, 8, 8), (0, 3, 2), (2, 0, 3)]:
        a, b = rand_mat(F, rng, n, m, fill), rand_mat(F, rng, m, k, fill)
        for a2 in variants(a):
            for b2 in variants(b):
                assert_entries(a2 * b2, ref_matmul(a, b), n, k)
    # Rows of A that are a single one copy a row of B.
    perm = Mat(F, 3, 3, tuple(F.one if j == (i + 1) % 3 else F.zero
                              for i in range(3) for j in range(3)))
    b = rand_mat(F, rng, 3, 4, fill)
    assert_entries(perm * b, ref_matmul(perm, b), 3, 4)


@params
def test_cancelling_products_are_zero(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    a, b = cancelling_product(F, rng, 4, 5, 6, max(fill, 0.5))
    c = a * b
    assert c.is_zero()
    assert_entries(c, [F.zero] * 24, 4, 6)
    # The cancelled zeros feed further kernels as zeros.
    x = rand_mat(F, rng, 6, 3, max(fill, 0.5))
    assert (c * x).is_zero()
    assert kron(c, x).is_zero()
    assert rref(c) == (c, ())
    assert_entries(c + c, [F.zero] * 24, 4, 6)
    assert_entries(-c, [F.zero] * 24, 4, 6)


@params
def test_kron_matches_reference(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for (p, q), (r, s) in [((1, 1), (1, 1)), ((2, 3), (3, 2)), ((3, 3), (3, 4)),
                           ((0, 2), (2, 2)), ((2, 2), (2, 0))]:
        a, b = rand_mat(F, rng, p, q, fill), rand_mat(F, rng, r, s, fill)
        for a2 in variants(a):
            for b2 in variants(b):
                assert_entries(kron(a2, b2), ref_kron(a, b), p * r, q * s)
        eye = Mat.identity(F, 2)
        assert_entries(kron(eye, b), ref_kron(eye, b), 2 * r, 2 * s)
        assert_entries(kron(b, eye), ref_kron(b, eye), 2 * r, 2 * s)


# -- elementwise ------------------------------------------------------

@params
def test_elementwise_match_reference(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for rows, cols in [(1, 1), (3, 4), (7, 6), (0, 3)]:
        a, b = rand_mat(F, rng, rows, cols, fill), rand_mat(F, rng, rows, cols, fill)
        ae, be = a.entries, b.entries
        for a2 in variants(a):
            for b2 in variants(b):
                assert_entries(a2 + b2, [F.add(x, y) for x, y in zip(ae, be)], rows, cols)
                assert_entries(a2 - b2, [F.sub(x, y) for x, y in zip(ae, be)], rows, cols)
                assert_entries(a2 - a2, [F.zero] * (rows * cols), rows, cols)
            assert_entries(-a2, [F.sub(F.zero, x) for x in ae], rows, cols)
            for c in (0, 1, -1, 2, Fraction(1, 3) if F.kind == "rational" else 3):
                assert_entries(a2.scale(c), [F.mul(F.of(c), x) for x in ae], rows, cols)
            assert a2.is_zero() == all(x == F.zero for x in ae)
            assert_entries(a2.t, [ae[i * cols + j] for j in range(cols)
                                  for i in range(rows)], cols, rows)


# -- elimination ------------------------------------------------------

@params
def test_rref_matches_reference(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for rows, cols in [(1, 1), (4, 6), (6, 4), (7, 9), (0, 3), (3, 0)]:
        m = rand_mat(F, rng, rows, cols, fill)
        want, pivots = ref_rref(m)
        for m2 in variants(m):
            r, got = rref(m2)
            assert got == tuple(pivots)
            assert_entries(r, want, rows, cols)
    # Rank-deficient: the lower block repeats combinations of the upper.
    top = rand_mat(F, rng, 3, 7, max(fill, 0.5))
    m = vstack([top, Mat.from_rows(F, [[1, 1, 0]]) * top, top])
    want, pivots = ref_rref(m)
    r, got = rref(m)
    assert got == tuple(pivots) and len(got) <= 3
    assert_entries(r, want, 7, 7)


@params
def test_kernel_basis_matches_reference(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for rows, cols in [(1, 1), (3, 6), (6, 4), (5, 8)]:
        m = rand_mat(F, rng, rows, cols, fill)
        want = ref_kernel(m)
        for m2 in variants(m):
            k = kernel_basis(m2)
            assert columns(k) == want
            assert_entries(k, [x for i in range(cols) for x in
                               (col[i] for col in want)], cols, len(want))
            assert (m2 * k).is_zero()


@params
def test_solve_affine_matches_reference(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for rows, cols, rhs in [(1, 1, 1), (4, 6, 1), (6, 4, 2), (5, 8, 3)]:
        a = rand_mat(F, rng, rows, cols, fill)
        # One right-hand side in the image, and one random.
        x = rand_mat(F, rng, cols, rhs, 0.5)
        for b in (a * x, rand_mat(F, rng, rows, rhs, max(fill, 0.5))):
            flat, pivots = ref_rref(hstack([a, b]))
            for a2 in variants(a):
                for b2 in variants(b):
                    sol = solve_affine(a2, b2)
                    if any(p >= cols for p in pivots):
                        assert sol is None
                        continue
                    part, kern = sol
                    width = cols + rhs
                    want = [[F.zero] * rhs for _ in range(cols)]
                    for j, pcol in enumerate(pivots):
                        want[pcol] = flat[j * width + cols:(j + 1) * width]
                    assert_entries(part, [y for row in want for y in row], cols, rhs)
                    assert columns(kern) == ref_kernel(a)
                    assert a2 * part == b
        assert solve_affine(a, a * x) is not None
