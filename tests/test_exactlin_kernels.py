"""Differential tests of the zero-skipping exactlin kernels.

Every kernel is compared with a naive reference written from the scalar
operations of `Field` alone: the products here, the elimination
(`rref_oracle`, `kernel_oracle`) in `oracles.py`.  `rref`, `rank`,
`kernel_basis`, `solve_affine`, `cokernel` and `inverse` all go through
the package's one sparse-row elimination, so each is checked against the
dense reference.  Inputs are seeded random matrices at fills 0, about
3%, 50% and 100%, over Q, F_2, F_5 and F64, the largest prime below
2^64, whose residues multiply to 128 bits before they are reduced.  Over
Q each input is also rebuilt with fresh `Fraction(0)` objects in place
of the shared zero, and products that cancel to zero are fed back in, so
a kernel that treated only the shared zero object as zero would give a
different answer.

"Qtall" is Q again with scalars of height up to 2^70 and coprime
denominators (TALL): the Q products and the elimination run on integer
numerators and denominators, and these inputs reach their sums of equal
and of unequal denominators, sums that cancel, pivots other than +-1 and
rows whose integer content is above 1.  Every Q entry out of a kernel is
a Fraction, never a bare int, and no kernel stores a zero.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from entwine.exactlin import (
    Field, Mat, cokernel, hstack, inverse, kernel_basis, kron, rank, rref,
    solve_affine, vstack,
)
from corpus import TALL
from oracles import kernel_oracle, rref_oracle

Q = Field.rational()
# F64: the largest prime below 2^64, whose residues multiply to 128 bits.
FIELDS = {"Q": Q, "Qtall": Q, "F2": Field.prime(2), "F5": Field.prime(5),
          "F64": Field.prime(18446744073709551557)}
FILLS = (0.0, 0.03, 0.5, 1.0)


# -- inputs -----------------------------------------------------------

def rand_mat(F, rng, rows, cols, fill):
    def entry():
        if rng.random() >= fill:
            return F.zero
        if rng.tall:
            return F.of(rng.choice(TALL))
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


def assert_entries(m, want, rows, cols):
    assert (m.rows, m.cols) == (rows, cols)
    assert list(m.entries) == list(want)
    F = m.field
    for x in m.entries:
        if F.kind == "rational":
            assert type(x) is Fraction
        else:
            assert type(x) is int and 0 <= x < F.p
    assert all(x for r in m.nz for x in r.values())


def seeded(field_name, fill):
    """The inputs' generator; over "Qtall" it draws the TALL scalars."""
    rng = random.Random("%s-%s" % (field_name, fill))
    rng.tall = field_name == "Qtall"
    return rng


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

def elimination_inputs(F, rng, fill):
    """Random matrices at the fill, and a rank-deficient one whose lower
    block repeats combinations of the upper."""
    out = [rand_mat(F, rng, rows, cols, fill)
           for rows, cols in [(1, 1), (4, 6), (6, 4), (7, 9), (0, 3), (3, 0)]]
    top = rand_mat(F, rng, 3, 7, max(fill, 0.5))
    out.append(vstack([top, Mat.from_rows(F, [[1, 1, 0]]) * top, top]))
    return out


def transpose(m):
    return Mat(m.field, m.cols, m.rows, tuple(m.entries[i * m.cols + j]
                                              for j in range(m.cols) for i in range(m.rows)))


def unit_triangular(F, rng, n, fill, lower):
    m = rand_mat(F, rng, n, n, fill)
    return Mat(F, n, n, tuple(F.one if i == j else m.entries[i * n + j] if (i > j) == lower
                              else F.zero for i in range(n) for j in range(n)))


@params
def test_rref_matches_reference(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for m in elimination_inputs(F, rng, fill):
        want, pivots = rref_oracle(m)
        for m2 in variants(m):
            r, got = rref(m2)
            assert got == tuple(pivots)
            assert_entries(r, want, m.rows, m.cols)


@params
def test_rank_matches_reference(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for m in elimination_inputs(F, rng, fill):
        want = len(rref_oracle(m)[1])
        for m2 in variants(m):
            assert rank(m2) == want


@params
def test_cokernel_matches_reference(field_name, fill):
    """Quotient coordinates are the non-pivot columns of the rref of m^T;
    the projection is 1 at its coordinate and minus the pivot rows' entry
    in that column at each pivot, and the section includes them back."""
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for m in elimination_inputs(F, rng, fill):
        flat, pivots = rref_oracle(transpose(m))
        free = [t for t in range(m.rows) if t not in pivots]
        proj = [F.one if s == t else F.sub(F.zero, flat[pivots.index(s) * m.rows + t])
                if s in pivots else F.zero for t in free for s in range(m.rows)]
        sect = [F.one if t == s else F.zero for s in range(m.rows) for t in free]
        for m2 in variants(m):
            q = cokernel(m2)
            assert_entries(q.projection, proj, len(free), m.rows)
            assert_entries(q.section, sect, m.rows, len(free))


@params
def test_inverse_matches_reference(field_name, fill):
    """Random square matrices, mostly singular at low fills, and products
    of unit lower and upper triangular ones, always invertible: the
    inverse is the right block of the rref of [m | I], and m is singular
    iff that rref has a pivot outside the first n columns."""
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for n in (0, 1, 2, 4, 6):
        lower = unit_triangular(F, rng, n, fill, True)
        upper = unit_triangular(F, rng, n, fill, False)
        for m in (rand_mat(F, rng, n, n, fill), Mat(F, n, n, tuple(ref_matmul(lower, upper)))):
            eye = [F.one if i == j else F.zero for i in range(n) for j in range(n)]
            flat, pivots = rref_oracle(Mat(F, n, 2 * n, tuple(
                x for i in range(n) for x in m.entries[i * n:(i + 1) * n] + tuple(eye[i * n:(i + 1) * n]))))
            for m2 in variants(m):
                if pivots != list(range(n)):
                    with pytest.raises(ValueError):
                        inverse(m2)
                    continue
                assert_entries(inverse(m2), [flat[i * 2 * n + n + j] for i in range(n)
                                             for j in range(n)], n, n)


@params
def test_kernel_basis_matches_reference(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for rows, cols in [(1, 1), (3, 6), (6, 4), (5, 8)]:
        m = rand_mat(F, rng, rows, cols, fill)
        want = kernel_oracle(m)
        for m2 in variants(m):
            k = kernel_basis(m2)
            assert_entries(k, want.entries, cols, want.cols)
            assert (m2 * k).is_zero()


@params
def test_solve_affine_matches_reference(field_name, fill):
    F, rng = FIELDS[field_name], seeded(field_name, fill)
    for rows, cols, rhs in [(1, 1, 1), (4, 6, 1), (6, 4, 2), (5, 8, 3)]:
        a = rand_mat(F, rng, rows, cols, fill)
        # One right-hand side in the image, and one random.
        x = rand_mat(F, rng, cols, rhs, 0.5)
        for b in (a * x, rand_mat(F, rng, rows, rhs, max(fill, 0.5))):
            flat, pivots = rref_oracle(hstack([a, b]))
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
                    want_kern = kernel_oracle(a)
                    assert_entries(kern, want_kern.entries, cols, want_kern.cols)
                    assert a2 * part == b
        assert solve_affine(a, a * x) is not None
