"""Differential test of the sparse-row elimination behind rref and
kernel_basis.

`kernel_basis` and `rref` take a `Mat`, whose rows are {column: value}
dicts of nonzeros, and both go through one sparse-row elimination on
copies of those rows.  The reduced row echelon form of a row space is
unique, so it must give the pivots, the reduced rows and the canonical
kernel basis of the naive dense Gauss-Jordan reference (`rref_oracle`,
`kernel_oracle` in `oracles.py`) entry for entry, whatever the order of
the rows.  Inputs are seeded random matrices at fills 0, about 3%, 50%
and 100% over Q, F_2, F_5 and F64, the largest prime below 2^64, with
rows that cancel (differences and multiples of other rows), duplicate
rows, zero rows, zero entries given to `Mat` as fresh `Fraction(0)`
objects over Q, no rows at all and no columns.

The elimination peels singleton rows before it eliminates the rest, so
further systems take each step of the peel: cascades, where fixing one
column leaves the next row a singleton; singletons of every kind of
value, duplicated and proportional; rows the peel leaves empty; systems
of singletons only; [a | b] with a row that is, or becomes, a singleton
in b (no solution); and a check that no given row dict is written.

Over Q the elimination runs fraction-free on integer rows, so "Qtall"
draws scalars of height up to 2^70 with coprime denominators, and
`test_integer_elimination_branches` gives rows with a negative leading
entry, rows with an integer content above 1 and pivots other than +-1.
Every Q entry out of `*`, `kron`, `rref`, `kernel_basis`, `solve_affine`,
`cokernel` and `inverse` must be a Fraction: a bare int would be written
to JSON as the string "3" instead of 3.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from entwine.exactlin import (
    Field, Mat, _rref_rows, cokernel, hstack, inverse, kernel_basis, kron, rref,
    solve_affine,
)
from corpus import TALL
from oracles import kernel_oracle, matmul_oracle, rref_oracle

Q = Field.rational()
# F64: the largest prime below 2^64, whose residues multiply to 128 bits.
FIELDS = {"Q": Q, "Qtall": Q, "F2": Field.prime(2), "F5": Field.prime(5),
          "F64": Field.prime(18446744073709551557)}
FILLS = (0.0, 0.03, 0.5, 1.0)
SHAPES = [(1, 1), (3, 5), (5, 3), (6, 6), (9, 12), (14, 10), (0, 4), (4, 0), (0, 0)]


def seeded(fname, seed):
    """The inputs' generator; over "Qtall" it draws the TALL scalars."""
    rng = random.Random(seed)
    rng.tall = fname == "Qtall"
    return rng


def rand_row(F, rng, cols, fill):
    def entry():
        if rng.random() >= fill:
            return F.zero
        if rng.tall:
            return F.of(rng.choice(TALL))
        x = F.of(rng.choice([-3, -2, -1, 1, 2, 3]) if F.kind == "rational"
                 else rng.randrange(1, F.p))
        return x / 2 if F.kind == "rational" and rng.random() < 0.3 else x
    return [entry() for _ in range(cols)]


def rand_rows(F, rng, rows, cols, fill):
    """Random rows, then rows that cancel against them: differences,
    multiples, a duplicate and a zero row."""
    out = [rand_row(F, rng, cols, fill) for _ in range(rows)]
    if rows >= 2:
        a, b = out[0], out[1]
        out.append([F.sub(x, y) for x, y in zip(a, b)])
        out.append([F.mul(F.of(3), x) for x in a])
        out.append(list(b))
        out.append([F.zero] * cols)
    rng.shuffle(out)
    return out


def dense(F, rows, cols):
    return Mat(F, len(rows), cols, tuple(x for r in rows for x in r))


def assert_typed(F, *mats):
    """Every entry is a Fraction over Q, a reduced int over F_p, and no
    stored entry is zero."""
    for m in mats:
        for x in m.entries:
            if F.kind == "rational":
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < F.p
        assert all(x for r in m.nz for x in r.values())


def check(F, rows, cols, rng):
    d = dense(F, rows, cols)
    want_basis = kernel_oracle(d)
    want_r, want_piv = rref_oracle(d)
    r, piv = rref(d)
    assert piv == tuple(want_piv)
    assert list(r.entries) == want_r and (r.rows, r.cols) == (len(rows), cols)
    assert_typed(F, r)
    got = kernel_basis(d)
    assert got == want_basis
    assert (got.rows, got.cols) == (want_basis.rows, want_basis.cols)
    assert_typed(F, got)
    # The products, the solutions and the cokernel of the same matrix.
    assert_typed(F, d * got, kron(d, got), kron(got, d))
    if cols:
        part, kern = solve_affine(d, d * Mat.identity(F, cols))
        assert d * part == d
        assert_typed(F, part, kern)
    q = cokernel(d)
    assert_typed(F, q.projection, q.section)
    # The input rows are read, not reduced in place.
    assert d.nz == dense(F, rows, cols).nz
    # The same rows in another order.
    order = list(range(len(rows)))
    rng.shuffle(order)
    shuffled = dense(F, [rows[i] for i in order], cols)
    assert kernel_basis(shuffled) == want_basis
    assert rref(shuffled) == (r, piv)


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_sparse_kernel_matches_dense(fname, fill):
    F = FIELDS[fname]
    rng = seeded(fname, "%s-%s" % (fname, fill))
    for rows, cols in SHAPES:
        for _ in range(3):
            check(F, rand_rows(F, rng, rows, cols, fill), cols, rng)


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_low_rank_products_match_dense(fname):
    """Rows of a product of thin random factors: rank at most 2 or 3, so
    most rows cancel to zero during elimination."""
    F = FIELDS[fname]
    rng = seeded(fname, "low-rank-%s" % fname)
    for rows, cols, k in [(8, 9, 2), (12, 7, 3), (5, 11, 1)]:
        left = dense(F, [rand_row(F, rng, k, 0.7) for _ in range(rows)], k)
        right = dense(F, [rand_row(F, rng, cols, 0.7) for _ in range(k)], cols)
        prod = left * right
        check(F, [list(prod.row(i)) for i in range(rows)], cols, rng)


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_empty_systems(fname):
    F = FIELDS[fname]
    # No rows, or zero rows: every unknown is free.
    assert kernel_basis(Mat.zeros(F, 0, 4)) == Mat.identity(F, 4)
    assert kernel_basis(Mat.zeros(F, 2, 3)) == Mat.identity(F, 3)
    # No unknowns.
    assert kernel_basis(Mat.zeros(F, 2, 0)) == Mat.zeros(F, 0, 0)
    assert kernel_basis(Mat.zeros(F, 0, 0)) == Mat.zeros(F, 0, 0)


def test_integer_elimination_branches():
    """Rows that take each step of the integer elimination over Q: a
    negative leading entry (the row is negated), an integer content above
    1 (divided out), coprime denominators and heights past 2^64 (scaled
    by their lcm), pivots other than +-1 (Bareiss steps (pc/g) v - (f/g) w
    with pc/g > 1) and a row that is the sum of two others (cancels)."""
    big, mid = 2**70 + 1, Fraction(-(2**61 - 1), 6)
    rows = [[Q.of(x) for x in r] for r in [
        [-6, 4, 0, 2, 10, 0],
        [0, 3, 9, -6, 12, 0],
        [Fraction(1, 3), Fraction(5, 7), big, mid, 0, 1],
        [0, 2, 3, 0, Fraction(5, 7), 0],
        [Fraction(-17, 3), Fraction(33, 7), big, mid + 2, 10, 1],
        [0, 0, 4, 6, 0, Fraction(-8, 3)]]]
    rng = random.Random("integer-branches")
    check(Q, rows, 6, rng)
    check(Q, [r[:5] for r in rows[:5]], 5, rng)
    # A square matrix of those scalars and its inverse: the products cancel
    # to the identity through sums of unequal denominators.
    m = Mat.from_rows(Q, [[big, mid, Fraction(5, 7), -2],
                          [Fraction(1, 3), -6, 0, 4],
                          [0, Fraction(-2, 3), 2**64, 3],
                          [-9, 0, Fraction(1, 3), mid]])
    inv = inverse(m)
    assert_typed(Q, inv, m * inv, inv * m)
    assert m * inv == Mat.identity(Q, 4) == inv * m
    assert list((m * inv).entries) == list(matmul_oracle(m, inv).entries)


# -- singleton rows ---------------------------------------------------
#
# The elimination first peels rows with one nonzero: their columns are
# fixed, deleted from every other row, and the rows that become
# singletons are peeled in the next round.  These systems are built to
# take each step of the peel.


def nonzero(F, rng):
    """A nonzero scalar: over Q negative, halved and (Qtall) tall ones."""
    return rand_row(F, rng, 1, 1.0)[0]


def sparse_row(F, cols, entries):
    row = [F.zero] * cols
    for j, x in entries.items():
        row[j] = x
    return row


def cascade(F, rng, cols, length):
    """A singleton, then rows each of which becomes a singleton once the
    column before it is fixed: the peel takes `length` rounds."""
    order = rng.sample(range(cols), length)
    rows = [sparse_row(F, cols, {order[0]: nonzero(F, rng)})]
    rows += [sparse_row(F, cols, {order[k - 1]: nonzero(F, rng), order[k]: nonzero(F, rng)})
             for k in range(1, length)]
    return rows


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_singleton_cascades_match_dense(fname):
    F = FIELDS[fname]
    rng = seeded(fname, "cascade-%s" % fname)
    for cols, length, extra, fill in [(6, 6, 0, 0.0), (9, 4, 3, 0.5), (12, 7, 5, 0.3),
                                      (8, 3, 8, 1.0), (10, 5, 2, 0.2)]:
        for _ in range(3):
            rows = cascade(F, rng, cols, length)
            rows += [rand_row(F, rng, cols, fill) for _ in range(extra)]
            rng.shuffle(rows)
            check(F, rows, cols, rng)


def singleton_values(F):
    """Every nonzero residue of a small prime field; for a large prime,
    residues of either sign, inverses and residues of 63 and 64 bits."""
    if F.kind == "prime" and F.p < 100:
        return [F.of(x) for x in range(1, F.p)]
    if F.kind == "prime":
        return [F.of(x) for x in (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3),
                                  1 << 63, F.p - 2 ** 40)]
    return [Q.of(x) for x in (1, -1, 3, -3, Fraction(-5, 2), Fraction(1, 3), *TALL)]


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_duplicate_and_proportional_singletons_match_dense(fname):
    """Singletons with every kind of value, each column given by several
    singleton rows: the same row twice and multiples of it."""
    F = FIELDS[fname]
    rng = seeded(fname, "proportional-%s" % fname)
    values = singleton_values(F)
    cols = len(values) + 3
    for fill in (0.0, 0.3, 1.0):
        rows = [sparse_row(F, cols, {j: x}) for j, x in enumerate(values)]
        rows += [sparse_row(F, cols, {j: F.mul(x, rng.choice(values))})
                 for j, x in enumerate(values)]
        rows += [list(rng.choice(rows)) for _ in range(3)]
        rows += [rand_row(F, rng, cols, fill) for _ in range(4)]
        rng.shuffle(rows)
        check(F, rows, cols, rng)


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_rows_emptied_by_the_peel_match_dense(fname):
    """Rows whose every column is fixed by singletons, zero rows, and
    systems of singletons only."""
    F = FIELDS[fname]
    rng = seeded(fname, "emptied-%s" % fname)
    cols = 7
    for _ in range(4):
        fixed = rng.sample(range(cols), 4)
        rows = [sparse_row(F, cols, {j: nonzero(F, rng)}) for j in fixed]
        rows += [sparse_row(F, cols, {j: nonzero(F, rng) for j in rng.sample(fixed, k)})
                 for k in (2, 3, 4)]
        rows += [[F.zero] * cols, rand_row(F, rng, cols, 0.5)]
        rng.shuffle(rows)
        check(F, rows, cols, rng)
    # Singletons only: every fixed column is a unit row of the result.
    for cols in (1, 4, 9):
        rows = [sparse_row(F, cols, {rng.randrange(cols): nonzero(F, rng)})
                for _ in range(cols + 2)]
        rows.append([F.zero] * cols)
        check(F, rows, cols, rng)
        d = dense(F, rows, cols)
        r, piv = rref(d)
        assert r.nz[:len(piv)] == tuple({j: F.one} for j in piv)


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_singleton_in_b_has_no_solution(fname):
    """A row of [a | b] that is, or is left by the peel as, a singleton in
    b's column is a pivot there: a x = b has no solution."""
    F = FIELDS[fname]
    rng = seeded(fname, "b-singleton-%s" % fname)
    for n in (1, 3, 6):
        for _ in range(3):
            a_rows = [rand_row(F, rng, n, 0.4) for _ in range(n)]
            x = dense(F, [rand_row(F, rng, 1, 0.7) for _ in range(n)], 1)
            b_rows = [list((dense(F, [r], n) * x).row(0)) for r in a_rows]
            # Feasible so far; a x = b is solved, whatever the peel fixed.
            part = solve_affine(dense(F, a_rows, n), dense(F, b_rows, 1))
            assert dense(F, a_rows, n) * part[0] == dense(F, b_rows, 1)
            # A zero row of a with a nonzero b.
            j = rng.randrange(n)
            zero_a = a_rows + [[F.zero] * n]
            assert solve_affine(dense(F, zero_a, n),
                                dense(F, b_rows + [[nonzero(F, rng)]], 1)) is None
            # A singleton of a fixes column j; a row of a that is a
            # multiple of it, with another b, is left a singleton in b.
            s = nonzero(F, rng)
            row = sparse_row(F, n, {j: s})
            twin = sparse_row(F, n, {j: F.mul(s, nonzero(F, rng))})
            a2, b2 = a_rows + [row, twin], b_rows + [[F.zero], [nonzero(F, rng)]]
            flat, pivots = rref_oracle(hstack([dense(F, a2, n), dense(F, b2, 1)]))
            assert pivots[-1] == n
            assert solve_affine(dense(F, a2, n), dense(F, b2, 1)) is None


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_elimination_leaves_the_given_rows_unchanged(fname):
    """Mats share row dicts, so neither the peel nor the elimination may
    write a given row, and no row of the result is a given row."""
    F = FIELDS[fname]
    rng = seeded(fname, "unchanged-%s" % fname)
    cols = 10
    rows = cascade(F, rng, cols, 5) + [rand_row(F, rng, cols, f) for f in (0.3, 0.6, 1.0)]
    rows += [list(rows[0]), rand_row(F, rng, cols, 0.0)]
    given = dense(F, rows, cols).nz
    before = [dict(r) for r in given]
    piv = _rref_rows(F, given)
    assert list(given) == before
    assert all(v is not r for v in piv.values() for r in given)
    assert sorted(piv) == rref_oracle(dense(F, rows, cols))[1]
