"""Differential test of term-list evaluation and contraction.

Calling an `exactlin.TermList` builds each lift I_a (x) U (x) I_b in one
pass over the nonzeros of U, with no identity matrix and no Kronecker
product, and folds each term's coefficient into one sum or difference.
The reference, `oracles.term_list_oracle`, evaluates the same term list
by its definition: dense identities, two Kronecker products per lift, and
a scalar product and sum per entry.  Random term lists, linear and
bilinear (the lifts in either order), with a and b up to 3, left and
right factors implicit (None) where the lift fits, coefficients 1, -1 and
others, and a constant or none, must give the same value entry for entry
over Q, F_2, F_5 and F64, the largest prime below 2^64, and over
"Qtall", Q with every scalar drawn from TALL.  Terms that cancel must
leave exactly the constant, with no stored zero, both evaluated and
contracted: the contracted system has no stored entry and its right side
is the negated constant, also over F64, where the unreduced sums of
cancelling terms are nonzero multiples of p.  The same random term lists, contracted, must give the system that
the reference gives on the matrix units (`affine_matrix_system`,
`mat_solution_basis`) and, bilinear, the compiled coupling that it gives
on pairs of basis vectors (`compile_bilinear`).  Unknowns with no entry
give a system with no column and the zero space, from term lists and
closures alike, and a list that mixes a term list with a closure gives
the system of the same conditions as term lists.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from entwine import exactlin
from entwine.exactlin import (
    Field, Lift, Mat, SubspaceBasis, Term, TermList, affine_matrix_system,
    compile_bilinear, mat_solution_basis, vec,
)
import reference_residuals as ref
from corpus import TALL
from oracles import term_list_oracle

Q = Field.rational()
# F64: the largest prime below 2^64, whose residues multiply to 128 bits.
FIELDS = {"Q": Q, "Qtall": Q, "F2": Field.prime(2), "F5": Field.prime(5),
          "F64": Field.prime(18446744073709551557)}
# The shapes of the two unknowns, and of every value.
SHAPES = ((2, 3), (3, 2))
VALUE = (6, 6)
LIFTS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))


def drawer(fname):
    """The scalars of the random inputs over the field named fname."""
    if fname == "Qtall":
        return TALL
    if fname == "Q":
        return (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))
    return (1, -1, 2, -3)


def random_mat(F, rng, scalars, rows, cols, fill=0.5):
    return Mat(F, rows, cols, tuple(F.of(rng.choice(scalars)) if rng.random() < fill
                                    else F.zero for _ in range(rows * cols)))


def random_term(F, rng, scalars, sides, coeff) -> Term:
    """A term with one lift per entry of sides, of value shape VALUE.  The
    factor before a lift (left, or the previous lift's right) is None half
    the time the lift's rows fit it, and so is the last right factor."""
    befores, lifts, width = [], [], VALUE[0]
    for side in sides:
        xr, xc = SHAPES[side]
        fits = [(a, b) for a, b in LIFTS if a * xr * b == width]
        if fits and rng.random() < 0.5:
            (a, b), before = rng.choice(fits), None
        else:
            a, b = rng.choice(LIFTS)
            before = random_mat(F, rng, scalars, width, a * xr * b)
        befores.append(before)
        lifts.append((a, b, side))
        width = a * xc * b
    last = (None if width == VALUE[1] and rng.random() < 0.5
            else random_mat(F, rng, scalars, width, VALUE[1]))
    rights = befores[1:] + [last]
    return Term(coeff, befores[0], tuple(Lift(a, b, right, side=side)
                                         for (a, b, side), right in zip(lifts, rights)))


def assert_value(F, got, want):
    assert got == want
    assert all(x for r in got.nz for x in r.values())
    kind = Fraction if F.kind == "rational" else int
    assert all(type(x) is kind for r in got.nz for x in r.values())


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_call_matches_kron_reference(fname, monkeypatch):
    F = FIELDS[fname]
    rng = random.Random("evaluate-%s" % fname)
    scalars = drawer(fname)
    # Evaluation builds no identity and no Kronecker product.
    monkeypatch.setattr(exactlin, "kron", None)
    monkeypatch.setattr(Mat, "identity", None)
    coeffs = (1, -1, F.of(-1), 2, -3, F.of(rng.choice(scalars)))
    seen = set()
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 3)):
            sides = rng.choice(([0], [1], [0, 1], [1, 0]))
            t = random_term(F, rng, scalars, sides, rng.choice(coeffs))
            terms.append(t)
            seen.update({(len(sides), "left", t.left is None),
                         (len(sides), "right", t.lifts[-1].right is None)})
        const = rng.choice((None, random_mat(F, rng, scalars, *VALUE)))
        form = TermList(tuple(terms), const)
        for fill in (0.3, 1.0):
            xs = [random_mat(F, rng, scalars, *shape, fill) for shape in SHAPES]
            assert_value(F, form(*xs), term_list_oracle(form, *xs))
    # Linear and bilinear terms, each with implicit and explicit factors.
    assert seen == {(n, factor, implicit) for n in (1, 2) for factor in ("left", "right")
                    for implicit in (True, False)}


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_cancelling_terms_leave_the_constant(fname):
    F = FIELDS[fname]
    rng = random.Random("cancel-%s" % fname)
    scalars = drawer(fname)
    for sides in ([0], [1], [0, 1]):
        t = random_term(F, rng, scalars, sides, 1)
        x = F.of(rng.choice(scalars))
        for pair in ((1, -1), (-1, 1), (2, F.neg(F.of(2))), (x, F.neg(x))):
            for const in (None, random_mat(F, rng, scalars, *VALUE)):
                xs = [random_mat(F, rng, scalars, *shape, 1.0) for shape in SHAPES]
                form = TermList(tuple(Term(k, t.left, t.lifts) for k in pair), const)
                want = Mat.zeros(F, *VALUE) if const is None else const
                assert_value(F, form(*xs), want)
                assert_cancels_contracted(F, sides, form, want)


def assert_cancels_contracted(F, sides, form, want):
    """The contracted system of form, whose terms cancel, holds no entry
    and its constant is want: (A, b) with A empty and b = -vec(want) for
    a linear form, stated in its one unknown; for a bilinear form the
    compiled coupling, in the unit bases, with b empty and gamma vec(want)."""
    if len(sides) == 2:
        cb = compile_bilinear(F, *SHAPES, form,
                              [Mat.identity(F, r * c) for r, c in SHAPES])
        assert cb.b.is_zero() and cb.gamma == vec(want)
        return
    linear = TermList(tuple(Term(t.coeff, t.left, tuple(Lift(u.a, u.b, u.right)
                                                         for u in t.lifts))
                            for t in form.terms), form.const)
    A, b = affine_matrix_system(F, *SHAPES[sides[0]], linear)
    assert A.is_zero()
    assert_value(F, b, -vec(want))


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_contraction_matches_the_reference(fname):
    F = FIELDS[fname]
    rng = random.Random("contract-%s" % fname)
    scalars = drawer(fname)
    coeffs = (1, -1, F.of(-1), 2, -3, F.of(rng.choice(scalars)))

    def random_form(sides, nterms):
        terms = tuple(random_term(F, rng, scalars, rng.choice(sides), rng.choice(coeffs))
                      for _ in range(nterms))
        return TermList(terms, rng.choice((None, random_mat(F, rng, scalars, *VALUE))))

    shape = SHAPES[0]
    for _ in range(8):
        form = random_form(([0],), rng.randint(1, 3))
        closure = lambda x, form=form: term_list_oracle(form, x)  # noqa: E731
        assert (affine_matrix_system(F, *shape, form)
                == affine_matrix_system(F, *shape, closure))
        assert mat_solution_basis(F, *shape, [form]) == mat_solution_basis(F, *shape, [closure])
    for _ in range(3):
        form = random_form(([0, 1], [1, 0]), rng.randint(1, 2))
        closure = lambda x, y, form=form: term_list_oracle(form, x, y)  # noqa: E731
        bases = [random_mat(F, rng, scalars, rows * cols, 3, 0.7) for rows, cols in SHAPES]
        cb = compile_bilinear(F, *SHAPES, form, bases)
        fix = ref.coupling_system(closure, SHAPES, bases)
        assert cb.gamma == vec(closure(*(Mat.zeros(F, *sh) for sh in SHAPES)))
        for k in (0, 1):
            for u in [random_mat(F, rng, scalars, 3, 1, 0.7)] + [
                    Mat.identity(F, 3).col_mat(i) for i in range(3)]:
                assert cb.fix(k, u) == fix(k, u)
    # Unknowns with no entry: A has no column, b is minus the constant, and
    # the solution space is the zero space, for term lists and closures.
    for shape in ((0, 3), (2, 0)):
        lift = Lift(1, 1, random_mat(F, rng, scalars, shape[1], VALUE[1]))
        const = random_mat(F, rng, scalars, *VALUE)
        form = TermList((Term(2, random_mat(F, rng, scalars, VALUE[0], shape[0]), (lift,)),),
                        const)
        closure = lambda x, form=form: term_list_oracle(form, x)  # noqa: E731
        for residual in (form, closure):
            assert affine_matrix_system(F, *shape, residual) == (
                Mat.zeros(F, VALUE[0] * VALUE[1], 0), -vec(const))
        for conditions in ([form], [closure], [form, closure]):
            assert mat_solution_basis(F, *shape, conditions) == SubspaceBasis(
                0, Mat.zeros(F, 0, 0))
    # A list mixing a term list with a closure: P X = 0 for a P of rank 1,
    # and X R = 0, a 2-dimensional space.
    square = TermList((Term(1, Mat(F, 2, 2, (F.one,) * 4), (Lift(1, 1),)),))
    r = random_mat(F, rng, scalars, 3, 1, 1.0)
    by_r = TermList((Term(1, None, (Lift(1, 1, r),)),))
    mixed = [square, lambda x: x * r]
    space = mat_solution_basis(F, 2, 3, mixed)
    assert space == mat_solution_basis(F, 2, 3, [square, by_r]) and space.dim == 2
    assert affine_matrix_system(F, 2, 3, mixed) == affine_matrix_system(F, 2, 3, [square, by_r])
