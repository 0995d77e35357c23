"""Differential test of the compiled Frobenius couplings.

`compile_bilinear` turns each coupling of the Frobenius ladder into one
matrix B and one constant vector gamma in the coordinates of the two
membership bases; fixing either argument is then a product and a
reshape.  The reference is the coupling's closure in
`reference_residuals`, evaluated at pairs of basis vectors
(`coupling_system`): the two must give the same (A, b) for fixed
coordinates that are zero, random, and unit vectors, on both sides, for
both variances, over Q, F_2, F_5 and F64, the largest prime below 2^64.
The contramodule decider poses the comodule side's couplings and
memberships, whose transposes its own identities are, sigma the row r;
so its closures, written independently, are compared as
r -> closure(r^T)^T.  "Qtall" is Q again on the corpus moved to bases
scaled by the TALL scalars, with fixed coordinates drawn from them.  A
term without one lift on each side is refused.
"""

from __future__ import annotations

import random

import pytest

from entwine.exactlin import (
    Field, Lift, Mat, Term, TermList, compile_bilinear, kron, mat_solution_basis,
    vec,
)
from entwine.criteria import _frobenius_couplings_co, _v1p_residual, _w1p_residuals
import reference_residuals as ref
from corpus import TALL, entwinings, tall_entwinings

# F64: the largest prime below 2^64, whose residues multiply to 128 bits.
FIELDS = {"Q": Field.rational(), "Qtall": Field.rational(), "F2": Field.prime(2),
          "F5": Field.prime(5), "F64": Field.prime(18446744073709551557)}


def frobenius_setup(e, variance):
    """(sigma shape, rho shape), the two membership bases, the couplings
    and their closures, as the decider of that variance uses them."""
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    shapes = ((1, c * n), (n * n, c))
    mems, couplings = (_v1p_residual(e), _w1p_residuals(e)), _frobenius_couplings_co(e)
    if variance == "co":
        closures = ref.frobenius_couplings_co(e)
    else:
        closures = [lambda r, th, f=f: f(r.t, th).t for f in ref.frobenius_couplings_contra(e)]
    bases = [mat_solution_basis(F, *shape, mem).basis for shape, mem in zip(shapes, mems)]
    return shapes, bases, couplings, closures


def fixed_coordinates(F, rng, d, tall=False):
    """Zero, two random columns, of TALL scalars if tall, and the unit
    columns of k^d."""
    def column(xs):
        return Mat(F, d, 1, tuple(map(F.of, xs)))

    def scalar():
        return rng.choice(TALL) if tall else rng.randint(-3, 3)

    return ([column([0] * d)] + [column(scalar() for _ in range(d)) for _ in range(2)]
            + [Mat.identity(F, d).col_mat(i) for i in range(d)])


@pytest.mark.parametrize("variance", ["co", "contra"])
@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", ["dk2", "dk3", "m2", "ut", "gl2"])
def test_compiled_system_matches_closure_assembly(name, fname, variance):
    F = FIELDS[fname]
    tall = fname == "Qtall"
    e = (tall_entwinings() if tall else entwinings(F))[name]
    shapes, bases, couplings, closures = frobenius_setup(e, variance)
    rng = random.Random("%s-%s-%s" % (name, fname, variance))
    for cp, closure in zip(couplings, closures):
        cb = compile_bilinear(F, *shapes, cp, bases)
        fix = ref.coupling_system(closure, shapes, bases)
        zero = [Mat.zeros(F, *shape) for shape in shapes]
        assert cb.gamma == vec(closure(*zero))
        for k in (0, 1):
            for u in fixed_coordinates(F, rng, bases[k].cols, tall):
                assert cb.fix(k, u) == fix(k, u)


@pytest.mark.parametrize("side", [0, 1])
def test_linear_term_is_rejected(side):
    F = FIELDS["F5"]
    e = entwinings(F)["dk2"]
    shapes, bases, (cp, _), _ = frobenius_setup(e, "co")
    unit, mult = e.alg.unit, e.alg.mult
    lift = kron(Mat.identity(F, e.coalg.dim), unit)
    # Both added terms have the coupling's shape, n x c: unit . r . lift
    # is linear in r, and mult . th linear in th.
    linear = (Term(1, unit, (Lift(1, 1, lift, side=0),)) if side == 0
              else Term(1, mult, (Lift(1, 1, side=1),)))
    with_linear_term = TermList(cp.terms + (linear,), cp.const)
    with pytest.raises(ValueError, match="coupling term is not bilinear"):
        compile_bilinear(F, *shapes, with_linear_term, bases)
