"""Differential test of the compiled Frobenius couplings.

`compile_bilinear` turns each coupling of the Frobenius ladder into one
matrix B and one constant vector gamma; fixing either argument is then a
product and a reshape.  The reference is the coupling closure itself,
assembled by `affine_matrix_system` with the other argument fixed: the
two must give the same (A, b) for fixed values that are zero, random, and
membership basis vectors, on both sides, for both variances, over Q, F_2
and F_5.
"""

from __future__ import annotations

import random

import pytest

from entwine.exactlin import (
    Field, Mat, affine_matrix_system, basis_columns, compile_bilinear, kron,
    mat_solution_basis,
)
from entwine.criteria import (
    _frobenius_couplings_co, _frobenius_couplings_contra, _v1_residual,
    _v1p_residual, _w1_residuals, _w1p_residuals,
)
from corpus import entwinings

FIELDS = {"Q": Field.rational(), "F2": Field.prime(2), "F5": Field.prime(5)}


def frobenius_setup(e, variance):
    """(sigma shape, rho shape), the two membership condition lists and the
    couplings, as the decider of that variance uses them."""
    n, c = e.alg.dim, e.coalg.dim
    if variance == "co":
        return (((1, c * n), (n * n, c)), (_v1p_residual(e), _w1p_residuals(e)),
                _frobenius_couplings_co(e))
    return (((c * n, 1), (n * n, c)), (_v1_residual(e), _w1_residuals(e)),
            _frobenius_couplings_contra(e))


def random_value(F, rng, shape):
    return Mat(F, *shape, tuple(F.of(rng.randint(-3, 3)) for _ in range(shape[0] * shape[1])))


def fixed_values(F, rng, shape, mem):
    basis = mat_solution_basis(F, *shape, mem).basis
    return ([Mat.zeros(F, *shape), random_value(F, rng, shape), random_value(F, rng, shape)]
            + basis_columns(F, basis, *shape))


@pytest.mark.parametrize("variance", ["co", "contra"])
@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", ["dk2", "dk3", "m2", "ut", "gl2"])
def test_compiled_system_matches_closure_assembly(name, fname, variance):
    F = FIELDS[fname]
    e = entwinings(F)[name]
    shapes, mems, couplings = frobenius_setup(e, variance)
    rng = random.Random("%s-%s-%s" % (name, fname, variance))
    for cp in couplings:
        cb = compile_bilinear(F, *shapes, cp)
        for k in (0, 1):
            for v in fixed_values(F, rng, shapes[k], mems[k]):
                if k == 0:
                    ref = affine_matrix_system(F, *shapes[1], lambda u: cp(v, u))
                else:
                    ref = affine_matrix_system(F, *shapes[0], lambda u: cp(u, v))
                assert (cb.fix(k, v), -cb.gamma) == ref


@pytest.mark.parametrize("side", [0, 1])
def test_linear_term_is_rejected(side):
    F = FIELDS["F5"]
    e = entwinings(F)["dk2"]
    shapes, _, (cp, _) = frobenius_setup(e, "co")
    unit, mult = e.alg.unit, e.alg.mult
    lift = kron(Mat.identity(F, e.coalg.dim), unit)

    def with_linear_term(r, th):
        # Both added terms have the coupling's shape, n x c.
        return cp(r, th) + (unit * r * lift if side == 0 else mult * th)

    with pytest.raises(AssertionError, match="linear term"):
        compile_bilinear(F, *shapes, with_linear_term)
