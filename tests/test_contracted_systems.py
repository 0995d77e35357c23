"""Differential test of the contracted decider systems.

Every identity of `entwine.criteria` is a term list (`exactlin.TermList`):
`affine_matrix_system` and `mat_solution_basis` build its system by leg
contraction, and `compile_bilinear` compiles a coupling the same way.  The
reference is the closure of the same identity in `reference_residuals`,
which the first two functions assemble by evaluation on matrix units,
and which `coupling_system` evaluates at pairs of random basis vectors
for a coupling.  Both must give the same (A, b), solution basis,
fixed-argument system and gamma entry for entry, and the same value at
random unknowns, on the corpus entwinings over Q, F_2, F_5 and F64, the
largest prime below 2^64.  "Qtall" is Q again on the corpus moved to
bases scaled by the TALL scalars, with unknowns and bases drawn from
them: the contraction sums integer numerators over equal and over
unequal denominators there.

The contramodule deciders pose the comodule side's identities, whose
transposes their own are, sigma the row r.  So the contramodule closures,
written independently, are compared with the comodule term lists as
r -> closure(r^T)^T: the rho memberships in the comodule side's order,
coaction then action, and the action side negated, as its transpose is
the negative of the comodule side's.

`find_cointegral` poses sep-f's identities with the unknown's columns
relabelled into phi's layout, th = (I_n (x) phi)(coev (x) I_c)
(Brzezinski, Proc. AMS 128, 2000; Caenepeel-Militaru-Zhu, LNM 1787).
So the cointegral closures, written in phi, are compared with sep-f's
term lists at that th, and with sep-f's contracted system times the
permutation matrix built here from `theta_of_phi`, column by column on
phi's matrix units.  The system the package relabels by its index map
(`criteria._phi_layout`) and solves must be that product, and the index
map must read theta_of_phi's entries off phi's.
"""

from __future__ import annotations

import random

import pytest

from entwine import criteria
from entwine.exactlin import (
    Field, Mat, affine_matrix_system, compile_bilinear, hstack, mat_solution_basis, rref, vec,
)
import reference_residuals as ref
from components import theta_of_phi
from corpus import TALL, entwinings, tall_entwinings

# F64: the largest prime below 2^64, whose residues multiply to 128 bits.
FIELDS = {"Q": Field.rational(), "Qtall": Field.rational(), "F2": Field.prime(2),
          "F5": Field.prime(5), "F64": Field.prime(18446744073709551557)}
NAMES = sorted(entwinings(FIELDS["Q"]))
SMALL = (0, 0, 1, -1, 2, -3)


def corpus(fname):
    """The corpus entwinings over the field named fname, over "Qtall" in
    the tall bases, and the scalars of its random values."""
    if fname == "Qtall":
        return tall_entwinings(), (0, 0) + TALL
    return entwinings(FIELDS[fname]), SMALL


def linear_identities(e):
    """Per identity family: the unknown's shape, then (term list, closure)
    pairs, the membership conditions first and the normalization last."""
    n, c = e.alg.dim, e.coalg.dim
    pairs = lambda forms, closures: list(zip(forms, closures))  # noqa: E731
    w1_action, w1_coaction = ref.w1_residuals(e)
    return {
        "v1": ((1, c * n), pairs(criteria._v1p_residual(e) + [criteria._v1p_norm(e)],
                                 [lambda r, f=f: f(r.t).t
                                  for f in ref.v1_residual(e) + [ref.v1_norm(e)]])),
        "v1p": ((1, c * n), pairs(criteria._v1p_residual(e) + [criteria._v1p_norm(e)],
                                  ref.v1p_residual(e) + [ref.v1p_norm(e)])),
        "w1": ((n * n, c), pairs(criteria._w1p_residuals(e) + [criteria._w1_norm(e)],
                                 [lambda th: w1_coaction(th).t, lambda th: -w1_action(th).t,
                                  ref.w1_norm(e)])),
        "w1p": ((n * n, c), pairs(criteria._w1p_residuals(e) + [criteria._w1_norm(e)],
                                  ref.w1p_residuals(e) + [ref.w1_norm(e)])),
        "cointegral": ((n, n * c), pairs(criteria._sep_f_identities(e),
                                         ref.cointegral_residuals(e))),
    }


def theta_of_phi_matrix(e):
    """The permutation matrix taking vec(phi) to vec(theta_of_phi(e, phi)):
    its column t is vec(theta) of the t-th matrix unit of phi."""
    F, n, c = e.field, e.alg.dim, e.coalg.dim
    size = n * n * c
    units = (Mat(F, n, n * c, tuple(F.one if s == t else F.zero for s in range(size)))
             for t in range(size))
    return hstack([vec(theta_of_phi(e, u)) for u in units])


def contracted(e, family, shape, forms):
    """(A, b) of the term lists by contraction, in the columns of the
    family's unknown: the cointegral's is sep-f's system times
    theta_of_phi_matrix."""
    F = e.field
    if family != "cointegral":
        return affine_matrix_system(F, *shape, forms)
    n, c = e.alg.dim, e.coalg.dim
    a, b = affine_matrix_system(F, n * n, c, forms)
    return a * theta_of_phi_matrix(e), b


def random_value(F, rng, shape, scalars=SMALL):
    return Mat(F, *shape, tuple(F.of(rng.choice(scalars))
                                for _ in range(shape[0] * shape[1])))


@pytest.mark.parametrize("family", ["v1", "v1p", "w1", "w1p", "cointegral"])
@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", NAMES)
def test_contracted_linear_systems_match_unit_assembly(name, fname, family, monkeypatch):
    F = FIELDS[fname]
    instances, scalars = corpus(fname)
    e = instances[name]
    shape, pairs = linear_identities(e)[family]
    forms = [f for f, _ in pairs]
    closures = [r for _, r in pairs]
    for form, closure in pairs:
        assert contracted(e, family, shape, form) == affine_matrix_system(F, *shape, closure)
    # Stacked, as the deciders pose them.
    a, b = contracted(e, family, shape, forms)
    ra, rb = affine_matrix_system(F, *shape, lambda u: ref.stacked([r(u) for r in closures]))
    assert (a, b) == (ra, rb)
    # The particular solution is read off the reduced augmented form.
    assert rref(hstack([a, b])) == rref(hstack([ra, rb]))
    if family == "cointegral":
        # find_cointegral solves that system, relabelled by its index map.
        posed, real = [], criteria.solve_affine
        monkeypatch.setattr(criteria, "solve_affine",
                            lambda pa, pb: posed.append((pa, pb)) or real(pa, pb))
        criteria.find_cointegral(e)
        assert posed == [(a, b)]
    else:
        # The membership conditions, as the Frobenius ladder poses them.
        assert (mat_solution_basis(F, *shape, forms[:-1])
                == mat_solution_basis(F, *shape, closures[:-1]))
    rng = random.Random("%s-%s-%s" % (name, fname, family))
    for _ in range(2):
        x = random_value(F, rng, shape, scalars)
        u = x
        if family == "cointegral":
            u = theta_of_phi(e, x)
            phi, perm = vec(x).entries, criteria._phi_layout(e.alg.dim, e.coalg.dim)
            assert vec(u).entries == tuple(phi[s] for s in perm)
        for form, closure in pairs:
            assert form(u) == closure(x)


FROBENIUS = {
    "co": (criteria._frobenius_couplings_co, ref.frobenius_couplings_co),
    "contra": (criteria._frobenius_couplings_co,
               lambda e: [lambda r, th, f=f: f(r.t, th).t
                          for f in ref.frobenius_couplings_contra(e)]),
}


@pytest.mark.parametrize("variance", sorted(FROBENIUS))
@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", NAMES)
def test_contracted_couplings_match_unit_assembly(name, fname, variance):
    F = FIELDS[fname]
    instances, scalars = corpus(fname)
    e = instances[name]
    forms_of, closures_of = FROBENIUS[variance]
    n, c = e.alg.dim, e.coalg.dim
    shapes = ((1, c * n), (n * n, c))
    rng = random.Random("%s-%s-%s" % (name, fname, variance))
    # Random square bases: every basis entry, not just 0 and 1, is
    # projected through.
    bases = [random_value(F, rng, (rows * cols, rows * cols), scalars)
             for rows, cols in shapes]
    for form, closure in zip(forms_of(e), closures_of(e)):
        cb = compile_bilinear(F, *shapes, form, bases)
        fix = ref.coupling_system(closure, shapes, bases)
        assert cb.gamma == vec(closure(*(Mat.zeros(F, *shape) for shape in shapes)))
        for k, (rows, cols) in enumerate(shapes):
            d = rows * cols
            for u in ([Mat.zeros(F, d, 1), random_value(F, rng, (d, 1), scalars)]
                      + [Mat.identity(F, d).col_mat(i) for i in range(d)]):
                assert cb.fix(k, u) == fix(k, u)
        for _ in range(2):
            x, y = (random_value(F, rng, shape, scalars) for shape in shapes)
            assert form(x, y) == closure(x, y)
