"""Differential test of the factored maps of `entwine.measuring`.

`measuring` multiplies the small structure maps that share an identity leg
before it lifts them, by kron(I, X) kron(I, Y) = kron(I, X Y) on the
comodule side and hom_pre(g, m) hom_pre(h, m) = hom_pre(h g, m) with
under(hom_pre(g, m), k) = hom_pre(g (x) I_k, m) on the contramodule side.
The reference below is the unfactored chain of lifted factors, one factor
per structure map.  Over exact fields both must agree entry for entry, on
the identity measurings of the corpus entwinings and on the Galois
measurings of regular group data, whose source and target differ in
dimension.
"""

from __future__ import annotations

import pytest

from entwine import measuring
from entwine.exactlin import Field, Mat, kron
from entwine.algstruct import (
    ModuleLeft, ModuleRight, dual_left_module, group_algebra,
    regular_comodule, regular_right_module,
)
from entwine.comodcat import induce_mc, induce_tc
from entwine.contracat import (
    curry_left, free_contramodule, hom_pre, induce_a_t, induce_contra_t,
    under,
)
from corpus import (
    direct_sum_contra, direct_sum_entwined, entwinings, tensor_contra,
    tensor_entwined,
)

FIELDS = {"Q": Field.rational(), "F2": Field.prime(2), "F5": Field.prime(5)}
MEASURINGS = (["id-" + k for k in sorted(entwinings(FIELDS["Q"]))]
              + ["galois-2", "galois-3"])


# -- the unfactored reference ------------------------------------------


def ref_comodule_side_induce(m, x):
    """(action, coaction) of M (x) C' or M' (x) A."""
    F = m.field
    n, c = m.dst.alg.dim, m.dst.coalg.dim
    np_, cp = m.src.alg.dim, m.src.coalg.dim
    i_m = Mat.identity(F, x.dim)
    if isinstance(x, ModuleRight):
        coaction = kron(i_m, m.src.coalg.comult)
        action = (kron(x.action, Mat.identity(F, cp))
                  * kron(i_m, kron(m.alpha, Mat.identity(F, cp)))
                  * kron(i_m, kron(Mat.identity(F, cp), m.src.psi))
                  * kron(i_m, kron(m.src.coalg.comult, Mat.identity(F, np_))))
        return action, coaction
    i_n = Mat.identity(F, n)
    action = kron(i_m, m.dst.alg.mult)
    coaction = (kron(i_m, kron(m.dst.alg.mult, Mat.identity(F, c)))
                * kron(i_m, kron(i_n, m.dst.psi))
                * kron(i_m, kron(m.gamma, i_n))
                * kron(x.coaction, i_n))
    return action, coaction


def ref_t_upper(m, x):
    F = m.field
    c = m.dst.coalg.dim
    cp = m.src.coalg.dim
    i_m = Mat.identity(F, x.dim)
    i_cp = Mat.identity(F, cp)
    return (kron(x.coaction, i_cp)
            - kron(x.action, Mat.identity(F, c * cp))
            * kron(i_m, kron(m.gamma, i_cp))
            * kron(i_m, m.src.coalg.comult))


def ref_t_lower(m, x):
    F = m.field
    n = m.dst.alg.dim
    np_ = m.src.alg.dim
    i_m = Mat.identity(F, x.dim)
    i_n = Mat.identity(F, n)
    return (kron(x.action, i_n)
            - kron(i_m, m.dst.alg.mult)
            * kron(i_m, kron(m.alpha, i_n))
            * kron(x.coaction, Mat.identity(F, np_ * n)))


def ref_contra_induce(m, x):
    """(pi, curried action) of Hom(C', M) or Hom(A, N)."""
    n, c = m.dst.alg.dim, m.dst.coalg.dim
    np_, cp = m.src.alg.dim, m.src.coalg.dim
    mx = x.dim
    if isinstance(x, ModuleLeft):
        pi = hom_pre(m.src.coalg.comult, mx)
        mu = (under(hom_pre(m.src.coalg.comult, mx), np_)
              * hom_pre(m.src.psi, mx * cp)
              * under(hom_pre(m.alpha, mx), cp)
              * under(curry_left(x.action, mx, n), cp))
        return pi, mu
    mu = hom_pre(m.dst.alg.mult, mx)
    pi = (under(x.pi, n)
          * under(hom_pre(m.gamma, mx), n)
          * hom_pre(m.dst.psi, mx * n)
          * under(hom_pre(m.dst.alg.mult, mx), c))
    return pi, mu


def ref_s_upper(m, x):
    c = m.dst.coalg.dim
    cp = m.src.coalg.dim
    mx = x.dim
    return (under(x.pi, cp)
            - hom_pre(m.src.coalg.comult, mx)
            * under(hom_pre(m.gamma, mx), cp)
            * under(curry_left(x.action, mx, m.dst.alg.dim), c * cp))


def ref_s_lower(m, x):
    n = m.dst.alg.dim
    np_ = m.src.alg.dim
    mx = x.dim
    return (under(curry_left(x.action, mx, np_), n)
            - under(x.pi, np_ * n)
            * under(hom_pre(m.alpha, mx), n)
            * hom_pre(m.dst.alg.mult, mx))


# -- instances ---------------------------------------------------------


def make_measuring(field, name):
    if name.startswith("id-"):
        return measuring.identity_measuring(entwinings(field)[name[3:]])
    h = group_algebra(int(name[len("galois-"):]), field)
    g = measuring.GaloisData(h.alg, h.coalg, h.coalg.comult)
    return measuring.galois_measuring(g)


def modules(e):
    """Entwined modules over e: the two induced from the regular objects,
    their direct sum and two copies of the first."""
    mc = induce_mc(e, regular_right_module(e.alg))
    tc = induce_tc(e, regular_comodule(e.coalg))
    return [mc, tc, direct_sum_entwined(mc, tc), tensor_entwined(2, mc)]


def contramodules(e):
    at = induce_a_t(e, dual_left_module(e.alg))
    ct = induce_contra_t(e, free_contramodule(e.coalg, 1))
    return [at, ct, direct_sum_contra(at, ct), tensor_contra(2, at)]


@pytest.mark.parametrize("name", MEASURINGS)
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_comodule_side_maps_equal_the_unfactored_chains(fname, name):
    m = make_measuring(FIELDS[fname], name)
    for x in modules(m.dst):
        ind = measuring.comodule_side_induce(m, x.as_module())
        assert (ind.action, ind.coaction) == ref_comodule_side_induce(m, x.as_module())
        assert measuring.t_upper(m, x) == ref_t_upper(m, x)
    for x in modules(m.src):
        ind = measuring.comodule_side_induce(m, x.as_comodule())
        assert (ind.action, ind.coaction) == ref_comodule_side_induce(m, x.as_comodule())
        assert measuring.t_lower(m, x) == ref_t_lower(m, x)


@pytest.mark.parametrize("name", MEASURINGS)
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_contramodule_side_maps_equal_the_unfactored_chains(fname, name):
    m = make_measuring(FIELDS[fname], name)
    for x in contramodules(m.dst):
        ind = measuring.contra_induce(m, x.as_module())
        assert (ind.pi, ind.mu) == ref_contra_induce(m, x.as_module())
        assert measuring.s_upper(m, x) == ref_s_upper(m, x)
    for x in contramodules(m.src):
        ind = measuring.contra_induce(m, x.as_contra())
        assert (ind.pi, ind.mu) == ref_contra_induce(m, x.as_contra())
        assert measuring.s_lower(m, x) == ref_s_lower(m, x)
