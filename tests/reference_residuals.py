"""The identities of `entwine.criteria` as closures: the reference for its
term lists.

Each factory returns callables that are linear (for the memberships),
affine (for the normalizations) or bilinear plus a constant (for the
Frobenius couplings) in the unknowns, and vanish exactly when the family
is admissible.  They are written as plain compositions of `kron` and
products, so `affine_matrix_system` and `compile_bilinear` assemble them
by evaluation on matrix units, independently of the contraction of the
term lists.
"""

from __future__ import annotations

from entwine.exactlin import Mat, kron, vec, vstack
from entwine.entwining import Entwining
from entwine.criteria import coevaluation


def stacked(parts) -> Mat:
    return vstack([vec(p) for p in parts])


def v1_residual(e: Entwining):
    """Compatibility of sigma with the coaction of the free contramodule."""
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_n, i_c = Mat.identity(F, n), Mat.identity(F, c)
    head = kron(e.coalg.comult.t, i_n)
    psi_t = e.psi.t

    def resid(s: Mat) -> Mat:
        return head * (kron(i_c, psi_t) * kron(s, i_c) - kron(i_c, s))

    return [resid]


def v1_norm(e: Entwining):
    unit_t = e.alg.unit.t
    counit_t = e.coalg.counit.t
    i_c = Mat.identity(e.field, e.coalg.dim)

    def resid(s: Mat) -> Mat:
        return kron(i_c, unit_t) * s - counit_t

    return resid


def v1p_residual(e: Entwining):
    """Compatibility of sigma with the coaction of the cofree comodule."""
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_n, i_c = Mat.identity(F, n), Mat.identity(F, c)
    tail = kron(e.coalg.comult, i_n)
    psi = e.psi

    def resid(r: Mat) -> Mat:
        return (kron(r, i_c) * kron(i_c, psi) - kron(i_c, r)) * tail

    return [resid]


def v1p_norm(e: Entwining):
    i_c = Mat.identity(e.field, e.coalg.dim)
    unit, counit = e.alg.unit, e.coalg.counit

    def resid(r: Mat) -> Mat:
        return r * kron(i_c, unit) - counit

    return resid


def w1_residuals(e: Entwining):
    """Compatibility of rho with the action and with the coaction, on the
    contramodule side."""
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_n, i_c = Mat.identity(F, n), Mat.identity(F, c)
    mult_t, comult_t = e.alg.mult.t, e.coalg.comult.t
    psi_t = e.psi.t

    def action_side(th: Mat) -> Mat:
        return (psi_t * kron(i_n, th.t) * kron(mult_t, i_n)
                - kron(th.t, i_n) * kron(i_n, mult_t))

    def coaction_side(th: Mat) -> Mat:
        return (comult_t * kron(i_c, th.t) * kron(psi_t, i_n) * kron(i_n, psi_t)
                - comult_t * kron(th.t, i_c))

    return [action_side, coaction_side]


def w1p_residuals(e: Entwining):
    """Compatibility of rho with the coaction and with the action, on the
    comodule side."""
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_n, i_c = Mat.identity(F, n), Mat.identity(F, c)
    mult, comult = e.alg.mult, e.coalg.comult
    psi = e.psi

    def coaction_side(th: Mat) -> Mat:
        return (kron(i_n, psi) * kron(psi, i_n) * kron(i_c, th) * comult
                - kron(th, i_c) * comult)

    def action_side(th: Mat) -> Mat:
        return (kron(i_n, mult) * kron(th, i_n)
                - kron(mult, i_n) * kron(i_n, th) * psi)

    return [coaction_side, action_side]


def frobenius_couplings_contra(e: Entwining):
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_n, i_c = Mat.identity(F, n), Mat.identity(F, c)
    comult_t, counit_t = e.coalg.comult.t, e.coalg.counit.t
    unit_t, psi_t = e.alg.unit.t, e.psi.t
    const = counit_t * unit_t

    def through_psi(s: Mat, th: Mat) -> Mat:
        return comult_t * kron(i_c, th.t) * kron(psi_t, i_n) * kron(i_n, s) - const

    def direct(s: Mat, th: Mat) -> Mat:
        return comult_t * kron(i_c, th.t) * kron(s, i_n) - const

    return [through_psi, direct]


def frobenius_couplings_co(e: Entwining):
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_n, i_c = Mat.identity(F, n), Mat.identity(F, c)
    comult, counit = e.coalg.comult, e.coalg.counit
    unit, psi = e.alg.unit, e.psi
    const = unit * counit

    def through_psi(r: Mat, th: Mat) -> Mat:
        return kron(i_n, r) * kron(psi, i_n) * kron(i_c, th) * comult - const

    def direct(r: Mat, th: Mat) -> Mat:
        return kron(r, i_n) * kron(i_c, th) * comult - const

    return [through_psi, direct]


def cointegral_residuals(e: Entwining):
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_n, i_c = Mat.identity(F, n), Mat.identity(F, c)
    i_cn = Mat.identity(F, c * n)
    mult, unit = e.alg.mult, e.alg.unit
    comult, counit = e.coalg.comult, e.coalg.counit
    psi = e.psi
    coev = coevaluation(F, n)

    def coaction_side(phi: Mat) -> Mat:
        return (kron(i_n, psi) * kron(psi, phi) * kron(i_c, kron(coev, i_c)) * comult
                - kron(i_n, kron(phi, i_c)) * kron(coev, comult))

    def action_side(phi: Mat) -> Mat:
        return (kron(i_n, mult) * kron(i_n, kron(phi, i_n)) * kron(coev, i_cn)
                - kron(mult, phi) * kron(i_n, kron(coev, i_c)) * psi)

    def normalization(phi: Mat) -> Mat:
        return mult * kron(i_n, phi) * kron(coev, i_c) - unit * counit

    return [coaction_side, action_side, normalization]


def w1_norm(e: Entwining):
    """Normalization of rho, the same on both sides."""
    unit, counit, mult = e.alg.unit, e.coalg.counit, e.alg.mult
    return lambda th: mult * th - unit * counit
