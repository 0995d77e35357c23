"""Entwining structures (A, C, psi) and their canonical builders.

psi is stored as a single matrix C(x)A -> A(x)C of shape (n*c) x (c*n).
Every axiom is evaluated as a full matrix identity; nothing is sampled.
"""

from __future__ import annotations

from .exactlin import Field, Mat, Record, kron, flip
from .report import Report, eq_check
from .algstruct import (
    Algebra, Coalgebra, Bialgebra, Comodule, check_comodule,
    field_algebra, field_coalgebra,
)


class Entwining(Record):
    alg: Algebra
    coalg: Coalgebra
    psi: Mat

    def __post_init__(self):
        n, c = self.alg.dim, self.coalg.dim
        if self.alg.field != self.coalg.field:
            raise ValueError("field mismatch")
        if (self.psi.rows, self.psi.cols) != (n * c, c * n):
            raise ValueError("psi must be %d x %d" % (n * c, c * n))
        if self.psi.field != self.alg.field:
            raise ValueError("field mismatch")

    @property
    def field(self) -> Field:
        return self.alg.field


def check_entwining(e: Entwining) -> Report:
    """The four compatibility identities of psi with mult, unit, comult, counit."""
    rep = Report("entwining")
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_n, i_c = Mat.identity(F, n), Mat.identity(F, c)
    mult, unit = e.alg.mult, e.alg.unit
    comult, counit = e.coalg.comult, e.coalg.counit
    psi = e.psi
    rep.add(eq_check("psi-mult",
                     psi * kron(i_c, mult),
                     kron(mult, i_c) * kron(i_n, psi) * kron(psi, i_n)))
    rep.add(eq_check("psi-unit", psi * kron(i_c, unit), kron(unit, i_c)))
    rep.add(eq_check("psi-comult",
                     kron(i_n, comult) * psi,
                     kron(psi, i_c) * kron(i_c, psi) * kron(comult, i_n)))
    rep.add(eq_check("psi-counit", kron(i_n, counit) * psi, kron(counit, i_n)))
    return rep


def check_entwining_morphism(src: Entwining, dst: Entwining,
                             f: Mat, g: Mat) -> Report:
    """f: algebra map src.alg -> dst.alg, g: coalgebra map src.coalg -> dst.coalg,
    with (f (x) g) o psi = psi' o (g (x) f)."""
    rep = Report("entwining-morphism")
    if src.field != dst.field:
        raise ValueError("field mismatch")
    F = src.field
    if (f.rows, f.cols) != (dst.alg.dim, src.alg.dim):
        raise ValueError("f must be %d x %d" % (dst.alg.dim, src.alg.dim))
    if (g.rows, g.cols) != (dst.coalg.dim, src.coalg.dim):
        raise ValueError("g must be %d x %d" % (dst.coalg.dim, src.coalg.dim))
    rep.add(eq_check("f-multiplicative",
                     f * src.alg.mult, dst.alg.mult * kron(f, f)))
    rep.add(eq_check("f-unital", f * src.alg.unit, dst.alg.unit))
    rep.add(eq_check("g-comultiplicative",
                     kron(g, g) * src.coalg.comult, dst.coalg.comult * g))
    rep.add(eq_check("g-counital", dst.coalg.counit * g, src.coalg.counit))
    rep.add(eq_check("psi-intertwined",
                     kron(f, g) * src.psi, dst.psi * kron(g, f)))
    return rep


def trivial_entwining(a: Algebra) -> Entwining:
    """C = k; psi is the identity on A in both flattenings."""
    return Entwining(a, field_coalgebra(a.field), Mat.identity(a.field, a.dim))


def trivial_entwining_coalg(c: Coalgebra) -> Entwining:
    """A = k; psi is the identity on C."""
    return Entwining(field_algebra(c.field), c, Mat.identity(c.field, c.dim))


def doi_koppinen(h: Bialgebra, a: Algebra, rho: Mat) -> Entwining:
    """Entwining of an H-comodule algebra: psi(h (x) a) = a0 (x) h a1.

    rho: A -> A (x) H must be a comodule coaction and an algebra map for
    the componentwise product on A (x) H; both are verified and a failed
    check raises.
    """
    F = a.field
    n, d = a.dim, h.dim
    if h.field != F:
        raise ValueError("field mismatch")
    if (rho.rows, rho.cols) != (n * d, n):
        raise ValueError("rho must be %d x %d" % (n * d, n))
    com = check_comodule(Comodule(h.coalg, n, rho))
    for ch in com.checks:
        if not ch.passed:
            raise ValueError("rho is not a coaction: %s" % ch.name)
    i_n, i_d = Mat.identity(F, n), Mat.identity(F, d)
    mixed = kron(a.mult, h.alg.mult) * kron(i_n, kron(flip(F, d, n), i_d))
    mul_ok = eq_check("rho-multiplicative", rho * a.mult, mixed * kron(rho, rho))
    if not mul_ok.passed:
        raise ValueError("rho is not multiplicative")
    unit_ok = eq_check("rho-unital", rho * a.unit, kron(a.unit, h.alg.unit))
    if not unit_ok.passed:
        raise ValueError("rho does not preserve the unit")
    psi = kron(i_n, h.alg.mult) * kron(flip(F, d, n), i_d) * kron(i_d, rho)
    return Entwining(a, h.coalg, psi)


def regular_doi_koppinen(h: Bialgebra) -> Entwining:
    """Doi-Koppinen entwining of H coacting on itself by its comultiplication."""
    return doi_koppinen(h, h.alg, h.coalg.comult)
