"""Every linear condition of the package as closures: the reference for
its term lists.

The first half holds the identities of `entwine.criteria`.  Each factory
returns callables that are linear (for the memberships), affine (for the
normalizations) or bilinear plus a constant (for the Frobenius couplings)
in the unknowns, and vanish exactly when the family is admissible.  The
second half holds the morphism conditions of the hom spaces of
`algstruct`, `comodcat` and `contracat`, the coinvariant conditions of
`measuring` and the Maschke probe's perturbation conditions, as the
package stated them before they became term lists.  All are plain
compositions of `kron` and products, so `affine_matrix_system` and
`mat_solution_basis` assemble them by evaluation on matrix units, and
`coupling_system` evaluates a coupling at pairs of basis vectors, both
independently of the contraction of the term lists.  `frobenius_sweep`
is the reference of the Frobenius ladder's exhaustive sweep, built on
them.
"""

from __future__ import annotations

from itertools import product

from entwine.exactlin import Mat, basis_columns, kron, mat_solution_basis, vec, vstack
from entwine.contracat import under
from entwine.entwining import Entwining
from oracles import in_span


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


def coupling_system(f, shapes, bases):
    """fix(k, u), the matrix A of the coupling f, bilinear plus a
    constant, in the coordinates of bases = (P, Q), with argument k fixed
    at the coordinate column u: f == 0 iff A (other coordinates) =
    -vec(f(0, 0)).

    Block j has column l equal to vec(f(P_j, Q_l)) - vec(f(0, 0)), P_j and
    Q_l the basis columns as matrices.  With the first argument fixed, A
    is the sum of u_j times block j; with the second, column j of A is
    block j times u."""
    F = bases[0].field
    ps, qs = (basis_columns(F, b, *shape) for b, shape in zip(bases, shapes))
    f0 = vec(f(*(Mat.zeros(F, *shape) for shape in shapes)))

    def from_columns(cols, width):
        return Mat(F, f0.rows, width, tuple(x for row in zip(*cols) for x in row))

    blocks = [from_columns([(vec(f(p, q)) - f0).entries for q in qs], len(qs)) for p in ps]

    def fix(k: int, u: Mat) -> Mat:
        if k == 0:
            out = Mat.zeros(F, f0.rows, len(qs))
            for x, block in zip(u.entries, blocks):
                out = out + block.scale(x)
            return out
        return from_columns([(block * u).entries for block in blocks], len(ps))

    return fix


def frobenius_sweep(e, variance, points=None):
    """(status, first hit, candidates tried) of the sweep of the smaller
    membership space of one variance over `points`, by default all of
    F_p^d in lexicographic order: each candidate fixes that side's
    coordinates, and it hits when the coupling rows in the other side's
    coordinates are consistent (`oracles.in_span`)."""
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    if variance == "co":
        shapes = ((1, c * n), (n * n, c))
        mems = (v1p_residual(e), w1p_residuals(e))
        couplings = frobenius_couplings_co(e)
    else:
        shapes = ((c * n, 1), (n * n, c))
        mems = (v1_residual(e), w1_residuals(e))
        couplings = frobenius_couplings_contra(e)
    bases = [mat_solution_basis(F, *shape, mem).basis for shape, mem in zip(shapes, mems)]
    fixes = [coupling_system(f, shapes, bases) for f in couplings]
    zero = [Mat.zeros(F, *shape) for shape in shapes]
    target = list((-vstack([vec(f(*zero)) for f in couplings])).entries)
    dims = [b.cols for b in bases]
    k = 0 if dims[0] <= dims[1] else 1
    tried = 0
    for coeffs in product(range(F.p), repeat=dims[k]) if points is None else points:
        tried += 1
        a = vstack([fix(k, Mat(F, dims[k], 1, tuple(map(F.of, coeffs)))) for fix in fixes])
        if in_span(F, [list(a.t.row(j)) for j in range(a.cols)], target):
            return "FOUND", tuple(coeffs), tried
    return "NONE", None, tried


def cointegral_residuals(e: Entwining):
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_n, i_c = Mat.identity(F, n), Mat.identity(F, c)
    i_cn = Mat.identity(F, c * n)
    mult, unit = e.alg.mult, e.alg.unit
    comult, counit = e.coalg.comult, e.coalg.counit
    psi = e.psi
    coev = vec(i_n)

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


# -- morphism conditions, coinvariants and the probe's perturbations --


def module_hom_right_conditions(x, y):
    i_n = Mat.identity(x.alg.field, x.alg.dim)
    return [lambda f: f * x.action - y.action * kron(f, i_n)]


def module_hom_left_conditions(x, y):
    i_n = Mat.identity(x.alg.field, x.alg.dim)
    return [lambda f: f * x.action - y.action * kron(i_n, f)]


def comodule_hom_conditions(x, y):
    i_c = Mat.identity(x.coalg.field, x.coalg.dim)
    return [lambda f: kron(f, i_c) * x.coaction - y.coaction * f]


def morphism_conditions(x, y):
    """`comodcat.morphism_conditions`: the action, then the coaction."""
    F = x.ent.field
    i_n = Mat.identity(F, x.ent.alg.dim)
    i_c = Mat.identity(F, x.ent.coalg.dim)
    return [
        lambda f: f * x.action - y.action * kron(f, i_n),
        lambda f: kron(f, i_c) * x.coaction - y.coaction * f,
    ]


def contra_morphism_conditions(x, y):
    """`contracat.contra_morphism_conditions`: the action, then pi."""
    i_n = Mat.identity(x.ent.field, x.ent.alg.dim)
    c = x.ent.coalg.dim
    return [
        lambda f: f * x.action - y.action * kron(i_n, f),
        lambda f: f * x.pi - y.pi * under(f, c),
    ]


def plain_contra_hom_conditions(x, y):
    c = x.coalg.dim
    return [lambda f: f * x.pi - y.pi * under(f, c)]


def coinvariant_conditions(g):
    """One condition per basis vector a of the algebra, in order."""
    F = g.field
    n = g.alg.dim
    i_c = Mat.identity(F, g.coalg.dim)
    mult, coact = g.alg.mult, g.coaction
    cols = [Mat.identity(F, n).col_mat(i) for i in range(n)]
    conditions = []
    for i in range(n):
        def cond(b: Mat, col=cols[i]) -> Mat:
            return (coact * mult * kron(b, col)
                    - kron(mult, i_c) * kron(b, coact * col))
        conditions.append(cond)
    return conditions


def splitting_perturbations(inc, proj):
    """The perturbation conditions of the retraction and of the section."""
    return (lambda w: w * inc), (lambda w: proj * w)
