"""Measurings between entwining structures and coalgebra-Galois data.

A measuring from (A', C', psi') to (A, C, psi) is a pair of maps

    alpha: C' (x) A' -> A        gamma: C' -> A (x) C

subject to five compatibility identities.  It induces four functors
between the entwined module and entwined contramodule categories on
both sides, realized here as explicit carriers: two inductions, a
kernel-type corestriction (cotensor, hom_tilde) and a cokernel-type
quotient (hat_tensor, cohom), together with the unit and counit of each
adjunction.  The Galois deciders evaluate those (co)units at the
representing objects and report bijectivity.

Each functor is stated once, on the entwined modules: a private builder
returns the object with its kernel inclusion or with the cokernel
presenting it, and the (co)units and adjunction checks read from that
presentation.  Every map onto a quotient is descended by _descend.  The
measuring enters through its two twists, each written once:
_alpha_twist makes M (x) C' entwined and _gamma_twist makes M' (x) A
entwined.  comodule_side_induce is comodcat's cofree or free object with
that twist, the hat tensor builds its free object from the gamma twist,
and check_measuring reads its three mixed identities through both.  Each
twist is built once per construction or check: t_upper's morphism check
gives its one alpha twist to both the cofree domain and codomain.  Maps
that share an identity leg are multiplied before they are lifted, by
kron(I, X) kron(I, Y) = kron(I, X Y).  The contramodule side is the
transpose (`contracat.transpose`, the dual on the dual basis):
contra_induce, cohom, hom_tilde, s_upper, s_lower,
unit_psi, counit_phi and the contramodule adjunction are
comodule_side_induce, cotensor, hat_tensor, t_upper, t_lower,
counit_upsilon, unit_omega and the comodule adjunction at the transposed
objects, transposed.  A cokernel is read off the kernel of the
transpose, so these are the bases the contramodule side would choose.

The Galois half builds the measuring canonically attached to a
coalgebra-Galois extension from one canonical_map call: the coinvariants,
the canonical map on the tensor product over them, the entwining
transported through its inverse (inverting it is the bijectivity test),
and the measuring (inclusion, coaction-of-unit).
"""

from __future__ import annotations

from .exactlin import (
    Mat, Record, kron, kernel_basis, cokernel, restrict_map, mat_solution_basis,
    require_shape, SubspaceBasis, rank, inverse, Lift, Term, TermList,
)
from .report import Report, eq_check, Verdict, hom_bijection_report
from .algstruct import (
    Algebra, Coalgebra, ModuleRight, ModuleLeft, Comodule, check_comodule,
    regular_right_module, regular_comodule, dual_left_module,
)
from .entwining import Entwining, trivial_entwining
from .comodcat import (
    EntwinedModule, _cofree, _cofree_action, _free, induce_tc, induce_mc, hom_space,
    morphism_conditions,
)
from .contracat import (
    ContraModule, EntwinedContraModule, free_contramodule, induce_contra_t,
    induce_a_t, transpose,
)


class Measuring(Record):
    """alpha: C'(x)A' -> A and gamma: C' -> A(x)C between entwinings."""

    src: Entwining
    dst: Entwining
    alpha: Mat
    gamma: Mat

    def __post_init__(self):
        if self.src.field != self.dst.field:
            raise ValueError("field mismatch")
        n, c = self.dst.alg.dim, self.dst.coalg.dim
        cp, F = self.src.coalg.dim, self.src.field
        require_shape("alpha", self.alpha, n, cp * self.src.alg.dim, F)
        require_shape("gamma", self.gamma, n * c, cp, F)

    @property
    def field(self):
        return self.src.field


def check_measuring(m: Measuring) -> Report:
    """The five defining identities, verified entrywise; the three mixed
    ones are read through the measuring's twists."""
    rep = Report("measuring")
    F = m.field
    mult, unit, counitp = m.dst.alg.mult, m.dst.alg.unit, m.src.coalg.counit
    al, ga = m.alpha, m.gamma
    i_n = Mat.identity(F, m.dst.alg.dim)
    i_c = Mat.identity(F, m.dst.coalg.dim)
    i_np = Mat.identity(F, m.src.alg.dim)
    i_cp = Mat.identity(F, m.src.coalg.dim)
    a_twist, g_twist = _alpha_twist(m), _gamma_twist(m)

    rep.add(eq_check("alpha-mult", al * kron(i_cp, m.src.alg.mult),
                     mult * kron(i_n, al) * kron(a_twist, i_np)))
    rep.add(eq_check("alpha-unit", al * kron(i_cp, m.src.alg.unit), unit * counitp))
    rep.add(eq_check("gamma-comult", kron(i_n, m.dst.coalg.comult) * ga,
                     kron(g_twist, i_c) * kron(i_cp, ga) * m.src.coalg.comult))
    rep.add(eq_check("gamma-counit", kron(i_n, m.dst.coalg.counit) * ga, unit * counitp))
    rep.add(eq_check("alpha-gamma-compat", kron(mult, i_c) * kron(i_n, ga) * a_twist,
                     g_twist * kron(i_cp, al) * kron(m.src.coalg.comult, i_np)))
    return rep


def identity_measuring(e: Entwining) -> Measuring:
    """alpha(c (x) a) = counit(c) a and gamma = coaction of the unit."""
    F = e.field
    return Measuring(e, e,
                     kron(e.coalg.counit, Mat.identity(F, e.alg.dim)),
                     kron(e.alg.unit, Mat.identity(F, e.coalg.dim)))


# ---------------------------------------------------------------------------
# Coalgebra-Galois data


class GaloisData(Record):
    """An algebra that is simultaneously a comodule over a coalgebra."""

    alg: Algebra
    coalg: Coalgebra
    coaction: Mat

    def __post_init__(self):
        if self.alg.field != self.coalg.field:
            raise ValueError("field mismatch")
        n = self.alg.dim
        require_shape("coaction", self.coaction, n * self.coalg.dim, n, self.field)
        rep = check_comodule(self.as_comodule())
        if not rep.passed:
            bad = [ch.name for ch in rep.checks if not ch.passed]
            raise ValueError("coaction fails comodule axioms: %s" % ", ".join(bad))

    @property
    def field(self):
        return self.alg.field

    def as_comodule(self) -> Comodule:
        return Comodule(self.coalg, self.alg.dim, self.coaction)


class Coinvariants(Record):
    """Basis of the coinvariant subalgebra with its induced structure."""

    space: SubspaceBasis
    algebra: Algebra

    @property
    def inclusion(self) -> Mat:
        return self.space.basis

    @property
    def dim(self) -> int:
        return self.space.dim


def _coinvariant_condition(g: GaloisData) -> TermList:
    """coaction mult (b (x) I_n) - (mult (x) I_c)(b (x) coaction), linear
    in b: its column i is coaction(b a) - b . coaction(a) at the i-th
    basis vector a."""
    n, c = g.alg.dim, g.coalg.dim
    mult, coact = g.alg.mult, g.coaction
    return TermList((
        Term(1, coact * mult, (Lift(1, n),)),
        Term(-1, kron(mult, Mat.identity(g.field, c)), (Lift(1, n * c, coact),))))


def coinvariants(g: GaloisData) -> Coinvariants:
    """b with coaction(b a) = b . coaction(a) for every a, as a subalgebra."""
    F = g.field
    mult = g.alg.mult
    space = mat_solution_basis(F, g.alg.dim, 1, [_coinvariant_condition(g)])
    inc = space.basis
    # Closure under multiplication and membership of the unit; failure
    # here means broken input arithmetic, not a data condition.
    alg = Algebra(F, space.dim,
                  restrict_map(mult, kron(inc, inc), inc),
                  restrict_map(g.alg.unit, Mat.identity(F, 1), inc))
    return Coinvariants(space, alg)


def canonical_map(g: GaloisData):
    """(b, dom, can): the coinvariants b, the quotient dom of A (x) A by
    the coinvariant relations, and the map a (x) a' |-> a . coaction(a')
    descended to it.  The data is Galois when can is square of full rank."""
    F = g.field
    n = g.alg.dim
    i_n = Mat.identity(F, n)
    mult, coact = g.alg.mult, g.coaction
    b = coinvariants(g)
    rel = (kron(mult * kron(i_n, b.inclusion), i_n)
           - kron(i_n, mult * kron(b.inclusion, i_n)))
    dom = cokernel(rel)
    unreduced = kron(mult, Mat.identity(F, g.coalg.dim)) * kron(i_n, coact)
    return b, dom, _descend(unreduced, dom.relations, dom.section,
                            "canonical map does not kill the relations")


def is_galois(g: GaloisData) -> bool:
    _, dom, can = canonical_map(g)
    return dom.dim == can.rows == rank(can)


def galois_entwining(g: GaloisData) -> Entwining:
    """The entwining transported through the inverse of the canonical map."""
    return galois_measuring(g).dst


def galois_measuring(g: GaloisData) -> Measuring:
    """The canonical measuring from (B, k, id) into the transported
    entwining, with alpha the inclusion and gamma the coaction of 1."""
    F = g.field
    i_n = Mat.identity(F, g.alg.dim)
    b, dom, can = canonical_map(g)
    try:
        can_inv = inverse(can)
    except ValueError:
        raise ValueError("data is not Galois: canonical map is not bijective") from None
    act_q = _descend(dom.projection * kron(i_n, g.alg.mult), kron(dom.relations, i_n),
                     kron(dom.section, i_n), "right multiplication does not descend")
    unit_c = kron(g.alg.unit, Mat.identity(F, g.coalg.dim))
    dst = Entwining(g.alg, g.coalg, can * act_q * kron(can_inv * unit_c, i_n))
    return Measuring(trivial_entwining(b.algebra), dst, b.inclusion,
                     g.coaction * g.alg.unit)


# ---------------------------------------------------------------------------
# Induced entwined modules and the comodule-side adjunction


# Failure messages of _require_morphism, one per morphism condition in
# the order comodcat states them: action, then coaction.
_CO_FAILURES = ("is not right-linear", "is not colinear")


def _require_morphism(conditions, f: Mat, what: str) -> None:
    for cond, failure in zip(conditions, _CO_FAILURES):
        if not cond(f).is_zero():
            raise ValueError("%s %s" % (what, failure))


def _descend(f: Mat, relations: Mat, section: Mat, message: str) -> Mat:
    """f on the quotient presented by relations and section; f must kill
    the relations, else ValueError(message)."""
    if not (f * relations).is_zero():
        raise ValueError(message)
    return f * section


def _alpha_twist(m: Measuring) -> Mat:
    """(alpha (x) C')(C' (x) psi')(comult' (x) A'): C' (x) A' -> A (x) C',
    the twist of the cofree object M (x) C'."""
    F = m.field
    i_cp = Mat.identity(F, m.src.coalg.dim)
    return (kron(m.alpha, i_cp) * kron(i_cp, m.src.psi)
            * kron(m.src.coalg.comult, Mat.identity(F, m.src.alg.dim)))


def _gamma_twist(m: Measuring) -> Mat:
    """(mult (x) C)(A (x) psi)(gamma (x) A): C' (x) A -> A (x) C, the twist
    of the free object M' (x) A."""
    F = m.field
    i_n = Mat.identity(F, m.dst.alg.dim)
    return (kron(m.dst.alg.mult, Mat.identity(F, m.dst.coalg.dim))
            * kron(i_n, m.dst.psi) * kron(m.gamma, i_n))


def comodule_side_induce(m: Measuring, x) -> EntwinedModule:
    """M (x) C' over the source from a module over the target algebra,
    or M' (x) A over the target from a comodule over the source
    coalgebra: the cofree and the free object, twisted through
    _alpha_twist and through _gamma_twist."""
    if isinstance(x, ModuleRight):
        if x.alg != m.dst.alg:
            raise ValueError("module is not over the target algebra")
        return _cofree(m.src, x.dim, x.action, _alpha_twist(m))
    if isinstance(x, Comodule):
        if x.coalg != m.src.coalg:
            raise ValueError("comodule is not over the source coalgebra")
        return _free(m.dst, x.dim, x.coaction, _gamma_twist(m))
    raise ValueError("expected a ModuleRight or a Comodule")


def _t_upper(m: Measuring, x: EntwinedModule):
    """t_upper and its domain M (x) C', which its morphism check induces,
    with its codomain M (x) C (x) C', from one _alpha_twist."""
    if x.ent != m.dst:
        raise ValueError("object is not over the target entwining")
    F = m.field
    c, cp = m.dst.coalg.dim, m.src.coalg.dim
    i_cp = Mat.identity(F, cp)
    t = (kron(x.coaction, i_cp)
         - kron(x.action, Mat.identity(F, c * cp))
         * kron(Mat.identity(F, x.dim), kron(m.gamma, i_cp) * m.src.coalg.comult))
    twist = _alpha_twist(m)
    dom = _cofree(m.src, x.dim, x.action, twist)
    # M (x) C, the module of induce_mc, whose cofree coaction is not needed.
    cod = _cofree(m.src, x.dim * c, _cofree_action(m.dst, x.dim, x.action, m.dst.psi), twist)
    _require_morphism(morphism_conditions(dom, cod), t, "t_upper")
    return t, dom


def t_upper(m: Measuring, x: EntwinedModule) -> Mat:
    """Defining map of the cotensor: M (x) C' -> M (x) C (x) C'."""
    return _t_upper(m, x)[0]


def _cotensor(m: Measuring, x: EntwinedModule):
    """The cotensor of x with its kernel inclusion iota."""
    t, dom = _t_upper(m, x)
    iota = kernel_basis(t)
    F = m.field
    np_, cp = m.src.alg.dim, m.src.coalg.dim
    action = restrict_map(dom.action, kron(iota, Mat.identity(F, np_)), iota)
    coaction = restrict_map(dom.coaction, iota, kron(iota, Mat.identity(F, cp)))
    return EntwinedModule(m.src, iota.cols, action, coaction), iota


def cotensor(m: Measuring, x: EntwinedModule) -> EntwinedModule:
    """Kernel of t_upper with the restricted structure maps."""
    return _cotensor(m, x)[0]


def t_lower(m: Measuring, x: EntwinedModule) -> Mat:
    """Defining map of the quotient: M' (x) A' (x) A -> M' (x) A."""
    if x.ent != m.src:
        raise ValueError("object is not over the source entwining")
    F = m.field
    n = m.dst.alg.dim
    np_ = m.src.alg.dim
    i_n = Mat.identity(F, n)
    return (kron(x.action, i_n)
            - kron(Mat.identity(F, x.dim), m.dst.alg.mult * kron(m.alpha, i_n))
            * kron(x.coaction, Mat.identity(F, np_ * n)))


def _hat_tensor(m: Measuring, x: EntwinedModule):
    """The hat tensor of x with the cokernel of t_lower presenting it."""
    t = t_lower(m, x)
    ind = _free(m.dst, x.dim, x.coaction, _gamma_twist(m))
    cok = cokernel(t)
    F = m.field
    i_n = Mat.identity(F, m.dst.alg.dim)
    action = _descend(cok.projection * ind.action, kron(t, i_n), kron(cok.section, i_n),
                      "action does not descend to the quotient")
    coaction = _descend(kron(cok.projection, Mat.identity(F, m.dst.coalg.dim)) * ind.coaction,
                        t, cok.section, "coaction does not descend to the quotient")
    return EntwinedModule(m.dst, cok.dim, action, coaction), cok


def hat_tensor(m: Measuring, x: EntwinedModule) -> EntwinedModule:
    """Cokernel of t_lower with the descended structure maps."""
    return _hat_tensor(m, x)[0]


def _raw_omega(m: Measuring, y: EntwinedModule, cok) -> Mat:
    """Insert the unit, then project: y -> hat_tensor(y) (x) C'."""
    F = m.field
    return (kron(cok.projection * kron(Mat.identity(F, y.dim), m.dst.alg.unit),
                 Mat.identity(F, m.src.coalg.dim))
            * y.coaction)


def _upsilon(m: Measuring, x: EntwinedModule, iota: Mat) -> Mat:
    """Evaluate the counit, then multiply: cotensor(x) (x) A -> x."""
    F = m.field
    return x.action * kron(kron(Mat.identity(F, x.dim), m.src.coalg.counit) * iota,
                           Mat.identity(F, m.dst.alg.dim))


def unit_omega(m: Measuring, x: EntwinedModule) -> Mat:
    """x -> cotensor(hat_tensor(x)): insert the unit, then project."""
    y, cok = _hat_tensor(m, x)
    k, iota = _cotensor(m, y)
    omega = restrict_map(_raw_omega(m, x, cok), Mat.identity(m.field, x.dim), iota)
    _require_morphism(morphism_conditions(x, k), omega, "unit_omega")
    return omega


def counit_upsilon(m: Measuring, x: EntwinedModule) -> Mat:
    """hat_tensor(cotensor(x)) -> x: evaluate the counit, then multiply."""
    k, iota = _cotensor(m, x)
    y, cok = _hat_tensor(m, k)
    upsilon = _descend(_upsilon(m, x, iota), cok.relations, cok.section,
                       "counit composite does not kill the relations")
    _require_morphism(morphism_conditions(y, x), upsilon, "counit_upsilon")
    return upsilon


def _bijective_verdict(maps) -> Verdict:
    """FOUND when each named (co)unit map is square of full rank."""
    data, ok = {}, True
    for name, f in maps:
        r = rank(f)
        data[name] = {"rows": f.rows, "cols": f.cols, "rank": r}
        ok = ok and f.rows == f.cols == r
    if ok:
        return Verdict("FOUND", witness=dict(maps), data=data)
    return Verdict("NONE", certificate="linear", data=data,
                   log=("unit or counit is not bijective at the representing object",))


def is_co_galois(m: Measuring) -> Verdict:
    """Bijectivity of the unit and counit at the representing objects."""
    x_src = induce_tc(m.src, regular_comodule(m.src.coalg))
    x_dst = induce_mc(m.dst, regular_right_module(m.dst.alg))
    return _bijective_verdict((("omega", unit_omega(m, x_src)),
                               ("upsilon", counit_upsilon(m, x_dst))))


# ---------------------------------------------------------------------------
# Induced entwined contramodules: the comodule side, transposed


def contra_induce(m: Measuring, x) -> EntwinedContraModule:
    """Hom(C', M) over the source from a left module over the target
    algebra, or Hom(A, N) over the target from a contramodule over the
    source coalgebra."""
    if not isinstance(x, (ModuleLeft, ContraModule)):
        raise ValueError("expected a ModuleLeft or a ContraModule")
    return transpose(comodule_side_induce(m, transpose(x)))


def s_upper(m: Measuring, x: EntwinedContraModule) -> Mat:
    """Defining map of the cokernel: Hom(C (x) C', M) -> Hom(C', M)."""
    return t_upper(m, transpose(x)).t


def cohom(m: Measuring, x: EntwinedContraModule) -> EntwinedContraModule:
    """Cokernel of s_upper with the descended structure maps."""
    return transpose(cotensor(m, transpose(x)))


def s_lower(m: Measuring, x: EntwinedContraModule) -> Mat:
    """Defining map of the kernel: Hom(A, N) -> Hom(A' (x) A, N)."""
    return t_lower(m, transpose(x)).t


def hom_tilde(m: Measuring, x: EntwinedContraModule) -> EntwinedContraModule:
    """Kernel of s_lower with the restricted structure maps."""
    return transpose(hat_tensor(m, transpose(x)))


def unit_psi(m: Measuring, x: EntwinedContraModule) -> Mat:
    """x -> hom_tilde(cohom(x)): insert the counit, then project."""
    return counit_upsilon(m, transpose(x)).t


def counit_phi(m: Measuring, y: EntwinedContraModule) -> Mat:
    """cohom(hom_tilde(y)) -> y: evaluate at the unit, then apply pi."""
    return unit_omega(m, transpose(y)).t


def is_contra_galois(m: Measuring) -> Verdict:
    """Bijectivity of the unit and counit at the representing objects."""
    x_dst = induce_a_t(m.dst, dual_left_module(m.dst.alg))
    y_src = induce_contra_t(m.src, free_contramodule(m.src.coalg, 1))
    return _bijective_verdict((("psi", unit_psi(m, x_dst)),
                               ("phi", counit_phi(m, y_src))))


# ---------------------------------------------------------------------------
# Adjunction verification, both sides


def adjunction_check_measuring(m: Measuring, x, y) -> Report:
    """Explicit hom bijection of the adjunction, checked on bases.

    For entwined modules x over the target and y over the source: maps
    hat_tensor(y) -> x correspond to maps y -> cotensor(x).  For
    entwined contramodules: maps cohom(x) -> y correspond to maps
    x -> hom_tilde(y), the transposes of the maps of the comodule side's
    bijection at the transposed pair.
    """
    if isinstance(x, EntwinedModule) and isinstance(y, EntwinedModule):
        return _adjunction(m, x, y, "adjunction-measuring-co")
    if isinstance(x, EntwinedContraModule) and isinstance(y, EntwinedContraModule):
        return _adjunction(m, transpose(x), transpose(y), "adjunction-measuring-contra")
    raise ValueError("expected a pair of entwined modules or contramodules")


def _adjunction(m: Measuring, x: EntwinedModule, y: EntwinedModule, title: str) -> Report:
    F = m.field
    i_n = Mat.identity(F, m.dst.alg.dim)
    i_cp = Mat.identity(F, m.src.coalg.dim)
    i_y = Mat.identity(F, y.dim)
    hat_y, cok_y = _hat_tensor(m, y)
    cot_x, iota_x = _cotensor(m, x)
    left = hom_space(hat_y, x)
    right = hom_space(y, cot_x)
    raw_omega = _raw_omega(m, y, cok_y)
    upsilon = _upsilon(m, x, iota_x)

    def down(zeta: Mat) -> Mat:
        return restrict_map(kron(zeta, i_cp) * raw_omega, i_y, iota_x)

    def up(xi: Mat) -> Mat:
        return _descend(upsilon * kron(xi, i_n), cok_y.relations, cok_y.section,
                        "transposed map does not kill the relations")

    return hom_bijection_report(title,
                                left, (x.dim, hat_y.dim), right, (cot_x.dim, y.dim),
                                down, up, ("down-lands", "up-lands"))
