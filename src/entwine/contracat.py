"""Contramodules and entwined contramodules at finite dimension.

A hom space Hom(V, M) is realized on the carrier M (x) V*, and an
iterated (V1, ..., Vn, M) := Hom(Vn (x) ... (x) V1, M) on the carrier
M (x) Vn* (x) ... (x) V1*: later argument tokens sit closer to M, and
currying off the last tensor factor of the domain is the identity on
coordinates.  All reindexing flows through exactly two helpers:

    hom_pre(g, inner): precompose the innermost hom argument with g,
    under(phi, outer): apply phi under `outer` trailing dual legs.

The contramodule structure map pi: Hom(C, M) -> M is the matrix
M (x) C* -> M; the A-action of an entwined contramodule is stored
uncurried as A (x) M -> M, its curried mate M -> M (x) A* is derived.

At finite dimension a C-contramodule is a module over the dual algebra
C*, and so is a C-comodule: transposing on the dual basis (`transpose`)
takes each contramodule-side object to a comodule-side one and back.
The induction functors and their adjunction checks are therefore the
comodule ones (comodcat) at transposed objects, transposed; this module
states only the objects, their axioms and their hom spaces.
"""

from __future__ import annotations

from .exactlin import (
    Mat, Record, kron, SubspaceBasis, mat_solution_basis, require_shape, reshape,
)
from .report import Report, eq_check
from .algstruct import (
    Coalgebra, Comodule, ModuleLeft, ModuleRight, check_module_left,
    left_action_square, right_action_square,
)
from .entwining import Entwining
from .comodcat import (
    EntwinedModule, adjunction_check_fm_mc, adjunction_check_tc_fc,
    induce_mc, induce_tc,
)


def hom_pre(g: Mat, inner: int) -> Mat:
    """Precomposition with g on the innermost argument slot.

    Sends the carrier X (x) V* to X (x) D* for g: D -> V, where X has
    dimension `inner` and absorbs every outer leg.
    """
    return kron(Mat.identity(g.field, inner), g.t)


def under(phi: Mat, outer: int) -> Mat:
    """Apply phi: X -> Y under `outer` trailing dual legs."""
    return kron(phi, Mat.identity(phi.field, outer))


def curry_left(act: Mat, m: int, n: int) -> Mat:
    """A (x) M -> M rewritten as M -> M (x) A* on fixed dual bases."""
    require_shape("action", act, m, n * m, act.field)
    # Entry (i, (a, j)) goes to ((i, a), j): the same row-major index.
    return reshape(act, m * n, m)


def uncurry_left(mu: Mat, m: int, n: int) -> Mat:
    require_shape("curried action", mu, m * n, m, mu.field)
    return reshape(mu, m, n * m)


class ContraModule(Record):
    coalg: Coalgebra
    dim: int
    pi: Mat

    def __post_init__(self):
        m = self.dim
        require_shape("pi", self.pi, m, m * self.coalg.dim, self.coalg.field)


def check_contramodule(x: ContraModule) -> Report:
    rep = Report("contramodule")
    c = x.coalg
    m = x.dim
    rep.add(eq_check("contra-associativity",
                     x.pi * hom_pre(c.comult, m),
                     x.pi * under(x.pi, c.dim)))
    rep.add(eq_check("contra-counit",
                     x.pi * hom_pre(c.counit, m),
                     Mat.identity(c.field, m)))
    return rep


def free_contramodule(c: Coalgebra, m0: int) -> ContraModule:
    """Hom(C, k^m0) with pi given by precomposition with comult."""
    return ContraModule(c, m0 * c.dim, hom_pre(c.comult, m0))


class EntwinedContraModule(Record):
    ent: Entwining
    dim: int
    pi: Mat
    action: Mat

    def __post_init__(self):
        m, F = self.dim, self.ent.field
        require_shape("pi", self.pi, m, m * self.ent.coalg.dim, F)
        require_shape("action", self.action, m, self.ent.alg.dim * m, F)

    @property
    def mu(self) -> Mat:
        """Curried action M -> M (x) A*."""
        return curry_left(self.action, self.dim, self.ent.alg.dim)

    def as_contra(self) -> ContraModule:
        return ContraModule(self.ent.coalg, self.dim, self.pi)

    def as_module(self) -> ModuleLeft:
        return ModuleLeft(self.ent.alg, self.dim, self.action)


def check_entwined_contramodule(x: EntwinedContraModule) -> Report:
    rep = Report("entwined-contramodule")
    for ch in check_module_left(x.as_module()).checks:
        rep.add(ch)
    for ch in check_contramodule(x.as_contra()).checks:
        rep.add(ch)
    e = x.ent
    m, n, c = x.dim, e.alg.dim, e.coalg.dim
    mu = x.mu
    rep.add(eq_check("action-pi-compat",
                     mu * x.pi,
                     under(x.pi, n) * hom_pre(e.psi, m) * under(mu, c)))
    return rep


def transpose(x):
    """The dual on the dual basis, an involution: an entwined
    contramodule (pi, action) goes to the entwined module with coaction
    pi^T and action mu^T over the same entwining, a contramodule to the
    comodule with coaction pi^T, a left module to a right module, and
    each back."""
    if isinstance(x, EntwinedContraModule):
        return EntwinedModule(x.ent, x.dim, x.mu.t, x.pi.t)
    if isinstance(x, EntwinedModule):
        return EntwinedContraModule(x.ent, x.dim, x.coaction.t,
                                    uncurry_left(x.action.t, x.dim, x.ent.alg.dim))
    if isinstance(x, ContraModule):
        return Comodule(x.coalg, x.dim, x.pi.t)
    if isinstance(x, Comodule):
        return ContraModule(x.coalg, x.dim, x.coaction.t)
    if isinstance(x, ModuleLeft):
        return ModuleRight(x.alg, x.dim, curry_left(x.action, x.dim, x.alg.dim).t)
    if isinstance(x, ModuleRight):
        return ModuleLeft(x.alg, x.dim, uncurry_left(x.action.t, x.dim, x.alg.dim))
    raise ValueError("expected a (co, contra or entwined) module to transpose")


def induce_contra_t(e: Entwining, n: ContraModule) -> EntwinedContraModule:
    """(A, N) = N (x) A* with action by inner precomposition with mult and
    pi routed through psi: the transpose of induce_tc at N^T."""
    return transpose(induce_tc(e, transpose(n)))


def induce_a_t(e: Entwining, n: ModuleLeft) -> EntwinedContraModule:
    """(C, N) = N (x) C* with the free pi and the psi-twisted action: the
    transpose of induce_mc at N^T."""
    return transpose(induce_mc(e, transpose(n)))


def contra_morphism_conditions(x: EntwinedContraModule, y: EntwinedContraModule):
    """The action and the pi square of a map f: x -> y, in that order, as
    term lists:
      f x.action - y.action (I_n (x) f),
      f x.pi - y.pi under(f, c);
    each is linear in f and vanishes exactly when f commutes with that
    structure map."""
    return [left_action_square(x.action, y.action, x.ent.alg.dim),
            right_action_square(x.pi, y.pi, x.ent.coalg.dim)]


def contra_hom_space(x: EntwinedContraModule, y: EntwinedContraModule) -> SubspaceBasis:
    """Maps commuting with the A-action and with pi."""
    if x.ent != y.ent:
        raise ValueError("objects live over different entwinings")
    return mat_solution_basis(x.ent.field, y.dim, x.dim,
                              contra_morphism_conditions(x, y))


def adjunction_check_f_t(e: Entwining, x: EntwinedContraModule,
                         n: ContraModule) -> Report:
    """Free entwined contramodule (A, N) is right adjoint to forgetting
    the action: Hom_ent(X, (A, N)) matches Hom_contra(X, N).  Transposed,
    that is Hom_ent(N^T (x) A, X^T) against Hom_comod(N^T, X^T), which
    adjunction_check_tc_fc checks."""
    return adjunction_check_tc_fc(e, transpose(n), transpose(x))


def adjunction_check_at_af(e: Entwining, m: ModuleLeft,
                           n: EntwinedContraModule) -> Report:
    """(C, -) on left modules is left adjoint to forgetting pi:
    Hom_ent((C, M), N) matches Hom_A(M, N).  Transposed, that is
    Hom_ent(N^T, M^T (x) C) against Hom_A(N^T, M^T), which
    adjunction_check_fm_mc checks."""
    return adjunction_check_fm_mc(e, transpose(n), transpose(m))
