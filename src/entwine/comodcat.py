"""Entwined modules: carriers with a right A-action and right C-coaction
compatible through psi, their hom spaces, the two induction functors and
their adjunctions.  The contramodule side's induction functors and
adjunctions (contracat) are these at transposed objects.

An entwined module stores action M(x)A -> M and coaction M -> M(x)C; the
compatibility square reads
    coaction o action = (action (x) C) o (M (x) psi) o (coaction (x) A),
that is, the coaction is right-linear into the cofree module M (x) C
twisted by psi, and check_entwined_module checks it in that form, through
_cofree_action.

The free object N (x) A and the cofree object M (x) C are built once
(_free, _cofree) from a twist: induce_tc and induce_mc twist by psi, and
the measuring's functors by a measuring's twists.
"""

from __future__ import annotations

from .exactlin import Mat, Record, kron, SubspaceBasis, mat_solution_basis, require_shape
from .report import Report, eq_check, hom_bijection_report
from .algstruct import (
    Comodule, ModuleRight, check_comodule, check_module_right,
    coaction_square, comodule_hom, module_hom_right, right_action_square,
)
from .entwining import Entwining


class EntwinedModule(Record):
    ent: Entwining
    dim: int
    action: Mat
    coaction: Mat

    def __post_init__(self):
        m, F = self.dim, self.ent.field
        require_shape("action", self.action, m, m * self.ent.alg.dim, F)
        require_shape("coaction", self.coaction, m * self.ent.coalg.dim, m, F)

    def as_module(self) -> ModuleRight:
        return ModuleRight(self.ent.alg, self.dim, self.action)

    def as_comodule(self) -> Comodule:
        return Comodule(self.ent.coalg, self.dim, self.coaction)


def check_entwined_module(x: EntwinedModule) -> Report:
    rep = Report("entwined-module")
    for ch in check_module_right(x.as_module()).checks:
        rep.add(ch)
    for ch in check_comodule(x.as_comodule()).checks:
        rep.add(ch)
    e = x.ent
    rep.add(eq_check("action-coaction-compat", x.coaction * x.action,
                     _cofree_action(e, x.dim, x.action, e.psi)
                     * kron(x.coaction, Mat.identity(e.field, e.alg.dim))))
    return rep


def _free(e: Entwining, m0: int, coaction: Mat, twist: Mat) -> EntwinedModule:
    """N (x) A, for N of dimension m0 with a coaction N -> N (x) C' and a
    twist C' (x) A -> A (x) C: the free action I_N (x) mult and the
    coaction (I_N (x) twist)(coaction (x) I_A)."""
    i_m0 = Mat.identity(e.field, m0)
    action = kron(i_m0, e.alg.mult)
    coaction = kron(i_m0, twist) * kron(coaction, Mat.identity(e.field, e.alg.dim))
    return EntwinedModule(e, m0 * e.alg.dim, action, coaction)


def _cofree_action(e: Entwining, m: int, action: Mat, twist: Mat) -> Mat:
    return kron(action, Mat.identity(e.field, e.coalg.dim)) * kron(Mat.identity(e.field, m), twist)


def _cofree(e: Entwining, m: int, action: Mat, twist: Mat) -> EntwinedModule:
    """M (x) C, for M of dimension m with an action M (x) A' -> M and a
    twist C (x) A -> A' (x) C: the action (action (x) I_C)(I_M (x) twist)
    and the free coaction I_M (x) comult."""
    return EntwinedModule(e, m * e.coalg.dim, _cofree_action(e, m, action, twist),
                          kron(Mat.identity(e.field, m), e.coalg.comult))


def induce_tc(e: Entwining, n: Comodule) -> EntwinedModule:
    """N (x) A with the free action and the psi-twisted coaction."""
    if n.coalg != e.coalg:
        raise ValueError("comodule is not over the entwining's coalgebra")
    return _free(e, n.dim, n.coaction, e.psi)


def induce_mc(e: Entwining, m: ModuleRight) -> EntwinedModule:
    """M (x) C with the psi-twisted action and the free coaction."""
    if m.alg != e.alg:
        raise ValueError("module is not over the entwining's algebra")
    return _cofree(e, m.dim, m.action, e.psi)


def morphism_conditions(x: EntwinedModule, y: EntwinedModule):
    """The action and the coaction square of a map f: x -> y, in that
    order, as term lists:
      f x.action - y.action (f (x) I_n),
      (f (x) I_c) x.coaction - y.coaction f;
    each is linear in f and vanishes exactly when f commutes with that
    structure map."""
    return [right_action_square(x.action, y.action, x.ent.alg.dim),
            coaction_square(x.coaction, y.coaction, x.ent.coalg.dim)]


def hom_space(x: EntwinedModule, y: EntwinedModule) -> SubspaceBasis:
    """All maps commuting with both the action and the coaction."""
    if x.ent != y.ent:
        raise ValueError("objects live over different entwinings")
    return mat_solution_basis(x.ent.field, y.dim, x.dim, morphism_conditions(x, y))


def adjunction_check_tc_fc(e: Entwining, n: Comodule, x: EntwinedModule) -> Report:
    """Induction is left adjoint to forgetting the action.

    Hom_ent(N (x) A, X) and Hom_comod(N, X) are matched by
    zeta |-> zeta o (N (x) unit)  and  xi |-> action_X o (xi (x) A);
    the report verifies equal dimensions, both directions landing in the
    right hom space, and the two maps being mutually inverse on bases.
    """
    F = e.field
    ind = induce_tc(e, n)
    left = hom_space(ind, x)
    right = comodule_hom(n, x.as_comodule())
    i_m0 = Mat.identity(F, n.dim)
    i_n = Mat.identity(F, e.alg.dim)

    def down(zeta: Mat) -> Mat:
        return zeta * kron(i_m0, e.alg.unit)

    def up(xi: Mat) -> Mat:
        return x.action * kron(xi, i_n)

    return hom_bijection_report(
        "adjunction-induce-forget", left, (x.dim, ind.dim),
        right, (x.dim, n.dim), down, up,
        ("down-lands-in-comodule-hom", "up-lands-in-entwined-hom"))


def adjunction_check_fm_mc(e: Entwining, x: EntwinedModule, m: ModuleRight) -> Report:
    """Forgetting the coaction is left adjoint to M (x) C.

    Hom_ent(X, M (x) C) and Hom_A(X, M) are matched by
    zeta |-> (M (x) counit) o zeta  and  xi |-> (xi (x) C) o coaction_X.
    """
    F = e.field
    ind = induce_mc(e, m)
    left = hom_space(x, ind)
    right = module_hom_right(x.as_module(), m)
    i_m = Mat.identity(F, m.dim)
    i_c = Mat.identity(F, e.coalg.dim)

    def down(zeta: Mat) -> Mat:
        return kron(i_m, e.coalg.counit) * zeta

    def up(xi: Mat) -> Mat:
        return kron(xi, i_c) * x.coaction

    return hom_bijection_report(
        "adjunction-forget-coinduce", left, (ind.dim, x.dim),
        right, (m.dim, x.dim), down, up,
        ("down-lands-in-module-hom", "up-lands-in-entwined-hom"))
