"""Separability, Frobenius, and splitting deciders for entwining structures.

Natural families over the base category of finite dimensional spaces are
represented by their value at the base field: a functional e on C(x)A
stands for the whole family sigma, and a map theta: C -> A(x)A for the
family rho, on either the contramodule or the comodule side.  On the
comodule side the component of sigma at a comodule Y is
(I_Y (x) e)(coaction_Y (x) I_n), and that of rho at an entwined module Y
is (action_Y (x) I_n)(I_Y (x) theta) coaction_Y.  Each decider
instantiates the defining identities at the base field and solves the
resulting exact linear (or bilinear) system in those coordinates.

Verdicts are exact.  FOUND witnesses re-verify by substitution before
they are returned; NONE is returned only on an infeasible linear system
or a completed exhaustive search, and it names which one ("linear" or
"exhaustive") with its log, not a checkable certificate object; anything
weaker stays UNKNOWN.
"""

from __future__ import annotations

from itertools import combinations, product

from .exactlin import (
    Field, Mat, Record, kron, vec, unvec, vstack, block_diag, block_inj, block_proj,
    affine_matrix_system, mat_solution_basis, basis_columns, solve_affine,
    compile_bilinear, require_shape, Lift, Term, TermList,
)
from .report import Report, eq_check, Verdict
from .algstruct import (
    dual_left_module, regular_comodule, regular_right_module,
)
from .entwining import Entwining
from .comodcat import EntwinedModule, induce_mc, induce_tc, morphism_conditions
from .contracat import (
    EntwinedContraModule, contra_morphism_conditions,
    free_contramodule, induce_a_t, induce_contra_t, transpose,
)


class Cointegral(Record):
    """A normalized cointegral phi: A*(x)C -> A.

    A cointegral buys Maschke-type averaging: maschke_split_co (resp.
    maschke_split_contra) turns a morphism of C-comodules (resp.
    C-contramodules) between entwined objects into an entwined one and
    fixes morphisms that are already entwined, so it splits the forgetful
    functors to C-comodules and to C-contramodules: both are separable.
    For the regular Doi-Koppinen entwining of a group algebra kG a
    cointegral exists in every characteristic, phi(e^h (x) g) =
    delta(h, g^-1) g among them.  For a trivial entwining (C = k) it is
    a separability idempotent of A, the classical Maschke condition,
    which fails for kG when the characteristic divides |G|.

    phi is one exactly when theta = (I_n (x) phi)(coev (x) I_c), that is
    theta[(i, j), k] = phi[j, (i, k)] (_phi_layout), is a normalized rho
    family, by sep-f's identities term for term (Brzezinski, Proc. AMS 128,
    2000; Caenepeel-Militaru-Zhu, LNM 1787).  Validates them at theta on
    construction, so holders may average morphisms without re-checking;
    raises ValueError naming the first identity that fails.
    from_verdict takes find_cointegral's witness, re-verified already.
    theta is built once, on construction, and kept; it is not a field, so
    equality and hash read ent and phi only.
    """

    ent: Entwining
    phi: Mat

    def __init__(self, ent: Entwining, phi: Mat, _verified: bool = False):
        # _verified is True only from from_verdict: the identities hold already.
        super().__init__(ent, phi)
        F, n, c = self.ent.field, self.ent.alg.dim, self.ent.coalg.dim
        require_shape("phi", self.phi, n, n * c, F)
        theta = unvec(F, _rows_at(vec(self.phi), _phi_layout(n, c)), n * n, c)
        if not _verified:
            for name, r in zip(_COINTEGRAL_NAMES, _sep_f_identities(self.ent)):
                if not r(theta).is_zero():
                    raise ValueError("cointegral identity %r fails" % (name,))
        object.__setattr__(self, "theta", theta)

    @staticmethod
    def from_verdict(e: Entwining, v: Verdict):
        """The Cointegral of the witness of v = find_cointegral(e), or None
        unless v is FOUND.  A FOUND witness has re-verified by substitution,
        so its identities are not built or evaluated again."""
        return Cointegral(e, v.witness["phi"], True) if v.found else None


# -- condition systems at the base field ------------------------------
#
# Each _*_residual factory states identities as term lists (see
# exactlin.TermList) that are linear (for the memberships) or affine (for
# the normalizations) in the unknown, and vanish exactly when the family
# is admissible.  Each is stated once, on the comodule side.  The
# contramodule side's identities are their transposes in the row r = s^T
# (the docstrings give both), and a matrix vanishes exactly where its
# transpose does, so each contramodule decider is its comodule one under
# a second name.  The tests check them against contramodule identities
# written out independently (components.py, reference_residuals.py).
# The cointegral identities are sep-f's at th[(i, j), k] = phi[j, (i, k)]
# (_phi_layout), term for term (Brzezinski 2000; CMZ, LNM 1787), so they
# have no factory of their own.  Identity factors are None.


def _term(coeff, left: Mat, a: int, b: int, right: Mat) -> Term:
    """coeff . left . (I_a (x) U (x) I_b) . right, U the unknown."""
    return Term(coeff, left, (Lift(a, b, right),))


def _v1p_residual(e: Entwining):
    """Compatibility of sigma with the coaction of the cofree comodule and,
    transposed, with that of the free contramodule, tail = comult (x) I_n:
      (r (x) I_c) (I_c (x) psi) tail - (I_c (x) r) tail,
      tail^T (I_c (x) psi^T) (s (x) I_c) - tail^T (I_c (x) s)."""
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_c = Mat.identity(F, c)
    tail = kron(e.coalg.comult, Mat.identity(F, n))
    return [TermList((_term(1, None, 1, c, kron(i_c, e.psi) * tail),
                      _term(-1, None, c, 1, tail)), shape=(c, c * n))]


def _v1p_norm(e: Entwining):
    """r (I_c (x) unit) - counit; transposed, (I_c (x) unit^T) s - counit^T."""
    right = kron(Mat.identity(e.field, e.coalg.dim), e.alg.unit)
    return TermList((_term(1, None, 1, 1, right),), -e.coalg.counit)


def _w1p_residuals(e: Entwining):
    """Compatibility of rho with the coaction and with the action, on the
    comodule side, then transposed, on the contramodule side:
      (I_n (x) psi) (psi (x) I_n) (I_c (x) th) comult - (th (x) I_c) comult,
      (I_n (x) mult) (th (x) I_n) - (mult (x) I_n) (I_n (x) th) psi,
      comult^T (I_c (x) th^T) (psi^T (x) I_n) (I_n (x) psi^T) - comult^T (th^T (x) I_c),
      (th^T (x) I_n) (I_n (x) mult^T) - psi^T (I_n (x) th^T) (mult^T (x) I_n)."""
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_n = Mat.identity(F, n)
    mult, comult, psi = e.alg.mult, e.coalg.comult, e.psi
    coaction_side = TermList((
        _term(1, kron(i_n, psi) * kron(psi, i_n), c, 1, comult),
        _term(-1, None, 1, c, comult)))
    action_side = TermList((
        _term(1, kron(i_n, mult), 1, n, None),
        _term(-1, kron(mult, i_n), n, 1, psi)))
    return [coaction_side, action_side]


def _w1_norm(e: Entwining):
    """Normalization of rho, the same on both sides: mult th - unit counit."""
    return TermList((_term(1, e.alg.mult, 1, 1, None),), -(e.alg.unit * e.coalg.counit))


def _sep_f_identities(e: Entwining):
    """Sep-f's identities; in phi (_phi_layout), the _COINTEGRAL_NAMES ones."""
    return _w1p_residuals(e) + [_w1_norm(e)]


def _phi_layout(n: int, c: int) -> list:
    """The index map, an involution: vec(th)[t] = vec(phi)[perm[t]], t = (i*n + j)*c + k."""
    return [j * n * c + i * c + k for i in range(n) for j in range(n) for k in range(c)]


def _rows_at(m: Mat, perm) -> Mat:
    return Mat._of(m.field, len(perm), m.cols, map(m.nz.__getitem__, perm))


# -- separability deciders --------------------------------------------


def _substitution_check(tag: str, residuals) -> None:
    # Witnesses must re-verify against the defining identities; a failure
    # here is a solver bug, never a property of the input.
    for i, r in enumerate(residuals):
        if not r.is_zero():
            raise AssertionError("%s witness fails identity %d" % (tag, i))


def _decide_linear(e: Entwining, rows: int, cols: int, residuals, tag: str, wit_key: str,
                   log=("normalized family: linear system infeasible",
                        "normalized family found by linear solve"),
                   layout=None) -> Verdict:
    """Solve the residuals, affine in X (rows x cols), and check X by
    substitution.  layout = (perm, shape) solves for W of that shape, vec(X)
    the rows of vec(W) at perm, an involution: A is assembled with column t
    at perm[t], and X is read off W at perm."""
    F = e.field
    perm, shape = layout or (None, (rows, cols))
    a, b = affine_matrix_system(F, rows, cols, residuals, _columns=perm)
    data = {"unknowns": rows * cols, "rows": a.rows}
    sol = solve_affine(a, b)
    del a, b  # not needed for the substitution check; frees the largest matrix
    if sol is None:
        return Verdict("NONE", certificate="linear", data=data, log=log[:1])
    x = unvec(F, sol[0] if perm is None else _rows_at(sol[0], perm), rows, cols)
    _substitution_check(tag, [r(x) for r in residuals])
    data["parameters"] = sol[1].cols
    return Verdict("FOUND", witness={wit_key: unvec(F, sol[0], *shape)}, data=data,
                   log=log[1:])


def decide_sep_co_t(e: Entwining) -> Verdict:
    """Existence of a normalized sigma family, splitting the plain-to-
    entwined induction.  The contramodule side's identities are these
    transposed, with the same zero set, so this is decide_sep_contra_t too."""
    n, c = e.alg.dim, e.coalg.dim
    return _decide_linear(e, 1, c * n, _v1p_residual(e) + [_v1p_norm(e)], "sep-t", "e")


def decide_sep_co_f(e: Entwining) -> Verdict:
    """Existence of a normalized rho family, splitting the forgetful
    direction.  The contramodule side's memberships are these transposed
    (the action side negated), with the same zero set, and its
    normalization is this one, so this is decide_sep_contra_f too."""
    n, c = e.alg.dim, e.coalg.dim
    return _decide_linear(e, n * n, c, _sep_f_identities(e), "sep-f", "theta")


decide_sep_contra_t = decide_sep_co_t
decide_sep_contra_f = decide_sep_co_f


# -- Frobenius deciders -----------------------------------------------
#
# The joint system couples a sigma family and a rho family bilinearly,
# so completeness cannot come from one linear solve.  One ladder runs
# over the two sides, indexed 0 (sigma) and 1 (rho), in the coordinates
# of their membership spaces: every candidate is a coordinate vector, so
# membership holds by construction, and fixing either side makes the
# couplings linear in the other side's coordinates.  Its rungs: fix one
# side on a membership basis vector and solve the other side linearly,
# sigma basis first; fix rho on a seed (a sum of two basis vectors) and
# solve sigma from all couplings; fix sigma, then rho, on the all-ones
# point; over a prime field with a small enough membership space,
# enumerate the smaller side up to scaling, which alone can certify NONE.


def _frobenius_couplings_co(e: Entwining):
    """The couplings of (r, th) and, transposed, of (s, th), bilinear plus a constant:
      (I_n (x) r) (psi (x) I_n) (I_c (x) th) comult - unit counit,
      (r (x) I_n) (I_c (x) th) comult - unit counit,
      comult^T (I_c (x) th^T) (psi^T (x) I_n) (I_n (x) s) - counit^T unit^T,
      comult^T (I_c (x) th^T) (s (x) I_n) - counit^T unit^T."""
    n, c = e.alg.dim, e.coalg.dim
    const = -(e.alg.unit * e.coalg.counit)

    def coupling(a, b, middle):
        return TermList((Term(1, None, (Lift(a, b, middle),
                                        Lift(c, 1, e.coalg.comult, side=1))),), const)

    return [coupling(n, 1, kron(e.psi, Mat.identity(e.field, n))), coupling(1, n, None)]


_SIDES = ("sigma", "rho")


def _projective_points(p: int, d: int):
    """Zero, then the points of F_p^d whose first nonzero coordinate is 1,
    in lexicographic order: one point on each line through the origin."""
    yield (0,) * d
    for i in reversed(range(d)):
        for tail in product(range(p), repeat=d - 1 - i):
            yield (0,) * i + (1,) + tail


def _decide_frobenius(e: Entwining, budget_bits: int) -> Verdict:
    """The Frobenius ladder, in membership coordinates.

    Both membership bases P_0 and P_1 are computed first.  Each coupling
    is compiled once per call (`compile_bilinear`) in their coordinates
    into B of shape (d0*r) x d1, d0 and d1 the membership dimensions and r
    the coupling's rows, and gamma = vec(coupling(0, 0)).  A solve with
    side 0 fixed at coordinates x uses A = reshape(x^T . reshape(B, d0 x
    r*d1), r x d1); with side 1 fixed at y, A = reshape(B . y, d0 x r)^T;
    b = -gamma in both.  Coordinate i is the value at the i-th free column
    of the membership system, and a solve leaves free coordinates at
    zero, so its answer is that of the membership rows stacked with the
    coupling rows in the full unknowns.  A witness is mapped back, P_k . x,
    only when found; evaluated, the term lists re-verify it by
    substitution.

    budget_bits must lie in [0, 64]: no sweep of 2^64 candidates ends, and
    the budget is reported as the number 2^budget_bits.
    """
    if not 0 <= budget_bits <= 64:
        raise ValueError("budget_bits must be in [0, 64], got %r" % (budget_bits,))
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    shapes = ((1, c * n), (n * n, c))
    s_mem, t_mem, couplings = _v1p_residual(e), _w1p_residuals(e), _frobenius_couplings_co(e)
    spaces = [mat_solution_basis(F, *shapes[k], mem).basis
              for k, mem in enumerate((s_mem, t_mem))]
    compiled = [compile_bilinear(F, *shapes, cp, spaces) for cp in couplings]
    rhs = vstack([-cb.gamma for cb in compiled])
    solved = {}

    def extend(k, v):
        """(sigma, rho) coordinates with side k at v and the other side
        solved linearly from all couplings, or None.  Each distinct solve
        runs once."""
        if (k, v) not in solved:
            sol = solve_affine(vstack([cb.fix(k, v) for cb in compiled]), rhs)
            solved[k, v] = None if sol is None else (v, sol[0]) if k == 0 else (sol[0], v)
        return solved[k, v]

    dims = [sp.cols for sp in spaces]
    data = {"sigma_parameters": dims[0], "rho_parameters": dims[1],
            "budget_candidates": 1 << budget_bits}
    log = ["membership spaces: sigma %d, rho %d parameters" % tuple(dims)]

    def found(hit, how):
        s, th = (unvec(F, spaces[k] * x, *shapes[k]) for k, x in enumerate(hit))
        _substitution_check("frobenius", [r(s) for r in s_mem] + [r(th) for r in t_mem]
                            + [cp(s, th) for cp in couplings])
        log.append(how)
        return Verdict("FOUND", witness={"e": s, "theta": th},
                       log=tuple(log), data=data)

    # The sweep: of the smaller side, over a prime field, within the budget.
    k3 = 0 if dims[0] <= dims[1] else 1
    count = (F.p ** dims[k3] - 1) // (F.p - 1) + 1 if F.kind == "prime" else 0
    sweep = F.kind == "prime" and count <= (1 << budget_bits)

    # The candidates (side, coordinates, log line on a hit), rung by rung;
    # a rung that misses logs its line before the next begins.  A new rung
    # is one more block of candidates.
    def ladder():
        # With a zero-dimensional side the joint system is linear outright.
        if 0 in dims:
            k = dims.index(0)
            yield (k, Mat.zeros(F, 0, 1),
                   "%s side is zero; %s solved linearly" % (_SIDES[k], _SIDES[1 - k]))
            return
        # Strategy 1: pin one family to a membership basis vector.
        units = [[Mat.identity(F, d).col_mat(i) for i in range(d)] for d in dims]
        for k in (0, 1):
            for i, b in enumerate(units[k]):
                yield k, b, "strategy 1: %s basis vector %d extends" % (_SIDES[k], i)
        log.append("strategy 1: no membership basis vector extends")
        # Strategy 2: rho seeds, the pairwise sums of the first six rho basis
        # vectors (strategy 1 has tried each alone), each extended directly.
        # Sigma seeds, a partial solve from the first coupling alone and
        # further rounds of alternation found no witness that these miss.
        for a, b in combinations(units[1][:6], 2):
            yield 1, a + b, "strategy 2: alternation from a rho seed"
        log.append("strategy 2: alternation exhausted without a witness")
        # The all-ones point of sigma, then of rho: a point off every
        # coordinate hyperplane, so it extends when the feasible set of that
        # side is the torus of nonzero coordinates, as on regular
        # Doi-Koppinen entwinings.  A failure adds no log line; a candidate
        # the sweep meets again is not solved twice.
        for k in (0, 1):
            yield (k, Mat(F, dims[k], 1, (F.one,) * dims[k]),
                   "all-ones point: %s extends" % _SIDES[k])
        # Strategy 3: exhaustive sweep.  Since (s, th) is a witness exactly
        # when (y s, th / y) is one, for y != 0, it takes zero and then, in
        # lexicographic order, the points whose first nonzero coordinate is
        # 1: (p^d - 1)/(p - 1) + 1 candidates, with the first hit of a sweep
        # of all p^d points, since any hit scales to one with leading
        # coordinate 1 that comes no later.
        if sweep:
            for coeffs in _projective_points(F.p, dims[k3]):
                yield (k3, Mat(F, dims[k3], 1, tuple(map(F.of, coeffs))),
                       "strategy 3: enumeration hit %r" % (coeffs,))

    for k, v, how in ladder():
        hit = extend(k, v)
        if hit is not None:
            return found(hit, how)
    if 0 in dims:
        log.append("one membership space is zero; joint system linear and infeasible")
        return Verdict("NONE", certificate="linear", log=tuple(log), data=data)
    # Past a zero side, only the sweep can certify NONE: any witness pair
    # projects into the swept space, so an empty sweep rules every pair out.
    if sweep:
        log.append("strategy 3: all %d candidates fail" % count)
        return Verdict("NONE", certificate="exhaustive", log=tuple(log), data=data)
    log.append("strategy 3: %d candidates exceed budget %d" % (count, 1 << budget_bits)
               if F.kind == "prime" else "strategy 3: needs a prime field")
    return Verdict("UNKNOWN", log=tuple(log), data=data)


def decide_frobenius_co(e: Entwining, budget_bits: int = 12) -> Verdict:
    """Joint existence of coupled sigma and rho families making the
    induction/forgetful adjunction two-sided.  The contramodule side's
    identities are these transposed, with the same zero set, so this is
    decide_frobenius_contra too."""
    return _decide_frobenius(e, budget_bits)


decide_frobenius_contra = decide_frobenius_co


# -- cointegrals and Maschke averaging --------------------------------


_COINTEGRAL_NAMES = ("coaction-compatibility", "action-compatibility",
                     "normalization")


def find_cointegral(e: Entwining) -> Verdict:
    """Exact affine solve for a normalized cointegral.

    FOUND means the averaging of Cointegral is available, so the
    forgetful functors from entwined modules to C-comodules and from
    entwined contramodules to C-contramodules are separable.  For the
    regular Doi-Koppinen entwining of kG the verdict is FOUND in every
    characteristic; for a trivial entwining it is FOUND exactly when A
    has a separability idempotent (for kG: the characteristic does not
    divide |G|).  It solves sep-f's system (see Cointegral), its columns
    renamed by the index map _phi_layout.  A FOUND witness re-verifies by
    substitution, as th; if it failed an identity, that would be a solver bug.
    """
    n, c = e.alg.dim, e.coalg.dim
    return _decide_linear(e, n * n, c, _sep_f_identities(e), "cointegral", "phi",
                          log=("cointegral system infeasible",
                               "cointegral found by linear solve"),
                          layout=(_phi_layout(n, c), (n, n * c)))


def _require_morphism(conditions, x, y, f: Mat, kind: str, entwined: bool) -> None:
    """f: x -> y must commute with the coalgebra structure (ValueError
    otherwise); an averaged f must also commute with the action."""
    require_shape("morphism", f, y.dim, x.dim, x.ent.field)
    action, structure = conditions
    if not structure(f).is_zero():
        raise ValueError("not a morphism of %s" % kind)
    if entwined and not action(f).is_zero():
        raise AssertionError("averaged morphism fails the action square")


def maschke_split_contra(e: Entwining, phi: Cointegral, x: EntwinedContraModule,
                         y: EntwinedContraModule, xi: Mat) -> Mat:
    """Average a contramodule-level morphism x -> y into an entwined one.

    Entwined morphisms are fixed by the averaging, so sections and
    retractions that exist at the contramodule level transfer to the
    entwined category.  It is the comodule side's averaging transposed:
    xi^T: transpose(y) -> transpose(x) is averaged, and the result
    transposed back.
    """
    require_shape("morphism", xi, y.dim, x.dim, x.ent.field)
    return _average(e, phi, transpose(y), transpose(x), xi.t, "contramodules").t


def maschke_split_co(e: Entwining, phi: Cointegral, x: EntwinedModule,
                     y: EntwinedModule, xi: Mat) -> Mat:
    """Average a comodule-level morphism x -> y into an entwined one."""
    return _average(e, phi, x, y, xi, "comodules")


def _average(e: Entwining, phi: Cointegral, x: EntwinedModule, y: EntwinedModule,
             xi: Mat, kind: str) -> Mat:
    """The Maschke averaging of xi: x -> y, a morphism of the underlying
    objects, which kind names in the guards' messages."""
    if x.ent != e or y.ent != e or phi.ent != e:
        raise ValueError("objects and cointegral must share the entwining")
    conditions = morphism_conditions(x, y)
    _require_morphism(conditions, x, y, xi, kind, entwined=False)
    # (I_M (x) I_n (x) phi)(I_M (x) coev (x) I_c) = I_M (x) th, and maps
    # that share the identity leg I_n are multiplied before it is lifted.
    F = e.field
    out = (y.action * kron(xi * x.action, Mat.identity(F, e.alg.dim))
           * kron(Mat.identity(F, x.dim), phi.theta) * x.coaction)
    _require_morphism(conditions, x, y, out, kind, entwined=True)
    return out


# -- splitting probe --------------------------------------------------


def _dsum_contra(x: EntwinedContraModule, y: EntwinedContraModule) -> EntwinedContraModule:
    return transpose(_dsum_entwined(transpose(x), transpose(y)))


def _dsum_entwined(x: EntwinedModule, y: EntwinedModule) -> EntwinedModule:
    return EntwinedModule(x.ent, x.dim + y.dim,
                          block_diag(x.action, y.action),
                          block_diag(x.coaction, y.coaction))


def _perturbation(field: Field, rows: int, cols: int, conditions) -> Mat:
    """First basis vector of the solution space, or zero if it is trivial."""
    space = mat_solution_basis(field, rows, cols, conditions)
    if space.dim == 0:
        return Mat.zeros(field, rows, cols)
    return basis_columns(field, space.basis, rows, cols)[0]


def _splitting_perturbations(inc: Mat, proj: Mat):
    """The term lists w inc, in w: y -> x, and proj w, in w: x -> y, for
    the inclusion inc of x into y and its projection proj: a w in the
    kernel of the first, added to proj, keeps it a retraction of inc, and
    one in the kernel of the second, added to inc, keeps it a section of
    proj."""
    square = (inc.cols, inc.cols)
    return (TermList((Term(1, None, (Lift(1, 1, inc),)),), shape=square),
            TermList((Term(1, proj, (Lift(1, 1),)),), shape=square))


def _probe_side(rep: Report, prefix: str, split, x1, x2, y, conditions, kind) -> None:
    """The probe's five instances in one entwined category: x1 -> x1,
    the zero map x1 -> x2, a retraction and a section of the inclusion
    of x1 into y = x1 + x1, and the zero object.  split(x, y, f)
    averages f; conditions are the category's morphism conditions and
    kind its object type."""
    F = x1.ent.field
    dims = [x1.dim, x1.dim]
    inc, proj = block_inj(F, dims, 0), block_proj(F, dims, 0)

    ident = Mat.identity(F, x1.dim)
    rep.add(eq_check(prefix + "-identity-fixed", split(x1, x1, ident), ident))
    zmap = Mat.zeros(F, x2.dim, x1.dim)
    rep.add(eq_check(prefix + "-zero-map", split(x1, x2, zmap), zmap))

    after_inc, before_proj = _splitting_perturbations(inc, proj)
    retr = proj + _perturbation(F, x1.dim, y.dim, [conditions(y, x1)[1], after_inc])
    rt = split(y, x1, retr)
    rep.add(eq_check(prefix + "-retraction", rt * inc, ident))

    sect = inc + _perturbation(F, y.dim, x1.dim, [conditions(x1, y)[1], before_proj])
    st = split(x1, y, sect)
    rep.add(eq_check(prefix + "-section", proj * st, ident))

    znil = Mat.zeros(F, 0, 0)
    z = kind(x1.ent, 0, znil, znil)
    rep.add(eq_check(prefix + "-zero-object", split(z, z, znil), znil))


def semisimplicity_probe(e: Entwining, phi) -> Report:
    """Corpus-level check that the averaging transfers every splitting.

    For a fixed corpus of monos and epis in both entwined categories that
    split at the forgetful level, averages the forgetful-level splitting
    and verifies the result splits in the entwined category.  With no
    cointegral (phi None) the probe does not apply and says so.
    """
    rep = Report("maschke-probe")
    if phi is None:
        rep.data["applicable"] = False
        rep.data["reason"] = "no cointegral supplied"
        return rep
    rep.data["applicable"] = True

    # Contramodule side.
    x1 = induce_contra_t(e, free_contramodule(e.coalg, 1))
    _probe_side(rep, "contra",
                lambda x, y, f: maschke_split_contra(e, phi, x, y, f),
                x1, induce_a_t(e, dual_left_module(e.alg)), _dsum_contra(x1, x1),
                contra_morphism_conditions, EntwinedContraModule)

    # Comodule side.
    u1 = induce_tc(e, regular_comodule(e.coalg))
    _probe_side(rep, "co",
                lambda x, y, f: maschke_split_co(e, phi, x, y, f),
                u1, induce_mc(e, regular_right_module(e.alg)), _dsum_entwined(u1, u1),
                morphism_conditions, EntwinedModule)

    rep.data["instances"] = len(rep.checks)
    return rep
