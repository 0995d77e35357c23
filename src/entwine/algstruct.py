"""Finite-dimensional algebras, coalgebras and their plain (co)modules.

Everything is structure-constant data in a fixed basis.  Multiplication
is a matrix A(x)A -> A (n x n^2), comultiplication C -> C(x)C (c^2 x c),
with tensor legs flattened first-factor-major as in exactlin.  Checkers
return a Report whose failed checks carry an entry witness.
"""

from __future__ import annotations

from .exactlin import (
    Field, Mat, Record, kron, flip, mat_solution_basis, reshape, SubspaceBasis, Lift, Term,
    TermList,
)
from .report import Report, eq_check


class Algebra(Record):
    field: Field
    dim: int
    mult: Mat
    unit: Mat

    def __post_init__(self):
        n = self.dim
        if (self.mult.rows, self.mult.cols) != (n, n * n):
            raise ValueError("mult must be %d x %d" % (n, n * n))
        if (self.unit.rows, self.unit.cols) != (n, 1):
            raise ValueError("unit must be a length-%d column" % n)
        if self.mult.field != self.field or self.unit.field != self.field:
            raise ValueError("field mismatch")


class Coalgebra(Record):
    field: Field
    dim: int
    comult: Mat
    counit: Mat

    def __post_init__(self):
        c = self.dim
        if (self.comult.rows, self.comult.cols) != (c * c, c):
            raise ValueError("comult must be %d x %d" % (c * c, c))
        if (self.counit.rows, self.counit.cols) != (1, c):
            raise ValueError("counit must be a length-%d row" % c)
        if self.comult.field != self.field or self.counit.field != self.field:
            raise ValueError("field mismatch")


class Bialgebra(Record):
    """Algebra and coalgebra on one carrier, compatibly."""

    alg: Algebra
    coalg: Coalgebra

    def __post_init__(self):
        if self.alg.dim != self.coalg.dim or self.alg.field != self.coalg.field:
            raise ValueError("algebra and coalgebra must share the carrier")

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def field(self) -> Field:
        return self.alg.field


class ModuleRight(Record):
    """Right module: action M(x)A -> M, an m x (m*n) matrix."""

    alg: Algebra
    dim: int
    action: Mat

    def __post_init__(self):
        m, n = self.dim, self.alg.dim
        if (self.action.rows, self.action.cols) != (m, m * n):
            raise ValueError("action must be %d x %d" % (m, m * n))
        if self.action.field != self.alg.field:
            raise ValueError("field mismatch")


class ModuleLeft(Record):
    """Left module: action A(x)M -> M, an m x (n*m) matrix."""

    alg: Algebra
    dim: int
    action: Mat

    def __post_init__(self):
        m, n = self.dim, self.alg.dim
        if (self.action.rows, self.action.cols) != (m, n * m):
            raise ValueError("action must be %d x %d" % (m, n * m))
        if self.action.field != self.alg.field:
            raise ValueError("field mismatch")


class Comodule(Record):
    """Right comodule: coaction M -> M(x)C, an (m*c) x m matrix."""

    coalg: Coalgebra
    dim: int
    coaction: Mat

    def __post_init__(self):
        m, c = self.dim, self.coalg.dim
        if (self.coaction.rows, self.coaction.cols) != (m * c, m):
            raise ValueError("coaction must be %d x %d" % (m * c, m))
        if self.coaction.field != self.coalg.field:
            raise ValueError("field mismatch")


# -- axiom checkers ---------------------------------------------------


def check_algebra(a: Algebra) -> Report:
    rep = Report("algebra")
    n = a.dim
    i_n = Mat.identity(a.field, n)
    rep.add(eq_check("associativity",
                     a.mult * kron(a.mult, i_n),
                     a.mult * kron(i_n, a.mult)))
    rep.add(eq_check("left-unit", a.mult * kron(a.unit, i_n), i_n))
    rep.add(eq_check("right-unit", a.mult * kron(i_n, a.unit), i_n))
    return rep


def check_coalgebra(c: Coalgebra) -> Report:
    rep = Report("coalgebra")
    i_c = Mat.identity(c.field, c.dim)
    rep.add(eq_check("coassociativity",
                     kron(c.comult, i_c) * c.comult,
                     kron(i_c, c.comult) * c.comult))
    rep.add(eq_check("left-counit", kron(c.counit, i_c) * c.comult, i_c))
    rep.add(eq_check("right-counit", kron(i_c, c.counit) * c.comult, i_c))
    return rep


def check_bialgebra(b: Bialgebra) -> Report:
    rep = Report("bialgebra")
    for ch in check_algebra(b.alg).checks:
        rep.add(ch)
    for ch in check_coalgebra(b.coalg).checks:
        rep.add(ch)
    n = b.dim
    F = b.field
    i_n = Mat.identity(F, n)
    mult, unit = b.alg.mult, b.alg.unit
    comult, counit = b.coalg.comult, b.coalg.counit
    # comult is multiplicative: mix the middle factors and multiply pairwise
    rep.add(eq_check("comult-multiplicative",
                     comult * mult,
                     kron(mult, mult) * kron(i_n, kron(flip(F, n, n), i_n))
                     * kron(comult, comult)))
    rep.add(eq_check("counit-multiplicative", counit * mult, kron(counit, counit)))
    rep.add(eq_check("comult-unital", comult * unit, kron(unit, unit)))
    rep.add(eq_check("counit-unital", counit * unit, Mat.identity(F, 1)))
    return rep


def check_module_right(x: ModuleRight) -> Report:
    rep = Report("right-module")
    m, n = x.dim, x.alg.dim
    i_m = Mat.identity(x.alg.field, m)
    i_n = Mat.identity(x.alg.field, n)
    rep.add(eq_check("action-associativity",
                     x.action * kron(x.action, i_n),
                     x.action * kron(i_m, x.alg.mult)))
    rep.add(eq_check("action-unit", x.action * kron(i_m, x.alg.unit), i_m))
    return rep


def check_module_left(x: ModuleLeft) -> Report:
    rep = Report("left-module")
    m, n = x.dim, x.alg.dim
    i_m = Mat.identity(x.alg.field, m)
    i_n = Mat.identity(x.alg.field, n)
    rep.add(eq_check("action-associativity",
                     x.action * kron(x.alg.mult, i_m),
                     x.action * kron(i_n, x.action)))
    rep.add(eq_check("action-unit", x.action * kron(x.alg.unit, i_m), i_m))
    return rep


def check_comodule(x: Comodule) -> Report:
    rep = Report("comodule")
    m = x.dim
    F = x.coalg.field
    i_m = Mat.identity(F, m)
    i_c = Mat.identity(F, x.coalg.dim)
    rep.add(eq_check("coaction-coassociativity",
                     kron(x.coaction, i_c) * x.coaction,
                     kron(i_m, x.coalg.comult) * x.coaction))
    rep.add(eq_check("coaction-counit",
                     kron(i_m, x.coalg.counit) * x.coaction, i_m))
    return rep


# -- hom spaces of plain structures -----------------------------------
#
# Each square below is the condition, linear in a map f: x -> y, that f
# commutes with one structure map (s_x on x, s_y on y), stated as a term
# list; it vanishes exactly when the square commutes.


def right_action_square(s_x: Mat, s_y: Mat, d: int) -> TermList:
    """f s_x - s_y (f (x) I_d), for structure maps M (x) V -> M with
    dim V = d: a right action, or the pi of a contramodule."""
    return TermList((Term(1, None, (Lift(1, 1, s_x),)), Term(-1, s_y, (Lift(1, d),))))


def left_action_square(s_x: Mat, s_y: Mat, d: int) -> TermList:
    """f s_x - s_y (I_d (x) f), for left actions V (x) M -> M, dim V = d."""
    return TermList((Term(1, None, (Lift(1, 1, s_x),)), Term(-1, s_y, (Lift(d, 1),))))


def coaction_square(s_x: Mat, s_y: Mat, d: int) -> TermList:
    """(f (x) I_d) s_x - s_y f, for coactions M -> M (x) V, dim V = d."""
    return TermList((Term(1, None, (Lift(1, d, s_x),)), Term(-1, s_y, (Lift(1, 1),))))


def module_hom_right(x: ModuleRight, y: ModuleRight) -> SubspaceBasis:
    """Maps f with f x.action = y.action (f (x) I_n)."""
    if x.alg != y.alg:
        raise ValueError("modules over different algebras")
    return mat_solution_basis(x.alg.field, y.dim, x.dim,
                              [right_action_square(x.action, y.action, x.alg.dim)])


def module_hom_left(x: ModuleLeft, y: ModuleLeft) -> SubspaceBasis:
    """Maps f with f x.action = y.action (I_n (x) f)."""
    if x.alg != y.alg:
        raise ValueError("modules over different algebras")
    return mat_solution_basis(x.alg.field, y.dim, x.dim,
                              [left_action_square(x.action, y.action, x.alg.dim)])


def comodule_hom(x: Comodule, y: Comodule) -> SubspaceBasis:
    """Maps f with (f (x) I_c) x.coaction = y.coaction f."""
    if x.coalg != y.coalg:
        raise ValueError("comodules over different coalgebras")
    return mat_solution_basis(x.coalg.field, y.dim, x.dim,
                              [coaction_square(x.coaction, y.coaction, x.coalg.dim)])


# -- builders ---------------------------------------------------------


def field_algebra(f: Field) -> Algebra:
    one = Mat.identity(f, 1)
    return Algebra(f, 1, one, one)


def field_coalgebra(f: Field) -> Coalgebra:
    one = Mat.identity(f, 1)
    return Coalgebra(f, 1, one, one)


def group_like_coalgebra(f: Field, n: int) -> Coalgebra:
    """Basis of group-likes: each basis vector g has Dg = g(x)g, eps(g)=1."""
    z, o = f.zero, f.one
    comult = [[z] * n for _ in range(n * n)]
    for i in range(n):
        comult[i * n + i][i] = o
    return Coalgebra(f, n,
                     Mat.from_rows(f, comult),
                     Mat(f, 1, n, (o,) * n))


def group_algebra(n: int, f: Field) -> Bialgebra:
    """Cyclic group algebra k[Z_n] with its group-like coalgebra."""
    if n < 1:
        raise ValueError("group order must be positive")
    z, o = f.zero, f.one
    mult = [[z] * (n * n) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mult[(i + j) % n][i * n + j] = o
    unit = [[o] if i == 0 else [z] for i in range(n)]
    alg = Algebra(f, n, Mat.from_rows(f, mult), Mat.from_rows(f, unit))
    return Bialgebra(alg, group_like_coalgebra(f, n))


def matrix_algebra(n: int, f: Field) -> Algebra:
    """Full matrix algebra on matrix units e_ij, basis index i*n + j."""
    if n < 1:
        raise ValueError("size must be positive")
    d = n * n
    z, o = f.zero, f.one
    mult = [[z] * (d * d) for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                # e_ij e_jl = e_il
                mult[i * n + l][(i * n + j) * d + (j * n + l)] = o
    unit = [[o] if i % (n + 1) == 0 else [z] for i in range(d)]  # sum of e_ii
    return Algebra(f, d, Mat.from_rows(f, mult), Mat.from_rows(f, unit))


def trunc_poly_algebra(m: int, f: Field) -> Algebra:
    """k[x]/(x^m), basis 1, x, ..., x^{m-1}."""
    if m < 1:
        raise ValueError("truncation order must be positive")
    z, o = f.zero, f.one
    mult = [[z] * (m * m) for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i + j < m:
                mult[i + j][i * m + j] = o
    unit = [[o] if i == 0 else [z] for i in range(m)]
    return Algebra(f, m, Mat.from_rows(f, mult), Mat.from_rows(f, unit))


def upper_triangular_algebra(f: Field) -> Algebra:
    """2x2 upper triangular matrices, basis (e11, e12, e22)."""
    z, o = f.zero, f.one
    mult = [[z] * 9 for _ in range(3)]
    table = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}
    for (i, j), k in table.items():
        mult[k][i * 3 + j] = o
    unit = [[o], [z], [o]]  # e11 + e22
    return Algebra(f, 3, Mat.from_rows(f, mult), Mat.from_rows(f, unit))


def dual_algebra(c: Coalgebra) -> Algebra:
    """Convolution algebra on C*: (fg)(x) = (f(x)g)(Dx), unit = counit."""
    return Algebra(c.field, c.dim, c.comult.t, c.counit.t)


def dual_coalgebra(a: Algebra) -> Coalgebra:
    """Dual coalgebra of a finite-dimensional algebra: D = mult^T."""
    return Coalgebra(a.field, a.dim, a.mult.t, a.unit.t)


def regular_right_module(a: Algebra) -> ModuleRight:
    return ModuleRight(a, a.dim, a.mult)


def regular_left_module(a: Algebra) -> ModuleLeft:
    return ModuleLeft(a, a.dim, a.mult)


def dual_left_module(a: Algebra) -> ModuleLeft:
    """A* as a left A-module, (a.f)(x) = f(xa), in the dual basis: the
    transpose of the regular right module, whose action is mult."""
    return ModuleLeft(a, a.dim, reshape(a.mult.t, a.dim, a.dim * a.dim))


def regular_comodule(c: Coalgebra) -> Comodule:
    return Comodule(c, c.dim, c.comult)


def zero_module_right(a: Algebra) -> ModuleRight:
    return ModuleRight(a, 0, Mat.zeros(a.field, 0, 0))


def zero_comodule(c: Coalgebra) -> Comodule:
    return Comodule(c, 0, Mat.zeros(c.field, 0, 0))
