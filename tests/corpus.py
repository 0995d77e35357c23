"""Shared instance builders for the test suite.

Small, fully deterministic generators of comodules, modules and entwined
objects used across the adjunction, measuring and criteria tests.
"""

from __future__ import annotations

from fractions import Fraction

from entwine.exactlin import Field, Mat, SubspaceBasis, kron, block_diag, mat_solution_basis
from entwine.algstruct import (
    Algebra, Coalgebra, Comodule, ModuleRight, ModuleLeft, group_algebra,
    group_like_coalgebra, matrix_algebra, right_action_square,
    trunc_poly_algebra, upper_triangular_algebra,
)
from entwine.entwining import (
    regular_doi_koppinen, trivial_entwining, trivial_entwining_coalg,
)
from entwine.comodcat import EntwinedModule
from entwine.measuring import GaloisData
from entwine.cli import Workspace, serialize_workspace
from entwine.contracat import (
    ContraModule, EntwinedContraModule, curry_left, uncurry_left,
)


def entwinings(field: Field) -> dict:
    """Small standard entwinings over field, by name: the regular
    Doi-Koppinen entwinings of kZ2 and kZ3, the trivial entwinings of M2,
    of the 2x2 upper triangular matrices and of k[x]/x^2, and the trivial
    entwining of the group-like coalgebra on two points."""
    return {
        "dk2": regular_doi_koppinen(group_algebra(2, field)),
        "dk3": regular_doi_koppinen(group_algebra(3, field)),
        "m2": trivial_entwining(matrix_algebra(2, field)),
        "ut": trivial_entwining(upper_triangular_algebra(field)),
        "tp2": trivial_entwining(trunc_poly_algebra(2, field)),
        "gl2": trivial_entwining_coalg(group_like_coalgebra(field, 2)),
    }


# Scalars of height up to 2^70 with coprime denominators: over Q they reach
# the integer kernels' sums of equal and of unequal denominators.
TALL = (2**70 + 1, Fraction(-(2**61 - 1), 6), Fraction(5, 7), Fraction(1, 3),
        Fraction(-2, 3), -2, 3)


def _tall_basis(field: Field, n: int, shift: int):
    """An invertible upper bidiagonal n x n change of basis, its diagonal
    and superdiagonal entries drawn in turn from TALL."""
    def entry(i, j):
        return TALL[(i + j + shift) % len(TALL)] if j in (i, i + 1) else 0
    return Mat.from_rows(field, [[entry(i, j) for j in range(n)] for i in range(n)])


def tall_entwinings() -> dict:
    """The entwinings of `entwinings` over Q moved to the bases given by
    the columns of P_A and P_C, upper bidiagonal with TALL entries: every
    structure map is conjugated by them, so each entwining is isomorphic
    to the original, and a structure constant is a sum of products of
    scalars with unequal denominators."""
    from entwine.exactlin import inverse
    out = {}
    for name, e in entwinings(Field.rational()).items():
        F, n, c = e.field, e.alg.dim, e.coalg.dim
        pa, pc = _tall_basis(F, n, 0), _tall_basis(F, c, 1)
        ia, ic = inverse(pa), inverse(pc)
        alg = Algebra(F, n, ia * e.alg.mult * kron(pa, pa), ia * e.alg.unit)
        coalg = Coalgebra(F, c, kron(ic, ic) * e.coalg.comult * pc, e.coalg.counit * pc)
        out[name] = type(e)(alg, coalg, kron(ia, ic) * e.psi * kron(pc, pa))
    return out


def graded_comodule(c: Coalgebra, grades) -> Comodule:
    """Comodule over a group-like coalgebra from a grade assignment."""
    m = len(grades)
    cd = c.dim
    z, o = c.field.zero, c.field.one
    coact = [[z] * m for _ in range(m * cd)]
    for i, g in enumerate(grades):
        coact[i * cd + g][i] = o
    return Comodule(c, m, Mat.from_rows(c.field, coact))


def involution_module(a: Algebra, s: Mat) -> ModuleRight:
    """Right module over a 2-element group algebra: g acts by s, s*s = id."""
    assert a.dim == 2
    F = a.field
    m = s.rows
    act = [[F.zero] * (m * 2) for _ in range(m)]
    for i in range(m):
        for r in range(m):
            act[r][i * 2 + 0] = F.one if r == i else F.zero
            act[r][i * 2 + 1] = s[r, i]
    return ModuleRight(a, m, Mat.from_rows(F, act))


def involution_module_left(a: Algebra, s: Mat) -> ModuleLeft:
    assert a.dim == 2
    F = a.field
    m = s.rows
    act = [[F.zero] * (2 * m) for _ in range(m)]
    for i in range(m):
        for r in range(m):
            act[r][0 * m + i] = F.one if r == i else F.zero
            act[r][1 * m + i] = s[r, i]
    return ModuleLeft(a, m, Mat.from_rows(F, act))


def random_involution(rng, field: Field, m: int) -> Mat:
    """Signed permutation involution, deterministic under the given rng."""
    perm = list(range(m))
    idx = list(range(m))
    rng.shuffle(idx)
    while len(idx) >= 2 and rng.random() < 0.6:
        i = idx.pop()
        j = idx.pop()
        perm[i], perm[j] = j, i
    sign = {}
    for i in range(m):
        if perm[i] == i:
            sign[i] = field.of(rng.choice([1, -1]))
        elif i < perm[i]:
            s = field.of(rng.choice([1, -1]))
            sign[i] = s
            sign[perm[i]] = field.inv(s)
    z = field.zero
    rows = [[z] * m for _ in range(m)]
    for i in range(m):
        rows[perm[i]][i] = sign[i]
    return Mat.from_rows(field, rows)


def direct_sum_entwined(x: EntwinedModule, y: EntwinedModule) -> EntwinedModule:
    assert x.ent == y.ent
    return EntwinedModule(x.ent, x.dim + y.dim,
                          block_diag(x.action, y.action),
                          block_diag(x.coaction, y.coaction))


def direct_sum_contra(x: EntwinedContraModule, y: EntwinedContraModule) -> EntwinedContraModule:
    assert x.ent == y.ent
    # The uncurried action A (x) M -> M is a-major in its columns, so the
    # summand blocks only line up after currying to M -> M (x) A*.
    n = x.ent.alg.dim
    mu = block_diag(curry_left(x.action, x.dim, n),
                    curry_left(y.action, y.dim, n))
    return EntwinedContraModule(x.ent, x.dim + y.dim,
                                block_diag(x.pi, y.pi),
                                uncurry_left(mu, x.dim + y.dim, n))


def idempotent_pair_contramodule(c: Coalgebra, p0: Mat) -> ContraModule:
    """Contramodule over a 2-element group-like coalgebra.

    pi is determined by a projection-like pair (p0, id - p0) evaluated on
    the two dual basis slots; contra-associativity needs p0 idempotent.
    """
    assert c.dim == 2
    F = c.field
    m = p0.rows
    i_m = Mat.identity(F, m)
    p1 = i_m - p0
    z = F.zero
    pi = [[z] * (m * 2) for _ in range(m)]
    for i in range(m):
        for r in range(m):
            pi[r][i * 2 + 0] = p0[r, i]
            pi[r][i * 2 + 1] = p1[r, i]
    return ContraModule(c, m, Mat.from_rows(F, pi))


def plain_contra_hom(x: ContraModule, y: ContraModule) -> SubspaceBasis:
    """Maps f: x -> y of contramodules, f x.pi = y.pi (f (x) I_c).  The
    package reaches this space only transposed, as comodule_hom."""
    return mat_solution_basis(x.coalg.field, y.dim, x.dim,
                              [right_action_square(x.pi, y.pi, x.coalg.dim)])


def random_projection(rng, field: Field, m: int) -> Mat:
    """Deterministic random idempotent: conjugated coordinate projection."""
    from entwine.exactlin import inverse
    k = rng.randint(0, m)
    z, o = field.zero, field.one
    d = Mat(field, m, m,
            tuple(o if (i == j and i < k) else z for i in range(m) for j in range(m)))
    while True:
        g = Mat(field, m, m,
                tuple(field.of(rng.randint(-2, 2)) for _ in range(m * m)))
        try:
            ginv = inverse(g)
        except ValueError:
            continue
        return g * d * ginv


def tensor_entwined(mdim: int, x: EntwinedModule) -> EntwinedModule:
    """M (x) X for a plain space M: structure maps tensored by identity."""
    i_m = Mat.identity(x.ent.field, mdim)
    return EntwinedModule(x.ent, mdim * x.dim,
                          kron(i_m, x.action), kron(i_m, x.coaction))


def tensor_contra(mdim: int, x: EntwinedContraModule) -> EntwinedContraModule:
    """M (x) X for entwined contramodules; the action tensors in curried form."""
    n = x.ent.alg.dim
    i_m = Mat.identity(x.ent.field, mdim)
    mu = kron(i_m, curry_left(x.action, x.dim, n))
    return EntwinedContraModule(x.ent, mdim * x.dim,
                                kron(i_m, x.pi),
                                uncurry_left(mu, mdim * x.dim, n))


# -- graded algebras as group-algebra comodule algebras ----------------


def cyclic_group(m: int) -> tuple:
    """The Cayley table of Z_m on the elements 0..m-1."""
    return tuple(tuple((g + h) % m for h in range(m)) for g in range(m))


# Z_2 x Z_2 on the elements 0..3, read as pairs of bits.
KLEIN = tuple(tuple(g ^ h for h in range(4)) for g in range(4))


def quaternion_algebra(field: Field) -> Algebra:
    """The quaternions (-1, -1) on the basis 1, i, j, k (indices 0..3):
    i^2 = j^2 = k^2 = -1 and ij = k = -ji, jk = i = -kj, ki = j = -ik.
    The product of basis vectors a and b is +-(a xor b)."""
    def sign(a, b):
        if a == 0 or b == 0:
            return 1
        return -1 if a == b or (b - a) % 3 == 2 else 1
    mult = [[field.zero] * 16 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            mult[a ^ b][a * 4 + b] = field.of(sign(a, b))
    return Algebra(field, 4, Mat.from_rows(field, mult),
                   Mat.from_rows(field, [[1], [0], [0], [0]]))


def graded_galois(alg: Algebra, grades, group) -> GaloisData:
    """alg graded by the group with Cayley table `group`, basis vector i
    in degree grades[i], as a kG-comodule algebra: a |-> a (x) g_deg(a)
    over the group-like coalgebra on the elements of the group."""
    c = group_like_coalgebra(alg.field, len(group))
    return GaloisData(alg, c, graded_comodule(c, grades).coaction)


def write_galois_workspace(g: GaloisData, path) -> None:
    """A workspace file holding g as the Galois datum "G", over its
    algebra "A" and coalgebra "C"."""
    ws = Workspace(g.field, {}, {}, {}, {}, {}, {}, {}, {})
    ws.algebras["A"], ws.coalgebras["C"], ws.galois["G"] = g.alg, g.coalg, g
    path.write_text(serialize_workspace(ws))


def graded_algebras(field: Field) -> dict:
    """Graded algebras by name: (algebra, degree of each basis vector,
    Cayley table of the group).  M2 by Z_2 with the diagonal even, kZ_4 by
    Z_2 and the quaternions by Z_2 x Z_2 are strongly graded, A_g A_h =
    A_gh for all g and h; M2 by Z_3 (e12 in degree 1, e21 in degree 2),
    k[x]/x^2 by Z_2 and k[x]/x^3 by Z_3 are not."""
    z2, z3 = cyclic_group(2), cyclic_group(3)
    return {
        "m2-z2": (matrix_algebra(2, field), (0, 1, 1, 0), z2),
        "kz4-z2": (group_algebra(4, field).alg, (0, 1, 0, 1), z2),
        "quaternions-klein": (quaternion_algebra(field), (0, 1, 2, 3), KLEIN),
        "m2-z3": (matrix_algebra(2, field), (0, 1, 2, 0), z3),
        "tp2-z2": (trunc_poly_algebra(2, field), (0, 1), z2),
        "tp3-z3": (trunc_poly_algebra(3, field), (0, 1, 2), z3),
    }
