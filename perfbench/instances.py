"""Seeded benchmark instances and the workspace files the CLI reads.

Every structure starts from a package builder in its standard basis and is
then moved to a seeded monomial basis: a permutation of the basis vectors
and a nonzero scalar on each.  The change of basis preserves every axiom,
every verdict status and every dimension, so one table of expected results
holds for all seeds, while the matrices the program receives differ from
seed to seed.  Set-up re-checks the axioms of everything it generates
before writing it out.
"""

from __future__ import annotations

import random
from fractions import Fraction

from entwine import cli
from entwine.exactlin import Field, Mat, inverse, kron
from entwine.algstruct import (
    Algebra, Coalgebra, Comodule, check_algebra, check_coalgebra,
    check_comodule, dual_left_module, group_algebra, matrix_algebra,
    regular_right_module, trunc_poly_algebra, upper_triangular_algebra,
)
from entwine.entwining import (
    Entwining, check_entwining, regular_doi_koppinen, trivial_entwining,
)
from entwine.comodcat import check_entwined_module, induce_mc, induce_tc
from entwine.contracat import (
    ContraModule, check_contramodule, check_entwined_contramodule,
    induce_a_t, induce_contra_t,
)
from entwine.measuring import GaloisData, check_measuring, identity_measuring

# Scalars of the rational basis change, of small height so that a seed
# changes the matrices more than the size of their entries; over F_p any
# nonzero residue is used.
RATIONAL_SCALARS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))


def field_of(spec: str) -> Field:
    return Field.rational() if spec == "Q" else Field.prime(int(spec[1:]))


def monomial(field: Field, n: int, rng: random.Random):
    """(T, T^-1) for the basis change sending e_j to scalar_j * e_perm(j)."""
    perm = list(range(n))
    rng.shuffle(perm)
    if field.kind == "rational":
        scalars = [rng.choice(RATIONAL_SCALARS) for _ in range(n)]
    else:
        scalars = [rng.randrange(1, field.p) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j]][j] = scalars[j]
    t = Mat.from_rows(field, rows)
    return t, inverse(t)


class BasisChange:
    """Monomial bases for one algebra (T) and one coalgebra (S)."""

    def __init__(self, field: Field, n: int, c: int, rng: random.Random):
        self.t, self.ti = monomial(field, n, rng)
        self.s, self.si = monomial(field, c, rng)

    def algebra(self, a: Algebra) -> Algebra:
        return Algebra(a.field, a.dim, self.ti * a.mult * kron(self.t, self.t),
                       self.ti * a.unit)

    def coalgebra(self, c: Coalgebra) -> Coalgebra:
        return Coalgebra(c.field, c.dim,
                         kron(self.si, self.si) * c.comult * self.s,
                         c.counit * self.s)

    def entwining(self, e: Entwining) -> Entwining:
        return Entwining(self.algebra(e.alg), self.coalgebra(e.coalg),
                         kron(self.ti, self.si) * e.psi * kron(self.s, self.t))

    def comodule(self, coalg: Coalgebra, x: Comodule) -> Comodule:
        i_m = Mat.identity(coalg.field, x.dim)
        return Comodule(coalg, x.dim, kron(i_m, self.si) * x.coaction)

    def contramodule(self, coalg: Coalgebra, x: ContraModule) -> ContraModule:
        # Hom(C, M) coordinates change by the transpose of S.
        i_m = Mat.identity(coalg.field, x.dim)
        return ContraModule(coalg, x.dim, x.pi * kron(i_m, self.si.t))

    def galois(self, alg: Algebra, coalg: Coalgebra, coaction: Mat) -> GaloisData:
        return GaloisData(alg, coalg, kron(self.ti, self.si) * coaction * self.t)


# -- standard-basis builders ------------------------------------------

ENTWININGS = {
    "dk": lambda n, f: regular_doi_koppinen(group_algebra(n, f)),
    "trivial-group": lambda n, f: trivial_entwining(group_algebra(n, f).alg),
    "trivial-trunc": lambda n, f: trivial_entwining(trunc_poly_algebra(n, f)),
    "trivial-matrix": lambda n, f: trivial_entwining(matrix_algebra(n, f)),
    "trivial-triangular": lambda n, f: trivial_entwining(upper_triangular_algebra(f)),
}


def graded_comodule(c: Coalgebra, grades) -> Comodule:
    """Comodule over a group-like coalgebra; basis vector i has grade grades[i]."""
    m, cd = len(grades), c.dim
    z, o = c.field.zero, c.field.one
    rows = [[z] * m for _ in range(m * cd)]
    for i, g in enumerate(grades):
        rows[i * cd + g][i] = o
    return Comodule(c, m, Mat.from_rows(c.field, rows))


def graded_contramodule(c: Coalgebra, grades) -> ContraModule:
    """Contramodule over a group-like coalgebra: pi evaluates at the grade."""
    m, cd = len(grades), c.dim
    z, o = c.field.zero, c.field.one
    rows = [[z] * (m * cd) for _ in range(m)]
    for i, g in enumerate(grades):
        rows[i][i * cd + g] = o
    return ContraModule(c, m, Mat.from_rows(c.field, rows))


# -- workspaces -------------------------------------------------------

def _require(report, what: str) -> None:
    if not report.passed:
        bad = [ch.name for ch in report.checks if not ch.passed]
        raise ValueError("generated %s fails %s" % (what, ", ".join(bad)))


def _seeded(e0: Entwining, rng: random.Random, name: str):
    """e0 in a seeded basis, with its axioms re-checked; and the basis change."""
    bc = BasisChange(e0.field, e0.alg.dim, e0.coalg.dim, rng)
    e = bc.entwining(e0)
    _require(check_algebra(e.alg), name + " algebra")
    _require(check_coalgebra(e.coalg), name + " coalgebra")
    _require(check_entwining(e), name + " entwining")
    return e, bc


def build_workspace(field: Field, specs, rng: random.Random) -> cli.Workspace:
    """Entwinings named by spec key, each moved to its own seeded basis; a
    spec of kind "functors" also brings the objects of `add_functor_objects`."""
    ws = cli.Workspace(field, {}, {}, {}, {}, {}, {}, {}, {})
    for name, (kind, n) in specs.items():
        if kind == "functors":
            h = group_algebra(n, field)
            e, bc = _seeded(regular_doi_koppinen(h), rng, name)
            add_functor_objects(ws, h, e, bc, rng)
        else:
            e, _ = _seeded(ENTWININGS[kind](n, field), rng, name)
        ws.algebras["A" + name] = e.alg
        ws.coalgebras["C" + name] = e.coalg
        ws.entwinings[name] = e
    return ws


# Dimension of the graded comodule and contramodule the induced objects
# X and U start from.
MODULE_GRADES = 2


def add_functor_objects(ws: cli.Workspace, h, e: Entwining, bc: BasisChange,
                        rng: random.Random) -> None:
    """For e, the regular Doi-Koppinen entwining of the group algebra h in the
    basis bc: induced entwined modules X, Y and contramodules U, V, the
    comodule N, the identity measuring I and the Galois datum G of h.

    The seed picks the grade of every basis vector of the comodule and
    contramodule that X and U are induced from, so it also fixes how their
    dimension splits over the grades.
    """
    def grades():
        return [rng.randrange(h.dim) for _ in range(MODULE_GRADES)]

    n_co = bc.comodule(e.coalg, graded_comodule(h.coalg, grades()))
    n_contra = bc.contramodule(e.coalg, graded_contramodule(h.coalg, grades()))
    _require(check_comodule(n_co), "graded comodule")
    _require(check_contramodule(n_contra), "graded contramodule")
    ws.modules.update(X=induce_tc(e, n_co), Y=induce_mc(e, regular_right_module(e.alg)))
    ws.contramodules.update(U=induce_contra_t(e, n_contra),
                            V=induce_a_t(e, dual_left_module(e.alg)))
    for name, x in ws.modules.items():
        _require(check_entwined_module(x), "module " + name)
    for name, x in ws.contramodules.items():
        _require(check_entwined_contramodule(x), "contramodule " + name)
    ws.comodules["N"] = n_co
    ws.measurings["I"] = identity_measuring(e)
    _require(check_measuring(ws.measurings["I"]), "identity measuring")
    ws.galois["G"] = bc.galois(e.alg, e.coalg, h.coalg.comult)


def write_workspace(ws: cli.Workspace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cli.serialize_workspace(ws))
