"""Each rung of the Frobenius ladder.

The ladder reads only the shapes of the structure maps, so seeded
structure constants that satisfy no axiom, small edits of a tensor flip
entwining and a moved unit of M2 drive it onto the rungs that the
structural corpus does not reach; the corpus itself pins the pairwise-sum
rho seed, and the tensor flips of kZ2 with three group-likes and the
trivial entwining of M3 reach the sweep past every earlier rung.  Every
FOUND witness is substituted into the component equations of
`components`, of both variances: the contra decider is the co decider,
so one verdict serves both sides.
"""

import random

import pytest

from entwine.exactlin import Field, Mat, flip
from entwine.algstruct import (
    Algebra, Coalgebra, group_algebra, group_like_coalgebra, matrix_algebra,
    trunc_poly_algebra,
)
from entwine.entwining import Entwining, regular_doi_koppinen, trivial_entwining
from entwine import criteria
from entwine.criteria import decide_frobenius_co
import components as cp
import corpus
import reference_residuals as ref

Q = Field.rational()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)


def random_entwining(field: Field, n: int, c: int, seed: int) -> Entwining:
    """Structure constants of the right shapes, about 30% nonzero, with no
    axiom imposed."""
    rng = random.Random(seed)

    def mat(rows, cols):
        return Mat(field, rows, cols, tuple(
            field.of(rng.randrange(field.p)) if rng.random() < 0.3 else field.zero
            for _ in range(rows * cols)))

    return Entwining(Algebra(field, n, mat(n, n * n), mat(n, 1)),
                     Coalgebra(field, c, mat(c * c, c), mat(1, c)),
                     mat(n * c, c * n))


def edited_flip(alg: Algebra, coalg: Coalgebra, edits) -> Entwining:
    """The tensor flip C (x) A -> A (x) C with the (row, col, value) edits."""
    F = alg.field
    psi = flip(F, coalg.dim, alg.dim)
    entries = list(psi.entries)
    for i, j, v in edits:
        entries[i * psi.cols + j] = F.of(v)
    return Entwining(alg, coalg, Mat(F, psi.rows, psi.cols, tuple(entries)))


def kz2_gl3(field: Field, edits=()) -> Entwining:
    """The tensor flip of kZ2 with the group-like coalgebra on three
    points, with the (row, col, value) edits."""
    return edited_flip(group_algebra(2, field).alg, group_like_coalgebra(field, 3),
                       edits)


SWEEP_HITS = {
    "kz2-gl3 F2": kz2_gl3(F2),
    "kz2-gl3 F3": kz2_gl3(F3),
    "kz2-gl3 F5": kz2_gl3(F5),
    "kz2-gl3 edited F2": kz2_gl3(F2, [(1, 5, 1)]),
    "m3 F2": trivial_entwining(matrix_algebra(3, F2)),
}


def both_sides(e: Entwining):
    """The verdict of both variances, decided once (the contra decider is
    the co decider), with a FOUND witness re-verified in the co equations
    and, e transposed, in the independent contra equations."""
    v = decide_frobenius_co(e)
    if v.found:
        r, th = v.witness["e"], v.witness["theta"]
        for sigma_eqs, rho_eqs, frob_eqs, s in (
            (cp.sigma_equations_co, cp.rho_equations_co, cp.frobenius_equations_co, r),
            (cp.sigma_equations_contra, cp.rho_equations_contra,
             cp.frobenius_equations_contra, r.t),
        ):
            assert sigma_eqs(e, s, 1)[0].is_zero()
            assert all(x.is_zero() for x in rho_eqs(e, th, 1)[:2])
            assert all(x.is_zero() for x in frob_eqs(e, s, th, 1))
    return v


@pytest.mark.parametrize("field, seed, dims, status, last", [
    (F2, 1, (0, 0), "FOUND", "sigma side is zero; rho solved linearly"),
    (F2, 4, (0, 2), "FOUND", "sigma side is zero; rho solved linearly"),
    (F2, 6, (0, 1), "NONE",
     "one membership space is zero; joint system linear and infeasible"),
    (F2, 8, (4, 0), "FOUND", "rho side is zero; sigma solved linearly"),
    (F3, 20, (1, 0), "NONE",
     "one membership space is zero; joint system linear and infeasible"),
])
def test_zero_side_is_solved_linearly(field, seed, dims, status, last):
    v = both_sides(random_entwining(field, 2, 2, seed))
    assert (v.data["sigma_parameters"], v.data["rho_parameters"]) == dims
    assert v.status == status
    assert v.log == ("membership spaces: sigma %d, rho %d parameters" % dims, last)
    if status == "FOUND":
        zero_side = v.witness["e"] if dims[0] == 0 else v.witness["theta"]
        assert zero_side.is_zero()
    else:
        assert v.certificate == "linear" and v.witness is None


def test_rho_basis_vector_extends_in_strategy_1():
    e = edited_flip(group_algebra(2, F3).alg, group_like_coalgebra(F3, 2),
                    [(2, 3, 2), (3, 3, 2)])
    v = both_sides(e)
    assert v.log == ("membership spaces: sigma 3, rho 2 parameters",
                     "strategy 1: rho basis vector 0 extends")


@pytest.mark.parametrize("name, field, e, theta", [
    ("dk2", Q, [[1, 0, 1, 0]], [[1, 1], [0, 0], [0, 0], [1, 1]]),
    ("dk2", F5, [[1, 0, 1, 0]], [[1, 1], [0, 0], [0, 0], [1, 1]]),
    ("gl2", Q, [[1, 1]], [[1, 1]]),
    ("gl2", F5, [[1, 1]], [[1, 1]]),
])
def test_rho_sum_seed_extends_directly(name, field, e, theta):
    # Two rho parameters: neither rho basis vector extends, nor does the
    # sigma the first coupling solves from it, so the witness is the third
    # seed, the sum of the two, extended directly.
    v = both_sides(corpus.entwinings(field)[name])
    assert v.log == ("membership spaces: sigma 2, rho 2 parameters",
                     "strategy 1: no membership basis vector extends",
                     "strategy 2: alternation from a rho seed")
    assert v.witness["e"] == Mat.from_rows(field, e)
    assert v.witness["theta"] == Mat.from_rows(field, theta)


def moved_unit_m2(field, unit) -> Entwining:
    """The trivial entwining of M2 with its unit moved to `unit`."""
    return trivial_entwining(Algebra(field, 4, matrix_algebra(2, field).mult,
                                     Mat.from_rows(field, [[x] for x in unit])))


@pytest.mark.parametrize("field", [Q, F3])
def test_rho_seed_alternation_hits_after_a_partial_solve(field):
    # M2 with the unit moved off the identity: no basis vector extends, and
    # a sum seed extends directly to this witness.  The name predates the
    # removal of strategy 2's partial solve (sigma from the through-psi
    # coupling alone), which found the same witness first.
    v = both_sides(moved_unit_m2(field, (0, 2, 0, 1)))
    assert v.log == ("membership spaces: sigma 4, rho 4 parameters",
                     "strategy 1: no membership basis vector extends",
                     "strategy 2: alternation from a rho seed")
    assert v.witness["e"] == Mat.from_rows(field, [[0, 0, 2, 1]])
    assert v.witness["theta"] == Mat.from_rows(
        field, [[x] for x in (1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1)])


def test_sum_seed_decides_moved_unit_m2_without_a_partial_solve():
    # With the unit at (1, 0, 2, 0), the removed partial solve gave theta
    # (1, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0) for this sigma; a sum
    # seed extends directly to another theta.
    v = both_sides(moved_unit_m2(Q, (1, 0, 2, 0)))
    assert v.log[1:] == ("strategy 1: no membership basis vector extends",
                         "strategy 2: alternation from a rho seed")
    assert v.witness["e"] == Mat.from_rows(Q, [[1, 2, 0, 0]])
    assert v.witness["theta"] == Mat.from_rows(
        Q, [[x] for x in (1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1)])


# The next three instances reached the sweep before the all-ones rung.  The
# sweep's first hit on the first and third is the all-ones point itself,
# so the witness is unchanged; on the second the sweep hit (1, 1, 1, 0) on
# rho, and the all-ones point of rho extends first.

def test_sigma_sweep_hit_on_regular_dk_kz3_over_f2():
    e = regular_doi_koppinen(group_algebra(3, F2))
    v = both_sides(e)
    assert (v.data["sigma_parameters"], v.data["rho_parameters"]) == (3, 3)
    assert v.log == ("membership spaces: sigma 3, rho 3 parameters",
                     "strategy 1: no membership basis vector extends",
                     "strategy 2: alternation exhausted without a witness",
                     "all-ones point: sigma extends")
    assert ref.frobenius_sweep(e, "co")[:2] == ("FOUND", (1, 1, 1))
    assert v.witness["e"] == Mat.from_rows(F2, [[1, 0, 0, 1, 0, 0, 1, 0, 0]])
    assert v.witness["theta"] == Mat.from_rows(F2, [
        [1, 1, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 1, 1],
        [0, 0, 0], [1, 1, 1], [0, 0, 0]])


def test_rho_sweep_hit_when_rho_space_is_smaller():
    e = edited_flip(trunc_poly_algebra(2, F2), group_like_coalgebra(F2, 3),
                    [(1, 1, 1)])
    v = both_sides(e)
    assert (v.data["sigma_parameters"], v.data["rho_parameters"]) == (5, 4)
    assert v.log[1:] == ("strategy 1: no membership basis vector extends",
                         "strategy 2: alternation exhausted without a witness",
                         "all-ones point: rho extends")
    assert ref.frobenius_sweep(e, "co")[:2] == ("FOUND", (1, 1, 1, 0))


def test_sigma_sweep_hit_on_regular_dk_kz5_over_f5():
    # |G| = 5: the sweep hit at the all-ones point, which the rung before it
    # now extends.
    v = both_sides(regular_doi_koppinen(group_algebra(5, Field.prime(5))))
    assert v.found
    assert v.log[-1] == "all-ones point: sigma extends"


@pytest.mark.parametrize("field, n", [(Q, 3), (Q, 4), (Q, 5), (Q, 6),
                                      (F5, 6), (Field.prime(7), 5)])
def test_all_ones_point_decides_regular_dk(field, n):
    # The feasible sigma of regular DK kZn is the torus of nonzero
    # coordinates.  Over Q no sweep runs, and over F_5 and F_7 at these n
    # the p^n points of the full sweep exceeded the budget, so all of these
    # were UNKNOWN before the all-ones rung.
    v = both_sides(regular_doi_koppinen(group_algebra(n, field)))
    assert (v.data["sigma_parameters"], v.data["rho_parameters"]) == (n, n)
    assert v.log[1:] == ("strategy 1: no membership basis vector extends",
                         "strategy 2: alternation exhausted without a witness",
                         "all-ones point: sigma extends")


# Sweep hits past every earlier rung: no membership basis vector, rho seed
# or all-ones point extends.  Over F_5 the 5^6 = 15,625 points of a full
# sweep of the tensor flip of kZ2 with three group-likes exceed the budget
# of 4,096, and the projective sweep takes 3,907.  M3's hit, read as a
# 3 x 3 matrix, is the first invertible one in lexicographic order.

@pytest.mark.parametrize("name, dims, hit", [
    ("kz2-gl3 F2", (6, 6), (0, 1, 0, 1, 0, 1)),
    ("kz2-gl3 F3", (6, 6), (0, 1, 0, 1, 0, 1)),
    ("kz2-gl3 F5", (6, 6), (0, 1, 0, 1, 0, 1)),
    ("m3 F2", (9, 9), (0, 0, 1, 0, 1, 0, 1, 0, 0)),
])
def test_sigma_sweep_hit_past_every_earlier_rung(name, dims, hit):
    v = both_sides(SWEEP_HITS[name])
    assert v.log == ("membership spaces: sigma %d, rho %d parameters" % dims,
                     "strategy 1: no membership basis vector extends",
                     "strategy 2: alternation exhausted without a witness",
                     "strategy 3: enumeration hit %r" % (hit,))


def test_rho_sweep_hit_past_every_earlier_rung():
    v = both_sides(SWEEP_HITS["kz2-gl3 edited F2"])
    assert v.log == ("membership spaces: sigma 5, rho 4 parameters",
                     "strategy 1: no membership basis vector extends",
                     "strategy 2: alternation exhausted without a witness",
                     "strategy 3: enumeration hit (0, 1, 1, 1)")
    assert v.witness["e"] == Mat.from_rows(F2, [[1, 0, 0, 1, 0, 1]])
    assert v.witness["theta"] == Mat.from_rows(F2, [
        [1, 0, 1], [0, 1, 1], [0, 1, 1], [1, 0, 0]])


# Affine solves per decider call in the standard basis, now and before the
# all-ones rung, the projective sweep and the removal of strategy 2's
# partial solve.  Counted by call, so the guard does not depend on timing.
# Deciders are named, not passed: the contramodule one is the comodule one
# under a second name, and an id read off the function would be the same.
@pytest.mark.parametrize("decider", ["decide_frobenius_co", "decide_frobenius_contra"])
@pytest.mark.parametrize("name, field, now, before", [
    ("dk3", F5, 10, 44), ("dk2", Q, 5, 7), ("ut", Q, 5, 5), ("ut", F2, 6, 6),
], ids=["dk3 F5", "dk2 Q", "ut Q", "ut F2"])
def test_solve_count_is_pinned(name, field, now, before, decider, monkeypatch):
    calls = []
    solve = criteria.solve_affine
    monkeypatch.setattr(criteria, "solve_affine",
                        lambda a, b: calls.append(1) or solve(a, b))
    getattr(criteria, decider)(corpus.entwinings(field)[name])
    assert len(calls) == now <= before
