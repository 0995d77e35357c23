"""Entwined modules: checker, induction in both flavors, both adjunctions."""

import random

import pytest

from entwine.exactlin import Field, Mat, kron, in_subspace
from entwine.algstruct import (
    group_algebra, regular_right_module, regular_comodule, comodule_hom,
    zero_comodule, zero_module_right,
)
from entwine.entwining import regular_doi_koppinen
from entwine.comodcat import (
    EntwinedModule, check_entwined_module, induce_tc, induce_mc,
    hom_space, adjunction_check_tc_fc, adjunction_check_fm_mc,
)
from corpus import (
    entwinings, graded_comodule, involution_module, random_involution,
    direct_sum_entwined,
)
from oracles import exhaustive_solution_count

Q = Field.rational()
F5 = Field.prime(5)


def dk(n, field):
    return regular_doi_koppinen(group_algebra(n, field))


def regular_entwined(e):
    """The algebra itself, acted on by mult and coacting by comult."""
    return EntwinedModule(e, e.alg.dim, e.alg.mult, e.coalg.comult)


def test_regular_entwined_module_passes():
    for n, field in [(2, Q), (3, Q), (2, F5), (3, F5)]:
        rep = check_entwined_module(regular_entwined(dk(n, field)))
        assert rep.passed, rep.as_dict()


def test_induce_tc_passes_checker():
    for field in (Q, F5):
        e = dk(2, field)
        for grades in ([0], [1], [0, 1], [1, 0, 1]):
            x = induce_tc(e, graded_comodule(e.coalg, grades))
            assert x.dim == 2 * len(grades)
            rep = check_entwined_module(x)
            assert rep.passed, rep.as_dict()


def test_induce_mc_passes_checker():
    for field in (Q, F5):
        e = dk(2, field)
        swap = Mat.from_rows(field, [[0, 1], [1, 0]])
        sign = Mat.from_rows(field, [[1, 0], [0, -1]])
        for s in (swap, sign, Mat.identity(field, 1)):
            x = induce_mc(e, involution_module(e.alg, s))
            rep = check_entwined_module(x)
            assert rep.passed, rep.as_dict()


def test_direct_sum_passes_checker():
    e = dk(2, Q)
    x = induce_tc(e, graded_comodule(e.coalg, [0, 1]))
    y = induce_mc(e, involution_module(e.alg, Mat.from_rows(Q, [[0, 1], [1, 0]])))
    rep = check_entwined_module(direct_sum_entwined(x, y))
    assert rep.passed, rep.as_dict()


def test_zero_coaction_fails_counit():
    e = dk(2, Q)
    x = EntwinedModule(e, 2, e.alg.mult, Mat.zeros(Q, 4, 2))
    rep = check_entwined_module(x)
    failed = [ch.name for ch in rep.checks if not ch.passed]
    assert "coaction-counit" in failed


def test_zero_dimensional_object():
    e = dk(2, Q)
    x = induce_tc(e, zero_comodule(e.coalg))
    assert x.dim == 0
    assert check_entwined_module(x).passed
    assert hom_space(x, x).dim == 0
    rep = adjunction_check_tc_fc(e, zero_comodule(e.coalg), regular_entwined(e))
    assert rep.passed, rep.as_dict()


def test_action_is_morphism_from_induced():
    # The action X (x) A -> X is a map of entwined modules out of the
    # induction of the underlying comodule.
    for field in (Q, F5):
        e = dk(2, field)
        xs = [
            regular_entwined(e),
            induce_tc(e, graded_comodule(e.coalg, [1, 1, 0])),
            induce_mc(e, involution_module(e.alg, Mat.from_rows(field, [[0, 1], [1, 0]]))),
        ]
        for x in xs:
            ind = induce_tc(e, x.as_comodule())
            assert in_subspace(hom_space(ind, x), x.action)


def test_coaction_is_morphism_into_induced():
    # Dually the coaction X -> X (x) C is a map into the induction of
    # the underlying module.
    for field in (Q, F5):
        e = dk(2, field)
        xs = [
            regular_entwined(e),
            induce_tc(e, graded_comodule(e.coalg, [0, 1])),
        ]
        for x in xs:
            ind = induce_mc(e, x.as_module())
            assert in_subspace(hom_space(x, ind), x.coaction)


def test_hom_dims_against_grade_count():
    # Morphisms between inductions of group-like-graded comodules match
    # grade-respecting matrices, counted directly.
    e = dk(2, Q)
    n = graded_comodule(e.coalg, [0, 1])
    x = induce_mc(e, involution_module(e.alg, Mat.from_rows(Q, [[0, 1], [1, 0]])))
    # X = M (x) C coacts through its second leg, so position i*2+j has
    # grade j; the domain grades are [0, 1].
    dom_grades = [0, 1]
    cod_grades = [0, 1, 0, 1]
    expect = sum(1 for gr in cod_grades for gs in dom_grades if gr == gs)
    got = comodule_hom(n, x.as_comodule())
    assert got.dim == expect == 4
    assert hom_space(induce_tc(e, n), x).dim == got.dim


def test_adjunction_randomized_corpus():
    rng = random.Random(20240817)
    ran = 0
    for trial in range(12):
        field = Q if trial % 2 == 0 else F5
        e = dk(2, field)
        grades = [rng.randrange(2) for _ in range(1 + rng.randrange(3))]
        n = graded_comodule(e.coalg, grades)
        pick = trial % 3
        if pick == 0:
            x = induce_tc(e, graded_comodule(e.coalg, [rng.randrange(2)]))
        elif pick == 1:
            x = induce_mc(e, involution_module(e.alg, random_involution(rng, field, 2)))
        else:
            x = direct_sum_entwined(
                regular_entwined(e),
                induce_tc(e, graded_comodule(e.coalg, [rng.randrange(2)])))
        rep = adjunction_check_tc_fc(e, n, x)
        assert rep.passed, rep.as_dict()
        ran += 1
    assert ran == 12


CORPUS = {"%s-%s" % (F.label(), name): e
          for F in (Q, Field.prime(2), Field.prime(3), F5)
          for name, e in sorted(entwinings(F).items())}


@pytest.mark.parametrize("key", CORPUS)
def test_adjunction_fm_mc_corpus(key):
    """Forgetting the coaction is left adjoint to M (x) C, on induced,
    zero-dimensional and direct-sum objects of each corpus entwining."""
    e = CORPUS[key]
    xs = [induce_tc(e, regular_comodule(e.coalg)), induce_tc(e, zero_comodule(e.coalg)),
          induce_mc(e, regular_right_module(e.alg))]
    xs.append(direct_sum_entwined(xs[0], xs[2]))
    ms = [regular_right_module(e.alg), zero_module_right(e.alg), xs[0].as_module()]
    for x in xs:
        for m in ms:
            rep = adjunction_check_fm_mc(e, x, m)
            assert rep.passed, rep.as_dict()


def test_hom_space_exhaustive_over_f5():
    # Cross-check solver dimensions against a brute-force scan of the
    # full matrix space at dimension 2.
    e = dk(2, F5)
    i_n = Mat.identity(F5, 2)
    i_c = Mat.identity(F5, 2)
    objs = [
        regular_entwined(e),
        induce_tc(e, graded_comodule(e.coalg, [1])),
        induce_mc(e, involution_module(e.alg, Mat.identity(F5, 1))),
    ]
    for x in objs:
        for y in objs:
            space = hom_space(x, y)
            conds = [
                lambda f: f * x.action - y.action * kron(f, i_n),
                lambda f: y.coaction * f - kron(f, i_c) * x.coaction,
            ]
            count = exhaustive_solution_count(F5, y.dim, x.dim, conds)
            assert count == 5 ** space.dim


def test_mismatched_structures_raise():
    e2, e3 = dk(2, Q), dk(3, Q)
    try:
        induce_tc(e2, regular_comodule(e3.coalg))
        assert False, "expected ValueError"
    except ValueError:
        pass
    try:
        hom_space(regular_entwined(e2), regular_entwined(e3))
        assert False, "expected ValueError"
    except ValueError:
        pass
    try:
        induce_mc(e2, regular_right_module(e3.alg))
        assert False, "expected ValueError"
    except ValueError:
        pass
