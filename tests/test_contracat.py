"""Contramodules: checker, currying, free objects, both adjunctions."""

import random

from entwine.exactlin import Field, Mat, kron, in_subspace
from entwine.algstruct import (
    comodule_hom, field_coalgebra, group_algebra, regular_left_module, ModuleLeft,
)
from entwine.entwining import regular_doi_koppinen
from entwine.contracat import (
    ContraModule, EntwinedContraModule, check_contramodule,
    check_entwined_contramodule, free_contramodule,
    induce_contra_t, induce_a_t, contra_hom_space, adjunction_check_f_t,
    adjunction_check_at_af, hom_pre, under, curry_left, uncurry_left, transpose,
)
from corpus import (
    idempotent_pair_contramodule, involution_module_left, random_projection,
    random_involution, direct_sum_contra, plain_contra_hom,
)
from oracles import random_mat, exhaustive_solution_count

Q = Field.rational()
F5 = Field.prime(5)


def dk(n, field):
    return regular_doi_koppinen(group_algebra(n, field))


def test_curry_roundtrip():
    rng = random.Random(7)
    for field in (Q, F5):
        for m, n in [(1, 1), (2, 3), (3, 2)]:
            act = random_mat(field, rng, m, n * m)
            mu = curry_left(act, m, n)
            assert mu.rows == m * n and mu.cols == m
            assert uncurry_left(mu, m, n) == act
    act = group_algebra(2, Q).alg.mult
    mu = curry_left(act, 2, 2)
    for i in range(2):
        for a in range(2):
            for j in range(2):
                assert mu[i * 2 + a, j] == act[i, a * 2 + j]


def test_reindexing_helpers_commute():
    # Precomposition on the inner slot and postcomposition under outer
    # legs act on different legs, so they commute.
    rng = random.Random(11)
    for field in (Q, F5):
        phi = random_mat(field, rng, 3, 2)
        f = random_mat(field, rng, 4, 3)
        # f: D -> V with dim D = 3, dim V = 4; phi: M -> N with dims 2, 3.
        lhs = hom_pre(f, 3) * under(phi, 4)
        rhs = under(phi, 3) * hom_pre(f, 2)
        assert lhs == rhs


def test_free_contramodule_passes():
    for field in (Q, F5):
        for n in (2, 3):
            c = group_algebra(n, field).coalg
            for m0 in (1, 2):
                x = free_contramodule(c, m0)
                assert x.dim == m0 * n
                rep = check_contramodule(x)
                assert rep.passed, rep.as_dict()


def test_idempotent_pair_contramodules():
    rng = random.Random(23)
    c = group_algebra(2, Q).coalg
    for m in (1, 2, 3):
        x = idempotent_pair_contramodule(c, random_projection(rng, Q, m))
        rep = check_contramodule(x)
        assert rep.passed, rep.as_dict()
    bad = Mat.from_rows(Q, [[1, 1], [0, 1]])
    rep = check_contramodule(idempotent_pair_contramodule(c, bad))
    failed = [ch.name for ch in rep.checks if not ch.passed]
    assert failed == ["contra-associativity"]


def test_contramodule_over_base_field_is_identity():
    c = field_coalgebra(Q)
    assert check_contramodule(ContraModule(c, 3, Mat.identity(Q, 3))).passed
    proj = Mat.from_rows(Q, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert not check_contramodule(ContraModule(c, 3, proj)).passed


def test_plain_contra_hom_dimension():
    c = group_algebra(2, Q).coalg
    x = idempotent_pair_contramodule(c, Mat.from_rows(Q, [[1, 0], [0, 0]]))
    # Maps must preserve both members of the idempotent pair, which for
    # a diagonal projection means staying block diagonal.  The package
    # states this space only on the comodule side, transposed.
    y = idempotent_pair_contramodule(c, Mat.identity(Q, 2))
    for a, b in ((x, x), (x, y), (free_contramodule(c, 1), x)):
        assert plain_contra_hom(a, b).dim == 2
        assert comodule_hom(transpose(b), transpose(a)).dim == 2


def test_induced_entwined_contramodules_pass():
    rng = random.Random(31)
    for field in (Q, F5):
        for n in (2, 3):
            e = dk(n, field)
            y = induce_a_t(e, regular_left_module(e.alg))
            rep = check_entwined_contramodule(y)
            assert rep.passed, rep.as_dict()
            z = induce_contra_t(e, free_contramodule(e.coalg, 2))
            rep = check_entwined_contramodule(z)
            assert rep.passed, rep.as_dict()
        e = dk(2, field)
        p0 = random_projection(rng, field, 2)
        z = induce_contra_t(e, idempotent_pair_contramodule(e.coalg, p0))
        assert check_entwined_contramodule(z).passed
        w = induce_a_t(e, involution_module_left(e.alg, random_involution(rng, field, 2)))
        assert check_entwined_contramodule(w).passed
        rep = check_entwined_contramodule(direct_sum_contra(z, w))
        assert rep.passed, rep.as_dict()


def test_zero_pi_fails_counit():
    e = dk(2, Q)
    good = induce_a_t(e, regular_left_module(e.alg))
    x = EntwinedContraModule(e, good.dim, Mat.zeros(Q, good.dim, good.dim * 2),
                             good.action)
    rep = check_entwined_contramodule(x)
    failed = [ch.name for ch in rep.checks if not ch.passed]
    assert "contra-counit" in failed


def test_single_entry_action_mutation_detected():
    e = dk(2, Q)
    good = induce_a_t(e, regular_left_module(e.alg))
    act = list(good.action.entries)
    act[0] = Q.add(act[0], Q.one)
    bad = EntwinedContraModule(e, good.dim, good.pi,
                               Mat(Q, good.action.rows, good.action.cols, tuple(act)))
    assert not check_entwined_contramodule(bad).passed


def test_mu_is_morphism_into_free():
    # The curried action X -> X (x) A* is a map of entwined
    # contramodules into the induction of the underlying contramodule.
    for field in (Q, F5):
        e = dk(2, field)
        xs = [
            induce_a_t(e, regular_left_module(e.alg)),
            induce_contra_t(e, free_contramodule(e.coalg, 1)),
        ]
        for x in xs:
            ind = induce_contra_t(e, x.as_contra())
            assert in_subspace(contra_hom_space(x, ind), x.mu)


def test_pi_is_morphism_from_cofree():
    # Dually pi: X (x) C* -> X is a map out of the induction of the
    # underlying module.
    for field in (Q, F5):
        e = dk(2, field)
        xs = [
            induce_a_t(e, regular_left_module(e.alg)),
            induce_contra_t(e, free_contramodule(e.coalg, 1)),
        ]
        for x in xs:
            ind = induce_a_t(e, x.as_module())
            assert in_subspace(contra_hom_space(ind, x), x.pi)


def test_adjunction_f_t_randomized():
    rng = random.Random(20240818)
    for trial in range(8):
        field = Q if trial % 2 == 0 else F5
        e = dk(2, field)
        if trial % 4 < 2:
            n = free_contramodule(e.coalg, 1 + trial % 2)
        else:
            n = idempotent_pair_contramodule(e.coalg, random_projection(rng, field, 2))
        if trial % 3 == 0:
            x = induce_a_t(e, involution_module_left(e.alg, random_involution(rng, field, 2)))
        elif trial % 3 == 1:
            x = induce_contra_t(e, free_contramodule(e.coalg, 1))
        else:
            x = direct_sum_contra(
                induce_a_t(e, regular_left_module(e.alg)),
                induce_contra_t(e, idempotent_pair_contramodule(
                    e.coalg, random_projection(rng, field, 1))))
        rep = adjunction_check_f_t(e, x, n)
        assert rep.passed, rep.as_dict()


def test_adjunction_at_af_randomized():
    rng = random.Random(20240819)
    for trial in range(8):
        field = Q if trial % 2 == 0 else F5
        e = dk(2, field)
        m = involution_module_left(e.alg, random_involution(rng, field, 1 + trial % 3))
        if trial % 2 == 0:
            nobj = induce_contra_t(e, free_contramodule(e.coalg, 1))
        else:
            nobj = induce_a_t(e, regular_left_module(e.alg))
        rep = adjunction_check_at_af(e, m, nobj)
        assert rep.passed, rep.as_dict()


def test_adjunction_zero_dimensional():
    e = dk(2, Q)
    x = induce_a_t(e, regular_left_module(e.alg))
    rep = adjunction_check_f_t(e, x, free_contramodule(e.coalg, 0))
    assert rep.passed, rep.as_dict()
    rep = adjunction_check_at_af(e, ModuleLeft(e.alg, 0, Mat.zeros(Q, 0, 0)), x)
    assert rep.passed, rep.as_dict()


def test_contra_hom_exhaustive_over_f5():
    e = dk(2, F5)
    i_n = Mat.identity(F5, 2)
    objs = [
        induce_a_t(e, involution_module_left(e.alg, Mat.identity(F5, 1))),
        induce_a_t(e, involution_module_left(e.alg, Mat.from_rows(F5, [[4]]))),
        induce_contra_t(e, idempotent_pair_contramodule(e.coalg, Mat.from_rows(F5, [[1]]))),
        induce_contra_t(e, idempotent_pair_contramodule(e.coalg, Mat.from_rows(F5, [[0]]))),
    ]
    for x in objs:
        for y in objs:
            space = contra_hom_space(x, y)
            conds = [
                lambda f: f * x.action - y.action * kron(i_n, f),
                lambda f: f * x.pi - y.pi * under(f, 2),
            ]
            count = exhaustive_solution_count(F5, y.dim, x.dim, conds)
            assert count == 5 ** space.dim


def test_mismatched_structures_raise():
    e2, e3 = dk(2, Q), dk(3, Q)
    try:
        induce_contra_t(e2, free_contramodule(e3.coalg, 1))
        assert False, "expected ValueError"
    except ValueError:
        pass
    try:
        contra_hom_space(induce_a_t(e2, regular_left_module(e2.alg)),
                         induce_a_t(e3, regular_left_module(e3.alg)))
        assert False, "expected ValueError"
    except ValueError:
        pass
