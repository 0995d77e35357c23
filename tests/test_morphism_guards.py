"""The morphism guards keep their messages with term-list conditions.

`measuring._require_morphism` evaluates the morphism conditions of
`comodcat`, the only ones `measuring` states (its contramodule side is the
comodule side transposed), and `criteria._require_morphism` those of
`comodcat` and of `contracat`; all are term lists.  On maps that fail
only the action square, only the coalgebra square, or both, each guard
must raise the same exception type with the same text as with the
closures of `reference_residuals`, checking the conditions in their
order: the action first, then the coaction or pi.
"""

from __future__ import annotations

import random

import pytest

from entwine import criteria, measuring
from entwine.exactlin import Field, Mat, basis_columns, in_subspace
from entwine.algstruct import (
    comodule_hom, dual_left_module, group_algebra, module_hom_left,
    module_hom_right, regular_comodule, regular_right_module,
)
from entwine.entwining import regular_doi_koppinen
from entwine.comodcat import hom_space, induce_mc, induce_tc, morphism_conditions
from entwine.contracat import (
    contra_hom_space, contra_morphism_conditions, free_contramodule,
    induce_a_t, induce_contra_t,
)
from corpus import plain_contra_hom
import reference_residuals as ref

FIELDS = {"Q": Field.rational(), "F5": Field.prime(5)}


def outside(space, candidates):
    """A candidate map that is not in the given hom space."""
    for f in candidates:
        if not in_subspace(space, f):
            return f
    raise AssertionError("every candidate is a morphism")


def failing_maps(F, x, y, action_space, structure_space, full_space):
    """Maps x -> y failing only the action square, only the coalgebra
    square, and both."""
    shape = (y.dim, x.dim)
    rng = random.Random(0)
    randoms = [Mat(F, *shape, tuple(F.of(rng.randint(-2, 2)) for _ in range(x.dim * y.dim)))
               for _ in range(5)]
    only_action = outside(full_space, basis_columns(F, structure_space.basis, *shape))
    only_structure = outside(full_space, basis_columns(F, action_space.basis, *shape))
    both = next(f for f in randoms
                if not in_subspace(action_space, f) and not in_subspace(structure_space, f))
    return {"action": only_action, "structure": only_structure, "both": both}


def cases(F):
    e = regular_doi_koppinen(group_algebra(2, F))
    tc, mc = induce_tc(e, regular_comodule(e.coalg)), induce_mc(e, regular_right_module(e.alg))
    ct = induce_contra_t(e, free_contramodule(e.coalg, 1))
    at = induce_a_t(e, dual_left_module(e.alg))
    return [
        ("comodules", tc, mc, morphism_conditions, ref.morphism_conditions,
         failing_maps(F, tc, mc, module_hom_right(tc.as_module(), mc.as_module()),
                      comodule_hom(tc.as_comodule(), mc.as_comodule()), hom_space(tc, mc))),
        ("contramodules", ct, at, contra_morphism_conditions, ref.contra_morphism_conditions,
         failing_maps(F, ct, at, module_hom_left(ct.as_module(), at.as_module()),
                      plain_contra_hom(ct.as_contra(), at.as_contra()),
                      contra_hom_space(ct, at))),
    ]


def raised(call):
    try:
        call()
    except (ValueError, AssertionError) as ex:
        return type(ex), str(ex)
    return None


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_measuring_guard_messages(fname):
    F = FIELDS[fname]
    _, x, y, conditions, closures, maps = cases(F)[0]
    failures = measuring._CO_FAILURES
    want = {"action": failures[0], "structure": failures[1], "both": failures[0]}
    for which, f in maps.items():
        got = raised(lambda: measuring._require_morphism(conditions(x, y), f, "map"))
        assert got == (ValueError, "map %s" % want[which])
        assert got == raised(lambda: measuring._require_morphism(closures(x, y), f, "map"))


@pytest.mark.parametrize("entwined", [False, True])
@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_criteria_guard_messages(fname, entwined):
    F = FIELDS[fname]
    for kind, x, y, conditions, closures, maps in cases(F):
        for which, f in maps.items():
            got = raised(lambda: criteria._require_morphism(conditions(x, y), x, y, f, kind,
                                                            entwined))
            if which != "action":
                assert got == (ValueError, "not a morphism of %s" % kind)
            elif entwined:
                assert got == (AssertionError, "averaged morphism fails the action square")
            else:
                assert got is None
            assert got == raised(lambda: criteria._require_morphism(
                closures(x, y), x, y, f, kind, entwined))
        bad_shape = Mat.zeros(F, y.dim + 1, x.dim)
        assert raised(lambda: criteria._require_morphism(
            conditions(x, y), x, y, bad_shape, kind, entwined)) == (
            ValueError, "morphism must be %d x %d" % (y.dim, x.dim))
