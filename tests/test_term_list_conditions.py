"""Differential test of the morphism, coinvariant and perturbation
conditions stated as term lists.

The hom spaces of `algstruct`, `comodcat` and `contracat`, the
coinvariants of `measuring` and the perturbations of the Maschke probe
state their conditions as term lists (`exactlin.TermList`), which
`mat_solution_basis` contracts and eliminates as sparse rows.  The
reference is the closure of the same condition in `reference_residuals`,
which `mat_solution_basis` assembles by evaluation on matrix units and
eliminates dense.  Both must give the same solution basis entry for
entry, and each term list must equal its closure at two random maps, on
the corpus entwinings over Q, F_2 and F_5, for induced objects, direct
sums and the 0-dimensional object of the probe.  A term list whose
identity factors are implicit (None) must also contract and evaluate as
the one with the identities written out.
"""

from __future__ import annotations

import random

import pytest

from entwine import criteria, measuring
from entwine.exactlin import (
    Field, Mat, Lift, Term, TermList, affine_matrix_system, block_inj,
    block_proj, hstack, mat_solution_basis,
)
from entwine.algstruct import (
    coaction_square, dual_left_module, group_algebra, group_like_coalgebra,
    left_action_square, regular_comodule, regular_left_module,
    regular_right_module, right_action_square,
)
from entwine.comodcat import EntwinedModule, induce_mc, induce_tc, morphism_conditions
from entwine.contracat import (
    EntwinedContraModule, contra_morphism_conditions, free_contramodule,
    induce_a_t, induce_contra_t,
)
import reference_residuals as ref
from corpus import direct_sum_contra, direct_sum_entwined, entwinings

FIELDS = {"Q": Field.rational(), "F2": Field.prime(2), "F5": Field.prime(5)}
NAMES = sorted(entwinings(FIELDS["Q"]))


def random_map(F, rng, rows, cols):
    return Mat(F, rows, cols, tuple(F.of(rng.choice((0, 0, 1, -1, 2, -3)))
                                    for _ in range(rows * cols)))


def assert_same(F, rng, shape, forms, closures):
    """Same solution basis, and each form equal to its closure twice."""
    assert mat_solution_basis(F, *shape, forms) == mat_solution_basis(F, *shape, closures)
    for _ in range(2):
        f = random_map(F, rng, *shape)
        for form, closure in zip(forms, closures):
            assert form(f) == closure(f)


def entwined_objects(e):
    """Induced entwined modules, their direct sum and the zero object."""
    mc = induce_mc(e, regular_right_module(e.alg))
    tc = induce_tc(e, regular_comodule(e.coalg))
    znil = Mat.zeros(e.field, 0, 0)
    return {"mc": mc, "tc": tc, "sum": direct_sum_entwined(mc, tc),
            "zero": EntwinedModule(e, 0, znil, znil)}


def contra_objects(e):
    """Induced entwined contramodules, their direct sum and the zero object."""
    at = induce_a_t(e, dual_left_module(e.alg))
    ct = induce_contra_t(e, free_contramodule(e.coalg, 1))
    znil = Mat.zeros(e.field, 0, 0)
    return {"at": at, "ct": ct, "sum": direct_sum_contra(at, ct),
            "zero": EntwinedContraModule(e, 0, znil, znil)}


PAIRS = {
    "co": [("mc", "tc"), ("tc", "mc"), ("sum", "tc"), ("mc", "sum"),
           ("zero", "mc"), ("tc", "zero"), ("zero", "zero")],
    "contra": [("at", "ct"), ("ct", "at"), ("sum", "ct"), ("at", "sum"),
               ("zero", "at"), ("ct", "zero"), ("zero", "zero")],
}


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", NAMES)
def test_entwined_morphism_conditions(name, fname):
    F = FIELDS[fname]
    e = entwinings(F)[name]
    rng = random.Random("%s-%s-co" % (name, fname))
    objs = entwined_objects(e)
    for a, b in PAIRS["co"]:
        x, y = objs[a], objs[b]
        assert_same(F, rng, (y.dim, x.dim), morphism_conditions(x, y),
                    ref.morphism_conditions(x, y))
    objs = contra_objects(e)
    for a, b in PAIRS["contra"]:
        x, y = objs[a], objs[b]
        assert_same(F, rng, (y.dim, x.dim), contra_morphism_conditions(x, y),
                    ref.contra_morphism_conditions(x, y))


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", NAMES)
def test_plain_hom_conditions(name, fname):
    """The squares behind module_hom_right, module_hom_left, comodule_hom
    and the plain contramodule hom, on the free objects and the forgetful
    images of the induced ones."""
    F = FIELDS[fname]
    e = entwinings(F)[name]
    n, c = e.alg.dim, e.coalg.dim
    rng = random.Random("%s-%s-plain" % (name, fname))
    co, contra = entwined_objects(e), contra_objects(e)
    cases = [
        ([regular_right_module(e.alg), co["mc"].as_module()],
         lambda x, y: [right_action_square(x.action, y.action, n)],
         ref.module_hom_right_conditions),
        ([regular_left_module(e.alg), dual_left_module(e.alg), contra["at"].as_module()],
         lambda x, y: [left_action_square(x.action, y.action, n)],
         ref.module_hom_left_conditions),
        ([regular_comodule(e.coalg), co["tc"].as_comodule(), co["zero"].as_comodule()],
         lambda x, y: [coaction_square(x.coaction, y.coaction, c)],
         ref.comodule_hom_conditions),
        ([free_contramodule(e.coalg, 1), contra["ct"].as_contra(),
          contra["zero"].as_contra()],
         lambda x, y: [right_action_square(x.pi, y.pi, c)],
         ref.plain_contra_hom_conditions),
    ]
    for objs, forms_of, closures_of in cases:
        for x in objs:
            for y in objs:
                assert_same(F, rng, (y.dim, x.dim), forms_of(x, y), closures_of(x, y))


def graded_galois(F, n, c):
    """kZ_n coacting by the grading g^i |-> g^i (x) x_{i mod c} over the
    group-like coalgebra on c points; its coinvariants are the span of
    the g^i with c | i."""
    coact = [[0] * n for _ in range(n * c)]
    for i in range(n):
        coact[i * c + i % c][i] = 1
    return measuring.GaloisData(group_algebra(n, F).alg, group_like_coalgebra(F, c),
                                Mat.from_rows(F, coact))


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("case", ["regular-2", "regular-3", "graded-4-2", "graded-6-3"])
def test_coinvariant_conditions(case, fname):
    """One term list holds every coinvariant condition: its column i is the
    closure of the i-th basis vector."""
    F = FIELDS[fname]
    kind, *sizes = case.split("-")
    if kind == "regular":
        h = group_algebra(int(sizes[0]), F)
        g = measuring.GaloisData(h.alg, h.coalg, h.coalg.comult)
    else:
        g = graded_galois(F, *map(int, sizes))
    n = g.alg.dim
    closures = ref.coinvariant_conditions(g)
    space = mat_solution_basis(F, n, 1, closures)
    got = measuring.coinvariants(g)
    assert got.space == space
    if kind == "graded":
        assert got.dim == n // int(sizes[1])
    form = measuring._coinvariant_condition(g)
    assert mat_solution_basis(F, n, 1, [form]) == space
    rng = random.Random("%s-%s" % (case, fname))
    for _ in range(2):
        b = random_map(F, rng, n, 1)
        assert form(b) == hstack([cond(b) for cond in closures])


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", NAMES)
def test_probe_perturbation_conditions(name, fname):
    """The perturbation systems of the retraction and of the section of the
    probe, as `criteria._probe_side` poses them, on both sides."""
    F = FIELDS[fname]
    e = entwinings(F)[name]
    rng = random.Random("%s-%s-probe" % (name, fname))
    sides = [
        (induce_contra_t(e, free_contramodule(e.coalg, 1)), criteria._dsum_contra,
         contra_morphism_conditions, ref.contra_morphism_conditions),
        (induce_tc(e, regular_comodule(e.coalg)), criteria._dsum_entwined,
         morphism_conditions, ref.morphism_conditions),
    ]
    for x1, dsum, conditions, ref_conditions in sides:
        y = dsum(x1, x1)
        dims = [x1.dim, x1.dim]
        inc, proj = block_inj(F, dims, 0), block_proj(F, dims, 0)
        after_inc, before_proj = criteria._splitting_perturbations(inc, proj)
        ref_after, ref_before = ref.splitting_perturbations(inc, proj)
        assert_same(F, rng, (x1.dim, y.dim), [conditions(y, x1)[1], after_inc],
                    [ref_conditions(y, x1)[1], ref_after])
        assert_same(F, rng, (y.dim, x1.dim), [conditions(x1, y)[1], before_proj],
                    [ref_conditions(x1, y)[1], ref_before])


def explicit(form: TermList, shape) -> TermList:
    """The same term list with every implicit identity written out."""
    F = next(m.field for t in form.terms for m in (t.left, t.lifts[0].right)
             if m is not None)
    rows, cols = shape
    terms = []
    for t in form.terms:
        lifts = []
        for lift in t.lifts:
            right = lift.right or Mat.identity(F, lift.a * cols * lift.b)
            lifts.append(Lift(lift.a, lift.b, right, side=lift.side))
        first = t.lifts[0]
        left = t.left or Mat.identity(F, first.a * rows * first.b)
        terms.append(Term(t.coeff, left, tuple(lifts)))
    return TermList(tuple(terms), form.const, form.shape)


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", ["dk2", "ut", "gl2"])
def test_implicit_identities_match_explicit_ones(name, fname):
    F = FIELDS[fname]
    e = entwinings(F)[name]
    rng = random.Random("%s-%s-implicit" % (name, fname))
    co, contra = entwined_objects(e), contra_objects(e)
    dims = [co["tc"].dim, co["tc"].dim]
    inc, proj = block_inj(F, dims, 0), block_proj(F, dims, 0)
    cases = ([(form, (co["tc"].dim, co["mc"].dim))
              for form in morphism_conditions(co["mc"], co["tc"])]
             + [(form, (contra["ct"].dim, contra["sum"].dim))
                for form in contra_morphism_conditions(contra["sum"], contra["ct"])]
             + list(zip(criteria._splitting_perturbations(inc, proj),
                        [(dims[0], 2 * dims[0]), (2 * dims[0], dims[0])])))
    for form, shape in cases:
        assert any(t.left is None or t.lifts[0].right is None for t in form.terms)
        full = explicit(form, shape)
        assert affine_matrix_system(F, *shape, form) == affine_matrix_system(F, *shape, full)
        assert mat_solution_basis(F, *shape, [form]) == mat_solution_basis(F, *shape, [full])
        for _ in range(2):
            f = random_map(F, rng, *shape)
            assert form(f) == full(f)


def test_value_shape_must_be_stated_without_factors():
    F = FIELDS["F5"]
    with pytest.raises(ValueError, match="value shape"):
        TermList((Term(1, None, (Lift(1, 1),)),))
    form = TermList((Term(1, None, (Lift(1, 1),)),), shape=(2, 3))
    f = random_map(F, random.Random(0), 2, 3)
    assert form(f) == f


def test_package_passes_no_closures(monkeypatch, capsys):
    """Every command of the shipped example, the hom spaces and both
    measuring adjunctions run with assembly by unit evaluation disabled:
    no system of the package comes from a closure."""
    from pathlib import Path

    from entwine import cli, exactlin
    from entwine.algstruct import comodule_hom, module_hom_left, module_hom_right
    from entwine.comodcat import hom_space
    from entwine.contracat import contra_hom_space

    def refuse(*args):
        raise AssertionError("a closure was evaluated on matrix units")

    monkeypatch.setattr(exactlin, "_unit_system", refuse)
    kz2 = str(Path(cli.__file__).parent / "examples" / "kZ2.json")
    for argv in (["check"], ["galois", "G"], ["measuring", "I"], ["cotensor", "I", "M"],
                 ["hattensor", "I", "M"], ["cohom", "I", "N"], ["homtilde", "I", "N"],
                 ["separability", "E"], ["cointegral", "E"], ["frobenius", "E"],
                 ["maschke-probe", "E"]):
        assert cli.main([argv[0], kz2, *argv[1:]]) in (0, 1), argv
    capsys.readouterr()
    F = FIELDS["Q"]
    e = entwinings(F)["dk2"]
    co, contra = entwined_objects(e), contra_objects(e)
    hom_space(co["mc"], co["tc"])
    contra_hom_space(contra["at"], contra["ct"])
    module_hom_right(co["mc"].as_module(), co["tc"].as_module())
    module_hom_left(contra["at"].as_module(), contra["ct"].as_module())
    comodule_hom(co["mc"].as_comodule(), co["tc"].as_comodule())
    m = measuring.identity_measuring(e)
    assert measuring.adjunction_check_measuring(m, co["mc"], co["tc"]).passed
    assert measuring.adjunction_check_measuring(m, contra["at"], contra["ct"]).passed
