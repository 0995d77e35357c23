"""Transposition on the dual basis between the contramodule and the
comodule side.

`contracat.transpose` sends an entwined contramodule to an entwined
module, a contramodule to a comodule and a left module to a right
module, and back.  The contramodule induction functors of `contracat`,
the contramodule half of `measuring` and the contramodule Maschke
averaging of `criteria` are the comodule half at transposed objects,
transposed.  The digests below pin their outputs: each
is the sha256 of the outputs serialized one line each, and was computed on
the code in which the contramodule side still stated its own formulas
(through hom_pre, under and curry_left), before it was made the
transpose.  A change that alters an output on purpose updates the digest
and records why.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from entwine import criteria, measuring
from entwine.exactlin import Field, Mat, SubspaceBasis, basis_columns, hstack, same_subspace, vec
from entwine.report import mat_as_lists
from entwine.algstruct import (
    Comodule, ModuleLeft, ModuleRight, dual_left_module, group_algebra,
    regular_comodule, regular_left_module, regular_right_module, trunc_poly_algebra,
)
from entwine.comodcat import (
    EntwinedModule, check_entwined_module, hom_space, induce_mc, induce_tc,
)
from entwine.contracat import (
    ContraModule, EntwinedContraModule, check_entwined_contramodule,
    contra_hom_space, free_contramodule, induce_a_t, induce_contra_t, transpose,
)
import corpus

FIELDS = (Field.rational(), Field.prime(2), Field.prime(3), Field.prime(5))
PAIRS = {EntwinedContraModule: EntwinedModule, ContraModule: Comodule,
         ModuleLeft: ModuleRight}
DUALS = {**PAIRS, **{co: contra for contra, co in PAIRS.items()}}


def contra_objects(e):
    """The representing entwined contramodules (C, A*) and (A, C*)."""
    return (induce_a_t(e, dual_left_module(e.alg)),
            induce_contra_t(e, free_contramodule(e.coalg, 1)))


def objects(e):
    """One object of each of the six types, two of each entwined type."""
    at, ct = contra_objects(e)
    return [at, ct, induce_tc(e, regular_comodule(e.coalg)),
            induce_mc(e, regular_right_module(e.alg)),
            free_contramodule(e.coalg, 2), regular_comodule(e.coalg),
            dual_left_module(e.alg), regular_right_module(e.alg)]


def perturbed(x: EntwinedContraModule, rng) -> EntwinedContraModule:
    """x with one entry of pi moved by one."""
    i, j = rng.randrange(x.pi.rows), rng.randrange(x.pi.cols)
    bump = Mat._of(x.pi.field, x.pi.rows, x.pi.cols,
                   ({j: x.pi.field.one} if r == i else {} for r in range(x.pi.rows)))
    return EntwinedContraModule(x.ent, x.dim, x.pi + bump, x.action)


# The corpus entwinings over every field, keyed "<field>-<name>".
ENTWININGS = {"%s-%s" % (F.label(), name): e
              for F in FIELDS for name, e in sorted(corpus.entwinings(F).items())}


@pytest.mark.parametrize("key", ENTWININGS)
def test_transpose_is_an_involution(key):
    e = ENTWININGS[key]
    for x in objects(e):
        t = transpose(x)
        assert type(t) is DUALS[type(x)]
        assert t.dim == x.dim
        assert transpose(t) == x


def test_transpose_rejects_other_objects():
    e = corpus.entwinings(FIELDS[0])["dk2"]
    for bad in (e, e.alg, Mat.identity(e.field, 2)):
        with pytest.raises(ValueError):
            transpose(bad)


@pytest.mark.parametrize("field", [FIELDS[0], FIELDS[1], FIELDS[3]], ids=["Q", "F2", "F5"])
def test_dual_left_module_is_the_transposed_regular_right_module(field):
    """A* is the regular right module transposed, and its action is the
    one (a.f)(x) = f(xa) states on the dual basis: action[j, (s, i)] =
    mult[i, (j, s)]."""
    algs = [e.alg for e in corpus.entwinings(field).values()]
    algs += [group_algebra(4, field).alg, trunc_poly_algebra(3, field)]
    if field.kind == "rational":
        algs += [e.alg for e in corpus.tall_entwinings().values()]
    for a in algs:
        n, x = a.dim, dual_left_module(a)
        assert x == transpose(regular_right_module(a))
        assert all(x.action[j, s * n + i] == a.mult[i, j * n + s]
                   for i in range(n) for j in range(n) for s in range(n))


@pytest.mark.parametrize("key", ENTWININGS)
def test_checks_agree_under_transpose(key):
    e = ENTWININGS[key]
    rng = random.Random(key)
    xs = list(contra_objects(e))
    xs += [perturbed(x, rng) for x in xs]
    verdicts = []
    for x in xs:
        verdicts.append(check_entwined_contramodule(x).passed)
        assert verdicts[-1] == check_entwined_module(transpose(x)).passed
    assert verdicts[:2] == [True, True]
    assert False in verdicts[2:]


def transposed_space(space: SubspaceBasis, rows: int, cols: int) -> SubspaceBasis:
    """The maps of space, each rows x cols, transposed."""
    F = space.basis.field
    mats = basis_columns(F, space.basis, rows, cols)
    if not mats:
        return SubspaceBasis(rows * cols, Mat.zeros(F, rows * cols, 0))
    return SubspaceBasis(rows * cols, hstack([vec(f.t) for f in mats]))


@pytest.mark.parametrize("key", ENTWININGS)
def test_hom_spaces_agree_under_transpose(key):
    xs = contra_objects(ENTWININGS[key])
    for x in xs:
        for y in xs:
            contra = contra_hom_space(x, y)
            co = hom_space(transpose(y), transpose(x))
            assert contra.dim == co.dim
            assert same_subspace(contra, transposed_space(co, x.dim, y.dim))


# -- digests of the contramodule-side outputs --------------------------


def measurings():
    """Identity measurings of the corpus over every field, then the Galois
    measurings of kZ2 and kZ3 over Q and F_3."""
    for e in ENTWININGS.values():
        yield measuring.identity_measuring(e)
    for F in (FIELDS[0], FIELDS[2]):
        for n in (2, 3):
            h = group_algebra(n, F)
            yield measuring.galois_measuring(
                measuring.GaloisData(h.alg, h.coalg, h.coalg.comult))


def functor_outputs(name):
    """The functor on both representing objects over the side it takes."""
    fn = getattr(measuring, name)
    for m in measurings():
        for x in contra_objects(m.dst if name in ("cohom", "unit_psi") else m.src):
            yield fn(m, x)


def maschke_outputs():
    """The averages of the first four contramodule maps x -> y, for five
    pairs of objects over the regular entwinings of kZ2 and kZ3."""
    for F in FIELDS:
        for name in ("dk2", "dk3"):
            e = corpus.entwinings(F)[name]
            ci = criteria.Cointegral.from_verdict(e, criteria.find_cointegral(e))
            at, ct = contra_objects(e)
            y = corpus.direct_sum_contra(ct, ct)
            for x, z in ((ct, ct), (ct, at), (at, ct), (y, ct), (ct, y)):
                space = corpus.plain_contra_hom(x.as_contra(), z.as_contra())
                for f in basis_columns(F, space.basis, z.dim, x.dim)[:4]:
                    yield criteria.maschke_split_contra(e, ci, x, z, f)


def induce_contra_t_outputs():
    """The induction on free contramodules of rank 0, 1 and 2 and on the
    transposed regular comodule, over every corpus entwining."""
    for e in ENTWININGS.values():
        c = e.coalg
        for n in (free_contramodule(c, 0), free_contramodule(c, 1),
                  free_contramodule(c, 2), transpose(regular_comodule(c))):
            yield induce_contra_t(e, n)


def induce_a_t_outputs():
    """The induction on the zero, the regular and the dual left module,
    over every corpus entwining."""
    for e in ENTWININGS.values():
        a = e.alg
        for m in (ModuleLeft(a, 0, Mat.zeros(e.field, 0, 0)),
                  regular_left_module(a), dual_left_module(a)):
            yield induce_a_t(e, m)


OUTPUTS = {
    "cohom": lambda: functor_outputs("cohom"),
    "hom_tilde": lambda: functor_outputs("hom_tilde"),
    "unit_psi": lambda: functor_outputs("unit_psi"),
    "counit_phi": lambda: functor_outputs("counit_phi"),
    "maschke_split_contra": maschke_outputs,
    "induce_contra_t": induce_contra_t_outputs,
    "induce_a_t": induce_a_t_outputs,
}

DIGESTS = {
    "cohom": "7e898770eaf616a85a37f0601d1c1d5e2b6142b3bda55cbb579654e9d862664b",
    "hom_tilde": "f496b3e5a41969d685c8d6e24a803b469484089f4fc110ff80abda285320143b",
    "unit_psi": "47ff70188139d2008e1f40a03ff30471048ce3b78de2f5e8325b560a87441861",
    "counit_phi": "0cd7ae7db339fc6f60d7070dc89af5ec35d6e0605ba370e1b610fce554a5b062",
    "maschke_split_contra":
        "14e80c692afefb094ce79f7dec5dc6baf8ee5f07c28f346e87d91491430a7d15",
    "induce_contra_t": "b6e0edf711ba808c07461168dd08d0f80c7bc9c4d88e0d9813f3701043183959",
    "induce_a_t": "bd8213845cea46f4cba2df600fab52fe6835e752853cf54454cd27af40bbf58e",
}


def serialized(x) -> bytes:
    if isinstance(x, EntwinedContraModule):
        d = {"dim": x.dim, "pi": mat_as_lists(x.pi), "action": mat_as_lists(x.action)}
    else:
        d = {"shape": [x.rows, x.cols], "entries": mat_as_lists(x)}
    return json.dumps(d, sort_keys=True).encode() + b"\n"


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_outputs_match_their_digest(name):
    h = hashlib.sha256()
    for out in OUTPUTS[name]():
        h.update(serialized(out))
    assert h.hexdigest() == DIGESTS[name]
