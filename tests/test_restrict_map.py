"""Differential tests of `exactlin.restrict_map` against `solve_affine`.

restrict_map(f, dom, cod) is the g with cod g = f dom, unique when the
columns of cod are independent, so it must equal the particular solution
of solve_affine(cod, f dom) entry for entry, and refuse where that has
none.  A canonical codomain, with a unit row {j: 1} for each column j, is
read off and checked by one product, with no elimination; any other basis
is eliminated.  The canonical ones here are random kernel bases, their
kron with identities on either side, and zero-column bases; the others
are kernel bases times a random invertible matrix.  Maps into the span
and maps perturbed out of it are drawn for each, over Q, F_2, F_5 and
F64, the largest prime below 2^64.

The work pin: every restriction the induced functors, (co)units,
adjunctions and coinvariants of `entwine.measuring` make is into a
kernel basis, so none of them eliminates (`exactlin._rref_rows`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from entwine import cli, exactlin, measuring
from entwine.algstruct import (
    dual_left_module, group_algebra, regular_comodule, regular_right_module,
)
from entwine.comodcat import induce_mc, induce_tc
from entwine.contracat import free_contramodule, induce_a_t, induce_contra_t
from entwine.entwining import regular_doi_koppinen
from entwine.exactlin import (
    Field, Mat, kernel_basis, kron, rank, restrict_map, solve_affine,
)
from corpus import graded_algebras, graded_galois, tall_entwinings

FIELDS = {"Q": Field.rational(), "F2": Field.prime(2), "F5": Field.prime(5),
          "F64": Field.prime(18446744073709551557)}


def rand_mat(F, rng, rows, cols, fill=0.5):
    def entry():
        if rng.random() >= fill:
            return F.zero
        if F.kind == "rational":
            return F.of(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3])))
        return F.of(rng.randrange(1, F.p))
    return Mat(F, rows, cols, tuple(entry() for _ in range(rows * cols)))


def has_unit_rows(m):
    units = {j for r in m.nz if len(r) == 1 for j, x in r.items() if x == 1}
    return len(units) == m.cols


def invertible(F, rng, n):
    while True:
        p = rand_mat(F, rng, n, n, 0.7)
        if rank(p) == n:
            return p


def kernel_bases(F, rng):
    """Random kernel bases, a few with no column."""
    for _ in range(12):
        rows, cols = rng.randint(1, 5), rng.randint(1, 7)
        yield kernel_basis(rand_mat(F, rng, rows, cols, rng.choice((0.3, 0.6, 1.0))))
    yield kernel_basis(Mat.identity(F, 3))
    yield kernel_basis(Mat.zeros(F, 0, 0))


def canonical_bases(F, rng):
    for k in kernel_bases(F, rng):
        yield k
        a = rng.randint(1, 3)
        yield kron(k, Mat.identity(F, a))
        yield kron(Mat.identity(F, a), k)


def eliminated_bases(F, rng):
    """Kernel bases moved by a random invertible matrix, where that leaves
    some column without a unit row."""
    for k in kernel_bases(F, rng):
        if k.cols:
            b = k * invertible(F, rng, k.cols)
            if not has_unit_rows(b):
                yield b


def maps_into(F, rng, cod):
    """(f, dom) pairs: f dom in the span of cod, with an identity dom and
    with a random one, and the same f moved out of it by one entry."""
    for _ in range(3):
        a, d = rng.randint(1, 4), rng.randint(0, 3)
        f = cod * rand_mat(F, rng, cod.cols, a)
        for dom in (Mat.identity(F, a), rand_mat(F, rng, a, d)):
            yield f, dom
            if cod.rows and dom.cols:
                e = [[F.zero] * a for _ in range(cod.rows)]
                e[rng.randrange(cod.rows)][rng.randrange(a)] = F.one
                yield f + Mat.from_rows(F, e), dom


def count_eliminations(monkeypatch):
    calls = []
    real = exactlin._rref_rows

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(exactlin, "_rref_rows", counted)
    return calls


def check_against_solve(f, dom, cod, eliminations):
    want = solve_affine(cod, f * dom)
    del eliminations[:]
    if want is None:
        with pytest.raises(ValueError) as info:
            restrict_map(f, dom, cod)
        assert str(info.value) == "map does not restrict to the subspace"
        return "refused", len(eliminations)
    got = restrict_map(f, dom, cod)
    assert got == want[0]
    assert cod * got == f * dom
    if f.field.kind == "rational":
        assert all(type(x) is Fraction for r in got.nz for x in r.values())
    return "restricted", len(eliminations)


@pytest.mark.parametrize("name", FIELDS)
def test_canonical_codomains_are_read_off(name, monkeypatch):
    F, rng = FIELDS[name], random.Random(7)
    eliminations = count_eliminations(monkeypatch)
    seen = set()
    for cod in canonical_bases(F, rng):
        assert has_unit_rows(cod)
        for f, dom in maps_into(F, rng, cod):
            outcome, eliminated = check_against_solve(f, dom, cod, eliminations)
            assert eliminated == 0
            seen.add((outcome, cod.cols == 0))
    assert seen == {(o, z) for o in ("refused", "restricted") for z in (True, False)}


@pytest.mark.parametrize("name", FIELDS)
def test_other_bases_are_eliminated(name, monkeypatch):
    F, rng = FIELDS[name], random.Random(8)
    eliminations = count_eliminations(monkeypatch)
    seen, bases = set(), 0
    for cod in eliminated_bases(F, rng):
        bases += 1
        for f, dom in maps_into(F, rng, cod):
            outcome, eliminated = check_against_solve(f, dom, cod, eliminations)
            assert eliminated == 1
            seen.add(outcome)
    assert bases >= 3 and seen == {"refused", "restricted"}


def test_shape_and_field_refusals():
    Q = FIELDS["Q"]
    k = kernel_basis(Mat.from_rows(Q, [[1, 1, 0]]))
    with pytest.raises(ValueError, match="shape mismatch"):
        restrict_map(Mat.identity(Q, 2), Mat.identity(Q, 2), k)
    with pytest.raises(ValueError, match="field mismatch"):
        restrict_map(Mat.identity(Q, 3), Mat.identity(FIELDS["F5"], 3), k)


# -- work pin ---------------------------------------------------------


def functor_calls(e):
    m = measuring.identity_measuring(e)
    x = induce_tc(e, regular_comodule(e.coalg))
    y = induce_mc(e, regular_right_module(e.alg))
    u = induce_contra_t(e, free_contramodule(e.coalg, 1))
    v = induce_a_t(e, dual_left_module(e.alg))
    return {
        "cotensor": lambda: measuring.cotensor(m, x),
        "hat_tensor": lambda: measuring.hat_tensor(m, y),
        "cohom": lambda: measuring.cohom(m, v),
        "hom_tilde": lambda: measuring.hom_tilde(m, u),
        "unit_omega": lambda: measuring.unit_omega(m, x),
        "counit_upsilon": lambda: measuring.counit_upsilon(m, y),
        "unit_psi": lambda: measuring.unit_psi(m, v),
        "counit_phi": lambda: measuring.counit_phi(m, u),
        "adjunction-co": lambda: measuring.adjunction_check_measuring(m, y, x),
        "adjunction-contra": lambda: measuring.adjunction_check_measuring(m, v, u),
    }


ENTWININGS = {
    "dk3-Q": lambda: regular_doi_koppinen(group_algebra(3, FIELDS["Q"])),
    "dk3-F5": lambda: regular_doi_koppinen(group_algebra(3, FIELDS["F5"])),
    "dk2-tall": lambda: tall_entwinings()["dk2"],
}
GALOIS = {
    "kZ2": lambda: cli.parse_workspace(
        str(Path(cli.__file__).parent / "examples" / "kZ2.json")).galois["G"],
    "m2-z2": lambda: graded_galois(*graded_algebras(FIELDS["Q"])["m2-z2"]),
}
CASES = {"%s-%s" % (en, call): (en, call) for en in ENTWININGS
         for call in functor_calls(ENTWININGS["dk3-Q"]())}
CASES.update({"coinvariants-" + g: (None, g) for g in GALOIS})


@pytest.mark.parametrize("case", CASES)
def test_measuring_restrictions_eliminate_nothing(case, monkeypatch):
    en, call = CASES[case]
    run = (lambda: measuring.coinvariants(GALOIS[call]())) if en is None else \
        functor_calls(ENTWININGS[en]())[call]
    eliminated, restricted, inside = [], [], []
    real_restrict, real_rref = exactlin.restrict_map, exactlin._rref_rows

    def counted_restrict(*args):
        restricted.append(1)
        inside.append(1)
        try:
            return real_restrict(*args)
        finally:
            inside.pop()

    def counted_rref(*args):
        if inside:
            eliminated.append(1)
        return real_rref(*args)

    monkeypatch.setattr(measuring, "restrict_map", counted_restrict)
    monkeypatch.setattr(exactlin, "_rref_rows", counted_rref)
    result = run()
    assert getattr(result, "passed", True)
    # The hat tensor and hom_tilde descend along a cokernel and restrict nothing.
    assert bool(restricted) == (call not in ("hat_tensor", "hom_tilde"))
    assert eliminated == []
