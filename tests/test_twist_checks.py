"""The measuring and entwined-module checks against their identities
written out in Kronecker products.

`measuring.check_measuring` reads its three mixed identities through the
measuring's twists (`_alpha_twist`, `_gamma_twist`), and
`comodcat.check_entwined_module` reads its square through the cofree
action.  The references below state every identity as one composite of
`kron`s and products, with neither twist named.  Each composite is the
same matrix either way, so the reports must be equal as dictionaries,
failure witnesses included: the checks are compared on the identity and
Galois measurings of the corpus and on its induced entwined modules, each
also with single entries of its structure maps moved by one.
"""

from __future__ import annotations

import random

import pytest

from entwine import measuring
from entwine.exactlin import Field, Mat, kron
from entwine.report import Report, eq_check
from entwine.algstruct import (
    check_comodule, check_module_right, regular_comodule, regular_right_module,
)
from entwine.comodcat import EntwinedModule, check_entwined_module, induce_mc, induce_tc
import corpus

FIELDS = (Field.rational(), Field.prime(2), Field.prime(5),
          Field.prime(2**64 - 59))
BUMPS = 6


def reference_check_measuring(m: measuring.Measuring) -> Report:
    """The five measuring identities, each one composite of krons."""
    rep = Report("measuring")
    F = m.field
    n, c = m.dst.alg.dim, m.dst.coalg.dim
    np_, cp = m.src.alg.dim, m.src.coalg.dim
    mult, unit = m.dst.alg.mult, m.dst.alg.unit
    comult, counit = m.dst.coalg.comult, m.dst.coalg.counit
    multp, unitp = m.src.alg.mult, m.src.alg.unit
    comultp, counitp = m.src.coalg.comult, m.src.coalg.counit
    psi, psip = m.dst.psi, m.src.psi
    al, ga = m.alpha, m.gamma
    i_n, i_c = Mat.identity(F, n), Mat.identity(F, c)
    i_np, i_cp = Mat.identity(F, np_), Mat.identity(F, cp)
    rep.add(eq_check(
        "alpha-mult",
        al * kron(i_cp, multp),
        mult * kron(al, al) * kron(i_cp, kron(psip, i_np))
        * kron(comultp, Mat.identity(F, np_ * np_))))
    rep.add(eq_check("alpha-unit", al * kron(i_cp, unitp), unit * counitp))
    rep.add(eq_check(
        "gamma-comult",
        kron(i_n, comult) * ga,
        kron(mult, Mat.identity(F, c * c)) * kron(i_n, kron(psi, i_c))
        * kron(ga, ga) * comultp))
    rep.add(eq_check("gamma-counit", kron(i_n, counit) * ga, unit * counitp))
    rep.add(eq_check(
        "alpha-gamma-compat",
        kron(mult, i_c) * kron(al, ga) * kron(i_cp, psip) * kron(comultp, i_np),
        kron(mult, i_c) * kron(i_n, psi) * kron(ga, al) * kron(comultp, i_np)))
    return rep


def reference_check_entwined_module(x: EntwinedModule) -> Report:
    """The module and comodule axioms, then the square
    coaction o action = (action (x) C)(M (x) psi)(coaction (x) A)."""
    rep = Report("entwined-module")
    for ch in check_module_right(x.as_module()).checks + check_comodule(x.as_comodule()).checks:
        rep.add(ch)
    e = x.ent
    F = e.field
    rep.add(eq_check(
        "action-coaction-compat",
        x.coaction * x.action,
        kron(x.action, Mat.identity(F, e.coalg.dim)) * kron(Mat.identity(F, x.dim), e.psi)
        * kron(x.coaction, Mat.identity(F, e.alg.dim))))
    return rep


def bumps(a: Mat, rng) -> list:
    """BUMPS copies of a, each with one entry moved by one."""
    F, out = a.field, []
    for _ in range(BUMPS):
        i, j = rng.randrange(a.rows), rng.randrange(a.cols)
        out.append(a + Mat._of(F, a.rows, a.cols,
                               ({j: F.one} if r == i else {} for r in range(a.rows))))
    return out


def _measurings():
    out = {}
    for F in FIELDS:
        for name, e in sorted(corpus.entwinings(F).items()):
            out["%s-identity-%s" % (F.label(), name)] = measuring.identity_measuring(e)
        for name, spec in sorted(corpus.graded_algebras(F).items()):
            g = corpus.graded_galois(*spec)
            if measuring.is_galois(g):
                out["%s-galois-%s" % (F.label(), name)] = measuring.galois_measuring(g)
    return out


def _modules():
    out = {}
    for F in FIELDS:
        for name, e in sorted(corpus.entwinings(F).items()):
            out["%s-tc-%s" % (F.label(), name)] = induce_tc(e, regular_comodule(e.coalg))
            out["%s-mc-%s" % (F.label(), name)] = induce_mc(e, regular_right_module(e.alg))
    return out


MEASURINGS = _measurings()
MODULES = _modules()


@pytest.mark.parametrize("key", sorted(MEASURINGS))
def test_check_measuring_matches_the_kron_composites(key):
    m = MEASURINGS[key]
    rng = random.Random(key)
    cases = ([m] + [measuring.Measuring(m.src, m.dst, a, m.gamma) for a in bumps(m.alpha, rng)]
             + [measuring.Measuring(m.src, m.dst, m.alpha, g) for g in bumps(m.gamma, rng)])
    reports = [measuring.check_measuring(k).as_dict() for k in cases]
    assert reports == [reference_check_measuring(k).as_dict() for k in cases]
    assert reports[0]["passed"]
    assert not all(r["passed"] for r in reports[1:])


@pytest.mark.parametrize("key", sorted(MODULES))
def test_check_entwined_module_matches_the_kron_composite(key):
    x = MODULES[key]
    rng = random.Random(key)
    cases = ([x] + [EntwinedModule(x.ent, x.dim, a, x.coaction) for a in bumps(x.action, rng)]
             + [EntwinedModule(x.ent, x.dim, x.action, c) for c in bumps(x.coaction, rng)])
    reports = [check_entwined_module(k).as_dict() for k in cases]
    assert reports == [reference_check_entwined_module(k).as_dict() for k in cases]
    assert reports[0]["passed"]
    assert not all(r["passed"] for r in reports[1:])
