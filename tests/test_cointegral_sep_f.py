"""The normalized cointegral is a normalized rho family: one system decides both.

For an entwining (A, C, psi) with n = dim A and c = dim C, a map
phi: A* (x) C -> A is a normalized cointegral exactly when
th = (I_n (x) phi)(coev (x) I_c): C -> A (x) A, th[(i, j), k] =
phi[j, (i, k)], is a normalized rho family, which splits the forgetful
functor from entwined modules to C-comodules (Brzezinski, Proc. AMS 128,
2000; Caenepeel-Militaru-Zhu, Frobenius and Separable Functors for
Generalized Module Categories and Nonlinear Equations, LNM 1787, 2002).
The three cointegral identities are sep-f's three, term for term, so
`find_cointegral` solves sep-f's system with the unknown's columns
relabelled into phi's layout.

Checked here on the corpus entwinings and on the regular Doi-Koppinen
entwinings of kZ2..kZ5, over Q, F_2, F_3 and F_5: `find_cointegral` and
`decide_sep_co_f` agree on the status; a FOUND phi passes the
structure-constant oracle of the cointegral identities; and the th built
from it passes the rho component equations at dimensions 1 and 2.  Both
the oracle and the component equations are written independently of the
term lists the deciders solve.
"""

from __future__ import annotations

import pytest

from entwine import criteria
from entwine.algstruct import group_algebra
from entwine.entwining import regular_doi_koppinen
from entwine.exactlin import Field, Mat, block_inj, block_proj
from components import rho_equations_co, theta_of_phi
from corpus import entwinings
from oracles import cointegral_conditions_oracle

FIELDS = {"Q": Field.rational(), "F2": Field.prime(2), "F3": Field.prime(3),
          "F5": Field.prime(5)}


def instances(field: Field) -> dict:
    out = dict(entwinings(field))
    for n in range(2, 6):
        out["dk%d" % n] = regular_doi_koppinen(group_algebra(n, field))
    return out


NAMES = sorted(instances(Field.rational()))


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("name", NAMES)
def test_cointegral_is_a_normalized_rho_family(name, fname):
    e = instances(FIELDS[fname])[name]
    v, w = criteria.find_cointegral(e), criteria.decide_sep_co_f(e)
    assert v.status == w.status
    assert v.data == w.data
    if not v.found:
        return
    phi = v.witness["phi"]
    assert cointegral_conditions_oracle(e, phi)
    th = theta_of_phi(e, phi)
    for m in (1, 2):
        assert all(r.is_zero() for r in rho_equations_co(e, th, m)), m


def test_both_statuses_occur():
    """The statuses compared above are not all one: the trivial
    entwining of k[x]/x^2 has no cointegral, and the regular
    Doi-Koppinen entwining of kZ_n has one in every characteristic."""
    statuses = {(name, fname): criteria.find_cointegral(instances(F)[name]).status
                for fname, F in FIELDS.items() for name in ("tp2", "dk2", "dk4")}
    assert {s for (name, _), s in statuses.items() if name == "tp2"} == {"NONE"}
    assert {s for (name, _), s in statuses.items() if name != "tp2"} == {"FOUND"}


def term_list_builders(e):
    """Every term list the deciders and the probe of `criteria` build."""
    F = e.field
    dims = [2, 2]
    yield from criteria._v1p_residual(e)
    yield criteria._v1p_norm(e)
    yield from criteria._sep_f_identities(e)
    yield from criteria._frobenius_couplings_co(e)
    yield from criteria._splitting_perturbations(block_inj(F, dims, 0), block_proj(F, dims, 0))


@pytest.mark.parametrize("name", NAMES)
def test_no_term_list_carries_an_identity_factor(name, monkeypatch):
    """Identity factors are left implicit (None): no left, right or middle
    factor of a term is an identity Mat built for it."""
    e = instances(Field.rational())[name]
    built = []
    real = Mat.identity

    def identity(field, n):
        m = real(field, n)
        built.append(m)
        return m

    monkeypatch.setattr(Mat, "identity", staticmethod(identity))
    forms = list(term_list_builders(e))
    assert built, "the builders no longer build an identity; the check is vacuous"
    ids = set(map(id, built))
    for form in forms:
        for t in form.terms:
            factors = [t.left] + [lift.right for lift in t.lifts]
            assert not any(id(f) in ids for f in factors if f is not None), (name, t)
