"""A rational FOUND survives reduction mod p when its witness is p-integral.

For each decider with witnesses (separability, cointegral, Frobenius) and
each corpus entwining over Q with a FOUND verdict, and each p in {2, 3, 5}
for which every witness entry is p-integral: the workspace read with
`--field prime:p` must give FOUND again, and the witness reduced mod p must
satisfy the component equations of `components` (for a cointegral, the
conditions of `oracles`) over F_p.  The structure constants are integers
and reduction mod p is a ring map on p-integral rationals, so the reduced
witness is a witness.  A linear decider then finds one; the Frobenius
ladder is not complete in general, but on these instances it must find one
as well.
"""

from __future__ import annotations

import pytest

from entwine.cli import Workspace, parse_workspace, serialize_workspace
from entwine.exactlin import Field, Mat
from entwine import criteria
from corpus import entwinings
from oracles import cointegral_conditions_oracle
import components as cp

Q = Field.rational()
PRIMES = (2, 3, 5)


def _all_zero(mats):
    return all(m.is_zero() for m in mats)


def _at_dims(check):
    return lambda e, w: all(check(e, w, m) for m in (1, 2))


# decider name -> (witness keys, check of the witness over e's field).  Keyed
# by name, not by function: each contramodule decider is its comodule one
# under a second name, and its case still checks the witness against the
# independent contramodule equations.
DECIDERS = {
    "decide_sep_contra_t": (("e",), _at_dims(
        lambda e, w, m: _all_zero(cp.sigma_equations_contra(e, w["e"].t, m)))),
    "decide_sep_co_t": (("e",), _at_dims(
        lambda e, w, m: _all_zero(cp.sigma_equations_co(e, w["e"], m)))),
    "decide_sep_contra_f": (("theta",), _at_dims(
        lambda e, w, m: _all_zero(cp.rho_equations_contra(e, w["theta"], m)))),
    "decide_sep_co_f": (("theta",), _at_dims(
        lambda e, w, m: _all_zero(cp.rho_equations_co(e, w["theta"], m)))),
    "find_cointegral": (("phi",), lambda e, w: cointegral_conditions_oracle(e, w["phi"])),
    "decide_frobenius_contra": (("e", "theta"), _at_dims(lambda e, w, m: _all_zero(
        cp.sigma_equations_contra(e, w["e"].t, m)[:1]
        + cp.rho_equations_contra(e, w["theta"], m)[:2]
        + cp.frobenius_equations_contra(e, w["e"].t, w["theta"], m)))),
    "decide_frobenius_co": (("e", "theta"), _at_dims(lambda e, w, m: _all_zero(
        cp.sigma_equations_co(e, w["e"], m)[:1]
        + cp.rho_equations_co(e, w["theta"], m)[:2]
        + cp.frobenius_equations_co(e, w["e"], w["theta"], m)))),
}


@pytest.fixture(scope="module")
def workspace_path(tmp_path_factory):
    """The corpus entwinings over Q in one workspace file."""
    ents = entwinings(Q)
    ws = Workspace(Q, {n: e.alg for n, e in ents.items()},
                   {n: e.coalg for n, e in ents.items()}, ents, {}, {}, {}, {}, {})
    path = tmp_path_factory.mktemp("ws") / "corpus.json"
    path.write_text(serialize_workspace(ws) + "\n")
    return str(path)


def _reduce(F: Field, m: Mat) -> Mat:
    return Mat(F, m.rows, m.cols, tuple(F.of(x) for x in m.entries))


@pytest.mark.parametrize("decider", list(DECIDERS))
def test_p_integral_rational_witness_survives_reduction(decider, workspace_path):
    decide = getattr(criteria, decider)
    keys, check = DECIDERS[decider]
    reduced_ws = {p: parse_workspace(workspace_path, override=Field.prime(p))
                  for p in PRIMES}
    exercised = {p: 0 for p in PRIMES}
    for name, e in parse_workspace(workspace_path).entwinings.items():
        v = decide(e)
        if not v.found:
            continue
        assert check(e, v.witness)
        for p in PRIMES:
            if any(x.denominator % p == 0 for k in keys for x in v.witness[k].entries):
                continue
            F = Field.prime(p)
            ep = reduced_ws[p].entwinings[name]
            assert decide(ep).found, (name, p)
            assert check(ep, {k: _reduce(F, v.witness[k]) for k in keys}), (name, p)
            exercised[p] += 1
    assert all(exercised.values()), exercised
