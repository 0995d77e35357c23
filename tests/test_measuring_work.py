"""Work per call of the induced functors, (co)units and adjunctions.

Each induced functor of `entwine.measuring` is built once per call, with
its presentation (kernel inclusion or cokernel), and the (co)units and
adjunctions read from that presentation.  The contramodule side is the
comodule side at transposed objects, so it makes the comodule side's
calls and one `transpose` per object it takes in or hands back.  This
test counts the calls that go through the module's globals on the
identity measuring of the regular Doi-Koppinen entwining of kZ2 over Q,
and pins them exactly.
"""

from __future__ import annotations

import pytest

from entwine import measuring
from entwine.exactlin import Field
from entwine.algstruct import (
    dual_left_module, group_algebra, regular_comodule, regular_right_module,
)
from entwine.entwining import regular_doi_koppinen
from entwine.comodcat import induce_mc, induce_tc
from entwine.contracat import free_contramodule, induce_a_t, induce_contra_t

COUNTED = ("comodule_side_induce", "contra_induce", "kernel_basis", "cokernel",
           "t_lower", "s_upper", "s_lower", "transpose")

E = regular_doi_koppinen(group_algebra(2, Field.rational()))
M = measuring.identity_measuring(E)
MC = induce_mc(E, regular_right_module(E.alg))
TC = induce_tc(E, regular_comodule(E.coalg))
AT = induce_a_t(E, dual_left_module(E.alg))
CT = induce_contra_t(E, free_contramodule(E.coalg, 1))

CO = {"comodule_side_induce": 3, "kernel_basis": 1, "cokernel": 1, "t_lower": 1}
# A contramodule (co)unit transposes its argument, and the adjunction both
# objects; the map that comes back is transposed by Mat.t, not counted.
CONTRA = dict(CO, transpose=1)

CASES = {
    "adjunction-co": (lambda: measuring.adjunction_check_measuring(M, MC, TC), CO),
    "unit_omega": (lambda: measuring.unit_omega(M, TC), CO),
    "counit_upsilon": (lambda: measuring.counit_upsilon(M, MC), CO),
    "adjunction-contra": (lambda: measuring.adjunction_check_measuring(M, AT, CT),
                          dict(CO, transpose=2)),
    "unit_psi": (lambda: measuring.unit_psi(M, AT), CONTRA),
    "counit_phi": (lambda: measuring.counit_phi(M, CT), CONTRA),
    "cotensor": (lambda: measuring.cotensor(M, MC),
                 {"comodule_side_induce": 2, "kernel_basis": 1}),
    "cohom": (lambda: measuring.cohom(M, AT),
              {"comodule_side_induce": 2, "kernel_basis": 1, "transpose": 2}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_calls_per_call(case, monkeypatch):
    counts = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        def counted(*args, _name=name, _f=getattr(measuring, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(measuring, name, counted)
    call, expected = CASES[case]
    result = call()
    assert getattr(result, "passed", True)
    assert counts == dict(dict.fromkeys(COUNTED, 0), **expected)
