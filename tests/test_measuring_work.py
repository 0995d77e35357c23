"""Work per call of the induced functors, (co)units and adjunctions.

Each induced functor of `entwine.measuring` is built once per call, with
its presentation (kernel inclusion or cokernel), and the (co)units and
adjunctions read from that presentation.  Each construction builds its
measuring's twist once: the cotensor's t_upper one alpha twist for both
cofree objects of its morphism check, the hat tensor one gamma twist for
its free object, which it builds without comodule_side_induce.
check_measuring builds each twist once for its three mixed identities.
The contramodule side is the comodule side at transposed objects, so it
makes the comodule side's calls and one `transpose` per object it takes
in or hands back.  This test counts the calls that go through the
module's globals on the identity measuring of the regular Doi-Koppinen
entwining of kZ2 over Q, and pins them exactly.

The Galois half computes the coinvariants and the canonical map in one
canonical_map call per command, and galois_measuring tests bijectivity by
inverting the canonical map, without a rank.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from entwine import cli, exactlin, measuring
from entwine.exactlin import Field
from entwine.algstruct import (
    dual_left_module, group_algebra, regular_comodule, regular_right_module,
)
from entwine.entwining import regular_doi_koppinen
from entwine.comodcat import induce_mc, induce_tc
from entwine.contracat import free_contramodule, induce_a_t, induce_contra_t
from corpus import graded_algebras, graded_galois, write_galois_workspace

COUNTED = ("_alpha_twist", "_gamma_twist", "comodule_side_induce", "contra_induce",
           "kernel_basis", "cokernel", "t_lower", "s_upper", "s_lower", "transpose")

E = regular_doi_koppinen(group_algebra(2, Field.rational()))
M = measuring.identity_measuring(E)
MC = induce_mc(E, regular_right_module(E.alg))
TC = induce_tc(E, regular_comodule(E.coalg))
AT = induce_a_t(E, dual_left_module(E.alg))
CT = induce_contra_t(E, free_contramodule(E.coalg, 1))

CO = {"_alpha_twist": 1, "_gamma_twist": 1, "kernel_basis": 1, "cokernel": 1, "t_lower": 1}
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
                 {"_alpha_twist": 1, "kernel_basis": 1}),
    "cohom": (lambda: measuring.cohom(M, AT),
              {"_alpha_twist": 1, "kernel_basis": 1, "transpose": 2}),
    "hat_tensor": (lambda: measuring.hat_tensor(M, TC),
                   {"_gamma_twist": 1, "cokernel": 1, "t_lower": 1}),
    "hom_tilde": (lambda: measuring.hom_tilde(M, CT),
                  {"_gamma_twist": 1, "cokernel": 1, "t_lower": 1, "transpose": 2}),
    "check_measuring": (lambda: measuring.check_measuring(M),
                        {"_alpha_twist": 1, "_gamma_twist": 1}),
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


KZ2_PATH = Path(cli.__file__).parent / "examples" / "kZ2.json"


def _galois_data(name):
    if name == "kZ2":
        return cli.parse_workspace(str(KZ2_PATH)).galois["G"]
    return graded_galois(*graded_algebras(Field.rational())[name])


def _galois_command(name, tmp_path, capsys):
    path = KZ2_PATH
    if name != "kZ2":
        path = tmp_path / "graded.json"
        write_galois_workspace(_galois_data(name), path)
    code = cli.main(["galois", str(path), "G"])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("name", ["kZ2", "m2-z2"])
@pytest.mark.parametrize("call", ["command", "galois_measuring", "galois_entwining"])
def test_galois_calls_compute_the_coinvariants_once(name, call, tmp_path, capsys,
                                                    monkeypatch):
    can = measuring.canonical_map(_galois_data(name))[-1]
    coinvariant_calls, ranked = [], []

    def counted_coinvariants(g, _f=measuring.coinvariants):
        coinvariant_calls.append(g)
        return _f(g)

    def counted_rank(m, _f=exactlin.rank):
        ranked.append(m)
        return _f(m)

    monkeypatch.setattr(measuring, "coinvariants", counted_coinvariants)
    for module in (exactlin, measuring, cli):
        monkeypatch.setattr(module, "rank", counted_rank)
    if call == "command":
        assert _galois_command(name, tmp_path, capsys) == 0
    else:
        getattr(measuring, call)(_galois_data(name))
    assert len(coinvariant_calls) == 1
    # Only the command takes the canonical map's rank, which it reports.
    assert sum(m == can for m in ranked) == (call == "command")
