"""Every record refuses a structure map of the wrong shape or field.

Each record of the model layer checks each of its maps on construction
with `exactlin.require_shape`: a map one row short raises ValueError
"<name> must be R x C", and the same map over F_5 in a record over Q
raises "field mismatch".  The table below names every record and every
map it holds; a valid record over Q is rebuilt with one map replaced.
The morphism guards refuse their map the same way.
"""

from __future__ import annotations

import re

import pytest

from entwine import criteria
from entwine.exactlin import Field, Mat, require_shape
from entwine.algstruct import (
    Algebra, Coalgebra, Comodule, ModuleLeft, ModuleRight, group_algebra,
    regular_comodule, regular_left_module, regular_right_module,
)
from entwine.entwining import (
    Entwining, check_entwining_morphism, doi_koppinen, regular_doi_koppinen,
)
from entwine.comodcat import EntwinedModule, induce_mc, induce_tc
from entwine.contracat import (
    ContraModule, EntwinedContraModule, free_contramodule, induce_contra_t,
)
from entwine.measuring import GaloisData, Measuring, identity_measuring
from entwine.criteria import Cointegral, find_cointegral

Q = Field.rational()
F5 = Field.prime(5)

H = group_algebra(2, Q)
E = regular_doi_koppinen(H)
PHI = find_cointegral(E).witness["phi"]

# a valid record over Q of each record class, and the names of its maps
RECORDS = [
    (H.alg, ("mult", "unit")),
    (H.coalg, ("comult", "counit")),
    (regular_right_module(H.alg), ("action",)),
    (regular_left_module(H.alg), ("action",)),
    (regular_comodule(H.coalg), ("coaction",)),
    (E, ("psi",)),
    (induce_mc(E, regular_right_module(H.alg)), ("action", "coaction")),
    (free_contramodule(H.coalg, 1), ("pi",)),
    (induce_contra_t(E, free_contramodule(H.coalg, 1)), ("pi", "action")),
    (identity_measuring(E), ("alpha", "gamma")),
    (GaloisData(H.alg, H.coalg, H.coalg.comult), ("coaction",)),
    (Cointegral(E, PHI), ("phi",)),
]

CASES = [(record, name) for record, names in RECORDS for name in names]
IDS = ["%s.%s" % (type(record).__name__, name) for record, name in CASES]


def one_row_short(m: Mat) -> Mat:
    return Mat._of(m.field, m.rows - 1, m.cols, m.nz[:-1])


def over_f5(m: Mat) -> Mat:
    return Mat(F5, m.rows, m.cols, tuple(F5.of(x) for x in m.entries))


def rebuilt(record, name, m):
    """record with its map `name` replaced by m, built anew."""
    cls = type(record)
    fields = {f: getattr(record, f) for f in cls._spec[0]}
    fields[name] = m
    return cls(**fields)


def test_the_table_names_every_map_of_every_record():
    assert {type(record) for record, _ in RECORDS} == {
        Algebra, Coalgebra, ModuleRight, ModuleLeft, Comodule, Entwining, EntwinedModule,
        ContraModule, EntwinedContraModule, Measuring, GaloisData, Cointegral}
    for record, names in RECORDS:
        maps = tuple(f for f in type(record)._spec[0] if isinstance(getattr(record, f), Mat))
        assert maps == names
        assert rebuilt(record, names[0], getattr(record, names[0])) == record


@pytest.mark.parametrize("record, name", CASES, ids=IDS)
def test_a_map_one_row_short_is_refused_by_its_shape(record, name):
    m = getattr(record, name)
    want = "%s must be %d x %d" % (name, m.rows, m.cols)
    with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
        rebuilt(record, name, one_row_short(m))


@pytest.mark.parametrize("record, name", CASES, ids=IDS)
def test_a_map_over_another_field_is_refused(record, name):
    with pytest.raises(ValueError, match="^field mismatch$"):
        rebuilt(record, name, over_f5(getattr(record, name)))


def test_require_shape_checks_the_shape_before_the_field():
    m = Mat.identity(F5, 2)
    require_shape("m", m, 2, 2, F5)
    with pytest.raises(ValueError, match="^m must be 2 x 3$"):
        require_shape("m", m, 2, 3, Q)
    with pytest.raises(ValueError, match="^field mismatch$"):
        require_shape("m", m, 2, 2, Q)


MC = induce_mc(E, regular_right_module(H.alg))
TC = induce_tc(E, regular_comodule(H.coalg))
CT = induce_contra_t(E, free_contramodule(H.coalg, 1))

# name of the refused map, a valid map, the guard that takes it
GUARDS = [
    ("f", Mat.identity(Q, 2), lambda f: check_entwining_morphism(E, E, f, Mat.identity(Q, 2))),
    ("g", Mat.identity(Q, 2), lambda g: check_entwining_morphism(E, E, Mat.identity(Q, 2), g)),
    ("rho", H.coalg.comult, lambda rho: doi_koppinen(H, H.alg, rho)),
    ("morphism", Mat.zeros(Q, MC.dim, TC.dim),
     lambda f: criteria.maschke_split_co(E, Cointegral(E, PHI), TC, MC, f)),
    ("morphism", Mat.zeros(Q, CT.dim, CT.dim),
     lambda f: criteria.maschke_split_contra(E, Cointegral(E, PHI), CT, CT, f)),
]


@pytest.mark.parametrize("k", range(len(GUARDS)))
def test_the_morphism_guards_refuse_a_wrong_shape_and_field(k):
    name, m, guard = GUARDS[k]
    guard(m)
    want = "%s must be %d x %d" % (name, m.rows, m.cols)
    with pytest.raises(ValueError, match="^%s$" % re.escape(want)):
        guard(one_row_short(m))
    with pytest.raises(ValueError, match="^field mismatch$"):
        guard(over_f5(m))
