"""The value classes on the `exactlin.Record` base: construction, defaults,
frozenness, equality, hash and repr as the package relies on them, and an
import of the package that loads neither `dataclasses` nor `inspect`.

Needs no pytest: `PYTHONPATH=src python tests/test_record.py` runs every
test here, so the same assertions run on interpreters without it.
"""

from __future__ import annotations

import os
import subprocess
import sys

import entwine
from entwine import cli, criteria
from entwine.algstruct import ModuleLeft, ModuleRight, field_algebra, group_algebra
from entwine.entwining import regular_doi_koppinen
from entwine.exactlin import Field, Mat, Record
from entwine.report import Check, Report, Verdict

Q = Field.rational()


def _raises(exc, fn, *args, **kwargs) -> str:
    """The message of the exc that fn(*args, **kwargs) raises."""
    try:
        fn(*args, **kwargs)
    except exc as e:
        return str(e)
    raise AssertionError("%s did not raise %s" % (fn, exc.__name__))


def test_import_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter, since the test runner has loaded both; -B, since
    # writing bytecode is not what is measured.
    src = os.path.dirname(os.path.dirname(os.path.abspath(entwine.__file__)))
    pkg = os.path.dirname(os.path.abspath(entwine.__file__))
    names = sorted(f[:-3] for f in os.listdir(pkg)
                   if f.endswith(".py") and f != "__init__.py")
    code = ("import importlib, sys; sys.path.insert(0, %r)\n"
            "def loaded():\n"
            "    return [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
            "import entwine.cli\n"
            "print(loaded())\n"
            "for name in %r: importlib.import_module('entwine.' + name)\n"
            "print(loaded())\n" % (src, names))
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                         text=True, check=True, stdin=subprocess.DEVNULL).stdout
    assert out.split("\n") == ["[]", "[]", ""], out
    assert {"cli", "criteria", "exactlin", "measuring"} <= set(names)


def test_construction_by_position_keyword_and_default():
    assert Field("prime", 5).p == 5
    assert Field(kind="prime", p=5) == Field("prime", p=5) == Field("prime", 5)
    assert Field("rational").p == 0
    assert Check("x", True).witness is None
    assert Check("x", False, witness={"kind": "dim"}).witness == {"kind": "dim"}
    assert "missing" in _raises(TypeError, Field)
    assert "missing" in _raises(TypeError, Check, "x")
    assert "unexpected" in _raises(TypeError, Field, "rational", q=1)
    assert "multiple" in _raises(TypeError, Field, "prime", 5, kind="prime")
    assert "positional" in _raises(TypeError, Field, "prime", 5, 7)


def test_list_and_dict_defaults_are_not_shared():
    a, b = Report("a"), Report("b")
    assert a.checks is not b.checks and a.data is not b.data
    a.add(Check("x", True))
    assert b.checks == [] and Report("c").checks == []
    assert Verdict("FOUND").data is not Verdict("FOUND").data
    # A list or dict that is passed in is kept, by position or keyword.
    checks, data = [], {}
    assert Report("a", checks, data=data).checks is checks
    assert Report("a", data=data).data is data


def test_frozen_records_refuse_assignment_and_deletion():
    f = Field.prime(5)
    for fn in (lambda: setattr(f, "p", 7), lambda: setattr(f, "new", 1),
               lambda: delattr(f, "p")):
        _raises(AttributeError, fn)
    assert f == Field("prime", 5)
    # Every record is frozen; a list or dict field is still filled in place.
    rep = Report("a")
    for fn in (lambda: setattr(rep, "title", "b"), lambda: delattr(rep, "data")):
        assert "frozen Report" in _raises(AttributeError, fn)
    rep.data["k"] = 1
    assert rep.as_dict()["title"] == "a" and rep.data == {"k": 1}
    _raises(TypeError, hash, rep)
    # No class keyword makes a record mutable.
    _raises(TypeError, lambda: type("Mutable", (Record,), {}, frozen=False))


def test_equality_and_hash_by_class_and_fields():
    assert Field.prime(5) == Field("prime", 5)
    assert hash(Field.prime(5)) == hash(Field("prime", 5)) == hash(("prime", 5))
    assert Field.prime(5) != Field.prime(7) and Field.rational() != Field.prime(5)
    assert len({Field.prime(5), Field("prime", 5), Field.rational()}) == 2
    assert Report("a", [Check("x", True)]) == Report("a", [Check("x", True)])
    # Same field names and values, different classes.
    k = field_algebra(Q)
    act = Mat.identity(Q, 1)
    right, left = ModuleRight(k, 1, act), ModuleLeft(k, 1, act)
    assert right.__dict__ == left.__dict__
    assert right != left and not right == left
    assert right == ModuleRight(k, 1, act)


def test_repr_is_dataclass_format():
    assert repr(Check("x", True)) == "Check(name='x', passed=True, witness=None)"
    assert repr(Field.prime(5)) == "Field(kind='prime', p=5)"
    assert repr(Report("t")) == "Report(title='t', checks=[], data={})"


def test_subclasses_inherit_fields_and_declare_their_order():
    class Named(Check):
        pass

    class Extended(Check):
        extra: int = 0

    assert Named("x", True).name == "x" and Named("x", True) != Check("x", True)
    assert repr(Named("x", True)).endswith("Named(name='x', passed=True, witness=None)")
    assert Extended("x", True, None, 3).extra == 3 and Extended("x", True).extra == 0
    _raises(AttributeError, setattr, Named("x", True), "name", "y")

    def late_default():
        class Bad(Record):
            a: int = 0
            b: int

    assert "without a default" in _raises(TypeError, late_default)


def test_workspace_has_the_tables_positionally_in_format_order():
    keys = [kind.key for kind in cli._KINDS]
    assert list(cli.Workspace.__annotations__) == ["field"] + keys
    tables = [{} for _ in keys]
    ws = cli.Workspace(Q, *tables)
    assert ws.field == Q
    assert [k for k, _ in ws.tables()] == keys
    assert all(t is table for (_, t), table in zip(ws.tables(), tables))
    _raises(TypeError, cli.Workspace, Q, *tables[:-1])
    assert "frozen Workspace" in _raises(AttributeError, setattr, ws, "algebras", {})
    ws.algebras["A"] = field_algebra(Q)
    assert ws.tables()[0][1] == {"A": field_algebra(Q)}
    _raises(TypeError, hash, ws)


def test_cointegral_skips_its_recheck_only_from_a_verdict():
    e = regular_doi_koppinen(group_algebra(2, Q))
    v = criteria.find_cointegral(e)
    phi = v.witness["phi"]
    builds = []
    real = criteria._sep_f_identities

    def counted(ent):
        builds.append(ent)
        return real(ent)

    criteria._sep_f_identities = counted
    try:
        assert criteria.Cointegral.from_verdict(e, v).phi == phi
        assert builds == []
        assert criteria.Cointegral(e, phi) == criteria.Cointegral(e, phi, _verified=True)
        assert len(builds) == 1
        zero = Mat.zeros(Q, phi.rows, phi.cols)
        assert "identity" in _raises(ValueError, criteria.Cointegral, e, zero)
        assert "must be" in _raises(ValueError, criteria.Cointegral, e, phi.t)
    finally:
        criteria._sep_f_identities = real
    assert list(criteria.Cointegral.__annotations__) == ["ent", "phi"]


if __name__ == "__main__":
    tests = [(n, f) for n, f in list(globals().items()) if n.startswith("test_")]
    for name, test in tests:
        test()
        print("passed", name)
    print("%d passed on Python %s" % (len(tests), sys.version.split()[0]))
