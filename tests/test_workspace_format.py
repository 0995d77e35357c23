"""The workspace file format: every refusal of a malformed file, and exact
round trips of seeded workspaces holding all eight kinds of table."""

import copy
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import entwine.cli as cli
from entwine.cli import InputError, Workspace, parse_workspace, serialize_workspace
from entwine.exactlin import Field, Mat, kron
from entwine.algstruct import Algebra, Coalgebra, Comodule, group_like_coalgebra
from entwine.entwining import Entwining
from entwine.comodcat import EntwinedModule
from entwine.contracat import EntwinedContraModule
from entwine.measuring import GaloisData, Measuring

from corpus import entwinings, tall_entwinings

KZ2 = Path(cli.__file__).parent / "examples" / "kZ2.json"
FILE = object()      # stands for the path of the workspace file
DELETE = object()    # removes the key instead of setting it

# Each case edits one spot of the shipped kZ2 example, which holds one
# object of every kind: (id, key path, new value, error path, message).
# Duplicate-entry messages name the index in matrix leg order, outputs
# first.
MALFORMED = [
    # top level, field and tables
    ("top-unknown-key", ("extra",), 1, FILE, "unknown top-level key 'extra'"),
    ("top-missing-field", ("field",), DELETE, FILE, "missing field spec"),
    ("field-not-object", ("field",), "Q", "field", 'expected {"kind": ...}'),
    ("field-unknown-kind", ("field", "kind"), "octonion", "field",
     "unknown field kind 'octonion'"),
    ("field-unknown-key", ("field", "p"), 5, "field", "unknown key 'p'"),
    ("field-missing-p", ("field",), {"kind": "prime"}, "field", "missing key 'p'"),
    ("field-p-not-int", ("field",), {"kind": "prime", "p": "5"}, "field",
     "p must be an int, got '5'"),
    ("field-p-composite", ("field",), {"kind": "prime", "p": 6}, "field",
     "modulus 6 is not prime"),
    ("table-not-object", ("modules",), [], "modules",
     "expected an object of named entries"),
    ("spec-not-object", ("algebras", "A"), 3, "algebras.A", "expected an object"),
    # algebras
    ("algebra-missing-key", ("algebras", "A", "dim"), DELETE, "algebras.A",
     "missing key 'dim'"),
    ("algebra-unknown-key", ("algebras", "A", "basis"), [], "algebras.A",
     "unknown key 'basis'"),
    ("algebra-bad-dim", ("algebras", "A", "dim"), -1, "algebras.A",
     "dim must be a non-negative int, got -1"),
    ("algebra-arity", ("algebras", "A", "mult"), [[0, 0, 1]],
     "algebras.A.mult entry #0", "expected [3 indices, scalar]"),
    ("algebra-index-range", ("algebras", "A", "mult"), [[0, 0, 0, 1], [0, 2, 1, 1]],
     "algebras.A.mult entry #1", "index 2 outside [0, 2)"),
    ("algebra-duplicate", ("algebras", "A", "mult"), [[0, 1, 1, 1], [0, 1, 1, 2]],
     "algebras.A.mult", "duplicate entry at index (1, 0, 1)"),
    ("algebra-bad-scalar", ("algebras", "A", "mult"), [[0, 0, 0, 1.5]],
     "algebras.A.mult entry #0", "scalar must be an int or a string, got 1.5"),
    ("algebra-not-a-list", ("algebras", "A", "mult"), {}, "algebras.A.mult",
     "expected a list of entries"),
    ("algebra-vector-length", ("algebras", "A", "unit"), [1], "algebras.A.unit",
     "expected a list of 2 scalars"),
    ("algebra-vector-scalar", ("algebras", "A", "unit"), [1, "1/0"],
     "algebras.A.unit[1]", "malformed scalar '1/0'"),
    # coalgebras
    ("coalgebra-missing-key", ("coalgebras", "C", "dim"), DELETE, "coalgebras.C",
     "missing key 'dim'"),
    ("coalgebra-unknown-key", ("coalgebras", "C", "unit"), [1, 0], "coalgebras.C",
     "unknown key 'unit'"),
    ("coalgebra-bad-dim", ("coalgebras", "C", "dim"), 2.0, "coalgebras.C",
     "dim must be a non-negative int, got 2.0"),
    ("coalgebra-arity", ("coalgebras", "C", "comult"), [[0, 0, 0, 0, 1]],
     "coalgebras.C.comult entry #0", "expected [3 indices, scalar]"),
    ("coalgebra-index-range", ("coalgebras", "C", "comult"), [[3, 0, 0, 1]],
     "coalgebras.C.comult entry #0", "index 3 outside [0, 2)"),
    ("coalgebra-duplicate", ("coalgebras", "C", "comult"), [[1, 0, 1, 1], [1, 0, 1, 1]],
     "coalgebras.C.comult", "duplicate entry at index (0, 1, 1)"),
    ("coalgebra-bad-scalar", ("coalgebras", "C", "comult"), [[0, 0, 0, "x"]],
     "coalgebras.C.comult entry #0", "malformed scalar 'x'"),
    ("coalgebra-not-a-list", ("coalgebras", "C", "comult"), "none",
     "coalgebras.C.comult", "expected a list of entries"),
    ("coalgebra-vector-length", ("coalgebras", "C", "counit"), [1, 1, 1],
     "coalgebras.C.counit", "expected a list of 2 scalars"),
    ("coalgebra-vector-scalar", ("coalgebras", "C", "counit"), [1, False],
     "coalgebras.C.counit[1]", "scalar must be an int or a string, got False"),
    # entwinings
    ("entwining-missing-key", ("entwinings", "E", "coalgebra"), DELETE, "entwinings.E",
     "missing key 'coalgebra'"),
    ("entwining-unknown-key", ("entwinings", "E", "dim"), 2, "entwinings.E",
     "unknown key 'dim'"),
    ("entwining-dangling", ("entwinings", "E", "algebra"), "Z", "entwinings.E",
     "unknown algebra 'Z'"),
    ("entwining-arity", ("entwinings", "E", "psi"), [[0, 0, 0, 1]],
     "entwinings.E.psi entry #0", "expected [4 indices, scalar]"),
    ("entwining-index-range", ("entwinings", "E", "psi"), [[0, 0, 0, -1, 1]],
     "entwinings.E.psi entry #0", "index -1 outside [0, 2)"),
    ("entwining-duplicate", ("entwinings", "E", "psi"),
     [[0, 1, 1, 0, 1], [0, 1, 1, 0, 1]],
     "entwinings.E.psi", "duplicate entry at index (1, 0, 0, 1)"),
    ("entwining-bad-scalar", ("entwinings", "E", "psi"), [[0, 0, 0, 0, True]],
     "entwinings.E.psi entry #0", "scalar must be an int or a string, got True"),
    ("entwining-not-a-list", ("entwinings", "E", "psi"), 5, "entwinings.E.psi",
     "expected a list of entries"),
    # modules
    ("module-missing-key", ("modules", "M", "entwining"), DELETE, "modules.M",
     "missing key 'entwining'"),
    ("module-unknown-key", ("modules", "M", "pi"), [], "modules.M",
     "unknown key 'pi'"),
    ("module-dangling", ("modules", "M", "entwining"), "A", "modules.M",
     "unknown entwining 'A'"),
    ("module-bad-dim", ("modules", "M", "dim"), "2", "modules.M",
     "dim must be a non-negative int, got '2'"),
    ("module-arity", ("modules", "M", "coaction"), [[0, 0, 1]],
     "modules.M.coaction entry #0", "expected [3 indices, scalar]"),
    ("module-index-range", ("modules", "M", "action"),
     [[0, 0, 0, 1], [1, 1, 0, 1], [0, 1, 2, 1]],
     "modules.M.action entry #2", "index 2 outside [0, 2)"),
    ("module-duplicate", ("modules", "M", "coaction"), [[1, 1, 0, 1], [1, 1, 0, "2"]],
     "modules.M.coaction", "duplicate entry at index (1, 0, 1)"),
    ("module-bad-scalar", ("modules", "M", "action"), [[0, 0, 0, "1/0"]],
     "modules.M.action entry #0", "malformed scalar '1/0'"),
    ("module-not-a-list", ("modules", "M", "action"), {"0": 1}, "modules.M.action",
     "expected a list of entries"),
    # contramodules
    ("contramodule-missing-key", ("contramodules", "N", "dim"), DELETE,
     "contramodules.N", "missing key 'dim'"),
    ("contramodule-unknown-key", ("contramodules", "N", "coaction"), [],
     "contramodules.N", "unknown key 'coaction'"),
    ("contramodule-dangling", ("contramodules", "N", "entwining"), None,
     "contramodules.N", "unknown entwining None"),
    ("contramodule-bad-dim", ("contramodules", "N", "dim"), True, "contramodules.N",
     "dim must be a non-negative int, got True"),
    ("contramodule-arity", ("contramodules", "N", "pi"), [[0, 0, 0]],
     "contramodules.N.pi entry #0", "expected [3 indices, scalar]"),
    ("contramodule-index-range", ("contramodules", "N", "action"), [[2, 0, 0, 1]],
     "contramodules.N.action entry #0", "index 2 outside [0, 2)"),
    ("contramodule-duplicate", ("contramodules", "N", "pi"), [[3, 1, 2, 1], [3, 1, 2, 1]],
     "contramodules.N.pi", "duplicate entry at index (2, 3, 1)"),
    ("contramodule-bad-scalar", ("contramodules", "N", "action"), [[0, 0, 0, [1]]],
     "contramodules.N.action entry #0", "scalar must be an int or a string, got [1]"),
    ("contramodule-not-a-list", ("contramodules", "N", "pi"), None,
     "contramodules.N.pi", "expected a list of entries"),
    # comodules
    ("comodule-missing-key", ("comodules", "V", "coalgebra"), DELETE, "comodules.V",
     "missing key 'coalgebra'"),
    ("comodule-unknown-key", ("comodules", "V", "action"), [], "comodules.V",
     "unknown key 'action'"),
    ("comodule-dangling", ("comodules", "V", "coalgebra"), "E", "comodules.V",
     "unknown coalgebra 'E'"),
    ("comodule-bad-dim", ("comodules", "V", "dim"), [2], "comodules.V",
     "dim must be a non-negative int, got [2]"),
    ("comodule-arity", ("comodules", "V", "coaction"), [[0, 0, 0, 0, 0, 1]],
     "comodules.V.coaction entry #0", "expected [3 indices, scalar]"),
    ("comodule-index-range", ("comodules", "V", "coaction"), [[0, 0, 2, 1]],
     "comodules.V.coaction entry #0", "index 2 outside [0, 2)"),
    ("comodule-duplicate", ("comodules", "V", "coaction"), [[0, 1, 0, 1], [0, 1, 0, 1]],
     "comodules.V.coaction", "duplicate entry at index (1, 0, 0)"),
    ("comodule-bad-scalar", ("comodules", "V", "coaction"), [[0, 0, 0, "1.5.2"]],
     "comodules.V.coaction entry #0", "malformed scalar '1.5.2'"),
    ("comodule-not-a-list", ("comodules", "V", "coaction"), "x", "comodules.V.coaction",
     "expected a list of entries"),
    # measurings
    ("measuring-missing-key", ("measurings", "I", "dst"), DELETE, "measurings.I",
     "missing key 'dst'"),
    ("measuring-unknown-key", ("measurings", "I", "dim"), 1, "measurings.I",
     "unknown key 'dim'"),
    ("measuring-dangling", ("measurings", "I", "src"), "I", "measurings.I",
     "unknown entwining 'I'"),
    ("measuring-arity", ("measurings", "I", "alpha"), [[0, 0, 1]],
     "measurings.I.alpha entry #0", "expected [3 indices, scalar]"),
    ("measuring-index-range", ("measurings", "I", "gamma"), [[0, 0, 5, 1]],
     "measurings.I.gamma entry #0", "index 5 outside [0, 2)"),
    ("measuring-duplicate", ("measurings", "I", "alpha"), [[1, 0, 1, 1], [1, 0, 1, "1"]],
     "measurings.I.alpha", "duplicate entry at index (1, 1, 0)"),
    ("measuring-bad-scalar", ("measurings", "I", "gamma"), [[0, 0, 0, None]],
     "measurings.I.gamma entry #0", "scalar must be an int or a string, got None"),
    ("measuring-not-a-list", ("measurings", "I", "alpha"), 1, "measurings.I.alpha",
     "expected a list of entries"),
    # galois
    ("galois-missing-key", ("galois", "G", "algebra"), DELETE, "galois.G",
     "missing key 'algebra'"),
    ("galois-unknown-key", ("galois", "G", "dim"), 2, "galois.G", "unknown key 'dim'"),
    ("galois-dangling", ("galois", "G", "coalgebra"), "A", "galois.G",
     "unknown coalgebra 'A'"),
    ("galois-arity", ("galois", "G", "coaction"), [[0, 1]],
     "galois.G.coaction entry #0", "expected [3 indices, scalar]"),
    ("galois-index-range", ("galois", "G", "coaction"), [[0, 0, 0, 1], [1, 1, "1", 1]],
     "galois.G.coaction entry #1", "index '1' outside [0, 2)"),
    ("galois-duplicate", ("galois", "G", "coaction"), [[1, 1, 1, 1], [1, 1, 1, 1]],
     "galois.G.coaction", "duplicate entry at index (1, 1, 1)"),
    ("galois-bad-scalar", ("galois", "G", "coaction"), [[0, 0, 0, "1/2/3"]],
     "galois.G.coaction entry #0", "malformed scalar '1/2/3'"),
    ("galois-not-a-list", ("galois", "G", "coaction"), {}, "galois.G.coaction",
     "expected a list of entries"),
    # a literal read before does not let a float or a bool equal to it in
    ("algebra-float-after-int", ("algebras", "A", "mult"), [[0, 0, 0, 1], [0, 1, 1, 1.0]],
     "algebras.A.mult entry #1", "scalar must be an int or a string, got 1.0"),
    ("coalgebra-bool-after-int", ("coalgebras", "C", "comult"),
     [[0, 0, 0, 1], [1, 1, 1, True]], "coalgebras.C.comult entry #1",
     "scalar must be an int or a string, got True"),
    ("module-float-after-int", ("modules", "M", "action"), [[0, 0, 0, 1], [1, 1, 1, 0.5]],
     "modules.M.action entry #1", "scalar must be an int or a string, got 0.5"),
    ("algebra-vector-float-after-int", ("algebras", "A", "unit"), [1, 1.0],
     "algebras.A.unit[1]", "scalar must be an int or a string, got 1.0"),
    ("galois-float-after-int", ("galois", "G", "coaction"), [[0, 0, 0, 1], [1, 1, 1, 1.0]],
     "galois.G.coaction entry #1", "scalar must be an int or a string, got 1.0"),
    # duplicates are refused when either value, or both, is zero
    ("comodule-duplicate-zero", ("comodules", "V", "coaction"), [[0, 1, 0, 1], [0, 1, 0, 0]],
     "comodules.V.coaction", "duplicate entry at index (1, 0, 0)"),
    ("entwining-duplicate-zero-first", ("entwinings", "E", "psi"),
     [[0, 1, 1, 0, "0"], [0, 1, 1, 0, 1]],
     "entwinings.E.psi", "duplicate entry at index (1, 0, 0, 1)"),
    ("measuring-duplicate-zeros", ("measurings", "I", "alpha"), [[1, 0, 1, 0], [1, 0, 1, "0/5"]],
     "measurings.I.alpha", "duplicate entry at index (1, 1, 0)"),
    # the constructor's own checks
    ("galois-not-a-comodule", ("galois", "G", "coaction"), [[0, 0, 0, 1]], "galois.G",
     "coaction fails comodule axioms: coaction-counit"),
]


def _edited(key_path, value) -> dict:
    doc = copy.deepcopy(json.loads(KZ2.read_text()))
    *head, last = key_path
    spot = doc
    for k in head:
        spot = spot[k]
    if value is DELETE:
        del spot[last]
    else:
        spot[last] = value
    return doc


@pytest.mark.parametrize("key_path, value, where, message",
                         [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_workspace_is_refused(tmp_path, capsys, key_path, value, where, message):
    p = tmp_path / "w.json"
    p.write_text(json.dumps(_edited(key_path, value)))
    where = str(p) if where is FILE else where
    with pytest.raises(InputError) as refused:
        parse_workspace(str(p))
    assert (refused.value.where, str(refused.value)) == (where, "%s: %s" % (where, message))
    assert cli.main(["check", str(p)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s: %s\n" % (where, message))


def test_every_kind_has_a_case_for_every_fault():
    faults = ("missing-key", "unknown-key", "arity", "index-range", "duplicate",
              "bad-scalar", "not-a-list")
    kinds = ("algebra", "coalgebra", "entwining", "module", "contramodule",
             "comodule", "measuring", "galois")
    ids = {case[0] for case in MALFORMED}
    for kind in kinds:
        for fault in faults:
            assert "%s-%s" % (kind, fault) in ids
    for kind in ("algebra", "coalgebra", "module", "contramodule", "comodule"):
        assert kind + "-bad-dim" in ids
    for kind in ("entwining", "module", "contramodule", "comodule", "measuring",
                 "galois"):
        assert kind + "-dangling" in ids
    for kind in ("algebra", "coalgebra"):
        assert kind + "-vector-length" in ids


# -- leg order --------------------------------------------------------


def _one_entry(m: Mat, rows: int, cols: int, row: int, col: int):
    assert (m.rows, m.cols) == (rows, cols)
    assert [(i, j, m[i, j]) for i in range(rows) for j in range(cols) if m[i, j]] == [
        (row, col, 5)]


def test_file_legs_land_at_their_matrix_positions(tmp_path):
    # Distinct dims (A 2, B 1, C 3, D 2, modules 4) and distinct indices,
    # so a swapped leg or layout moves or refuses an entry.  Rows run over
    # the output legs, columns over the input legs, first leg major.
    doc = {
        "field": {"kind": "rational"},
        "algebras": {"A": {"dim": 2, "mult": [[1, 0, 1, 5]], "unit": [0, 5]},
                     "B": {"dim": 1, "unit": [0]}},
        "coalgebras": {"C": {"dim": 3, "comult": [[0, 0, 0, 1], [1, 1, 1, 1], [2, 2, 2, 1]],
                             "counit": [1, 1, 1]},
                       "D": {"dim": 2, "comult": [[1, 0, 1, 5]], "counit": [5, 0]}},
        "entwinings": {"E": {"algebra": "A", "coalgebra": "C", "psi": [[2, 1, 0, 1, 5]]},
                       "F": {"algebra": "B", "coalgebra": "D"}},
        "modules": {"M": {"entwining": "E", "dim": 4, "action": [[3, 1, 2, 5]],
                          "coaction": [[1, 3, 2, 5]]}},
        "contramodules": {"N": {"entwining": "E", "dim": 4, "pi": [[3, 2, 1, 5]],
                                "action": [[1, 2, 3, 5]]}},
        "comodules": {"V": {"coalgebra": "C", "dim": 4, "coaction": [[2, 1, 2, 5]]}},
        "measurings": {"I": {"src": "E", "dst": "F", "alpha": [[2, 1, 0, 5]],
                             "gamma": [[2, 0, 1, 5]]}},
        "galois": {"G": {"algebra": "A", "coalgebra": "C",
                         "coaction": [[0, 0, 2, 1], [1, 1, 0, 1]]}},
    }
    p = tmp_path / "w.json"
    p.write_text(json.dumps(doc))
    ws = parse_workspace(str(p))
    _one_entry(ws.algebras["A"].mult, 2, 4, 1, 1 * 2 + 0)
    _one_entry(ws.algebras["A"].unit, 2, 1, 1, 0)
    _one_entry(ws.coalgebras["D"].comult, 4, 2, 0 * 2 + 1, 1)
    _one_entry(ws.coalgebras["D"].counit, 1, 2, 0, 0)
    _one_entry(ws.entwinings["E"].psi, 6, 6, 0 * 3 + 1, 2 * 2 + 1)
    _one_entry(ws.modules["M"].action, 4, 8, 2, 3 * 2 + 1)
    _one_entry(ws.modules["M"].coaction, 12, 4, 3 * 3 + 2, 1)
    _one_entry(ws.contramodules["N"].pi, 4, 12, 1, 3 * 3 + 2)
    _one_entry(ws.contramodules["N"].action, 4, 8, 3, 1 * 4 + 2)
    _one_entry(ws.comodules["V"].coaction, 12, 4, 1 * 3 + 2, 2)
    _one_entry(ws.measurings["I"].alpha, 1, 6, 0, 2 * 2 + 1)
    _one_entry(ws.measurings["I"].gamma, 2, 3, 0 * 2 + 1, 2)
    g = ws.galois["G"].coaction
    assert (g.rows, g.cols) == (6, 2)
    assert [(i, j) for i in range(6) for j in range(2) if g[i, j]] == [
        (0 * 3 + 2, 0), (1 * 3 + 0, 1)]
    assert json.loads(serialize_workspace(ws)) == doc


# -- round trips ------------------------------------------------------


def _scalar(field: Field, rng: random.Random):
    if rng.random() < 0.6:
        return field.zero
    if field.kind == "prime":
        return field.of(rng.randrange(1, field.p))
    return field.of(Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 7])))


def _mat(field: Field, rng: random.Random, rows: int, cols: int) -> Mat:
    return Mat(field, rows, cols, tuple(_scalar(field, rng) for _ in range(rows * cols)))


def random_workspace(field: Field, rng: random.Random) -> Workspace:
    """Structure constants of the right shapes and no particular axioms
    (only Galois data must carry a comodule coaction), with distinct
    dimensions so that every leg order shows."""
    ws = Workspace(field, {}, {}, {}, {}, {}, {}, {}, {})
    for k in range(2):
        n, c = rng.randint(1, 3), rng.randint(1, 3)
        a = Algebra(field, n, _mat(field, rng, n, n * n), _mat(field, rng, n, 1))
        co = Coalgebra(field, c, _mat(field, rng, c * c, c), _mat(field, rng, 1, c))
        ws.algebras["A%d" % k], ws.coalgebras["C%d" % k] = a, co
        ws.entwinings["E%d" % k] = Entwining(a, co, _mat(field, rng, n * c, c * n))
    e0, e1 = ws.entwinings["E0"], ws.entwinings["E1"]
    for k, m in enumerate((rng.randint(1, 3), 0)):
        n, c = e0.alg.dim, e0.coalg.dim
        ws.modules["M%d" % k] = EntwinedModule(
            e0, m, _mat(field, rng, m, m * n), _mat(field, rng, m * c, m))
        ws.contramodules["N%d" % k] = EntwinedContraModule(
            e1, m, _mat(field, rng, m, m * e1.coalg.dim),
            _mat(field, rng, m, e1.alg.dim * m))
        ws.comodules["V%d" % k] = Comodule(e1.coalg, m, _mat(field, rng, m * e1.coalg.dim, m))
    ws.measurings["I"] = Measuring(
        e0, e1, _mat(field, rng, e1.alg.dim, e0.coalg.dim * e0.alg.dim),
        _mat(field, rng, e1.alg.dim * e1.coalg.dim, e0.coalg.dim))
    # a grading of an algebra by the group-like coalgebra is a comodule
    n, c = rng.randint(1, 3), rng.randint(2, 3)
    grade = [rng.randrange(c) for _ in range(n)]
    ws.algebras["H"] = Algebra(field, n, _mat(field, rng, n, n * n), _mat(field, rng, n, 1))
    ws.coalgebras["K"] = group_like_coalgebra(field, c)
    ws.galois["G"] = GaloisData(ws.algebras["H"], ws.coalgebras["K"], Mat(
        field, n * c, n, tuple(field.one if (r == i * c + grade[i]) else field.zero
                               for r in range(n * c) for i in range(n))))
    return ws


@pytest.mark.parametrize("field", [Field.rational(), Field.prime(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("seed", range(6))
def test_seeded_workspace_round_trip(tmp_path, field, seed):
    ws = random_workspace(field, random.Random(seed))
    text = serialize_workspace(ws)
    p = tmp_path / "w.json"
    p.write_text(text)
    again = parse_workspace(str(p))
    assert again == ws
    assert [key for key, table in again.tables() if table] == [
        "algebras", "coalgebras", "entwinings", "modules", "contramodules",
        "comodules", "measurings", "galois"]
    assert serialize_workspace(again) == text


# Serialize(parse) of every shipped workspace, of the corpus entwinings
# in one workspace per field and of two of them read over F_3: the sha256
# of the text, pinned so that a reader or writer that changes any byte
# fails.
ROOT = Path(__file__).parent
CORPUS = {"corpus-Q": lambda: entwinings(Field.rational()),
          "corpus-F5": lambda: entwinings(Field.prime(5)),
          "corpus-tall": tall_entwinings}
DIGESTS = {
    ("kZ2_tall.json", None): "a88af0551003c7a74c63fcc7d526fa58de409afeb352b67c3118f6942fd3c6f2",
    ("ut3.json", None): "647e169ef8ae6c2a54438e49f39880d6413689211766ac28977e666ab8606b81",
    ("kZ2.json", None): "94c97d932f8b7561dc6381d08d69569d8073bd231d2fd3f56654e92a5eaf9626",
    ("corpus-Q", None): "20391e1942b931fab274d5b49c19a53cbf3025d9b2fbb6561dbf5bad4d690fec",
    ("corpus-Q", 3): "d0e68e80d6cbec187435ba2f61c1381841f726e2258f24369d1a1e81a3d37457",
    ("corpus-F5", None): "7492082c83473da691a6c66e1fdd5d4b045387887ccc598412b880b765cd7559",
    ("corpus-F5", 3): "d0e68e80d6cbec187435ba2f61c1381841f726e2258f24369d1a1e81a3d37457",
    ("corpus-tall", None): "da7523abbd9bbaf564df896a1d1a7250a7e03d35bb9c9cca7f44d688ee28489c",
}


@pytest.mark.parametrize("name, p", list(DIGESTS), ids=["%s-%s" % key for key in DIGESTS])
def test_reserialized_workspaces_are_pinned(tmp_path, name, p):
    if name in CORPUS:
        ents = CORPUS[name]()
        field = next(iter(ents.values())).field
        ws = Workspace(field, {n: e.alg for n, e in ents.items()},
                       {n: e.coalg for n, e in ents.items()}, ents, {}, {}, {}, {}, {})
        path = tmp_path / (name + ".json")
        path.write_text(serialize_workspace(ws) + "\n")
    else:
        path = KZ2 if name == KZ2.name else ROOT / "data" / name
    ws = parse_workspace(str(path), None if p is None else Field.prime(p))
    assert hashlib.sha256(serialize_workspace(ws).encode()).hexdigest() == DIGESTS[name, p]


def test_each_read_parses_literals_in_its_own_field(tmp_path):
    # "1/2" is read three times; over F_2 its first occurrence, in read
    # order, is refused, and reads over Q and F_3 before and after are
    # unchanged by it: nothing parsed is kept from one read to the next.
    doc = {"field": {"kind": "rational"},
           "algebras": {"A": {"dim": 2, "mult": [[0, 0, 0, 1], [1, 1, 1, "1/2"]],
                              "unit": ["1/2", 0]},
                        "B": {"dim": 1, "unit": ["1/2"]}}}
    p = tmp_path / "w.json"
    p.write_text(json.dumps(doc))
    for _ in range(2):
        ws = parse_workspace(str(p))
        assert ws.algebras["A"].mult[1, 3] == ws.algebras["B"].unit[0, 0] == Fraction(1, 2)
        with pytest.raises(InputError) as refused:
            parse_workspace(str(p), override=Field.prime(2))
        assert str(refused.value) == (
            "algebras.A.mult entry #1: denominator of 1/2 vanishes mod 2")
        f3 = parse_workspace(str(p), override=Field.prime(3))
        assert f3.algebras["A"].mult[1, 3] == f3.algebras["B"].unit[0, 0] == 2


# -- bounds on the input ----------------------------------------------


def _refusal(tmp_path, doc, argv=()):
    p = tmp_path / "w.json"
    p.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    with pytest.raises(InputError) as refused:
        parse_workspace(str(p))
    assert cli.main(["check", str(p), *argv]) == 3
    return refused.value, str(p)


def _module_over_zero_dims(dim):
    return {"field": {"kind": "rational"},
            "algebras": {"A": {"dim": 0}}, "coalgebras": {"C": {"dim": 0}},
            "entwinings": {"E": {"algebra": "A", "coalgebra": "C"}},
            "modules": {"M": {"entwining": "E", "dim": dim}}}


def test_dim_is_bounded_even_when_every_map_is_empty(tmp_path, capsys):
    # a module over zero-dimensional structures has only empty maps, so
    # the map size check cannot see its dim x dim identities
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(_module_over_zero_dims(4096)))
    assert parse_workspace(str(p)).modules["M"].dim == 4096
    ex, _ = _refusal(tmp_path, _module_over_zero_dims(4097))
    assert ex.where == "modules.M.dim"
    assert str(ex) == ("modules.M.dim: dim 4097 implies dense matrices over the "
                       "limit of 16777216 entries")
    ex, _ = _refusal(tmp_path, _module_over_zero_dims(10 ** 6))
    assert ex.where == "modules.M.dim"
    capsys.readouterr()


@pytest.mark.parametrize("p, accepted", [
    (2 ** 61 - 1, True),
    (2 ** 64 - 59, True),                       # the largest prime below 2^64
    (3825123056546413051, False),               # strong pseudoprime to bases 2..23
    ((2 ** 31 - 1) * (2 ** 61 - 1), False),
    (2 ** 64 + 13, False),                      # prime, but above the bound
])
def test_large_moduli_are_decided_quickly(tmp_path, capsys, p, accepted):
    doc = {"field": {"kind": "prime", "p": p}, "algebras": {"k": {"dim": 1}}}
    flag = ["--field", "prime:%d" % p]
    kz2 = str(KZ2)
    if accepted:
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        assert parse_workspace(str(path)).field == Field.prime(p)
        assert cli.main(["check", kz2, *flag]) == 0
    else:
        ex, _ = _refusal(tmp_path, doc)
        assert ex.where == "field"
        reason = "is not prime" if p < 2 ** 64 else "is not below 2^64"
        assert str(ex) == "field: modulus %d %s" % (p, reason)
        capsys.readouterr()
        assert cli.main(["check", kz2, *flag]) == 3
        assert capsys.readouterr().err == "error: --field: modulus %d %s\n" % (p, reason)


def test_exponent_scalars_are_refused(tmp_path, capsys):
    for s in ("1e5000", "1E3", "2.5e-1", "1e300000000"):
        doc = {"field": {"kind": "rational"}, "algebras": {"k": {"dim": 1, "unit": [s]}}}
        ex, _ = _refusal(tmp_path, doc)
        assert str(ex) == "algebras.k.unit[0]: malformed scalar %r" % (s,)
    q = Field.rational()
    assert [q.parse(s) for s in ("3", "-3/4", "0.25", " 7 ")] == [
        3, Fraction(-3, 4), Fraction(1, 4), 7]
    capsys.readouterr()


def test_undecodable_files_are_refused(tmp_path, capsys):
    for text in (b"\xff\xfe{}", b'{"field": {"kind": "rational"}, "x": 1' + b"1" * 5000 + b"}",
                 b"[" * 100000 + b"]" * 100000):
        p = tmp_path / "w.json"
        p.write_bytes(text)
        with pytest.raises(InputError) as refused:
            parse_workspace(str(p))
        assert refused.value.where == str(p)
        assert cli.main(["check", str(p)]) == 3
    capsys.readouterr()


def test_int_entries_of_a_q_matrix_are_written_as_numbers():
    """A Q matrix built from bare ints keeps them, and kron copies them;
    the writer gives each integer entry as a JSON number, as it does for
    an integral Fraction."""
    Q = Field.rational()
    m = kron(Mat(Q, 2, 2, (3, 0, Fraction(1, 2), -1)), Mat.identity(Q, 1))
    assert isinstance(m[0, 0], int)
    assert cli._map_out(m, (2, 2), (1, True)) == [3, 0, "1/2", -1]
    assert cli._map_out(m, (2, 2), (1, False)) == [[0, 0, 3], [0, 1, "1/2"], [1, 1, -1]]
