"""Command-line front end: workspace files, dispatch, deterministic reports.

A workspace is a UTF-8 JSON file naming structures over one field:

    {"field": {"kind": "rational"} | {"kind": "prime", "p": P},
     "algebras":      {NAME: {"dim": n, "unit": [s...], "mult": [[i,j,k,s]...]}},
     "coalgebras":    {NAME: {"dim": c, "counit": [s...], "comult": [[i,j,k,s]...]}},
     "entwinings":    {NAME: {"algebra": REF, "coalgebra": REF,
                              "psi": [[c,a,a2,c2,s]...]}},
     "modules":       {NAME: {"entwining": REF, "dim": m,
                              "action": [[i,a,j,s]...], "coaction": [[i,j,c,s]...]}},
     "contramodules": {NAME: {"entwining": REF, "dim": m,
                              "pi": [[i,c,j,s]...], "action": [[a,i,j,s]...]}},
     "comodules":     {NAME: {"coalgebra": REF, "dim": m,
                              "coaction": [[i,j,c,s]...]}},
     "measurings":    {NAME: {"src": REF, "dst": REF,
                              "alpha": [[c,a,b,s]...], "gamma": [[c,a,c2,s]...]}},
     "galois":        {NAME: {"algebra": REF, "coalgebra": REF,
                              "coaction": [[a,a2,c,s]...]}}}

Each sparse entry lists basis indices followed by a scalar; mult entry
[i,j,k,s] says the product of basis vectors i and j contains k with
coefficient s, comult entry [i,j,k,s] says basis vector i maps to the
pair (j,k), psi entry [c,a,a2,c2,s] sends the pair (c,a) to (a2,c2),
and so on with inputs before outputs in reading order.  Scalars are
ints or strings like "3/4"; omitted entries are zero; indices are
0-based.  Structure keys may be left out entirely (zero map), so a
minimal algebra is {"dim": 1}.

Exit codes: 0 all checks pass / verdicts FOUND, 1 a check fails or a
verdict is NONE, 2 a verdict is UNKNOWN, 3 unusable input.  Reports
carry no timings or environment data, so a rerun on the same file is
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .exactlin import Field, Mat, Tensor, rank
from .algstruct import (
    Algebra, Coalgebra, Comodule, check_algebra, check_coalgebra,
    check_comodule,
)
from .entwining import Entwining, check_entwining
from .comodcat import EntwinedModule, check_entwined_module
from .contracat import EntwinedContraModule, check_entwined_contramodule
from .measuring import (
    GaloisData, Measuring, canonical_map, check_measuring, cohom,
    coinvariants, cotensor, hat_tensor, hom_tilde, identity_measuring,
)
from .criteria import (
    Cointegral, decide_frobenius_co, decide_frobenius_contra,
    decide_sep_co_f, decide_sep_co_t, decide_sep_contra_f,
    decide_sep_contra_t, find_cointegral, semisimplicity_probe,
)


class InputError(ValueError):
    """Malformed workspace file or unusable command arguments."""

    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__("%s: %s" % (where, message) if where else message)


# Bound on the entries of the largest dense matrix a workspace implies.
# The checks and deciders build matrices of up to about the square of a
# structure map's entries (kron(mult, I_n) has n^5 for the n^3 of mult),
# so no map may have more than its square root: 4096 entries, 16 times
# the largest map of the test suite and the benchmark.
MAX_DENSE_ENTRIES = 1 << 24


# -- scalar and tensor encoding ---------------------------------------


def _scalar_in(f: Field, x, where: str):
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(where, "scalar must be an int or a string, got %r" % (x,))
    try:
        return f.of(x)
    except (ValueError, ZeroDivisionError) as ex:
        raise InputError(where, str(ex))


def _scalar_out(f: Field, x):
    if f.kind == "prime":
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return str(x)


def _sparse_in(f: Field, entries, file_shape, perm, n_out, where: str) -> Mat:
    """Entry lists in file leg order; `perm` lists which file leg each
    internal tensor leg reads, the first n_out internal legs being the
    output of the map.  A map too large for MAX_DENSE_ENTRIES is refused
    before anything is allocated."""
    size = math.prod(file_shape)
    if size * size > MAX_DENSE_ENTRIES:
        raise InputError(where, "%d entries imply dense matrices over the limit "
                         "of %d entries" % (size, MAX_DENSE_ENTRIES))
    if not isinstance(entries, list):
        raise InputError(where, "expected a list of entries")
    items = []
    for t, ent in enumerate(entries):
        spot = "%s entry #%d" % (where, t)
        if not isinstance(ent, list) or len(ent) != len(file_shape) + 1:
            raise InputError(spot, "expected [%d indices, scalar]" % len(file_shape))
        idx = ent[:-1]
        for i, d in zip(idx, file_shape):
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < d:
                raise InputError(spot, "index %r outside [0, %d)" % (i, d))
        items.append((tuple(idx[p] for p in perm), _scalar_in(f, ent[-1], spot)))
    shape = tuple(file_shape[p] for p in perm)
    try:
        return Tensor.from_items(f, shape, items).flatten(n_out)
    except ValueError as ex:
        raise InputError(where, str(ex))


def _sparse_out(m: Mat, internal_shape, perm, n_out) -> list:
    t = Tensor.from_mat(m, internal_shape[:n_out], internal_shape[n_out:])
    out = []
    for multi in product(*(range(d) for d in internal_shape)):
        s = t[multi]
        if s == m.field.zero:
            continue
        file_idx = [0] * len(perm)
        for pos, p in enumerate(perm):
            file_idx[p] = multi[pos]
        out.append((tuple(file_idx), s))
    out.sort(key=lambda pair: pair[0])
    return [list(idx) + [_scalar_out(m.field, s)] for idx, s in out]


def _vector_in(f: Field, xs, dim, where: str) -> tuple:
    if xs is None:
        return tuple(f.zero for _ in range(dim))
    if not isinstance(xs, list) or len(xs) != dim:
        raise InputError(where, "expected a list of %d scalars" % dim)
    return tuple(_scalar_in(f, x, "%s[%d]" % (where, i)) for i, x in enumerate(xs))


# File leg order of each structure map, with the internal leg
# permutation and output arity.  Maps written [inputs..., output, s]
# share (2, 0, 1) / 1; maps written [input, outputs..., s] share
# (1, 2, 0) / 2; psi carries two legs each way.
_OUTPUT_LAST = ((2, 0, 1), 1)
_INPUT_FIRST = ((1, 2, 0), 2)
_PSI_LEGS = ((2, 3, 0, 1), 2)


# -- workspace --------------------------------------------------------


@dataclass
class Workspace:
    field: Field
    algebras: dict
    coalgebras: dict
    entwinings: dict
    modules: dict
    contramodules: dict
    comodules: dict
    measurings: dict
    galois: dict

    def tables(self):
        return (("algebras", self.algebras), ("coalgebras", self.coalgebras),
                ("entwinings", self.entwinings), ("modules", self.modules),
                ("contramodules", self.contramodules),
                ("comodules", self.comodules),
                ("measurings", self.measurings), ("galois", self.galois))


_TOP_KEYS = ("field", "algebras", "coalgebras", "entwinings", "modules",
             "contramodules", "comodules", "measurings", "galois")


def _obj(doc, where, required, optional=()):
    if not isinstance(doc, dict):
        raise InputError(where, "expected an object")
    for k in doc:
        if k not in required and k not in optional:
            raise InputError(where, "unknown key %r" % (k,))
    for k in required:
        if k not in doc:
            raise InputError(where, "missing key %r" % (k,))
    return doc


def _dim_of(doc, where) -> int:
    d = doc["dim"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        raise InputError(where, "dim must be a non-negative int, got %r" % (d,))
    return d


def _ref(table: dict, name, kind: str, where: str):
    if not isinstance(name, str) or name not in table:
        raise InputError(where, "unknown %s %r" % (kind, name))
    return table[name]


def _table_in(doc, key):
    t = doc.get(key, {})
    if not isinstance(t, dict):
        raise InputError(key, "expected an object of named entries")
    return t


def _field_in(spec) -> Field:
    w = "field"
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError(w, "expected {\"kind\": ...}")
    kind = spec["kind"]
    if kind == "rational":
        _obj(spec, w, ("kind",))
        return Field.rational()
    if kind == "prime":
        _obj(spec, w, ("kind", "p"))
        p = spec["p"]
        if isinstance(p, bool) or not isinstance(p, int):
            raise InputError(w, "p must be an int, got %r" % (p,))
        try:
            return Field.prime(p)
        except ValueError as ex:
            raise InputError(w, str(ex))
    raise InputError(w, "unknown field kind %r" % (kind,))


def field_as_dict(f: Field) -> dict:
    return {"kind": "rational"} if f.kind == "rational" else {"kind": "prime", "p": f.p}


def parse_workspace(path: str, override: Field = None) -> Workspace:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as ex:
        raise InputError(path, str(ex))
    except json.JSONDecodeError as ex:
        raise InputError("%s:%d:%d" % (path, ex.lineno, ex.colno), ex.msg)
    if not isinstance(doc, dict):
        raise InputError(path, "top level must be an object")
    for k in doc:
        if k not in _TOP_KEYS:
            raise InputError(path, "unknown top-level key %r" % (k,))
    if "field" not in doc:
        raise InputError(path, "missing field spec")
    f = _field_in(doc["field"])
    if override is not None:
        f = override

    def build(key, builder):
        out = {}
        for name, spec in _table_in(doc, key).items():
            out[name] = builder("%s.%s" % (key, name), spec, f)
        return out

    def wrap(where, make):
        try:
            return make()
        except InputError:
            raise
        except ValueError as ex:
            raise InputError(where, str(ex))

    def algebra(where, spec, f):
        _obj(spec, where, ("dim",), ("unit", "mult"))
        n = _dim_of(spec, where)
        mult = _sparse_in(f, spec.get("mult", []), (n, n, n),
                          *_OUTPUT_LAST, where + ".mult")
        unit = Mat(f, n, 1, _vector_in(f, spec.get("unit"), n, where + ".unit"))
        return wrap(where, lambda: Algebra(f, n, mult, unit))

    def coalgebra(where, spec, f):
        _obj(spec, where, ("dim",), ("counit", "comult"))
        c = _dim_of(spec, where)
        comult = _sparse_in(f, spec.get("comult", []), (c, c, c),
                            *_INPUT_FIRST, where + ".comult")
        counit = Mat(f, 1, c, _vector_in(f, spec.get("counit"), c, where + ".counit"))
        return wrap(where, lambda: Coalgebra(f, c, comult, counit))

    algebras = build("algebras", algebra)
    coalgebras = build("coalgebras", coalgebra)

    def entwining(where, spec, f):
        _obj(spec, where, ("algebra", "coalgebra"), ("psi",))
        a = _ref(algebras, spec["algebra"], "algebra", where)
        c = _ref(coalgebras, spec["coalgebra"], "coalgebra", where)
        psi = _sparse_in(f, spec.get("psi", []), (c.dim, a.dim, a.dim, c.dim),
                         *_PSI_LEGS, where + ".psi")
        return wrap(where, lambda: Entwining(a, c, psi))

    entwinings = build("entwinings", entwining)

    def module(where, spec, f):
        _obj(spec, where, ("entwining", "dim"), ("action", "coaction"))
        e = _ref(entwinings, spec["entwining"], "entwining", where)
        m = _dim_of(spec, where)
        action = _sparse_in(f, spec.get("action", []), (m, e.alg.dim, m),
                            *_OUTPUT_LAST, where + ".action")
        coaction = _sparse_in(f, spec.get("coaction", []), (m, m, e.coalg.dim),
                              *_INPUT_FIRST, where + ".coaction")
        return wrap(where, lambda: EntwinedModule(e, m, action, coaction))

    def contramodule(where, spec, f):
        _obj(spec, where, ("entwining", "dim"), ("pi", "action"))
        e = _ref(entwinings, spec["entwining"], "entwining", where)
        m = _dim_of(spec, where)
        pi = _sparse_in(f, spec.get("pi", []), (m, e.coalg.dim, m),
                        *_OUTPUT_LAST, where + ".pi")
        action = _sparse_in(f, spec.get("action", []), (e.alg.dim, m, m),
                            *_OUTPUT_LAST, where + ".action")
        return wrap(where, lambda: EntwinedContraModule(e, m, pi, action))

    def comodule(where, spec, f):
        _obj(spec, where, ("coalgebra", "dim"), ("coaction",))
        c = _ref(coalgebras, spec["coalgebra"], "coalgebra", where)
        m = _dim_of(spec, where)
        coaction = _sparse_in(f, spec.get("coaction", []), (m, m, c.dim),
                              *_INPUT_FIRST, where + ".coaction")
        return wrap(where, lambda: Comodule(c, m, coaction))

    def measuring(where, spec, f):
        _obj(spec, where, ("src", "dst"), ("alpha", "gamma"))
        src = _ref(entwinings, spec["src"], "entwining", where)
        dst = _ref(entwinings, spec["dst"], "entwining", where)
        alpha = _sparse_in(f, spec.get("alpha", []),
                           (src.coalg.dim, src.alg.dim, dst.alg.dim),
                           *_OUTPUT_LAST, where + ".alpha")
        gamma = _sparse_in(f, spec.get("gamma", []),
                           (src.coalg.dim, dst.alg.dim, dst.coalg.dim),
                           *_INPUT_FIRST, where + ".gamma")
        return wrap(where, lambda: Measuring(src, dst, alpha, gamma))

    def galois(where, spec, f):
        _obj(spec, where, ("algebra", "coalgebra"), ("coaction",))
        a = _ref(algebras, spec["algebra"], "algebra", where)
        c = _ref(coalgebras, spec["coalgebra"], "coalgebra", where)
        coaction = _sparse_in(f, spec.get("coaction", []), (a.dim, a.dim, c.dim),
                              *_INPUT_FIRST, where + ".coaction")
        return wrap(where, lambda: GaloisData(a, c, coaction))

    return Workspace(f, algebras, coalgebras, entwinings,
                     build("modules", module),
                     build("contramodules", contramodule),
                     build("comodules", comodule),
                     build("measurings", measuring),
                     build("galois", galois))


def workspace_as_dict(ws: Workspace) -> dict:
    """Canonical file form: names sorted, zero entries dropped."""
    f = ws.field
    ent_names = {id(e): name for name, e in ws.entwinings.items()}
    alg_names = {id(a): name for name, a in ws.algebras.items()}
    coalg_names = {id(c): name for name, c in ws.coalgebras.items()}

    def name_of(names, obj, table, kind):
        key = names.get(id(obj))
        if key is not None:
            return key
        for n, other in table.items():
            if other == obj:
                return n
        raise InputError("serialize", "%s is not named in the workspace" % kind)

    def vec_out(m: Mat):
        return [_scalar_out(f, x) for x in m.entries]

    doc = {"field": field_as_dict(f)}

    def put(key, table, one):
        if table:
            doc[key] = {name: one(obj) for name, obj in sorted(table.items())}

    put("algebras", ws.algebras, lambda a: _drop_empty({
        "dim": a.dim, "unit": vec_out(a.unit),
        "mult": _sparse_out(a.mult, (a.dim, a.dim, a.dim), *_OUTPUT_LAST)}))
    put("coalgebras", ws.coalgebras, lambda c: _drop_empty({
        "dim": c.dim, "counit": vec_out(c.counit),
        "comult": _sparse_out(c.comult, (c.dim, c.dim, c.dim), *_INPUT_FIRST)}))
    put("entwinings", ws.entwinings, lambda e: _drop_empty({
        "algebra": name_of(alg_names, e.alg, ws.algebras, "algebra"),
        "coalgebra": name_of(coalg_names, e.coalg, ws.coalgebras, "coalgebra"),
        "psi": _sparse_out(e.psi, (e.alg.dim, e.coalg.dim, e.coalg.dim, e.alg.dim),
                           *_PSI_LEGS)}))
    put("modules", ws.modules, lambda x: _drop_empty({
        "entwining": name_of(ent_names, x.ent, ws.entwinings, "entwining"),
        "dim": x.dim,
        "action": _sparse_out(x.action, (x.dim, x.dim, x.ent.alg.dim), *_OUTPUT_LAST),
        "coaction": _sparse_out(x.coaction, (x.dim, x.ent.coalg.dim, x.dim),
                                *_INPUT_FIRST)}))
    put("contramodules", ws.contramodules, lambda x: _drop_empty({
        "entwining": name_of(ent_names, x.ent, ws.entwinings, "entwining"),
        "dim": x.dim,
        "pi": _sparse_out(x.pi, (x.dim, x.dim, x.ent.coalg.dim), *_OUTPUT_LAST),
        "action": _sparse_out(x.action, (x.dim, x.ent.alg.dim, x.dim),
                              *_OUTPUT_LAST)}))
    put("comodules", ws.comodules, lambda x: _drop_empty({
        "coalgebra": name_of(coalg_names, x.coalg, ws.coalgebras, "coalgebra"),
        "dim": x.dim,
        "coaction": _sparse_out(x.coaction, (x.dim, x.coalg.dim, x.dim),
                                *_INPUT_FIRST)}))
    put("measurings", ws.measurings, lambda m: _drop_empty({
        "src": name_of(ent_names, m.src, ws.entwinings, "entwining"),
        "dst": name_of(ent_names, m.dst, ws.entwinings, "entwining"),
        "alpha": _sparse_out(m.alpha, (m.dst.alg.dim, m.src.coalg.dim,
                                       m.src.alg.dim), *_OUTPUT_LAST),
        "gamma": _sparse_out(m.gamma, (m.dst.alg.dim, m.dst.coalg.dim,
                                       m.src.coalg.dim), *_INPUT_FIRST)}))
    put("galois", ws.galois, lambda g: _drop_empty({
        "algebra": name_of(alg_names, g.alg, ws.algebras, "algebra"),
        "coalgebra": name_of(coalg_names, g.coalg, ws.coalgebras, "coalgebra"),
        "coaction": _sparse_out(g.coaction, (g.alg.dim, g.coalg.dim, g.alg.dim),
                                *_INPUT_FIRST)}))
    return doc


def _drop_empty(d: dict) -> dict:
    return {k: v for k, v in d.items() if v != [] and v is not None}


def serialize_workspace(ws: Workspace) -> str:
    return _dump(workspace_as_dict(ws), 0)


def _dump(val, ind: int) -> str:
    """Canonical layout: sorted keys, one sparse entry per line."""
    pad = " " * (ind + 1)
    if isinstance(val, dict):
        if not val:
            return "{}"
        rows = ["%s%s: %s" % (pad, json.dumps(k), _dump(val[k], ind + 1))
                for k in sorted(val)]
        return "{\n%s\n%s}" % (",\n".join(rows), " " * ind)
    if isinstance(val, list) and any(isinstance(x, list) for x in val):
        rows = [pad + json.dumps(x) for x in val]
        return "[\n%s\n%s]" % (",\n".join(rows), " " * ind)
    return json.dumps(val)


# -- dispatch ---------------------------------------------------------


_CHECKERS = {
    "algebras": check_algebra,
    "coalgebras": check_coalgebra,
    "entwinings": check_entwining,
    "modules": check_entwined_module,
    "contramodules": check_entwined_contramodule,
    "comodules": check_comodule,
    "measurings": check_measuring,
    "galois": lambda g: check_comodule(g.as_comodule()),
}


def _lookup(table: dict, name: str, kind: str):
    if name not in table:
        raise InputError(name, "no %s with this name" % kind)
    return table[name]


def _verdict_exit(statuses) -> int:
    if any(s == "NONE" for s in statuses):
        return 1
    if any(s == "UNKNOWN" for s in statuses):
        return 2
    return 0


def _cmd_check(ws: Workspace, args):
    wanted = list(args.names)
    subjects = []
    for key, table in ws.tables():
        for name, obj in table.items():
            if not wanted or name in wanted:
                subjects.append((key, name, obj))
    for name in wanted:
        if not any(n == name for _, n, _ in subjects):
            raise InputError(name, "no object with this name")
    if not subjects:
        raise InputError("check", "workspace has no objects")
    reports = []
    ok = True
    for key, name, obj in subjects:
        rep = _CHECKERS[key](obj)
        ok = ok and rep.passed
        reports.append({"kind": key, "subject": name, "report": rep.as_dict()})
    return {"reports": reports}, (0 if ok else 1)


def _cmd_galois(ws: Workspace, args):
    g = _lookup(ws.galois, args.name, "galois datum")
    b = coinvariants(g)
    dom, can = canonical_map(g)
    target = g.alg.dim * g.coalg.dim
    r = rank(can)
    bij = dom.dim == target and r == target
    return {"subject": args.name, "galois": {
        "coinvariants_dim": b.dim,
        "canonical_domain_dim": dom.dim,
        "canonical_rank": r,
        "target_dim": target,
        "bijective": bij,
    }}, (0 if bij else 1)


def _cmd_measuring(ws: Workspace, args):
    m = _lookup(ws.measurings, args.name, "measuring")
    rep = check_measuring(m)
    return {"subject": args.name, "report": rep.as_dict()}, (0 if rep.passed else 1)


def _resolve_measuring(ws: Workspace, name: str) -> Measuring:
    if name in ws.measurings:
        return ws.measurings[name]
    if name in ws.entwinings:
        return identity_measuring(ws.entwinings[name])
    raise InputError(name, "no measuring or entwining with this name")


def _functor_cmd(fn, table_key, label):
    def run(ws: Workspace, args):
        m = _resolve_measuring(ws, args.measuring)
        x = _lookup(getattr(ws, table_key), args.object, table_key[:-1])
        y = fn(m, x)
        return {"measuring": args.measuring, "object": args.object,
                label: {"input_dim": x.dim, "dim": y.dim}}, 0
    return run


def _cmd_separability(ws: Workspace, args):
    e = _lookup(ws.entwinings, args.name, "entwining")
    vs = {"co_t": decide_sep_co_t(e), "co_f": decide_sep_co_f(e),
          "contra_t": decide_sep_contra_t(e), "contra_f": decide_sep_contra_f(e)}
    payload = {"subject": args.name,
               "verdicts": {k: v.as_dict() for k, v in vs.items()},
               "observations": {
                   "sides_agree_t": vs["co_t"].status == vs["contra_t"].status,
                   "sides_agree_f": vs["co_f"].status == vs["contra_f"].status}}
    return payload, _verdict_exit([v.status for v in vs.values()])


def _cmd_frobenius(ws: Workspace, args):
    e = _lookup(ws.entwinings, args.name, "entwining")
    vs = {"co": decide_frobenius_co(e, budget_bits=args.budget),
          "contra": decide_frobenius_contra(e, budget_bits=args.budget)}
    return {"subject": args.name, "budget": args.budget,
            "verdicts": {k: v.as_dict() for k, v in vs.items()},
            }, _verdict_exit([v.status for v in vs.values()])


def _cmd_cointegral(ws: Workspace, args):
    e = _lookup(ws.entwinings, args.name, "entwining")
    v = find_cointegral(e)
    return {"subject": args.name, "verdict": v.as_dict()}, _verdict_exit([v.status])


def _cmd_maschke_probe(ws: Workspace, args):
    e = _lookup(ws.entwinings, args.name, "entwining")
    v = find_cointegral(e)
    phi = Cointegral.from_verdict(e, v)
    rep = semisimplicity_probe(e, phi)
    return {"subject": args.name, "cointegral_status": v.status,
            "report": rep.as_dict()}, (0 if rep.passed else 1)


# -- argument handling ------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(self.prog, message)


# Built once per process, on first use: a parser holds reference cycles
# that only the cyclic garbage collector frees, and parsing leaves it
# unchanged.
@functools.cache
def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("path", help="workspace JSON file")
    common.add_argument("--field", dest="field_override", default=None,
                        metavar="SPEC", help="rational or prime:P override")
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--seed", type=int, default=None,
                        help="seed recorded in the report (else the SEED env var)")

    p = _Parser(prog="entwine", description="exact checks and deciders "
                "for entwining structures")
    sub = p.add_subparsers(dest="command", metavar="command",
                           parser_class=_Parser)

    q = sub.add_parser("check", parents=[common],
                       help="verify structure axioms")
    q.add_argument("names", nargs="*", metavar="name",
                   help="subjects to check; default is every object")
    for cmd, hlp in (("galois", "canonical map and coinvariants"),
                     ("measuring", "the five measuring identities"),
                     ("separability", "normalized splitting families, both sides"),
                     ("cointegral", "solve for a normalized cointegral"),
                     ("maschke-probe", "averaged splittings on a small corpus")):
        q = sub.add_parser(cmd, parents=[common], help=hlp)
        q.add_argument("name")
    q = sub.add_parser("frobenius", parents=[common],
                       help="coupled sigma/rho families, both sides")
    q.add_argument("name")
    q.add_argument("--budget", type=int, default=12, metavar="BITS",
                   help="enumerate at most 2^BITS candidates, BITS from 0 to 64 "
                        "(default 12)")
    for cmd, hlp in (("cotensor", "corestrict a module along a measuring"),
                     ("hattensor", "induce a module along a measuring"),
                     ("cohom", "corestrict a contramodule along a measuring"),
                     ("homtilde", "induce a contramodule along a measuring")):
        q = sub.add_parser(cmd, parents=[common], help=hlp)
        q.add_argument("measuring", help="measuring name, or an entwining "
                       "for its identity measuring")
        q.add_argument("object")
    return p


_COMMANDS = {
    "check": _cmd_check,
    "galois": _cmd_galois,
    "measuring": _cmd_measuring,
    "cotensor": _functor_cmd(cotensor, "modules", "cotensor"),
    "hattensor": _functor_cmd(hat_tensor, "modules", "hattensor"),
    "cohom": _functor_cmd(cohom, "contramodules", "cohom"),
    "homtilde": _functor_cmd(hom_tilde, "contramodules", "homtilde"),
    "separability": _cmd_separability,
    "frobenius": _cmd_frobenius,
    "cointegral": _cmd_cointegral,
    "maschke-probe": _cmd_maschke_probe,
}


def _field_flag(s: str) -> Field:
    if s == "rational":
        return Field.rational()
    if s.startswith("prime:"):
        body = s[len("prime:"):]
        try:
            p = int(body)
        except ValueError:
            raise InputError("--field", "modulus %r is not an int" % (body,))
        try:
            return Field.prime(p)
        except ValueError as ex:
            raise InputError("--field", str(ex))
    raise InputError("--field", "expected rational or prime:P, got %r" % (s,))


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise InputError("SEED", "must be an int, got %r" % (env,))


def _text_lines(d: dict, prefix="") -> list:
    lines = []
    for k in sorted(d):
        v = d[k]
        key = prefix + str(k)
        if isinstance(v, dict):
            lines.extend(_text_lines(v, key + "."))
        elif isinstance(v, list) and any(isinstance(x, dict) for x in v):
            for i, x in enumerate(v):
                lines.extend(_text_lines(x, "%s[%d]." % (key, i)))
        else:
            lines.append("%s: %s" % (key, json.dumps(v, sort_keys=True)))
    return lines


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise InputError("entwine", "no command given (try --help)")
        override = (None if args.field_override is None
                    else _field_flag(args.field_override))
        seed = _resolve_seed(args)
        ws = parse_workspace(args.path, override)
        try:
            payload, code = _COMMANDS[args.command](ws, args)
        except InputError:
            raise
        except ValueError as ex:
            raise InputError(args.command, str(ex))
    except InputError as ex:
        print("error: %s" % (ex,), file=sys.stderr)
        return 3
    out = {"command": args.command, "field": field_as_dict(ws.field),
           "seed": seed, "exit": code}
    out.update(payload)
    if args.format == "json":
        print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    else:
        print("\n".join(_text_lines(out)))
    return code


if __name__ == "__main__":
    sys.exit(main())
