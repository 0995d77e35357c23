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
and so on with inputs before outputs in reading order.  Omitted
entries are zero; indices are 0-based.  Structure keys may be left out
entirely (zero map), so a minimal algebra is {"dim": 1}.

A scalar is a JSON int, or a string holding an int, a fraction such as
"-3/4" or a decimal such as "0.25"; exponent forms such as "1e3" are
refused.  Each distinct scalar literal is parsed once per read.  The
prime p must be below 2^64.  A dim may not exceed the square root of
MAX_DENSE_ENTRIES, nor may the entry count of any map.

The table _KINDS below is the format's single statement: parsing,
serialization, the Workspace fields and the order of `check` all read
it.

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
from operator import attrgetter

from .exactlin import Field, Mat, Record, _set, rank
from .algstruct import (
    Algebra, Coalgebra, Comodule, check_algebra, check_coalgebra,
    check_comodule,
)
from .entwining import Entwining, check_entwining
from .comodcat import EntwinedModule, check_entwined_module
from .contracat import EntwinedContraModule, check_entwined_contramodule
from .measuring import (
    GaloisData, Measuring, canonical_map, check_measuring, cohom, cotensor,
    hat_tensor, hom_tilde, identity_measuring,
)
from .criteria import (
    Cointegral, decide_frobenius_co, decide_sep_co_f, decide_sep_co_t,
    find_cointegral, semisimplicity_probe,
)
from .report import canonical_json


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


# -- scalars and structure maps ---------------------------------------


def _scalar_in(f: Field, scalars: dict, x):
    """The value of scalar x, parsed once per distinct int or str literal
    of a read: scalars maps those parsed so far to their values, a zero to
    the field's zero.  1, 1.0 and true hash alike, so a float or a bool
    never reaches the table and is refused.  A refusal carries no
    position; the caller adds it."""
    t = type(x)
    if t is not int and t is not str:
        raise InputError("", "scalar must be an int or a string, got %r" % (x,))
    v = scalars.get(x)
    if v is None:
        try:
            v = scalars[x] = f.of(x) or f.zero
        except (ValueError, ZeroDivisionError) as ex:
            raise InputError("", str(ex))
    return v


def _scalar_out(f: Field, x):
    if f.kind == "prime":
        return x
    if x.denominator == 1:
        return int(x)
    return str(x)


def _matrix_legs(shape, n_in: int) -> tuple:
    """File leg positions in matrix order: the outputs, then the inputs."""
    return tuple(range(n_in, len(shape))) + tuple(range(n_in))


def _sparse_in(f: Field, entries, shape, n_in: int, where: str, scalars: dict) -> Mat:
    """The matrix of a map from its nonzeros [i_1, ..., i_k, s], in file
    leg order with the first n_in legs the input.  The matrix rows run over
    the output legs and the columns over the input legs, each first-leg
    major.  A map too large for MAX_DENSE_ENTRIES is refused before
    anything is allocated.  Each entry is checked in file order, its shape,
    then its indices, then its scalar; a scalar that parses to zero is
    checked and dropped.  Duplicates, zeros among them, are refused once
    the whole map has been read."""
    size = math.prod(shape)
    if size * size > MAX_DENSE_ENTRIES:
        raise InputError(where, "%d entries imply dense matrices over the limit "
                         "of %d entries" % (size, MAX_DENSE_ENTRIES))
    if not isinstance(entries, list):
        raise InputError(where, "expected a list of entries")
    # (dim, row stride, column stride) of each file leg, first leg major:
    # an input leg moves the column only, an output leg the row only.
    k = len(shape)
    legs, rows, cols = [None] * k, 1, 1
    for p in range(k - 1, -1, -1):
        d = shape[p]
        if p < n_in:
            legs[p], cols = (d, 0, cols), cols * d
        else:
            legs[p], rows = (d, rows, 0), rows * d
    out = [{} for _ in range(rows)]
    zero, zeros, get = f.zero, set(), scalars.get
    for t, ent in enumerate(entries):
        if type(ent) is not list or len(ent) != k + 1:
            raise InputError("%s entry #%d" % (where, t),
                             "expected [%d indices, scalar]" % k)
        i = j = 0
        for x, (d, si, sj) in zip(ent, legs):
            if type(x) is not int or not 0 <= x < d:
                raise InputError("%s entry #%d" % (where, t),
                                 "index %r outside [0, %d)" % (x, d))
            i += x * si
            j += x * sj
        x = ent[k]
        ts = type(x)
        v = get(x) if ts is int or ts is str else None
        if v is None:
            try:
                v = _scalar_in(f, scalars, x)
            except InputError as ex:
                # The entry's position is spelled out only when it is refused.
                raise InputError("%s entry #%d" % (where, t), str(ex)) from None
        if v is zero:
            zeros.add((i, j))
        else:
            out[i][j] = v
    # Each entry fills one slot, a nonzero or a zero one: a duplicate
    # leaves fewer slots than entries, or a zero slot that is also nonzero.
    if (sum(map(len, out)) + len(zeros) != len(entries)
            or any(j in out[i] for i, j in zeros)):
        raise InputError(where, "duplicate entry at index %r"
                         % (_first_duplicate(entries, _matrix_legs(shape, n_in)),))
    return Mat._of(f, rows, cols, out)


def _first_duplicate(entries, order) -> tuple:
    """The legs, in matrix order, of the first entry whose index an
    earlier entry has; the entries are known to be well formed."""
    seen = set()
    for ent in entries:
        index = tuple(ent[p] for p in order)
        if index in seen:
            return index
        seen.add(index)


def _sparse_out(m: Mat, shape, n_in: int) -> list:
    order = _matrix_legs(shape, n_in)
    out = []
    for i, row in enumerate(m.nz):
        for j, s in row.items():
            flat, idx = i * m.cols + j, [0] * len(shape)
            for p in reversed(order):
                flat, idx[p] = divmod(flat, shape[p])
            out.append((idx, s))
    out.sort(key=lambda pair: pair[0])
    return [idx + [_scalar_out(m.field, s)] for idx, s in out]


def _vector_in(f: Field, xs, rows: int, cols: int, where: str, scalars: dict) -> Mat:
    """The rows x cols matrix of a map listed as all of its row-major
    entries, or the zero map if xs is None."""
    if xs is None:
        return Mat.zeros(f, rows, cols)
    n = rows * cols
    if not isinstance(xs, list) or len(xs) != n:
        raise InputError(where, "expected a list of %d scalars" % n)
    zero, out = f.zero, [{} for _ in range(rows)]
    for t, x in enumerate(xs):
        try:
            v = _scalar_in(f, scalars, x)
        except InputError as ex:
            raise InputError("%s[%d]" % (where, t), str(ex)) from None
        if v is not zero:
            out[t // cols][t % cols] = v
    return Mat._of(f, rows, cols, out)


# Layouts: how many of a map's file legs, counted from the start, are its
# input, and whether the file lists every entry (a vector) rather than
# the nonzeros.  Maps written [inputs..., output, s] have two input legs,
# maps written [input, outputs..., s] one, and psi two of its four.
_OUTPUT_LAST = (2, False)
_INPUT_FIRST = (1, False)
_PSI_LEGS = (2, False)
_COLUMN = (0, True)
_ROW = (1, True)


def _map_in(f: Field, spec: dict, key: str, shape, layout, where: str,
            scalars: dict) -> Mat:
    n_in, dense = layout
    if dense:
        return _vector_in(f, spec.get(key), math.prod(shape[n_in:]),
                          math.prod(shape[:n_in]), where, scalars)
    return _sparse_in(f, spec.get(key, []), shape, n_in, where, scalars)


def _map_out(m: Mat, shape, layout):
    n_in, dense = layout
    if dense:
        return [_scalar_out(m.field, x) for i in range(m.rows) for x in m.row(i)]
    return _sparse_out(m, shape, n_in)


def _leg(path: str, heads: tuple) -> tuple:
    """A leg's dim as (slot, getter) on an object's (dim, *refs): the
    object's own dim, or an attribute path from one of its references."""
    head, _, rest = path.partition(".")
    if head == "dim":
        return 0, None
    return 1 + heads.index(head), attrgetter(rest)


def _shape(env: tuple, legs) -> tuple:
    """The dim of each file leg, read from (dim, *refs)."""
    return tuple(env[s] if get is None else get(env[s]) for s, get in legs)


# -- the format -------------------------------------------------------


class _Kind(Record):
    """One table of a workspace file.

    refs: (JSON key, target table, attribute) of each reference.  maps:
    (JSON key, which is also the attribute; file legs; layout) of each
    structure map, a leg being the attribute path of its dim.  The class
    takes the references (the field when there are none), then the dim,
    then the maps.

    Set once, at import, and not fields: the required and optional keys
    of an object, and layouts, per map (key, legs, layout) with each leg a
    (slot, getter) of _leg.
    """

    key: str
    make: type
    check: object
    refs: tuple
    has_dim: bool
    maps: tuple

    def __post_init__(self):
        heads = tuple(attr for _, _, attr in self.refs)
        _set(self, "required",
             tuple(key for key, _, _ in self.refs) + ("dim",) * self.has_dim)
        _set(self, "optional", tuple(key for key, _, _ in self.maps))
        _set(self, "layouts", tuple(
            (key, tuple(_leg(leg, heads) for leg in legs), layout)
            for key, legs, layout in self.maps))


_ALG = ("algebra", "algebras", "alg")
_COALG = ("coalgebra", "coalgebras", "coalg")
_ENT = ("entwining", "entwinings", "ent")

# In read order: a table refers only to the tables above it.
_KINDS = (
    _Kind("algebras", Algebra, check_algebra, (), True, (
        ("mult", ("dim", "dim", "dim"), _OUTPUT_LAST),
        ("unit", ("dim",), _COLUMN))),
    _Kind("coalgebras", Coalgebra, check_coalgebra, (), True, (
        ("comult", ("dim", "dim", "dim"), _INPUT_FIRST),
        ("counit", ("dim",), _ROW))),
    _Kind("entwinings", Entwining, check_entwining, (_ALG, _COALG), False, (
        ("psi", ("coalg.dim", "alg.dim", "alg.dim", "coalg.dim"), _PSI_LEGS),)),
    _Kind("modules", EntwinedModule, check_entwined_module, (_ENT,), True, (
        ("action", ("dim", "ent.alg.dim", "dim"), _OUTPUT_LAST),
        ("coaction", ("dim", "dim", "ent.coalg.dim"), _INPUT_FIRST))),
    _Kind("contramodules", EntwinedContraModule, check_entwined_contramodule,
          (_ENT,), True, (
              ("pi", ("dim", "ent.coalg.dim", "dim"), _OUTPUT_LAST),
              ("action", ("ent.alg.dim", "dim", "dim"), _OUTPUT_LAST))),
    _Kind("comodules", Comodule, check_comodule, (_COALG,), True, (
        ("coaction", ("dim", "dim", "coalg.dim"), _INPUT_FIRST),)),
    _Kind("measurings", Measuring, check_measuring,
          (("src", "entwinings", "src"), ("dst", "entwinings", "dst")), False, (
              ("alpha", ("src.coalg.dim", "src.alg.dim", "dst.alg.dim"), _OUTPUT_LAST),
              ("gamma", ("src.coalg.dim", "dst.alg.dim", "dst.coalg.dim"),
               _INPUT_FIRST))),
    _Kind("galois", GaloisData, lambda g: check_comodule(g.as_comodule()),
          (_ALG, _COALG), False, (
              ("coaction", ("alg.dim", "alg.dim", "coalg.dim"), _INPUT_FIRST),)),
)

_TOP_KEYS = ("field",) + tuple(kind.key for kind in _KINDS)


# -- workspace --------------------------------------------------------


class Workspace(Record):
    """The field, then one {name: object} dict per table of _KINDS."""

    __annotations__ = dict(field=Field, **{kind.key: dict for kind in _KINDS})

    def tables(self) -> tuple:
        return tuple((kind.key, getattr(self, kind.key)) for kind in _KINDS)


def _obj(doc, where, required, optional=()):
    if not isinstance(doc, dict):
        raise InputError(where, "expected an object")
    for k in doc:
        if k not in required and k not in optional:
            raise InputError(where, "unknown key %r" % (k,))
    for k in required:
        if k not in doc:
            raise InputError(where, "missing key %r" % (k,))


def _dim_of(doc, where) -> int:
    d = doc["dim"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        raise InputError(where, "dim must be a non-negative int, got %r" % (d,))
    # Over a zero-dimensional algebra or coalgebra every map is empty, so
    # only this bounds the dim x dim identities the checks build.
    if d * d > MAX_DENSE_ENTRIES:
        raise InputError(where + ".dim", "dim %d implies dense matrices over the "
                         "limit of %d entries" % (d, MAX_DENSE_ENTRIES))
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


def _object_in(kind: _Kind, where: str, spec, f: Field, tables: dict,
               scalars: dict):
    _obj(spec, where, kind.required, kind.optional)
    refs = [_ref(tables[table], spec[key], table[:-1], where)
            for key, table, _ in kind.refs]
    dim = _dim_of(spec, where) if kind.has_dim else 0
    env = (dim, *refs)
    args = refs or [f]
    if kind.has_dim:
        args.append(dim)
    for key, legs, layout in kind.layouts:
        args.append(_map_in(f, spec, key, _shape(env, legs), layout,
                            "%s.%s" % (where, key), scalars))
    try:
        return kind.make(*args)
    except ValueError as ex:
        raise InputError(where, str(ex))


def parse_workspace(path: str, override: Field = None) -> Workspace:
    """The workspace of a file, over override if given.  Each distinct
    int or str scalar literal is parsed once in this call (see
    _scalar_in); nothing is kept between calls."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as ex:
        raise InputError(path, str(ex))
    except json.JSONDecodeError as ex:
        raise InputError("%s:%d:%d" % (path, ex.lineno, ex.colno), ex.msg)
    except (ValueError, RecursionError) as ex:
        # not UTF-8, an int literal too long to convert, or nested too deep
        raise InputError(path, str(ex))
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
    tables, scalars = {}, {}
    for kind in _KINDS:
        tables[kind.key] = {
            name: _object_in(kind, "%s.%s" % (kind.key, name), spec, f, tables, scalars)
            for name, spec in _table_in(doc, kind.key).items()}
    return Workspace(f, **tables)


def workspace_as_dict(ws: Workspace) -> dict:
    """Canonical file form: names sorted, zero entries dropped."""
    names = {key: {id(obj): name for name, obj in table.items()}
             for key, table in ws.tables()}

    def name_of(key, obj):
        name = names[key].get(id(obj))
        if name is not None:
            return name
        for name, other in getattr(ws, key).items():
            if other == obj:
                return name
        raise InputError("serialize", "%s is not named in the workspace" % key[:-1])

    def one(kind, obj):
        refs = [getattr(obj, attr) for _, _, attr in kind.refs]
        out = {key: name_of(table, ref) for (key, table, _), ref in zip(kind.refs, refs)}
        dim = 0
        if kind.has_dim:
            dim = out["dim"] = obj.dim
        for key, legs, layout in kind.layouts:
            out[key] = _map_out(getattr(obj, key), _shape((dim, *refs), legs), layout)
        return {k: v for k, v in out.items() if v != []}

    doc = {"field": field_as_dict(ws.field)}
    for kind in _KINDS:
        table = getattr(ws, kind.key)
        if table:
            doc[kind.key] = {name: one(kind, obj) for name, obj in sorted(table.items())}
    return doc


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
    for kind in _KINDS:
        for name, obj in getattr(ws, kind.key).items():
            if not wanted or name in wanted:
                subjects.append((kind, name, obj))
    for name in wanted:
        if not any(n == name for _, n, _ in subjects):
            raise InputError(name, "no object with this name")
    if not subjects:
        raise InputError("check", "workspace has no objects")
    reports = []
    ok = True
    for kind, name, obj in subjects:
        rep = kind.check(obj)
        ok = ok and rep.passed
        reports.append({"kind": kind.key, "subject": name, "report": rep.as_dict()})
    return {"reports": reports}, (0 if ok else 1)


def _cmd_galois(ws: Workspace, args):
    g = _lookup(ws.galois, args.name, "galois datum")
    b, dom, can = canonical_map(g)
    r = rank(can)
    bij = dom.dim == can.rows == r
    return {"subject": args.name, "galois": {
        "coinvariants_dim": b.dim,
        "canonical_domain_dim": dom.dim,
        "canonical_rank": r,
        "target_dim": can.rows,
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


# The contramodule deciders are the comodule ones (criteria), so each
# verdict is computed once and reported under both variances.
def _cmd_separability(ws: Workspace, args):
    e = _lookup(ws.entwinings, args.name, "entwining")
    t, f = decide_sep_co_t(e).as_dict(), decide_sep_co_f(e).as_dict()
    payload = {"subject": args.name,
               "verdicts": {"co_t": t, "co_f": f, "contra_t": t, "contra_f": f},
               "observations": {"sides_agree_t": True, "sides_agree_f": True}}
    return payload, _verdict_exit([t["status"], f["status"]])


def _cmd_frobenius(ws: Workspace, args):
    e = _lookup(ws.entwinings, args.name, "entwining")
    v = decide_frobenius_co(e, budget_bits=args.budget).as_dict()
    return {"subject": args.name, "budget": args.budget,
            "verdicts": {"co": v, "contra": v}}, _verdict_exit([v["status"]])


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
                   help="enumerate at most 2^BITS candidates, counted "
                        "projectively (zero and one point per line), BITS from "
                        "0 to 64 (default 12)")
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
        print(canonical_json(out))
    else:
        print("\n".join(_text_lines(out)))
    return code


if __name__ == "__main__":
    sys.exit(main())
