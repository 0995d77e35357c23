"""Span tracing around the package's public functions, from outside it.

`Tracer.install()` wraps each traced function and puts the wrapper in
every module namespace that imported the name (and in the command
closures of `entwine.cli`), plus the `Mat` methods behind `*`, `+`, `-`
and `.t`.  `uninstall()` restores the originals.  A span records its
group, its parent span, start and end, and for some groups counts taken
from the call's arguments and result.  Spans stay in memory until the
run ends; `summary()` turns them into per-layer metrics and `dump()`
writes them out.

Counting runs after the span is closed and its cost is charged to no
layer: a parent's self time excludes its children's counting.
"""

from __future__ import annotations

import json
import time

from entwine import (
    algstruct, cli, comodcat, contracat, criteria, entwining, exactlin,
    measuring, report,
)
from entwine.exactlin import Mat

NAMESPACES = (exactlin, report, algstruct, entwining, comodcat, contracat,
              measuring, criteria, cli)


# -- counters: (args, result) -> dict of counts -----------------------

def _nnz(entries) -> int:
    return sum(map(bool, entries))


def _count_matmul(args, out):
    a, b = args
    m, k = a.cols, b.cols
    ae, be = a.entries, b.entries
    col = [_nnz(ae[t::m]) for t in range(m)]
    row = [_nnz(be[t * k:(t + 1) * k]) for t in range(m)]
    nnz_a = sum(col)
    return {"scanned": nnz_a * k, "useful": sum(c * r for c, r in zip(col, row))}


def _count_kron(args, out):
    a, b = args
    return {"entries": len(out.entries), "nonzero": _nnz(a.entries) * _nnz(b.entries)}


def _max_bits(m: Mat) -> int:
    if not m.entries:
        return 0
    if m.field.kind == "prime":
        return max(m.entries).bit_length()
    return max((abs(x.numerator) | x.denominator).bit_length() for x in m.entries)


def _count_rref(args, out):
    m = args[0]
    return {"cells": m.rows * m.cols, "max_bits": _max_bits(out[0])}


def _count_affine(args, out):
    _, rows, cols, _ = args
    return {"unit_evals": rows * cols + 1}


def _count_solution_basis(args, out):
    _, rows, cols, conditions = args
    return {"unit_evals": rows * cols * len(conditions)}


def _count_solve(args, out):
    return {"infeasible": int(out is None)}


# Module-level functions: (module, name, span group, counter).
FUNCTIONS = (
    (exactlin, "kron", "exactlin.kron", _count_kron),
    (exactlin, "hstack", "exactlin.elementwise", None),
    (exactlin, "vstack", "exactlin.elementwise", None),
    (exactlin, "rref", "exactlin.rref", _count_rref),
    (exactlin, "kernel_basis", "exactlin.kernel_basis", None),
    (exactlin, "solve_affine", "exactlin.solve_affine", _count_solve),
    (exactlin, "cokernel", "exactlin.cokernel", None),
    (exactlin, "restrict_map", "exactlin.restrict_map", None),
    (exactlin, "affine_matrix_system", "exactlin.affine_matrix_system", _count_affine),
    (exactlin, "mat_solution_basis", "exactlin.mat_solution_basis",
     _count_solution_basis),
    (report, "eq_check", "report.eq_check", None),
    (algstruct, "check_algebra", "algstruct.check", None),
    (algstruct, "check_coalgebra", "algstruct.check", None),
    (algstruct, "check_comodule", "algstruct.check", None),
    (algstruct, "check_module_right", "algstruct.check", None),
    (algstruct, "check_module_left", "algstruct.check", None),
    (entwining, "check_entwining", "entwining.check_entwining", None),
    (comodcat, "hom_space", "comodcat.hom_space", None),
    (comodcat, "induce_tc", "comodcat.induce", None),
    (comodcat, "induce_mc", "comodcat.induce", None),
    (contracat, "contra_hom_space", "contracat.contra_hom_space", None),
    (contracat, "induce_contra_t", "contracat.induce", None),
    (contracat, "induce_a_t", "contracat.induce", None),
    (measuring, "cotensor", "measuring.functors", None),
    (measuring, "hat_tensor", "measuring.functors", None),
    (measuring, "cohom", "measuring.functors", None),
    (measuring, "hom_tilde", "measuring.functors", None),
    (measuring, "adjunction_check_measuring", "measuring.adjunction", None),
    (measuring, "coinvariants", "measuring.galois", None),
    (measuring, "canonical_map", "measuring.galois", None),
    (criteria, "decide_sep_co_t", "criteria.separability", None),
    (criteria, "decide_sep_co_f", "criteria.separability", None),
    (criteria, "decide_sep_contra_t", "criteria.separability", None),
    (criteria, "decide_sep_contra_f", "criteria.separability", None),
    (criteria, "find_cointegral", "criteria.cointegral", None),
    (criteria, "decide_frobenius_co", "criteria.frobenius", None),
    (criteria, "decide_frobenius_contra", "criteria.frobenius", None),
    (criteria, "semisimplicity_probe", "criteria.semisimplicity_probe", None),
    (cli, "parse_workspace", "cli.parse_workspace", None),
)

# Mat methods: (attribute, span group, counter); "t" is a property.
METHODS = (
    ("_matmul", "exactlin.matmul", _count_matmul),
    ("__add__", "exactlin.elementwise", None),
    ("__sub__", "exactlin.elementwise", None),
    ("__neg__", "exactlin.elementwise", None),
    ("scale", "exactlin.elementwise", None),
    ("t", "exactlin.elementwise", None),
)

_GROUP, _FN, _PARENT, _START, _END, _COUNTS, _COUNT_COST = range(7)


class Tracer:
    def __init__(self, extra_namespaces=()):
        # [group, function, parent index, start, end, counts, counting cost]
        self.spans = []
        self.namespaces = NAMESPACES + tuple(extra_namespaces)
        self._stack = [-1]
        self._undo = []

    # -- spans --------------------------------------------------------

    def wrap(self, group: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fn_name = fn.__name__

        def traced(*args, **kwargs):
            rec = [group, fn_name, stack[-1], 0.0, 0.0, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if counter is not None:
                rec[_COUNTS] = counter(args, out)
                rec[_COUNT_COST] = clock() - rec[_END]
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------

    def _replace(self, obj, attr, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        for module, name, group, counter in FUNCTIONS:
            original = getattr(module, name)
            wrapper = self.wrap(group, original, counter)
            for ns in self.namespaces:
                if getattr(ns, name, None) is original:
                    self._replace(ns, name, wrapper)
            # Commands built by a factory hold the function in a closure.
            for command in cli._COMMANDS.values():
                for cell in command.__closure__ or ():
                    if cell.cell_contents is original:
                        self._replace(cell, "cell_contents", wrapper)
        for attr, group, counter in METHODS:
            raw = Mat.__dict__[attr]
            if isinstance(raw, property):
                self._replace(Mat, attr, property(self.wrap(group, raw.fget)))
            else:
                self._replace(Mat, attr, self.wrap(group, raw, counter))
        for name, command in list(cli._COMMANDS.items()):
            self._replace_item(cli._COMMANDS, name, self.wrap("cli.command", command))

    def _replace_item(self, table, key, new):
        self._undo.append((table, key, table[key]))
        table[key] = new

    def uninstall(self) -> None:
        while self._undo:
            obj, key, old = self._undo.pop()
            if isinstance(obj, dict):
                obj[key] = old
            else:
                setattr(obj, key, old)

    # -- results ------------------------------------------------------

    def summary(self) -> dict:
        """Per group: calls, inclusive seconds (outermost spans only), self
        seconds and summed counts; "criteria.frobenius" also counts the
        affine solves made under it ("solves")."""
        spans = self.spans
        cover = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                cover[rec[_PARENT]] += rec[_END] - rec[_START] + rec[_COUNT_COST]
        groups = {}
        for i, rec in enumerate(spans):
            name = rec[_GROUP]
            g = groups.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = rec[_END] - rec[_START]
            g["calls"] += 1
            g["self_s"] += dur - cover[i]
            for k, v in (rec[_COUNTS] or {}).items():
                g[k] = max(g.get(k, 0), v) if k.startswith("max_") else g.get(k, 0) + v
            ancestors = set()
            p = rec[_PARENT]
            while p >= 0:
                ancestors.add(spans[p][_GROUP])
                p = spans[p][_PARENT]
            if name not in ancestors:
                g["s"] += dur
            if name == "exactlin.solve_affine" and "criteria.frobenius" in ancestors:
                frob = groups["criteria.frobenius"]
                frob["solves"] = frob.get("solves", 0) + 1
        return groups

    def per_call(self, root_group: str, prefix: str) -> list:
        """For each root span of root_group, in call order: inclusive
        seconds per function of the outermost spans under it whose group
        starts with prefix."""
        spans = self.spans
        roots = {}
        for i, rec in enumerate(spans):
            if rec[_GROUP] == root_group and rec[_PARENT] < 0:
                roots[i] = {}
        for rec in spans:
            if not rec[_GROUP].startswith(prefix):
                continue
            p, nested = rec[_PARENT], False
            while p >= 0 and p not in roots:
                nested = nested or spans[p][_GROUP] == rec[_GROUP]
                p = spans[p][_PARENT]
            if p >= 0 and not nested:
                calls = roots[p]
                calls[rec[_FN]] = calls.get(rec[_FN], 0.0) + rec[_END] - rec[_START]
        return list(roots.values())

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:_COUNTS + 1], separators=(",", ":")))
                fh.write("\n")
