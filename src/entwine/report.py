"""Check records and machine-readable reports.

A Check is one verified identity: name, pass flag, and on failure a
witness locating the first differing entry in row-major order.  Reports
aggregate checks and serialize to JSON with sorted keys and fixed
separators, so identical runs produce identical bytes.
"""

from __future__ import annotations

import json

from .exactlin import Mat, Record, basis_columns, in_subspace


def canonical_json(value) -> str:
    """JSON with sorted keys and no spaces: the bytes of every JSON output."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Check(Record):
    name: str
    passed: bool
    witness: dict | None = None

    def as_dict(self) -> dict:
        d = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


def eq_check(name: str, lhs: Mat, rhs: Mat) -> Check:
    """Entrywise equality with a first-difference witness on failure."""
    if lhs.rows != rhs.rows or lhs.cols != rhs.cols:
        return Check(name, False, {
            "kind": "shape",
            "lhs_shape": [lhs.rows, lhs.cols],
            "rhs_shape": [rhs.rows, rhs.cols],
        })
    # Rows hold no stored zeros, so unequal rows differ at a column one
    # of them holds; the first such column of the first unequal row is
    # the first differing entry in row-major order.
    F, z = lhs.field, lhs.field.zero
    for i, (r, s) in enumerate(zip(lhs.nz, rhs.nz)):
        if r != s:
            j = next(j for j in sorted(r.keys() | s.keys()) if r.get(j, z) != s.get(j, z))
            return Check(name, False, {
                "kind": "entry",
                "row": i,
                "col": j,
                "lhs": F.show(r.get(j, z)),
                "rhs": F.show(s.get(j, z)),
            })
    return Check(name, True)


class Report(Record):
    """Named collection of checks plus free-form result data."""

    title: str
    checks: list = []
    data: dict = {}

    def add(self, check: Check) -> Check:
        self.checks.append(check)
        return check

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "data": self.data,
        }

    def to_json(self) -> str:
        return canonical_json(self.as_dict())


def hom_bijection_report(title: str, left, left_shape, right, right_shape,
                         down, up, names) -> Report:
    """Check that down: left -> right and up: right -> left are mutually
    inverse bijections between two hom spaces, on their bases.

    left and right are SubspaceBasis objects of maps of the given
    (rows, cols) shapes; names are the check-name prefixes for down and
    for up landing in the other space.
    """
    rep = Report(title)
    rep.add(Check("hom-dims-equal", left.dim == right.dim,
                  None if left.dim == right.dim else
                  {"kind": "dim", "lhs": left.dim, "rhs": right.dim}))
    F = left.basis.field
    for j, zeta in enumerate(basis_columns(F, left.basis, *left_shape)):
        img = down(zeta)
        rep.add(Check("%s-%d" % (names[0], j), in_subspace(right, img)))
        rep.add(eq_check("round-trip-left-%d" % j, up(img), zeta))
    for j, xi in enumerate(basis_columns(F, right.basis, *right_shape)):
        img = up(xi)
        rep.add(Check("%s-%d" % (names[1], j), in_subspace(left, img)))
        rep.add(eq_check("round-trip-right-%d" % j, down(img), xi))
    return rep


def mat_as_lists(m: Mat) -> list:
    """Matrix as row lists of canonical scalar strings, for JSON output."""
    return [[m.field.show(x) for x in m.row(i)] for i in range(m.rows)]


class Verdict(Record):
    """Outcome of a decision procedure.

    status is FOUND, NONE, or UNKNOWN.  A FOUND verdict carries named
    witness matrices that re-verify against the defining equations; a
    NONE verdict carries the kind of certificate that rules a witness
    out ("linear" infeasibility or "exhaustive" search); UNKNOWN carries
    only the strategy log.
    """

    status: str
    witness: dict | None = None
    certificate: str | None = None
    log: tuple = ()
    data: dict = {}

    def __post_init__(self):
        if self.status not in ("FOUND", "NONE", "UNKNOWN"):
            raise ValueError("bad verdict status %r" % (self.status,))
        if self.status == "NONE" and self.certificate not in ("linear", "exhaustive"):
            raise ValueError("NONE requires a certificate kind")

    @property
    def found(self) -> bool:
        return self.status == "FOUND"

    def as_dict(self) -> dict:
        d = {"status": self.status, "log": list(self.log), "data": self.data}
        if self.witness is not None:
            d["witness"] = {
                k: (mat_as_lists(v) if isinstance(v, Mat) else v)
                for k, v in sorted(self.witness.items())
            }
        if self.certificate is not None:
            d["certificate"] = self.certificate
        return d

    def to_json(self) -> str:
        return canonical_json(self.as_dict())
