"""The failure records of `report`: a shape mismatch in `eq_check`, and
hom spaces of unequal dimension in `hom_bijection_report`."""

from __future__ import annotations

from entwine.exactlin import Field, Mat, SubspaceBasis
from entwine.report import eq_check, hom_bijection_report

Q = Field.rational()


def test_eq_check_reports_a_shape_mismatch_before_any_entry():
    shape = {"name": "c", "passed": False, "witness": {
        "kind": "shape", "lhs_shape": [2, 3], "rhs_shape": [3, 2]}}
    # Both sides are zero, and 1 x 6 against 6 x 1 has the same entries in
    # row-major order; only the shapes differ.
    assert eq_check("c", Mat.zeros(Q, 2, 3), Mat.zeros(Q, 3, 2)).as_dict() == shape
    assert eq_check("c", Mat.from_rows(Q, [[1, 2, 3, 4, 5, 6]]),
                    Mat.from_rows(Q, [[x] for x in range(1, 7)])).witness == {
        "kind": "shape", "lhs_shape": [1, 6], "rhs_shape": [6, 1]}
    # Equal row counts: the rows would zip, but the column counts differ.
    assert eq_check("c", Mat.zeros(Q, 2, 3), Mat.zeros(Q, 2, 4)).witness == {
        "kind": "shape", "lhs_shape": [2, 3], "rhs_shape": [2, 4]}


def test_hom_bijection_report_fails_on_unequal_dims():
    # k^2 (maps 2 x 1) against k (maps 1 x 1): down keeps the first
    # coordinate, up puts it back, so the second basis map of k^2 does not
    # round-trip, and the dimension check records both dimensions.
    left = SubspaceBasis(2, Mat.identity(Q, 2))
    right = SubspaceBasis(1, Mat.identity(Q, 1))
    rep = hom_bijection_report(
        "t", left, (2, 1), right, (1, 1),
        lambda z: Mat(Q, 1, 1, (z[0, 0],)),
        lambda x: Mat(Q, 2, 1, (x[0, 0], Q.zero)),
        ("down", "up"))
    assert rep.checks[0].as_dict() == {"name": "hom-dims-equal", "passed": False,
                                       "witness": {"kind": "dim", "lhs": 2, "rhs": 1}}
    assert [(c.name, c.passed) for c in rep.checks[1:]] == [
        ("down-0", True), ("round-trip-left-0", True),
        ("down-1", True), ("round-trip-left-1", False),
        ("up-0", True), ("round-trip-right-0", True)]
    assert not rep.passed and rep.as_dict()["passed"] is False
