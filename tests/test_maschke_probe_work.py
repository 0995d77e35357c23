"""Work per maschke-probe call: the cointegral identities once.

`find_cointegral` solves sep-f's system, whose three identities are the
cointegral's in th = (I_n (x) phi)(coev (x) I_c), and re-verifies its
witness by substitution there; `Cointegral.from_verdict` takes that
witness without evaluating the identities again.  One `maschke-probe`
call on the shipped kZ2 example must therefore build the three term
lists once and evaluate each of them once.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import entwine.cli as cli
from entwine import criteria
from entwine.exactlin import Mat, TermList

KZ2 = str(Path(cli.__file__).parent / "examples" / "kZ2.json")


def test_identities_built_and_evaluated_once(monkeypatch, capsys):
    builds, evaluations = [], []

    class Counted(TermList):
        def __call__(self, *xs):
            evaluations.append(self)
            return super().__call__(*xs)

    real = criteria._sep_f_identities

    def counted(e):
        builds.append(e)
        return [Counted(f.terms, f.const) for f in real(e)]

    monkeypatch.setattr(criteria, "_sep_f_identities", counted)
    code = cli.main(["maschke-probe", KZ2, "E", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["cointegral_status"] == "FOUND"
    assert doc["report"]["passed"]
    assert len(builds) == 1
    assert len(evaluations) == 3 and len(set(map(id, evaluations))) == 3


def test_each_failure_keeps_its_error_type(monkeypatch):
    e = cli.parse_workspace(KZ2).entwinings["E"]
    v = criteria.find_cointegral(e)
    phi = v.witness["phi"]
    assert criteria.Cointegral.from_verdict(e, v).phi == phi
    # A phi that fails an identity: Cointegral raises ValueError.
    with pytest.raises(ValueError, match="cointegral identity 'normalization' fails"):
        criteria.Cointegral(e, Mat.zeros(e.field, phi.rows, phi.cols))
    # A witness that fails its substitution check is a solver bug.
    real = criteria.solve_affine

    def wrong(a, b):
        sol = real(a, b)
        return Mat.zeros(e.field, sol[0].rows, sol[0].cols), sol[1]

    monkeypatch.setattr(criteria, "solve_affine", wrong)
    with pytest.raises(AssertionError, match="cointegral witness fails identity"):
        criteria.find_cointegral(e)
