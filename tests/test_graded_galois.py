"""Ulbrich's theorem on graded algebras: the first Galois data whose
coinvariants are not the base field.

A G-graded algebra A is a kG-comodule algebra, a in A_g going to
a (x) g.  Its coinvariants are A_e, and it is kG-Galois iff it is
strongly graded, A_g A_h = A_gh for all g and h (Ulbrich, Abh. Math. Sem.
Univ. Hamburg 51, 1981; Montgomery, Hopf Algebras and Their Actions on
Rings, CBMS 82, 1993, Section 8.1).  The oracle here decides strong
grading from the ranks of spans of products of homogeneous basis
vectors, without the canonical map.  For strongly graded data the
measuring of `galois_measuring` is checked, and its unit and counit are
bijective at the representing objects.  Dade's equivalence of the whole
categories is not tested here.
"""

from __future__ import annotations

import json
from itertools import product

import pytest

from entwine.cli import main
from entwine.exactlin import Field, Mat, SubspaceBasis, kron, same_subspace
from entwine.algstruct import check_algebra
from entwine.entwining import check_entwining
from entwine.measuring import (
    check_measuring, coinvariants, galois_entwining, galois_measuring,
    is_co_galois, is_contra_galois, is_galois,
)
from corpus import graded_algebras, graded_galois, write_galois_workspace
from oracles import rank_oracle

FIELDS = {"Q": Field.rational(), "F2": Field.prime(2), "F3": Field.prime(3),
          "F5": Field.prime(5)}
STRONG = {"m2-z2", "kz4-z2", "quaternions-klein"}
NAMES = sorted(graded_algebras(Field.rational()))
CASES = [(name, f) for name in NAMES for f in sorted(FIELDS)]


def strongly_graded(alg, grades, group) -> bool:
    """A_g A_h = A_gh for all g and h.  Each product of homogeneous basis
    vectors must lie in A_gh (the grading is one), so the products span
    A_gh exactly when their rank is dim A_gh."""
    F, n = alg.field, alg.dim
    unit_vectors = [Mat.identity(F, n).col_mat(i) for i in range(n)]
    part = [[i for i in range(n) if grades[i] == g] for g in range(len(group))]
    strong = True
    for g, h in product(range(len(group)), repeat=2):
        gh = group[g][h]
        prods = [alg.mult * kron(unit_vectors[i], unit_vectors[j])
                 for i in part[g] for j in part[h]]
        assert all(p[r, 0] == F.zero for p in prods for r in range(n) if grades[r] != gh)
        span = Mat.from_rows(F, [[p[r, 0] for p in prods] for r in range(n)])
        strong = strong and rank_oracle(span) == len(part[gh])
    return strong


def datum(name, field):
    alg, grades, group = graded_algebras(field)[name]
    return alg, grades, group, graded_galois(alg, grades, group)


@pytest.mark.parametrize("name,fname", CASES)
def test_galois_iff_strongly_graded(name, fname, tmp_path, capsys):
    alg, grades, group, g = datum(name, FIELDS[fname])
    assert check_algebra(alg).passed
    strong = strongly_graded(alg, grades, group)
    assert strong == (name in STRONG)
    assert is_galois(g) == strong
    # The coinvariants are A_e, spanned by the basis vectors of degree 0.
    b = coinvariants(g)
    degree_zero = [i for i in range(alg.dim) if grades[i] == 0]
    assert b.dim == len(degree_zero)
    assert same_subspace(b.space, SubspaceBasis(alg.dim, Mat.from_rows(
        g.field, [[int(r == i) for i in degree_zero] for r in range(alg.dim)])))

    path = tmp_path / "graded.json"
    write_galois_workspace(g, path)
    code = main(["galois", str(path), "G", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert (doc["galois"]["bijective"], code) == (strong, 0 if strong else 1)
    assert doc["galois"]["coinvariants_dim"] == len(degree_zero)


@pytest.mark.parametrize("name,fname", [c for c in CASES if c[0] in STRONG])
def test_strongly_graded_data_give_galois_measurings(name, fname):
    m = galois_measuring(datum(name, FIELDS[fname])[3])
    assert check_measuring(m).passed
    assert check_entwining(m.dst).passed
    assert is_co_galois(m).status == "FOUND"
    assert is_contra_galois(m).status == "FOUND"


@pytest.mark.parametrize("name,fname", [c for c in CASES if c[0] not in STRONG])
def test_other_graded_data_are_refused(name, fname):
    with pytest.raises(ValueError,
                       match="^data is not Galois: canonical map is not bijective$"):
        galois_entwining(datum(name, FIELDS[fname])[3])
