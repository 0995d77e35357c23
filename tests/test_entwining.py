from __future__ import annotations

import pytest

from entwine.exactlin import Field, Mat, kron
from entwine.algstruct import (
    group_algebra, group_like_coalgebra, matrix_algebra,
)
from entwine.entwining import (
    Entwining, check_entwining, check_entwining_morphism,
    trivial_entwining, trivial_entwining_coalg,
    doi_koppinen, regular_doi_koppinen,
)
from oracles import entwining_axiom_oracles

Q = Field.rational()
F5 = Field.prime(5)


def dk(n, f):
    return regular_doi_koppinen(group_algebra(n, f))


def test_trivial_entwinings_pass():
    for e in [trivial_entwining(matrix_algebra(2, Q)),
              trivial_entwining(group_algebra(3, Q).alg),
              trivial_entwining_coalg(group_like_coalgebra(Q, 2)),
              trivial_entwining_coalg(group_like_coalgebra(F5, 3))]:
        rep = check_entwining(e)
        assert rep.passed, rep.to_json()
        assert all(entwining_axiom_oracles(e).values())


def test_doi_koppinen_passes():
    for e in [dk(2, Q), dk(3, Q), dk(2, F5), dk(3, F5)]:
        rep = check_entwining(e)
        assert rep.passed, rep.to_json()
        assert all(entwining_axiom_oracles(e).values())


def test_doi_koppinen_psi_formula():
    # group-likes: psi(g^i (x) g^j) = g^j (x) g^{i+j}
    e = dk(3, Q)
    n = 3
    for i in range(n):
        for j in range(n):
            col = e.psi.col_mat(i * n + j)
            for a in range(n):
                for cc in range(n):
                    want = Q.one if (a == j and cc == (i + j) % n) else Q.zero
                    assert col[a * n + cc, 0] == want


def test_doi_koppinen_trivial_coaction():
    h = group_algebra(2, Q)
    a = matrix_algebra(2, Q)
    rho = kron(Mat.identity(Q, 4), h.alg.unit)
    e = doi_koppinen(h, a, rho)
    assert check_entwining(e).passed
    # psi is then the plain flip C (x) A -> A (x) C
    from entwine.exactlin import flip
    assert e.psi == flip(Q, 2, 4)


def test_doi_koppinen_h_trivial():
    h = group_algebra(1, Q)
    a = group_algebra(3, Q).alg
    e = doi_koppinen(h, a, kron(Mat.identity(Q, 3), h.alg.unit))
    assert e.psi == trivial_entwining(a).psi


def test_doi_koppinen_rejects_bad_rho():
    h = group_algebra(2, Q)
    with pytest.raises(ValueError):
        doi_koppinen(h, h.alg, Mat.zeros(Q, 4, 2))
    # a valid coaction that is not multiplicative: grade 1 and g oppositely
    swapped = Mat.from_rows(Q, [[0, 0], [1, 0], [0, 1], [0, 0]])
    with pytest.raises(ValueError):
        doi_koppinen(h, h.alg, swapped)


def test_mutation_fails_with_witness():
    e = dk(2, Q)
    ent = list(e.psi.entries)
    ent[0] = ent[0] + 1
    bad = Entwining(e.alg, e.coalg, Mat(Q, 4, 4, tuple(ent)))
    rep = check_entwining(bad)
    assert not rep.passed
    oracle = entwining_axiom_oracles(bad)
    for ch in rep.checks:
        assert ch.passed == oracle[ch.name]
    failed = [ch for ch in rep.checks if not ch.passed]
    assert failed[0].witness["kind"] == "entry"


def test_identity_morphism():
    e = dk(2, Q)
    rep = check_entwining_morphism(e, e, Mat.identity(Q, 2), Mat.identity(Q, 2))
    assert rep.passed


def test_zero_morphism_fails_units():
    e = dk(2, Q)
    rep = check_entwining_morphism(e, e, Mat.zeros(Q, 2, 2), Mat.zeros(Q, 2, 2))
    failed = {ch.name for ch in rep.checks if not ch.passed}
    assert "f-unital" in failed and "g-counital" in failed


def test_quotient_morphism_z4_to_z2():
    src = dk(4, Q)
    dst = dk(2, Q)
    f = Mat.from_rows(Q, [[1, 0, 1, 0], [0, 1, 0, 1]])
    rep = check_entwining_morphism(src, dst, f, f)
    assert rep.passed, rep.to_json()


def test_shape_validation():
    a = group_algebra(2, Q).alg
    c = group_like_coalgebra(Q, 2)
    with pytest.raises(ValueError):
        Entwining(a, c, Mat.zeros(Q, 4, 3))
    with pytest.raises(ValueError):
        Entwining(a, group_like_coalgebra(F5, 2), Mat.zeros(F5, 4, 4))
    e = dk(2, Q)
    with pytest.raises(ValueError):
        check_entwining_morphism(e, e, Mat.zeros(Q, 3, 2), Mat.identity(Q, 2))
