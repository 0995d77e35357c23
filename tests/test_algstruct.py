from __future__ import annotations

import pytest

from entwine.exactlin import Field, Mat
from entwine.algstruct import (
    Algebra, Coalgebra, Bialgebra, ModuleRight, Comodule,
    check_algebra, check_coalgebra, check_bialgebra,
    check_module_right, check_module_left, check_comodule,
    module_hom_right, module_hom_left, comodule_hom,
    field_algebra, field_coalgebra, group_like_coalgebra, group_algebra,
    matrix_algebra, trunc_poly_algebra, upper_triangular_algebra,
    dual_algebra, dual_coalgebra, regular_right_module, regular_left_module,
    dual_left_module, regular_comodule, zero_module_right, zero_comodule,
)
from oracles import algebra_axioms_oracle, coalgebra_axioms_oracle

Q = Field.rational()
F5 = Field.prime(5)


def flip_entry(m: Mat, i: int, j: int) -> Mat:
    e = list(m.entries)
    F = m.field
    cur = m[i, j]
    e[i * m.cols + j] = F.zero if cur != F.zero else F.one
    return Mat(F, m.rows, m.cols, tuple(e))


ALGEBRAS = [
    field_algebra(Q),
    group_algebra(2, Q).alg,
    group_algebra(3, Q).alg,
    group_algebra(2, F5).alg,
    group_algebra(3, F5).alg,
    matrix_algebra(2, Q),
    trunc_poly_algebra(2, Q),
    upper_triangular_algebra(Field.prime(2)),
    dual_algebra(group_like_coalgebra(Q, 3)),
]


def test_builders_pass_check_algebra():
    for a in ALGEBRAS:
        rep = check_algebra(a)
        assert rep.passed, rep.to_json()
        assert algebra_axioms_oracle(a)


def test_check_algebra_catches_mutations():
    a = group_algebra(2, Q).alg
    # flipping the coefficient of 1 in 1*g breaks the left unit law
    bad = Algebra(Q, 2, flip_entry(a.mult, 0, 1), a.unit)
    rep = check_algebra(bad)
    assert not rep.passed
    assert not algebra_axioms_oracle(bad)
    failed = [c for c in rep.checks if not c.passed]
    assert failed and failed[0].witness["kind"] == "entry"
    # a mutation breaking associativity only: perturb x*x in a 3-dim
    # truncated polynomial algebra so that (x*x)*x != x*(x*x)
    t = trunc_poly_algebra(3, Q)
    bad2 = Algebra(Q, 3, flip_entry(t.mult, 0, 1 * 3 + 1), t.unit)
    rep2 = check_algebra(bad2)
    names = [c.name for c in rep2.checks if not c.passed]
    assert names == ["associativity"]
    assert not algebra_axioms_oracle(bad2)


def test_coalgebra_builders_and_mutations():
    for c in [field_coalgebra(Q), group_like_coalgebra(Q, 2),
              group_like_coalgebra(F5, 4), dual_coalgebra(matrix_algebra(2, Q))]:
        rep = check_coalgebra(c)
        assert rep.passed, rep.to_json()
        assert coalgebra_axioms_oracle(c)
    c = group_like_coalgebra(Q, 2)
    zeroed = Coalgebra(Q, 2, c.comult, Mat.zeros(Q, 1, 2))
    rep = check_coalgebra(zeroed)
    assert not rep.passed
    names = [ch.name for ch in rep.checks if not ch.passed]
    assert "left-counit" in names


def test_group_algebra_bialgebra_compat():
    for n in range(1, 7):
        assert check_bialgebra(group_algebra(n, Q)).passed
        assert check_bialgebra(group_algebra(n, F5)).passed
    with pytest.raises(ValueError):
        group_algebra(0, Q)


def test_matrix_algebra_structure():
    m2 = matrix_algebra(2, Q)
    assert m2.dim == 4
    # unit is e11 + e22 in the (e11, e12, e21, e22) basis
    assert [m2.unit[i, 0] for i in range(4)] == [1, 0, 0, 1]
    # e12 * e21 = e11, e21 * e12 = e22
    assert m2.mult[0, 1 * 4 + 2] == 1
    assert m2.mult[3, 2 * 4 + 1] == 1
    assert m2.mult[0, 2 * 4 + 1] == 0
    assert matrix_algebra(1, Q).mult == Mat.from_rows(Q, [[1]])


def test_dual_of_group_like_is_pointwise():
    c = group_like_coalgebra(Q, 2)
    d = dual_algebra(c)
    # dual basis vectors are orthogonal idempotents summing to the unit
    for i in range(2):
        for j in range(2):
            col = d.mult.col_mat(i * 2 + j)
            expect = Mat.zeros(Q, 2, 1)
            if i == j:
                e = list(expect.entries)
                e[i] = Q.one
                expect = Mat(Q, 2, 1, tuple(e))
            assert col == expect
    assert [d.unit[i, 0] for i in range(2)] == [1, 1]


def test_dual_roundtrips():
    for a in [group_algebra(3, Q).alg, matrix_algebra(2, Q), upper_triangular_algebra(Q)]:
        back = dual_algebra(dual_coalgebra(a))
        assert back.mult == a.mult and back.unit == a.unit
    for c in [group_like_coalgebra(Q, 3), dual_coalgebra(matrix_algebra(2, Q))]:
        back = dual_coalgebra(dual_algebra(c))
        assert back.comult == c.comult and back.counit == c.counit


def test_trunc_poly_nilpotent():
    a = trunc_poly_algebra(2, Q)
    # x * x = 0
    assert a.mult.col_mat(1 * 2 + 1).is_zero()
    assert check_algebra(trunc_poly_algebra(4, F5)).passed


def test_upper_triangular_table():
    a = upper_triangular_algebra(Q)
    assert check_algebra(a).passed
    # e12 is a square-zero element absorbing on the correct sides
    assert a.mult.col_mat(1 * 3 + 1).is_zero()
    assert a.mult.col_mat(0 * 3 + 1) == Mat.from_rows(Q, [[0], [1], [0]])
    assert a.mult.col_mat(1 * 3 + 0).is_zero()


def test_modules_and_comodules():
    a = group_algebra(2, Q).alg
    assert check_module_right(regular_right_module(a)).passed
    assert check_module_left(regular_left_module(a)).passed
    assert check_module_left(dual_left_module(matrix_algebra(2, Q))).passed
    assert check_module_left(dual_left_module(upper_triangular_algebra(Q))).passed
    c = group_like_coalgebra(Q, 2)
    assert check_comodule(regular_comodule(c)).passed
    assert check_comodule(zero_comodule(c)).passed
    assert check_module_right(zero_module_right(a)).passed
    # broken instances fail
    bad = ModuleRight(a, 1, Mat.zeros(Q, 1, 2))
    assert not check_module_right(bad).passed


def test_dual_left_module_action_formula():
    # (a.f)(x) = f(xa) on the regular dual of kZ2: g swaps the dual basis
    a = group_algebra(2, Q).alg
    d = dual_left_module(a)
    g_on_dual = Mat.from_rows(Q, [[d.action[i, 1 * 2 + j] for j in range(2)]
                                  for i in range(2)])
    assert g_on_dual == Mat.from_rows(Q, [[0, 1], [1, 0]])


def test_plain_hom_spaces():
    a = group_algebra(2, Q).alg
    reg = regular_right_module(a)
    # hom of the right-regular module with itself = left multiplications
    assert module_hom_right(reg, reg).dim == 2
    regl = regular_left_module(a)
    assert module_hom_left(regl, regl).dim == 2
    c = group_like_coalgebra(Q, 2)
    # group-like comodule endomorphisms are diagonal
    h = comodule_hom(regular_comodule(c), regular_comodule(c))
    assert h.dim == 2
    for j in range(2):
        f = Mat(Q, 2, 2, tuple(h.basis[i * 2 + k, j] for i in range(2) for k in range(2)))
        assert f[0, 1] == 0 and f[1, 0] == 0
    with pytest.raises(ValueError):
        module_hom_right(reg, regular_right_module(matrix_algebra(2, Q)))


def test_shape_validation():
    with pytest.raises(ValueError):
        Algebra(Q, 2, Mat.zeros(Q, 2, 3), Mat.zeros(Q, 2, 1))
    with pytest.raises(ValueError):
        Coalgebra(Q, 2, Mat.zeros(Q, 4, 2), Mat.zeros(Q, 2, 1))
    with pytest.raises(ValueError):
        Bialgebra(group_algebra(2, Q).alg, group_like_coalgebra(Q, 3))
    with pytest.raises(ValueError):
        Comodule(group_like_coalgebra(Q, 2), 1, Mat.zeros(Q, 1, 1))
