"""Deciders: condition systems, separability, Frobenius, cointegrals, Maschke."""

import random

import pytest

from entwine.exactlin import (
    Field, Mat, basis_columns, block_inj, block_proj, kron, mat_solution_basis,
)
from entwine.algstruct import (
    field_algebra, group_algebra, group_like_coalgebra, matrix_algebra,
    regular_comodule, trunc_poly_algebra, upper_triangular_algebra,
)
from entwine.entwining import (
    regular_doi_koppinen, trivial_entwining, trivial_entwining_coalg,
)
from entwine.comodcat import hom_space, induce_tc
from entwine.contracat import (
    contra_hom_space, free_contramodule, induce_contra_t, transpose,
)
from entwine.criteria import (
    Cointegral, decide_frobenius_co,
    decide_sep_co_f, decide_sep_co_t, decide_sep_contra_t,
    find_cointegral, maschke_split_co, maschke_split_contra,
    semisimplicity_probe, _v1p_residual, _w1p_residuals,
)
from entwine.algstruct import Comodule
from corpus import direct_sum_contra, direct_sum_entwined
from oracles import (
    all_mats, cointegral_conditions_oracle, random_mat,
    sep_idempotent_exists_oracle,
)
import components as cp
import reference_residuals as ref

Q = Field.rational()
F2 = Field.prime(2)
F5 = Field.prime(5)


def dk(n, field):
    return regular_doi_koppinen(group_algebra(n, field))


def cofree_comodule(coalg, m):
    return Comodule(coalg, m * coalg.dim,
                    kron(Mat.identity(coalg.field, m), coalg.comult))


# -- condition systems ------------------------------------------------


def system_rank(e, residuals, rows, cols):
    # rank-nullity: the rank of a homogeneous system is the number of
    # unknowns minus the dimension of its solution space
    return rows * cols - mat_solution_basis(e.field, rows, cols, residuals).dim


def test_sigma_systems_empty_for_trivial_coalgebra():
    for alg in (matrix_algebra(2, Q), group_algebra(2, F2).alg):
        e = trivial_entwining(alg)
        n, c = e.alg.dim, e.coalg.dim
        # The contramodule side's identities, written independently, at
        # the column s; its decider poses the comodule side's, at r = s^T.
        assert system_rank(e, ref.v1_residual(e), c * n, 1) == 0
        assert system_rank(e, _v1p_residual(e), 1, c * n) == 0


def test_system_ranks_match_stacked_component_oracle():
    for e in (dk(2, Q), dk(3, F5)):
        n, c = e.alg.dim, e.coalg.dim
        # The contramodule deciders pose the comodule side's memberships,
        # sigma as the row r = s^T; the contramodule component equations
        # take the column s: the same vec, so the same rank.
        pairs = [
            (_v1p_residual, (1, c * n),
             lambda e_, u, m: cp.sigma_equations_contra(e_, u, m)[:1], (c * n, 1)),
            (_v1p_residual, (1, c * n),
             lambda e_, u, m: cp.sigma_equations_co(e_, u, m)[:1], (1, c * n)),
            (_w1p_residuals, (n * n, c),
             lambda e_, u, m: cp.rho_equations_contra(e_, u, m)[:2], (n * n, c)),
            (_w1p_residuals, (n * n, c),
             lambda e_, u, m: cp.rho_equations_co(e_, u, m)[:2], (n * n, c)),
        ]
        for residuals, shape, eqs, eq_shape in pairs:
            assert (system_rank(e, residuals(e), *shape)
                    == cp.stacked_system_rank(e, eqs, *eq_shape))


def test_membership_kernel_satisfies_component_equations():
    e = dk(2, Q)
    n, c = 2, 2
    rng = random.Random(11)
    space = mat_solution_basis(Q, 1, c * n, _v1p_residual(e))
    basis = [r.t for r in basis_columns(Q, space.basis, 1, c * n)]
    assert len(basis) == 2
    mix = basis[0] * Q.of(rng.randint(-3, 3)) + basis[1] * Q.of(rng.randint(-3, 3))
    for m in (1, 2, 3):
        assert cp.sigma_equations_contra(e, mix, m)[0].is_zero()
    # a vector outside the kernel must violate the component equation
    bad = Mat.from_rows(Q, [[0], [1], [0], [0]])
    assert not cp.sigma_equations_contra(e, bad, 1)[0].is_zero()


def test_rho_solution_for_trivial_algebra_is_counit():
    for field in (Q, F2):
        e = trivial_entwining_coalg(group_like_coalgebra(field, 2))
        v = decide_sep_co_f(e)
        assert v.found
        assert v.witness["theta"] == e.coalg.counit
        assert v.data["parameters"] == 0


# -- separability -----------------------------------------------------


def test_separability_of_trivial_entwining_matches_classical():
    cases = [matrix_algebra(2, Q), group_algebra(2, Q).alg,
             group_algebra(2, F2).alg, trunc_poly_algebra(2, Q),
             upper_triangular_algebra(F5)]
    for alg in cases:
        e = trivial_entwining(alg)
        want = sep_idempotent_exists_oracle(alg)
        v = decide_sep_co_f(e)
        assert v.found == want
        if not want:
            assert v.status == "NONE" and v.certificate == "linear"


def test_t_side_separability_of_trivial_entwining_always_found():
    # splitting the other adjoint needs only a functional with value 1 on
    # the unit, which exists over every field
    for alg in (group_algebra(2, F2).alg, trunc_poly_algebra(2, Q),
                upper_triangular_algebra(F2)):
        e = trivial_entwining(alg)
        assert decide_sep_co_t(e).found


def test_m2_separability_witness_space():
    a = matrix_algebra(2, Q)
    e = trivial_entwining(a)
    v = decide_sep_co_f(e)
    assert v.found
    # normalized Casimir elements of M2 form an affine space of dim 3
    assert v.data["parameters"] == 3
    for m in (1, 2, 3):
        assert all(r.is_zero() for r in cp.rho_equations_co(e, v.witness["theta"], m))
    # the canonical witness: sum over i of e_{i1} (x) e_{1i}
    canonical = Mat.zeros(Q, 16, 1)
    entries = list(canonical.entries)
    entries[0 * 4 + 0] = Q.one   # e11 (x) e11
    entries[2 * 4 + 1] = Q.one   # e21 (x) e12
    canonical = Mat(Q, 16, 1, tuple(entries))
    for m in (1, 2):
        assert all(r.is_zero() for r in cp.rho_equations_co(e, canonical, m))


def test_group_algebra_separability_witness_is_averaging():
    e = trivial_entwining(group_algebra(2, Q).alg)
    v = decide_sep_co_f(e)
    assert v.found
    assert v.data["parameters"] == 0
    half = Q.of("1/2")
    want = Mat(Q, 4, 1, (half, Q.zero, Q.zero, half))
    assert v.witness["theta"] == want


def test_uniform_functional_for_one_dimensional_algebra():
    for field in (Q, F2):
        e = trivial_entwining_coalg(group_like_coalgebra(field, 2))
        v = decide_sep_contra_t(e)
        assert v.found
        assert v.data["parameters"] == 0
        assert v.witness["e"] == Mat(field, 1, 2, (field.one, field.one))
    e = trivial_entwining_coalg(group_like_coalgebra(F2, 2))
    hits = sum(1 for s in all_mats(F2, 2, 1)
               if all(r.is_zero() for r in cp.sigma_equations_contra(e, s, 1)))
    assert hits == 1


def test_dk_separability_found_over_both_fields():
    for field in (Q, F2):
        e = dk(2, field)
        for name, decide in (("co_t", decide_sep_co_t), ("co_f", decide_sep_co_f)):
            v = decide(e)
            assert v.found, (field.kind, name)
    v = decide_sep_co_t(dk(2, Q))
    for m in (1, 2, 3):
        assert all(r.is_zero() for r in cp.sigma_equations_co(dk(2, Q), v.witness["e"], m))


def test_dk_f2_exhaustive_solution_counts():
    """Each variance is decided once (the contra decider is the co
    decider); its parameter count matches the exhaustive count of
    solutions of the co and of the independent contra equations."""
    e = dk(2, F2)
    t_params = decide_sep_co_t(e).data["parameters"]
    co_hits = sum(1 for r in all_mats(F2, 1, 4)
                  if all(x.is_zero() for x in cp.sigma_equations_co(e, r, 1)))
    contra_hits = sum(1 for s in all_mats(F2, 4, 1)
                      if all(x.is_zero() for x in cp.sigma_equations_contra(e, s, 1)))
    assert (t_params, co_hits, contra_hits) == (0, 1, 1)
    f_params = decide_sep_co_f(e).data["parameters"]
    co_hits = sum(1 for th in all_mats(F2, 4, 2)
                  if all(x.is_zero() for x in cp.rho_equations_co(e, th, 1)))
    contra_hits = sum(1 for th in all_mats(F2, 4, 2)
                      if all(x.is_zero() for x in cp.rho_equations_contra(e, th, 1)))
    assert (f_params, co_hits, contra_hits) == (1, 2, 2)


def test_sep_verdict_matches_cointegral_for_one_dim_algebra():
    for coalg in (group_like_coalgebra(Q, 2), group_like_coalgebra(F2, 2),
                  group_like_coalgebra(Q, 3)):
        e = trivial_entwining_coalg(coalg)
        ci = find_cointegral(e)
        assert decide_sep_co_t(e).status == ci.status
        assert decide_sep_co_f(e).status == ci.status


# -- Frobenius --------------------------------------------------------


def test_frobenius_m2_found_and_reverified():
    # One verdict for both variances: the contra decider is the co decider.
    e = trivial_entwining(matrix_algebra(2, Q))
    v = decide_frobenius_co(e)
    assert v.found
    assert v.data["sigma_parameters"] == 4
    assert v.data["rho_parameters"] == 4
    th = v.witness["theta"]
    for sig_eqs, rho_eqs, frob_eqs, col in (
        (cp.sigma_equations_co, cp.rho_equations_co, cp.frobenius_equations_co, False),
        (cp.sigma_equations_contra, cp.rho_equations_contra,
         cp.frobenius_equations_contra, True),
    ):
        s = v.witness["e"].t if col else v.witness["e"]
        for m in (1, 2, 3):
            assert sig_eqs(e, s, m)[0].is_zero()
            assert all(r.is_zero() for r in rho_eqs(e, th, m)[:2])
            assert all(r.is_zero() for r in frob_eqs(e, s, th, m))


def test_frobenius_group_algebra_over_any_field():
    for field in (Q, F2):
        e = trivial_entwining(group_algebra(2, field).alg)
        v = decide_frobenius_co(e)
        assert v.found
        r, th = v.witness["e"], v.witness["theta"]
        for m in (1, 2):
            assert all(x.is_zero() for x in cp.frobenius_equations_co(e, r, th, m))


def test_frobenius_without_separability():
    # the truncated polynomial algebra carries a Frobenius pairing while
    # having no separability idempotent
    for field in (Q, F2):
        e = trivial_entwining(trunc_poly_algebra(2, field))
        assert decide_frobenius_co(e).found
        assert decide_sep_co_f(e).status == "NONE"


def test_frobenius_upper_triangular_f2_none_exhaustive():
    e = trivial_entwining(upper_triangular_algebra(F2))
    v = decide_frobenius_co(e)
    assert v.status == "NONE"
    assert v.certificate == "exhaustive"
    # independent scan: no (functional, casimir) pair satisfies the
    # coupled component equations
    members = [th for th in all_mats(F2, 9, 1)
               if all(r.is_zero() for r in cp.rho_equations_co(e, th, 1)[:2])]
    assert len(members) == 2
    for th in members:
        for r in all_mats(F2, 1, 3):
            if not cp.sigma_equations_co(e, r, 1)[0].is_zero():
                continue
            assert not all(x.is_zero()
                           for x in cp.frobenius_equations_co(e, r, th, 1))


def test_frobenius_upper_triangular_rational_unknown():
    e = trivial_entwining(upper_triangular_algebra(Q))
    v = decide_frobenius_co(e)
    assert v.status == "UNKNOWN"
    assert v.witness is None and v.certificate is None
    assert any("prime field" in line for line in v.log)


def test_frobenius_budget_zero_is_unknown():
    e = trivial_entwining(upper_triangular_algebra(F2))
    v = decide_frobenius_co(e, budget_bits=0)
    assert v.status == "UNKNOWN"
    assert v.data["budget_candidates"] == 1
    assert any("budget" in line for line in v.log)
    assert decide_frobenius_co(e).status == "NONE"


def test_frobenius_budget_outside_zero_to_64_is_refused():
    """The budget is 2^budget_bits candidates: below 0 it means nothing,
    above 64 no sweep ends, and 2^20000 would not even print."""
    e = trivial_entwining(upper_triangular_algebra(F2))
    for bits in (-1, 65, 20000):
        with pytest.raises(ValueError, match="budget_bits"):
            decide_frobenius_co(e, budget_bits=bits)
    v = decide_frobenius_co(e, budget_bits=64)
    assert v.status == "NONE" and v.data["budget_candidates"] == 2 ** 64


def test_frobenius_dk_and_one_dim_cases():
    for field in (Q, F2):
        assert decide_frobenius_co(dk(2, field)).found
    e = trivial_entwining(field_algebra(Q))
    v = decide_frobenius_co(e)
    assert v.found
    assert v.witness["e"] == Mat(Q, 1, 1, (Q.one,))
    assert v.witness["theta"] == Mat(Q, 1, 1, (Q.one,))


# -- cointegrals ------------------------------------------------------


def test_cointegral_one_dimensional():
    e = trivial_entwining(field_algebra(Q))
    v = find_cointegral(e)
    assert v.found
    assert v.witness["phi"] == Mat(Q, 1, 1, (Q.one,))


def test_cointegral_dk_rational():
    e = dk(2, Q)
    v = find_cointegral(e)
    assert v.found
    assert cointegral_conditions_oracle(e, v.witness["phi"])
    Cointegral(e, v.witness["phi"])


def test_cointegral_dk_f2_found_with_exhaustive_count():
    # the regular entwining of a group algebra admits cointegrals in
    # every characteristic; the raw-loop scan pins down exactly how many
    e = dk(2, F2)
    v = find_cointegral(e)
    assert v.found
    assert v.data["parameters"] == 1
    assert cointegral_conditions_oracle(e, v.witness["phi"])
    hits = sum(1 for f in all_mats(F2, 2, 4) if cointegral_conditions_oracle(e, f))
    assert hits == 2


def _graded_averaging_cointegral(field, n):
    # phi(e^h (x) g) = delta(h, g^-1) g on kZ_n, i.e. phi[t, h*n + g] = 1
    # iff h + g = 0 mod n and t = g: the averaging f |-> (m in M_g |->
    # f(m.g^-1).g) of graded maps, which never divides by n
    return Mat.from_rows(field, [
        [field.one if t == g and (h + g) % n == 0 else field.zero
         for h in range(n) for g in range(n)]
        for t in range(n)])


def test_cointegral_dk_closed_form_in_every_characteristic():
    for field in (Q, F2, Field.prime(3)):
        for n in (2, 3, 4):
            e = dk(n, field)
            phi = _graded_averaging_cointegral(field, n)
            Cointegral(e, phi)
            assert cointegral_conditions_oracle(e, phi), (field, n)
    phi = _graded_averaging_cointegral(F2, 2)
    hits = [f for f in all_mats(F2, 2, 4)
            if cointegral_conditions_oracle(dk(2, F2), f)]
    assert len(hits) == 2 and phi in hits


def test_cointegral_of_trivial_entwining_is_classical_separability():
    for alg in (matrix_algebra(2, Q), group_algebra(2, Q).alg,
                group_algebra(2, F2).alg, trunc_poly_algebra(2, Q),
                upper_triangular_algebra(F2)):
        e = trivial_entwining(alg)
        v = find_cointegral(e)
        assert v.found == sep_idempotent_exists_oracle(alg)
    e = trivial_entwining(group_algebra(2, F2).alg)
    hits = sum(1 for f in all_mats(F2, 2, 2) if cointegral_conditions_oracle(e, f))
    assert hits == 0


def test_cointegral_constructor_validates():
    e = dk(2, Q)
    phi = find_cointegral(e).witness["phi"]
    bad = phi + Mat(Q, 2, 4, tuple(Q.of(1 if i == 0 else 0) for i in range(8)))
    with pytest.raises(ValueError):
        Cointegral(e, bad)
    with pytest.raises(ValueError):
        Cointegral(e, Mat.zeros(Q, 2, 2))


# -- Maschke averaging ------------------------------------------------


def _dk_cointegral(field):
    e = dk(2, field)
    return e, Cointegral(e, find_cointegral(e).witness["phi"])


def test_maschke_contra_fixes_entwined_morphisms():
    e, ci = _dk_cointegral(Q)
    x = induce_contra_t(e, free_contramodule(e.coalg, 1))
    endos = contra_hom_space(x, x)
    assert endos.dim == 4
    for f in basis_columns(Q, endos.basis, x.dim, x.dim):
        assert maschke_split_contra(e, ci, x, x, f) == f


def test_maschke_co_fixes_entwined_morphisms():
    e, ci = _dk_cointegral(Q)
    u = induce_tc(e, regular_comodule(e.coalg))
    endos = hom_space(u, u)
    assert endos.dim == 4
    for f in basis_columns(Q, endos.basis, u.dim, u.dim):
        assert maschke_split_co(e, ci, u, u, f) == f


def test_maschke_zero_map():
    e, ci = _dk_cointegral(Q)
    x = induce_contra_t(e, free_contramodule(e.coalg, 1))
    z = Mat.zeros(Q, x.dim, x.dim)
    assert maschke_split_contra(e, ci, x, x, z) == z
    u = induce_tc(e, regular_comodule(e.coalg))
    zc = Mat.zeros(Q, u.dim, u.dim)
    assert maschke_split_co(e, ci, u, u, zc) == zc


def test_maschke_converts_plain_retraction_contra():
    e, ci = _dk_cointegral(Q)
    x = induce_contra_t(e, free_contramodule(e.coalg, 1))
    y = direct_sum_contra(x, x)
    inc = block_inj(Q, [x.dim, x.dim], 0)
    proj = block_proj(Q, [x.dim, x.dim], 0)
    i_c = Mat.identity(Q, e.coalg.dim)
    # perturb the projection by a plain-morphism direction that kills inc
    space = mat_solution_basis(Q, x.dim, y.dim, [
        lambda w: x.pi * kron(w, i_c) - w * y.pi,
        lambda w: w * inc,
    ])
    assert space.dim > 0
    retr = proj + basis_columns(Q, space.basis, x.dim, y.dim)[0]
    assert retr != proj
    fixed = maschke_split_contra(e, ci, y, x, retr)
    assert fixed * inc == Mat.identity(Q, x.dim)


def test_maschke_converts_plain_section_co():
    e, ci = _dk_cointegral(Q)
    u = induce_tc(e, regular_comodule(e.coalg))
    v = direct_sum_entwined(u, u)
    inc = block_inj(Q, [u.dim, u.dim], 0)
    proj = block_proj(Q, [u.dim, u.dim], 0)
    i_c = Mat.identity(Q, e.coalg.dim)
    space = mat_solution_basis(Q, v.dim, u.dim, [
        lambda w: v.coaction * w - kron(w, i_c) * u.coaction,
        lambda w: proj * w,
    ])
    assert space.dim > 0
    sect = inc + basis_columns(Q, space.basis, v.dim, u.dim)[0]
    assert sect != inc
    fixed = maschke_split_co(e, ci, u, v, sect)
    assert proj * fixed == Mat.identity(Q, u.dim)


def test_maschke_rejects_non_morphisms():
    e, ci = _dk_cointegral(Q)
    x = induce_contra_t(e, free_contramodule(e.coalg, 1))
    rng = random.Random(3)
    bad = random_mat(Q, rng, x.dim, x.dim)
    with pytest.raises(ValueError, match="^not a morphism of contramodules$"):
        maschke_split_contra(e, ci, x, x, bad)
    u = induce_tc(e, regular_comodule(e.coalg))
    with pytest.raises(ValueError, match="^not a morphism of comodules$"):
        maschke_split_co(e, ci, u, u, random_mat(Q, rng, u.dim, u.dim))
    # A map x -> y is y.dim x x.dim on either side; the contramodule side
    # averages the transpose, but names the shape of the map it was given.
    y = direct_sum_contra(x, x)
    with pytest.raises(ValueError, match="^morphism must be %d x %d$" % (y.dim, x.dim)):
        maschke_split_contra(e, ci, x, y, Mat.zeros(Q, x.dim, y.dim))
    v = direct_sum_entwined(u, u)
    with pytest.raises(ValueError, match="^morphism must be %d x %d$" % (v.dim, u.dim)):
        maschke_split_co(e, ci, u, v, Mat.zeros(Q, u.dim, v.dim))


def test_probe_passes_with_cointegral():
    for field in (Q, F2):
        e, ci = _dk_cointegral(field)
        rep = semisimplicity_probe(e, ci)
        assert rep.passed
        assert len(rep.checks) == 10
        assert rep.data["applicable"] is True


def test_probe_without_cointegral_reports_not_applicable():
    e = trivial_entwining(group_algebra(2, F2).alg)
    assert find_cointegral(e).status == "NONE"
    rep = semisimplicity_probe(e, None)
    assert rep.passed
    assert rep.checks == []
    assert rep.data["applicable"] is False


# -- family values and components -------------------------------------


def test_sigma_round_trips():
    # A sigma value r: C(x)A -> k has the component
    # (I_Y (x) r)(coaction_Y (x) I_n): Y(x)A -> Y at a comodule Y; the
    # counit reads I_m (x) r back off it at the cofree comodule on k^m.
    # The contramodule side is the same at the transposed free one.
    rng = random.Random(23)
    for field in (Q, F5):
        e = dk(2, field)
        n, c = e.alg.dim, e.coalg.dim
        for m in (1, 2, 3):
            for y in (transpose(free_contramodule(e.coalg, m)),
                      cofree_comodule(e.coalg, m)):
                r = random_mat(field, rng, 1, c * n)
                tau = (kron(Mat.identity(field, y.dim), r)
                       * kron(y.coaction, Mat.identity(field, n)))
                back = kron(Mat.identity(field, m), e.coalg.counit) * tau
                assert back == kron(Mat.identity(field, m), r)


def test_rho_round_trips():
    # A rho value theta: C -> A(x)A has the component
    # (action_Y (x) I_n)(I_Y (x) theta) coaction_Y: Y -> Y(x)A at an
    # entwined module Y; counit and unit read I_m (x) theta back off it at
    # the object induced from the cofree comodule on k^m.  The
    # contramodule side is the same at the transposed induced one.
    rng = random.Random(29)
    for field in (Q, F5):
        e = dk(2, field)
        n, c = e.alg.dim, e.coalg.dim
        for m in (1, 2):
            th = random_mat(field, rng, n * n, c)
            left = kron(Mat.identity(field, m),
                        kron(e.coalg.counit, Mat.identity(field, n * n)))
            right = kron(Mat.identity(field, m * c), e.alg.unit)
            for y in (transpose(induce_contra_t(e, free_contramodule(e.coalg, m))),
                      induce_tc(e, cofree_comodule(e.coalg, m))):
                kappa = (kron(y.action, Mat.identity(field, n))
                         * kron(Mat.identity(field, y.dim), th) * y.coaction)
                back = left * kappa * right
                assert back == kron(Mat.identity(field, m), th)


def test_verdict_serialization_is_deterministic():
    e = dk(2, F2)
    v = decide_sep_co_f(e)
    d = v.as_dict()
    assert d["status"] == "FOUND"
    assert isinstance(d["witness"]["theta"], list)
    assert v.to_json() == decide_sep_co_f(e).to_json()
    n = decide_sep_co_f(trivial_entwining(group_algebra(2, F2).alg))
    nd = n.as_dict()
    assert nd["status"] == "NONE" and nd["certificate"] == "linear"
    u = decide_frobenius_co(trivial_entwining(upper_triangular_algebra(F2)),
                            budget_bits=0)
    ud = u.as_dict()
    assert ud["status"] == "UNKNOWN"
    assert "witness" not in ud and "certificate" not in ud
