"""Measurings: axioms, Galois data, induced functors, (co)units, adjunctions."""

import pytest

from entwine.exactlin import (
    Field, Mat, kron, kernel_basis, rank, SubspaceBasis, same_subspace,
    in_subspace,
)
from entwine.algstruct import (
    ModuleRight, ModuleLeft, check_algebra, field_algebra, group_algebra,
    group_like_coalgebra, regular_right_module, regular_comodule,
    dual_left_module,
)
from entwine.entwining import (
    check_entwining, regular_doi_koppinen, trivial_entwining,
    trivial_entwining_coalg,
)
from entwine.comodcat import (
    EntwinedModule, check_entwined_module, induce_tc, induce_mc,
    hom_space,
)
from entwine.contracat import (
    EntwinedContraModule, check_entwined_contramodule, free_contramodule,
    induce_contra_t, induce_a_t, contra_hom_space,
    hom_pre, under, curry_left, uncurry_left,
)
from entwine.measuring import (
    Measuring, check_measuring, identity_measuring, GaloisData, coinvariants,
    canonical_map, is_galois, galois_entwining, galois_measuring,
    comodule_side_induce, t_upper, cotensor, t_lower, hat_tensor,
    unit_omega, counit_upsilon, is_co_galois,
    contra_induce, s_upper, cohom, s_lower, hom_tilde,
    unit_psi, counit_phi, is_contra_galois, adjunction_check_measuring,
)
from corpus import (
    entwinings, graded_comodule, involution_module, involution_module_left,
    tensor_entwined, tensor_contra,
)
from oracles import rank_oracle, exhaustive_solution_count

Q = Field.rational()
F5 = Field.prime(5)


def dk(n, field):
    return regular_doi_koppinen(group_algebra(n, field))


def regular_galois(n, field):
    """The group algebra coacting on itself by its comultiplication."""
    h = group_algebra(n, field)
    return GaloisData(h.alg, h.coalg, h.coalg.comult)


def trivial_coaction_galois(field):
    """A = k inside C = k-grouplikes(2), coacting by the first group-like."""
    c = group_like_coalgebra(field, 2)
    coact = Mat.from_rows(field, [[1], [0]])
    return GaloisData(field_algebra(field), c, coact)


def src_space(m, d):
    """A plain d-dim space as an entwined module over (B, k, id)-type source."""
    assert m.src.alg.dim == 1 and m.src.coalg.dim == 1
    i = Mat.identity(m.field, d)
    return EntwinedModule(m.src, d, i, i)


def src_contra_space(m, d):
    assert m.src.alg.dim == 1 and m.src.coalg.dim == 1
    i = Mat.identity(m.field, d)
    return EntwinedContraModule(m.src, d, i, i)


def col_space(basis: Mat) -> SubspaceBasis:
    return SubspaceBasis(basis.rows, basis)


def failed_names(rep):
    return {c.name for c in rep.checks if not c.passed}


# -- measuring axioms -------------------------------------------------------


def test_identity_measuring_passes():
    for e in (dk(2, Q), dk(3, F5),
              trivial_entwining(group_algebra(2, Q).alg),
              trivial_entwining_coalg(group_like_coalgebra(Q, 2))):
        m = identity_measuring(e)
        rep = check_measuring(m)
        assert rep.passed, rep.as_dict()


def test_zeroed_alpha_fails_exactly_the_unit_identity():
    e = dk(2, Q)
    good = identity_measuring(e)
    m = Measuring(e, e, Mat.zeros(Q, 2, 4), good.gamma)
    assert failed_names(check_measuring(m)) == {"alpha-unit"}


def test_zeroed_gamma_fails_exactly_the_counit_identity():
    e = dk(2, Q)
    good = identity_measuring(e)
    m = Measuring(e, e, good.alpha, Mat.zeros(Q, 4, 2))
    assert failed_names(check_measuring(m)) == {"gamma-counit"}


def test_measuring_shape_validation():
    e = dk(2, Q)
    good = identity_measuring(e)
    with pytest.raises(ValueError):
        Measuring(e, e, good.alpha.t, good.gamma)
    with pytest.raises(ValueError):
        Measuring(e, dk(2, F5), good.alpha, good.gamma)


# -- coalgebra-Galois data --------------------------------------------------


def test_galois_data_rejects_non_comodule_coaction():
    h = group_algebra(2, Q)
    with pytest.raises(ValueError):
        GaloisData(h.alg, h.coalg, Mat.zeros(Q, 4, 2))


def test_coinvariants_of_regular_group_data():
    for field in (Q, F5):
        g = regular_galois(2, field)
        b = coinvariants(g)
        assert b.dim == 1
        assert same_subspace(b.space, col_space(g.alg.unit))
        assert check_algebra(b.algebra).passed
    assert coinvariants(regular_galois(3, Q)).dim == 1


def test_coinvariants_trivial_coalgebra_is_everything():
    a = group_algebra(3, Q).alg
    g = GaloisData(a, group_like_coalgebra(Q, 1), Mat.identity(Q, 3))
    b = coinvariants(g)
    assert b.dim == 3
    assert check_algebra(b.algebra).passed


def test_coinvariants_one_dimensional_algebra():
    g = GaloisData(field_algebra(Q), group_like_coalgebra(Q, 1),
                   Mat.identity(Q, 1))
    assert coinvariants(g).dim == 1


def test_canonical_map_regular_group_is_bijective():
    g = regular_galois(2, Q)
    _, dom, can = canonical_map(g)
    assert dom.dim == 4
    assert rank(can) == 4 == rank_oracle(can)
    assert is_galois(g)
    _, dom3, can3 = canonical_map(regular_galois(3, Q))
    assert dom3.dim == 9 and rank(can3) == 9
    assert is_galois(regular_galois(2, F5))


def test_canonical_map_trivial_coaction_is_not_surjective():
    g = trivial_coaction_galois(Q)
    _, dom, can = canonical_map(g)
    assert coinvariants(g).dim == 1
    assert dom.dim == 1
    assert (can.rows, can.cols) == (2, 1)
    assert rank(can) == rank_oracle(can) == 1
    assert not is_galois(g)
    with pytest.raises(ValueError):
        galois_entwining(g)


def test_canonical_map_on_the_base_field():
    g = GaloisData(field_algebra(Q), group_like_coalgebra(Q, 1),
                   Mat.identity(Q, 1))
    _, dom, can = canonical_map(g)
    assert dom.dim == 1 and can == Mat.identity(Q, 1)
    assert is_galois(g)


def test_galois_entwining_recovers_the_group_entwining():
    for n, field in ((2, Q), (3, Q), (2, F5)):
        g = regular_galois(n, field)
        e = galois_entwining(g)
        assert e.psi == dk(n, field).psi
        assert check_entwining(e).passed


def test_galois_measuring_passes_checker():
    for n, field in ((2, Q), (3, Q), (2, F5)):
        g = regular_galois(n, field)
        m = galois_measuring(g)
        assert m.src.alg.dim == 1 and m.src.coalg.dim == 1
        assert m.alpha == g.alg.unit
        assert m.gamma == g.coaction * g.alg.unit
        assert check_measuring(m).passed


def test_galois_measuring_on_the_base_field_is_trivial():
    g = GaloisData(field_algebra(Q), group_like_coalgebra(Q, 1),
                   Mat.identity(Q, 1))
    m = galois_measuring(g)
    assert check_measuring(m).passed
    assert m.alpha == Mat.identity(Q, 1)
    assert m.gamma == Mat.identity(Q, 1)


# -- induced entwined modules -----------------------------------------------


def test_comodule_side_induce_from_modules():
    mg = galois_measuring(regular_galois(2, Q))
    e = dk(2, Q)
    mi = identity_measuring(e)
    swap = Mat.from_rows(Q, [[0, 1], [1, 0]])
    for m in (mg, mi):
        for mod in (regular_right_module(m.dst.alg),
                    involution_module(m.dst.alg, swap)):
            x = comodule_side_induce(m, mod)
            assert x.ent == m.src
            assert x.dim == mod.dim * m.src.coalg.dim
            assert check_entwined_module(x).passed


def test_comodule_side_induce_from_comodules():
    mg = galois_measuring(regular_galois(2, Q))
    x = comodule_side_induce(mg, regular_comodule(mg.src.coalg))
    assert x.ent == mg.dst and x.dim == 2
    assert check_entwined_module(x).passed
    e = dk(2, Q)
    mi = identity_measuring(e)
    y = comodule_side_induce(mi, graded_comodule(e.coalg, [0, 1, 1]))
    assert y.ent == e and y.dim == 6
    assert check_entwined_module(y).passed


INDUCE_FIELDS = {"Q": Q, "F2": Field.prime(2), "F3": Field.prime(3), "F5": F5}


@pytest.mark.parametrize("name", sorted(entwinings(Q)))
@pytest.mark.parametrize("fname", sorted(INDUCE_FIELDS))
def test_the_identity_measuring_induces_the_entwinings_own_modules(fname, name):
    """Along the identity measuring, alpha = counit (x) I and gamma =
    unit (x) I, so by the counit and unit laws both twists are psi and
    comodule_side_induce is induce_mc on modules and induce_tc on
    comodules."""
    e = entwinings(INDUCE_FIELDS[fname])[name]
    mi = identity_measuring(e)
    c = e.coalg.dim
    mod = regular_right_module(e.alg)
    assert comodule_side_induce(mi, mod) == induce_mc(e, mod)
    for com in (regular_comodule(e.coalg), graded_comodule(e.coalg, [0, c - 1, c // 2])):
        assert comodule_side_induce(mi, com) == induce_tc(e, com)


def test_comodule_side_induce_rejects_mismatches():
    mg = galois_measuring(regular_galois(2, Q))
    with pytest.raises(ValueError):
        comodule_side_induce(mg, graded_comodule(mg.dst.coalg, [0]))
    with pytest.raises(ValueError):
        comodule_side_induce(mg, regular_right_module(mg.src.alg))
    with pytest.raises(ValueError):
        comodule_side_induce(mg, 7)


def test_zero_carriers_induce_zero_objects():
    mg = galois_measuring(regular_galois(2, Q))
    z_mod = ModuleRight(mg.dst.alg, 0, Mat.zeros(Q, 0, 0))
    assert comodule_side_induce(mg, z_mod).dim == 0
    x0 = EntwinedModule(mg.dst, 0, Mat.zeros(Q, 0, 0), Mat.zeros(Q, 0, 0))
    assert t_upper(mg, x0).rows == 0
    assert cotensor(mg, x0).dim == 0
    y0 = EntwinedModule(mg.src, 0, Mat.zeros(Q, 0, 0), Mat.zeros(Q, 0, 0))
    assert hat_tensor(mg, y0).dim == 0
    assert unit_omega(mg, y0).rows == 0
    assert counit_upsilon(mg, x0).rows == 0


# -- kernel and cokernel functors -------------------------------------------


def test_identity_measuring_cotensor_is_the_coaction_image():
    e = dk(2, Q)
    m = identity_measuring(e)
    swap = Mat.from_rows(Q, [[0, 1], [1, 0]])
    xs = [EntwinedModule(e, 2, e.alg.mult, e.coalg.comult),
          induce_mc(e, involution_module(e.alg, swap))]
    for x in xs:
        t = t_upper(m, x)
        assert (t * x.coaction).is_zero()
        k = kernel_basis(t)
        assert k.cols == x.dim
        assert same_subspace(col_space(k), col_space(x.coaction))
        kx = cotensor(m, x)
        assert kx.dim == x.dim
        assert check_entwined_module(kx).passed


def test_galois_cotensor_of_the_algebra_is_the_coinvariants():
    g = regular_galois(2, Q)
    m = galois_measuring(g)
    x_a = EntwinedModule(m.dst, 2, g.alg.mult, g.coaction)
    assert check_entwined_module(x_a).passed
    k = kernel_basis(t_upper(m, x_a))
    assert k.cols == 1
    assert same_subspace(col_space(k), coinvariants(g).space)


def test_galois_cotensor_of_the_induced_module_has_algebra_dimension():
    g = regular_galois(2, Q)
    m = galois_measuring(g)
    x = induce_mc(m.dst, regular_right_module(m.dst.alg))
    assert kernel_basis(t_upper(m, x)).cols == 2
    kx = cotensor(m, x)
    assert kx.dim == 2
    assert check_entwined_module(kx).passed


def test_cotensor_kernel_dimension_against_rank_oracle():
    cases = []
    e5 = dk(2, F5)
    cases.append((identity_measuring(e5),
                  EntwinedModule(e5, 2, e5.alg.mult, e5.coalg.comult)))
    m5 = galois_measuring(regular_galois(2, F5))
    g5 = regular_galois(2, F5)
    cases.append((m5, EntwinedModule(m5.dst, 2, g5.alg.mult, g5.coaction)))
    for s in (1, -1):
        mod = ModuleRight(e5.alg, 1, Mat.from_rows(F5, [[1, s]]))
        cases.append((identity_measuring(e5), induce_mc(e5, mod)))
    for m, x in cases:
        t = t_upper(m, x)
        assert kernel_basis(t).cols == t.cols - rank_oracle(t)


def test_hat_tensor_dimension_against_rank_oracle():
    m = galois_measuring(regular_galois(2, Q))
    y = src_space(m, 2)
    t = t_lower(m, y)
    h = hat_tensor(m, y)
    assert h.dim == y.dim * m.dst.alg.dim - rank_oracle(t)
    assert check_entwined_module(h).passed


def test_galois_hat_tensor_of_the_base_is_the_algebra():
    m = galois_measuring(regular_galois(2, Q))
    y = induce_tc(m.src, regular_comodule(m.src.coalg))
    h = hat_tensor(m, y)
    assert h.dim == 2
    assert check_entwined_module(h).passed
    back = cotensor(m, h)
    assert back.dim == y.dim == 1


def test_t_maps_are_entwined_morphisms():
    mg = galois_measuring(regular_galois(2, Q))
    e = dk(2, Q)
    mi = identity_measuring(e)
    swap = Mat.from_rows(Q, [[0, 1], [1, 0]])
    pairs = [(mg, induce_mc(mg.dst, regular_right_module(mg.dst.alg)),
              src_space(mg, 2)),
             (mi, induce_mc(e, involution_module(e.alg, swap)),
              induce_tc(e, graded_comodule(e.coalg, [0, 1])))]
    for m, x_dst, y_src in pairs:
        # t_upper asserts its own morphism property; cross-check membership.
        t_up = t_upper(m, x_dst)
        dom = comodule_side_induce(m, x_dst.as_module())
        assert in_subspace(hom_space(dom, dom), Mat.identity(m.field, dom.dim))
        t_low = t_lower(m, y_src)
        low_dom = comodule_side_induce(
            m, induce_tc(m.src, y_src.as_comodule()).as_comodule())
        low_cod = comodule_side_induce(m, y_src.as_comodule())
        assert in_subspace(hom_space(low_dom, low_cod), t_low)


# -- unit, counit, and the co-Galois decider --------------------------------


def test_unit_and_counit_bijective_for_the_galois_measuring():
    m = galois_measuring(regular_galois(2, Q))
    y = induce_tc(m.src, regular_comodule(m.src.coalg))
    om = unit_omega(m, y)
    assert om.rows == om.cols == rank(om)
    x = induce_mc(m.dst, regular_right_module(m.dst.alg))
    up = counit_upsilon(m, x)
    assert up.rows == up.cols == 4 == rank(up)


def test_is_co_galois_found_on_galois_measurings():
    for m in (galois_measuring(regular_galois(2, Q)),
              galois_measuring(regular_galois(3, Q)),
              identity_measuring(dk(2, Q))):
        v = is_co_galois(m)
        assert v.status == "FOUND" and v.found
        assert set(v.witness) == {"omega", "upsilon"}
        assert v.data["omega"]["rank"] == v.data["omega"]["rows"]
        assert v.data["upsilon"]["rank"] == v.data["upsilon"]["rows"]


def test_is_co_galois_none_for_the_trivial_coaction_measuring():
    src = trivial_entwining(field_algebra(Q))
    dst = trivial_entwining_coalg(group_like_coalgebra(Q, 2))
    m = Measuring(src, dst, Mat.from_rows(Q, [[1]]),
                  Mat.from_rows(Q, [[1], [0]]))
    assert check_measuring(m).passed
    v = is_co_galois(m)
    assert v.status == "NONE" and not v.found
    assert v.certificate == "linear"
    assert v.data["upsilon"]["rows"] != v.data["upsilon"]["cols"]
    w = is_contra_galois(m)
    assert w.status == "NONE" and w.certificate == "linear"


def test_co_galois_verdict_serializes():
    m = galois_measuring(regular_galois(2, Q))
    d = is_co_galois(m).as_dict()
    assert d["status"] == "FOUND"
    assert isinstance(d["witness"]["omega"], list)


# -- induced entwined contramodules -----------------------------------------


def test_contra_induce_from_left_modules():
    mg = galois_measuring(regular_galois(2, Q))
    e = dk(2, Q)
    mi = identity_measuring(e)
    swap = Mat.from_rows(Q, [[0, 1], [1, 0]])
    for m in (mg, mi):
        for mod in (dual_left_module(m.dst.alg),
                    involution_module_left(m.dst.alg, swap)):
            x = contra_induce(m, mod)
            assert x.ent == m.src
            assert x.dim == mod.dim * m.src.coalg.dim
            assert check_entwined_contramodule(x).passed


def test_contra_induce_from_contramodules():
    mg = galois_measuring(regular_galois(2, Q))
    x = contra_induce(mg, free_contramodule(mg.src.coalg, 2))
    assert x.ent == mg.dst and x.dim == 4
    assert check_entwined_contramodule(x).passed
    e = dk(2, Q)
    mi = identity_measuring(e)
    y = contra_induce(mi, free_contramodule(e.coalg, 1))
    assert y.ent == e and y.dim == 4
    assert check_entwined_contramodule(y).passed


def test_contra_induce_rejects_mismatches():
    mg = galois_measuring(regular_galois(2, Q))
    with pytest.raises(ValueError):
        contra_induce(mg, free_contramodule(mg.dst.coalg, 1))
    with pytest.raises(ValueError):
        contra_induce(mg, regular_right_module(mg.dst.alg))


def test_cohom_of_the_dual_induced_object_has_algebra_dimension():
    m = galois_measuring(regular_galois(2, Q))
    x = induce_a_t(m.dst, dual_left_module(m.dst.alg))
    z = cohom(m, x)
    assert z.dim == 2
    assert check_entwined_contramodule(z).passed


def test_hom_tilde_and_cohom_shapes():
    m = galois_measuring(regular_galois(2, Q))
    y = induce_contra_t(m.src, free_contramodule(m.src.coalg, 1))
    s = s_lower(m, y)
    w = hom_tilde(m, y)
    assert w.dim == kernel_basis(s).cols
    assert check_entwined_contramodule(w).passed
    x = induce_a_t(m.dst, dual_left_module(m.dst.alg))
    su = s_upper(m, x)
    assert su.rows == x.dim * m.src.coalg.dim
    assert cohom(m, x).dim == su.rows - rank(su)


def test_s_maps_are_contramodule_morphisms():
    mg = galois_measuring(regular_galois(2, Q))
    e = dk(2, Q)
    mi = identity_measuring(e)
    pairs = [(mg, induce_a_t(mg.dst, dual_left_module(mg.dst.alg)),
              src_contra_space(mg, 2)),
             (mi, induce_a_t(e, dual_left_module(e.alg)),
              induce_contra_t(e, free_contramodule(e.coalg, 1)))]
    for m, x_dst, y_src in pairs:
        n, c = m.dst.alg.dim, m.dst.coalg.dim
        mx = x_dst.dim
        # Hom(C, M) as a left module over the target, twisted through psi.
        mu_v = (hom_pre(m.dst.psi, mx)
                * under(curry_left(x_dst.action, mx, n), c))
        v = ModuleLeft(m.dst.alg, mx * c, uncurry_left(mu_v, mx * c, n))
        s_up = s_upper(m, x_dst)
        up_dom = contra_induce(m, v)
        up_cod = contra_induce(m, x_dst.as_module())
        assert in_subspace(contra_hom_space(up_dom, up_cod), s_up)
        s_low = s_lower(m, y_src)
        low_dom = contra_induce(m, y_src.as_contra())
        low_cod = contra_induce(
            m, induce_contra_t(m.src, y_src.as_contra()).as_contra())
        assert in_subspace(contra_hom_space(low_dom, low_cod), s_low)


def test_zero_contra_carriers():
    m = galois_measuring(regular_galois(2, Q))
    x0 = EntwinedContraModule(m.dst, 0, Mat.zeros(Q, 0, 0), Mat.zeros(Q, 0, 0))
    y0 = EntwinedContraModule(m.src, 0, Mat.zeros(Q, 0, 0), Mat.zeros(Q, 0, 0))
    assert cohom(m, x0).dim == 0
    assert hom_tilde(m, y0).dim == 0
    assert unit_psi(m, x0).rows == 0
    assert counit_phi(m, y0).rows == 0


def test_unit_psi_counit_phi_bijective_for_the_galois_measuring():
    m = galois_measuring(regular_galois(2, Q))
    x = induce_a_t(m.dst, dual_left_module(m.dst.alg))
    ps = unit_psi(m, x)
    assert ps.rows == ps.cols == rank(ps)
    y = induce_contra_t(m.src, free_contramodule(m.src.coalg, 1))
    ph = counit_phi(m, y)
    assert ph.rows == ph.cols == rank(ph)


def test_is_contra_galois_found_on_galois_measurings():
    for m in (galois_measuring(regular_galois(2, Q)),
              identity_measuring(dk(2, Q))):
        v = is_contra_galois(m)
        assert v.status == "FOUND"
        assert set(v.witness) == {"psi", "phi"}
        assert v.data["psi"]["rank"] == v.data["psi"]["rows"]


# -- adjunction reports ------------------------------------------------------


def test_adjunction_comodule_side_galois():
    m = galois_measuring(regular_galois(2, Q))
    swap = Mat.from_rows(Q, [[0, 1], [1, 0]])
    x = induce_mc(m.dst, involution_module(m.dst.alg, swap))
    y = src_space(m, 2)
    rep = adjunction_check_measuring(m, x, y)
    assert rep.title == "adjunction-measuring-co"
    assert rep.passed, rep.as_dict()


def test_adjunction_comodule_side_identity_measuring():
    e = dk(2, Q)
    m = identity_measuring(e)
    x = induce_mc(e, regular_right_module(e.alg))
    y = induce_tc(e, graded_comodule(e.coalg, [0, 1]))
    rep = adjunction_check_measuring(m, x, y)
    assert rep.passed, rep.as_dict()


def test_adjunction_contramodule_side_galois():
    m = galois_measuring(regular_galois(2, Q))
    swap = Mat.from_rows(Q, [[0, 1], [1, 0]])
    x = induce_a_t(m.dst, involution_module_left(m.dst.alg, swap))
    y = src_contra_space(m, 2)
    rep = adjunction_check_measuring(m, x, y)
    assert rep.title == "adjunction-measuring-contra"
    assert rep.passed, rep.as_dict()


def test_adjunction_contramodule_side_identity_measuring():
    e = dk(2, Q)
    m = identity_measuring(e)
    x = induce_a_t(e, dual_left_module(e.alg))
    y = induce_contra_t(e, free_contramodule(e.coalg, 1))
    rep = adjunction_check_measuring(m, x, y)
    assert rep.passed, rep.as_dict()


def test_adjunction_with_zero_objects():
    m = galois_measuring(regular_galois(2, Q))
    x0 = EntwinedModule(m.dst, 0, Mat.zeros(Q, 0, 0), Mat.zeros(Q, 0, 0))
    y = src_space(m, 1)
    assert adjunction_check_measuring(m, x0, y).passed
    x = induce_mc(m.dst, regular_right_module(m.dst.alg))
    y0 = EntwinedModule(m.src, 0, Mat.zeros(Q, 0, 0), Mat.zeros(Q, 0, 0))
    assert adjunction_check_measuring(m, x, y0).passed


def test_adjunction_rejects_mixed_arguments():
    m = galois_measuring(regular_galois(2, Q))
    x = induce_mc(m.dst, regular_right_module(m.dst.alg))
    y = src_contra_space(m, 1)
    with pytest.raises(ValueError):
        adjunction_check_measuring(m, x, y)


def test_adjunction_hom_dimensions_match_exhaustive_enumeration():
    g = regular_galois(2, F5)
    m = galois_measuring(g)
    x = EntwinedModule(m.dst, 2, g.alg.mult, g.coaction)
    y = src_space(m, 1)
    rep = adjunction_check_measuring(m, x, y)
    assert rep.passed, rep.as_dict()
    i_n = Mat.identity(F5, m.dst.alg.dim)
    i_c = Mat.identity(F5, m.dst.coalg.dim)
    hat_y = hat_tensor(m, y)
    left = hom_space(hat_y, x)
    count = exhaustive_solution_count(
        F5, x.dim, hat_y.dim,
        [lambda f: f * hat_y.action - x.action * kron(f, i_n),
         lambda f: x.coaction * f - kron(f, i_c) * hat_y.coaction])
    assert count == 5 ** left.dim
    cot_x = cotensor(m, x)
    right = hom_space(y, cot_x)
    i_np = Mat.identity(F5, m.src.alg.dim)
    i_cp = Mat.identity(F5, m.src.coalg.dim)
    count_r = exhaustive_solution_count(
        F5, cot_x.dim, y.dim,
        [lambda f: f * y.action - cot_x.action * kron(f, i_np),
         lambda f: cot_x.coaction * f - kron(f, i_cp) * y.coaction])
    assert count_r == 5 ** right.dim
    assert left.dim == right.dim


# -- tensoring by a plain space factors through every (co)unit ---------------


def test_unit_counit_factor_through_tensoring_galois():
    m = galois_measuring(regular_galois(2, Q))
    y = induce_tc(m.src, regular_comodule(m.src.coalg))
    x = induce_mc(m.dst, regular_right_module(m.dst.alg))
    om = unit_omega(m, y)
    up = counit_upsilon(m, x)
    for mdim in (2, 3):
        i_m = Mat.identity(Q, mdim)
        big_om = unit_omega(m, tensor_entwined(mdim, y))
        assert big_om == kron(i_m, om)
        assert rank(big_om) == mdim * rank(om)
        big_up = counit_upsilon(m, tensor_entwined(mdim, x))
        assert big_up == kron(i_m, up)
        assert rank(big_up) == mdim * rank(up)


def test_unit_counit_factor_through_tensoring_contra_galois():
    m = galois_measuring(regular_galois(2, Q))
    x = induce_a_t(m.dst, dual_left_module(m.dst.alg))
    y = induce_contra_t(m.src, free_contramodule(m.src.coalg, 1))
    ps = unit_psi(m, x)
    ph = counit_phi(m, y)
    for mdim in (2, 3):
        i_m = Mat.identity(Q, mdim)
        big_ps = unit_psi(m, tensor_contra(mdim, x))
        assert big_ps == kron(i_m, ps)
        assert rank(big_ps) == mdim * rank(ps)
        big_ph = counit_phi(m, tensor_contra(mdim, y))
        assert big_ph == kron(i_m, ph)
        assert rank(big_ph) == mdim * rank(ph)


def test_unit_counit_factor_through_tensoring_identity_measuring():
    e = dk(2, Q)
    m = identity_measuring(e)
    y = induce_tc(e, graded_comodule(e.coalg, [0, 1]))
    x = induce_mc(e, regular_right_module(e.alg))
    xc = induce_a_t(e, dual_left_module(e.alg))
    yc = induce_contra_t(e, free_contramodule(e.coalg, 1))
    i_m = Mat.identity(Q, 2)
    assert unit_omega(m, tensor_entwined(2, y)) == kron(i_m, unit_omega(m, y))
    assert (counit_upsilon(m, tensor_entwined(2, x))
            == kron(i_m, counit_upsilon(m, x)))
    assert unit_psi(m, tensor_contra(2, xc)) == kron(i_m, unit_psi(m, xc))
    assert counit_phi(m, tensor_contra(2, yc)) == kron(i_m, counit_phi(m, yc))
