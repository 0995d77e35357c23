"""End-to-end gate: one test per criterion, one printed pass or fail line each.

Every criterion aggregates its findings into a problem list, prints its
verdict line, and only then asserts, so the line appears even when the
criterion fails.  All arithmetic is exact; no tolerances anywhere.
"""

import io
import random
from contextlib import redirect_stdout
from pathlib import Path

import entwine.cli as cli
from entwine.exactlin import Field, Mat, kernel_basis, kron, rank, unvec
from entwine.algstruct import (
    dual_left_module, group_algebra, matrix_algebra, regular_comodule,
    regular_right_module, trunc_poly_algebra, upper_triangular_algebra,
)
from entwine.entwining import (
    Entwining, check_entwining, regular_doi_koppinen, trivial_entwining,
)
from entwine.comodcat import hom_space, induce_mc, induce_tc
from entwine.contracat import (
    ContraModule, check_contramodule, contra_hom_space, free_contramodule,
    induce_a_t, induce_contra_t, under,
)
from entwine.measuring import (
    GaloisData, adjunction_check_measuring, canonical_map, coinvariants,
    cohom, cotensor, counit_phi, counit_upsilon, galois_entwining,
    galois_measuring, hat_tensor, hom_tilde, identity_measuring, is_co_galois,
    is_contra_galois, is_galois, unit_omega, unit_psi,
)
from entwine.criteria import (
    Cointegral, decide_frobenius_co, decide_frobenius_contra,
    decide_sep_co_f, decide_sep_co_t, decide_sep_contra_f, decide_sep_contra_t,
    find_cointegral, maschke_split_co, maschke_split_contra,
    semisimplicity_probe,
)
from corpus import graded_comodule, tensor_contra, tensor_entwined
from oracles import (
    all_mats, cointegral_conditions_oracle, in_span,
    sep_idempotent_exists_oracle,
)
import components as cp

Q = Field.rational()
F2 = Field.prime(2)
F5 = Field.prime(5)


def dk(n, field):
    return regular_doi_koppinen(group_algebra(n, field))


def regular_galois(field):
    h = group_algebra(2, field)
    return GaloisData(h.alg, h.coalg, h.coalg.comult)


def _finish(number, label, problems):
    ok = not problems
    print("criterion %d (%s): %s" % (number, label, "PASS" if ok else "FAIL"))
    assert ok, "; ".join(problems)


def _allzero(mats):
    return all(m.is_zero() for m in mats)


# -- criterion 1: axiom engine and mutation fuzz ----------------------


def _psi_identity_sides(e):
    """The four defining identities as (lhs, rhs) pairs, keyed like the
    checker names them, rebuilt here so a reported witness can be audited
    against freshly computed sides."""
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    i_n, i_c = Mat.identity(F, n), Mat.identity(F, c)
    mult, unit = e.alg.mult, e.alg.unit
    comult, counit = e.coalg.comult, e.coalg.counit
    psi = e.psi
    return {
        "psi-mult": (psi * kron(i_c, mult),
                     kron(mult, i_c) * kron(i_n, psi) * kron(psi, i_n)),
        "psi-unit": (psi * kron(i_c, unit), kron(unit, i_c)),
        "psi-comult": (kron(i_n, comult) * psi,
                       kron(psi, i_c) * kron(i_c, psi) * kron(comult, i_n)),
        "psi-counit": (kron(i_n, counit) * psi, kron(counit, i_n)),
    }


def _bump_entry(psi, idx):
    F = psi.field
    ents = list(psi.entries)
    ents[idx] = F.add(ents[idx], F.one)
    return Mat(F, psi.rows, psi.cols, tuple(ents))


def test_criterion_1_axiom_engine():
    problems = []

    clean = [
        trivial_entwining(matrix_algebra(2, Q)),
        trivial_entwining(upper_triangular_algebra(F5)),
        dk(2, Q), dk(3, Q), dk(2, F5), dk(3, F5),
        galois_entwining(regular_galois(Q)),
        galois_entwining(regular_galois(F5)),
    ]
    for e in clean:
        rep = check_entwining(e)
        if not rep.passed:
            problems.append("clean instance rejected: %dx%d over %s"
                            % (e.alg.dim, e.coalg.dim, e.field.show(e.field.one)))

    mutants = killed = 0
    for e in (dk(2, Q), dk(3, F5), trivial_entwining(matrix_algebra(2, Q))):
        F = e.field
        for idx in range(len(e.psi.entries)):
            mutants += 1
            mut = Entwining(e.alg, e.coalg, _bump_entry(e.psi, idx))
            rep = check_entwining(mut)
            if rep.passed:
                problems.append("mutant %d survived" % idx)
                continue
            killed += 1
            ch = next(c for c in rep.checks if not c.passed)
            w = ch.witness
            if w is None or w.get("kind") != "entry":
                problems.append("mutant %d: no entry witness" % idx)
                continue
            lhs, rhs = _psi_identity_sides(mut)[ch.name]
            a, b = lhs[w["row"], w["col"]], rhs[w["row"], w["col"]]
            if a == b:
                problems.append("mutant %d: witness points at equal entries" % idx)
            if F.show(a) != w["lhs"] or F.show(b) != w["rhs"]:
                problems.append("mutant %d: witness values do not reproduce" % idx)

    if mutants < 50:
        problems.append("only %d mutants generated" % mutants)
    if killed != mutants:
        problems.append("kill rate %d/%d" % (killed, mutants))
    _finish(1, "axiom engine with mutation fuzz", problems)


# -- criterion 2: coinvariants and the canonical map ------------------


def test_criterion_2_coinvariants_and_canonical_map():
    problems = []
    g = regular_galois(Q)
    n, c = g.alg.dim, g.coalg.dim
    i_n = Mat.identity(Q, n)

    b = coinvariants(g)
    if b.dim != 1:
        problems.append("coinvariant dimension %d, expected 1" % b.dim)
    inc_col = [b.inclusion[i, 0] for i in range(n)]
    one_col = [g.alg.unit[i, 0] for i in range(n)]
    if not (in_span(Q, [inc_col], one_col) and in_span(Q, [one_col], inc_col)):
        problems.append("coinvariants differ from the span of the unit")

    _, dom, can = canonical_map(g)
    if dom.dim != n * c:
        problems.append("canonical domain has dim %d, expected %d" % (dom.dim, n * c))
    if rank(can) != n * c:
        problems.append("canonical map has rank %d, expected %d" % (rank(can), n * c))
    if not is_galois(g):
        problems.append("regular data not recognized as Galois")

    # Distinguished group-like: the coaction of the unit is unit (x) c0.
    t = g.coaction * g.alg.unit
    c0 = Mat.from_rows(Q, [[t[j, 0]] for j in range(c)])
    if kron(g.alg.unit, c0) != t:
        problems.append("coaction of the unit is not split by a group-like")

    # Coinvariants of the regular comodule, computed as a raw kernel.
    ker_a = kernel_basis(g.coaction - kron(i_n, c0))
    if ker_a.cols != 1:
        problems.append("regular coinvariant kernel has dim %d" % ker_a.cols)
    else:
        k_col = [ker_a[i, 0] for i in range(n)]
        if not (in_span(Q, [inc_col], k_col) and in_span(Q, [k_col], inc_col)):
            problems.append("kernel coinvariants disagree with the subalgebra")

    # Same kernel on the induced carrier A (x) C, free coaction.
    ker_ac = kernel_basis(kron(i_n, g.coalg.comult) - kron(Mat.identity(Q, n * c), c0))
    if ker_ac.cols != n:
        problems.append("induced coinvariant kernel has dim %d, expected %d"
                        % (ker_ac.cols, n))
    _finish(2, "coinvariants and canonical map", problems)


# -- criterion 3: unit and counit at the representing objects ---------


def test_criterion_3_galois_unit_counit():
    problems = []
    g = regular_galois(Q)
    m = galois_measuring(g)

    x_src = induce_tc(m.src, regular_comodule(m.src.coalg))
    omega = unit_omega(m, x_src)
    if not (omega.rows == omega.cols == x_src.dim and rank(omega) == omega.rows):
        problems.append("omega is not a full-rank square at the free object")

    x_dst = induce_mc(m.dst, regular_right_module(m.dst.alg))
    upsilon = counit_upsilon(m, x_dst)
    if not (upsilon.rows == upsilon.cols == x_dst.dim and rank(upsilon) == upsilon.rows):
        problems.append("upsilon is not a full-rank square at the induced object")

    y_dst = induce_a_t(m.dst, dual_left_module(m.dst.alg))
    psi_map = unit_psi(m, y_dst)
    if not (psi_map.rows == psi_map.cols and rank(psi_map) == psi_map.rows):
        problems.append("contramodule unit is not bijective")

    y_src = induce_contra_t(m.src, free_contramodule(m.src.coalg, 1))
    phi_map = counit_phi(m, y_src)
    if not (phi_map.rows == phi_map.cols and rank(phi_map) == phi_map.rows):
        problems.append("contramodule counit is not bijective")

    expected = "FOUND" if is_galois(g) else "NONE"
    v_co, v_contra = is_co_galois(m), is_contra_galois(m)
    if v_co.status != expected:
        problems.append("comodule-side verdict %s, expected %s" % (v_co.status, expected))
    if v_contra.status != expected:
        problems.append("contramodule-side verdict %s, expected %s"
                        % (v_contra.status, expected))
    _finish(3, "galois unit and counit isomorphisms", problems)


# -- criterion 4: adjunction bijections, randomized -------------------


def _co_pool(rng, e):
    bases = [induce_tc(e, regular_comodule(e.coalg)),
             induce_mc(e, regular_right_module(e.alg))]
    if e.coalg.dim == 2:
        bases.append(induce_tc(e, graded_comodule(e.coalg, [0])))
        bases.append(induce_tc(e, graded_comodule(e.coalg, [1])))
    return [tensor_entwined(rng.randint(1, 3 if b.dim <= 2 else 1), b)
            for b in bases]


def _contra_pool(rng, e):
    bases = [induce_contra_t(e, free_contramodule(e.coalg, 1)),
             induce_a_t(e, dual_left_module(e.alg))]
    if e.coalg.dim == 2:
        n0 = ContraModule(e.coalg, 1, Mat.from_rows(e.field, [[1, 0]]))
        assert check_contramodule(n0).passed
        bases.append(induce_contra_t(e, n0))
    return [tensor_contra(rng.randint(1, 3 if b.dim <= 2 else 1), b)
            for b in bases]


def _run_adjunction(problems, m, x, y, tag):
    rep = adjunction_check_measuring(m, x, y)
    if not rep.passed:
        problems.append("%s: adjunction report failed" % tag)
    if not any(ch.name == "hom-dims-equal" and ch.passed for ch in rep.checks):
        problems.append("%s: hom dimension comparison missing or failed" % tag)


def test_criterion_4_adjunction_suite():
    problems = []
    rng = random.Random(20260822)
    instances = 0

    for e in (dk(2, Q), dk(2, F5)):
        mid = identity_measuring(e)
        for _ in range(5):
            pool = _co_pool(rng, e)
            _run_adjunction(problems, mid, rng.choice(pool), rng.choice(pool),
                            "co/id/%d" % instances)
            instances += 1
        for _ in range(5):
            pool = _contra_pool(rng, e)
            _run_adjunction(problems, mid, rng.choice(pool), rng.choice(pool),
                            "contra/id/%d" % instances)
            instances += 1

    for field in (Q, F5):
        mg = galois_measuring(regular_galois(field))
        src_co = [tensor_entwined(d, induce_tc(mg.src, regular_comodule(mg.src.coalg)))
                  for d in (1, 2, 3)]
        dst_co = _co_pool(rng, mg.dst)
        for _ in range(2):
            _run_adjunction(problems, mg, rng.choice(dst_co), rng.choice(src_co),
                            "co/galois/%d" % instances)
            instances += 1
        src_contra = [induce_contra_t(mg.src, free_contramodule(mg.src.coalg, d))
                      for d in (1, 2, 3)]
        dst_contra = _contra_pool(rng, mg.dst)
        for _ in range(2):
            _run_adjunction(problems, mg, rng.choice(dst_contra), rng.choice(src_contra),
                            "contra/galois/%d" % instances)
            instances += 1

    if instances < 20:
        problems.append("only %d randomized instances" % instances)

    # Exhaustive recount of both hom spaces over F5 at dimension <= 2.
    e5 = dk(2, F5)
    mid = identity_measuring(e5)
    i_n, i_c = Mat.identity(F5, 2), Mat.identity(F5, 2)

    def count_co(u, v):
        hits = 0
        for f in all_mats(F5, v.dim, u.dim):
            if ((f * u.action - v.action * kron(f, i_n)).is_zero()
                    and (kron(f, i_c) * u.coaction - v.coaction * f).is_zero()):
                hits += 1
        return hits

    xg0 = induce_tc(e5, graded_comodule(e5.coalg, [0]))
    xg1 = induce_tc(e5, graded_comodule(e5.coalg, [1]))
    exhaustive = 0
    for x, y in ((xg0, xg1), (xg1, xg1)):
        hat_y, cot_x = hat_tensor(mid, y), cotensor(mid, x)
        for u, v, space in ((hat_y, x, hom_space(hat_y, x)),
                            (y, cot_x, hom_space(y, cot_x))):
            if u.dim * v.dim > 6:
                problems.append("exhaustive pair unexpectedly large")
                continue
            if count_co(u, v) != 5 ** space.dim:
                problems.append("comodule hom dim %d disagrees with enumeration"
                                % space.dim)
            exhaustive += 1

    def count_contra(u, v):
        hits = 0
        for f in all_mats(F5, v.dim, u.dim):
            if ((f * u.action - v.action * kron(i_n, f)).is_zero()
                    and (f * u.pi - v.pi * under(f, 2)).is_zero()):
                hits += 1
        return hits

    n0 = ContraModule(e5.coalg, 1, Mat.from_rows(F5, [[1, 0]]))
    n1 = ContraModule(e5.coalg, 1, Mat.from_rows(F5, [[0, 1]]))
    xc, yc = induce_contra_t(e5, n0), induce_contra_t(e5, n1)
    co_x, ht_y = cohom(mid, xc), hom_tilde(mid, yc)
    for u, v, space in ((co_x, yc, contra_hom_space(co_x, yc)),
                        (xc, ht_y, contra_hom_space(xc, ht_y))):
        if u.dim * v.dim > 6:
            problems.append("exhaustive contramodule pair unexpectedly large")
            continue
        if count_contra(u, v) != 5 ** space.dim:
            problems.append("contramodule hom dim %d disagrees with enumeration"
                            % space.dim)
        exhaustive += 1

    if exhaustive < 4:
        problems.append("only %d exhaustive recounts ran" % exhaustive)
    _finish(4, "adjunction hom bijections", problems)


# -- criterion 5: separability deciders -------------------------------


def test_criterion_5_separability():
    problems = []
    cases = [
        ("matrix", matrix_algebra(2, Q), True),
        ("group/rational", group_algebra(2, Q).alg, True),
        ("truncated", trunc_poly_algebra(2, Q), False),
        ("group/char-2", group_algebra(2, F2).alg, False),
    ]
    for label, a, expect in cases:
        e = trivial_entwining(a)
        v = decide_sep_co_f(e)
        want = "FOUND" if expect else "NONE"
        if v.status != want:
            problems.append("%s: verdict %s, expected %s" % (label, v.status, want))
            continue
        if sep_idempotent_exists_oracle(a) != expect:
            problems.append("%s: independent oracle disagrees" % label)
        if expect:
            th = v.witness["theta"]
            for m in (1, 2):
                if not _allzero(cp.rho_equations_co(e, th, m)):
                    problems.append("%s: witness fails substitution at dim %d"
                                    % (label, m))

    e2 = trivial_entwining(group_algebra(2, F2).alg)
    hits = sum(1 for th in all_mats(F2, 4, 1)
               if _allzero(cp.rho_equations_co(e2, th, 1))
               and _allzero(cp.rho_equations_co(e2, th, 2)))
    if hits != 0:
        problems.append("char-2 exhaustive scan found %d solutions" % hits)
    _finish(5, "separability deciders", problems)


# -- criterion 6: Frobenius deciders ----------------------------------


def _verify_frobenius_pair(problems, label, e, v, contra):
    # Memberships and the two couplings define the pair; the separability
    # normalizations are not part of it and may legitimately fail.
    s_row, th = v.witness["e"], v.witness["theta"]
    for m in (1, 2, 3):
        if contra:
            res = (cp.sigma_equations_contra(e, s_row.t, m)[:1]
                   + cp.rho_equations_contra(e, th, m)[:2]
                   + cp.frobenius_equations_contra(e, s_row.t, th, m))
        else:
            res = (cp.sigma_equations_co(e, s_row, m)[:1]
                   + cp.rho_equations_co(e, th, m)[:2]
                   + cp.frobenius_equations_co(e, s_row, th, m))
        if not _allzero(res):
            problems.append("%s: witness pair fails at dim %d" % (label, m))


def test_criterion_6_frobenius():
    problems = []
    found = []
    for label, e in (("matrix", trivial_entwining(matrix_algebra(2, Q))),
                     ("group/rational", trivial_entwining(group_algebra(2, Q).alg)),
                     ("regular/rational", dk(2, Q)),
                     ("regular/char-2", dk(2, F2))):
        for decide, contra in ((decide_frobenius_co, False),
                               (decide_frobenius_contra, True)):
            v = decide(e)
            if v.status != "FOUND":
                problems.append("%s: expected FOUND, got %s" % (label, v.status))
                continue
            found.append((label, e, v, contra))
    for label, e, v, contra in found:
        _verify_frobenius_pair(problems, label, e, v, contra)

    e_ut = trivial_entwining(upper_triangular_algebra(F2))
    v = decide_frobenius_co(e_ut)
    if v.status != "NONE" or v.certificate != "exhaustive":
        problems.append("triangular: expected exhaustive NONE, got %s/%s"
                        % (v.status, v.certificate))

    # Independent refutation: no (functional, casimir) pair survives even
    # the dimension-1 equations over the 8 x 512 candidate grid.
    pairs = 0
    for s in all_mats(F2, 1, 3):
        for th in all_mats(F2, 9, 1):
            ok = (_allzero(cp.sigma_equations_co(e_ut, s, 1)[:1])
                  and _allzero(cp.rho_equations_co(e_ut, th, 1)[:2])
                  and _allzero(cp.frobenius_equations_co(e_ut, s, th, 1)))
            if ok:
                pairs += 1
    if pairs != 0:
        problems.append("triangular scan found %d surviving pairs" % pairs)
    _finish(6, "frobenius deciders", problems)


# -- criterion 7: cointegrals and Maschke averaging -------------------


def test_criterion_7_cointegral_maschke():
    problems = []
    e_q = dk(2, Q)
    v_q = find_cointegral(e_q)
    if v_q.status != "FOUND":
        problems.append("rational cointegral missing: %s" % v_q.status)
        _finish(7, "cointegral and maschke averaging", problems)
        return
    phi = v_q.witness["phi"]
    if not cointegral_conditions_oracle(e_q, phi):
        problems.append("rational witness fails the independent oracle")
    ci = Cointegral(e_q, phi)

    probe = semisimplicity_probe(e_q, ci)
    if not (probe.passed and probe.data.get("applicable") and len(probe.checks) == 10):
        problems.append("averaging corpus: %d checks, passed=%s"
                        % (len(probe.checks), probe.passed))

    # Entwined morphisms are fixed pointwise by the averaging.
    u1 = induce_tc(e_q, regular_comodule(e_q.coalg))
    for i in range(hom_space(u1, u1).dim):
        f = unvec(Q, hom_space(u1, u1).basis.col_mat(i), u1.dim, u1.dim)
        if maschke_split_co(e_q, ci, u1, u1, f) != f:
            problems.append("comodule-side endomorphism %d moved" % i)
    x1 = induce_contra_t(e_q, free_contramodule(e_q.coalg, 1))
    for i in range(contra_hom_space(x1, x1).dim):
        f = unvec(Q, contra_hom_space(x1, x1).basis.col_mat(i), x1.dim, x1.dim)
        if maschke_split_contra(e_q, ci, x1, x1, f) != f:
            problems.append("contramodule-side endomorphism %d moved" % i)

    # The regular Doi-Koppinen entwining of kG has a normalized cointegral
    # in every characteristic, including char | |G|.  Its entwined modules
    # are G-graded right G-modules with M_x.g = M_{xg}; a graded map f
    # averages to the entwined map m in M_g |-> f(m.g^-1).g, which fixes
    # maps that are already entwined and never divides by |G|.  In
    # coordinates: phi(e^h (x) g) = delta(h, g^-1) g.  Maschke's condition
    # char does not divide |G| is separability of the algebra kG, i.e. of
    # the trivial entwining, where find_cointegral returns NONE over F_2.
    e_2 = dk(2, F2)
    v_2 = find_cointegral(e_2)
    hits = sum(1 for cand in all_mats(F2, 2, 4)
               if cointegral_conditions_oracle(e_2, cand))
    if v_2.status != "FOUND":
        problems.append(
            "expected FOUND for the regular group entwining in characteristic "
            "2, got %s; exhaustive scan of all 256 candidates finds %d "
            "normalized cointegrals" % (v_2.status, hits))
    elif not cointegral_conditions_oracle(e_2, v_2.witness["phi"]):
        problems.append("char-2 witness fails the independent oracle")
    if hits != 2:
        problems.append("exhaustive char-2 scan finds %d normalized "
                        "cointegrals, expected 2" % hits)
    _finish(7, "cointegral and maschke averaging", problems)


# -- criterion 8: component reconstruction at dims 1..3 ---------------


def test_criterion_8_component_soundness():
    problems = []
    insts = [
        trivial_entwining(matrix_algebra(2, Q)),
        trivial_entwining(group_algebra(2, Q).alg),
        trivial_entwining(group_algebra(2, F2).alg),
        trivial_entwining(trunc_poly_algebra(2, Q)),
        dk(2, Q), dk(2, F2), dk(3, F5),
    ]
    found = 0
    for k, e in enumerate(insts):
        for decide, kind, contra in (
                (decide_sep_contra_t, "sigma", True),
                (decide_sep_co_t, "sigma", False),
                (decide_sep_contra_f, "rho", True),
                (decide_sep_co_f, "rho", False)):
            v = decide(e)
            if v.status != "FOUND":
                continue
            found += 1
            for m in (1, 2, 3):
                if kind == "sigma":
                    res = (cp.sigma_equations_contra(e, v.witness["e"].t, m) if contra
                           else cp.sigma_equations_co(e, v.witness["e"], m))
                else:
                    res = (cp.rho_equations_contra(e, v.witness["theta"], m) if contra
                           else cp.rho_equations_co(e, v.witness["theta"], m))
                if not _allzero(res):
                    problems.append("instance %d %s: components fail at dim %d"
                                    % (k, kind, m))
        if e.alg.dim * e.coalg.dim <= 4:
            for decide, contra in ((decide_frobenius_co, False),
                                   (decide_frobenius_contra, True)):
                v = decide(e)
                if v.status != "FOUND":
                    continue
                found += 1
                _verify_frobenius_pair(problems, "instance %d frobenius" % k, e, v, contra)
    if found < 10:
        problems.append("only %d FOUND witnesses exercised" % found)
    _finish(8, "component reconstruction soundness", problems)


# -- criterion 9: byte-identical reports ------------------------------


def _cli_sweep():
    k = str(Path(cli.__file__).parent / "examples" / "kZ2.json")
    argvs = [
        ["check", k], ["check", k, "E"], ["check", k, "A", "C"],
        ["check", k, "--field", "prime:3"],
        ["galois", k, "G"], ["measuring", k, "I"],
        ["cotensor", k, "I", "M"], ["cotensor", k, "E", "M"],
        ["hattensor", k, "I", "M"],
        ["cohom", k, "E", "N"], ["homtilde", k, "E", "N"],
        ["separability", k, "E"], ["separability", k, "E", "--seed", "7"],
        ["frobenius", k, "E"], ["frobenius", k, "E", "--budget", "4"],
        ["cointegral", k, "E"], ["cointegral", k, "E", "--field", "prime:2"],
        ["maschke-probe", k, "E"],
    ]
    codes = []
    buf = io.StringIO()
    with redirect_stdout(buf):
        for argv in argvs:
            codes.append(cli.main(argv + ["--format", "json"]))
    return codes, buf.getvalue().encode("utf-8")


def test_criterion_9_determinism():
    problems = []
    codes1, bytes1 = _cli_sweep()
    codes2, bytes2 = _cli_sweep()
    if any(c != 0 for c in codes1):
        problems.append("nonzero exit codes on the shipped corpus: %r" % (codes1,))
    if codes1 != codes2:
        problems.append("exit codes changed between runs")
    if bytes1 != bytes2:
        problems.append("reports differ between runs")
    _finish(9, "deterministic reports", problems)
