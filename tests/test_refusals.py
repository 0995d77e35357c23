"""Refusals that no other test reaches: each case pins the exception type
and its text, and each command-line case exit 3 and its one stderr line.

The shape refusals of `contracat.curry_left`, `contracat.uncurry_left`
and `exactlin.unvec` come from `exactlin.require_shape`, so they read
"<name> must be R x C" or "field mismatch" like every other structure map.
The morphism guards of the measuring functors are reached from the
identity measuring of DK kZ2 over Q with one entry changed, and t_upper's
colinearity guard with alpha = 0 and one entry of the source comult
changed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from entwine import cli, measuring
from entwine.algstruct import (
    Algebra, Coalgebra, comodule_hom, dual_left_module, group_algebra, matrix_algebra,
    module_hom_left, regular_comodule, regular_right_module, trunc_poly_algebra,
)
from entwine.comodcat import induce_mc, induce_tc
from entwine.contracat import (
    curry_left, free_contramodule, induce_a_t, induce_contra_t, uncurry_left,
)
from entwine.criteria import Cointegral, find_cointegral, maschke_split_co
from entwine.entwining import (
    Entwining, check_entwining_morphism, doi_koppinen, regular_doi_koppinen,
)
from entwine.exactlin import (
    Field, Lift, Mat, SubspaceBasis, Term, TermList, affine_matrix_system,
    block_diag, compile_bilinear, hstack, in_subspace, kron, mat_solution_basis,
    restrict_map, solve_affine, unvec, vstack,
)
from entwine.report import Verdict

Q, F5 = Field.rational(), Field.prime(5)
KZ2 = str(Path(cli.__file__).parent / "examples" / "kZ2.json")
UT3 = str(Path(__file__).parent / "data" / "ut3.json")


def dk(n, f=Q):
    return regular_doi_koppinen(group_algebra(n, f))


def module(e):
    """The free entwined module over e on its algebra."""
    return induce_mc(e, regular_right_module(e.alg))


def maschke_on_other_entwining():
    e = dk(2)
    phi = Cointegral.from_verdict(e, find_cointegral(e))
    x = module(dk(3))
    return maschke_split_co(e, phi, x, x, Mat.identity(Q, x.dim))


def unit_not_preserved():
    # rho is the regular coaction of kZ2, a multiplicative coaction on
    # kZ2's product; the unit is moved from 1 to the generator g.
    h = group_algebra(2, Q)
    a = Algebra(Q, 2, h.alg.mult, Mat.from_rows(Q, [[0], [1]]))
    return doi_koppinen(h, a, h.coalg.comult)


def term_wider_than_its_unknown():
    # A 2 x 2 left factor on a lift of a 3 x 3 unknown.
    t = Term(1, Mat.identity(Q, 2), (Lift(1, 1),))
    return affine_matrix_system(Q, 3, 3, TermList((t,)))


def terms_of_unequal_shape():
    # X (x) I_2 and X, 4 x 4 and 2 x 2 at a 2 x 2 unknown, do not add up.
    form = TermList((Term(1, None, (Lift(2, 1),)), Term(-1, None, (Lift(1, 1),))))
    return mat_solution_basis(Q, 2, 2, [form])


def const_of_other_shape():
    # X Y is 2 x 2 at a 2 x 3 X and a 3 x 2 Y; its constant is 3 x 3.
    form = TermList((Term(1, None, (Lift(1, 1), Lift(1, 1, side=1))),), Mat.identity(Q, 3))
    return compile_bilinear(Q, (2, 3), (3, 2), form, (Mat.identity(Q, 6),) * 2)


def form_over_f5(bilinear=False):
    """The term list c . X - 1, or c . X Y - 1, with c = 2 and every factor
    over F_5."""
    lifts = (Lift(1, 1), Lift(1, 1, side=1)) if bilinear else (Lift(1, 1),)
    return TermList((Term(1, Mat.from_rows(F5, [[2]]), lifts),), -Mat.identity(F5, 1))


def bumped(m, i, j):
    """m with 1 added to its entry (i, j)."""
    rows = [list(m.row(r)) for r in range(m.rows)]
    rows[i][j] += 1
    return Mat.from_rows(m.field, rows)


def kz2_measuring(alpha=None, gamma=None, comult=None):
    """The identity measuring of DK kZ2 over Q with alpha, gamma or the
    source coalgebra's comult replaced where given."""
    e = dk(2)
    m = measuring.identity_measuring(e)
    src = e if comult is None else Entwining(
        e.alg, Coalgebra(Q, e.coalg.dim, comult, e.coalg.counit), e.psi)
    return measuring.Measuring(src, e, m.alpha if alpha is None else alpha,
                               m.gamma if gamma is None else gamma)


def functor_at(name, m):
    """The functor `name` of m at its induced object over DK kZ2: the
    cotensor and cohom at objects over the target, the hat tensor and
    hom_tilde at objects over the source (both are DK kZ2)."""
    e = dk(2)
    x = {"cotensor": module(e), "cohom": induce_a_t(e, dual_left_module(e.alg)),
         "hat_tensor": induce_tc(e, regular_comodule(e.coalg)),
         "hom_tilde": induce_contra_t(e, free_contramodule(e.coalg, 1))}[name]
    return getattr(measuring, name)(m, x)


# One changed entry of the identity measuring breaks right-linearity: the
# twisted cofree actions of t_upper's domain and codomain stop matching.
ALPHA_01 = bumped(measuring.identity_measuring(dk(2)).alpha, 0, 1)
GAMMA_00 = bumped(measuring.identity_measuring(dk(2)).gamma, 0, 0)
# With alpha = 0 both cofree actions vanish, so t_upper is right-linear
# whatever it is; its colinearity is then coassociativity of the source
# comult under gamma, broken by one changed entry.
COLINEAR = dict(alpha=Mat.zeros(Q, 2, 4), comult=bumped(dk(2).coalg.comult, 0, 1))


def unnamed_algebra():
    ws = cli.parse_workspace(KZ2)
    ws.algebras.clear()
    return cli.workspace_as_dict(ws)


REFUSALS = {
    # algstruct
    "module-hom-left-algebras": (
        lambda: module_hom_left(dual_left_module(group_algebra(2, Q).alg),
                                dual_left_module(group_algebra(3, Q).alg)),
        ValueError, "modules over different algebras"),
    "comodule-hom-coalgebras": (
        lambda: comodule_hom(regular_comodule(group_algebra(2, Q).coalg),
                             regular_comodule(group_algebra(3, Q).coalg)),
        ValueError, "comodules over different coalgebras"),
    "matrix-algebra-size": (
        lambda: matrix_algebra(0, Q), ValueError, "size must be positive"),
    "trunc-poly-order": (
        lambda: trunc_poly_algebra(0, Q), ValueError, "truncation order must be positive"),
    # cli
    "serialize-unnamed-object": (
        unnamed_algebra, cli.InputError, "serialize: algebra is not named in the workspace"),
    # criteria
    "maschke-other-entwining": (
        maschke_on_other_entwining, ValueError,
        "objects and cointegral must share the entwining"),
    # entwining
    "entwining-morphism-fields": (
        lambda: check_entwining_morphism(dk(2), dk(2, F5), Mat.identity(Q, 2),
                                         Mat.identity(Q, 2)),
        ValueError, "field mismatch"),
    "doi-koppinen-fields": (
        lambda: doi_koppinen(group_algebra(2, Q), group_algebra(2, F5).alg,
                             Mat.zeros(Q, 4, 2)),
        ValueError, "field mismatch"),
    "doi-koppinen-unit": (
        unit_not_preserved, ValueError, "rho does not preserve the unit"),
    # exactlin
    "coerce-into-q": (lambda: Q.of(1.5), ValueError, "cannot coerce 1.5 into Q"),
    "coerce-into-fp": (lambda: F5.of(1.5), ValueError, "cannot coerce 1.5 into F_5"),
    "ragged-rows": (lambda: Mat.from_rows(Q, [[1, 2], [3]]), ValueError, "ragged rows"),
    "kron-fields": (
        lambda: kron(Mat.identity(Q, 1), Mat.identity(F5, 1)), ValueError, "field mismatch"),
    "hstack-rows": (
        lambda: hstack([Mat.identity(Q, 2), Mat.identity(Q, 3)]),
        ValueError, "hstack shape mismatch"),
    "hstack-fields": (
        lambda: hstack([Mat.identity(Q, 2), Mat.identity(F5, 2)]),
        ValueError, "hstack shape mismatch"),
    "vstack-cols": (
        lambda: vstack([Mat.identity(Q, 2), Mat.identity(Q, 3)]),
        ValueError, "vstack shape mismatch"),
    "block-diag-fields": (
        lambda: block_diag(Mat.identity(Q, 1), Mat.identity(F5, 1)),
        ValueError, "field mismatch"),
    "solve-affine-rows": (
        lambda: solve_affine(Mat.identity(Q, 2), Mat.zeros(Q, 3, 1)),
        ValueError, "shape mismatch"),
    "solve-affine-fields": (
        lambda: solve_affine(Mat.from_rows(F5, [[2, 0], [0, 1]]),
                             Mat.from_rows(Q, [["1/3"], ["1/2"]])),
        ValueError, "field mismatch"),
    # A codomain basis with no unit row for its first column is eliminated.
    "restrict-map-fields": (
        lambda: restrict_map(Mat.identity(Q, 2), Mat.identity(Q, 2),
                             Mat.from_rows(F5, [[2, 0], [0, 1]])),
        ValueError, "field mismatch"),
    "in-subspace-fields": (
        lambda: in_subspace(SubspaceBasis(2, Mat.identity(Q, 2)), Mat.zeros(F5, 2, 1)),
        ValueError, "field mismatch"),
    "term-wider-than-unknown": (
        term_wider_than_its_unknown, ValueError, "term does not fit the shape of its unknown"),
    "terms-of-unequal-shape": (
        terms_of_unequal_shape, ValueError, "term list has no single value shape"),
    "const-of-other-shape": (
        const_of_other_shape, ValueError, "term list has no single value shape"),
    "term-list-fields-evaluated": (
        lambda: form_over_f5()(Mat.identity(Q, 1)), ValueError, "field mismatch"),
    "term-list-fields-contracted": (
        lambda: affine_matrix_system(Q, 1, 1, form_over_f5()), ValueError, "field mismatch"),
    "coupling-fields": (
        lambda: compile_bilinear(Q, (1, 1), (1, 1), form_over_f5(bilinear=True),
                                 (Mat.identity(Q, 1),) * 2),
        ValueError, "field mismatch"),
    # measuring
    "galois-fields": (
        lambda: measuring.GaloisData(group_algebra(2, Q).alg, group_algebra(2, F5).coalg,
                                     Mat.zeros(Q, 4, 2)),
        ValueError, "field mismatch"),
    "descend-relations": (
        lambda: measuring._descend(Mat.identity(Q, 1), Mat.identity(Q, 1),
                                   Mat.identity(Q, 1), "f does not kill the relations"),
        ValueError, "f does not kill the relations"),
    "t-upper-entwining": (
        lambda: measuring.t_upper(measuring.identity_measuring(dk(2)), module(dk(3))),
        ValueError, "object is not over the target entwining"),
    "t-lower-entwining": (
        lambda: measuring.t_lower(measuring.identity_measuring(dk(2)), module(dk(3))),
        ValueError, "object is not over the source entwining"),
    "cotensor-alpha-right-linear": (
        lambda: functor_at("cotensor", kz2_measuring(alpha=ALPHA_01)),
        ValueError, "t_upper is not right-linear"),
    "cotensor-gamma-right-linear": (
        lambda: functor_at("cotensor", kz2_measuring(gamma=GAMMA_00)),
        ValueError, "t_upper is not right-linear"),
    "cohom-alpha-right-linear": (
        lambda: functor_at("cohom", kz2_measuring(alpha=ALPHA_01)),
        ValueError, "t_upper is not right-linear"),
    "cohom-gamma-right-linear": (
        lambda: functor_at("cohom", kz2_measuring(gamma=GAMMA_00)),
        ValueError, "t_upper is not right-linear"),
    "cotensor-colinear": (
        lambda: functor_at("cotensor", kz2_measuring(**COLINEAR)),
        ValueError, "t_upper is not colinear"),
    "cohom-colinear": (
        lambda: functor_at("cohom", kz2_measuring(**COLINEAR)),
        ValueError, "t_upper is not colinear"),
    "hat-tensor-coaction-descends": (
        lambda: functor_at("hat_tensor", kz2_measuring(gamma=GAMMA_00)),
        ValueError, "coaction does not descend to the quotient"),
    "hom-tilde-coaction-descends": (
        lambda: functor_at("hom_tilde", kz2_measuring(gamma=GAMMA_00)),
        ValueError, "coaction does not descend to the quotient"),
    # report
    "verdict-status": (lambda: Verdict("MAYBE"), ValueError, "bad verdict status 'MAYBE'"),
    "verdict-certificate": (
        lambda: Verdict("NONE"), ValueError, "NONE requires a certificate kind"),
    # the shape refusals through require_shape
    "curry-left-shape": (
        lambda: curry_left(Mat.zeros(Q, 2, 3), 2, 2), ValueError, "action must be 2 x 4"),
    "uncurry-left-shape": (
        lambda: uncurry_left(Mat.zeros(Q, 2, 2), 2, 2),
        ValueError, "curried action must be 4 x 2"),
    "unvec-shape": (
        lambda: unvec(Q, Mat.zeros(Q, 4, 2), 2, 2), ValueError, "column must be 4 x 1"),
    "unvec-field": (
        lambda: unvec(Q, Mat.zeros(F5, 4, 1), 2, 2), ValueError, "field mismatch"),
}


@pytest.mark.parametrize("call, exc, text", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, exc, text):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == text


# Files the command-line cases name by key; "{path}" in a message is the
# file's path.
FILES = {"list.json": "[]", "empty.json": '{"field": {"kind": "rational"}}'}

CLI_REFUSALS = {
    "top-level-not-object": (["check", "list.json"], "{path}: top level must be an object"),
    "check-unknown-name": (["check", KZ2, "nope"], "nope: no object with this name"),
    "check-empty-workspace": (["check", "empty.json"], "check: workspace has no objects"),
    "functor-unknown-measuring": (
        ["cotensor", KZ2, "nope", "M"], "nope: no measuring or entwining with this name"),
    "field-modulus-not-int": (
        ["check", KZ2, "--field", "prime:x"], "--field: modulus 'x' is not an int"),
}


@pytest.mark.parametrize("argv, message", CLI_REFUSALS.values(), ids=CLI_REFUSALS.keys())
def test_cli_refusal(argv, message, tmp_path, capsys):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    path = next((str(tmp_path / a) for a in argv if a in FILES), None)
    code = cli.main([str(tmp_path / a) if a in FILES else a for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: %s\n" % message.format(path=path)


def test_field_rational_overrides_a_prime_workspace(capsys):
    outs = []
    for extra in ([], ["--field", "rational"]):
        assert cli.main(["check", UT3, "--format", "json"] + extra) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0]["field"] == {"kind": "prime", "p": 2}
    assert outs[1]["field"] == {"kind": "rational"}
    assert [r["subject"] for r in outs[1]["reports"]] == ["T", "k", "E"]
    assert all(r["report"]["passed"] for r in outs[1]["reports"])
