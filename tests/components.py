"""Second-route evaluators for the decider identities at arbitrary dimension.

The package assembles its decision systems once, at the base field, by
probing matrix units.  The evaluators here instead write out the full
component equations at a space of dimension m and evaluate them on a
concrete family value.  Nothing is shared with the assembly path, so the
two routes cross-check each other: a FOUND witness must zero every
residual below at every m, and the stacked linearizations must have the
same rank as the packaged condition systems.
"""

from __future__ import annotations

from entwine.exactlin import Mat, kron, rank, vec, vstack
from entwine.entwining import Entwining


def _ids(e: Entwining, m: int):
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    return (Mat.identity(F, m), Mat.identity(F, m * c), Mat.identity(F, m * n),
            Mat.identity(F, n), Mat.identity(F, c))


def sigma_equations_contra(e: Entwining, s: Mat, m: int):
    """Membership and normalization residuals for a sigma family value s
    (a column on C(x)A), at a space of dimension m, contramodule side."""
    i_m, i_mc, i_mn, i_n, i_c = _ids(e, m)
    head = kron(i_m, kron(e.coalg.comult.t, i_n))
    mem = (head * kron(i_mc, e.psi.t) * kron(i_m, kron(s, i_c))
           - head * kron(i_mc, s))
    norm = kron(i_mc, e.alg.unit.t) * kron(i_m, s) - kron(i_m, e.coalg.counit.t)
    return [mem, norm]


def rho_equations_contra(e: Entwining, th: Mat, m: int):
    """Action, coaction, and normalization residuals for a rho family
    value theta: C -> A(x)A, at dimension m, contramodule side."""
    i_m, i_mc, i_mn, i_n, i_c = _ids(e, m)
    tt = th.t
    act = (kron(i_m, e.psi.t) * kron(i_mn, tt) * kron(i_m, kron(e.alg.mult.t, i_n))
           - kron(kron(i_m, tt), i_n) * kron(i_mn, e.alg.mult.t))
    coact = (kron(i_m, e.coalg.comult.t) * kron(i_mc, tt)
             * kron(kron(i_m, e.psi.t), i_n) * kron(i_mn, e.psi.t)
             - kron(i_m, e.coalg.comult.t) * kron(kron(i_m, tt), i_c))
    norm = (kron(i_m, tt) * kron(i_m, e.alg.mult.t)
            - kron(i_m, e.coalg.counit.t) * kron(i_m, e.alg.unit.t))
    return [act, coact, norm]


def frobenius_equations_contra(e: Entwining, s: Mat, th: Mat, m: int):
    """The two coupling residuals tying a sigma value to a rho value."""
    i_m, i_mc, i_mn, i_n, i_c = _ids(e, m)
    tt = th.t
    const = kron(i_m, e.coalg.counit.t) * kron(i_m, e.alg.unit.t)
    c1 = (kron(i_m, e.coalg.comult.t) * kron(i_mc, tt)
          * kron(kron(i_m, e.psi.t), i_n) * kron(i_mn, s) - const)
    c2 = (kron(i_m, e.coalg.comult.t) * kron(i_mc, tt)
          * kron(kron(i_m, s), i_n) - const)
    return [c1, c2]


def sigma_equations_co(e: Entwining, r: Mat, m: int):
    """Comodule-side counterparts of sigma_equations_contra, for a row r."""
    i_m, i_mc, i_mn, i_n, i_c = _ids(e, m)
    tail = kron(i_m, kron(e.coalg.comult, i_n))
    mem = (kron(kron(i_m, r), i_c) * kron(i_mc, e.psi) * tail
           - kron(i_mc, r) * tail)
    norm = kron(i_m, r) * kron(i_mc, e.alg.unit) - kron(i_m, e.coalg.counit)
    return [mem, norm]


def theta_of_phi(e: Entwining, phi: Mat) -> Mat:
    """(I_n (x) phi)(coev (x) I_c): C -> A(x)A, the rho family value of a
    cointegral phi: A*(x)C -> A."""
    F, n, c = e.field, e.alg.dim, e.coalg.dim
    return kron(Mat.identity(F, n), phi) * kron(vec(Mat.identity(F, n)), Mat.identity(F, c))


def rho_equations_co(e: Entwining, th: Mat, m: int):
    i_m, i_mc, i_mn, i_n, i_c = _ids(e, m)
    coact = (kron(i_mn, e.psi) * kron(i_m, kron(e.psi, i_n))
             * kron(i_mc, th) * kron(i_m, e.coalg.comult)
             - kron(kron(i_m, th), i_c) * kron(i_m, e.coalg.comult))
    act = (kron(i_mn, e.alg.mult) * kron(kron(i_m, th), i_n)
           - kron(i_m, kron(e.alg.mult, i_n)) * kron(i_mn, th) * kron(i_m, e.psi))
    norm = (kron(i_m, e.alg.mult) * kron(i_m, th)
            - kron(i_m, e.alg.unit) * kron(i_m, e.coalg.counit))
    return [coact, act, norm]


def frobenius_equations_co(e: Entwining, r: Mat, th: Mat, m: int):
    i_m, i_mc, i_mn, i_n, i_c = _ids(e, m)
    const = kron(i_m, e.alg.unit) * kron(i_m, e.coalg.counit)
    c1 = (kron(i_mn, r) * kron(i_m, kron(e.psi, i_n))
          * kron(i_mc, th) * kron(i_m, e.coalg.comult) - const)
    c2 = (kron(kron(i_m, r), i_n) * kron(i_mc, th)
          * kron(i_m, e.coalg.comult) - const)
    return [c1, c2]


def stacked_system_rank(e: Entwining, equations, rows: int, cols: int,
                        dims=(1, 2)) -> int:
    """Rank of the linear system obtained by instantiating the component
    equations at each dimension in dims and stacking them.

    equations(e, value, m) must return only residuals linear in value
    (membership parts, never the affine normalizations), or the
    linearization below is meaningless.
    """
    F = e.field
    cols_out = []
    for idx in range(rows * cols):
        unit = [F.zero] * (rows * cols)
        unit[idx] = F.one
        em = Mat(F, rows, cols, tuple(unit))
        parts = []
        for m in dims:
            parts.extend(vec(r) for r in equations(e, em, m))
        cols_out.append(vstack(parts))
    if not cols_out:
        return 0
    total = cols_out[0].rows
    data = []
    for i in range(total):
        data.append([col[i, 0] for col in cols_out])
    return rank(Mat.from_rows(F, data))
