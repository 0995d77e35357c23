"""Differential test of the Frobenius ladder's projective sweep.

The couplings are bilinear minus a constant and the memberships are
homogeneous, so (s, th) is a witness exactly when (y s, th / y) is one,
for y != 0: a candidate of the sweep extends exactly when its nonzero
multiples do.  The ladder therefore sweeps zero and the points whose
first nonzero coordinate is 1.  The reference,
`reference_residuals.frobenius_sweep`, sweeps all p^d candidates of the
smaller membership space in lexicographic order, with membership bases
and couplings assembled from the closures of `reference_residuals` and
feasibility decided by the naive elimination of `oracles.in_span`.  Both
must give the same status and the same first hit, and a NONE must have
tried exactly (p^d - 1)/(p - 1) + 1 candidates.
"""

from __future__ import annotations

import pytest

from entwine.exactlin import Field
from entwine.algstruct import group_like_coalgebra, upper_triangular_algebra
from entwine import criteria
from entwine.criteria import decide_frobenius_co, decide_frobenius_contra
from reference_residuals import frobenius_sweep as reference_sweep
from test_frobenius_ladder import SWEEP_HITS, edited_flip, random_entwining

F3, F5 = Field.prime(3), Field.prime(5)


def projective_count(p, d):
    return (p ** d - 1) // (p - 1) + 1


HIT, NONE = "strategy 3: enumeration hit ", "strategy 3: all "


def sweep_of(v):
    """(status, first hit) of a verdict whose log ends in the sweep."""
    last = v.log[-1]
    if last.startswith(HIT):
        return "FOUND", tuple(int(x) for x in last[len(HIT):].strip("(,)").split(", "))
    assert last.startswith(NONE), last
    return "NONE", None


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_projective_points_take_one_point_on_each_line(p, d):
    points = list(criteria._projective_points(p, d))
    assert len(points) == projective_count(p, d)
    assert points[0] == (0,) * d
    assert points == sorted(points)
    lines = {}
    for x in points[1:]:
        assert next(c for c in x if c) == 1
        for y in range(1, p):
            lines.setdefault(tuple(y * c % p for c in x), x)
    assert len(lines) == p ** d - 1


# The sweep hits of the ladder's tests, and two tensor flips of the upper
# triangular algebra that end NONE after a complete sweep.
SWEEPS = dict(SWEEP_HITS, **{
    "ut-gl3 F3": edited_flip(upper_triangular_algebra(F3), group_like_coalgebra(F3, 3), []),
    "ut-gl2 F5": edited_flip(upper_triangular_algebra(F5), group_like_coalgebra(F5, 2), []),
})


@pytest.mark.parametrize("variance", ["co", "contra"])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_ladder_sweep_matches_the_full_reference_sweep(name, variance):
    e = SWEEPS[name]
    decide = decide_frobenius_co if variance == "co" else decide_frobenius_contra
    status, hit, _ = reference_sweep(e, variance)
    assert sweep_of(decide(e)) == (status, hit)


@pytest.mark.parametrize("p", [3, 5])
def test_projective_order_meets_the_first_hit_on_random_structures(p):
    # The scaling argument on seeded structure constants: the reference run
    # over the projective points ends as the full one.  The ladder agrees
    # with both where it reaches the sweep, and with their status where an
    # earlier rung decides.
    F = Field.prime(p)
    hits = 0
    for seed in range(1, 41):
        e = random_entwining(F, 2, 2, seed)
        # One verdict for both variances: the contra decider is the co decider.
        v = decide_frobenius_co(e)
        d = min(v.data["sigma_parameters"], v.data["rho_parameters"])
        if d == 0:
            continue
        for variance in ("co", "contra"):
            full = reference_sweep(e, variance)
            projective = reference_sweep(e, variance, criteria._projective_points(p, d))
            assert full[:2] == projective[:2]
            hits += full[0] == "FOUND"
            if full[0] == "NONE":
                assert projective[2] == projective_count(p, d)
            if v.log[-1].startswith((HIT, NONE)):
                assert sweep_of(v) == full[:2]
            elif v.status != "UNKNOWN":
                assert v.status == full[0]
    assert hits


@pytest.mark.parametrize("name", ["ut-gl3 F3", "ut-gl2 F5"])
def test_none_tries_one_candidate_per_line(name, monkeypatch):
    e = SWEEPS[name]
    tried = []
    points = criteria._projective_points

    def counted(p, d):
        for x in points(p, d):
            tried.append(x)
            yield x

    monkeypatch.setattr(criteria, "_projective_points", counted)
    v = decide_frobenius_co(e)
    d = min(v.data["sigma_parameters"], v.data["rho_parameters"])
    assert (v.status, v.certificate) == ("NONE", "exhaustive")
    assert len(tried) == projective_count(e.field.p, d)
    assert v.log[-1] == "strategy 3: all %d candidates fail" % len(tried)
