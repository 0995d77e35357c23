"""Work per find_cointegral call: sep-f's, and no relabelling products.

`find_cointegral` solves sep-f's system with each column renamed by an
index map (`criteria._phi_layout`) and reads theta off its solution at
that map.  Neither step is a matrix product or a transpose, so a
cointegral call must make exactly the products and transposes that
`decide_sep_co_f` makes on the same entwining.  Relabelling by a
permutation matrix, A P = (P A^T)^T and theta = P vec(phi), costs two
more products and two transposes of the whole system.
"""

from __future__ import annotations

import pytest

from entwine import criteria
from entwine.algstruct import group_algebra
from entwine.entwining import regular_doi_koppinen
from entwine.exactlin import Field, Mat

FIELDS = {"Q": Field.rational(), "F5": Field.prime(5)}


def counted(monkeypatch, decide, e):
    """(products, transposes) made by decide(e), and its verdict."""
    calls = {"matmul": 0, "t": 0}
    matmul, t = Mat._matmul, Mat.t

    def counting_matmul(self, other):
        calls["matmul"] += 1
        return matmul(self, other)

    def counting_t(self):
        calls["t"] += 1
        return t.fget(self)

    with monkeypatch.context() as m:
        m.setattr(Mat, "_matmul", counting_matmul)
        m.setattr(Mat, "t", property(counting_t))
        v = decide(e)
    return (calls["matmul"], calls["t"]), v


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("order", [4, 5])
def test_cointegral_makes_the_products_of_sep_f(monkeypatch, order, fname):
    e = regular_doi_koppinen(group_algebra(order, FIELDS[fname]))
    sep_f, w = counted(monkeypatch, criteria.decide_sep_co_f, e)
    cointegral, v = counted(monkeypatch, criteria.find_cointegral, e)
    assert v.found and w.found
    assert cointegral == sep_f
