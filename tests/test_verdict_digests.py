"""Byte identity of every decider's verdicts on the corpus.

Each digest is the sha256 of `Verdict.to_json()`, one line each, of one
decider on the entwinings of `corpus.entwinings` over Q, F_2, F_3 and
F_5, in that field order and in name order within a field.  The digests
were computed on the code in which the contramodule deciders still posed
their own identities, written out by hand, before they were made to pose
the comodule side's (whose transposes those identities are), and each
contramodule digest equalled its comodule counterpart's.  The
contramodule deciders are now the comodule ones under a second name
(tests/test_cli.py pins that), so the comodule digests pin both.  A
change that alters a verdict on purpose updates the digest and records
why.
"""

import hashlib

import pytest

from entwine.exactlin import Field
from entwine import criteria
import corpus

FIELDS = (Field.rational(), Field.prime(2), Field.prime(3), Field.prime(5))

DECIDERS = {
    "sep-co-t": criteria.decide_sep_co_t,
    "sep-co-f": criteria.decide_sep_co_f,
    "frobenius-co-12": lambda e: criteria.decide_frobenius_co(e, 12),
    "frobenius-co-0": lambda e: criteria.decide_frobenius_co(e, 0),
    "cointegral": criteria.find_cointegral,
}

DIGESTS = {
    "sep-co-t": "1d08c3ef98806c8c85f705bcb89729a929ebd18336490c0cb31b0bd7441da00c",
    "sep-co-f": "c3d0f71976b1d7218a73914dcb003c8e217d34c86090dd79aea53803aefba39f",
    "frobenius-co-12": "cc0bcd2f77d5cfdb58bff8f1660d8b707e9f1db70760d12b5c9e43dca6a2f48a",
    "frobenius-co-0": "5811324936db978f6593823e9433b16ead52e66cb7fcceeacc13088669e0f02b",
    "cointegral": "70a6d32df45fab7d66338778c992a00525724f83f000b05b4b48263bba0311d5",
}

ENTWININGS = [e for F in FIELDS for _, e in sorted(corpus.entwinings(F).items())]


@pytest.mark.parametrize("name", sorted(DECIDERS))
def test_verdicts_match_their_digest(name):
    h = hashlib.sha256()
    for e in ENTWININGS:
        h.update(DECIDERS[name](e).to_json().encode() + b"\n")
    assert h.hexdigest() == DIGESTS[name]
