"""Workspace files and the command-line front end."""

import gc
import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import pytest

import entwine.cli as cli
from entwine.cli import (
    InputError, main, parse_workspace, serialize_workspace, workspace_as_dict,
)
from entwine.exactlin import Field
from entwine.algstruct import group_algebra
from entwine.entwining import regular_doi_koppinen

KZ2 = str(Path(cli.__file__).parent / "examples" / "kZ2.json")
UT3 = str(Path(__file__).parent / "data" / "ut3.json")

Q = Field.rational()
F2 = Field.prime(2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    doc = json.loads(out)
    assert doc["exit"] == code
    return code, doc


# -- parsing ----------------------------------------------------------


def test_minimal_workspace():
    ws = parse_workspace(str(Path(__file__).parent / "data" / "ut3.json"))
    assert set(ws.algebras) == {"T"}
    assert ws.field == F2


def test_minimal_algebra_defaults_to_zero_maps(tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"field": {"kind": "rational"}, "algebras": {"k": {"dim": 1}}}')
    ws = parse_workspace(str(p))
    assert ws.algebras["k"].dim == 1
    assert ws.algebras["k"].unit.is_zero()
    assert ws.algebras["k"].mult.is_zero()


def test_zero_scalars_are_parsed_but_not_stored(tmp_path):
    # Over F_5, "5", "0/3" and 10 are zero: each is still a checked entry
    # (a repeat is a duplicate), but the matrix stores only the one nonzero.
    mult = [[0, 0, 0, "1"], [0, 1, 1, "5"], [1, 0, 1, "0/3"], [1, 1, 0, 10]]
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"field": {"kind": "prime", "p": 5},
                             "algebras": {"A": {"dim": 2, "mult": mult}}}))
    m = parse_workspace(str(p)).algebras["A"].mult
    assert m.nz == ({0: 1}, {})
    p.write_text(json.dumps({"field": {"kind": "prime", "p": 5},
                             "algebras": {"A": {"dim": 2, "mult": mult + [[0, 1, 1, 1]]}}}))
    with pytest.raises(InputError, match="duplicate entry at index"):
        parse_workspace(str(p))


def test_shipped_example_matches_builders():
    ws = parse_workspace(KZ2)
    h = group_algebra(2, Q)
    assert ws.algebras["A"] == h.alg
    assert ws.coalgebras["C"] == h.coalg
    assert ws.entwinings["E"] == regular_doi_koppinen(h)
    assert set(ws.modules) == {"M"}
    assert set(ws.contramodules) == {"N"}
    assert ws.modules["M"].action == h.alg.mult
    assert ws.galois["G"].coaction == h.coalg.comult


def test_out_of_range_index_names_the_entry(tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"field": {"kind": "rational"},'
                 ' "algebras": {"B": {"dim": 2, "mult": [[0, 0, 2, 1]]}}}')
    with pytest.raises(InputError, match=r"mult entry #0.*index 2"):
        parse_workspace(str(p))


def test_duplicate_entry_rejected(tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"field": {"kind": "rational"}, "algebras":'
                 ' {"B": {"dim": 1, "mult": [[0, 0, 0, 1], [0, 0, 0, 2]]}}}')
    with pytest.raises(InputError, match="duplicate"):
        parse_workspace(str(p))


def test_parse_error_locations(tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"field": {"kind": "rational"},}')
    with pytest.raises(InputError, match=r"w\.json:1:\d+"):
        parse_workspace(str(p))
    p.write_text('{"field": {"kind": "octonion"}}')
    with pytest.raises(InputError, match="unknown field kind"):
        parse_workspace(str(p))
    p.write_text('{"field": {"kind": "prime", "p": 6}}')
    with pytest.raises(InputError, match="not prime"):
        parse_workspace(str(p))
    p.write_text('{"field": {"kind": "rational"}, "entwinings":'
                 ' {"E": {"algebra": "A", "coalgebra": "C"}}}')
    with pytest.raises(InputError, match="unknown algebra 'A'"):
        parse_workspace(str(p))
    p.write_text('{"field": {"kind": "rational"},'
                 ' "algebras": {"B": {"dim": 2, "unit": [1]}}}')
    with pytest.raises(InputError, match="expected a list of 2 scalars"):
        parse_workspace(str(p))
    p.write_text('{"field": {"kind": "rational"},'
                 ' "algebras": {"B": {"dim": 1, "basis": []}}}')
    with pytest.raises(InputError, match="unknown key 'basis'"):
        parse_workspace(str(p))


def test_round_trip_identity():
    for path in (KZ2, UT3):
        ws = parse_workspace(path)
        text = serialize_workspace(ws)
        assert text + "\n" == Path(path).read_text()
        again = json.loads(text)
        assert again == workspace_as_dict(ws)


def test_field_override_reduces_constants():
    ws = parse_workspace(KZ2, override=F2)
    assert ws.field == F2
    assert ws.algebras["A"] == group_algebra(2, F2).alg


def test_field_override_can_fail_on_denominators(tmp_path):
    p = tmp_path / "w.json"
    p.write_text('{"field": {"kind": "rational"},'
                 ' "algebras": {"B": {"dim": 1, "unit": ["1/2"]}}}')
    assert parse_workspace(str(p)).algebras["B"].unit[0, 0] == Q.of("1/2")
    with pytest.raises(InputError, match="vanishes"):
        parse_workspace(str(p), override=F2)


# -- dispatch ---------------------------------------------------------


def test_check_all_subjects(capsys):
    code, doc = run_json(capsys, "check", KZ2)
    assert code == 0
    seen = [(r["kind"], r["subject"]) for r in doc["reports"]]
    assert seen == [("algebras", "A"), ("coalgebras", "C"), ("entwinings", "E"),
                    ("modules", "M"), ("contramodules", "N"),
                    ("comodules", "V"), ("measurings", "I"), ("galois", "G")]
    assert all(r["report"]["passed"] for r in doc["reports"])


def test_check_single_subject(capsys):
    code, doc = run_json(capsys, "check", KZ2, "E")
    assert code == 0
    assert [r["subject"] for r in doc["reports"]] == ["E"]
    names = [c["name"] for c in doc["reports"][0]["report"]["checks"]]
    assert names == ["psi-mult", "psi-unit", "psi-comult", "psi-counit"]


def test_check_reports_failures(tmp_path, capsys):
    p = tmp_path / "w.json"
    p.write_text('{"field": {"kind": "rational"}, "algebras": {"k": {"dim": 1}}}')
    code, doc = run_json(capsys, "check", str(p))
    assert code == 1
    assert not doc["reports"][0]["report"]["passed"]


def test_galois_command(capsys):
    code, doc = run_json(capsys, "galois", KZ2, "G")
    assert code == 0
    assert doc["galois"] == {"bijective": True, "canonical_domain_dim": 4,
                             "canonical_rank": 4, "coinvariants_dim": 1,
                             "target_dim": 4}


def test_measuring_command(capsys):
    code, doc = run_json(capsys, "measuring", KZ2, "I")
    assert code == 0
    assert len(doc["report"]["checks"]) == 5


def test_functor_commands(capsys):
    for cmd, obj, dim in (("cotensor", "M", 2), ("hattensor", "M", 2),
                          ("cohom", "N", 4), ("homtilde", "N", 4)):
        code, doc = run_json(capsys, cmd, KZ2, "I", obj)
        assert code == 0
        assert doc[cmd] == {"dim": dim, "input_dim": doc[cmd]["input_dim"]}
    # an entwining name stands in for its identity measuring
    code, doc = run_json(capsys, "cotensor", KZ2, "E", "M")
    assert code == 0
    assert doc["cotensor"]["dim"] == 2


def test_separability_command(capsys):
    code, doc = run_json(capsys, "separability", KZ2, "E")
    assert code == 0
    assert {k: v["status"] for k, v in doc["verdicts"].items()} == {
        "co_t": "FOUND", "co_f": "FOUND",
        "contra_t": "FOUND", "contra_f": "FOUND"}
    assert doc["observations"] == {"sides_agree_f": True, "sides_agree_t": True}

    code, doc = run_json(capsys, "separability", UT3, "E")
    assert code == 1
    assert doc["verdicts"]["co_t"]["status"] == "FOUND"
    assert doc["verdicts"]["co_f"]["status"] == "NONE"
    assert doc["observations"]["sides_agree_f"] is True


def test_frobenius_command(capsys):
    code, doc = run_json(capsys, "frobenius", KZ2, "E")
    assert code == 0
    assert doc["budget"] == 12
    code, doc = run_json(capsys, "frobenius", UT3, "E")
    assert code == 1
    assert doc["verdicts"]["co"]["certificate"] == "exhaustive"
    code, doc = run_json(capsys, "frobenius", UT3, "E", "--budget", "0")
    assert code == 2
    assert doc["budget"] == 0
    assert doc["verdicts"]["co"]["status"] == "UNKNOWN"


# sha256 of the stdout of each decider command, computed when each
# contramodule verdict was still solved on its own: reporting one verdict
# under both variances leaves every byte as it was.
DECIDER_STDOUT = {
    ("separability", "kZ2", "json"):
        "12694b5f770602eeadc9bdc6251c4784dbf3d5f8ec1a5770fc5310c8ad9535e4",
    ("separability", "kZ2", "text"):
        "09a61340238dd03d21a7272a574d6eb980d0fa0c82004d899cc6cd37c3639cd9",
    ("separability", "ut3", "json"):
        "a9a4ec61d590f57dbb3b5ad5e4a0c587f98f235b7d08357505b5e416b031a9ee",
    ("separability", "ut3", "text"):
        "486bdc5f0723bdc7e84b05393564817c34b57decbcd9cea1e4bf4a6f4dc59ae5",
    ("frobenius", "kZ2", "json"):
        "8227e8256e077cb97ad488da4cb478fdf9ccbb2ecb02e725cc362e6f1490bc5e",
    ("frobenius", "kZ2", "text"):
        "7d4b610336fa7efcb12e6e9898ec6d3bc26d7765da3ee80ea0e62d23a062a507",
    ("frobenius", "ut3", "json"):
        "f74f781d4d843ac010fd7bdfd077aae54e6088e80be1d3206cf6091cfe6ddbb8",
    ("frobenius", "ut3", "text"):
        "ba62841d49d722ab440dc608c1e81efca861e06ee0ad7ef853eadcd44566fe63",
}


def test_decider_commands_solve_each_system_once(monkeypatch, capsys):
    from entwine import criteria

    assert criteria.decide_sep_contra_t is criteria.decide_sep_co_t
    assert criteria.decide_sep_contra_f is criteria.decide_sep_co_f
    assert criteria.decide_frobenius_contra is criteria.decide_frobenius_co
    calls = []

    def counted(name):
        fn = getattr(criteria, name)

        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("_decide_linear", "_decide_frobenius"):
        monkeypatch.setattr(criteria, name, counted(name))
    solves = {"separability": ["_decide_linear"] * 2, "frobenius": ["_decide_frobenius"]}
    for (cmd, ws, fmt), digest in DECIDER_STDOUT.items():
        calls.clear()
        code, out, err = run(capsys, cmd, {"kZ2": KZ2, "ut3": UT3}[ws], "E", "--format", fmt)
        assert (code, err) == (0 if ws == "kZ2" else 1, "")
        assert calls == solves[cmd], (cmd, ws, fmt)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (cmd, ws, fmt)


def test_cointegral_command(capsys):
    code, doc = run_json(capsys, "cointegral", KZ2, "E")
    assert code == 0
    assert doc["verdict"]["status"] == "FOUND"
    code, doc = run_json(capsys, "cointegral", UT3, "E")
    assert code == 1
    assert doc["verdict"]["certificate"] == "linear"


def test_cointegral_survives_reduction_mod_two(capsys):
    # the regular entwining of kZ2 keeps its cointegral in characteristic
    # 2; the 1-parameter family collapses to two exact solutions there
    code, doc = run_json(capsys, "cointegral", KZ2, "E", "--field", "prime:2")
    assert code == 0
    assert doc["field"] == {"kind": "prime", "p": 2}
    assert doc["verdict"]["status"] == "FOUND"
    assert doc["verdict"]["data"]["parameters"] == 1


def test_maschke_probe_command(capsys):
    code, doc = run_json(capsys, "maschke-probe", KZ2, "E")
    assert code == 0
    assert doc["cointegral_status"] == "FOUND"
    assert doc["report"]["data"]["applicable"] is True
    assert len(doc["report"]["checks"]) == 10

    code, doc = run_json(capsys, "maschke-probe", UT3, "E")
    assert code == 0
    assert doc["cointegral_status"] == "NONE"
    assert doc["report"]["data"]["applicable"] is False
    assert doc["report"]["checks"] == []


def test_input_errors_exit_three(capsys, tmp_path):
    for argv in (["bogus", KZ2, "E"],
                 [],
                 ["cointegral", str(tmp_path / "missing.json"), "E"],
                 ["cointegral", KZ2, "NOPE"],
                 ["cointegral", KZ2, "E", "--field", "prime:4"],
                 ["cointegral", KZ2, "E", "--field", "real"],
                 ["frobenius", KZ2, "E", "--budget", "-1"],
                 ["frobenius", KZ2, "E", "--budget", "20000"],
                 ["cotensor", KZ2, "I", "N"],
                 ["galois", KZ2, "E"]):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert err.startswith("error:")
        assert out == ""


def test_seed_recorded(capsys, monkeypatch):
    monkeypatch.delenv("SEED", raising=False)
    _, doc = run_json(capsys, "cointegral", KZ2, "E")
    assert doc["seed"] is None
    monkeypatch.setenv("SEED", "11")
    _, doc = run_json(capsys, "cointegral", KZ2, "E")
    assert doc["seed"] == 11
    _, doc = run_json(capsys, "cointegral", KZ2, "E", "--seed", "5")
    assert doc["seed"] == 5
    monkeypatch.setenv("SEED", "eleven")
    code, _, _ = run(capsys, "cointegral", KZ2, "E")
    assert code == 3


def test_text_format(capsys):
    code, out, _ = run(capsys, "separability", KZ2, "E", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert 'command: "separability"' in lines
    assert 'verdicts.co_f.status: "FOUND"' in lines


def test_reports_are_deterministic(capsys):
    suite = [("check", KZ2), ("galois", KZ2, "G"), ("measuring", KZ2, "I"),
             ("cotensor", KZ2, "I", "M"), ("hattensor", KZ2, "I", "M"),
             ("cohom", KZ2, "I", "N"), ("homtilde", KZ2, "I", "N"),
             ("separability", KZ2, "E"), ("frobenius", KZ2, "E"),
             ("cointegral", KZ2, "E"), ("maschke-probe", KZ2, "E"),
             ("frobenius", UT3, "E"), ("separability", UT3, "E")]

    def sweep():
        chunks = []
        for argv in suite:
            code, out, _ = run(capsys, *argv, "--format", "json")
            chunks.append("%d %s" % (code, out))
        return "".join(chunks)

    assert sweep() == sweep()


def test_main_builds_no_garbage_and_repeats_itself(capsys):
    argv = ("frobenius", KZ2, "E", "--format", "json")
    run(capsys, *argv)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _, first, _ = run(capsys, *argv)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    _, second, _ = run(capsys, *argv)
    assert first == second
    code, out, err = run(capsys, "frobenius", KZ2)
    assert (code, out) == (3, "") and err.startswith("error: entwine frobenius:")
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: entwine")


@pytest.mark.parametrize("doc, where, built", [
    ({"algebras": {"A": {"dim": 17, "unit": [1] * 17}}}, "algebras.A.mult", 0),
    ({"coalgebras": {"C": {"dim": 17, "counit": [1] * 17}}}, "coalgebras.C.comult", 0),
    ({"algebras": {"A": {"dim": 9}}, "coalgebras": {"C": {"dim": 8}},
      "entwinings": {"E": {"algebra": "A", "coalgebra": "C"}}}, "entwinings.E.psi", 4),
    ({"algebras": {"A": {"dim": 1}}, "coalgebras": {"C": {"dim": 1}},
      "entwinings": {"E": {"algebra": "A", "coalgebra": "C"}},
      "modules": {"M": {"entwining": "E", "dim": 65}}}, "modules.M.action", 5),
])
def test_oversized_input_is_refused_before_allocation(tmp_path, capsys, monkeypatch,
                                                      doc, where, built):
    # Only the `built` matrices of the valid objects before the oversized
    # map may be constructed, through either builder `cli` uses (`Mat` from
    # a dense tuple, `_from_flat` from nonzeros); any further one fails the
    # test.
    made = []

    def counted(real):
        def make(*args):
            made.append(args)
            assert len(made) <= built, "structure built before the size check"
            return real(*args)
        return make

    for builder in ("Mat", "_from_flat"):
        monkeypatch.setattr(cli, builder, counted(getattr(cli, builder)))
    p = tmp_path / "w.json"
    p.write_text(json.dumps(dict(doc, field={"kind": "rational"})))
    with pytest.raises(InputError, match="over the limit") as refused:
        parse_workspace(str(p))
    assert refused.value.where == where and len(made) == built
    made.clear()
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (3, "") and "over the limit" in err


def test_check_of_large_objects_stays_sparse(tmp_path, capsys):
    # A module and a contramodule of dim 1,024 over a zero-dimensional
    # algebra and coalgebra: their checks compose dim x dim identities,
    # which as sparse rows take about dim entries, not dim^2 (24 MiB).
    ent = {"entwining": "E", "dim": 1024}
    p = tmp_path / "w.json"
    p.write_text(json.dumps({
        "field": {"kind": "rational"}, "algebras": {"A": {"dim": 0}},
        "coalgebras": {"C": {"dim": 0}},
        "entwinings": {"E": {"algebra": "A", "coalgebra": "C"}},
        "modules": {"M": ent}, "contramodules": {"P": ent}}))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "check", str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The zero algebra's unit cannot act as the identity of a nonzero M.
    assert code == 1 and "unit" in out
    assert peak < 4 << 20, "check peaked at %.1f MiB" % (peak / 2**20)
