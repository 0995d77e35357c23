"""Workspace files and the command-line front end."""

import gc
import hashlib
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import entwine.cli as cli
from entwine.cli import (
    InputError, main, parse_workspace, serialize_workspace, workspace_as_dict,
)
from entwine.exactlin import Field, Mat
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

    def counted(module, name):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for module, name in ((criteria, "_decide_linear"), (cli, "decide_frobenius_co")):
        monkeypatch.setattr(module, name, counted(module, name))
    solves = {"separability": ["_decide_linear"] * 2, "frobenius": ["decide_frobenius_co"]}
    for (cmd, ws, fmt), digest in DECIDER_STDOUT.items():
        calls.clear()
        code, out, err = run(capsys, cmd, {"kZ2": KZ2, "ut3": UT3}[ws], "E", "--format", fmt)
        assert (code, err) == (0 if ws == "kZ2" else 1, "")
        assert calls == solves[cmd], (cmd, ws, fmt)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (cmd, ws, fmt)


# sha256 of the stdout of the other Q commands on kZ2, computed when the Q
# kernels still multiplied and eliminated Fractions entry by entry: the
# integer-numerator kernels leave every byte as it was.
Q_COMMAND_STDOUT = {
    (("check",), "json"):
        "2a71a45baa48712587773f472351425385e1beef1339d09a28d85abe8d459a1c",
    (("check",), "text"):
        "aac31348b8b585709e51703327770cf58eae954219cc899f07bac54c08e5e66d",
    (("measuring", "I"), "json"):
        "eaac142c63a0a77c65df5ba95f2fb3511de1406cf34b66b782a75ef820e67482",
    (("measuring", "I"), "text"):
        "8950aff231fcc57681857b0a0bfae7c708856bdf3534071a39286437c7f584af",
    (("galois", "G"), "json"):
        "b3358e35d158507d4d0ff3f4339a5fa05a3b847a726b9da880d1f376fc0e24f0",
    (("galois", "G"), "text"):
        "7d15dca01c9f489848d7055d0aa6a1d45ae9155654f7b4051583404d5645518d",
    (("cotensor", "I", "M"), "json"):
        "fcaed446968e78018762031a836890bb40fb6dbc423144b98ae166dc29152e55",
    (("cotensor", "I", "M"), "text"):
        "687c2e23ba2462f8b74220dbffa0583c32cc03cf5c0c681131a705998a2407ba",
    (("hattensor", "I", "M"), "json"):
        "946d3d3e941ddbdcb03eef645280fd34b9a2f76c6dd7430ca7e21ccc19e2a2af",
    (("hattensor", "I", "M"), "text"):
        "7abf27305016984c41aa127d7f6e3fd93d5b9c0515512b9c55eabb6933e28ef5",
    (("cointegral", "E"), "json"):
        "aa16e28e93de6147fb4e4577291f1aa1cd4441f39011504a8a329d7b4d2922c7",
    (("cointegral", "E"), "text"):
        "99d4fb6c2b25c543e3daa37ca975c40a0ad3314a39ddb830243a9045afd396c0",
    (("maschke-probe", "E"), "json"):
        "7ced50dc950cb23866c349b0da926ab72810ff034e844cc7b7ab17676b051a96",
    (("maschke-probe", "E"), "text"):
        "7943660ad2d5e032c158e1202f50239e227840b9c079eee08a06f093304d2f84",
}


@pytest.mark.parametrize("argv, fmt", list(Q_COMMAND_STDOUT))
def test_q_command_stdout_is_pinned(argv, fmt, capsys, monkeypatch):
    monkeypatch.delenv("SEED", raising=False)
    cmd, *names = argv
    code, out, err = run(capsys, cmd, KZ2, *names, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == Q_COMMAND_STDOUT[argv, fmt]


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


# tests/data/kZ2_tall.json is kZ2 in the basis d_i b_i of each space, the
# scales d below of height 2^64 and more.  An entry of a structure map is
# multiplied by the scales of its input legs and divided by those of its
# output legs; pi's coalgebra leg is the dual C*, whose scale is 1/d.
TALL = str(Path(__file__).parent / "data" / "kZ2_tall.json")
TALL_SCALES = {
    "A": (2**64 + 1, Fraction(-(2**61 - 1), 6)),
    "C": (Fraction(5, 7), 2**65 - 1),
    "M": (Fraction(1, 3), 2**64 + 3),
    "N": (2**64 + 13, 3, Fraction(-7, 2**66 + 1), 1),
    "V": (-2, Fraction(2**67 + 5, 11)),
}
# (table, object, map): (space, +1 input leg or -1 output or dual leg), per
# file leg.
TALL_LEGS = {
    ("algebras", "A", "mult"): (("A", 1), ("A", 1), ("A", -1)),
    ("algebras", "A", "unit"): (("A", -1),),
    ("coalgebras", "C", "comult"): (("C", 1), ("C", -1), ("C", -1)),
    ("coalgebras", "C", "counit"): (("C", 1),),
    ("entwinings", "E", "psi"): (("C", 1), ("A", 1), ("A", -1), ("C", -1)),
    ("modules", "M", "action"): (("M", 1), ("A", 1), ("M", -1)),
    ("modules", "M", "coaction"): (("M", 1), ("M", -1), ("C", -1)),
    ("contramodules", "N", "pi"): (("N", 1), ("C", -1), ("N", -1)),
    ("contramodules", "N", "action"): (("A", 1), ("N", 1), ("N", -1)),
    ("comodules", "V", "coaction"): (("V", 1), ("V", -1), ("C", -1)),
    ("measurings", "I", "alpha"): (("C", 1), ("A", 1), ("A", -1)),
    ("measurings", "I", "gamma"): (("C", 1), ("A", -1), ("C", -1)),
    ("galois", "G", "coaction"): (("A", 1), ("A", -1), ("C", -1)),
}


def tall_kz2() -> dict:
    """The file form of kZ2 moved to the scaled bases."""
    with open(KZ2, encoding="utf-8") as fh:
        doc = json.load(fh)

    def scaled(legs, idx, x):
        for (space, e), i in zip(legs, idx):
            x *= Fraction(TALL_SCALES[space][i]) ** e
        return str(x)

    for (table, name, key), legs in TALL_LEGS.items():
        obj = doc[table][name]
        if len(legs) == 1:
            obj[key] = [scaled(legs, [i], Fraction(x)) for i, x in enumerate(obj[key])]
        else:
            obj[key] = [e[:-1] + [scaled(legs, e[:-1], Fraction(e[-1]))] for e in obj[key]]
    return doc


def test_tall_kz2_file_is_kz2_in_a_scaled_basis(tmp_path):
    p = tmp_path / "tall.json"
    p.write_text(json.dumps(tall_kz2()))
    assert workspace_as_dict(parse_workspace(str(p))) == workspace_as_dict(parse_workspace(TALL))
    heights = [abs(Fraction(e[-1])) for e in tall_kz2()["algebras"]["A"]["mult"]]
    assert max(max(q.numerator, q.denominator) for q in heights) >= 2**64


def test_tall_kz2_decides_as_kz2(capsys):
    def outcome(path):
        code, doc = run_json(capsys, "check", path)
        out = [code, [(r["kind"], r["subject"], r["report"]["passed"],
                       [(c["name"], c["passed"]) for c in r["report"]["checks"]])
                      for r in doc["reports"]]]
        for cmd in ("separability", "frobenius"):
            code, doc = run_json(capsys, cmd, path, "E")
            out.append((cmd, code, {k: v["status"] for k, v in doc["verdicts"].items()}))
        code, doc = run_json(capsys, "cointegral", path, "E")
        out.append(("cointegral", code, doc["verdict"]["status"]))
        code, doc = run_json(capsys, "maschke-probe", path, "E")
        out.append(("maschke-probe", code, doc["cointegral_status"],
                    doc["report"]["passed"], doc["report"]["data"]["applicable"]))
        code, doc = run_json(capsys, "galois", path, "G")
        out.append(("galois", code, doc["galois"]))
        return out

    want = outcome(KZ2)
    assert want[0] == 0 and all(r[2] for r in want[1])
    assert outcome(TALL) == want


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
    # map may be constructed, through either builder of `Mat` (`Mat` from
    # a dense tuple, `Mat._of` from sparse rows); any further one fails the
    # test.
    made = []

    def counted(real):
        def make(*args):
            made.append(args)
            assert len(made) <= built, "structure built before the size check"
            return real(*args)
        return make

    monkeypatch.setattr(Mat, "__init__", counted(Mat.__init__))
    monkeypatch.setattr(Mat, "_of", staticmethod(counted(Mat._of)))
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
