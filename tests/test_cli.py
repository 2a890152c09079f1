import argparse
import hashlib
import importlib
import json
import shlex
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from kisindim import bounds as bd, cli, solver as sv
from kisindim.cli import build_parser, main
from kisindim.kisin_model import KisinInstance
from oracles import clear_caches, encode, fraction_cells, fraction_constructions


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dim_mu_exact(capsys):
    code, out = run(capsys, "dim", "--d", "2", "--b", "2", "--mu", "3,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "exact" and payload["dim"] == 1


def test_dim_mu_empty(capsys):
    code, out = run(capsys, "dim", "--d", "2", "--b", "3", "--mu", "3,0")
    assert code == 0
    assert json.loads(out)["status"] == "empty"


def test_dim_d1(capsys):
    code, out = run(capsys, "dim", "--d", "1", "--b", "5", "--mu", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "exact" and payload["dim"] == 0


def test_dim_h0_interval(capsys):
    code, out = run(capsys, "dim", "--d", "2", "--b", "2", "--mu", "3,0", "--h0")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "interval" and payload["dim"] == [1, 2]


def test_dim_budget_refusal_exit_2(capsys):
    code = main(["dim", "--d", "4", "--b", "2", "--e", "12", "--budget", "10"])
    assert code == 2


def test_dim_invalid_input_exit_1(capsys):
    code = main(["dim", "--d", "2", "--b", "2", "--mu", "0,3"])
    assert code == 1
    # d = 5 is searched, not refused as invalid: only the budget refuses it
    code = main(["dim", "--d", "5", "--b", "2", "--e", "20", "--budget", "10"])
    assert code == 2


@pytest.mark.parametrize("command", ("dim", "bounds", "witness"))
def test_mu_with_e_is_invalid_input(capsys, command):
    # --mu and --e name different queries; no command may pick one silently
    assert main([command, "--d", "2", "--b", "2", "--mu", "3,0", "--e", "3"]) == 1
    assert main([command, "--d", "2", "--b", "2"]) == 1
    assert "exactly one of --mu and --e" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("dim", "bounds"))
def test_le_mu_without_mu_is_invalid_input(capsys, command):
    # --le-mu qualifies --mu; with --e it must not answer the le_e query
    assert main([command, "--d", "3", "--b", "2", "--e", "3", "--le-mu"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--le-mu needs --mu" in captured.err


@pytest.mark.parametrize("argv", (
    ["bounds", "--d", "2", "--b", "2", "--mu", "3"],
    ["bounds", "--d", "3", "--b", "2", "--mu", "3,0"],
    ["dim", "--d", "2", "--b", "2", "--mu", "3"],
))
def test_mu_of_the_wrong_length_is_invalid_input(capsys, argv):
    # one message for dim, bounds and witness, not a mismatch from deep
    # inside the bounds
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: mu must have d entries\n"


def test_negative_budget_is_invalid_input(capsys):
    for budget in ("-1", "-5"):
        assert main(["dim", "--d", "2", "--b", "2", "--e", "3", "--budget", budget]) == 1
    assert "budget must be >= 0" in capsys.readouterr().err
    # the one listed top costs the one node
    assert main(["dim", "--d", "1", "--b", "2", "--e", "0", "--budget", "1"]) == 0


def test_verify_budget_refusal_exit_2(capsys):
    # a search the budget cuts short is refused, as by dim, not a failed check
    assert main(["verify", "--budget", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget refusal: ")


VERIFY_GOLDEN = ("PASS  solver consistency suite\n"
                 "PASS  witness postconditions\n"
                 "PASS  extremal points of the Q_max A-set\n"
                 "PASS  order diagram size\n")


@pytest.mark.parametrize("seed", ("0", "3"))
def test_verify_prints_its_four_suites(capsys, seed):
    # every suite of verify, by name and in order: a suite dropped or
    # renamed changes this stdout
    assert run(capsys, "verify", "--seed", seed) == (0, VERIFY_GOLDEN)


def test_verify_negative_budget_is_invalid_input(capsys):
    # rejected before any suite runs
    assert main(["verify", "--budget", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: the node budget must be >= 0\n"


def test_tables_counts(capsys):
    code, out = run(capsys, "tables", "--b", "10000", "--dmax", "4")
    assert code == 0
    assert out.splitlines() == ["d,K,K_plus_Cstar", "2,1,1", "3,3,3", "4,6,5"]


def test_tables_validity_gate(capsys):
    code = main(["tables", "--b", "2", "--d", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "outside validity domain" in err


def test_tables_bad_b_reads_like_every_other_command(capsys):
    # b < 2 is not a point outside some table's validity domain
    for argv in (["tables", "--d", "3", "--b", "-2"], ["tables", "--dmax", "3", "--b", "1"],
                 ["bounds", "--d", "3", "--b", "-2", "--e", "1"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: b must be >= 2\n"


def test_tables_dmax_validity_gate(capsys):
    # every d in 2..dmax is checked: d = 4 needs b >= 3 and d = 5 needs b >= 6
    for b, dmax, bad in ((2, 5, 4), (2, 4, 4), (5, 5, 5)):
        assert main(["tables", "--b", str(b), "--dmax", str(dmax)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the d={bad} vertex table needs b >=" in captured.err
    assert main(["tables", "--b", "2", "--dmax", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["d,K,K_plus_Cstar", "2,1,1", "3,3,3"]


def test_tables_d_with_dmax_is_invalid_input(capsys):
    # --d names one coordinate table and --dmax a count table; neither may
    # be dropped silently
    for argv in (("--d", "3", "--dmax", "4"), ()):
        assert main(["tables", "--b", "10000", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input: tables needs exactly one of --d and --dmax" in captured.err


@pytest.mark.parametrize("dmax", ("1", "0", "-3"))
def test_tables_dmax_below_two_is_invalid_input(capsys, dmax):
    # the count table starts at d = 2; a smaller --dmax would print a bare header
    assert main(["tables", "--b", "2", "--dmax", dmax]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input: tables --dmax must be >= 2" in captured.err


def test_tables_dmax_with_format_json_is_invalid_input(capsys):
    # the count table is CSV only, so --dmax would ignore --format json
    assert main(["tables", "--dmax", "3", "--b", "10", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid input: tables --dmax prints a CSV count table; "
                            "--format json needs --d\n")
    assert main(["tables", "--dmax", "3", "--b", "10", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "d,K,K_plus_Cstar\n2,1,1\n3,3,3\n"


def test_tables_coordinates(capsys):
    code, out = run(capsys, "tables", "--b", "7", "--d", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "polytope,y1,y2"
    assert "K+C*,1/8,-1/8" in lines


# sha256 of the CSV coordinate tables at b = 10000 past the benchmark's
# d <= 8 (450 and 830 lines), as recorded before K was built from
# closed-form rows
TABLE_DIGESTS = {9: "6803e284e74f002fda8576c7f98ef44694fa75db1482adb30ec0dd5f843bdfb1",
                 10: "76a24f3ce5504d54443692ab437a8607f7a6203657123d6f7e6721aec4f4e3ff"}


@pytest.mark.parametrize("d", sorted(TABLE_DIGESTS))
def test_tables_coordinates_past_the_benchmark_are_pinned(capsys, d):
    code, out = run(capsys, "tables", "--b", "10000", "--d", str(d))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[d]


# sha256 of the JSON tables past d = 8 and of the d = 1 table, where Reg*
# has no generator, as recorded before the vertices were kept as integer rows
PINNED_DIGESTS = {
    "tables --b 10000 --d 9 --format json":
        "679406cd1aa6c0425189d73465953d2f81bb1c35a8beade3d8c83a5c338d3011",
    "tables --b 10000 --d 10 --format json":
        "e697a9b9b5972a10925aec6aed44242e3da23a19006f301572f8314b2a2d7bfb",
    "tables --b 7 --d 1": "4d1703c3a91631adf94c4df55951a36a743d363cce8e7c5aff3a3ec26e23ae2a",
}


@pytest.mark.parametrize("command", sorted(PINNED_DIGESTS))
def test_tables_json_and_d1_are_pinned(capsys, command):
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[command]
    if command.endswith("--d 1"):
        assert out == "polytope,y1\nK,0\nK+C*,0\n"


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_tables_build_no_fraction(capsys, fmt):
    # the tables run on integer rows from the facets to stdout; the
    # counter itself sees a Fraction built inside main
    assert fraction_constructions(lambda: Fraction(1, 3)) == 1
    for d in range(2, 9):
        b = "7" if d <= 5 else "10000"
        argv = ["tables", "--b", b, "--d", str(d), "--format", fmt]
        assert fraction_constructions(lambda: main(argv)) == 0, argv
        assert capsys.readouterr().out
    assert fraction_constructions(lambda: main(["tables", "--b", "10000", "--dmax", "8"])) == 0


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tables_benchmark_pool_matches_its_recorded_digests(capsys, monkeypatch):
    # every request a pass of the `tables` benchmark can draw (25 (d, b)
    # pairs, csv and json) against the stdout digests the benchmark checks;
    # one seeded pass draws only one format per pair
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    pool = wl.pool("tables")
    assert len(pool) == 50
    for argv in pool:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == expected[wl.key(argv)], argv


def test_dim_requests_build_one_witness_triangle(capsys, monkeypatch):
    # the search keeps its incumbent as integer rows and its witness is an
    # integer triangle, printed from its numerators: a request builds at
    # most one Fraction, the value of dim(phi), with every cache cold and
    # then warm.  A witness request reads two cells of its mu-triangle and
    # dim(phi)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    pool = [argv for argv in wl.pool("mixed-session") if argv[0] == "dim"]
    pool.append(["dim", "--d", "4", "--b", "2", "--e", "20"])
    witness = ["witness", "--d", "4", "--b", "3", "--e", "13"]
    for cold in (True, False):
        for argv in pool:
            d = int(argv[argv.index("--d") + 1])
            if cold:
                clear_caches()
            assert fraction_constructions(lambda: main(argv)) <= 1, argv
            assert json.loads(capsys.readouterr().out)["query"]["d"] == d
        if cold:
            clear_caches()
        assert fraction_constructions(lambda: main(witness)) == 3
        assert json.loads(capsys.readouterr().out)["report"]["ok"]


# the bounds, witness and dim requests of the `mixed-session` pool, by group
MIXED_GROUPS = {"bounds": 348, "bounds --le-mu": 192, "witness": 124, "dim": 120}


@pytest.mark.parametrize("group", sorted(MIXED_GROUPS))
def test_bounds_witness_and_dim_of_the_benchmark_pool_match_their_recorded_digests(
        capsys, monkeypatch, group):
    # every request of the group that a pass of the `mixed-session`
    # benchmark can draw against the stdout digests the benchmark checks
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    pool = [argv for argv in wl.pool("mixed-session")
            if argv[0] + (" --le-mu" if "--le-mu" in argv else "") == group]
    assert len(pool) == MIXED_GROUPS[group]
    for argv in pool:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == expected[wl.key(argv)], argv


def test_bounds_le_mu_decides_regularity_once(capsys, monkeypatch):
    # the flags the CLI decides are handed to the witness: one regularity
    # call per `bounds --le-mu` request of the `mixed-session` pool, witness
    # or not, and the stdout the benchmark checks
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    calls = []
    regularity = bd.regularity
    monkeypatch.setattr(bd, "regularity", lambda *args: calls.append(args) or regularity(*args))
    pool = [argv for argv in wl.pool("mixed-session") if argv[0] == "bounds" and "--le-mu" in argv]
    witnesses = 0
    for argv in pool:
        calls.clear()
        code, out = run(capsys, *argv)
        assert (code, len(calls)) == (0, 1), argv
        assert hashlib.sha256(out.encode()).hexdigest() == expected[wl.key(argv)], argv
        witnesses += "le_mu" in json.loads(out)["witnesses"]
    assert (len(pool), witnesses) == (MIXED_GROUPS["bounds --le-mu"], 40)


def test_bounds_report(capsys):
    code, out = run(capsys, "bounds", "--d", "2", "--b", "2", "--e", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == 1 and payload["upper"] == "1"
    assert payload["witnesses"]["le_e"]["ok"]


BOUNDS_BELOW_MU = """{
  "details": {
    "empty": false,
    "lower_sup_relaxed": true,
    "upper_strong": "64/7"
  },
  "lower": "137/28",
  "params": {
    "mu": [
      30,
      2,
      0
    ]
  },
  "target": "le_mu",
  "upper": "10",
  "witnesses": {}
}
"""


def test_bounds_le_mu_with_a_dominance_sup_below_mu_is_pinned(capsys):
    # the dominance sup is 384/7 < <2 rho | mu> = 60: a double description
    # value no `bounds --le-mu` request of the benchmark reaches
    inst = KisinInstance(3, 5)
    assert bd._dominated_sup((30, 2, 0), inst, True) == Fraction(384, 7)
    assert run(capsys, "bounds", "--d", "3", "--b", "5", "--mu", "30,2,0", "--le-mu") == (
        0, BOUNDS_BELOW_MU)


def test_witness_command(capsys):
    code, out = run(capsys, "witness", "--d", "2", "--b", "2", "--e", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["ok"]
    assert payload["q"]["q"]["1,1"] == "2"


def _report_payloads():
    """Payloads that nest Fractions in dicts, lists and tuples: made up
    ones and the witness and bounds reports the commands print."""
    inst = KisinInstance(3, 2)
    q, report = bd.witness_le_mu(inst, (12, 5, 0))
    yield {"q": fraction_cells(q), "report": report}
    yield bd.theorem_bounds("le_mu", (12, 5, 0), inst)
    yield bd.theorem_bounds("le_e", 9, KisinInstance(4, 3, True))
    yield {"z": [Fraction(1, 2), (Fraction(-7, 3), 0, None)], "a": {"b": (True, Fraction(6, 4))},
           "c": [[], {}, (), "1/2", -1.5, Fraction(10 ** 30, 7)]}
    yield (Fraction(-1), [Fraction(0)])
    yield Fraction(4, 6)


@pytest.mark.parametrize("payload", list(_report_payloads()))
def test_json_hook_prints_what_the_encode_walk_prints(payload):
    # byte for byte the output of walking the payload first and replacing
    # each Fraction by its "p/q" string
    assert cli._json_dumps(payload) == json.dumps(encode(payload), sort_keys=True,
                                                  indent=2) + "\n"


@pytest.mark.parametrize("obj", (1.5, Decimal("1.5"), 1 + 2j, {1, 2}, object()))
def test_json_hook_refuses_everything_but_a_fraction(obj):
    # json encodes a float itself; the hook, which json calls for what it
    # cannot encode, prints only a Fraction as p/q
    with pytest.raises(TypeError):
        cli._fraction_str(obj)
    if not isinstance(obj, float):
        with pytest.raises(TypeError):
            cli._json_dumps({"x": [obj]})


def test_hasse_d4_node_count(capsys):
    code, out = run(capsys, "hasse", "--d", "4")
    assert code == 0
    assert out.count(";") - out.count("->") == 24


@pytest.mark.parametrize("d", ("0", "-2"))
def test_hasse_rejects_d_below_one(capsys, d):
    assert main(["hasse", "--d", d]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d must be >= 1" in captured.err


@pytest.mark.parametrize("d", ("7", "12"))
def test_hasse_refuses_d_of_seven_and_more(capsys, d):
    # every pair of S_d is compared: S_7 alone would take hours
    assert main(["hasse", "--d", d]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid input: d must be <= 6: S_{d} has ")


def test_d2_oracle(capsys):
    code, out = run(capsys, "d2-oracle", "--b", "2", "--alpha", "2",
                    "--gamma", "0", "--delta", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu1"] == 5 and payload["mu2"] == -2
    assert payload["valid_profile"]


def test_d2_oracle_invalid_parameters(capsys):
    code = main(["d2-oracle", "--b", "2", "--alpha", "1", "--gamma", "0",
                 "--delta", "2"])
    assert code == 1


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "dim", "--d", "3", "--b", "2", "--mu", "4,2,0")
    _, out2 = run(capsys, "dim", "--d", "3", "--b", "2", "--mu", "4,2,0")
    assert out1 == out2
    _, t1 = run(capsys, "tables", "--b", "17", "--d", "3")
    _, t2 = run(capsys, "tables", "--b", "17", "--d", "3")
    assert t1 == t2


def test_out_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["dim", "--d", "2", "--b", "2", "--mu", "3,0",
                 "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["dim"] == 1
    # no stray temporary files
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_out_into_missing_directory_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code = main(["dim", "--d", "2", "--b", "2", "--mu", "3,0", "--out", str(target)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"cannot write {target}" in err
    assert list(tmp_path.iterdir()) == []


def test_failed_out_write_leaves_no_partial_file(tmp_path, capsys):
    # the final rename fails (the target is a directory): the temporary file
    # written beside it is removed and the directory is left as it was
    target = tmp_path / "taken"
    target.mkdir()
    code = main(["dim", "--d", "2", "--b", "2", "--mu", "3,0", "--out", str(target)])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


def test_failed_stdout_write_names_stdout(capsys, monkeypatch):
    # with no --out the message names stdout, as in `hasse --d 2 > /dev/full`
    class Full:
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["hasse", "--d", "2"]) == 1
    assert capsys.readouterr().err == "cannot write stdout: No space left on device\n"


def test_budget_is_deterministic_cold_and_warm(capsys):
    # the search keeps nothing between queries, so the same query spends the
    # same budget on its first and its second run, and a refusal does not
    # depend on what ran before
    queries = [sv.DimQuery(KisinInstance(4, 2), "le_e", e=8),
               sv.DimQuery(KisinInstance(3, 3), "le_mu", mu=(9, 4, 1)),
               sv.DimQuery(KisinInstance(4, 3, True), "mu", mu=(6, 2, 2, 0))]
    first = [sv.dim_exact(q) for q in queries]
    for q, r in zip(queries, first):
        again = sv.dim_exact(q)
        assert r.nodes == again.nodes > 0
        assert r.to_dict() == again.to_dict()
        # the budget is exact: r.nodes answers, one node fewer refuses
        sv.dim_exact(q, budget=r.nodes)
        with pytest.raises(sv.BudgetExceeded):
            sv.dim_exact(q, budget=r.nodes - 1)
    argv = ["dim", "--d", "4", "--b", "2", "--e", "8", "--budget"]
    for budget, code in ((first[0].nodes, 0), (first[0].nodes - 1, 2)):
        assert main(argv + [str(budget)]) == code
        assert main(argv + [str(budget)]) == code
    capsys.readouterr()


@pytest.mark.parametrize("argv", (
    ["dim", "--d", "2", "--b", "x", "--e", "3"],  # not an integer
    ["dim", "--d", "2", "--e", "3"],  # a required flag is missing
    ["tables", "--d", "3"],
    ["frobnicate"],  # no such command
    [],
))
def test_malformed_command_line_is_invalid_input(capsys, argv):
    # exit 2 means a budget refusal, so argparse must not use it
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")


ONE_PARSER_ARGVS = (
    ["dim", "--d", "3", "--b", "2", "--e", "9", "--budget", "100"],
    ["dim", "--d", "3", "--b", "2", "--mu", "4,2,0", "--le-mu", "--h0"],
    ["bounds", "--d", "2", "--b", "2", "--e", "3"],
    ["tables", "--b", "7", "--d", "5", "--format", "json"],
    ["tables", "--b", "10000", "--dmax", "10"],
    ["witness", "--d", "4", "--b", "3", "--mu", "9,5,1,0", "--out", "w.json"],
    ["hasse", "--d", "4", "--out", "order.dot"],
    ["verify", "--seed", "3"],
    ["d2-oracle", "--b", "2", "--alpha", "2", "--gamma", "0", "--delta", "1"])


def test_one_parser_serves_many_requests():
    # a parser reused across requests, through a malformed command line,
    # parses each as a fresh one does
    parser = build_parser()
    for argv in ONE_PARSER_ARGVS:
        assert parser.parse_args(argv) == build_parser().parse_args(argv), argv
    with pytest.raises(ValueError):
        parser.parse_args(["dim", "--d", "2", "--b", "x", "--e", "3"])
    for argv in ONE_PARSER_ARGVS:
        assert parser.parse_args(argv) == build_parser().parse_args(argv), argv


README_CLI_LINES = [
    shlex.split(line.split("#")[0])[1:]
    for line in (PERFBENCH.parent / "README.md").read_text().split("## CLI", 1)[1]
    .split("\n## ", 1)[0].splitlines() if line.startswith("kisindim ")]


def test_the_readme_cli_lines_are_found():
    assert len(README_CLI_LINES) == 14
    assert {argv[0] for argv in README_CLI_LINES} == set(cli._COMMANDS)


# spellings the requested command's parser must read as the full parser
# does: an attached value, abbreviations, a flag given twice, "--", a
# negative value, a second command name and the ambiguous "--h"
SPELLING_ARGVS = (
    ["dim", "--d=3", "--b", "2", "--e", "9"],
    ["dim", "--d", "3", "--b", "2", "--e", "9", "--budg", "100"],
    ["dim", "--d", "3", "--b", "2", "--mu", "4,2,0", "--le"],
    ["bounds", "--d", "2", "--b", "2", "--mu", "3,0", "--le", "--le-mu"],
    ["dim", "--d", "3", "--d", "2", "--b", "2", "--e", "3"],
    ["tables", "--b", "7", "--d", "3", "--format", "json", "--format", "csv"],
    ["dim", "--d", "2", "--b", "2", "--e", "-3"],
    ["dim", "--d", "2", "--b", "2", "--e", "3", "--"],
    ["dim", "--", "--d", "2", "--b", "2", "--e", "3"],
    ["dim", "--d", "2", "--b", "2", "--mu", "--", "--e", "3"],
    ["dim", "dim", "--d", "2", "--b", "2", "--e", "3"],
    ["dim", "--d", "2", "--b", "2", "--e", "3", "dim"],
    ["dim", "--d", "2", "--b", "2", "--e", "3", "--h"],
    ["witness", "--d", "2", "--b", "2", "--e", "3", "--le"],
)


def _parsed(parse, argv):
    """The namespace parse(argv) returns, or the message it raises."""
    try:
        return parse(argv)
    except ValueError as exc:
        return str(exc)


def test_a_request_parser_parses_as_the_full_parser():
    # main parses a request with its command's parser alone; on every
    # command line it returns the full parser's namespace or raises its error
    for argv in [*ONE_PARSER_ARGVS, *README_CLI_LINES, *SPELLING_ARGVS]:
        assert _parsed(cli._parse, argv) == _parsed(build_parser().parse_args, argv), argv
    assert sum(isinstance(_parsed(cli._parse, argv), str) for argv in SPELLING_ARGVS) == 7


# per command: a required flag missing, an unknown flag, a value of the
# wrong type (verify has no required flag, so its first case omits a value)
MALFORMED = {
    "dim": (["--b", "2", "--e", "3"], ["--d", "2", "--b", "2", "--e", "3", "--nosuch"],
            ["--d", "2", "--b", "2", "--e", "x"]),
    "bounds": (["--d", "2", "--e", "3"], ["--d", "2", "--b", "2", "--e", "3", "--dmax", "3"],
               ["--d", "two", "--b", "2", "--e", "3"]),
    "tables": (["--d", "3"], ["--b", "7", "--d", "3", "--seed", "1"],
               ["--b", "seven", "--d", "3"]),
    "witness": (["--d", "2", "--e", "3"],
                ["--d", "2", "--b", "2", "--e", "3", "--le-mu"],
                ["--d", "2", "--b", "1.5", "--e", "3"]),
    "hasse": ([], ["--d", "3", "--b", "2"], ["--d", "x"]),
    "verify": (["--seed"], ["--d", "3"], ["--budget", "many"]),
    "d2-oracle": (["--b", "2", "--alpha", "2", "--gamma", "0"],
                  ["--b", "2", "--alpha", "2", "--gamma", "0", "--delta", "1", "--d", "2"],
                  ["--b", "2", "--alpha", "2", "--gamma", "0", "--delta", "1/2"]),
}
TEXT_ARGVS = [["--help"], [], ["nosuch"], ["nosuch", "dim"], ["-1", "dim"],
              ["--nosuch", "tables", "--b", "7"],
              ["dim", "--d", "2", "--b", "2", "--e", "3", "extra"]] + [
    [command, *argv] for command, cases in MALFORMED.items()
    for argv in (["--help"], *cases)]


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), help included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _full_parser_outcome(capsys, argv):
    """(exit code, stdout, stderr) of build_parser().parse_args(argv), run
    as main runs a parsed line and reports an invalid one."""
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
    except SystemExit as exc:
        code = exc.code
    except ValueError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        code = 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", TEXT_ARGVS, ids=" ".join)
def test_help_and_error_text_match_the_full_parser(capsys, argv):
    own = _outcome(capsys, argv)
    assert own[0] in (0, 1) and (own[1] or own[2])
    assert _full_parser_outcome(capsys, argv) == own


def _counted(monkeypatch):
    """The lists that record each ArgumentParser built and each call of
    cli.build_parser from now on."""
    parsers, full = [], []
    init = argparse.ArgumentParser.__init__
    build = cli.build_parser
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: parsers.append(k.get("prog")) or init(self, *a, **k))
    monkeypatch.setattr(cli, "build_parser", lambda: full.append(1) or build())
    return parsers, full


# the lines of TEXT_ARGVS that name a command and leave a word over: an
# unknown flag is one (in d2-oracle, --d abbreviates --delta instead)
LEFT_OVER = [["dim", "--d", "2", "--b", "2", "--e", "3", "extra"]] + [
    [command, *cases[1]] for command, cases in MALFORMED.items() if command != "d2-oracle"]


@pytest.mark.parametrize("argv", TEXT_ARGVS, ids=" ".join)
def test_help_and_errors_come_from_the_full_parser(capsys, monkeypatch, argv):
    # the text is the full parser's (the test above), but a command's own
    # parser prints its help and raises its errors: the full parser builds
    # itself only for a line whose first word names no command, or which
    # leaves a word over
    _, full = _counted(monkeypatch)
    _outcome(capsys, argv)
    names_a_command = argv[:1] != [] and argv[0] in cli._COMMANDS
    assert full == ([] if names_a_command and argv not in LEFT_OVER else [1])
    assert all(line in TEXT_ARGVS for line in LEFT_OVER)


@pytest.mark.parametrize("command", sorted(MALFORMED))
def test_a_command_line_builds_the_arguments_of_its_command_only(monkeypatch, command):
    # a valid request builds one parser, its command's, and not the full one
    argv = next(argv for argv in ONE_PARSER_ARGVS if argv[0] == command)
    expected = build_parser().parse_args(argv)
    parsers, full = _counted(monkeypatch)
    assert cli._parse(argv) == expected
    assert parsers == [f"kisindim {command}"] and full == []


def test_a_dim_request_adds_arguments_to_dim_only(capsys, monkeypatch):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def recorded(self, *args, **kwargs):
        calls.append((self.prog, args))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recorded)
    assert main(["dim", "--d", "2", "--b", "2", "--mu", "3,0"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 1
    calls = [call for call in calls if call[1] != ("-h", "--help")]
    assert {prog for prog, _ in calls} == {"kisindim dim"}
    assert [args for _, args in calls] == [("--d",), ("--b",), ("--h0",), ("--format",),
                                           ("--out",), ("--budget",), ("--mu",), ("--e",),
                                           ("--le-mu",)]


@pytest.mark.parametrize("argv", (["tables", "--b", "7", "--d", "3"],
                                  ["hasse", "--d", "3"], ["nosuch"], []))
def test_main_reads_sys_argv_when_given_no_argv(capsys, monkeypatch, argv):
    # the console script and python -m kisindim.cli call main() with no
    # argv; it parses sys.argv[1:], with the full parser only when invalid
    expected = _outcome(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["kisindim", *argv])
    parsers, full = _counted(monkeypatch)
    assert _outcome(capsys, None) == expected
    valid = bool(argv) and argv[0] != "nosuch"
    assert expected[0] == (0 if valid else 1)
    if valid:
        assert (parsers, full) == ([f"kisindim {argv[0]}"], [])
    else:
        assert (parsers, full) == (["kisindim", *(f"kisindim {name}" for name in cli._COMMANDS)],
                                   [1])


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--help"])
    assert exc.value.code == 0
    assert "--budget" in capsys.readouterr().out


@pytest.mark.parametrize("argv", (
    ["dim", "--d", "2", "--b", "2", "--e", "3", "--format", "csv"],
    ["dim", "--d", "2", "--b", "2", "--e", "3", "--seed", "1"],
    ["bounds", "--d", "2", "--b", "2", "--e", "3", "--format", "dot"],
    ["bounds", "--d", "2", "--b", "2", "--e", "3", "--budget", "10"],
    ["bounds", "--d", "2", "--b", "2", "--e", "3", "--seed", "1"],
    ["witness", "--d", "2", "--b", "2", "--e", "3", "--format", "csv"],
    ["witness", "--d", "2", "--b", "2", "--e", "3", "--budget", "10"],
    ["witness", "--d", "2", "--b", "2", "--e", "3", "--seed", "1"],
))
def test_flags_a_command_would_ignore_are_invalid_input(capsys, argv):
    # these commands print JSON only and read no seed; bounds and witness
    # run no search, so a budget would bound nothing
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ("dim", "bounds", "witness"))
def test_format_json_is_the_default(capsys, command):
    argv = [command, "--d", "2", "--b", "2", "--e", "3"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == default
    json.loads(default)
