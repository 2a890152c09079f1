import json

import pytest

from kisindim import solver as sv
from kisindim.cli import main
from kisindim.kisin_model import KisinInstance


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
    code = main(["dim", "--d", "5", "--b", "2", "--mu", "1,1,1,1,1"])
    assert code == 1


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


def test_negative_budget_is_invalid_input(capsys):
    for budget in ("-1", "-5"):
        assert main(["dim", "--d", "2", "--b", "2", "--e", "3", "--budget", budget]) == 1
    assert "budget must be >= 0" in capsys.readouterr().err
    assert main(["dim", "--d", "1", "--b", "2", "--e", "0", "--budget", "0"]) == 0


def test_tables_counts(capsys):
    code, out = run(capsys, "tables", "--b", "10000", "--dmax", "4")
    assert code == 0
    assert out.splitlines() == ["d,K,K_plus_Cstar", "2,1,1", "3,3,3", "4,6,5"]


def test_tables_validity_gate(capsys):
    code = main(["tables", "--b", "2", "--d", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "outside validity domain" in err


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


def test_tables_coordinates(capsys):
    code, out = run(capsys, "tables", "--b", "7", "--d", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "polytope,y1,y2"
    assert "K+C*,1/8,-1/8" in lines


def test_bounds_report(capsys):
    code, out = run(capsys, "bounds", "--d", "2", "--b", "2", "--e", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == 1 and payload["upper"] == "1"
    assert payload["witnesses"]["le_e"]["ok"]


def test_witness_command(capsys):
    code, out = run(capsys, "witness", "--d", "2", "--b", "2", "--e", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["ok"]
    assert payload["q"]["q"]["1,1"] == "2"


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


def test_budget_is_deterministic_cold_and_warm(capsys, monkeypatch):
    # a memo hit charges the node cost of the search that filled it, so the
    # same query spends the same budget whether the memo is cold or warm,
    # and a refusal does not depend on cache warmth or on the environment
    monkeypatch.setenv("KISIN_DIM_THREADS", "2")
    monkeypatch.setattr(sv, "_memo", {})
    query = sv.DimQuery(KisinInstance(4, 2), "le_e", e=8)
    cold = sv.dim_exact(query)
    warm = sv.dim_exact(query)
    assert cold.nodes == warm.nodes > 0
    assert cold.to_dict() == warm.to_dict()
    argv = ["dim", "--d", "4", "--b", "2", "--e", "8", "--budget"]
    for budget, code in ((cold.nodes, 0), (cold.nodes - 1, 2)):
        sv._memo.clear()
        assert main(argv + [str(budget)]) == code  # cold memo
        assert main(argv + [str(budget)]) == code  # warm memo
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
