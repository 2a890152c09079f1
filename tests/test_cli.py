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


def test_tables_counts(capsys):
    code, out = run(capsys, "tables", "--b", "10000", "--dmax", "4")
    assert code == 0
    assert out.splitlines() == ["d,K,K_plus_Cstar", "2,1,1", "3,3,3", "4,6,5"]


def test_tables_validity_gate(capsys):
    code = main(["tables", "--b", "2", "--d", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "outside validity domain" in err


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
