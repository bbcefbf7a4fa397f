import csv
import io
import json
from fractions import Fraction

from treasurehunt.cli import main

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_multi(capsys):
    code, out, _ = run_cli(capsys, "value", "--variant", "multi", "-n", "6", "-d", "3", "-k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"num": 1, "den": 7}
    assert doc["method"] == "closed-form"


def test_value_single_certified(capsys):
    code, out, _ = run_cli(capsys, "value", "--variant", "single", "-n", "4", "-d", "2", "-k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"num": 2, "den": 3}
    assert doc["tight"] is True


def test_value_capped_by_all_in_one(capsys):
    code, out, _ = run_cli(capsys, "value", "--variant", "multi", "-n", "3", "-d", "3", "-k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["details"]["formula"] == {"num": 4, "den": 5}
    assert doc["details"]["all_in_one_cap"] == {"num": 2, "den": 3}
    assert doc["value"] == {"num": 2, "den": 3}
    assert any("formula-not-tight" in note for note in doc["notes"])


def test_value_usage_error(capsys):
    code, _, _ = run_cli(capsys, "value", "-n", "3", "-d", "2", "-k", "9")
    assert code == 2


def test_ptable_success(capsys):
    code, out, _ = run_cli(capsys, "ptable", "-n", "9", "-d", "3", "-k", "2")
    assert code == 0
    doc = json.loads(out)
    entries = {tuple(e["diagram"]): e["p"] for e in doc["entries"]}
    assert entries[(1,)] == {"num": 54, "den": 55}
    assert entries[(2,)] == {"num": 2, "den": 9}
    assert entries[(1, 1)] == {"num": 0, "den": 1}


def test_ptable_exceeds_unit_exit_3(capsys):
    code, out, _ = run_cli(capsys, "ptable", "-n", "6", "-d", "3", "-k", "2")
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "exceeds-unit"
    assert doc["diagram"] == [1]
    assert F(doc["p"]["num"], doc["p"]["den"]) == F(36, 28)


def test_ptable_min_valid_n(capsys):
    code, out, _ = run_cli(capsys, "ptable", "--min-valid-n", "-d", "2", "-k", "2")
    assert code == 0
    assert json.loads(out)["min_valid_n"] == 4


def test_certify_scaled_tight(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--variant", "multi", "-n", "9", "-d", "3", "-k", "2",
        "--searcher", "ptable-scaled",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"num": 8, "den": 165}
    assert doc["tight"] is True


def test_certify_custom_table_file(capsys, tmp_path):
    table = {
        "n": 5, "d": 3, "k": 2,
        "entries": [
            {"diagram": [1], "p": 1},
            {"diagram": [2], "p": {"num": 4, "den": 7}},
            {"diagram": [1, 1], "p": {"num": 6, "den": 7}},
        ],
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, _ = run_cli(
        capsys, "certify", "--variant", "multi", "-n", "5", "-d", "3", "-k", "2",
        "--searcher", "ptable-file", "--ptable-file", str(path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"num": 8, "den": 35}
    assert doc["tight"] is True


def test_certify_fresh_single(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--variant", "single", "-n", "4", "-d", "2", "-k", "2",
        "--searcher", "fresh-k",
    )
    assert code == 0
    assert json.loads(out)["value"] == {"num": 2, "den": 3}


def test_certify_not_tight_exit_4(capsys):
    # Fresh-door play in the multi game wastes mass on repeat hideouts.
    code, out, _ = run_cli(
        capsys, "certify", "--variant", "multi", "-n", "6", "-d", "2", "-k", "2",
        "--searcher", "fresh-k",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["tight"] is False


def test_certify_invalid_table_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "certify", "--variant", "multi", "-n", "6", "-d", "3", "-k", "2",
        "--searcher", "ptable-scaled",
    )
    assert code == 3
    assert "1" in err


def test_lp_value_and_certificate(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "lp", "--variant", "multi", "-n", "3", "-d", "2", "-k", "2",
        "--emit-certificate", str(cert),
    )
    assert code == 0
    assert json.loads(out)["value"] == {"num": 2, "den": 3}
    doc = json.loads(cert.read_text())
    assert doc["realization_plan"]
    assert len(doc["per_allocation"]) == 6
    for entry in doc["per_allocation"]:
        assert F(entry["value"]["num"], entry["value"]["den"]) == F(2, 3)


def test_lp_budget_exit_5(capsys):
    code, _, _ = run_cli(
        capsys, "lp", "--variant", "multi", "-n", "4", "-d", "3", "-k", "2",
        "--node-budget", "3",
    )
    assert code == 5


def test_simulate_with_check(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--variant", "multi", "-n", "4", "-d", "2", "-k", "2",
        "--searcher", "ptable-scaled", "--hider", "uniform",
        "--trials", "20000", "--seed", "7", "--check-exact",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["check"]["exact"] == {"num": 2, "den": 5}
    assert doc["check"]["passed"] is True
    assert doc["trials"] == 20000


def test_simulate_zero_trials_exit_2(capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "-n", "4", "-d", "2", "-k", "2", "--trials", "0",
    )
    assert code == 2


def test_simulate_adversarial_exit_2(capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "-n", "4", "-d", "2", "-k", "2",
        "--reveal", "adversarial", "--trials", "10",
    )
    assert code == 2


def test_reveal_only_on_simulate(capsys):
    # lp values the adversarial game, so a chance rule there is a usage error.
    code, out, _ = run_cli(capsys, "lp", "-n", "3", "-d", "3", "-k", "2", "--reveal", "lowest")
    assert code == 2 and out == ""


def test_node_budget_only_where_read(capsys):
    code, out, _ = run_cli(capsys, "value", "-n", "6", "-d", "3", "-k", "2", "--node-budget", "10")
    assert code == 2 and out == ""


def test_simulate_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "-n", "4", "-d", "2", "-k", "2",
        "--trials", "100", "--seed", "1", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["n", "d", "k", "variant"]
    assert rows[1][0] == "4"


def test_sweep_lp_nonincreasing(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "n", "--start", "2", "--stop", "4",
        "--variant", "multi", "-d", "2", "-k", "1", "--method", "lp",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:5] == ["n", "d", "k", "variant", "method"]
    values = [F(int(r[5]), int(r[6])) for r in rows[1:]]
    assert values == [F(1, 3), F(1, 6), F(1, 10)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_sweep_k_nondecreasing_single(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "k", "--start", "1", "--stop", "2",
        "--variant", "single", "-n", "4", "-d", "2", "--method", "lp",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    values = [F(int(r[5]), int(r[6])) for r in rows[1:]]
    assert values[0] <= values[1]


def test_sweep_empty_range(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "n", "--start", "5", "--stop", "4",
        "--variant", "multi", "-d", "2", "-k", "1",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1  # header only


def test_sweep_records_errors_and_continues(capsys):
    # k=2 needs two doors, so the n=1 row carries an error message.
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "n", "--start", "1", "--stop", "3",
        "--variant", "multi", "-d", "2", "-k", "2", "--method", "value",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][-1] != ""
    assert rows[2][-1] == "" and rows[3][-1] == ""


def test_out_file(tmp_path, capsys):
    path = tmp_path / "value.json"
    code, out, _ = run_cli(
        capsys, "value", "-n", "9", "-d", "3", "-k", "2", "--out", str(path),
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["value"] == {"num": 8, "den": 165}


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "value", "-n", "6", "-d", "3", "-k", "2", "--format", "text",
    )
    assert code == 0
    assert "1/7" in out


def test_missing_subcommand_exit_2(capsys):
    assert main([]) == 2
