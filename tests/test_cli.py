import csv
import io
import json
from fractions import Fraction

import pytest

from treasurehunt.cli import main
from treasurehunt.staytables import scaled_stay_table

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


@pytest.mark.parametrize("flags, message", [
    pytest.param(("-n", "5", "-d", "2", "-k", "0"), "guess size k must satisfy 1 <= k <= n", id="k0"),
    pytest.param(("-n", "5", "-d", "0", "-k", "2"), "need at least one treasure", id="d0"),
    pytest.param(("-n", "-3", "-d", "1", "-k", "0"), "need at least one door", id="n-3"),
    pytest.param(("--min-valid-n", "-d", "2"), "--min-valid-n needs -d and -k", id="min-valid-n-without-k"),
    pytest.param(("-d", "2", "-k", "2"), "ptable needs -n, -d and -k", id="without-n"),
    # A table is printed, not played, so it has no never-staying special case.
    pytest.param(("--variant", "single", "-n", "4", "-d", "1", "-k", "2"),
                 "stay tables belong to the multi-occupancy game", id="single"),
    pytest.param(("--variant", "single", "--min-valid-n", "-d", "3", "-k", "2"),
                 "stay tables belong to the multi-occupancy game", id="min-valid-n-single"),
    pytest.param(("--min-valid-n", "-n", "4", "-d", "3", "-k", "2"),
                 "-n conflicts with --min-valid-n; drop the flag", id="min-valid-n-with-n"),
])
def test_ptable_invalid_game_exit_2(capsys, flags, message):
    code, out, err = run_cli(capsys, "ptable", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("n, d, k, value", [
    (50, 5, 3, F(9, 117130)),
    (42, 4, 4, F(256, 148995)),
    (60, 4, 3, F(9, 66185)),
])
def test_certify_scaled_tight_at_large_sizes(capsys, n, d, k, value):
    # Scored by guess orbits, each certifies in hundredths of a second; the
    # scaled table walked up to C(n, k) guesses per position before.
    code, out, _ = run_cli(capsys, "certify", "-n", str(n), "-d", str(d), "-k", str(k))
    assert code == 0
    doc = json.loads(out)
    assert F(doc["value"]["num"], doc["value"]["den"]) == value
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


# A discovery-order table at n = dk that stays after the flat find (1, 1).
_ORDERS_842 = [
    ([1], 1), ([2], {"num": 1, "den": 2}), ([1, 1], 1), ([3], {"num": 64, "den": 165}),
    ([2, 1], {"num": 224, "den": 495}), ([1, 2], {"num": 91, "den": 165}), ([1, 1, 1], {"num": 10, "den": 33}),
]


def _table_file(tmp_path, n, d, k, entries):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": n, "d": d, "k": k, "entries": [{"diagram": key, "p": p} for key, p in entries]}))
    return str(path)


def _table_file_842(tmp_path, entries=_ORDERS_842):
    return _table_file(tmp_path, 8, 4, 2, entries)


def test_certify_discovery_order_table_file(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "certify", "-n", "8", "-d", "4", "-k", "2",
        "--searcher", "ptable-file", "--ptable-file", _table_file_842(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["value"], doc["tight"]) == ({"num": 8, "den": 165}, True)


def test_simulate_discovery_order_table_file_with_check(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "simulate", "-n", "8", "-d", "4", "-k", "2", "--reveal", "uniform-treasures",
        "--searcher", "ptable-file", "--ptable-file", _table_file_842(tmp_path),
        "--trials", "20000", "--seed", "7", "--check-exact",
    )
    assert code == 0
    assert json.loads(out)["check"]["passed"] is True


def test_partition_table_missing_a_reached_order_exit_3(capsys, tmp_path):
    entries = [(key, p) for key, p in _ORDERS_842 if key != [1, 2]]
    code, out, err = run_cli(
        capsys, "certify", "-n", "8", "-d", "4", "-k", "2",
        "--searcher", "ptable-file", "--ptable-file", _table_file_842(tmp_path, entries),
    )
    assert (code, out, err) == (3, "", "invalid table: no table entry for reachable diagram (1, 2)\n")


def test_certify_fresh_single(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--variant", "single", "-n", "4", "-d", "2", "-k", "2",
        "--searcher", "fresh-k",
    )
    assert code == 0
    assert json.loads(out)["value"] == {"num": 2, "den": 3}


@pytest.mark.parametrize("variant, n, d, k, code, entries", [
    pytest.param("multi", 6, 2, 2, 4, [], id="multi-6-2-2-4"),
    pytest.param("single", 4, 2, 2, 0, [], id="single-4-2-2-0"),
    pytest.param("single", 4, 2, 2, 0, [([1], 0)], id="single-4-2-2-0-zero"),
])
def test_certify_empty_table_file_as_fresh_k(capsys, tmp_path, variant, n, d, k, code, entries):
    # An empty or all-zero table never stays, so it certifies what fresh-k
    # certifies, in the single game too.
    path = _table_file(tmp_path, n, d, k, entries)
    size = ("--variant", variant, "-n", str(n), "-d", str(d), "-k", str(k))
    got, out, err = run_cli(capsys, "certify", *size, "--searcher", "ptable-file", "--ptable-file", path)
    fresh = run_cli(capsys, "certify", *size, "--searcher", "fresh-k")
    assert (got, out.replace('"ptable"', '"fresh-k"'), err) == fresh
    assert got == code and json.loads(out)["searcher"] == "ptable"


_STAYS = "error: stay-table play is defined for the multi-occupancy game"


@pytest.mark.parametrize("n, entries, code, line", [
    pytest.param(6, [([1], {"num": 1, "den": 2}), ([2], 0), ([1, 1], 0)], 2, _STAYS, id="stays-at-1"),
    pytest.param(6, [([1], 0), ([1, 1], 1), ([2], 0)], 2, _STAYS, id="stays-at-1-1"),
    # A malformed table reports its own fault first, whatever the game.
    pytest.param(6, [([1], 0)], 3, "invalid table: no table entry for reachable diagram (1, 1)", id="missing-order"),
    pytest.param(5, [([1], 0)], 3,
                 "invalid table: table built for (n=5, d=3, k=2), config wants (n=6, d=3, k=2)", id="other-size"),
])
def test_single_game_table_file_refusals(capsys, tmp_path, n, entries, code, line):
    path = _table_file(tmp_path, n, 3, 2, entries)
    got = run_cli(capsys, "certify", "--variant", "single", "-n", "6", "-d", "3", "-k", "2",
                  "--searcher", "ptable-file", "--ptable-file", path)
    assert got == (code, "", line + "\n")


def test_certify_single_d1_with_the_default_searcher(capsys):
    # The scaled table is empty at d = 1, so it plays as fresh-k.
    code, out, _ = run_cli(capsys, "certify", "--variant", "single", "-n", "4", "-d", "1", "-k", "2")
    assert code == 0
    doc = json.loads(out)
    assert (doc["value"], doc["tight"], doc["searcher"]) == ({"num": 1, "den": 2}, True, "ptable-scaled")


def test_certify_fresh_k_below_dk_exit_3(capsys):
    code, out, err = run_cli(capsys, "certify", "-n", "5", "-d", "3", "-k", "2", "--searcher", "fresh-k")
    assert (code, out) == (3, "")
    assert err == "invalid table: move branch at (1, 1) needs 2 fresh doors, only 1 left\n"


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


@pytest.mark.parametrize("command", [
    pytest.param(("certify",), id="certify"),
    pytest.param(("simulate", "--trials", "10"), id="simulate"),
])
def test_ptable_file_for_another_game_exit_3(capsys, tmp_path, command):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(scaled_stay_table(10, 3, 2).to_json()))
    code, out, err = run_cli(
        capsys, *command, "-n", "9", "-d", "3", "-k", "2",
        "--searcher", "ptable-file", "--ptable-file", str(path),
    )
    assert (code, out) == (3, "")
    assert err == "invalid table: table built for (n=10, d=3, k=2), config wants (n=9, d=3, k=2)\n"


def test_lp_value_and_certificate(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "lp", "--variant", "multi", "-n", "3", "-d", "2", "-k", "2",
        "--emit-certificate", str(cert),
    )
    assert code == 0
    assert json.loads(out)["value"] == {"num": 2, "den": 3}
    assert json.loads(out)["stats"]["pivots"] == 13
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


def test_certify_node_budget_boundary_n30_d4_k3(capsys):
    # The largest single evaluation of the (30,4,3) shape pass expands 12
    # positions; the budget counts expanded positions, not child keys, and
    # a position that leaves a treasure behind a door the searcher moved
    # off scores 0 unexpanded.
    argv = ("certify", "-n", "30", "-d", "4", "-k", "3", "--node-budget")
    code, out, _ = run_cli(capsys, *argv, "12")
    assert code == 0 and json.loads(out)["tight"] is True
    code, out, err = run_cli(capsys, *argv, "11")
    assert code == 5 and out == "" and "exceeded 11 nodes" in err


def test_certify_node_budget_boundary_n29_d5_k2(capsys):
    # 20 expanded positions, 65 without the cut of lost positions.
    argv = ("certify", "-n", "29", "-d", "5", "-k", "2", "--node-budget")
    code, out, _ = run_cli(capsys, *argv, "20")
    assert code == 0 and json.loads(out)["tight"] is True
    code, out, err = run_cli(capsys, *argv, "19")
    assert code == 5 and out == "" and "exceeded 19 nodes" in err


def test_lp_failed_certificate_check_exit_6(capsys, monkeypatch):
    # A best response that overshoots by 1/1000 makes the two-sided check
    # fail; the CLI reports the internal error on stderr without a traceback.
    from treasurehunt import seqform

    exact = seqform._best_response

    def skewed(infosets, payoff, plan, pick):
        return exact(infosets, payoff, plan, pick) + (F(1, 1000) if pick is max else 0)

    monkeypatch.setattr(seqform, "_best_response", skewed)
    code, out, err = run_cli(capsys, "lp", "-n", "3", "-d", "2", "-k", "2")
    assert code == 6 and out == ""
    assert err.startswith("internal error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_lp_orbit_weight_mismatch_exit_6(capsys, monkeypatch):
    # The quotient build's self-checks raise InternalError: exit 6, one
    # line on stderr, no traceback.
    from treasurehunt import seqform

    exact = seqform.stabilizer_size
    monkeypatch.setattr(seqform, "stabilizer_size", lambda starts: exact(starts) + 1)
    code, out, err = run_cli(capsys, "lp", "-n", "3", "-d", "2", "-k", "2")
    assert code == 6 and out == ""
    assert err.startswith("internal error: orbit weight mismatch") and err.count("\n") == 1


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


def test_simulate_check_exact_needs_100_trials_before_running(capsys, monkeypatch):
    import treasurehunt.cli as cli

    def no_run(*args):
        raise AssertionError("simulated before rejecting --trials")

    monkeypatch.setattr(cli, "run_mc", no_run)
    code, out, err = run_cli(
        capsys, "simulate", "-n", "4", "-d", "2", "-k", "2", "--trials", "99", "--check-exact",
    )
    assert code == 2 and out == ""
    assert "--trials 100" in err


def test_simulate_csv_rejects_check_exact(capsys):
    # The CSV columns are fixed and hold no check, so the pair is refused.
    code, out, err = run_cli(
        capsys, "simulate", "-n", "4", "-d", "2", "-k", "2", "--trials", "100",
        "--format", "csv", "--check-exact",
    )
    assert code == 2 and out == ""
    assert "--check-exact" in err


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


def test_sweep_empty_range(capsys, tmp_path):
    # A range with --stop below --start has no rows: a usage error, with no
    # output file and no header-only CSV.
    for stop in ("4", "3"):
        path = tmp_path / f"rows-{stop}.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--param", "n", "--start", "5", "--stop", stop,
            "--variant", "multi", "-d", "2", "-k", "1", "--out", str(path),
        )
        assert code == 2 and out == ""
        assert "range is empty" in err
        assert not path.exists()


def test_node_budget_below_one_exit_2(capsys, monkeypatch):
    # Rejected while the flags are parsed, before any command does work.
    from treasurehunt import cli

    def no_work(*args, **kwargs):
        raise AssertionError("a command ran with a node budget below 1")

    for name in ("hider_best_response_value", "sequence_form_value", "run_mc", "closed_form_value"):
        monkeypatch.setattr(cli, name, no_work)
    commands = [
        ("certify", "-n", "4", "-d", "2", "-k", "2"),
        ("lp", "-n", "3", "-d", "2", "-k", "2"),
        ("simulate", "-n", "4", "-d", "2", "-k", "2", "--trials", "10"),
        ("sweep", "--param", "n", "--start", "3", "--stop", "4", "-d", "2", "-k", "2"),
    ]
    for argv in commands:
        for budget in ("0", "-5"):
            code, out, err = run_cli(capsys, *argv, "--node-budget", budget)
            assert code == 2 and out == "", (argv, budget)
            assert "--node-budget: must be at least 1" in err


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


def _sweep_rows(capsys, *argv):
    code, out, err = run_cli(capsys, "sweep", "--param", "n", "--method", "certify", *argv)
    assert (code, err) == (0, "")
    return [row[5:] for row in csv.reader(io.StringIO(out))][1:]


def test_sweep_certify(capsys):
    assert _sweep_rows(capsys, "--start", "9", "--stop", "10", "-d", "3", "-k", "2") == [
        ["8", "165", "True", ""], ["2", "55", "True", ""],
    ]
    # n = 5 is below dk: the row records the walk's error and the sweep goes on.
    assert _sweep_rows(capsys, "--variant", "single", "--searcher", "fresh-k",
                       "--start", "5", "--stop", "6", "-d", "3", "-k", "2") == [
        ["", "", "", "move branch at (1, 1) needs 2 fresh doors, only 1 left"], ["2", "5", "True", ""],
    ]
    assert _sweep_rows(capsys, "--searcher", "mu-mimic", "--start", "3", "--stop", "4", "-d", "2", "-k", "1") == [
        ["1", "6", "True", ""], ["1", "10", "True", ""],
    ]


@pytest.mark.parametrize("flags, message", [
    pytest.param(("-n", "5", "-d", "2", "-k", "1"), "-n conflicts with --param n; drop the flag", id="n-conflict"),
    pytest.param(("-d", "2"), "sweep needs the two fixed parameters set", id="without-k"),
])
def test_sweep_parameter_errors_exit_2(capsys, flags, message):
    got = run_cli(capsys, "sweep", "--param", "n", "--start", "3", "--stop", "4", *flags)
    assert got == (2, "", f"error: {message}\n")


def test_sweep_usage_error_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--param", "n", "--start", "4", "--stop", "4",
        "-d", "2", "-k", "2", "--method", "certify", "--searcher", "ptable-file",
    )
    assert code == 2 and out == ""
    assert "--ptable-file" in err


def test_sweep_rejects_searcher_without_certify(capsys, tmp_path):
    table = tmp_path / "table.json"
    for method in ("value", "lp"):
        for flags in (("--searcher", "fresh-k"), ("--ptable-file", str(table))):
            code, out, err = run_cli(
                capsys, "sweep", "--param", "n", "--start", "4", "--stop", "4",
                "-d", "2", "-k", "2", "--method", method, *flags,
            )
            assert code == 2 and out == ""
            assert "takes no searcher" in err


def test_ptable_file_without_ptable_file_searcher_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, "certify", "-n", "9", "-d", "3", "-k", "2",
                             "--ptable-file", missing)
    assert code == 2 and out == ""
    assert "--ptable-file needs --searcher ptable-file" in err


def test_file_hider_without_hider_file_exit_2(capsys):
    code, out, err = run_cli(capsys, "simulate", "-n", "3", "-d", "2", "-k", "1",
                             "--trials", "10", "--hider", "file")
    assert (code, out, err) == (2, "", "error: --hider file needs --hider-file PATH\n")


def test_simulate_all_in_one_hider_with_check(capsys):
    code, out, _ = run_cli(capsys, "simulate", "-n", "3", "-d", "2", "-k", "1", "--reveal", "uniform-doors",
                           "--hider", "all-in-one", "--trials", "2000", "--seed", "3", "--check-exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["hider"] == "all-in-one" and doc["check"]["passed"] is True


def test_hider_file_without_file_hider_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, "simulate", "-n", "9", "-d", "3", "-k", "2",
                             "--trials", "10", "--hider-file", missing)
    assert code == 2 and out == ""
    assert "--hider-file needs --hider file" in err


_SIMULATE = ("simulate", "-n", "3", "-d", "2", "-k", "1", "--trials", "10", "--hider", "file", "--hider-file")
_CERTIFY = ("certify", "-n", "9", "-d", "3", "-k", "2", "--searcher", "ptable-file", "--ptable-file")


@pytest.mark.parametrize("argv, doc, code, line", [
    pytest.param(_SIMULATE, {"n": 3, "d": 2}, 2,
                 "error: malformed hider file: KeyError: 'entries'", id="hider-without-entries"),
    pytest.param(_SIMULATE, [1, 2], 2,
                 "error: malformed hider file: AttributeError: 'list' object has no attribute 'get'",
                 id="hider-list"),
    pytest.param(_SIMULATE, {"n": 3, "d": 2, "entries": [{"p": 1}]}, 2,
                 "error: malformed hider file: KeyError: 'allocation'", id="hider-entry-without-allocation"),
    pytest.param(_CERTIFY, {"n": 9, "d": 3, "k": 2, "entries": [{"p": 1}]}, 3,
                 "invalid table: malformed table entries: KeyError: 'diagram'", id="table-entry-without-diagram"),
    pytest.param(_CERTIFY, {"n": 9, "d": 3, "k": 2, "entries": [[1]]}, 3,
                 "invalid table: malformed table entries: TypeError: list indices must be integers or slices, not str",
                 id="table-entry-list"),
    pytest.param(_CERTIFY, {"n": 9, "d": 3, "k": 2, "entries": 5}, 3,
                 "invalid table: malformed table entries: a list expected, got int", id="table-entries-number"),
    # An object or a string iterates, but neither is a list of entries.
    pytest.param(_CERTIFY, {"n": 9, "d": 3, "k": 2, "entries": {}}, 3,
                 "invalid table: malformed table entries: a list expected, got dict", id="table-entries-object"),
    pytest.param(_CERTIFY, {"n": 9, "d": 3, "k": 2, "entries": ""}, 3,
                 "invalid table: malformed table entries: a list expected, got str", id="table-entries-string"),
    pytest.param(_SIMULATE, {"n": 3, "d": 2, "entries": {}}, 2,
                 "error: malformed hider entries: a list expected, got dict", id="hider-entries-object"),
    pytest.param(_CERTIFY, {"n": 9, "d": 3, "k": 2, "entries": [{"diagram": [True], "p": 1}]}, 3,
                 "invalid table: diagram part must be an integer, got True", id="table-bool-diagram-part"),
    pytest.param(_CERTIFY, {"n": 9, "d": 3, "k": 2, "entries": [{"diagram": [2.0], "p": 1}]}, 3,
                 "invalid table: diagram part must be an integer, got 2.0", id="table-float-diagram-part"),
    pytest.param(_CERTIFY, {"n": 9.7, "d": 3, "k": 2, "entries": []}, 3,
                 "invalid table: malformed table document: n must be an integer, got 9.7", id="table-float-n"),
    pytest.param(_CERTIFY, {"n": 9, "d": 3, "k": True, "entries": []}, 3,
                 "invalid table: malformed table document: k must be an integer, got True", id="table-bool-k"),
    pytest.param(_CERTIFY, {"n": 9, "d": "3", "k": 2, "entries": []}, 3,
                 "invalid table: malformed table document: d must be an integer, got '3'", id="table-string-d"),
    pytest.param(_SIMULATE, {"n": 3.0, "d": 2, "entries": []}, 2,
                 "error: n must be an integer, got 3.0", id="hider-float-n"),
    pytest.param(_SIMULATE, {"n": 3, "d": 2, "entries": [{"allocation": [1.0, 1, 0], "p": 1}]}, 2,
                 "error: allocation (1.0, 1, 0) invalid for GameConfig(n=3, d=2, k=1, occupancy='multi', "
                 "reveal='lowest-index')", id="hider-float-count"),
    pytest.param(_SIMULATE, {"n": 3, "d": 2, "entries": [{"allocation": [True, True, 0], "p": 1}]}, 2,
                 "error: allocation (True, True, 0) invalid for GameConfig(n=3, d=2, k=1, occupancy='multi', "
                 "reveal='lowest-index')", id="hider-bool-count"),
])
def test_malformed_input_file_exits_without_traceback(capsys, tmp_path, argv, doc, code, line):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    got, out, err = run_cli(capsys, *argv, str(path))
    assert (got, out, err) == (code, "", line + "\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code, line", [
    pytest.param(_CERTIFY, 3, "invalid table: malformed table document: Expecting value: line 1 column 38 (char 37)",
                 id="table"),
    pytest.param(_SIMULATE, 2, "error: Expecting value: line 1 column 38 (char 37)", id="hider"),
])
def test_truncated_input_file_exits_without_traceback(capsys, tmp_path, argv, code, line):
    # Not JSON at all: a stay-table file is a malformed table like any other.
    path = tmp_path / "input.json"
    path.write_text('{"n": 9, "d": 3, "k": 2, "entries": [')
    got, out, err = run_cli(capsys, *argv, str(path))
    assert (got, out, err) == (code, "", line + "\n")


def test_hider_file_with_half_treasures_exit_2(capsys, tmp_path):
    # Counts summing to d are not enough: half treasures once got an "exact"
    # value from simulate --check-exact.
    path = tmp_path / "hider.json"
    allocation = [1.5, 1.5] + [0] * 7
    path.write_text(json.dumps({"n": 9, "d": 3, "entries": [{"allocation": allocation, "p": 1}]}))
    code, out, err = run_cli(capsys, "simulate", "-n", "9", "-d", "3", "-k", "2", "--trials", "100",
                             "--check-exact", "--hider", "file", "--hider-file", str(path))
    assert (code, out) == (2, "")
    assert "allocation (1.5, 1.5, 0, 0, 0, 0, 0, 0, 0) invalid" in err


@pytest.mark.parametrize("argv, fmt", [
    pytest.param(("value", "-n", "6", "-d", "3", "-k", "2"), "csv", id="value-csv"),
    pytest.param(("ptable", "-n", "9", "-d", "3", "-k", "2"), "csv", id="ptable-csv"),
    pytest.param(("ptable", "--min-valid-n", "-d", "3", "-k", "2"), "csv", id="ptable-min-valid-n-csv"),
    pytest.param(("certify", "-n", "9", "-d", "3", "-k", "2"), "csv", id="certify-csv"),
    pytest.param(("lp", "-n", "3", "-d", "2", "-k", "2", "--emit-certificate", "CERT"), "csv", id="lp-csv"),
    pytest.param(("sweep", "--param", "n", "--start", "3", "--stop", "4", "-d", "2", "-k", "2"), "text",
                 id="sweep-text"),
])
def test_unsupported_format_exits_2_and_writes_nothing(capsys, tmp_path, argv, fmt):
    cert, dest = tmp_path / "cert.json", tmp_path / "out.txt"
    argv = [str(cert) if arg == "CERT" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--format", fmt, "--out", str(dest))
    assert (code, out) == (2, "")
    assert f"invalid choice: '{fmt}'" in err
    assert not cert.exists() and not dest.exists()


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--param", "n", "--start", "3", "--stop", "4",
                           "-d", "2", "-k", "2", "--format", "json")
    assert code == 0
    assert [row["n"] for row in json.loads(out)["rows"]] == [3, 4]


def test_simulate_negative_seed_exit_2(capsys):
    code, out, err = run_cli(capsys, "simulate", "-n", "9", "-d", "3", "-k", "2",
                             "--trials", "100", "--seed", "-5")
    assert (code, out) == (2, "")
    assert "seed must lie in [0, 2**64), got -5" in err


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
