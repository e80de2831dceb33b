"""Command-line surface: outputs, schemas, determinism, exit codes."""

import argparse
import csv
import json
import math
import time

import numpy as np
import pytest

from lossjm import cli, compat, parent, qubit, serialize, usd
from lossjm.measurements import FamilyParams, symmetric_family


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


RECORD = [
    "verdict", "method", "eta_star", "eta_hi", "marginal_residual", "psd_residual",
    "iterations", "seconds",
]


def strip_timing(payload):
    if isinstance(payload, dict):
        return {
            k: strip_timing(v)
            for k, v in payload.items()
            if k not in ("wall_time_s", "seconds")
        }
    return payload


class TestFamilyCommand:
    def test_benchmark_triple(self, capsys):
        code, out = run(
            ["family", "--count", "3", "--r", "0.005", "--tau", "0.50005", "--d", "3"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 3
        assert len(payload["povms"]) == 3
        assert all(len(p["elements"]) == 2 for p in payload["povms"])

    def test_single_vacuum_onoff(self, capsys):
        code, out = run(
            ["family", "--count", "1", "--r", "0", "--tau", "1", "--d", "2"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        M = serialize.matrix_from_json(payload["povms"][0]["elements"][0])
        assert np.array_equal(M, np.diag([1.0 + 0j, 0.0]))

    def test_roundtrip_matches_rebuild(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        code = cli.main(
            ["family", "--count", "2", "--r", "0.1", "--tau", "0.7", "--d", "4",
             "--out", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        back = serialize.measurement_set_from_json(payload)
        rebuilt = symmetric_family(FamilyParams(2, 0.1, 0.7, 4))
        assert np.array_equal(back.rows, rebuilt.rows)

    def test_deterministic_output(self, capsys):
        _, out1 = run(
            ["family", "--count", "2", "--r", "0.2", "--tau", "0.9", "--d", "3"], capsys
        )
        _, out2 = run(
            ["family", "--count", "2", "--r", "0.2", "--tau", "0.9", "--d", "3"], capsys
        )
        a = json.dumps(strip_timing(json.loads(out1)), sort_keys=True)
        b = json.dumps(strip_timing(json.loads(out2)), sort_keys=True)
        assert a == b

    def test_invalid_params_exit_one(self, capsys):
        code = cli.main(["family", "--count", "0", "--r", "0", "--tau", "1", "--d", "2"])
        assert code == 1


class TestCompatCommand:
    def test_compatible_exit_zero(self, capsys):
        code, out = run(
            ["compat", "--count", "2", "--r", "0.1", "--tau", "0.4", "--d", "3"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "COMPATIBLE"
        assert payload["method"] == "lon-parent"

    def test_incompatible_exit_two(self, capsys):
        code, out = run(
            ["compat", "--count", "2", "--r", "0.1", "--tau", "0.75", "--d", "2"], capsys
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["verdict"] == "INCOMPATIBLE"
        assert payload["eta_star"] < 1

    def test_breaking_point_above_sdp_dimension_limit(self, capsys):
        # the network parent certifies the row; no SDP, so no dimension limit
        code, out = run(
            ["compat", "--count", "2", "--r", "0.1", "--tau", "0.5", "--d", "10"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["verdict"], payload["method"]) == ("COMPATIBLE", "lon-parent")

    def test_leak_arm_not_counted_by_the_grid_limit(self, capsys):
        # 3^10 measured arms; a leak arm of weight 0.1 once made it 3^11
        code, out = run(
            ["compat", "--count", "10", "--r", "0.01", "--tau", "0.09", "--d", "3"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["verdict"], payload["method"]) == ("COMPATIBLE", "lon-parent")

    def test_sdp_row_above_eight_levels_exit_two(self, capsys):
        code, out = run(
            ["compat", "--count", "3", "--r", "0.3", "--tau", "0.51", "--d", "10"], capsys
        )
        assert code == 2
        payload = json.loads(out)
        assert (payload["verdict"], payload["method"]) == ("INCOMPATIBLE", "sdp-witness")

    def test_no_certificate_exit_three(self, capsys):
        # no Newton step: neither certificate holds, and the verdict says so
        code, out = run(
            ["compat", "--count", "3", "--r", "0.005", "--tau", "0.50005", "--d", "3",
             "--max-iter", "0"],
            capsys,
        )
        assert code == 3
        payload = json.loads(out)
        assert (payload["verdict"], payload["method"]) == ("UNDECIDED", "none")
        assert payload["eta_hi"] is None and '"eta_hi": null' in out

    def test_few_steps_undecided(self, capsys):
        # three steps prove neither end; a looser parent check once made this COMPATIBLE
        code, out = run(
            ["compat", "--count", "3", "--r", "0.005", "--tau", "0.50005", "--d", "3",
             "--max-iter", "3"],
            capsys,
        )
        payload = json.loads(out)
        assert code == 3 and (payload["verdict"], payload["method"]) == ("UNDECIDED", "none")

    def test_near_trivial_pair_compatible(self, capsys):
        # elements within 1.5e-10 of multiples of I, where the robustness is
        # about 1/|D|: the solve drives the noise weight s to 0 in 8 steps
        code, out = run(["compat", "--count", "2", "--r", "5", "--tau", "0.9", "--d", "2"], capsys)
        payload = json.loads(out)
        assert code == 0 and (payload["verdict"], payload["method"]) == ("COMPATIBLE", "sdp-parent")
        assert payload["iterations"] == 8 and payload["psd_residual"] <= 1e-9

    def test_stalled_pair_runs_on_to_a_parent(self, capsys):
        # elements within 1.6e-4 of multiples of I, whose solve's steps once
        # shrank early; the closed form reads Test = -2.3e-7
        argv = ["compat", "--count", "2", "--r", "3.1793687353271514", "--tau", "0.85", "--d", "2"]
        code, out = run(argv, capsys)
        payload = json.loads(out)
        assert code == 0 and (payload["verdict"], payload["method"]) == ("COMPATIBLE", "sdp-parent")

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        # count 16 at d = 25 once died with a traceback from the Schur assembly
        message = "Unable to allocate 13.1 GiB for an array with shape (2250, 25, 25, 25, 25)"

        def refuse(mset, max_iter):
            raise MemoryError(message)

        monkeypatch.setattr(compat, "robustness", refuse)
        code = cli.main(["compat", "--count", "3", "--r", "0.005", "--tau", "0.50005", "--d", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("tau", ["0.3", "0.50005"], ids=["lon-parent", "sdp"])
    def test_negative_max_iter_exit_one(self, capsys, tau):
        # refused on the network-parent path as on the SDP path
        code = cli.main(
            ["compat", "--count", "3", "--r", "0.005", "--tau", tau, "--d", "3",
             "--max-iter", "-1"]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: max_iter must be non-negative\n"

    def test_record_keys(self, capsys):
        # the verdict record without its certificates, and the manifest
        _, out = run(
            ["compat", "--count", "3", "--r", "0.005", "--tau", "0.50005", "--d", "3"], capsys
        )
        payload = json.loads(out)
        assert set(payload) == {*RECORD, "manifest"}
        assert payload["eta_star"] <= payload["eta_hi"] < 1


class TestQubitPairCommand:
    def test_pair_test_runs_once(self, capsys, monkeypatch):
        calls = []
        pair_test = qubit.pair_test

        def counted(*args):
            calls.append(args)
            return pair_test(*args)

        monkeypatch.setattr(qubit, "pair_test", counted)
        code, _ = run(["qubit-pair", "--r", "0.01", "--tau", "0.6"], capsys)
        assert code == 2
        assert len(calls) == 1

    def test_leading_order_agreement(self, capsys):
        code, out = run(["qubit-pair", "--r", "0.01", "--tau", "0.6"], capsys)
        assert code == 2  # incompatible above half transmissivity
        payload = json.loads(out)
        assert payload["test_value"] == pytest.approx(1.92e-4, rel=0.05)
        assert payload["leading_order_prediction"] == pytest.approx(1.92e-4, rel=1e-9)

    def test_compatible_below_half(self, capsys):
        code, out = run(["qubit-pair", "--r", "0.01", "--tau", "0.4"], capsys)
        assert code == 0
        assert json.loads(out)["incompatible"] is False

    @pytest.mark.parametrize("tau", ["1", "0.3"])
    def test_zero_displacement_exit_zero(self, capsys, tau):
        # tau = 1 reads F = 0 for both (sharp, identical); tau = 0.3 reads a
        # rounding-sized Test of 1.1e-16, inside the bound B
        code, out = run(["qubit-pair", "--r", "0", "--tau", tau], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["incompatible"] is False and abs(payload["test_value"]) <= 1e-15

    def test_negative_r_exit_one(self, capsys):
        # the pair is the count-2 family, so its parameter checks apply
        code = cli.main(["qubit-pair", "--r", "-0.1", "--tau", "0.6"])
        assert code == 1
        assert "r must be >= 0" in capsys.readouterr().err

    def test_payload_schema(self, capsys):
        _, out = run(["qubit-pair", "--r", "0.01", "--tau", "0.6"], capsys)
        payload = json.loads(out)
        assert sorted(payload) == [
            "F1", "F2", "gamma1", "gamma2", "incompatible", "leading_order_prediction",
            "m1", "m2", "manifest", "r", "tau", "test_value",
        ]
        for m in (payload["m1"], payload["m2"]):
            assert isinstance(m, list) and len(m) == 3
            assert all(isinstance(x, float) for x in m)


class TestParentVerifyCommand:
    def test_residual_small(self, capsys):
        code, out = run(
            ["parent-verify", "--n", "2", "--d", "6", "--random-seed", "7"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["marginal_identity_residual"] <= 1e-10

    def test_seed_changes_set_not_identity(self, capsys):
        _, out1 = run(["parent-verify", "--n", "2", "--d", "4", "--random-seed", "1"], capsys)
        _, out2 = run(["parent-verify", "--n", "2", "--d", "4", "--random-seed", "2"], capsys)
        r1 = json.loads(out1)["marginal_identity_residual"]
        r2 = json.loads(out2)["marginal_identity_residual"]
        assert r1 <= 1e-10 and r2 <= 1e-10

    def test_leak_arm_not_counted_by_the_grid_limit(self, capsys):
        # 4^8 measured arms and a leak of 0.2; counting the leak gave 4^9 > 2^17
        code, out = run(["parent-verify", "--n", "8", "--d", "4", "--tau", "0.1"], capsys)
        assert code == 0
        assert json.loads(out)["marginal_identity_residual"] <= 1e-15

    def test_zero_dimension_exit_one(self, capsys):
        code = cli.main(["parent-verify", "--n", "2", "--d", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: POVM elements must be square matrices of size at least 1\n"

    def test_eta_is_not_an_option(self, capsys):
        # --tau is the one spelling of the arm transmissivity
        with pytest.raises(SystemExit) as exit_:
            cli.main(["parent-verify", "--n", "10", "--d", "3", "--eta", "0.9"])
        captured = capsys.readouterr()
        assert exit_.value.code == 1 and captured.out == ""
        assert captured.err.startswith("usage:") and "--eta" in captured.err


class TestUsdCommand:
    def test_report_flags_threshold(self, capsys):
        code, out = run(["usd", "--n", "3", "--r", "0.01", "--tau", "0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold_n"] == 3
        assert payload["beats_optimum"] is True

    def test_huge_amplitude_answers(self, capsys):
        # p_d once ran ~r^2 = 1e10 series steps here
        code, out = run(["usd", "--n", "4", "--r", "1e5", "--tau", "0.5"], capsys)
        assert code == 0
        assert json.loads(out)["p_d"] == 1.0

    def test_huge_count_answers(self, capsys):
        # n = 2^70 class sums once raised OverflowError out of main
        code, out = run(["usd", "--n", str(2**70), "--r", "0.1", "--tau", "0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["p_d"] == payload["p_lon"] == 0.0

    @pytest.mark.parametrize("n", [10**306, 2**1100], ids=["lgamma-overflows", "past-float-range"])
    def test_count_without_float_log_factorial_errors(self, capsys, n):
        # these once died with an OverflowError traceback
        code = cli.main(["usd", "--n", str(n), "--r", "0.1", "--tau", "0.5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "log n! is past the float range" in captured.err

    def test_failed_self_check_is_one_error_line(self, capsys, monkeypatch):
        # the check once raised AssertionError, which main let out as a traceback
        monkeypatch.setattr(usd, "p_d", lambda n, r: 0.5 * usd.p_lon(n, r))
        code = cli.main(["usd", "--n", "3", "--r", "0.01", "--tau", "0.5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: split-and-detect success ")
        assert captured.err.count("\n") == 1

    def test_small_tau_answers(self, capsys):
        # the threshold search once compared n! with tau^(1-n) at each n up to ~2.7e6
        t0 = time.perf_counter()
        code, out = run(["usd", "--n", "4", "--r", "0.1", "--tau", "1e-6"], capsys)
        assert code == 0 and time.perf_counter() - t0 < 2.0
        assert json.loads(out)["threshold_n"] == 2718260

    def test_tau_below_1e_12_answers(self, capsys):
        # exited 1 while the threshold search refused comparisons too close for floats
        code, out = run(["usd", "--n", "4", "--r", "0.1", "--tau", "1e-13"], capsys)
        assert code == 0
        assert json.loads(out)["threshold_n"] == 27182818284545

    def test_sweep_csv(self, capsys, tmp_path):
        sweep = tmp_path / "sweep.csv"
        code, out = run(
            ["usd", "--n", "2", "--r", "0.1", "--tau", "0.5", "--sweep", str(sweep),
             "--sweep-steps", "5"],
            capsys,
        )
        assert code == 0
        lines = sweep.read_text().strip().splitlines()
        assert lines[0] == "r,p_d,p_lon,lossy_success"
        assert len(lines) == 6

    def test_sweep_dash_is_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run(
            ["usd", "--n", "3", "--r", "0.01", "--tau", "0.5", "--sweep", "-",
             "--sweep-steps", "3"],
            capsys,
        )
        assert code == 0
        assert not (tmp_path / "-").exists()
        lines = out.splitlines()
        header = lines.index("r,p_d,p_lon,lossy_success")
        assert all(len(line.split(",")) == 4 for line in lines[header + 1 : header + 4])


class TestTable1Command:
    def test_row_two_verdicts(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code = cli.main(
            ["table1", "--row-min", "2", "--row-max", "2", "--out", str(path)]
        )
        assert code == 2  # at least one incompatible verdict
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == 2
        assert [r["verdict"] for r in rows] == ["INCOMPATIBLE", "COMPATIBLE"]
        assert {r["n"] for r in rows} == {"2"}
        assert list(rows[0]) == ["n", "r", "tau", "d", *RECORD]
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["command"] == "table1"
        assert "lossjm" in manifest["versions"]

    def test_ten_levels_keep_the_three_level_verdicts(self, capsys):
        verdicts = {}
        for d in ("3", "10"):
            code, out = run(["table1", "--d", d, "--row-min", "2", "--row-max", "4"], capsys)
            assert code == 2
            verdicts[d] = [(r["verdict"], r["method"]) for r in csv.DictReader(out.splitlines())]
        assert verdicts["10"] == verdicts["3"]
        assert [m for _, m in verdicts["3"]] == ["sdp-witness", "lon-parent"] * 3

    def test_degenerate_r_zero_family(self, capsys):
        # r = 0: all measurements identical, compatible at any tau
        code, out = run(
            ["compat", "--count", "3", "--r", "0", "--tau", "0.9", "--d", "3"], capsys
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "COMPATIBLE"

    def test_unknown_row_errors(self, capsys):
        code = cli.main(["table1", "--row-min", "11", "--row-max", "11"])
        assert code == 1

    def test_empty_row_range_errors(self, capsys, tmp_path):
        # this once exited 0 with a header-only CSV
        path = tmp_path / "table.csv"
        code = cli.main(["table1", "--row-min", "5", "--row-max", "2", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not path.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--row-min 5" in captured.err and "--row-max 2" in captured.err

    def test_undecided_row_outranks_incompatible(self, capsys):
        # five Newton steps refute row 2 but leave row 3 without a certificate
        code, out = run(
            ["table1", "--row-min", "2", "--row-max", "3", "--max-iter", "5"], capsys
        )
        assert code == 3
        rows = list(csv.DictReader(out.splitlines()))
        verdicts = [r["verdict"] for r in rows]
        assert verdicts == ["INCOMPATIBLE", "COMPATIBLE", "UNDECIDED", "COMPATIBLE"]
        # the undecided row still reports the bound its unproven witness gives
        assert rows[2]["method"] == "none" and rows[2]["eta_hi"] != ""

    def test_header_is_the_compat_record(self, capsys):
        _, out = run(["table1", "--row-min", "2", "--row-max", "2"], capsys)
        _, record = run(
            ["compat", "--count", "3", "--r", "0.005", "--tau", "0.50005", "--d", "3"], capsys
        )
        header = out.splitlines()[0].split(",")
        assert header[:4] == ["n", "r", "tau", "d"]
        assert set(header[4:]) == set(json.loads(record)) - {"manifest"}
        assert out.endswith("\n") and "\r" not in out

    @pytest.mark.parametrize("knobs", [[], ["--max-iter", "5"]], ids=["default", "max-iter-5"])
    def test_rows_match_compat(self, capsys, knobs):
        # each row's record is what compat prints at the same point
        _, out = run(["table1", "--row-min", "2", "--row-max", "3", *knobs], capsys)
        for row in csv.DictReader(out.splitlines()):
            _, text = run(
                ["compat", "--count", str(int(row["n"]) + 1), "--r", row["r"],
                 "--tau", row["tau"], "--d", row["d"], *knobs],
                capsys,
            )
            record = json.loads(text)
            want = {k: "" if record[k] is None else str(record[k]) for k in RECORD}
            assert strip_timing({k: row[k] for k in RECORD}) == strip_timing(want)


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


COMMANDS = {
    "family": ["family", "--count", "2", "--r", "0.1", "--tau", "0.7", "--d", "3"],
    "compat-compatible": ["compat", "--count", "2", "--r", "0.1", "--tau", "0.4", "--d", "3"],
    "compat-incompatible": ["compat", "--count", "3", "--r", "0.005", "--tau", "0.50005",
                            "--d", "3"],
    "compat-undecided": ["compat", "--count", "3", "--r", "0.005", "--tau", "0.50005", "--d", "3",
                         "--max-iter", "0"],
    "parent-verify": ["parent-verify", "--n", "2", "--d", "3"],
    "qubit-pair": ["qubit-pair", "--r", "0.01", "--tau", "0.6"],
    "usd-large-r": ["usd", "--n", "4", "--r", "28", "--tau", "0.5"],
}


class TestStrictJson:
    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_output_is_standard_json(self, capsys, argv):
        _, out = run(argv, capsys)
        json.loads(out, parse_constant=_refuse_constant)

    def test_table_manifest_is_standard_json(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        cli.main(["table1", "--row-min", "2", "--row-max", "2", "--out", str(path)])
        text = (tmp_path / "table.csv.manifest.json").read_text()
        json.loads(text, parse_constant=_refuse_constant)

    def test_non_finite_value_refused(self, capsys, monkeypatch):
        # a NaN that reaches the writer is an error, not a non-standard token
        monkeypatch.setattr(parent, "verify_marginal_identity", lambda mset, taus: math.nan)
        code = cli.main(["parent-verify", "--n", "2", "--d", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "JSON" in captured.err

    @pytest.mark.parametrize("r", ["nan", "inf"])
    @pytest.mark.parametrize("argv, message", [
        (["family", "--count", "2", "--tau", "0.5", "--d", "3"], "r must be finite"),
        (["compat", "--count", "2", "--tau", "0.5", "--d", "3"], "r must be finite"),
        (["qubit-pair", "--tau", "0.5"], "r must be finite"),
        (["usd", "--n", "3", "--tau", "0.5"], "amplitude must be finite"),
    ], ids=["family", "compat", "qubit-pair", "usd"])
    def test_non_finite_amplitude_exit_one(self, capsys, argv, message, r):
        code = cli.main(argv + ["--r", r])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert message in captured.err


class TestExtremeInputs:
    @pytest.mark.parametrize("argv", [
        ["family", "--count", "3", "--r", "1e200", "--tau", "0.5", "--d", "3"],
        ["compat", "--count", "3", "--r", "1e200", "--tau", "0.5", "--d", "3"],
        ["qubit-pair", "--r", "1e200", "--tau", "0.75"],
        ["qubit-pair", "--r", "1e200", "--tau", "0.5"],
        ["usd", "--n", "4", "--r", "1e60", "--tau", "0.5"],
        ["usd", "--n", "171", "--r", "0.5", "--tau", "0.9"],
        ["usd", "--n", "171", "--r", "10", "--tau", "0.9"],
        ["usd", "--n", "4", "--r", "0.1", "--tau", "1e-13"],
        ["usd", "--n", str(10**156), "--r", "1e155", "--tau", "0.5"],
    ], ids=lambda argv: " ".join(argv))
    def test_finite_input_answers_or_errors(self, capsys, argv):
        # each of these once raised OverflowError out of main, or ran for hours
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0 or (code == 1 and captured.out == "")
        assert code == 0 or captured.err.startswith("error: ")

    def test_usd_past_the_float_range_of_its_small_r_form(self, capsys):
        # p_d once raised OverflowError out of main here; now the report is
        # whole and p_d_approx = inf stops the strict JSON writer
        code = cli.main(["usd", "--n", str(10**170), "--r", "1e200", "--tau", "0.5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: Out of range float values are not JSON compliant: inf\n"


class TestNoTolerance:
    """The certificate threshold is compat.TOL; no option sets it."""

    @pytest.mark.parametrize("argv", [
        ["compat", "--count", "3", "--r", "0.005", "--tau", "0.50005", "--d", "3"],
        ["table1", "--row-min", "2", "--row-max", "2"],
    ], ids=lambda argv: argv[0])
    def test_tol_is_not_an_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv + ["--tol", "1e-3"])
        captured = capsys.readouterr()
        assert exit_.value.code == 1 and captured.out == ""
        assert captured.err.startswith("usage:") and "--tol" in captured.err

    def test_manifests_have_no_tol(self, capsys, tmp_path):
        _, out = run(["compat", "--count", "2", "--r", "0.1", "--tau", "0.4", "--d", "3"], capsys)
        path = tmp_path / "table.csv"
        cli.main(["table1", "--row-min", "2", "--row-max", "2", "--out", str(path)])
        table = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert set(json.loads(out)["manifest"]["params"]) == {
            "count", "r", "tau", "d", "max_iter", "out",
        }
        assert set(table["params"]) == {"row_min", "row_max", "d", "max_iter", "out"}


OPTIONS = {
    "family": ["--count", "--d", "--out", "--r", "--tau"],
    "compat": ["--count", "--d", "--max-iter", "--out", "--r", "--tau"],
    "table1": ["--d", "--max-iter", "--out", "--row-max", "--row-min"],
    "parent-verify": ["--d", "--n", "--out", "--random-seed", "--tau"],
    "qubit-pair": ["--out", "--r", "--tau"],
    "usd": ["--n", "--out", "--r", "--sweep", "--sweep-max", "--sweep-min", "--sweep-steps",
            "--tau"],
}


def test_option_inventory():
    # every settable option of every subcommand; a new knob is a deliberate diff here
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: sorted(s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, sub in commands.choices.items()
    }
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 32


class TestManifest:
    @pytest.mark.parametrize("argv", [
        ["family", "--count", "2", "--r", "0.1", "--tau", "0.7", "--d", "3"],
        ["compat", "--count", "2", "--r", "0.1", "--tau", "0.4", "--d", "3"],
        ["parent-verify", "--n", "2", "--d", "3"],
        ["qubit-pair", "--r", "0.01", "--tau", "0.6"],
        ["usd", "--n", "2", "--r", "0.1", "--tau", "0.9"],
    ], ids=lambda argv: argv[0])
    def test_json_commands_share_one_manifest(self, capsys, argv):
        _, out = run(argv, capsys)
        manifest = json.loads(out)["manifest"]
        assert set(manifest) == {"command", "params", "versions", "wall_time_s"}
        assert manifest["command"] == argv[0]
        given = {k.lstrip("-").replace("-", "_"): v for k, v in zip(argv[1::2], argv[2::2])}
        assert {k: str(manifest["params"][k]) for k in given} == given
        assert set(manifest["versions"]) == {"lossjm", "numpy", "python"}

    def test_every_run_carries_versions_and_params(self, capsys):
        _, out = run(["usd", "--n", "2", "--r", "0.1", "--tau", "0.9"], capsys)
        manifest = json.loads(out)["manifest"]
        assert manifest["command"] == "usd"
        assert manifest["params"]["n"] == 2
        assert "numpy" in manifest["versions"]
        assert "wall_time_s" in manifest
