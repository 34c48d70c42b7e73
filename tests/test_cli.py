"""Command-line interface: outputs, exit codes, parsing, reproducibility."""

import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fraclap import green, operators
from fraclap.cli import CliError, main, parse_grid, parse_potential, parse_schedule


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExactOutputs:
    def test_entry_integer_power_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "entry", "--alpha", "1", "--m", "1", "--n", "2")
        assert code == 0
        assert out == "-1\n"
        code, out, _ = run_cli(capsys, "entry", "--alpha", "1", "--m", "1", "--n", "1")
        assert out == "2\n"

    def test_gn_closed_value(self, capsys):
        # g_5 at the first power is 10*pi
        code, out, _ = run_cli(capsys, "gn", "--alpha", "1", "--n", "5")
        assert code == 0
        assert out == "31.415926535897931\n"

    def test_bilap_lambda_closed_value(self, capsys):
        code, out, _ = run_cli(capsys, "bilap-lambda", "--n", "1", "--c", "1")
        assert code == 0
        assert out == "-0.055555555555555552\n"

    def test_green_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "green", "--alpha", "1", "--m", "1", "--n", "1", "--lam", "-1"
        )
        assert code == 0
        assert float(out) == pytest.approx(green.green_entry(1.0, 1, 1, -1.0), rel=1e-15)

    def test_digits_flag(self, capsys):
        _, out, _ = run_cli(capsys, "gn", "--alpha", "1", "--n", "5", "--digits", "6")
        assert out == "31.4159\n"


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        argv = (
            "probe-min-eig", "--alpha", "1.25", "--N", "60",
            "--potential", "delta:1:0.3", "--format", "json",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestRecordedOutputs:
    """Printed eigenvalues, extrapolations and verdicts of a fixed command set.

    The literals were printed at one BLAS thread by the earlier solver,
    which took eigenvectors from eig_banded on a band copied out of a dense
    section.  The band-storage path must print the same; only residuals may
    differ.
    """

    def test_probe_min_eig(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe-min-eig", "--alpha", "2", "--N", "1000", "--potential", "delta:2:0.7"
        )
        assert code == 0
        assert "min_eig -0.13446572259952053\n" in out
        assert out.endswith("converged true\n")

    def _record(self, capsys, *argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rec = json.loads(out)
        eigs = [r["min_eig"] for r in rec["schedule"]]
        return eigs, rec["extrapolated"], rec["error_bar"], rec["verdict"]

    def test_probe_kpp(self, capsys):
        assert self._record(capsys, "probe-kpp", "--schedule", "125,250,500") == (
            [0.0003642727703273008, 9.179517977025983e-05, 2.3040491890335968e-05],
            -1.636105613061898e-07,
            2.3891649330441397e-05,
            "nonnegative",
        )

    def test_probe_critical(self, capsys):
        argv = ("probe-critical", "--alpha", "2", "--c", "1", "--schedule", "50,100,200")
        assert self._record(capsys, *argv) == (
            [-0.05555555555555424, -0.0555555555555547, -0.0555555555555547],
            -0.0555555555555547,
            0.0,
            "negative",
        )


class TestMatrixCommand:
    def test_csv_round_trip_full_precision(self, capsys, tmp_path):
        path = tmp_path / "mat.csv"
        code, out, _ = run_cli(
            capsys, "matrix", "--alpha", "0.75", "--N", "6",
            "--format", "csv", "--out", str(path),
        )
        assert code == 0
        assert out == ""  # routed to the file
        with open(path) as fh:
            loaded = operators.load_matrix_csv(fh)
        expected = operators.assemble(0.75, 6).entries
        assert np.array_equal(loaded, expected)

    def test_json_structure(self, capsys):
        _, out, _ = run_cli(capsys, "matrix", "--alpha", "1", "--N", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["size"] == 3
        assert payload["entries"][0][1] == -1.0


class TestStructuredOutputs:
    def test_probe_min_eig_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe-min-eig", "--alpha", "1", "--N", "40", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        exact = 2.0 - 2.0 * math.cos(math.pi / 41.0)
        assert payload["min_eig"] == pytest.approx(exact, rel=1e-12)

    def test_hardy_check_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "hardy-check", "--alpha", "1", "--potential", "classical_hardy",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"decision", "partial_sum", "tail_bound", "threshold"}
        assert payload["decision"] in ("admissible", "inconclusive")

    def test_probe_critical_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe-critical", "--alpha", "1", "--c", "0.01",
            "--schedule", "20,40,80", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("alpha,potential,N")
        assert len(lines) == 4

    def test_hardy_weight_values_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "hardy-weight", "--alpha", "1", "--epsilon", "1",
            "--count", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,V_n"
        assert len(lines) == 4


class TestExitCodes:
    def test_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "entry", "--alpha", "-0.7", "--m", "1", "--n", "1")
        assert code == 1
        assert "error:" in err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "entry", "--m", "1", "--n", "1")[0] == 1

    def test_bad_potential_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "probe-min-eig", "--alpha", "1", "--N", "10", "--potential", "bogus:1"
        )
        assert code == 1
        assert "bad potential spec" in err

    def test_non_finite_coupling(self, capsys):
        code, _, err = run_cli(
            capsys, "probe-min-eig", "--alpha", "2", "--N", "50", "--potential", "delta:1:nan"
        )
        assert code == 1
        assert "bad potential spec" in err and "finite" in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_lambda_on_spectrum(self, capsys):
        code, _, err = run_cli(capsys, "bilap-green", "--m", "1", "--n", "1", "--lam", "4")
        assert code == 1


class TestParsers:
    def test_grid_forms(self):
        assert parse_grid("0.5") == [0.5]
        assert parse_grid("1,2,3") == [1.0, 2.0, 3.0]
        lin = parse_grid("0:1:5")
        assert lin == [0.0, 0.25, 0.5, 0.75, 1.0]
        log = parse_grid("logspace:1e-3:1e-1:3")
        assert log[0] == pytest.approx(1e-3)
        assert log[1] == pytest.approx(1e-2)
        assert log[2] == pytest.approx(1e-1)

    def test_grid_errors(self):
        for bad in ("", "1:2", "logspace:1:2", "a,b"):
            with pytest.raises(CliError):
                parse_grid(bad)

    def test_schedule(self):
        assert parse_schedule("100,200") == (100, 200)
        for bad in ("", "0,10", "x"):
            with pytest.raises(CliError):
                parse_schedule(bad)

    def test_potential_forms(self):
        assert parse_potential("zero").describe() == green.Potential.zero().describe()
        delta = parse_potential("delta:3:0.5")
        vals = delta.values(4)
        assert vals[2] == 0.5 and vals[0] == 0.0
        power = parse_potential("power:0.25:2")
        assert power.values(2)[1] == pytest.approx(0.25 / 4.0)
        explicit = parse_potential("explicit:1,2:finite")
        assert list(explicit.values(3)) == [1.0, 2.0, 0.0]

    def test_potential_errors(self):
        for bad in ("delta:1", "power:1", "classical_hardy:1", "wavelet"):
            with pytest.raises(CliError):
                parse_potential(bad)


class TestInstalledEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fraclap.cli", "entry", "--alpha", "1", "--m", "1", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "-1\n"
