"""Command-line interface: outputs, exit codes, parsing, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fraclap
from fraclap import cli, green, operators
from fraclap.cli import CliError, main, parse_grid, parse_potential, parse_schedule

HUGE = str(10**400)  # an index beyond float64


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "1", "--c", "1e20"),
            ("--n", "2", "--c", "1e20"),
            ("--n", "3", "--c", "1e20"),
            ("--n", "1", "--c", "1e20", "--method", "implicit"),
            # c^4 overflows float64, lam = -c + 5 + O(1/c) does not
            ("--n", "1", "--c", "1e100"),
        ],
    )
    def test_bilap_lambda_at_large_coupling(self, capsys, argv):
        code, out, err = run_cli(capsys, "bilap-lambda", *argv)
        assert (code, err) == (0, "")
        value = float(out)
        assert math.isfinite(value) and value < 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "1", "--c", "1e-301", "--method", "implicit"),
            ("--n", "1", "--c", "1e-301"),
            ("--n", "3", "--c", "1e-302"),
            ("--n", "5", "--c", "1e-310"),
        ],
    )
    def test_bilap_lambda_underflows_to_negative_zero(self, capsys, argv):
        # the root s lies below 1e-300: the implicit path prints the closed form's -0
        assert run_cli(capsys, "bilap-lambda", *argv) == (0, "-0\n", "")

    @pytest.mark.parametrize(
        "lam, want",
        [("1e40", -1e-40), ("1e308", -1e-308), ("-1e300", 1e-300), ("5-1e40j", -1e-40j)],
    )
    def test_bilap_green_far_above_spectrum(self, capsys, lam, want):
        code, out, err = run_cli(capsys, "bilap-green", "--m", "1", "--n", "1", f"--lam={lam}")
        assert (code, err) == (0, "")
        assert complex(out) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_green_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "green", "--alpha", "1", "--m", "1", "--n", "1", "--lam", "-1"
        )
        assert code == 0
        assert float(out) == pytest.approx(green.green_entry(1.0, 1, 1, -1.0), rel=1e-15)

    def test_digits_flag(self, capsys):
        _, out, _ = run_cli(capsys, "gn", "--alpha", "1", "--n", "5", "--digits", "6")
        assert out == "31.4159\n"
        _, out, _ = run_cli(capsys, "gn", "--alpha", "1", "--n", "5", "--digits", "0")
        assert out == "3e+01\n"


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


_SELFTEST_TABLE = """\
entry_vs_oracle          PASS  worst=1.802e-14  tol=1.0e-09
base_cases               PASS  worst=0.000e+00  tol=1.0e-10
in_identity              PASS  worst=5.457e-12  tol=1.0e-09
green_bounds             PASS  worst=0.000e+00  tol=1.0e-10  [C_1 error 0.000e+00]
bilap_site1_closed       PASS  worst=8.882e-16  tol=1.0e-12
bilap_birman_schwinger   PASS  worst=8.882e-16  tol=1.0e-09
single_site_threshold    PASS  worst=0.000e+00  tol=0.0e+00  [c=1 -> admissible, c=1+1e-9 -> inconclusive]
overall                  PASS
"""

#: stdout of a fixed command set, printed at one BLAS thread; residual
#: columns are left out, since they only measure rounding
_FIXED_OUTPUTS = [
    (("entry", "--alpha", "1.5", "--m", "2", "--n", "3"), "-2.040575185115348\n"),
    (
        ("gn", "--alpha", "0.75", "--n", "1:20:5"),
        "1 3.2000000000000011\n5 8.3576119730277956\n10 12.232114047403734\n"
        "15 15.205612327266394\n20 17.712487186613124\n",
    ),
    (("in", "--alpha", "0.5000001", "--n", "7"), "3.2546575957623132\n"),
    (
        ("bounds", "--alpha", "1.25", "--m", "3", "--n", "4"),
        "C_alpha 1.573787465354795\nrough 18.88544958425754\nrefined 9.7843957008793385\n",
    ),
    (("green", "--alpha", "0.75", "--m", "2", "--n", "5", "--lam", "-0.5"), "0.06621589929506945\n"),
    (("bilap-green", "--m", "2", "--n", "3", "--lam=-1e-4"), "33.252463770292074\n"),
    # a 50-digit root is -0.17216794513937209314: 6.0e-16 relative off
    (("bilap-lambda", "--n", "3", "--c", "0.7"), "-0.1721679451393722\n"),
    # root s ~ 1.6e-8, where the Chebyshev angle is about s/2
    (("bilap-lambda", "--n", "4", "--c", "1e-9"), "-1.6383997247488329e-32\n"),
    (
        ("hardy-check", "--alpha", "0.75", "--potential", "power:0.01:2"),
        "decision admissible\npartial_sum 0.092771678368504445\n"
        "tail_bound 0.00033600000000000009\nthreshold 3.708149354602746\n",
    ),
    # the admissibility series over each potential kind, and lengths one past
    # a block of terms and one past the default
    (
        ("hardy-check", "--alpha", "0.75", "--potential", "kpp"),
        "decision admissible\npartial_sum 3.4330998644708983\n"
        "tail_bound 0.019682424304283696\nthreshold 3.708149354602746\n",
    ),
    (
        ("hardy-check", "--alpha", "0.25", "--potential", "classical_hardy"),
        "decision admissible\npartial_sum 0.33131647966549105\n"
        "tail_bound 2.4999999999999998e-06\nthreshold 0.84721308479397972\n",
    ),
    (
        ("hardy-check", "--alpha", "0.75", "--potential", "explicit:0.5,0.25,0.125,0.0625:finite"),
        "decision inconclusive\npartial_sum 4.0727185728402775\n"
        "tail_bound 0\nthreshold 3.708149354602746\n",
    ),
    (
        ("hardy-check", "--alpha", "0.75", "--potential", "power:0.01:2", "--tail-terms", "8193"),
        "decision admissible\npartial_sum 0.092112928797091334\n"
        "tail_bound 0.0011738640433984434\nthreshold 3.708149354602746\n",
    ),
    (
        ("hardy-check", "--alpha", "0.75", "--potential", "power:0.01:2", "--tail-terms", "100001"),
        "decision admissible\npartial_sum 0.092771679690644357\n"
        "tail_bound 0.00033599832001259992\nthreshold 3.708149354602746\n",
    ),
    (
        ("probe-critical", "--alpha", "1.5", "--c", "0.05", "--schedule", "50,100,200", "--format", "csv"),
        "alpha,potential,N,min_eig,extrapolated,error_bar,verdict\n"
        '1.5,"delta(site=1, coeff=0.050000000000000003)",50,0.00031709563124828025,'
        "-1.2849311524911263e-07,5.7166279692495839e-06,negative_beyond_resolution\n"
        '1.5,"delta(site=1, coeff=0.050000000000000003)",100,4.1098523846623142e-05,'
        "-1.2849311524911263e-07,5.7166279692495839e-06,negative_beyond_resolution\n"
        '1.5,"delta(site=1, coeff=0.050000000000000003)",200,5.2294440560951921e-06,'
        "-1.2849311524911263e-07,5.7166279692495839e-06,negative_beyond_resolution\n",
    ),
    (("selftest",), _SELFTEST_TABLE),
    # the negative powers and an integer section, with its signed zero corner
    (("entry", "--alpha", "-0.5", "--m", "3", "--n", "5"), "0.43829176114248924\n"),
    (("entry", "--alpha", "-1", "--m", "4", "--n", "7"), "4\n"),
    (
        ("matrix", "--alpha", "-0.5", "--N", "4", "--format", "csv"),
        "0.84882636315677518,0.33953054526270998,0.21826963624031359,0.16168121202986196\n"
        "0.33953054526270998,1.0670959993970888,0.50121175729257195,0.34687969126406726\n"
        "0.21826963624031359,0.50121175729257195,1.1957060544208424,0.60805703377384435\n"
        "0.16168121202986196,0.34687969126406726,0.60805703377384435,1.2871181242992644\n",
    ),
    (("matrix", "--alpha", "-1", "--N", "3"), "1 1 1\n1 2 2\n1 2 3\n"),
    (
        ("matrix", "--alpha", "2", "--N", "4", "--format", "csv"),
        "5,-4,1,0\n-4,6,-4,1\n1,-4,6,-4\n0,1,-4,6\n",
    ),
    # g_n on unsorted grids on both sides of the head end n = 8, on the slope
    # path at alpha = 1/2 and on the Stirling coefficients at 3/4
    (
        ("gn", "--alpha", "0.5", "--n", "20,9,8,1"),
        "20 3.5984394810038984\n9 3.0901589420553615\n8 3.0151976528415161\n1 1.6976527263135501\n",
    ),
    (("gn", "--alpha", "0.75", "--n", "9,8,1"), "9 11.553200516532723\n8 10.83542239155965\n1 3.2000000000000011\n"),
    # c[0] from the Stirling series at d = -1/4, used from alpha = 170 on
    (("entry", "--alpha", "171.25", "--m", "3", "--n", "40"), "-1.6677413383713315e+98\n"),
]


def _without_residuals(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or "residual" not in rows[0]:
        return text
    col = rows[0].index("residual")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(r[:col] + r[col + 1 :] for r in rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def one_thread_outputs():
    """(exit code, stdout) of every fixed command, run in one child process
    whose BLAS is pinned to one thread before numpy loads."""
    script = (
        "import contextlib, io, json, sys\n"
        "from fraclap.cli import main\n"
        "outs = []\n"
        "for argv in json.load(sys.stdin):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        code = main(argv)\n"
        "    outs.append((code, buf.getvalue()))\n"
        "json.dump(outs, sys.stdout)\n"
    )
    src = os.path.dirname(os.path.dirname(fraclap.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps([list(argv) for argv, _ in _FIXED_OUTPUTS]),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return dict(zip((argv for argv, _ in _FIXED_OUTPUTS), json.loads(proc.stdout)))


def _fixed_ids() -> list[str]:
    """The subcommand of each fixed command, numbered from its second use
    on, so that a command added later leaves the earlier ids as they were."""
    names = [argv[0] for argv, _ in _FIXED_OUTPUTS]
    return [
        name if name not in names[:i] else f"{name}-{names[:i].count(name) + 1}"
        for i, name in enumerate(names)
    ]


class TestFixedCommandSet:
    """Byte-identical stdout on the fixed command set, at one BLAS thread."""

    @pytest.mark.parametrize("argv, expected", _FIXED_OUTPUTS, ids=_fixed_ids())
    def test_stdout_unchanged(self, one_thread_outputs, argv, expected):
        code, out = one_thread_outputs[argv]
        assert code == 0
        assert _without_residuals(out) == expected



# ---------------------------------------------------------------------------
# parsing: help and usage errors, negative lambda values

_TOP_USAGE = (
    'usage: fraclap [-h]\n'
    '               {entry,matrix,green,gn,in,bounds,hardy-check,hardy-weight,bilap-green,bilap-lambda,probe-min-eig,probe-critical,probe-hardy,probe-reflected,probe-kpp,selftest}\n'
    '               ...\n'
)
#: (argv, stdout, stderr, exit code) of help and usage errors, printed by
#: the parser that held all subcommands at once, under CPython 3.11 with
#: COLUMNS=80; argparse words and wraps these differently in other versions
_USAGE_OUTPUTS = [
    (
        ('-h',),
        _TOP_USAGE + (
            '\n'
            'Fractional powers of the discrete half-line Laplacian: entries, Green kernels,\n'
            'Hardy weights, spectral probes.\n'
            '\n'
            'positional arguments:\n'
            '  {entry,matrix,green,gn,in,bounds,hardy-check,hardy-weight,bilap-green,bilap-lambda,probe-min-eig,probe-critical,probe-hardy,probe-reflected,probe-kpp,selftest}\n'
            '    entry               matrix entry of a power of the Laplacian\n'
            '    matrix              finite section of a power\n'
            '    green               resolvent entry by quadrature\n'
            '    gn                  weight sequence value(s)\n'
            '    in                  weighted Chebyshev moment value(s)\n'
            '    bounds              uniform resolvent bounds\n'
            '    hardy-check         sufficient admissibility test\n'
            '    hardy-weight        explicit power Hardy weight\n'
            '    bilap-green         squared-Laplacian resolvent entry\n'
            '    bilap-lambda        single-site bound state\n'
            '    probe-min-eig       smallest finite-section eigenvalue\n'
            '    probe-critical      criticality dichotomy scan\n'
            '    probe-hardy         explicit Hardy weight witness\n'
            '    probe-reflected     reflected operator witness\n'
            '    probe-kpp           improved square-root weight witness\n'
            '    selftest            formula-vs-oracle suites with pass/fail table\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
        ),
        "",
        0,
    ),
    (
        (),
        "",
        _TOP_USAGE + 'fraclap: error: the following arguments are required: command\n',
        1,
    ),
    (
        ('no-such-command',),
        "",
        _TOP_USAGE + "fraclap: error: argument command: invalid choice: 'no-such-command' (choose from 'entry', 'matrix', 'green', 'gn', 'in', 'bounds', 'hardy-check', 'hardy-weight', 'bilap-green', 'bilap-lambda', 'probe-min-eig', 'probe-critical', 'probe-hardy', 'probe-reflected', 'probe-kpp', 'selftest')\n",
        1,
    ),
    (
        ('--digits', '3', 'entry'),
        "",
        _TOP_USAGE + "fraclap: error: argument command: invalid choice: '3' (choose from 'entry', 'matrix', 'green', 'gn', 'in', 'bounds', 'hardy-check', 'hardy-weight', 'bilap-green', 'bilap-lambda', 'probe-min-eig', 'probe-critical', 'probe-hardy', 'probe-reflected', 'probe-kpp', 'selftest')\n",
        1,
    ),
    (
        ('entry', '-h'),
        (
            'usage: fraclap entry [-h] [--digits DIGITS] [--format {csv,json,plain}]\n'
            '                     [--out OUT] --alpha ALPHA --m M --n N\n'
            '\n'
            'options:\n'
            '  -h, --help            show this help message and exit\n'
            '  --digits DIGITS\n'
            '  --format {csv,json,plain}\n'
            '  --out OUT\n'
            '  --alpha ALPHA\n'
            '  --m M\n'
            '  --n N\n'
        ),
        "",
        0,
    ),
    (
        ('entry', '--alpha', 'x', '--m', '1', '--n', '1'),
        "",
        (
            'usage: fraclap entry [-h] [--digits DIGITS] [--format {csv,json,plain}]\n'
            '                     [--out OUT] --alpha ALPHA --m M --n N\n'
            "fraclap entry: error: argument --alpha: invalid float value: 'x'\n"
        ),
        1,
    ),
    (
        ('entry', '--m', '1', '--n', '1'),
        "",
        (
            'usage: fraclap entry [-h] [--digits DIGITS] [--format {csv,json,plain}]\n'
            '                     [--out OUT] --alpha ALPHA --m M --n N\n'
            'fraclap entry: error: the following arguments are required: --alpha\n'
        ),
        1,
    ),
    (
        ('entry', '--alpha', '1', '--m', '1', '--n', '2', '--bogus'),
        "",
        _TOP_USAGE + 'fraclap: error: unrecognized arguments: --bogus\n',
        1,
    ),
    (
        ('entry', '--alpha', '1', '--m', '1', '--n', '2', 'extra'),
        "",
        _TOP_USAGE + 'fraclap: error: unrecognized arguments: extra\n',
        1,
    ),
    (
        ('probe-critical', '--alpha', '1', '--c', '1', '--format', 'xml'),
        "",
        (
            'usage: fraclap probe-critical [-h] [--digits DIGITS]\n'
            '                              [--format {csv,json,plain}] [--out OUT] --alpha\n'
            '                              ALPHA [--site SITE] --c C [--schedule SCHEDULE]\n'
            "fraclap probe-critical: error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json', 'plain')\n"
        ),
        1,
    ),
    (
        ('bilap-lambda', '--n', '1', '--c', '1', '--method', 'nope'),
        "",
        (
            'usage: fraclap bilap-lambda [-h] [--digits DIGITS] [--format {csv,json,plain}]\n'
            '                            [--out OUT] --n N --c C\n'
            '                            [--method {auto,closed,implicit,small_c,large_c}]\n'
            "fraclap bilap-lambda: error: argument --method: invalid choice: 'nope' (choose from 'auto', 'closed', 'implicit', 'small_c', 'large_c')\n"
        ),
        1,
    ),
    (
        ('entry', '--alpha', '1.5', '--m', '2', '--n', '3', '--digits'),
        "",
        (
            'usage: fraclap entry [-h] [--digits DIGITS] [--format {csv,json,plain}]\n'
            '                     [--out OUT] --alpha ALPHA --m M --n N\n'
            'fraclap entry: error: argument --digits: expected one argument\n'
        ),
        1,
    ),
    (
        ('green', '--alpha', '0.75', '--m', '1', '--n', '1', '--lam'),
        "",
        (
            'usage: fraclap green [-h] [--digits DIGITS] [--format {csv,json,plain}]\n'
            '                     [--out OUT] --alpha ALPHA --m M --n N --lam LAM\n'
            '                     [--tol TOL]\n'
            'fraclap green: error: argument --lam: expected one argument\n'
        ),
        1,
    ),
]

_USAGE_IDS = [" ".join(argv) or "no-arguments" for argv, *_ in _USAGE_OUTPUTS]


def table_parse(argv):
    """cli's table parse of argv, None or the namespace the full argparse
    parser gives, NaN-aware."""
    args = cli._table_args(list(argv))
    if args is not None:
        full = vars(cli._build_parser().parse_args(list(argv)))
        assert vars(args).keys() == full.keys()
        for dest, value in vars(args).items():
            assert type(value) is type(full[dest]), dest
            assert value == full[dest] or value != value and full[dest] != full[dest], dest
    return args


#: argv the table parser declines, or must parse as argparse does
_EDGE_ARGVS = [
    ("entry", "--al", "1", "--m", "1", "--n", "2"),
    ("entry", "--alpha", "-0.5", "--m", "3", "--n", "5"),
    ("entry", "--alpha=-0.5", "--m", "3", "--n", "5"),
    ("green", "--alpha", "0.75", "--m", "1", "--n", "1", "--lam=-1e-3"),
    ("green", "--alpha", "0.75", "--m", "1", "--n", "1", "--lam", "--tol", "1e-9"),
    ("entry", "--alpha", "1", "--m", "1", "--n", "2", "--digits=--"),
    ("entry", "--alpha", "1", "--m", "1", "--n", "2", "--alpha", "nan", "--m=3"),
    ("entry", "-h"),
    ("entry", "--alpha", "1", "--m", "1", "--n", "2", "-h"),
    ("entry", "--alpha", "1", "--m", "1", "--n", "2", "extra"),
    ("hardy-check", "--alpha", "0.75", "--potential", "", "--format=csv", "--out="),
]


class TestParsing:
    """main parses well-formed argv from the command table, and any other
    with the full argparse parser, with unchanged output."""

    @pytest.fixture(autouse=True)
    def _fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse text of CPython 3.11")
    @pytest.mark.parametrize("argv, out, err, code", _USAGE_OUTPUTS, ids=_USAGE_IDS)
    def test_recorded_usage_output(self, capsys, argv, out, err, code):
        assert run_cli(capsys, *argv) == (code, out, err)

    @pytest.mark.parametrize("argv", [argv for argv, *_ in _USAGE_OUTPUTS], ids=_USAGE_IDS)
    def test_same_output_as_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(list(argv))
        captured = capsys.readouterr()
        full = (0 if exc.value.code == 0 else 1, captured.out, captured.err)
        assert run_cli(capsys, *argv) == full

    @pytest.mark.parametrize(
        "argv",
        [argv for argv, _ in _FIXED_OUTPUTS] + [argv for argv, *_ in _USAGE_OUTPUTS] + _EDGE_ARGVS,
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_table_parser_agrees_with_argparse(self, argv):
        table_parse(argv)

    def test_table_parser_accepts_well_formed_argv(self):
        # every fixed command, with a negative lambda attached to its flag as
        # main does, is parsed from the table unless a value starts with a minus
        for argv, _ in _FIXED_OUTPUTS:
            argv = cli._attach_negative_lambda(list(argv))
            negative = any(value.startswith("-") for value in argv[2::2])
            assert (table_parse(argv) is None) == negative, argv
        argv = ["green", "--alpha", "0.75", "--m", "1", "--n", "1", "--lam", "-1e-3"]
        assert table_parse(argv) is None
        args = table_parse(cli._attach_negative_lambda(argv))
        assert (args.lam, args.tol, args.digits, args.format, args.out) == ("-1e-3", 1e-12, 17, "plain", None)
        # a repeated flag keeps its last value
        args = table_parse(("entry", "--alpha", "1", "--m", "1", "--n", "2", "--alpha", "nan", "--m=3"))
        assert math.isnan(args.alpha) and (args.m, args.n) == (3, 2)

    @pytest.mark.parametrize(
        "argv, out",
        [
            (("green", "--alpha", "0.75", "--m", "1", "--n", "1", "--lam", "-1e-3"), "0.85978612267567311\n"),
            (("bilap-green", "--m", "1", "--n", "1", "--lam", "-1e-3"), "3.492102503569531\n"),
            (
                ("green", "--alpha", "0.75", "--m", "2", "--n", "3", "--lam", "-1-1j"),
                "0.064239657894827579-0.081237747661923737j\n",
            ),
            (
                ("bilap-green", "--m", "2", "--n", "3", "--lam", "-1-1j"),
                "0.12655906253796897-0.13275882016131349j\n",
            ),
        ],
        ids=["green-exponent", "bilap-green-exponent", "green-complex", "bilap-green-complex"],
    )
    def test_negative_lambda_as_its_own_argument(self, capsys, argv, out):
        attached = argv[:-2] + (f"--lam={argv[-1]}",)
        assert run_cli(capsys, *argv) == (0, out, "")
        assert run_cli(capsys, *attached) == (0, out, "")

    def test_negative_lambda_after_abbreviated_flag(self, capsys):
        argv = ("green", "--alpha", "0.75", "--m", "1", "--n", "1", "--la", "-1e-3")
        assert run_cli(capsys, *argv) == (0, "0.85978612267567311\n", "")

    def test_lambda_flag_still_needs_a_value(self, capsys):
        argv = ("green", "--alpha", "0.75", "--m", "1", "--n", "1", "--lam", "--tol", "1e-9")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith("fraclap green: error: argument --lam: expected one argument\n")


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
            loaded = np.loadtxt(fh, delimiter=",", ndmin=2)
        expected = operators.assemble(0.75, 6)
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

    @pytest.mark.parametrize(
        "argv, width",
        [
            (("probe-min-eig", "--alpha", "1.5", "--N", "5", "--potential", "delta:1:0.5"), 2),
            (("probe-critical", "--alpha", "1.5", "--c", "0.05,2", "--schedule", "20,40"), 8),
            (("probe-hardy", "--alpha", "0.5", "--epsilon", "0.5", "--schedule", "20,40"), 8),
            (("matrix", "--alpha", "0.75", "--N", "5"), 5),
            (("gn", "--alpha", "0.75", "--n", "1:20:5"), 2),
            (("hardy-weight", "--alpha", "0.75", "--epsilon", "0.5", "--count", "4"), 2),
            (("bounds", "--alpha", "1.25", "--m", "3", "--n", "4"), 2),
            (("hardy-check", "--alpha", "0.75", "--potential", "power:0.01:2"), 2),
        ],
        ids=lambda v: v[0] if isinstance(v, tuple) else str(v),
    )
    def test_every_csv_parses(self, capsys, argv, width):
        # kv blocks have two fields a row, tables their header's width, a
        # matrix its size; every number reads back as the float printed
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == width for row in rows)
        for field in (field for row in rows for field in row):
            try:
                value = float(field)
            except ValueError:
                continue
            assert f"{value:.17g}" == field


class TestExitCodes:
    def test_negative_digits_on_every_subcommand(self, capsys):
        # refused before the handler runs, so a placeholder fills each required flag
        for name, (_, _, arguments) in cli._COMMANDS.items():
            required = [x for flag, kwargs in arguments if kwargs.get("required") for x in (flag, "1")]
            for digits in (("--digits=-2",), ("--digits", "-2")):
                code, out, err = run_cli(capsys, name, *required, *digits)
                assert (code, out, err) == (1, "", "error: --digits must be >= 0, got -2\n"), name

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("bilap-lambda", "--n", "1", "--c", "nan"),
            ("bilap-lambda", "--n", "1", "--c", "inf"),
            ("bilap-lambda", "--n", "2", "--c", "inf"),
            ("bilap-lambda", "--n", "2", "--method", "small_c", "--c", "inf"),
            ("green", "--alpha", "0.75", "--m", "1", "--n", "1", "--lam", "nan"),
            ("bilap-green", "--m", "1", "--n", "1", "--lam", "nan"),
            ("hardy-check", "--alpha", "0.75", "--potential", "power:0.01:2", "--tail-terms", "0"),
            ("hardy-check", "--alpha", "1", "--potential", "classical_hardy", "--tail-terms", "0"),
            ("hardy-check", "--alpha", "0.75", "--potential", "power:0.01:2", "--tail-terms", "-5"),
            ("hardy-weight", "--alpha", "0.75", "--epsilon", "1e-300"),
            ("entry", "--alpha", "inf", "--m", "1", "--n", "1"),
            ("matrix", "--alpha", "inf", "--N", "3"),
            ("green", "--alpha", "inf", "--m", "1", "--n", "1", "--lam", "-1"),
            ("green", "--alpha", "nan", "--m", "1", "--n", "1", "--lam", "-1"),
            ("probe-reflected", "--alpha", "inf", "--c", "1", "--schedule", "5"),
            ("probe-reflected", "--alpha", "nan", "--c", "1", "--schedule", "5"),
            ("probe-min-eig", "--alpha", "inf", "--N", "5"),
            ("green", "--alpha", "0.75", "--m", "1", "--n", "1", "--lam", "-1", "--tol", "0"),
            ("green", "--alpha", "0.75", "--m", "1", "--n", "1", "--lam", "-1", "--tol", "nan"),
            ("green", "--alpha", "0.75", "--m", "1", "--n", "1", "--lam", "-1", "--tol", "-1"),
            ("green", "--alpha", "0.75", "--m", "1", "--n", "1", "--lam", "-1", "--tol", "inf"),
            # sizes beyond physical memory, refused before anything is allocated
            ("probe-min-eig", "--alpha", "1.5", "--N", "1000000000000", "--potential", "delta:1:0.1"),
            ("probe-min-eig", "--alpha", "2", "--N", "1000000000000"),
            ("probe-critical", "--alpha", "2", "--c", "1", "--schedule", "100000000000"),
            ("hardy-weight", "--alpha", "0.75", "--epsilon", "0.5", "--count", "100000000000"),
            ("hardy-weight", "--alpha", "0.75", "--epsilon", "0.5", "--count", "-3"),
            ("matrix", "--alpha", "0.5", "--N", "1000000"),
            # a series longer than its 2^30-term cap, refused before it is summed
            ("hardy-check", "--alpha", "0.75", "--potential", "power:0.01:2", "--tail-terms", "100000000000"),
            ("hardy-check", "--alpha", "0.75", "--potential", "delta:1:0.5", "--tail-terms", "2000000000"),
            # m + n beyond 2^52, where float64 stops holding indices exactly
            ("green", "--alpha", "0.75", "--m", "100000000000000000000", "--n", "1", "--lam", "-1"),
            ("entry", "--alpha", "-0.5", "--m", "100000000000000000000", "--n", "1"),
            ("entry", "--alpha", "-1", "--m", "9007199254740993", "--n", "9007199254740993"),
            # Gamma(alpha)^2 / Gamma(2 alpha) beyond float64
            ("bounds", "--alpha", "1e-310", "--m", "1", "--n", "1"),
            ("in", "--alpha", "1e-310", "--n", "1"),
            # geometric grid ends of opposite signs
            ("gn", "--alpha", "0.75", "--n", "logspace:1:-1:3"),
            # inputs whose float conversion or float power overflows (a huge
            # --n at alpha = 1/2 is left out: its odd harmonic sum loops n times)
            ("bounds", "--alpha", "0.75", "--m", HUGE, "--n", "1"),
            ("gn", "--alpha", "0.75", "--n", HUGE),
            ("in", "--alpha", "0.25", "--n", HUGE),
            ("bilap-green", "--m", HUGE, "--n", "1", "--lam", "-1"),
            ("hardy-check", "--alpha", "0.75", "--potential", f"delta:{HUGE}:0.5"),
            ("probe-min-eig", "--alpha", "2", "--N", "5", "--potential", f"delta:{HUGE}:0.5"),
            ("bilap-lambda", "--n", "1", "--c", "1e100", "--method", "small_c"),
            ("probe-critical", "--alpha", "1.5", "--c", "1.7e308", "--schedule", "10"),
            # potentials whose V_n, or whose term g_n V_n, overflows float64
            ("hardy-check", "--alpha", "0.75", "--potential", "power:1e300:-400"),
            ("hardy-check", "--alpha", "0.75", "--potential", "explicit:1e308,1e308"),
            ("probe-min-eig", "--alpha", "1.5", "--N", "5", "--potential", "power:1e300:-400"),
            # C(2 alpha, alpha) beyond float64 at a non-integer power
            ("entry", "--alpha", "600.5", "--m", "1", "--n", "1"),
            ("matrix", "--alpha", "600.5", "--N", "2"),
            ("probe-min-eig", "--alpha", "600.5", "--N", "5"),
            # argparse drops a "--" attached to its flag
            ("hardy-check", "--alpha", "0.75", "--potential=--"),
            ("entry", "--alpha=--", "--m", "1", "--n", "1"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_non_finite_and_out_of_range_inputs(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach stderr too
            code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, spec",
        [
            (("gn", "--alpha", "0.75", "--n", "1:20:0"), "1:20:0"),
            (("in", "--alpha", "0.75", "--n", "3:2:0", "--format", "csv"), "3:2:0"),
            (("probe-critical", "--alpha", "1.5", "--c", "1:2:0", "--schedule", "10"), "1:2:0"),
            (("gn", "--alpha", "0.75", "--n", "logspace:1:20:0"), "logspace:1:20:0"),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, tuple) else x,
    )
    def test_grid_count_of_zero(self, capsys, argv, spec):
        # refused as a negative count is, not run over an empty grid
        assert run_cli(capsys, *argv) == (1, "", f"error: bad grid spec {spec!r}\n")

    def test_potential_underflowing_to_zero(self, capsys):
        # n^400 overflows for n >= 6, where V_n = 1/n^400 underflows to 0, its value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "hardy-check", "--alpha", "0.75", "--potential", "power:1:400")
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["decision admissible", "partial_sum 3.2000000000000011"]

    def test_growing_power_potential_within_float64(self, capsys):
        # 1e-300 n^65 is at most 1e25 up to n = 10^5, though n^65 and n^-65 leave float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "hardy-check", "--alpha", "0.75", "--potential", "power:1e-300:-65")
        assert (code, err) == (0, "")
        lines = dict(line.split(" ") for line in out.splitlines())
        assert (lines["decision"], lines["tail_bound"]) == ("inconclusive", "inf")
        assert math.isfinite(float(lines["partial_sum"]))

    def test_potential_named_when_it_overflows(self, capsys):
        code, _, err = run_cli(
            capsys, "probe-min-eig", "--alpha", "1.5", "--N", "5", "--potential", "power:1e300:-400"
        )
        assert code == 1
        assert "power(coeff=1.0000000000000001e+300, exponent=-400)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("probe-min-eig", "--alpha", "1.5", "--N", "5", "--potential", "power:1:-400"),
            ("probe-min-eig", "--alpha", "300.5", "--N", "5"),
            # eigenvector entries whose squares underflow, on the band and low-rank paths
            ("probe-min-eig", "--alpha", "2", "--N", "5", "--potential", "explicit:1e308"),
            ("probe-min-eig", "--alpha", "1.5", "--N", "500", "--potential", "explicit:1e200"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_residual_beyond_the_squaring_range_converges(self, capsys, argv):
        # squared, the residual's entries leave float64; scaled first, its norm
        # is finite and the section converges, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        residual = float(out.split("residual ")[1].split()[0])
        assert math.isfinite(residual)
        assert out.endswith("converged true\n")

    @pytest.mark.parametrize("target", ["missing/x", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out(self, capsys, tmp_path, target):
        out_path = str(tmp_path / target)
        code, out, err = run_cli(capsys, "entry", "--alpha", "1", "--m", "1", "--n", "2", "--out", out_path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert out_path in err

    def test_non_finite_quadrature_is_non_convergence(self, capsys):
        # the reflected constant's integrand underflows to 1/0 at so small a power
        argv = ("probe-reflected", "--alpha", "1e-60", "--c", "1", "--schedule", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("numerical non-convergence:") and err.count("\n") == 1

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
