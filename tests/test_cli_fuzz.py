"""Exit-code contract under fuzzed flag values.

Every argv must exit 0, 1 or 2 without an exception, a traceback or a
warning, and a successful run writes nothing to stderr.  Values are drawn
per flag: numbers, non-finite and out-of-range values, negatives, garbage
text and small sizes.  A second strategy draws one flag at a time and
keeps the others at valid values, so that the drawn value, an extreme one
included, reaches the computation behind validation.  Sizes stay small so
that every subcommand runs in milliseconds; sizes beyond physical memory
are covered by ``test_cli.TestExitCodes``.  ``selftest`` takes no input and is covered by
the fixed command set.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fraclap.cli import main
from test_cli import table_parse

GARBAGE = st.sampled_from(["", "x", "1e", "--", "1,2", "0x10", "1:2", " ", "1_0", "j"])
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "-nan", "1e400", "-1e400"])
REAL = st.floats(-4.0, 4.0).map(repr) | st.sampled_from(
    ["0", "-0", "0.5", "0.75", "1", "1.25", "1.5", "2", "-0.5", "-1", "1e-300", "1e-9"]
)
NUMBER = REAL | REAL | NON_FINITE | GARBAGE
SIZE = st.integers(-3, 40).map(str) | st.sampled_from(["0", "1", "2", "1.5", "nan"]) | GARBAGE
LAMBDA = NUMBER | st.sampled_from(["-1-1j", "1j", "2+0j", "-0.5+1e-9j", "nanj", "1e40", "1e300", "5-1e40j"])


def _joined(elements, sep: str = ","):
    return st.lists(elements, min_size=1, max_size=3).map(sep.join)


GRID = (
    SIZE
    | _joined(st.integers(-3, 40).map(str))
    | st.builds("{}:{}:{}".format, st.integers(-3, 40), st.integers(-3, 40), st.integers(-1, 4))
    | st.builds("logspace:{}:{}:{}".format, REAL, REAL, st.integers(-1, 4))
)
#: potential values and exponents whose V_n or g_n V_n leaves float64
EXTREME = st.sampled_from(["400", "-400", "1e300", "1e308", "1.7976931348623157e308"])
POTENTIAL = st.one_of(
    st.sampled_from(["zero", "classical_hardy", "kpp", "delta:1", "power:1", "wavelet"]),
    st.builds("delta:{}:{}".format, SIZE, NUMBER | EXTREME),
    st.builds("power:{}:{}".format, NUMBER | EXTREME, NUMBER | EXTREME),
    st.builds("explicit:{}{}".format, _joined(NUMBER | EXTREME), st.sampled_from(["", ":finite", ":x"])),
    GARBAGE,
)
SCHEDULE = _joined(st.integers(-1, 40).map(str)) | GARBAGE

ALPHA = ("--alpha", NUMBER)
#: a non-integer power whose entries leave float64
HUGE_ALPHA = "600.5"
M, N = ("--m", SIZE), ("--n", SIZE)

#: subcommand -> its flags and the strategy of each flag's value
FLAGS = {
    "entry": [ALPHA, M, N],
    "matrix": [ALPHA, ("--N", SIZE)],
    "green": [ALPHA, M, N, ("--lam", LAMBDA), ("--tol", NUMBER)],
    "gn": [ALPHA, ("--n", GRID)],
    "in": [ALPHA, ("--n", GRID)],
    "bounds": [ALPHA, M, N],
    "hardy-check": [ALPHA, ("--potential", POTENTIAL), ("--tail-terms", SIZE)],
    "hardy-weight": [ALPHA, ("--epsilon", NUMBER), ("--count", SIZE)],
    "bilap-green": [M, N, ("--lam", LAMBDA)],
    "bilap-lambda": [
        N,
        ("--c", NUMBER),
        ("--method", st.sampled_from(["auto", "closed", "implicit", "small_c", "large_c", "nope"])),
    ],
    "probe-min-eig": [ALPHA, ("--N", SIZE), ("--potential", POTENTIAL)],
    "probe-critical": [ALPHA, ("--site", SIZE), ("--c", _joined(NUMBER)), ("--schedule", SCHEDULE)],
    "probe-hardy": [ALPHA, ("--epsilon", NUMBER), ("--schedule", SCHEDULE)],
    "probe-reflected": [ALPHA, ("--c", NUMBER), ("--site", SIZE), ("--schedule", SCHEDULE)],
    "probe-kpp": [("--schedule", SCHEDULE)],
}
#: a valid value of every flag; with these, probe-min-eig runs on the dense path
VALID = {
    "--alpha": "0.75",
    "--m": "1",
    "--n": "2",
    "--N": "5",
    "--lam": "-1",
    "--tol": "1e-10",
    "--epsilon": "0.5",
    "--count": "5",
    "--potential": "delta:1:0.5",
    "--tail-terms": "100",
    "--c": "0.5",
    "--method": "auto",
    "--site": "1",
    "--schedule": "5,10",
}
COMMON = [
    ("--digits", st.integers(-2, 20).map(str) | GARBAGE),
    ("--format", st.sampled_from(["plain", "csv", "json", "xml"])),
]


@st.composite
def argvs(draw, command):
    argv = [command]
    for flag, values in FLAGS[command]:
        # "--lam=-1e-3": a value with a leading minus is attached to its flag
        argv.append(f"{flag}={draw(values)}")
    for flag, values in COMMON:
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


@st.composite
def one_flag_argvs(draw, command):
    """argv with one flag drawn from its values, or --alpha=600.5, and every other flag valid."""
    flags = FLAGS[command]
    choices = flags + [("--alpha", st.just(HUGE_ALPHA))] if ALPHA in flags else flags
    drawn, values = draw(st.sampled_from(choices))
    return [command] + [
        f"{flag}={draw(values) if flag == drawn else VALID[flag]}" for flag, _ in flags
    ]


FUZZ = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _check_contract(argv):
    table_parse(argv)  # None, or the namespace argparse gives
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not [str(w.message) for w in caught]
    if code == 0:
        assert err.getvalue() == ""


@pytest.mark.parametrize("command", sorted(FLAGS))
@FUZZ
@given(data=st.data())
def test_exit_code_contract(command, data):
    _check_contract(data.draw(argvs(command), label="argv"))


@pytest.mark.parametrize("command", sorted(FLAGS))
@FUZZ
@given(data=st.data())
def test_one_flag_exit_code_contract(command, data):
    _check_contract(data.draw(one_flag_argvs(command), label="argv"))
