"""Cold start: each subcommand imports only the modules it uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraclap

_SRC = os.path.dirname(os.path.dirname(fraclap.__file__))

#: runs fraclap.cli.main(argv), or only ``import fraclap`` without argv,
#: in a fresh interpreter; prints the exit code and the loaded modules
_SCRIPT = """\
import contextlib, io, json, sys
import fraclap
code = None
if sys.argv[1:]:
    from fraclap import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
json.dump([code, sorted(sys.modules)], sys.stdout)
"""


def loaded_modules(*argv) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *argv], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stderr == ""
    code, modules = json.loads(proc.stdout)
    assert code in (None, 0)
    return set(modules)


def test_integer_entry_loads_no_scipy():
    modules = loaded_modules("entry", "--alpha", "1", "--m", "1", "--n", "2")
    assert not {m for m in modules if m == "scipy" or m.startswith(("scipy.", "mpmath"))}
    assert not {"fraclap.green", "fraclap.probes", "fraclap.bilaplacian"} & modules


@pytest.mark.parametrize(
    "argv",
    [
        ("entry", "--alpha", "1.5", "--m", "2", "--n", "3"),
        ("matrix", "--alpha", "1.5", "--N", "4"),
        ("green", "--alpha", "0.75", "--m", "2", "--n", "5", "--lam", "-0.5"),
        ("bounds", "--alpha", "1.25", "--m", "3", "--n", "4"),
        ("gn", "--alpha", "0.75", "--n", "1:20:5"),
        ("in", "--alpha", "0.75", "--n", "7"),
        ("hardy-check", "--alpha", "0.75", "--potential", "power:0.01:2"),
        # zeta(1 + epsilon), zeta' and the alpha = 1 Hurwitz tail are Euler-Maclaurin sums
        ("hardy-weight", "--alpha", "0.75", "--epsilon", "0.5"),
        ("hardy-check", "--alpha", "1", "--potential", "power:0.01:3"),
        ("bilap-green", "--m", "2", "--n", "3", "--lam", "-1"),
        ("bilap-lambda", "--n", "1", "--c", "1"),
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_no_root_finder_or_mpmath(argv):
    modules = loaded_modules(*argv)
    assert "scipy.optimize" not in modules
    assert "mpmath" not in modules
    assert "fraclap.probes" not in modules


def test_bilap_green_near_zero_loads_no_scipy():
    # expm1 and log1p of the small-gap kernel factor come from cmath's tanh and atanh
    modules = loaded_modules("bilap-green", "--m", "2", "--n", "3", "--lam=-1e-12")
    assert not {m for m in modules if m == "scipy" or m.startswith("scipy.")}


def test_site1_bound_state_loads_no_special():
    # the closed form needs numpy alone
    assert "scipy.special" not in loaded_modules("bilap-lambda", "--n", "1", "--c", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ("entry", "--alpha", "0.75", "--m", "2", "--n", "3"),
        ("matrix", "--alpha", "0.75", "--N", "4"),
        ("entry", "--alpha", "-0.5", "--m", "2", "--n", "3"),
        ("matrix", "--alpha", "-0.5", "--N", "4"),
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_non_integer_entries_load_no_scipy(argv):
    # c[k] and psi(k + 1/2) come from the Stirling kernel in numpy and math
    modules = loaded_modules(*argv)
    assert not {m for m in modules if m == "scipy" or m.startswith(("scipy.", "mpmath"))}


def test_no_library_module_imports_mpmath():
    # mpmath is a test oracle, not a dependency
    importers = []
    for path in sorted(Path(_SRC, "fraclap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name == "mpmath" or name.startswith("mpmath.") for name in names):
                importers.append(path.name)
    assert importers == []


@pytest.mark.parametrize(
    "argv",
    [
        ("gn", "--alpha", "0.5000001", "--n", "5"),
        ("hardy-check", "--alpha", "0.75", "--potential", "power:0.01:2"),
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_weight_sequence_loads_no_special(argv):
    # g_n needs numpy and math alone, next to 1/2 and 1 too
    assert not {"mpmath", "scipy.special"} & loaded_modules(*argv)


def test_shift_invert_probe_loads_no_sparse():
    # scipy.sparse.linalg would cost about 0.45 s of start-up on every probe
    modules = loaded_modules("probe-hardy", "--alpha", "0.5", "--epsilon", "0.5", "--schedule", "400,800")
    assert not {m for m in modules if m == "scipy.sparse" or m.startswith("scipy.sparse.")}


def test_well_formed_argv_loads_no_argparse():
    # parsed from the command table; argparse only prints help and usage errors.
    # An integer power loads no scipy, whose scipy.special loads argparse
    # (array_api_compat star-imports numpy, which loads numpy.testing)
    assert "argparse" not in loaded_modules("entry", "--alpha", "1", "--m", "1", "--n", "2")


def test_help_loads_no_library_module():
    modules = loaded_modules("--help")
    assert not {m for m in modules if m == "scipy" or m.startswith("scipy.")}
    assert {m for m in modules if m.startswith("fraclap.")} == {"fraclap.cli", "fraclap.quadrature"}


def test_package_import_loads_no_submodule():
    assert not {m for m in loaded_modules() if m.startswith(("fraclap.", "scipy", "mpmath"))}


def test_unknown_names_and_submodules():
    # the API is the submodules: the package itself exports no function
    for name in ("no_such_name", "entry"):
        with pytest.raises(AttributeError, match=name):
            getattr(fraclap, name)
    from fraclap import green

    assert green.__name__ == "fraclap.green"
