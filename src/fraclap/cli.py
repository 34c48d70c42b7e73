"""Command-line front end.

Every library operation is a subcommand with flag-only configuration, so
each run is self-describing and, for a fixed BLAS thread count,
byte-for-byte reproducible.  Non-integer-power probes, dense and low-rank
alike, depend on the thread count: their printed eigenvalues and
residuals differ in trailing digits between one and two OpenBLAS threads.
Exit codes: 0 success, 1 validation error, 2 numerical non-convergence.
Only this module turns results into text: CSV is quoted by the csv module,
CSV and plain text print --digits significant digits, JSON full floats.
Scans print JSON under --format plain; a scalar prints as one number.
A well-formed argv is parsed straight from the command table; argparse is
imported only for help, abbreviations and usage errors.
"""

from __future__ import annotations

import io
import json
import sys
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import quadrature


class CliError(ValueError):
    pass


def _fmt(value, digits: int) -> str:
    if isinstance(value, complex):
        return f"{value.real:.{digits}g}{value.imag:+.{digits}g}j"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def parse_grid(spec: str) -> list[float]:
    """Value grids: single number, comma list, start:stop:count, logspace:a:b:k."""
    try:
        if spec.startswith("logspace:"):
            _, a, b, k = spec.split(":")
            # ends of opposite signs: numpy's log10 of the negative end is invalid
            with np.errstate(invalid="raise"):
                grid = [float(v) for v in np.geomspace(float(a), float(b), int(k))]
        elif "," in spec:
            grid = [float(x) for x in spec.split(",")]
        elif ":" in spec:
            a, b, k = spec.split(":")
            grid = [float(v) for v in np.linspace(float(a), float(b), int(k))]
        else:
            grid = [float(spec)]
    except (ValueError, TypeError, FloatingPointError) as exc:
        raise CliError(f"bad grid spec {spec!r}") from exc
    if not grid:  # a count of 0 would compute nothing and exit 0
        raise CliError(f"bad grid spec {spec!r}")
    return grid


def parse_schedule(spec: str) -> tuple[int, ...]:
    try:
        sched = tuple(int(x) for x in spec.split(","))
    except ValueError as exc:
        raise CliError(f"bad schedule spec {spec!r}") from exc
    if not sched or any(n < 1 for n in sched):
        raise CliError(f"bad schedule spec {spec!r}")
    return sched


def _schedule(args) -> tuple[int, ...]:
    """The --schedule flag, or the probes' default schedule without it."""
    from . import probes

    return probes.DEFAULT_SCHEDULE if args.schedule is None else parse_schedule(args.schedule)


def parse_potential(spec: str) -> green.Potential:
    """Potential specs: classical_hardy | kpp | zero | delta:site:c |
    power:coeff:exponent | explicit:v1,v2,...[:finite]"""
    from . import green

    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "classical_hardy" and len(parts) == 1:
            return green.Potential.classical_hardy()
        if kind == "kpp" and len(parts) == 1:
            return green.Potential.kpp()
        if kind == "zero" and len(parts) == 1:
            return green.Potential.zero()
        if kind == "delta" and len(parts) == 3:
            return green.Potential.delta(int(parts[1]), float(parts[2]))
        if kind == "power" and len(parts) == 3:
            return green.Potential.power(float(parts[1]), float(parts[2]))
        if kind == "explicit" and len(parts) in (2, 3):
            finite = len(parts) == 3 and parts[2] == "finite"
            vals = [float(v) for v in parts[1].split(",")]
            return green.Potential.explicit(vals, finitely_supported=finite)
    except ValueError as exc:
        raise CliError(f"bad potential spec {spec!r}: {exc}") from exc
    raise CliError(f"bad potential spec {spec!r}")


def _parse_lambda(text: str):
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text)
    except ValueError as exc:
        raise CliError(f"bad lambda {text!r}") from exc


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write --out {out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _kv_block(pairs, fmt: str, digits: int) -> str:
    if fmt == "json":
        return json.dumps(
            {k: (float(v) if isinstance(v, float) else v) for k, v in pairs}, indent=2
        )
    return _table(None, pairs, fmt, digits)


def _table(header, rows, fmt: str, digits: int) -> str:
    """Rows as JSON objects keyed by the header, or as CSV or plain text of
    --digits significant digits; a header of None prints the rows alone."""
    if fmt == "json":
        return json.dumps(
            [dict(zip(header, row)) for row in rows], indent=2, default=float
        )
    rows = ([_fmt(v, digits) for v in row] for row in rows)
    if fmt == "plain":
        return "\n".join(" ".join(row) for row in rows)
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (output text, exit code)


def _cmd_entry(args):
    from . import operators

    return _fmt(operators.entry(args.alpha, args.m, args.n), args.digits), 0


def _cmd_matrix(args):
    from . import operators

    # the printed text and its Python floats: up to 154 bytes an entry traced (JSON)
    operators.check_memory(160 * args.N**2, f"printing a {args.N} x {args.N} section")
    mat = operators.assemble(args.alpha, args.N)
    if args.format == "json":
        return json.dumps({"alpha": args.alpha, "size": args.N, "entries": mat.tolist()}), 0
    return _table(None, mat.tolist(), args.format, args.digits), 0


def _cmd_green(args):
    from . import green

    val = green.green_entry(args.alpha, args.m, args.n, _parse_lambda(args.lam), args.tol)
    return _fmt(val, args.digits), 0


def _cmd_grid(function: str, column: str, args):
    from . import green

    func = getattr(green, function)
    ns = [int(v) for v in parse_grid(args.n)]
    if len(ns) == 1:
        return _fmt(func(args.alpha, ns[0]), args.digits), 0
    rows = list(zip(ns, func(args.alpha, np.array(ns, dtype=float)).tolist()))
    return _table(["n", column], rows, args.format, args.digits), 0


def _cmd_bounds(args):
    from . import green

    pairs = [
        ("C_alpha", green.rough_bound_const(args.alpha)),
        ("rough", green.uniform_bound_rough(args.alpha, args.m, args.n)),
        ("refined", green.uniform_bound_refined(args.alpha, args.m, args.n)),
    ]
    return _kv_block(pairs, args.format, args.digits), 0


def _cmd_hardy_check(args):
    from . import green

    res = green.theorem2_check(args.alpha, parse_potential(args.potential), args.tail_terms)
    pairs = [
        ("decision", res.decision),
        ("partial_sum", res.partial_sum),
        ("tail_bound", res.tail_bound),
        ("threshold", res.threshold),
    ]
    return _kv_block(pairs, args.format, args.digits), 0


def _cmd_hardy_weight(args):
    from . import green, operators

    pot = green.power_hardy_weight(args.alpha, args.epsilon)
    pairs = [("coeff", pot.coeff), ("exponent", pot.exponent)]
    if args.count < 0:
        raise CliError(f"--count must be >= 0, got {args.count}")
    if args.count:
        # up to 875 bytes of text and Python objects a row traced (JSON)
        operators.check_memory(1024 * args.count, f"a table of {args.count} values")
        vals = pot.values(args.count)
        rows = [(n + 1, float(v)) for n, v in enumerate(vals)]
        return _table(["n", "V_n"], rows, args.format, args.digits), 0
    return _kv_block(pairs, args.format, args.digits), 0


def _cmd_bilap_green(args):
    from . import bilaplacian

    val = bilaplacian.green_entry(args.m, args.n, _parse_lambda(args.lam))
    return _fmt(val, args.digits), 0


def _cmd_bilap_lambda(args):
    from . import bilaplacian

    method = args.method
    if method == "auto":
        method = "closed" if args.n == 1 else "implicit"
    if method == "closed":
        if args.n != 1:
            raise CliError("closed form available for site 1 only")
        val = bilaplacian.lambda_site1_closed(args.c)
    elif method == "implicit":
        val = bilaplacian.lambda_bound_state(args.n, args.c)
    else:
        val = bilaplacian.lambda_asymptotic(args.n, args.c, method)
    return _fmt(val, args.digits), 0


def _cmd_probe_min_eig(args):
    from . import probes

    res = probes.min_eig(args.alpha, args.N, parse_potential(args.potential))
    pairs = [
        ("alpha", res.alpha),
        ("N", res.size),
        ("potential", res.potential),
        ("min_eig", res.min_eigenvalue),
        ("residual", res.residual),
        ("converged", res.converged),
    ]
    return _kv_block(pairs, args.format, args.digits), 0 if res.converged else 2


def _records_out(records, fmt: str, digits: int) -> str:
    """Scan records as one CSV row per section, else as JSON (plain too):
    one object for one record, a list for several."""
    if fmt != "csv":
        payload = [rec.to_dict() for rec in records]
        return json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
    header = ("alpha", "potential", "N", "min_eig", "residual", "verdict")
    rows = (
        (rec.alpha, rec.potential, r.size, r.min_eigenvalue, r.residual, rec.verdict)
        for rec in records
        for r in rec.schedule
    )
    return _table(header, rows, fmt, digits)


def _cmd_probe_critical(args):
    from . import probes

    records = probes.criticality_scan(args.alpha, args.site, parse_grid(args.c), _schedule(args))
    return _records_out(records, args.format, args.digits), 0


def _cmd_probe_hardy(args):
    from . import probes

    rec = probes.hardy_witness(args.alpha, args.epsilon, _schedule(args))
    return _records_out([rec], args.format, args.digits), 0


def _cmd_probe_reflected(args):
    from . import probes

    rec = probes.reflected_witness(args.alpha, args.c, args.site, _schedule(args))
    return _records_out([rec], args.format, args.digits), 0


def _cmd_probe_kpp(args):
    from . import probes

    rec = probes.kpp_witness(_schedule(args))
    return _records_out([rec], args.format, args.digits), 0


def _cmd_selftest(args):
    from . import selfcheck

    results = selfcheck.run_all()
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  [{r.detail}]" if r.detail else ""
        lines.append(
            f"{r.name:<24} {status}  worst={r.worst:.3e}  tol={r.tolerance:.1e}{extra}"
        )
    ok = all(r.passed for r in results)
    lines.append(f"{'overall':<24} {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines), 0 if ok else 1


# ---------------------------------------------------------------------------


_ALPHA = ("--alpha", dict(type=float, required=True))
_M = ("--m", dict(type=int, required=True))
_N = ("--n", dict(type=int, required=True))
_SIZE = ("--N", dict(type=int, required=True))
_N_GRID = ("--n", dict(required=True, help="index or grid spec"))
_LAM = ("--lam", dict(required=True))
_SCHEDULE = ("--schedule", dict(default=None))
_METHODS = ("auto", "closed", "implicit", "small_c", "large_c")
#: the flags every subcommand takes first
_COMMON = (
    ("--digits", dict(type=int, default=17)),
    ("--format", dict(choices=("csv", "json", "plain"), default="plain")),
    ("--out", dict(default=None)),
)

#: name -> (handler, help, (flag, add_argument keywords) after the common flags)
_COMMANDS = {
    "entry": (_cmd_entry, "matrix entry of a power of the Laplacian", (_ALPHA, _M, _N)),
    "matrix": (_cmd_matrix, "finite section of a power", (_ALPHA, _SIZE)),
    "green": (
        _cmd_green,
        "resolvent entry by quadrature",
        (_ALPHA, _M, _N, _LAM, ("--tol", dict(type=float, default=1e-12))),
    ),
    "gn": (partial(_cmd_grid, "g_weight", "g_n"), "weight sequence value(s)", (_ALPHA, _N_GRID)),
    "in": (
        partial(_cmd_grid, "weighted_sq_integral", "I_n"),
        "weighted Chebyshev moment value(s)",
        (_ALPHA, _N_GRID),
    ),
    "bounds": (_cmd_bounds, "uniform resolvent bounds", (_ALPHA, _M, _N)),
    "hardy-check": (
        _cmd_hardy_check,
        "sufficient admissibility test",
        (
            _ALPHA,
            ("--potential", dict(required=True)),
            ("--tail-terms", dict(type=int, default=100_000)),
        ),
    ),
    "hardy-weight": (
        _cmd_hardy_weight,
        "explicit power Hardy weight",
        (
            _ALPHA,
            ("--epsilon", dict(type=float, required=True)),
            ("--count", dict(type=int, default=0, help="emit the first N values")),
        ),
    ),
    "bilap-green": (_cmd_bilap_green, "squared-Laplacian resolvent entry", (_M, _N, _LAM)),
    "bilap-lambda": (
        _cmd_bilap_lambda,
        "single-site bound state",
        (
            ("--n", dict(type=int, required=True, help="coupling site")),
            ("--c", dict(type=float, required=True)),
            ("--method", dict(choices=_METHODS, default="auto")),
        ),
    ),
    "probe-min-eig": (
        _cmd_probe_min_eig,
        "smallest finite-section eigenvalue",
        (_ALPHA, _SIZE, ("--potential", dict(default="zero"))),
    ),
    "probe-critical": (
        _cmd_probe_critical,
        "criticality dichotomy scan",
        (
            _ALPHA,
            ("--site", dict(type=int, default=1)),
            ("--c", dict(required=True, help="coupling grid spec")),
            _SCHEDULE,
        ),
    ),
    "probe-hardy": (
        _cmd_probe_hardy,
        "explicit Hardy weight witness",
        (_ALPHA, ("--epsilon", dict(type=float, required=True)), _SCHEDULE),
    ),
    "probe-reflected": (
        _cmd_probe_reflected,
        "reflected operator witness",
        (
            _ALPHA,
            ("--c", dict(type=float, required=True)),
            ("--site", dict(type=int, default=1)),
            _SCHEDULE,
        ),
    ),
    "probe-kpp": (_cmd_probe_kpp, "improved square-root weight witness", (_SCHEDULE,)),
    "selftest": (_cmd_selftest, "formula-vs-oracle suites with pass/fail table", ()),
}


def _build_parser():
    """The full argparse parser, which prints help and every usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="Fractional powers of the discrete half-line Laplacian: "
        "entries, Green kernels, Hardy weights, spectral probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        for flag, kwargs in _COMMON + arguments:
            p.add_argument(flag, **kwargs)
    return parser


def _attach_negative_lambda(argv: list[str]) -> list[str]:
    """``--lam -1e-3`` as ``--lam=-1e-3``, also for abbreviations such as --la.

    argparse reads a value with a leading minus as an option unless it
    looks like -1 or -1.5, so an exponent or a complex value such as -1-1j
    would leave --lam without its argument.
    """
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and "--lam".startswith(flag) and arg.startswith("-"):
            try:
                _parse_lambda(arg)
                out[-1] = f"{flag}={arg}"
                continue
            except CliError:
                pass
        out.append(arg)
    return out


def _table_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed argv, read from _COMMANDS.

    Well-formed: a command, then only exact flags, each as --flag=value
    (value not --) or as --flag value (value not starting with -), whose
    values convert and lie in their choices, with every required flag; a
    repeated flag keeps its last value.  Anything else gives None: an
    abbreviation, a negative value as its own argument, -h, an extra token.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, arguments = _COMMANDS[argv[0]]
    flags = dict(_COMMON + arguments)
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, attached, text = token.partition("=")
        if not attached:
            text = next(tokens, "-")  # a missing value is declined like a negative one
        if flag not in flags or (text == "--" if attached else text.startswith("-")):
            return None
        kwargs = flags[flag]
        try:
            value = kwargs.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[flag] = value
    for flag, kwargs in flags.items():
        if flag not in values:
            if kwargs.get("required"):
                return None
            values[flag] = kwargs.get("default")
    dests = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=argv[0], handler=handler, **dests)


def _parse_args(argv: list[str]):
    """Parses a well-formed argv from the command table, any other with argparse.

    Only the full argparse parser prints help and usage errors, so every
    argv gets the output, and the exit code, it would get from that parser.
    """
    if argv and argv[0] in _COMMANDS and _LAM in _COMMANDS[argv[0]][2]:
        argv = _attach_negative_lambda(argv)
    return _table_args(argv) or _build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; the contract says 1
        return 0 if exc.code == 0 else 1
    try:
        # CPython 3.11 argparse drops the value of --flag=--, leaving []
        empty = [dest for dest, value in vars(args).items() if value == []]
        if empty:
            raise CliError(f"argument --{empty[0].replace('_', '-')}: expected one argument")
        if args.digits < 0:
            raise CliError(f"--digits must be >= 0, got {args.digits}")
        text, code = args.handler(args)
        _emit(text, args.out)
    except (CliError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OverflowError as exc:  # an input too large for a float or a float power
        sys.stderr.write(f"error: numeric overflow: {exc}\n")
        return 1
    except quadrature.QuadratureError as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
