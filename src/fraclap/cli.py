"""Command-line front end.

Every library operation is a subcommand with flag-only configuration, so
each run is self-describing and, for a fixed BLAS thread count,
byte-for-byte reproducible.  Dense eigen-solves and their residuals
depend on the thread count: their printed eigenvalues, extrapolations and
residuals differ in trailing digits between one and two OpenBLAS threads.
Exit codes: 0 success, 1 validation error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import bilaplacian, green, operators, probes, quadrature, selfcheck

DEFAULT_SCHEDULE = ",".join(map(str, probes.DEFAULT_SCHEDULE))


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
            return [float(v) for v in np.geomspace(float(a), float(b), int(k))]
        if "," in spec:
            return [float(x) for x in spec.split(",")]
        if ":" in spec:
            a, b, k = spec.split(":")
            return [float(v) for v in np.linspace(float(a), float(b), int(k))]
        return [float(spec)]
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad grid spec {spec!r}") from exc


def parse_schedule(spec: str) -> tuple[int, ...]:
    try:
        sched = tuple(int(x) for x in spec.split(","))
    except ValueError as exc:
        raise CliError(f"bad schedule spec {spec!r}") from exc
    if not sched or any(n < 1 for n in sched):
        raise CliError(f"bad schedule spec {spec!r}")
    return sched


def parse_potential(spec: str) -> green.Potential:
    """Potential specs: classical_hardy | kpp | zero | delta:site:c |
    power:coeff:exponent | explicit:v1,v2,...[:finite]"""
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
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _kv_block(pairs, fmt: str, digits: int) -> str:
    if fmt == "json":
        return json.dumps(
            {k: (float(v) if isinstance(v, float) else v) for k, v in pairs}, indent=2
        )
    sep = "," if fmt == "csv" else " "
    return "\n".join(f"{k}{sep}{_fmt(v, digits)}" for k, v in pairs)


def _table(header, rows, fmt: str, digits: int) -> str:
    if fmt == "json":
        return json.dumps(
            [dict(zip(header, row)) for row in rows], indent=2, default=float
        )
    sep = "," if fmt == "csv" else " "
    lines = [sep.join(header)] if fmt == "csv" else []
    lines += [sep.join(_fmt(v, digits) for v in row) for row in rows]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (output text, exit code)


def _cmd_entry(args):
    return _fmt(operators.entry(args.alpha, args.m, args.n), args.digits), 0


def _cmd_matrix(args):
    op = operators.assemble(args.alpha, args.N)
    if args.format == "json":
        return (
            json.dumps(
                {"alpha": args.alpha, "size": op.size, "entries": op.entries.tolist()}
            ),
            0,
        )
    if args.format == "csv":
        buf = io.StringIO()
        operators.save_matrix_csv(op, buf)
        return buf.getvalue(), 0
    rows = "\n".join(
        " ".join(_fmt(float(v), args.digits) for v in row) for row in op.entries
    )
    return rows, 0


def _cmd_green(args):
    val = green.green_entry(args.alpha, args.m, args.n, _parse_lambda(args.lam), args.tol)
    return _fmt(val, args.digits), 0


def _cmd_gn(args):
    ns = [int(v) for v in parse_grid(args.n)]
    if len(ns) == 1:
        return _fmt(green.g_weight(args.alpha, ns[0]), args.digits), 0
    rows = [(n, green.g_weight(args.alpha, n)) for n in ns]
    return _table(["n", "g_n"], rows, args.format, args.digits), 0


def _cmd_in(args):
    ns = [int(v) for v in parse_grid(args.n)]
    if len(ns) == 1:
        return _fmt(green.weighted_sq_integral(args.alpha, ns[0]), args.digits), 0
    rows = [(n, green.weighted_sq_integral(args.alpha, n)) for n in ns]
    return _table(["n", "I_n"], rows, args.format, args.digits), 0


def _cmd_bounds(args):
    pairs = [
        ("C_alpha", green.rough_bound_const(args.alpha)),
        ("rough", green.uniform_bound_rough(args.alpha, args.m, args.n)),
        ("refined", green.uniform_bound_refined(args.alpha, args.m, args.n)),
    ]
    return _kv_block(pairs, args.format, args.digits), 0


def _cmd_hardy_check(args):
    res = green.theorem2_check(args.alpha, parse_potential(args.potential), args.tail_terms)
    pairs = [
        ("decision", res.decision),
        ("partial_sum", res.partial_sum),
        ("tail_bound", res.tail_bound),
        ("threshold", res.threshold),
    ]
    return _kv_block(pairs, args.format, args.digits), 0


def _cmd_hardy_weight(args):
    pot = green.power_hardy_weight(args.alpha, args.epsilon)
    pairs = [("coeff", pot.coeff), ("exponent", pot.exponent)]
    if args.count:
        vals = pot.values(args.count)
        rows = [(n + 1, float(v)) for n, v in enumerate(vals)]
        return _table(["n", "V_n"], rows, args.format, args.digits), 0
    return _kv_block(pairs, args.format, args.digits), 0


def _cmd_bilap_green(args):
    val = bilaplacian.green_entry(args.m, args.n, _parse_lambda(args.lam))
    return _fmt(val, args.digits), 0


def _cmd_bilap_lambda(args):
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


def _records_out(records, fmt: str) -> str:
    if fmt == "csv":
        return probes.records_to_csv(records)
    return probes.records_to_json(records)


def _cmd_probe_critical(args):
    records = probes.criticality_scan(
        args.alpha, args.site, parse_grid(args.c), parse_schedule(args.schedule)
    )
    return _records_out(records, args.format), 0


def _cmd_probe_hardy(args):
    rec = probes.hardy_witness(args.alpha, args.epsilon, parse_schedule(args.schedule))
    return _records_out([rec], args.format), 0


def _cmd_probe_reflected(args):
    rec = probes.reflected_witness(
        args.alpha, args.c, args.site, parse_schedule(args.schedule)
    )
    return _records_out([rec], args.format), 0


def _cmd_probe_kpp(args):
    rec = probes.kpp_witness(parse_schedule(args.schedule))
    return _records_out([rec], args.format), 0


def _cmd_selftest(args):
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="Fractional powers of the discrete half-line Laplacian: "
        "entries, Green kernels, Hardy weights, spectral probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--digits", type=int, default=17)
        p.add_argument("--format", choices=("csv", "json", "plain"), default="plain")
        p.add_argument("--out", default=None)
        return p

    p = add("entry", _cmd_entry, help="matrix entry of a power of the Laplacian")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("matrix", _cmd_matrix, help="finite section of a power")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--N", type=int, required=True)

    p = add("green", _cmd_green, help="resolvent entry by quadrature")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    p = add("gn", _cmd_gn, help="weight sequence value(s)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", required=True, help="index or grid spec")

    p = add("in", _cmd_in, help="weighted Chebyshev moment value(s)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", required=True, help="index or grid spec")

    p = add("bounds", _cmd_bounds, help="uniform resolvent bounds")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("hardy-check", _cmd_hardy_check, help="sufficient admissibility test")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--potential", required=True)
    p.add_argument("--tail-terms", type=int, default=100_000)

    p = add("hardy-weight", _cmd_hardy_weight, help="explicit power Hardy weight")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--count", type=int, default=0, help="emit the first N values")

    p = add("bilap-green", _cmd_bilap_green, help="squared-Laplacian resolvent entry")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True)

    p = add("bilap-lambda", _cmd_bilap_lambda, help="single-site bound state")
    p.add_argument("--n", type=int, required=True, help="coupling site")
    p.add_argument("--c", type=float, required=True)
    p.add_argument(
        "--method",
        choices=("auto", "closed", "implicit", "small_c", "large_c"),
        default="auto",
    )

    p = add("probe-min-eig", _cmd_probe_min_eig, help="smallest finite-section eigenvalue")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--potential", default="zero")

    p = add("probe-critical", _cmd_probe_critical, help="criticality dichotomy scan")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--site", type=int, default=1)
    p.add_argument("--c", required=True, help="coupling grid spec")
    p.add_argument("--schedule", default=DEFAULT_SCHEDULE)

    p = add("probe-hardy", _cmd_probe_hardy, help="explicit Hardy weight witness")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--schedule", default=DEFAULT_SCHEDULE)

    p = add("probe-reflected", _cmd_probe_reflected, help="reflected operator witness")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--site", type=int, default=1)
    p.add_argument("--schedule", default=DEFAULT_SCHEDULE)

    p = add("probe-kpp", _cmd_probe_kpp, help="improved square-root weight witness")
    p.add_argument("--schedule", default=DEFAULT_SCHEDULE)

    add("selftest", _cmd_selftest, help="formula-vs-oracle suites with pass/fail table")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; the contract says 1
        return 0 if exc.code == 0 else 1
    try:
        text, code = args.handler(args)
    except (CliError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except quadrature.QuadratureError as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return 2
    _emit(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
