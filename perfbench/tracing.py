"""Per-layer spans recorded by wrapping fraclap module attributes.

The wrappers live here, in the benchmark, and are installed only for a
traced run; the library itself is not changed.  Each span accumulates its
self time: its wall time minus the part covered by deeper traced spans.
So the self times of all spans in a job, the job's own root span
(``cli.self``) included, add up to the job's wall time.

Counters (calls, bytes, integrand evaluations, root evaluations) are
computed at the same boundaries.  Bytes are computed, not measured:
8*N^2 per dense N x N section handed to an assembler or eigen-solver.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import partial


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []  # child time covered, per open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans = 0

    def job(self, fn, *args):
        """Runs one job under the root span ``cli.self``; only jobs are traced."""
        return self._span("cli.self", fn, *args)

    def call(self, name, fn, *args, **kwargs):
        if not self._stack:  # outside a job, e.g. the benchmark's own checks
            return fn(*args, **kwargs)
        return self._span(name, fn, *args, **kwargs)

    def count(self, name: str, amount: int) -> None:
        if self._stack:
            self.counts[name] += amount

    def _span(self, name, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[name] += dt - frame[0]
            if self._stack:
                self._stack[-1][0] += dt
            self.counts[name + ".calls"] += 1
            self.spans += 1


def _section_bytes(size: int) -> int:
    return 8 * int(size) ** 2


def install(tracer: Tracer, fraclap_modules) -> list[tuple[object, str, object]]:
    """Wrap the layer boundaries; returns what :func:`uninstall` restores."""
    bilaplacian, green, operators, probes, quadrature, selfcheck = fraclap_modules
    saved = []

    def replace(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def spanned(module, attr, name, nbytes=None):
        fn = getattr(module, attr)

        def wrapped(*args, **kwargs):
            if nbytes is not None:
                tracer.count(name + ".bytes", nbytes(*args, **kwargs))
            return tracer.call(name, fn, *args, **kwargs)

        replace(module, attr, wrapped)

    def assembled(alpha, size, *_, **__):
        return _section_bytes(size)

    def dense_input(mat, *_, **__):
        return _section_bytes(mat.shape[0])

    # probes binds the LAPACK drivers by name, so wrap them where they are bound
    spanned(probes, "eigh", "probes.eigensolve.dense", dense_input)
    spanned(probes, "eig_banded", "probes.eigensolve.banded")
    for attr in ("min_eig", "criticality_scan", "hardy_witness", "reflected_witness", "kpp_witness"):
        spanned(probes, attr, "probes.self")
    spanned(probes, "solve_bs_lambda", "probes.solve_bs_lambda")

    green_diag = probes._green_diag  # one call per Birman-Schwinger root evaluation

    def counted_green_diag(*args, **kwargs):
        tracer.count("probes.solve_bs_lambda.root_evals", 1)
        return green_diag(*args, **kwargs)

    replace(probes, "_green_diag", counted_green_diag)

    spanned(operators, "assemble", "operators.assemble", assembled)
    spanned(operators, "assemble_reflected", "operators.assemble", assembled)
    spanned(operators, "entry_oracle", "operators.entry_oracle")

    integrate_theta = quadrature.integrate_theta

    def counted_integrate_theta(g, *args, **kwargs):
        def counted_g(theta):
            tracer.count("quadrature.integrand_evals", theta.size)
            return g(theta)

        return tracer.call("quadrature.integrate_theta", integrate_theta, counted_g, *args, **kwargs)

    replace(quadrature, "integrate_theta", counted_integrate_theta)

    spanned(green, "theorem2_check", "green.theorem2_check")
    spanned(green, "green_entry", "green.green_entry")
    spanned(bilaplacian, "lambda_bound_state", "bilaplacian.lambda_bound_state")
    spanned(bilaplacian, "green_entry", "bilaplacian.green_entry")

    # run_all iterates this tuple, so the suites are wrapped inside it
    replace(
        selfcheck,
        "ALL_SUITES",
        tuple(
            partial(tracer.call, "selfcheck." + suite.__name__.removeprefix("suite_"), suite)
            for suite in selfcheck.ALL_SUITES
        ),
    )
    return saved


def uninstall(saved) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
