"""The benchmark's workloads: seeded CLI argv lists and their output checks.

A workload is a cycle of jobs; each job is one ``fraclap`` command line.
The seed picks couplings, epsilons, sites and oracle-batch parameters; the
exponents alpha and the section sizes N are fixed, so the work in a cycle
does not depend on the seed.  Every cycle of a run repeats the same argv
list, which makes per-cycle counters repeat exactly.

Sections stop at N = 1000 (8 MB dense), inside the host's 32 MB L3.
Larger sections are memory-bound: on a shared host their times follow the
neighbours' memory traffic (a single N = 4000 eigen-solve moved between
2.2 and 2.9 CPU seconds within two minutes on a 2-core AMD EPYC guest, while
N = 1000 stayed within 6%).

Each check compares the job's stdout with an independent reference: an
oracle the library ships (quadrature, closed forms, the scalar
Birman-Schwinger equation) or a property the paper guarantees.  A check
returns None when the output is correct, else the reason.  Checks never
compare residual digits.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Union

from fraclap import bilaplacian, green, operators

Argv = list[str]


@dataclass(frozen=True)
class Job:
    #: the command line, or a function of the previous job's stdout
    argv: Union[Argv, Callable[[str], Argv]]
    check: Callable[[str], Union[str, None]]


def _probe_tol(alpha: float) -> float:
    # the non-negativity tolerance of fraclap.probes.probe_tol, pinned here
    # so that loosening it in the library cannot loosen the checks
    return 1e-10 * (1.0 + 4.0**alpha)


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def _kv(out: str) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in out.strip().splitlines())


def _schedule(out: str, sizes) -> dict:
    rec = json.loads(out)
    got = [row["N"] for row in rec["schedule"]]
    if got != list(sizes):
        raise ValueError(f"schedule {got} != {list(sizes)}")
    return rec


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


# ---------------------------------------------------------------------------
# critical_scan: probe-critical on a doubling schedule, paper claim 5

CRITICAL_ALPHAS = (0.75, 1.25, 1.5, 1.75)
SCHEDULE = (125, 250, 500, 1000)
SMOKE_SCHEDULE = (25, 50, 100)
#: seeded draws per fixed alpha (or per workload) in a cycle; more draws make
#: a run's medians depend less on the seed
DRAWS = 4


def _schedule_args(smoke: bool) -> Argv:
    return ["--schedule", ",".join(map(str, SMOKE_SCHEDULE if smoke else SCHEDULE))]


def critical_scan(rng: random.Random, smoke: bool) -> list[Job]:
    sizes = SMOKE_SCHEDULE if smoke else SCHEDULE

    def check(alpha):
        def run(out):
            rec = _schedule(out, sizes)
            if alpha >= 1.5:
                if rec["verdict"] not in ("negative", "negative_beyond_resolution"):
                    return f"verdict {rec['verdict']} at alpha >= 3/2"
                if rec["bs_lambda"] is None:
                    return "no Birman-Schwinger eigenvalue at alpha >= 3/2"
                return None
            worst = min(row["min_eig"] for row in rec["schedule"])
            if worst < -_probe_tol(alpha):
                return f"min_eig {worst:.3e} below -probe_tol at alpha < 3/2"
            return None

        return run

    jobs = []
    for alpha in CRITICAL_ALPHAS:
        for _ in range(DRAWS):
            c = _log_uniform(rng, 1e-2, 1e-1)
            argv = ["probe-critical", "--format", "json", "--alpha", repr(alpha), "--site", "1"]
            jobs.append(Job(argv + ["--c", repr(c)] + _schedule_args(smoke), check(alpha)))
    return jobs


# ---------------------------------------------------------------------------
# hardy_witness: explicit Hardy weights, their admissibility and witnesses

HARDY_ALPHAS = (0.25, 0.5, 1.25)


def _nonnegative(extra=None):
    def run(out):
        rec = json.loads(out)
        if rec["verdict"] != "nonnegative":
            return f"verdict {rec['verdict']}"
        return extra(rec) if extra else None

    return run


def _admissible(out: str) -> Union[str, None]:
    kv = _kv(out)
    if kv["decision"] != "admissible":
        return f"decision {kv['decision']}"
    if float(kv["partial_sum"]) + float(kv["tail_bound"]) > float(kv["threshold"]) * (1 + 1e-12):
        return "partial_sum + tail_bound exceeds threshold"
    return None


def hardy_witness(rng: random.Random, smoke: bool) -> list[Job]:
    jobs = []
    for alpha in HARDY_ALPHAS:
        for _ in range(DRAWS):
            eps = rng.uniform(0.25, 1.0)

            def weight_ok(out, alpha=alpha, eps=eps):
                kv = _kv(out)
                if not _close(float(kv["exponent"]), max(1.0, 2.0 * alpha) + eps, 1e-12):
                    return f"exponent {kv['exponent']}"
                return None if float(kv["coeff"]) > 0.0 else f"coeff {kv['coeff']}"

            def check_argv(prev, alpha=alpha):
                kv = _kv(prev)
                spec = f"power:{kv['coeff']}:{kv['exponent']}"
                return ["hardy-check", "--alpha", repr(alpha), "--potential", spec]

            jobs.append(Job(["hardy-weight", "--alpha", repr(alpha), "--epsilon", repr(eps)], weight_ok))
            jobs.append(Job(check_argv, _admissible))
            jobs.append(
                Job(
                    ["probe-hardy", "--format", "json", "--alpha", repr(alpha), "--epsilon", repr(eps)]
                    + _schedule_args(smoke),
                    _nonnegative(),
                )
            )
    for _ in range(DRAWS):
        c = rng.uniform(0.1, 2.5)

        def below_threshold(rec, c=c):
            return None if c < rec["coupling_threshold"] else "coupling above threshold"

        jobs.append(
            Job(
                ["probe-reflected", "--format", "json", "--alpha", "1.5", "--c", repr(c)]
                + _schedule_args(smoke),
                _nonnegative(below_threshold),
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# bilap_sections: integer-power (banded) sections against the exact bound state

BILAP_SIZES = (250, 500, 1000)
SMOKE_BILAP_SIZES = (50, 100, 200)


def _bs_residual(site: int, c: float):
    def run(out):
        lam = float(out)
        if not lam < 0.0:
            return f"lambda {lam} not negative"
        residual = abs(1.0 - c * bilaplacian.green_entry(site, site, lam))
        return None if residual <= 1e-9 else f"Birman-Schwinger residual {residual:.3e}"

    return run


def _section_ok(site: int, c: float, exact: bool):
    def run(out):
        rec = json.loads(out)
        if rec["converged"] is not True:
            return "not converged"
        if not exact:
            return None
        ref = (
            bilaplacian.lambda_site1_closed(c)
            if site == 1
            else bilaplacian.lambda_bound_state(site, c)
        )
        err = abs(rec["min_eig"] - ref)
        return None if err <= 1e-6 else f"|min_eig - lambda_exact| = {err:.3e}"

    return run


def bilap_sections(rng: random.Random, smoke: bool) -> list[Job]:
    sizes = SMOKE_BILAP_SIZES if smoke else BILAP_SIZES
    jobs = []
    for _ in range(DRAWS):
        site = rng.choice((1, 2, 3))
        c = _log_uniform(rng, 0.5, 2.0)
        jobs.append(Job(["bilap-lambda", "--n", str(site), "--c", repr(c)], _bs_residual(site, c)))
        for size in sizes:
            argv = ["probe-min-eig", "--format", "json", "--alpha", "2", "--N", str(size)]
            argv += ["--potential", f"delta:{site}:{c!r}"]
            jobs.append(Job(argv, _section_ok(site, c, exact=size == sizes[-1])))

    def dominates(rec):
        return None if rec["dominates_classical"] is True else "does not dominate classical"

    jobs.append(Job(["probe-kpp", "--format", "json"] + _schedule_args(smoke), _nonnegative(dominates)))
    return jobs


# ---------------------------------------------------------------------------
# oracle_selftest: selftest plus a batch of short jobs, each against an oracle

BATCH_REPEATS = 8 * DRAWS


def _g_from_quad(alpha: float, n: int) -> float:
    # weighted_sq_integral = 2^(alpha-2) Gamma(alpha)^2/Gamma(2 alpha) g_n
    scale = 2.0 ** (alpha - 2.0) * math.exp(2.0 * math.lgamma(alpha) - math.lgamma(2.0 * alpha))
    return green.weighted_sq_integral_quad(alpha, n, tol=1e-11) / scale


def _number(ref: Callable[[], float], rel: float):
    def run(out):
        value, want = float(out), ref()
        return None if _close(value, want, rel) else f"{value!r} != oracle {want!r}"

    return run


def _selftest_ok(out: str) -> Union[str, None]:
    last = out.strip().splitlines()[-1].split()
    return None if last == ["overall", "PASS"] else f"selftest: {' '.join(last)}"


def oracle_selftest(rng: random.Random, smoke: bool) -> list[Job]:
    jobs = [Job(["selftest"], _selftest_ok)]
    for _ in range(BATCH_REPEATS):
        a = rng.uniform(0.25, 2.5)
        m, n = rng.randint(1, 30), rng.randint(1, 30)
        jobs.append(
            Job(
                ["entry", "--alpha", repr(a), "--m", str(m), "--n", str(n)],
                _number(lambda a=a, m=m, n=n: operators.entry_oracle(a, m, n, tol=1e-11), 1e-9),
            )
        )

        a, n = rng.uniform(0.25, 1.4), rng.randint(1, 20)
        jobs.append(
            Job(["gn", "--alpha", repr(a), "--n", str(n)], _number(lambda a=a, n=n: _g_from_quad(a, n), 1e-9))
        )
        jobs.append(
            Job(
                ["in", "--alpha", repr(a), "--n", str(n)],
                _number(lambda a=a, n=n: green.weighted_sq_integral_quad(a, n, tol=1e-11), 1e-9),
            )
        )

        a = rng.uniform(0.25, 1.4)
        m, n = rng.randint(1, 10), rng.randint(1, 10)
        lam = -_log_uniform(rng, 1e-2, 1e2)

        def dominated(out, a=a, m=m, n=n):
            cap = min(green.uniform_bound_rough(a, m, n), green.uniform_bound_refined(a, m, n))
            value = abs(float(out))
            return None if value <= cap + 1e-10 else f"|G| {value!r} above bound {cap!r}"

        def bounds_ok(out, a=a, m=m, n=n):
            kv = {k: float(v) for k, v in _kv(out).items()}
            c_ref = green.rough_bound_const_quad(a)
            refined = math.exp(2.0 * math.lgamma(a) - math.lgamma(2.0 * a)) / (2.0 * math.pi)
            refined *= math.sqrt(_g_from_quad(a, m) * _g_from_quad(a, n))
            if not _close(kv["C_alpha"], c_ref, 1e-9):
                return f"C_alpha {kv['C_alpha']!r} != quadrature {c_ref!r}"
            if not _close(kv["rough"], kv["C_alpha"] * m * n, 1e-12):
                return "rough != C_alpha*m*n"
            if not _close(kv["refined"], refined, 1e-9):
                return f"refined {kv['refined']!r} != oracle {refined!r}"
            return None

        jobs.append(
            Job(["green", "--alpha", repr(a), "--m", str(m), "--n", str(n), "--lam", repr(lam)], dominated)
        )
        jobs.append(Job(["bounds", "--alpha", repr(a), "--m", str(m), "--n", str(n)], bounds_ok))
        jobs.append(
            Job(
                ["bilap-green", "--m", str(m), "--n", str(n), "--lam", repr(lam)],
                _number(lambda m=m, n=n, lam=lam: green.green_entry(2.0, m, n, lam, tol=1e-11), 1e-9),
            )
        )

        site, c = rng.randint(1, 10), _log_uniform(rng, 0.1, 10.0)
        jobs.append(Job(["bilap-lambda", "--n", str(site), "--c", repr(c)], _bs_residual(site, c)))

        a = rng.uniform(0.25, 1.4)
        p = max(1.0, 2.0 * a) + rng.uniform(0.25, 1.0)
        coeff = _log_uniform(rng, 1e-4, 1e-2)
        threshold = 2.0 * math.pi * math.exp(math.lgamma(2.0 * a) - 2.0 * math.lgamma(a))

        def admissible(out, threshold=threshold):
            reason = _admissible(out)
            got = float(_kv(out)["threshold"])
            return reason or (None if _close(got, threshold, 1e-12) else f"threshold {got!r}")

        jobs.append(
            Job(["hardy-check", "--alpha", repr(a), "--potential", f"power:{coeff!r}:{p!r}"], admissible)
        )
    return jobs


WORKLOADS = {
    "critical_scan": critical_scan,
    "hardy_witness": hardy_witness,
    "bilap_sections": bilap_sections,
    "oracle_selftest": oracle_selftest,
}
