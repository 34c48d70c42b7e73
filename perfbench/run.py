"""fraclap benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload critical_scan --seed 1 --seconds 30 --trace 0

Every job is one ``fraclap`` command run in-process through
``fraclap.cli.main(argv)`` with stdout and stderr captured, so argument
parsing, formatting and the exit-code contract are on the measured path.
Load is a closed loop with one client: jobs run one at a time, in whole
cycles of the workload's job list, until another cycle would overrun
``--seconds``.  Library caches are cleared before every job, because a CLI
user pays them on every call.  BLAS is pinned to one thread.

Job and set-up times are CPU seconds (user + system) of the process that
does the work: on a shared host, time the scheduler or the hypervisor gives
to others inflates wall time but not CPU time.  Wall times are in the report.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it installs the span wrappers of
``tracing.py`` and reports the per-layer metrics, per cycle.  The human
report (host block, job statistics, failures with their argv) is printed
first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import ctypes
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAWNS = 9
SETUP_ARGV = ["entry", "--alpha", "1", "--m", "1", "--n", "2"]
SETUP_CODE = f"import sys; from fraclap.cli import main; sys.exit(main({SETUP_ARGV!r}))"
IMPORT_LINES = {  # setup.import.<name>.s <- importtime line of this module
    "numpy": "numpy",
    "scipy.linalg": "scipy.linalg",
    "scipy.optimize": "scipy.optimize",
    "scipy.special": "scipy.special",
    "mpmath": "mpmath",
    "fraclap": "fraclap.cli",
}
MAX_LISTED_FAILURES = 20


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _spawn(args) -> tuple[float, float, subprocess.CompletedProcess]:
    """Runs a fresh interpreter; returns (wall seconds, its CPU seconds, the process)."""
    t0, c0 = time.perf_counter(), _children_cpu()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60
    )
    return time.perf_counter() - t0, _children_cpu() - c0, proc


class SetupSampler:
    """CPU and wall seconds of a fresh interpreter importing the CLI and running one trivial job.

    The spawns are spread over the run, one between jobs whenever the next
    is due, so that they see the same host as the jobs do.
    """

    def __init__(self, spawns: int, seconds: float, failures: list):
        self.spawns, self.interval, self.failures = spawns, seconds / spawns, failures
        self.cpus: list[float] = []
        self.walls: list[float] = []
        _spawn(["-c", SETUP_CODE])  # writes the bytecode caches a user would already have

    def sample(self) -> None:
        wall, cpu, proc = _spawn(["-c", SETUP_CODE])
        self.cpus.append(cpu)
        self.walls.append(wall)
        if proc.returncode != 0 or proc.stderr or proc.stdout != "-1\n":
            reason = f"setup: exit {proc.returncode}, stderr {proc.stderr[-200:]!r}"
            self.failures.append({"argv": SETUP_ARGV, "reason": reason})

    def between_jobs(self, elapsed: float) -> None:
        if len(self.cpus) < self.spawns and elapsed >= len(self.cpus) * self.interval:
            self.sample()

    def summary(self) -> dict:
        while len(self.cpus) < self.spawns:  # a run shorter than the spawn schedule
            self.sample()
        return {
            "spawns": len(self.cpus),
            "fastest_cpu_s": min(self.cpus),
            "median_cpu_s": statistics.median(self.cpus),
            "median_wall_s": statistics.median(self.walls),
        }


def measure_imports(spawns: int) -> dict[str, float]:
    """Median cumulative import time per module, from ``python -X importtime``."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_LINES}
    for _ in range(spawns):
        _, _, proc = _spawn(["-X", "importtime", "-c", "import fraclap.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import fraclap.cli failed: {proc.stderr[-500:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for name, module in IMPORT_LINES.items():
            samples[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(vals) for name, vals in samples.items()}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _openblas_threads(package) -> int | None:
    libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def host_block() -> dict:
    import mpmath
    import numpy
    import scipy

    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        "unknown",
    )
    blas = {}
    for package in (numpy, scipy):
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[package.__name__] = {
            "name": info.get("name"),
            "version": info.get("version"),
            "threads": _openblas_threads(package),
        }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown",
        "blas": blas,
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def _library_caches(fraclap_modules) -> list:
    return [
        fn
        for module in fraclap_modules
        for fn in vars(module).values()
        if callable(getattr(fn, "cache_clear", None))
    ]


def run_job(cli, argv, caches, tracer) -> tuple[float, float, str, str | None]:
    """Runs one CLI command; returns (wall seconds, CPU seconds, stdout, failure reason or None)."""
    for fn in caches:
        fn.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    reason = None
    t0, c0 = time.perf_counter(), time.process_time()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = tracer.job(cli.main, argv) if tracer else cli.main(argv)
        except Exception as exc:  # a traceback breaks the exit-code contract: record it
            code, reason = None, f"raised {type(exc).__name__}: {exc}"
    cpu = time.process_time() - c0
    wall = time.perf_counter() - t0
    if reason is None and code != 0:
        reason = f"exit {code}"
    if reason is None and err.getvalue():
        reason = "stderr output"
    if err.getvalue():
        reason += f": {err.getvalue().strip()[-200:]}"
    return wall, cpu, out.getvalue(), reason


def run_cycles(
    cli, jobs, seconds, caches, tracer, smoke, between_jobs=None
) -> tuple[int, list[list[float]], list[list[float]], int, list[dict]]:
    """Runs whole cycles of ``jobs``; returns the cycle count, the wall and CPU
    seconds of each job of the cycle (one list per job, one entry per cycle),
    the jobs that passed and the failures."""
    walls = [[] for _ in jobs]
    cpus = [[] for _ in jobs]
    failures, passed, cycles = [], 0, 0
    t_start = time.perf_counter()
    while True:
        prev = ""
        for i, job in enumerate(jobs):
            try:
                argv = job.argv(prev) if callable(job.argv) else job.argv
            except Exception as exc:
                failures.append({"argv": None, "reason": f"argv from previous output: {exc!r}"})
                prev = ""
                continue
            wall, cpu, prev, reason = run_job(cli, argv, caches, tracer)
            walls[i].append(wall)
            cpus[i].append(cpu)
            if reason is None:
                try:
                    reason = job.check(prev)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None:
                passed += 1
            else:
                failures.append({"argv": argv, "reason": reason})
            if between_jobs:
                between_jobs(time.perf_counter() - t_start)
        cycles += 1
        elapsed = time.perf_counter() - t_start
        if smoke or elapsed * (cycles + 1) / cycles > seconds:
            return cycles, walls, cpus, passed, failures


def tail(times: list[float]) -> dict:
    """p90 (nearest rank), with the sample count and how many samples lie beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    rank = math.ceil(0.9 * n)
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n, "samples": n, "beyond": n - rank}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sections, one cycle, one spawn")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fraclap" / "cli.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"perfbench: no fraclap sources under {SRC} or no {spec_path.name}\n")
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import fraclap
    from fraclap import bilaplacian, cli, green, operators, probes, quadrature, selfcheck

    if Path(fraclap.__file__).resolve().parent != SRC / "fraclap":
        sys.stderr.write(f"perfbench: imported fraclap from {fraclap.__file__}, not {SRC}\n")
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    jobs = WORKLOADS[args.workload](random.Random(args.seed), args.smoke)
    modules = (bilaplacian, green, operators, probes, quadrature, selfcheck)
    caches = _library_caches(modules)
    spawns = 1 if args.smoke else SPAWNS

    failures: list[dict] = []
    values: dict[str, float] = {}
    if args.trace:
        values.update({f"setup.import.{k}.s": v for k, v in measure_imports(spawns).items()})
        tracer = tracing.Tracer()
        saved = tracing.install(tracer, modules)
        try:
            cycles, walls, cpus, passed, job_failures = run_cycles(
                cli, jobs, args.seconds, caches, tracer, args.smoke
            )
        finally:
            tracing.uninstall(saved)
        values["trace.job_wall.s"] = sum(map(sum, walls)) / cycles
        values["trace.spans"] = tracer.spans / cycles
        for m in spec["per_layer"]:
            name = m["name"]
            if name not in values:
                total = tracer.self_s[name[:-2]] if name.endswith(".s") else tracer.counts[name]
                values[name] = total / cycles
        wanted = spec["per_layer"]
    else:
        setup = SetupSampler(spawns, args.seconds, failures)
        cycles, walls, cpus, passed, job_failures = run_cycles(
            cli, jobs, args.seconds, caches, None, args.smoke, setup.between_jobs
        )
        # A job's cost is its fastest repetition in the run, and so is set-up
        # time.  On a shared host the CPU time of one job swings by up to 2x
        # for seconds to minutes at a time, with other tenants' load; that
        # moves medians over repetitions, much less the minimum.
        setup_summary = setup.summary()
        values["setup_s"] = setup_summary["fastest_cpu_s"]
        fastest = [min(xs) for xs in cpus if xs]
        values["jobs_per_cpu_s"] = passed / cycles / sum(fastest)
        values["job_cpu_p50_s"] = statistics.median(fastest)
        values["job_cpu_tail_s"] = tail(fastest)["value"]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    failures += job_failures

    all_walls = [x for xs in walls for x in xs]
    all_cpus = [x for xs in cpus for x in xs]
    attempted = len(all_walls) + sum(1 for f in job_failures if f["argv"] is None) + (0 if args.trace else spawns)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_block(),
        "cycles": cycles,
        "jobs_per_cycle": len(jobs),
        "job_wall_per_cycle_s": sum(all_walls) / cycles,
        "job_cpu_per_cycle_s": sum(all_cpus) / cycles,
        "all_jobs": {
            "wall_p50_s": statistics.median(all_walls),
            "wall_tail": tail(all_walls),
            "cpu_p50_s": statistics.median(all_cpus),
            "cpu_tail": tail(all_cpus),
        },
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:MAX_LISTED_FAILURES],
    }
    if not args.trace:
        report["setup"] = setup_summary
    if args.trace:
        report["computed_counters"] = "bytes: 8*N^2 per dense section; calls, integrand_evals, root_evals: counted at span boundaries"
    print(json.dumps(report, indent=1))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
