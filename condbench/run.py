"""condspec benchmark: drive the `condspec` CLI in process and report metrics.

    python3 condbench/run.py --workload field-dense --seed 1 --seconds 30 --trace 0

A single-threaded, closed-loop load generator: one `cli.main(argv)` call at a time,
each issued after the previous one returns.  The program's own thread
defaults are left alone (its pool sizes itself from os.cpu_count(), BLAS
uses its default) and recorded, because that is what users get.

--trace 0 reports the end-to-end metrics of BENCHMARK.json with tracing
off.  --trace 1 alternates untraced and traced passes, reports the
per-layer metrics from the traced ones, the tracing overhead, and a
single-threaded reference pass run in a subprocess.  Either way every
output file is hashed and must be byte-identical across passes (and
traced vs untraced vs single-threaded); sampled field nodes are checked
against a dense SVD oracle and verify reports must pass.  The last stdout
line is the JSON result; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# The script's directory is on sys.path; condspec itself is imported only
# after main() has found src/.
from checks import hash_mismatches, hash_outputs, oracle_misses, report_counts
from tracing import THEOREM_IDS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".condbench_work"

# Set-up samples are taken between passes, so that they spread over the
# run instead of sharing one moment's machine state.
SETUP_REPEATS = 9
TRACE_SETUP_REPEATS = 3
MIN_PASSES = 2
SUBPROCESS_TIMEOUT = 150

SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
import condspec.cli
from condspec import matrixio
from pathlib import Path
for p in sys.argv[1:]:
    matrixio.parse_matrix(Path(p))
print(repr(time.perf_counter() - t0))
"""

@dataclass
class Call:
    command: str
    seconds: float
    problem: str | None = None


@dataclass
class Pass:
    wall_s: float
    calls: list
    hashes: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)


# -- one pass over the workload ------------------------------------------------

def cli_call(command: str, argv: list) -> Call:
    from condspec import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        problem = None if rc == 0 else f"{command} exit {rc}: {err.getvalue().strip()[-300:]}"
    except (Exception, SystemExit):  # a crash is a counted failure, not an abort
        problem = f"{command} raised: {traceback.format_exc(limit=3)}"
    return Call(command, time.perf_counter() - t0, problem)


def run_pass(wl, paths: list, out_dir: Path) -> Pass:
    from condspec import jsonio, witness

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    calls = []
    t0 = time.perf_counter()
    for i, (m, path) in enumerate(zip(wl.matrices, paths)):
        d = out_dir / f"m{i:02d}"
        d.mkdir()
        if wl.command == "verify":
            cert = d / "cert.json"
            tc = time.perf_counter()
            try:
                w = witness.witness_perturbation(m.entries, m.cert_z, wl.eps[0])
                with open(cert, "w") as fp:
                    jsonio.dump(w.to_json_obj(), fp)
                problem = None
            except Exception:  # counted as a failed operation
                problem = f"certificate: {traceback.format_exc(limit=3)}"
            calls.append(Call("certificate", time.perf_counter() - tc, problem))
            argv = ["verify", "--matrix", path, "--eps", wl.eps_flag, "--grid", wl.grid,
                    "--samples", wl.samples, "--seed", i, "--out", d / "report.json"]
            if problem is None:
                argv += ["--certificate", cert]
            calls.append(cli_call("verify", argv))
        else:
            calls.append(cli_call("compute", [
                "compute", "--matrix", path, "--eps", wl.eps_flag, "--kind", "both",
                "--grid", wl.grid, "--out", d]))
            if wl.command == "compute+plot":
                calls.append(cli_call("plot", [
                    "plot", "--field", d / "field.csv",
                    "--contours", d / "contours_condition.json",
                    "--contours", d / "contours_pseudo.json",
                    "--matrix", path, "--out", d / "fig.svg"]))
    wall = time.perf_counter() - t0
    return Pass(wall, calls, hash_outputs(out_dir), verify_reports(wl, out_dir))


def verify_reports(wl, out_dir: Path) -> dict:
    if wl.command != "verify":
        return {}
    counts = {}
    for i in range(len(wl.matrices)):
        path = out_dir / f"m{i:02d}" / "report.json"
        counts[i] = report_counts(path) if path.is_file() else None
    return counts


# -- checks -------------------------------------------------------------------

class Ledger:
    """Attempted operations and the problems attached to them."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set = set()
        self.problems: list = []

    def add_pass(self, p: Pass, tag: str) -> None:
        for k, c in enumerate(p.calls):
            self.attempted += 1
            if c.problem:
                self.fail((tag, k), c.problem)
        for i, counts in p.reports.items():
            if counts is None:
                self.fail((tag, "report", i), f"matrix {i}: no report.json")
            elif counts["failed"] or not counts["cert_ok"]:
                self.fail((tag, "report", i), f"matrix {i}: {counts}")

    def fail(self, op, problem: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(problem)

    def compare(self, reference: dict, other: dict, what: str, tag) -> None:
        bad = hash_mismatches(reference, other)
        if bad:
            self.fail((tag, "bytes"), f"{what}: outputs differ: {bad[:6]}")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def oracle_check(wl, out_dir: Path, seed: int, ledger: Ledger) -> int:
    total = 0
    if wl.command == "verify":
        return 0
    for i, m in enumerate(wl.matrices):
        misses, problems = oracle_misses(out_dir / f"m{i:02d}" / "field.csv",
                                         m.entries, wl.grid, seed + i)
        total += misses
        if misses:
            ledger.fail(("oracle", i), "; ".join(problems[:3]))
    return total


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(name: str, seed: int, size: str, hashes: dict,
                              ledger: Ledger) -> None:
    """Same source, thread settings, workload and seed must give the same
    bytes as any earlier run in this checkout."""
    threads = "-".join(os.environ.get(v, "unset")
                       for v in ("CONDSPEC_THREADS", "OPENBLAS_NUM_THREADS"))
    store = WORK / "hashes" / f"{name}-s{seed}-{size}-t{threads}-{src_digest()}.json"
    if store.is_file():
        ledger.compare(json.loads(store.read_text()), hashes, "earlier run", "earlier")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(hashes, indent=1, sort_keys=True))


# -- setup time -----------------------------------------------------------------

def measure_setup(paths: list, importtime: bool) -> tuple:
    """Seconds to import condspec.cli and parse the matrix files in a fresh
    interpreter (timed inside it), and scipy.ndimage's cumulative import
    time when `importtime` (else None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-c", SETUP_SCRIPT] + [str(p) for p in paths]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()[-500:]}")
    seconds = float(proc.stdout.strip().splitlines()[-1])
    return seconds, importtime_of(proc.stderr, "scipy.ndimage") if importtime else None


def importtime_of(log: str, package: str) -> float:
    """Cumulative seconds of `package` from a `-X importtime` log.  scipy's
    lazy loader can hide the package's own line, so this sums the
    outermost logged entries of the package and its submodules."""
    entries = []
    for line in log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        bare = name.lstrip()
        if bare == package or bare.startswith(package + "."):
            entries.append((len(name) - len(bare), int(parts[1])))
    if not entries:
        return 0.0
    depth = min(d for d, _ in entries)
    return sum(us for d, us in entries if d == depth) / 1e6


# -- environment record -----------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy
    from condspec import spectra

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas_version = "unknown"
    thread_count = getattr(spectra, "_thread_count", None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "CONDSPEC_THREADS": os.environ.get("CONDSPEC_THREADS", "unset"),
        "pool_workers": thread_count() if thread_count else None,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "python": sys.version.split()[0],
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


# -- statistics ---------------------------------------------------------------------

def latencies(passes: list, command: str) -> list:
    return [c.seconds for p in passes for c in p.calls if c.command == command]


def tail(values: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    v = sorted(values)
    k = len(v) - 11
    if k < 0:
        return None, None
    return v[k], 100.0 * (k + 1) / len(v)


def median_or_none(values: list):
    return statistics.median(values) if values else None


def end_to_end(wl, passes: list, setup: list, peak_rss_mb: float) -> dict:
    primary = "verify" if wl.command == "verify" else "compute"
    field_calls = [c for p in passes for c in p.calls if c.command == primary]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "nodes_per_s": len(field_calls) * wl.grid ** 2 / sum(c.seconds for c in field_calls),
        "matrices_per_s": len(wl.matrices) * len(passes) / sum(p.wall_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }


def command_summary(passes: list) -> dict:
    out = {}
    for command in ("compute", "plot", "verify"):
        lat = latencies(passes, command)
        out[f"{command}_p50_s"] = median_or_none(lat)
        out[f"{command}_calls"] = len(lat)
    value, pct = tail(latencies(passes, "verify"))
    out["verify_tail_s"], out["verify_tail_percentile"] = value, pct
    return out


def check_counts(first: Pass) -> dict:
    totals = {"passed": 0, "vacuous": 0, "skipped": 0, "failed": 0}
    for counts in first.reports.values():
        for k in totals:
            totals[k] += (counts or {}).get(k, 0)
    return totals


def per_layer(tracer, traced: list, untraced: list, setup_ndimage: list,
              ref_wall: float | None, env: dict) -> dict:
    k = len(traced)
    tot = tracer.totals()
    incl, own, count = tot["inclusive"], tot["self"], tot["count"]
    c = tracer.counters

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names) / k

    def n(*names):
        return sum(count.get(n, 0) for n in names) / k

    field_s = t("spectra.compute_field")
    nodes = c["spectra.field_nodes"] / k
    gflop = c["spectra.field_flop_computed"] / k / 1e9
    checks = check_counts(traced[0])
    cmd = command_summary(untraced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    m = {
        "matrixio.parse_s": t("matrixio.parse_matrix"),
        "matrixio.bytes_in": c["matrixio.bytes_in"] / k,
        "spectra.grid_sizing_s": t("spectra.grid_sizing"),
        "spectra.field_s": field_s,
        "spectra.field_nodes": nodes,
        "spectra.field_us_per_node": field_s / nodes * 1e6 if nodes else 0.0,
        "spectra.field_gflop_computed": gflop,
        "spectra.field_gflops": gflop / field_s if field_s else 0.0,
        "spectra.contours_s": t("spectra.extract_contours"),
        "spectra.contour_vertices": c["spectra.contour_vertices"] / k,
        "spectra.csv_write_s": t("spectra.write_field_csv"),
        "spectra.csv_read_s": t("spectra.read_field_csv"),
        "spectra.csv_bytes": c["spectra.csv_bytes"] / k,
        "jsonio.dump_s": t("jsonio.dump"),
        "jsonio.loads_s": t("jsonio.loads"),
        "svgplot.render_s": t("svgplot.render_svg"),
        "numkernel.svd_calls": n("numkernel.singular_values", "numkernel.svd"),
        "numkernel.svd_s": t("numkernel.singular_values", "numkernel.svd"),
        "numkernel.eig_calls": n("numkernel.eigenvalues", "numkernel.eigen_decomposition"),
        "numkernel.matrix_wraps": c["numkernel.matrix_wraps"] / k,
        "numkernel.power_norms_s": t("numkernel.power_norms"),
    }
    for tid in THEOREM_IDS:
        m[f"theorems.{tid}_s"] = t(f"theorems.check_{tid}")
    m.update({
        "theorems.numerical_range_calls": n("theorems.numerical_range_boundary"),
        "theorems.numerical_range_s": t("theorems.numerical_range_boundary"),
        "theorems.sample_points_s": t("theorems.sample_points"),
        "theorems.checks_passed": checks["passed"],
        "theorems.checks_vacuous": checks["vacuous"],
        "theorems.checks_skipped": checks["skipped"],
        "theorems.checks_failed": checks["failed"],
        "geometry.hull_s": t("geometry.convex_hull"),
        "geometry.polygon_distance_s": t("geometry.distance_to_polygon"),
        "geometry.polygon_distance_pairs": c["geometry.polygon_distance_pairs"] / k,
        "witness.build_s": t("witness.witness_perturbation"),
        "witness.validate_s": t("witness.membership_from_perturbation",
                                "witness.witness_from_json_obj"),
        "cli.import_ndimage_s": median_or_none(setup_ndimage) or 0.0,
        "cli.self_s": own.get("cli.main", 0.0) / k,
        "cli.compute_p50_s": cmd["compute_p50_s"] or 0.0,
        "cli.plot_p50_s": cmd["plot_p50_s"] or 0.0,
        "cli.verify_p50_s": cmd["verify_p50_s"] or 0.0,
        "trace.overhead_s": statistics.median(p.wall_s for p in traced) - untraced_wall,
        "trace.spans": len(tracer.spans) / k,
        "ref.single_thread_wall_s": ref_wall or 0.0,
        "ref.thread_nesting_ratio": untraced_wall / ref_wall if ref_wall else 0.0,
        "env.nproc": env["nproc"],
        "env.pool_workers": env["pool_workers"] or 0,
        "env.src_lines": env["src_lines"],
    })
    return m


# -- the run ---------------------------------------------------------------------------

def prepare(name: str, seed: int, size: str, run_dir: Path):
    import workloads

    wl = workloads.build(name, seed, tiny=size == "tiny")
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    return wl, workloads.write_inputs(wl, inputs)


def warm_up(name: str, seed: int, run_dir: Path) -> None:
    """One untimed pass at tiny size, so lazy imports and first-call set-up
    inside numpy/LAPACK are done before timing."""
    import workloads

    wl = workloads.build(name, seed, tiny=True)
    inputs = run_dir / "warm-inputs"
    inputs.mkdir()
    run_pass(wl, workloads.write_inputs(wl, inputs), run_dir / "warm-out")


def reference_pass(args, run_dir: Path) -> int:
    """Run one pass and print its wall time and hashes (used in a
    single-threaded subprocess)."""
    wl, paths = prepare(args.workload, args.seed, args.size, run_dir)
    warm_up(args.workload, args.seed, run_dir)
    p = run_pass(wl, paths, run_dir / "out")
    problems = [c.problem for c in p.calls if c.problem]
    print(json.dumps({"wall_s": p.wall_s, "hashes": p.hashes, "problems": problems}))
    return 0


def single_thread_reference(args) -> dict:
    env = dict(os.environ, CONDSPEC_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--reference-pass"]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"reference pass failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(args, run_dir: Path) -> tuple:
    wl, paths = prepare(args.workload, args.seed, args.size, run_dir)
    repeats = 1 if args.size == "tiny" else (TRACE_SETUP_REPEATS if args.trace else SETUP_REPEATS)
    setup, ndimage = [], []

    def setup_sample():
        seconds, nd = measure_setup(paths, importtime=bool(args.trace))
        setup.append(seconds)
        if nd is not None:
            ndimage.append(nd)

    warm_up(args.workload, args.seed, run_dir)
    out_dir = run_dir / "out"
    ledger = Ledger()
    untraced, traced = [], []
    tracer = Tracer() if args.trace else None
    oracle = 0
    elapsed = 0.0
    while elapsed < args.seconds or len(untraced) + len(traced) < MIN_PASSES:
        if len(setup) < repeats:
            setup_sample()
        p = run_pass(wl, paths, out_dir)
        untraced.append(p)
        if len(untraced) == 1:
            oracle = oracle_check(wl, out_dir, args.seed, ledger)
        if tracer is not None:
            tracer.install()
            try:
                with tracer.span("bench.pass"):
                    t = run_pass(wl, paths, out_dir)
            finally:
                tracer.uninstall()
            traced.append(t)
            elapsed += t.wall_s
        elapsed += p.wall_s
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < repeats:
        setup_sample()

    first = untraced[0]
    for i, p in enumerate(untraced):
        ledger.add_pass(p, f"pass{i}")
        ledger.compare(first.hashes, p.hashes, f"untraced pass {i}", f"pass{i}")
    for i, p in enumerate(traced):
        ledger.add_pass(p, f"traced{i}")
        ledger.compare(first.hashes, p.hashes, f"traced pass {i}", f"traced{i}")
    compare_with_earlier_runs(wl.name, args.seed, args.size, first.hashes, ledger)

    env = environment()
    ref = ref_differing = None
    if args.trace:
        ledger.attempted += 1
        try:
            ref = single_thread_reference(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            ref = {"wall_s": None, "hashes": first.hashes, "problems": [str(exc)]}
        for problem in ref["problems"]:
            ledger.fail(("ref", problem), f"single-threaded pass: {problem}")
        # Reported, not failed: the program promises identical bytes at any
        # CONDSPEC_THREADS, not at any BLAS thread count.
        ref_differing = hash_mismatches(first.hashes, ref["hashes"])
        metrics = per_layer(tracer, traced, untraced, ndimage, ref["wall_s"], env)
        metrics["ref.files_differing"] = len(ref_differing)
        units = metric_units("per_layer")
        WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "traces" / f"{wl.name}-s{args.seed}-{args.size}.json")
    else:
        metrics = end_to_end(wl, untraced, setup, peak)
        units = metric_units("end_to_end")

    cmd = command_summary(untraced)
    checks = check_counts(first)
    summary = {
        **cmd,
        "error_ratio": ledger.failed / max(ledger.attempted, 1),
        "oracle_misses": oracle,
        "checks_failed": checks["failed"],
        "checks_vacuous": checks["vacuous"],
        "checks_skipped": checks["skipped"],
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "setup_samples": len(setup),
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "size": args.size,
              "env": env, "summary": summary, "result": result,
              "problems": ledger.problems[:50],
              "pass_walls_s": [p.wall_s for p in untraced],
              "traced_pass_walls_s": [p.wall_s for p in traced],
              "setup_s": setup,
              "reference": {"wall_s": ref["wall_s"], "files_differing": ref_differing}
              if ref else None}
    return result, record


def metric_units(section: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


SUMMARY_UNITS = {"compute_p50_s": "s", "plot_p50_s": "s", "verify_p50_s": "s",
                 "verify_tail_s": "s", "error_ratio": "ratio", "oracle_misses": "count",
                 "checks_failed": "count", "checks_vacuous": "count",
                 "checks_skipped": "count"}


def print_report(record: dict) -> None:
    s = record["summary"]
    print(f"# condspec benchmark  workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']}")
    for name, m in record["result"]["metrics"].items():
        print(f"{name:34s} {m['value']:<22.6g} {m['unit']}")
    for name, unit in SUMMARY_UNITS.items():
        value = s.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        extra = ""
        if name.endswith("_p50_s") and value is not None:
            extra = f"  (n={s[name.replace('_p50_s', '_calls')]})"
        if name == "verify_tail_s" and value is not None:
            extra = f"  (p{s['verify_tail_percentile']:.0f} of n={s['verify_calls']})"
        print(f"{name:34s} {shown:<22s} {unit}{extra}")
    for p in record["problems"][:10]:
        print(f"problem: {p}")
    print(json.dumps({"env": record["env"]}))


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input (for the benchmark's own tests)")
    parser.add_argument("--reference-pass", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "condspec" / "cli.py").is_file():
        print(f"error: condspec sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.reference_pass:
            return reference_pass(args, run_dir)
        result, record = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{args.size}.json").write_text(
        json.dumps(record, indent=1))
    print_report(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
