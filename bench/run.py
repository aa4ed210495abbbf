"""hballs benchmark: closed-loop `hballs verify` workloads, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py                              # every workload, one fresh process each
    python3 bench/run.py --workload sweep-n2 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload verify-n1 --trace 1   # per-layer metrics

A workload is a fixed list of `hballs verify` invocations made in-process
through `hballs.cli.main`, one client in a closed loop: each invocation
starts when the previous one returns.  One pass runs the list once.  The
first pass of a run is a warm-up whose reports are the reference; the
following passes are timed until `--seconds` is used up.  Every report is
checked (exit code 0, every check passes, the resolved config is the one
asked for, bytes equal to the reference), and every breach is printed by
name and counted in `failed`.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it alternates traced and untraced passes and reports the per-layer
metrics (see tracing.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A result file with
the environment, the resolved configs and every sample goes to
bench/results/.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; the value is recorded in every result file.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 40
SETUP_SAMPLES = 10     # at least; two are taken after every pass


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple      # one `verify --suite` invocation per entry, in order
    flags: dict        # verify flags shared by every invocation

    def argv(self, suite: str, seed: int, out: Path) -> list:
        args = ["verify", "--suite", suite]
        for key, value in self.flags.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        return args + ["--seed", str(seed), "--out", str(out)]

    def setup_config(self, seed: int) -> dict:
        """HarnessConfig fields that decide the first rule `rule_for` builds."""
        keys = ("n", "nodes", "mc_nodes")
        return {"seed": seed, **{k: v for k, v in self.flags.items() if k in keys}}


WORKLOADS = {w.name: w for w in (
    # Why each workload exists: bench/README.md and BENCHMARK.json.
    Workload("sweep-n2", ("thm24", "lemma22"), {"n": 2, "mc_nodes": 1500, "pairs": 1000}),
    Workload("pointwise-n2", ("schwarzpick", "lemma33"), {"n": 2, "mc_nodes": 20000, "samples": 60}),
    Workload("verify-n1", ("all",), {"n": 1}),
)}

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hballs
from hballs.theorems import HarnessConfig, rule_for
rule_for(HarnessConfig(**json.loads(sys.argv[2])))
print(repr(time.perf_counter() - t0))
"""


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
        "machine": platform.machine(), "seed": seed,
    }


def measure_setup(workload: Workload, seed: int) -> float:
    """Seconds to import hballs and build the first rule in a fresh interpreter."""
    config = json.dumps(workload.setup_config(seed))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), config],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes of one workload and checks every report they write."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        import hballs.cli
        self.cli = hballs.cli
        self.workload = workload
        self.seed = seed
        self.outputs = [workdir / f"{i}-{suite}.json" for i, suite in enumerate(workload.suites)]
        self.reference = None     # report bytes of the warm-up pass
        self.attempted = 0
        self.breaches = []

    def run_pass(self, main=None) -> tuple:
        """One pass through the invocations; returns (seconds, [(exit code, bytes)])."""
        main = main or self.cli.main
        for out in self.outputs:
            out.unlink(missing_ok=True)
        codes = []
        sink = io.StringIO()
        started = time.perf_counter()
        for suite, out in zip(self.workload.suites, self.outputs):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    codes.append(main(self.workload.argv(suite, self.seed, out)))
                except SystemExit as exc:
                    codes.append(exc.code)
                except Exception as exc:   # a crash is a failed operation, not a benchmark error
                    codes.append(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - started
        return seconds, [(code, out.read_bytes() if out.exists() else None)
                         for code, out in zip(codes, self.outputs)]

    def check(self, label: str, results: list) -> None:
        """Count the checks a pass attempted and record every breach by name."""
        if self.reference is None:
            self.reference = [data for _, data in results]
        for suite, (code, data), ref in zip(self.workload.suites, results, self.reference):
            where = f"{label} {suite}"
            if data is None:
                self.attempted += 1
                self.breaches.append(f"{where}: no report (exit {code})")
                continue
            try:
                report = json.loads(data)
                checks = report["checks"]
            except (ValueError, KeyError):
                self.attempted += 1
                self.breaches.append(f"{where}: unreadable report (exit {code})")
                continue
            self.attempted += max(len(checks), 1)
            failed = [c["check_id"] for c in checks if not c["pass"]]
            self.breaches += [f"{where}: check {cid} failed" for cid in failed]
            if not checks:
                self.breaches.append(f"{where}: report holds no checks")
            if code != 0 and not failed:
                self.breaches.append(f"{where}: exit {code}")
            wanted = {"suite": suite, "seed": self.seed, **self.workload.flags}
            if any(report.get("config", {}).get(k) != v for k, v in wanted.items()):
                self.breaches.append(f"{where}: resolved config differs from {wanted}")
            if data != ref:
                self.breaches.append(f"{where}: report bytes differ from the warm-up pass")

    def reports(self) -> list:
        """The warm-up pass's reports that parse."""
        reports = []
        for data in self.reference:
            with contextlib.suppress(TypeError, ValueError):
                reports.append(json.loads(data))
        return reports


def quantiles(values: list) -> dict:
    """Median and quartiles with the sample count."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2],
            "samples": len(values)}


def timed_passes(runner: Runner, seconds: float, kinds: tuple, after_pass=None) -> dict:
    """Warm-up, then passes cycling through ``kinds`` until ``seconds`` is used.

    A pass starts only if the median pass so far fits in the time left, and
    every kind runs at least once.  ``after_pass()`` runs after every pass,
    inside the time budget.  Returns {kind: [pass seconds]}.
    """
    started = time.perf_counter()
    warm_s, results = runner.run_pass()
    runner.check("warm-up", results)
    if after_pass:
        after_pass()
    times = {kind: [] for kind in kinds}
    done = [warm_s]
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        left = seconds - (time.perf_counter() - started)
        if i >= len(kinds) and statistics.median(done) > left:
            break
        pass_s, results = kind(runner)
        runner.check(f"pass {i + 1}", results)
        times[kind].append(pass_s)
        done.append(pass_s)
        i += 1
        if after_pass:
            after_pass()
    return times


def untraced(runner: Runner) -> tuple:
    return runner.run_pass()


class TracedPasses:
    """Traced pass callable that keeps per-pass layer metrics and all spans."""

    def __init__(self):
        import hballs.errors
        import hballs.extension
        import hballs.norms
        import hballs.theorems
        import tracing
        self.tracing = tracing
        self.modules = {"theorems": hballs.theorems, "norms": hballs.norms,
                        "extension": hballs.extension, "errors": hballs.errors}
        self.per_pass = []
        self.spans = []

    def __call__(self, runner: Runner) -> tuple:
        tracer = self.tracing.install(self.modules)
        try:
            pass_s, results = runner.run_pass(main=tracer.span("cli", runner.cli.main))
        finally:
            tracer.unpatch()
        metrics = self.tracing.layer_metrics(tracer.spans, pass_s, tracer.errors)
        metrics["cli.report_bytes"] = sum(len(data or b"") for _, data in results)
        self.per_pass.append(metrics)
        self.spans.append(tracer.spans)
        return pass_s, results


def unit_of(name: str) -> str:
    if name.endswith("meval_per_s"):
        return "Mevals/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name == "quad_tol_max":
        return "tol"
    return "count"


def declared_metrics(kind: str) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [m["name"] for m in json.load(handle)[kind]]


def quad_tol_max(reports: list) -> float:
    return max((c["tolerance_breakdown"]["quadrature"] for r in reports for c in r["checks"]),
               default=0.0)


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> int:
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reports-", dir=RESULTS))
    try:
        runner = Runner(workload, seed, workdir)
        table = {}
        record = {"environment": environment(seed), "workload": workload.name,
                  "trace": int(traced), "seconds": seconds}
        if traced:
            traced_pass = TracedPasses()
            times = timed_passes(runner, seconds, (traced_pass, untraced))
            layers = {name: statistics.median(p[name] for p in traced_pass.per_pass)
                      for name in traced_pass.per_pass[0]}
            layers["trace.overhead_s"] = (statistics.median(times[traced_pass])
                                          - statistics.median(times[untraced]))
            table.update({name: (value, f"median of {len(traced_pass.per_pass)} traced passes")
                          for name, value in layers.items()})
            record["traced_pass_s"] = quantiles(times[traced_pass])
            record["untraced_pass_s"] = quantiles(times[untraced])
            record["layers_per_pass"] = traced_pass.per_pass
            line_names = declared_metrics("per_layer")
        else:
            # Setup samples are spread over the run, so that they see the same
            # machine as the passes rather than one moment of it.
            setup_s = []

            def sample_setup():
                setup_s.extend(measure_setup(workload, seed) for _ in range(2))

            times = timed_passes(runner, seconds, (untraced,), sample_setup)
            while len(setup_s) < SETUP_SAMPLES:
                sample_setup()
            wall = quantiles(times[untraced])
            setup = quantiles(setup_s)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            table["wall_s"] = (wall["median"], f"median of {wall['samples']} passes, "
                               f"quartiles {wall['p25']:.4f}..{wall['p75']:.4f}")
            table["setup_s"] = (setup["median"], f"median of {setup['samples']} fresh interpreters")
            table["peak_rss_mb"] = (rss_mb, "1 process, whole run")
            record.update({"wall_s": wall, "setup_s": setup, "pass_s": times[untraced]})
            line_names = declared_metrics("end_to_end")
        reports = runner.reports()
        failed = min(len(runner.breaches), runner.attempted)
        table["fail_ratio"] = (failed / runner.attempted,
                               f"{failed} failed of {runner.attempted} checks attempted")
        table["quad_tol_max"] = (quad_tol_max(reports),
                                 f"max over {sum(len(r['checks']) for r in reports)} checks")
        record.update({
            "configs": [r["config"] for r in reports],
            "attempted": runner.attempted, "failed": failed, "breaches": runner.breaches,
            "metrics": {name: {"value": v, "unit": unit_of(name), "how": how}
                        for name, (v, how) in table.items()},
        })
        stem = f"{workload.name}-seed{seed}-trace{int(traced)}"
        (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if traced:
            (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "counts"], "passes": traced_pass.spans}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name}  seed {seed}  trace {int(traced)}  "
          f"BLAS {record['environment']['blas']} x{BLAS_THREADS}")
    for name, (value, how) in table.items():
        print(f"  {name:36s} {value:14.6g} {unit_of(name):9s} {how}")
    for breach in runner.breaches:
        print(f"  FAILED {breach}")
    print(f"  result file: {(RESULTS / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": not runner.breaches, "attempted": runner.attempted, "failed": failed,
        "metrics": {name: {"value": table[name][0], "unit": unit_of(name)} for name in line_names},
    }))
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own fresh process; a summary table at the end."""
    rows = []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, timeout=900)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        if done.returncode != 0:
            return done.returncode
        rows.append((name, json.loads(done.stdout.strip().splitlines()[-1])))
    print("summary")
    names = (("trace.overhead_s", "trace.untraced_s", "fail_ratio") if traced else
             ("wall_s", "setup_s", "peak_rss_mb", "fail_ratio", "quad_tol_max"))
    ok = True
    for name, result in rows:
        ok = ok and result["correct"]
        record = json.loads((RESULTS / f"{name}-seed{seed}-trace{int(traced)}.json").read_text())
        metrics = "  ".join(f"{k}={record['metrics'][k]['value']:.6g} {record['metrics'][k]['unit']}"
                            for k in names)
        print(f"  {name:14s} correct={result['correct']}  {metrics}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hballs" / "__init__.py").is_file():
        print(f"bench: no hballs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
