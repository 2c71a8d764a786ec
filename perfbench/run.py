"""Benchmark of the bettipowers CLI: four workloads, timed cold, outputs checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out PATH]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference
    python3 perfbench/run.py --summarize FIRST-LAST [--out PATH]

Run from the repository root.  Every timed repetition is a fresh interpreter
running one `cli.main(argv)` call with numpy/BLAS pinned to one thread, so
process-wide caches start empty as they do for a CLI user.  A run lasts about
--seconds: repetitions run one after another until the next one would
overrun it (at least one runs), with set-up-only launches before, between
and after them.  The end-to-end times are scaled to a reference machine
speed by timing the fixed reference work of calibrate.py in the same process
and over the same interval; the results file keeps them as measured too.
Per-layer times are as measured.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics (medians over the run); with --trace 1 only traced
repetitions run, and they give the per-layer metrics, the estimated tracing
overhead and the coverage.  Every
output is checked against the references in perfbench/reference/; the exit
code is 1 when a check fails.  A results file with the environment, samples
and all layer figures is written to perfbench/out/; --summarize reduces the
results files of a range of seeds to medians and spreads.  See perfbench/README.md for the reasoning.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from calibrate import CAL_REF_S, PROBE_REF_S
from tracer import EXACT_COUNTS, LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 150
# Set-up-only launches: SETUP_SAMPLES before the first repetition, one after
# each, then more until the run's time is used, SETUP_MAX in all.
SETUP_SAMPLES = 4
SETUP_MAX = 60
# Timed inputs never depend on --seed.  A scan's cost depends on how many of
# its 100 random ideals are the maximal ideal (x,y,z), which costs about 30
# times an average record: timed once per seed on a 2-vCPU Xeon VM, the same
# CLI call took 0.92 to 3.39 s over seeds 1..12, a spread no regression bound
# could absorb.  So every timed scan uses seed 1 and --seed only picks the
# inputs of one further, untimed scan that is checked like the timed ones.
TIMED_SEED = 1

# Pins every numeric library to one thread and fixes hashing, so a
# repetition is a single process doing a fixed amount of work.
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


# name -> (CLI arguments for a seed, output check, whether the seed changes
# the inputs)
WORKLOADS = {
    "profile-mixed6": (
        lambda seed: ["profile", "fixtures/mixed6.ideal", "--kmax", "8"],
        checks.check_profile,
        False,
    ),
    "roots-regseq20": (
        lambda seed: ["roots", "--regular-sequence", "20", "--kmax", "20"],
        checks.check_roots,
        False,
    ),
    "scan-sqfree3": (
        lambda seed: ["scan", "--vars", "3", "--gens", "4", "--max-exp", "1",
                      "--count", "100", f"--seed={seed}"],
        checks.check_scan,
        True,
    ),
    "oracle-rp2": (
        lambda seed: ["oracle-check", "fixtures/rp2.ideal", "--fields", "q,2"],
        checks.check_oracle,
        False,
    ),
}
WORKLOAD_NAMES = tuple(WORKLOADS)


class BenchError(RuntimeError):
    """The benchmark itself cannot run here (missing sources, child crash)."""


def launch(mode: str, argv: list[str], out_path: Path) -> dict:
    """Run child.py once in a fresh interpreter and return its report."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), str(out_path), mode, *argv]
    env["PERFBENCH_LAUNCH_NS"] = str(time.monotonic_ns())
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "tail_pct": None, "tail": None}
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            out["tail_pct"] = pct
            out["tail"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            break
    return out


class Run:
    """One benchmark run of one workload: repetitions, checks and tallies."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.argv_of, self.check, self.seeded = WORKLOADS[name]
        self.name, self.seed, self.seconds = name, seed, seconds
        self.argv = self.argv_of(TIMED_SEED)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.check_s = 0.0  # time spent checking distinct outputs
        self._verdicts: dict[str, object] = {}
        OUT.mkdir(exist_ok=True)
        self.out_path = OUT / f"{name}.out"

    def rep(self, mode: str, seed: int = TIMED_SEED) -> dict:
        self.out_path.unlink(missing_ok=True)
        report = launch(mode, self.argv_of(seed), self.out_path)
        text = self.out_path.read_text(encoding="utf-8") if self.out_path.exists() else ""
        verdict = self._checked(text, seed)
        self.attempted += verdict.units
        if "crashed" in report or report["rc"] != 0:
            self.failed += verdict.units
            self.problems.append(f"{mode} repetition failed: {report.get('crashed', report.get('rc'))}")
        else:
            self.failed += verdict.failed
            self.problems.extend(verdict.problems)
        return report

    def _checked(self, text: str, seed: int):
        key = (checks.digest(text), seed)
        if key not in self._verdicts:
            t0 = time.monotonic()
            self._verdicts[key] = self.check(text, seed)
            self.check_s += time.monotonic() - t0
        return self._verdicts[key]

    def verify_seed(self) -> None:
        """Untimed: run and check the workload on the inputs of --seed."""
        if self.seeded and self.seed != TIMED_SEED:
            self.rep("plain", self.seed)

    def reps(self, mode: str, deadline: float, between=lambda: None) -> list[dict]:
        """Repeat mode until the next repetition would end after deadline.

        At least one repetition runs; `between` is called after each one.
        Crashed repetitions are tallied as failed and left out of the
        returned reports.
        """
        reports, took = [], []
        while True:
            t0, checked = time.monotonic(), self.check_s
            report = self.rep(mode)
            if "crashed" not in report:
                reports.append(report)
            between()
            # A distinct output is checked once: the next repetition of the
            # same output costs its launch alone.
            took.append(time.monotonic() - t0 - (self.check_s - checked))
            if time.monotonic() + statistics.median(took) > deadline:
                if not reports:
                    raise BenchError("; ".join(self.problems[-3:]))
                return reports

    def setup(self) -> dict:
        """One set-up-only launch: its set-up time, calibration and duration."""
        t0 = time.monotonic()
        report = launch("setup", [], self.out_path)
        if "crashed" in report:
            raise BenchError(f"interpreter set-up failed: {report['crashed']}")
        report["took_s"] = time.monotonic() - t0
        return report


def run_plain(run: Run) -> dict:
    deadline = time.monotonic() + run.seconds
    run.setup()  # warm-up: writes bytecode caches
    setups = [run.setup() for _ in range(SETUP_SAMPLES)]
    reports = run.reps("plain", deadline, lambda: setups.append(run.setup()))
    took = statistics.median(s["took_s"] for s in setups)
    while len(setups) < SETUP_MAX and time.monotonic() + 2 * took < deadline:
        setups.append(run.setup())
    run.verify_seed()
    raw = {
        "wall_s": [r["wall_s"] for r in reports],
        "cpu_s": [r["cpu_s"] for r in reports],
        "setup_s": [s["setup_s"] for s in setups],
        "cal_s": [s["cal_s"] for s in setups],
        "probe_s": [r["probe_s"] for r in reports],
        "probe_cpu_s": [r["probe_cpu_s"] for r in reports],
    }
    # Scaled to the reference speed (see calibrate.py).
    samples = {
        "wall_s": [r["wall_s"] * PROBE_REF_S / r["probe_s"] for r in reports],
        "cpu_s": [r["cpu_s"] * PROBE_REF_S / r["probe_cpu_s"] for r in reports],
        "setup_s": [s["setup_s"] * CAL_REF_S / s["cal_s"] for s in setups],
        "peak_rss_mib": [r["peak_rss_mib"] for r in reports],
    }
    return {
        "metrics": {m: statistics.median(v) for m, v in samples.items()},
        "timings": {m: summarize(v) for m, v in samples.items()},
        "samples": samples,
        "raw_metrics": {m: statistics.median(v) for m, v in raw.items()},
        "raw_samples": raw,
    }


def source_digest() -> str:
    """SHA-256 over the package sources and the tracer: what the counts depend on."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "tracer.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_counts(run: Run, layers: list[dict], source: str) -> dict:
    """Counts must repeat: across this run's repetitions and across earlier
    correct results files of the same workload, sources and CLI call.

    A difference from the counts recorded with the references is only a
    note: a correct change may do less work.
    """
    counts = {n: v for n, v in layers[0].items() if isinstance(v, int)}
    for name in counts:
        if len({lay[name] for lay in layers}) != 1:
            run.problems.append(f"count {name} differs between runs: {[lay[name] for lay in layers]}")
    for path in sorted(OUT.glob(f"{run.name}-seed*-trace1.json")):
        try:
            prior = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if prior.get("source") != source or prior.get("argv") != run.argv or not prior.get("correct"):
            continue
        for name, value in prior.get("counts", {}).items():
            if counts.get(name) != value:
                run.problems.append(f"count {name} is {counts.get(name)}, {value} in {path.name}")
    for name, value in checks.load_reference()["counts"][run.name].items():
        if counts[name] != value:
            run.notes.append(f"count {name} is {counts[name]}, {value} when the references were recorded")
    return counts


def run_traced(run: Run) -> dict:
    deadline = time.monotonic() + run.seconds
    run.setup()  # warm-up: writes bytecode caches
    reports = run.reps("trace", deadline)
    run.verify_seed()
    layers = [r["layers"] for r in reports]
    source = source_digest()
    counts = check_counts(run, layers, source)
    merged = {
        name: (counts[name] if name in counts else statistics.median(lay[name] for lay in layers))
        for name in layers[0]
    }
    return {
        "metrics": {n: merged[n] for n in LAYER_METRICS},
        "layers": merged,
        "counts": counts,
        "source": source,
        "traced_reps": len(reports),
    }


def environment(seed: int) -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "git_commit": "unknown",
        "seed": seed,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        env["cpu_model"] = models[0] if models else "unknown"
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if git.returncode == 0:
            env["git_commit"] = git.stdout.strip()
    except OSError:
        pass
    return env


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed, seconds)
    body = run_traced(run) if trace else run_plain(run)
    correct = run.failed == 0 and not run.problems
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": run.argv,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "problems": run.problems[:20],
        "notes": run.notes,
        **body,
    }


def preflight(with_reference: bool) -> None:
    needed = [SRC / "bettipowers" / "cli.py", ROOT / "fixtures" / "mixed6.ideal",
              ROOT / "fixtures" / "rp2.ideal"]
    if with_reference:
        needed.append(HERE / "reference" / "reference.json")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"run from a checkout of the repository root; missing {missing}")
    sys.path.insert(0, str(SRC))


def cmd_workload(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["env"] = environment(args.seed)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for problem in result["problems"]:
        print(f"check: {problem}", file=sys.stderr)
    for note in result["notes"]:
        print(f"note: {note}", file=sys.stderr)
    units = LAYER_METRICS if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["metrics"][m], "unit": u} for m, u in units.items()},
    }))
    return 0 if result["correct"] else 1


def cmd_all(args) -> int:
    results = {"env": environment(args.seed), "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        plain = measure(name, args.seed, args.seconds, trace=False)
        traced = measure(name, args.seed, args.seconds, trace=True)
        results["workloads"][name] = {"plain": plain, "traced": traced}
        ok = ok and plain["correct"] and traced["correct"]
        print(f"{name}  ({plain['attempted']} units, {len(plain['samples']['wall_s'])} timed runs)")
        for metric, unit in END_TO_END.items():
            t = plain["timings"][metric]
            tail = f"  p{t['tail_pct']} {t['tail']:.4f}" if t["tail_pct"] else ""
            print(f"  {metric:<14} {t['median']:10.4f} {unit:<4} n={t['n']}{tail}")
        print(f"  {'raw wall_s':<14} {plain['raw_metrics']['wall_s']:10.4f} s     (as measured;"
              f" calibration {plain['raw_metrics']['cal_s']:.4f} s)")
        print(f"  {'failed_frac':<14} {plain['failed_frac']:10.4f} ratio")
        print(f"  {'trace.coverage':<14} {traced['metrics']['trace.coverage']:10.4f} ratio"
              f"  overhead {traced['metrics']['trace.overhead_s']:.4f} s")
        for problem in plain["problems"] + traced["problems"]:
            print(f"  check: {problem}")
        for note in traced["notes"]:
            print(f"  note: {note}")
    out = Path(args.out) if args.out else OUT / f"all-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"results written to {out}")
    return 0 if ok else 1


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 for fewer than two values or a zero median)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def cmd_summarize(args) -> int:
    """Medians and spreads of the results files of a range of seeds."""
    first, _, last = args.summarize.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    summary = {"env": environment(seeds[0]), "seeds": [seeds[0], seeds[-1]], "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace, units in ((0, END_TO_END), (1, LAYER_METRICS)):
            paths = [OUT / f"{name}-seed{s}-trace{trace}.json" for s in seeds]
            results = [json.loads(p.read_text(encoding="utf-8")) for p in paths if p.is_file()]
            if not results:
                continue
            ok = ok and all(r["correct"] for r in results)
            metrics = {}
            for metric in units:
                values = [r["metrics"][metric] for r in results]
                metrics[metric] = {"median": statistics.median(values), "spread": spread(values),
                                   "unit": units[metric]}
            summary["workloads"].setdefault(name, {})[f"trace{trace}"] = {
                "runs": len(results),
                "correct": all(r["correct"] for r in results),
                "seeds": [r["seed"] for r in results],
                "metrics": metrics,
            }
            if trace == 0:
                summary["workloads"][name]["trace0"]["raw_wall_s"] = statistics.median(
                    r["raw_metrics"]["wall_s"] for r in results)
                print(f"{name}  ({len(results)} runs)")
                for metric, m in metrics.items():
                    print(f"  {metric:<14} {m['median']:10.4f} {m['unit']:<4} spread {m['spread']:.3f}")
    for name, sets in summary["workloads"].items():
        if "trace0" in sets and "trace1" in sets:
            # Tracing overhead as traced minus untraced wall time, both as
            # measured (not scaled): medians over the runs.
            sets["traced_minus_plain_wall_s"] = (
                sets["trace1"]["metrics"]["trace.wall_s"]["median"]
                - sets["trace0"]["raw_wall_s"])
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"summary written to {args.out}")
    return 0 if ok and summary["workloads"] else 1


def cmd_self_test(args) -> int:
    """Each reference passes its check and a corrupted copy of it does not."""
    ref = checks.reference_text
    roots = ref("roots-regseq20").splitlines()

    def nudge(row: str, rel: float) -> str:
        k, idx, re, *rest = row.split(",")
        return ",".join([k, idx, repr(float(re) * (1 + rel)), *rest])

    def roots_with(i: int, row: str) -> str:
        return "\n".join(roots[:i] + [row] + roots[i + 1:]) + "\n"

    esc = roots[-1]
    escape_k2 = roots.index(next(r for r in roots if r.startswith("2,") and r.endswith(",1")))
    scan = ref("scan-sqfree3").splitlines()
    record = json.loads(scan[7])
    record["profile"] = {"status": "error", "error": "RuntimeError: injected"}
    errored = "\n".join(scan[:7] + [json.dumps(record, sort_keys=True)] + scan[8:]) + "\n"
    finding = json.dumps({"type": "finding", "kind": "injected", "index": 3, "seed": 1})
    with_finding = "\n".join(scan[:4] + [finding] + scan[4:]) + "\n"
    profile, oracle = ref("profile-mixed6"), ref("oracle-rp2")
    # (label, check, seed, output, expected number of failed units)
    cases = [
        ("profile reference", checks.check_profile, 1, profile, 0),
        ("profile with one value changed", checks.check_profile, 1,
         profile.replace('"kmax": 8', '"kmax": 9'), 8),
        ("oracle reference", checks.check_oracle, 1, oracle, 0),
        ("oracle disagreement", checks.check_oracle, 1,
         oracle.replace('"agree": true', '"agree": false', 1), 1),
        ("scan reference", checks.check_scan, 1, ref("scan-sqfree3"), 0),
        ("scan error record", checks.check_scan, 1, errored, 1),
        ("scan finding", checks.check_scan, 1, with_finding, 1),
        ("roots reference", checks.check_roots, 1, ref("roots-regseq20"), 0),
        ("roots root moved 1e-3", checks.check_roots, 1, roots_with(1, nudge(roots[1], 1e-3)), 1),
        # The k=2 escape root is simple: a 1e-7 nudge stays within the root
        # tolerance but not within the residual gate.
        ("roots residual 1e-7", checks.check_roots, 1,
         roots_with(escape_k2, nudge(roots[escape_k2], 1e-7)), 1),
        ("roots escape flag", checks.check_roots, 1,
         roots_with(len(roots) - 1, esc[:-1] + ("0" if esc.endswith("1") else "1")), 1),
        ("roots k missing", checks.check_roots, 1,
         "\n".join(r for r in roots if not r.startswith(f"{checks.REGSEQ_KMAX},")) + "\n", 1),
    ]
    bad = 0
    for label, check, seed, text, want in cases:
        verdict = check(text, seed)
        good = verdict.failed == want
        bad += not good
        print(f"{'ok  ' if good else 'FAIL'} {label}: {verdict.failed}/{verdict.units} units flagged"
              + (f" ({verdict.problems[0]})" if verdict.problems else ""))
    return 1 if bad else 0


def cmd_write_reference(args) -> int:
    """Record the outputs and exact counts of this commit as the references."""
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    reference = {"digests": {}, "counts": {}}
    for name in WORKLOAD_NAMES:
        argv_of, _, _ = WORKLOADS[name]
        out_path = OUT / f"{name}.out"
        report = launch("trace", argv_of(TIMED_SEED), out_path)
        if "crashed" in report or report["rc"] != 0:
            raise BenchError(f"{name}: {report}")
        text = out_path.read_text(encoding="utf-8")
        filename = checks.REFERENCE_FILES[name]
        (checks.REFERENCE_DIR / filename).write_text(text, encoding="utf-8")
        reference["digests"][filename] = checks.digest(text)
        reference["counts"][name] = {c: report["layers"][c] for c in EXACT_COUNTS}
        print(f"{name}: {len(text)} bytes, counts {reference['counts'][name]}")
    (checks.REFERENCE_DIR / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return cmd_self_test(args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--all", action="store_true", help="every workload, plain and traced")
    mode.add_argument("--self-test", action="store_true", help="checks flag corrupted outputs")
    mode.add_argument("--write-reference", action="store_true")
    mode.add_argument("--summarize", metavar="FIRST-LAST",
                      help="medians and spreads of the results files of these seeds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="results path for --all and --summarize")
    args = parser.parse_args(argv)
    try:
        preflight(with_reference=not args.write_reference)
        if args.workload:
            return cmd_workload(args)
        if args.all:
            return cmd_all(args)
        if args.self_test:
            return cmd_self_test(args)
        if args.summarize:
            return cmd_summarize(args)
        return cmd_write_reference(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
