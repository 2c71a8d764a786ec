"""One timed CLI call in a fresh interpreter.

Usage: python3 perfbench/child.py OUT_PATH {plain|trace|setup} [CLI ARGS...]

The parent passes its launch time (time.monotonic_ns, a clock shared by all
processes) in PERFBENCH_LAUNCH_NS.  setup_s runs from that launch until
bettipowers.cli is imported; wall_s from the cli.main call until it returns
with its output written to OUT_PATH.  The child prints one JSON line with its
measurements; in `setup` mode it stops after the import and one timing of
the reference work in calibrate.py (`cal_s`).  In `plain` mode the reference
work is probed while the call runs (see calibrate.py): `probe_s` and
`probe_cpu_s` are the probes' mean wall and CPU times, and `wall_s` and
`cpu_s` leave the probes' time out.
"""
import os
import sys
import time

launch_ns = int(os.environ["PERFBENCH_LAUNCH_NS"])
import bettipowers.cli as cli  # noqa: E402  (the import is what setup_s measures)

setup_s = (time.monotonic_ns() - launch_ns) / 1e9

import json  # noqa: E402
import resource  # noqa: E402


def peak_rss_kib() -> int:
    # ru_maxrss also counts the parent's peak: exec records the replaced
    # address space's high-water mark, and subprocess launches through vfork
    # sharing the parent's memory.  VmHWM belongs to this address space alone.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    out_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    report = {"setup_s": setup_s}
    if mode == "setup":
        from calibrate import calibrate

        report["cal_s"] = calibrate()
    else:
        tracer = probes = None
        if mode == "plain":
            from calibrate import Probe

            probes = Probe()
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        real_stdout = sys.stdout
        with open(out_path, "w", encoding="utf-8") as out:
            sys.stdout = out
            try:
                if probes is not None:
                    probes.start()
                start = time.perf_counter()
                rc = cli.main(argv)
                out.flush()
                wall_s = time.perf_counter() - start
            finally:
                if probes is not None:
                    probes.stop()
                sys.stdout = real_stdout
        usage = resource.getrusage(resource.RUSAGE_SELF)
        probe_wall_s, probe_cpu_s = probes.inside if probes is not None else (0.0, 0.0)
        report.update(
            rc=rc,
            wall_s=wall_s - probe_wall_s,
            cpu_s=usage.ru_utime + usage.ru_stime - probe_cpu_s,
            peak_rss_mib=peak_rss_kib() / 1024.0,
        )
        if probes is not None:
            report["probe_s"], report["probe_cpu_s"] = probes.mean()
            report["probes"] = len(probes.samples)
        if tracer is not None:
            report["layers"] = tracer.metrics(wall_s)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
