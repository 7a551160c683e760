#!/usr/bin/env python3
"""Build and run the jetty repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout. The first run configures and builds
libjetty, jetty_cli and perfbench_driver (Release) under .bench_build/;
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the driver's JSON result.

NAME is a workload the driver knows (`perfbench_driver --list`; see
perfbench/README.md). With `all` every workload runs in turn and its
metric lines are printed; the last line is then a JSON object keyed by
workload.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr."""
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail("build step failed: %s (%s)" % (" ".join(cmd), e))


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no jetty sources next to %s; run from a full checkout" % here)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", here, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], 300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                 "perfbench_driver", "jetty_cli"], 840)
    driver = os.path.join(BUILD_DIR, "perfbench_driver")
    cli = os.path.join(BUILD_DIR, "jetty", "jetty_cli")
    for path in (driver, cli):
        if not os.access(path, os.X_OK):
            fail("build did not produce " + path)
    return driver, cli


def run_driver(argv):
    """Run the driver in its own process group; kill the whole group on
    timeout or interruption so no daemon or worker outlives the run."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    old = {s: signal.signal(s, lambda sig, frm: (kill_group(),
                                                 sys.exit(128 + sig)))
           for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        proc.communicate()
        fail("driver exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        kill_group()  # stray descendants, if any
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not args.selfcheck and not args.workload:
        fail("--workload is required")

    driver, cli = build()
    if args.selfcheck:
        code, out = run_driver([driver, "--selfcheck"])
        sys.stdout.write(out)
        sys.exit(code)

    if args.workload == "all":
        code, out = run_driver([driver, "--list"])
        if code != 0:
            fail("driver --list failed (exit %d)" % code)
        names = out.split()
    else:
        names = [args.workload]
    results = {}
    for name in names:
        code, out = run_driver([
            driver, "--workload", name, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--cli", cli, "--out", ".bench_build"])
        lines = out.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if code != 0:
            fail("workload %s failed (exit %d)" % (name, code), 1)
        results[name] = json.loads(lines[-1])
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))


if __name__ == "__main__":
    main()
