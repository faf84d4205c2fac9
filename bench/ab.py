#!/usr/bin/env python3
"""Same-runner A/B of the bench cells: a base revision against this checkout.

Usage, from the repository root:

    python3 bench/ab.py --base REV [--work DIR]

Builds REV (extracted with `git archive`) and this checkout side by side
under DIR, Release, with the same compiler, so that their records carry
the same host fingerprint. Then runs fig3a_replayer_throughput,
gen_throughput and compute_kernels with --quick --records RUNS (15) times
per build, each bench of one build right after the same bench of the
other, alternating which build goes first, and hands the two record
sets to this checkout's `e2e_pipeline --compare`. That flags a cell only when
the two CI95s separate and the median got worse by more than
BENCHMARK.json's bound for throughput.

Exit code: the comparator's (0 no regression, 1 a regression, 2 records
not comparable); 1 when a bench fails or a cell is missing from some run;
0 with "base predates records, A/B skipped" when the base build writes no
records at all (it ignores --records).
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHES = ("fig3a_replayer_throughput", "gen_throughput", "compute_kernels")
# Runs per build. With 10, an injected 40% slowdown of one cell was missed
# in 1 of 10 trials (it measured 24.5% worse against a 36% base spread);
# with 15 it was flagged in 10 of 10, and 10 HEAD-vs-HEAD trials flagged
# nothing.
RUNS = 15


def build(source, build_dir, targets):
    """Configures once and builds `targets`; output to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "-j", jobs]
    for target in targets:
        step += ["--target", target]
    subprocess.run(step, stdout=sys.stderr, check=True)


def records_by_cell(run_dir):
    return {os.path.basename(p): p
            for p in glob.glob(os.path.join(run_dir, "*.json"))}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to beat")
    parser.add_argument("--work", default=os.path.join(ROOT, ".bench_build",
                                                       "ab"))
    args = parser.parse_args()
    work = os.path.abspath(args.work)

    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          args.base + "^{commit}"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    base_src = os.path.join(work, "base-" + sha[:12])
    if not os.path.isdir(base_src):
        partial = base_src + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode, "git")
        os.rename(partial, base_src)
    builds = {"base": os.path.join(base_src, "build"),
              "head": os.path.join(work, "head")}
    build(base_src, builds["base"], BENCHES)
    build(ROOT, builds["head"], BENCHES + ("e2e_pipeline",))

    records = os.path.join(work, "records")
    shutil.rmtree(records, ignore_errors=True)
    runs = {side: [] for side in builds}
    for rep in range(RUNS):
        order = ("base", "head") if rep % 2 == 0 else ("head", "base")
        run_dirs = {side: os.path.join(records, side, "run%d" % rep)
                    for side in builds}
        for bench in BENCHES:
            for side in order:
                os.makedirs(run_dirs[side], exist_ok=True)
                binary = os.path.join(builds[side], "bench", bench)
                log = os.path.join(run_dirs[side], bench + ".log")
                command = [binary, "--quick", "--records", run_dirs[side]]
                with open(log, "w") as out:
                    rc = subprocess.run(command, stdout=out).returncode
                if rc != 0:
                    print("ab: %s %s run %d exited with %d" %
                          (side, bench, rep, rc), file=sys.stderr)
                    return 1
        for side in builds:
            runs[side].append(records_by_cell(run_dirs[side]))
        if not runs["base"][0]:
            # A build from before --records ignores the flag.
            print("ab: base predates records, A/B skipped")
            return 0
        print("ab: run %d of %d done" % (rep + 1, RUNS), file=sys.stderr)

    cells = set().union(*runs["base"], *runs["head"])
    missing = ["%s run %d: %s" % (side, rep, cell)
               for side in builds for rep, found in enumerate(runs[side])
               for cell in sorted(cells - found.keys())]
    if missing:
        print("ab: missing records:\n  " + "\n  ".join(missing),
              file=sys.stderr)
        return 1

    def paths(side):
        return ",".join(p for found in runs[side] for p in found.values())

    command = [os.path.join(builds["head"], "bench", "e2e", "e2e_pipeline"),
               "--compare", paths("base"), "--with", paths("head"),
               "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
