#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --compare BASE_DIR NEW_DIR
    python3 perfbench/run.py --selftest

Builds perfbench/perfbench.exe and bin/ftqcd.exe with dune, then runs
the benchmark with the same arguments.  Its last line of standard
output is the JSON result; build output goes to standard error.
"""

import os
import shutil
import subprocess
import sys

BENCH = "_build/default/perfbench/perfbench.exe"


def main():
    # The benchmark builds the program it measures from this checkout's
    # sources; without them there is nothing to measure.
    if not os.path.exists("dune-project"):
        sys.exit("run.py: dune-project not found; run from the root of a checkout")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune not found on PATH")
    # The dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/ftqcd.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if build.returncode != 0:
        sys.exit(f"run.py: build failed ({build.returncode})")
    os.execv(BENCH, [BENCH] + sys.argv[1:])


if __name__ == "__main__":
    main()
