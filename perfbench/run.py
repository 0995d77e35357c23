"""The entwine benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process runs one workload: set-up
generates the seeded workspaces (see instances.py), then one client runs
the workload's task list pass after pass, one task at a time, until the
next pass would end after S seconds (at least one pass).  Answers are
checked after the last pass, outside the timed region.

--trace 0 prints the end-to-end metrics: the pass time as a sum of
per-task medians over the passes (the sample count is on the line above
the result), set-up time and peak memory.  Times are CPU seconds scaled
to a reference speed (see bench.Sample).  --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics of the traced set-up and
pass.  The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  Without an entwine checkout around it the command
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
REQUIRED = (os.path.join(SRC, "entwine", "cli.py"),
            os.path.join(TESTS, "oracles.py"),
            os.path.join(TESTS, "components.py"))


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print("error: not an entwine checkout, missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, TESTS]
    import entwine
    if os.path.dirname(os.path.dirname(os.path.abspath(entwine.__file__))) != SRC:
        print("error: entwine imported from %s, not %s" % (entwine.__file__, SRC),
              file=sys.stderr)
        return 2
    import bench
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
