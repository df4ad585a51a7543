#!/usr/bin/env python3
"""Checks that a kisscheck memory budget bounds the process's real memory.

    rss_bound.py <budget-mb> <max-ratio> <kisscheck> [kisscheck args...]

Runs kisscheck with --memory-budget=<budget-mb> and the given arguments,
reaps it with wait4 and passes only if the run ended as a bound verdict
(exit 3) whose verdict line names the reason `memory`, and the child's
peak RSS stayed within <max-ratio> times the budget.
"""

import os
import subprocess
import sys


def main():
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    budget_mb = int(sys.argv[1])
    max_ratio = float(sys.argv[2])
    cmd = [sys.argv[3], "--memory-budget=%d" % budget_mb] + sys.argv[4:]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux.
    verdicts = [l for l in out.splitlines() if l.startswith("verdict:")]
    verdict = verdicts[-1] if verdicts else "<no verdict line>"
    print("%s\nexit %d, peak RSS %.0f MB for a %d MB budget (limit %.0f MB)"
          % (verdict, code, peak_mb, budget_mb, max_ratio * budget_mb))
    ok = True
    if code != 3:
        print("FAIL: expected exit 3 (bound exceeded)")
        ok = False
    if "(memory)" not in verdict:
        print("FAIL: expected the bound reason `memory` in the verdict")
        ok = False
    if peak_mb > max_ratio * budget_mb:
        print("FAIL: peak RSS exceeds %.2f x the budget" % max_ratio)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
