"""Opt-in scaling report: one cold `a2l2 verify` per rank.

    python3 bench/scaling.py

Runs `a2l2 verify --l L --format json` once for each L = 1..8, in a
fresh child process with A2L2_MAX_L=L, and prints one line per rank and a
JSON object with the wall time and peak RSS of each.  An invocation must
exit 0; where bench/expected/verify-l<L>.out exists, its output must match
it too.  This is no gated workload: l = 7 and 8 take tens of seconds each
at the seed.
"""

from __future__ import annotations

import json
import signal
import sys

import run

MAX_L = 8
TIMEOUT_S = 600  # per rank


def main() -> int:
    signal.signal(signal.SIGTERM, run.exit_on_signal)
    try:
        run.check_setup()
    except run.SetupError as exc:
        print(f"scaling: {exc}", file=sys.stderr)
        return 2
    ranks = []
    ok = True
    for l in range(1, MAX_L + 1):
        w = run.make_workload(f"verify-l{l}", l, "verify", "--l", str(l), "--format", "json")
        argv_l = [sys.executable, "-c", run.CLI_PROGRAM, *w.args]
        child = run.run_child(argv_l, run.child_env(l), TIMEOUT_S)
        if w.expected.is_file():
            why = run.failure(w, child)
        else:
            why = None if child.code == 0 else f"exit code {child.code}"
        ok = ok and why is None
        ranks.append({
            "l": l,
            "wall_s": child.wall_s,
            "peak_rss_mb": child.peak_rss_mb,
            "passed": why is None,
        })
        print(f"l={l}  wall_s {child.wall_s:.3f} s  peak_rss_mb {child.peak_rss_mb:.1f} MB"
              + (f"  FAILED: {why}" if why else ""), flush=True)
    print(json.dumps({"ranks": ranks}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
