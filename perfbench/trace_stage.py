"""Run one r2ag CLI stage in-process with every public layer function traced.

    python3 perfbench/trace_stage.py OUT_PREFIX -- <r2ag argv...>

Writes ``OUT_PREFIX.json`` (per-function counts and times, the uncovered
share of the stage wall, and the ``retrieval_env.step`` counters) and
``OUT_PREFIX.npz`` (the raw spans), then exits with the stage's exit code.
"""

from __future__ import annotations

import json
import sys
import time

from spans import Recorder, summarize


def main() -> int:
    out_prefix = sys.argv[1]
    if sys.argv[2:3] != ["--"]:
        print("usage: trace_stage.py OUT_PREFIX -- <r2ag argv...>", file=sys.stderr)
        return 1
    argv = sys.argv[3:]
    t0 = time.perf_counter_ns()
    rec = Recorder()
    idx = rec.open("cli.import")
    import r2ag.cli
    rec.close(idx)
    missing = rec.install()
    rc = r2ag.cli.main(argv)
    wall_ns = time.perf_counter_ns() - t0

    cols = rec.arrays()
    summary = summarize(rec.names, cols, wall_ns)
    summary.update(
        rc=rc,
        missing_targets=missing,
        leaps_requested=rec.leaps_requested,
        leaps_taken=rec.leaps_taken,
        frozen_paths=rec.frozen_paths,
        live_paths=rec.live_paths,
    )
    with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    import numpy as np

    np.savez_compressed(out_prefix + ".npz", names=np.array(rec.names), **cols)
    return rc


if __name__ == "__main__":
    sys.exit(main())
