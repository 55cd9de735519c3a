"""Pin the ``sim-figures`` output digests that ``run.py`` checks against.

Run from the repository root, on the commit whose outputs are the
reference::

    python perfbench/capture_digests.py

It rewrites ``perfbench/digests.json``: the Figure 4/5 CSV digest and,
for each of the ``sim.SEEDS`` seeds, the cluster latency hash and the
reshard digest.  A pass whose reshard run loses or serves stale reads is
refused rather than pinned.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import sim  # noqa: E402


def main() -> int:
    pinned = {"fig4-5": None, "cluster": {}, "reshard": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as scratch:
        for seed in range(sim.SEEDS):
            plan = sim.build(seed)
            if pinned["fig4-5"] is None:
                pinned["fig4-5"], _ = sim.fig45_run(plan, Path(scratch))
            pinned["cluster"][str(seed)], _ = sim.cluster_run(plan)
            digest, result, _ = sim.reshard_run(plan)
            if result.lost_reads or result.stale_reads:
                print(f"seed {seed}: reshard lost/stale reads; not pinned",
                      file=sys.stderr)
                return 1
            pinned["reshard"][str(seed)] = digest
            print(f"seed {seed}: pinned", file=sys.stderr)
    sim.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
