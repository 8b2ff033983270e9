"""Regenerate ``golden_datasets.json``: sha256 of each pooled Table V dataset.

The paper-protocol and collect-linear workloads check every dataset they
collect against these digests, so they must be captured from a version
of the program whose collected data is known good, and rewritten only
when a change is meant to alter the data.  Run from the root of a checkout::

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL = 32


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.batch import GOLDEN, collect, dataset_digest
    from perfbench.bench import MACHINES, Context

    ctx = Context("golden", 0, 0.0, False, ROOT)
    digests = {}
    for key in MACHINES:
        _stats, datasets = collect(key, list(range(POOL)), ctx)
        digests[key] = [dataset_digest(d) for d in datasets]
    GOLDEN.write_text(json.dumps({"pool": POOL, "digests": digests}, indent=1) + "\n")
    print(f"wrote {POOL} digests per machine to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
