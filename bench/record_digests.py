"""Record the sha256 of each workload's output CSV at the given seeds.

Usage (from the repository root): python3 bench/record_digests.py SEED [SEED ...]

The digests go to ``bench/digests.json``.  Every timed or traced run at a
recorded seed must reproduce its digest, so re-record only for a change
that is meant to alter the CSVs, and explain the change where it lands.
"""

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import DIGESTS, WORK, WORKLOADS, Bench


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    WORK.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for seed in seeds:
            work_dir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=WORK))
            try:
                bench = Bench(name, seed, work_dir, time.monotonic() + 600.0)
                bench.expected_digest = None
                run = bench.spawn("run", bench.workers)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            if run.error:
                print(f"{name} seed={seed}: {run.error}", file=sys.stderr)
                continue
            table.setdefault(name, {})[str(seed)] = run.digest
            print(f"{name} seed={seed}: {run.digest}")
    table = {name: dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
             for name, by_seed in sorted(table.items())}
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
