"""Regenerate ``perfbench/reference.json`` from the current program.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Runs one pass of every workload at seed 0 and stores each job's
output digest.  Regenerate only when a change to the program is meant
to change its modelled statistics; the stored digests are what the
benchmark's seed-0 check compares against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.run import _import_program

    _import_program()
    from perfbench.checks import REFERENCE, output_digests
    from perfbench.suite import WORKLOADS, Bench

    reference = {}
    for workload in WORKLOADS:
        with Bench(workload, 0) as bench:
            bench.set_up()
            records = bench.run_pass()
        failed = [r for r in records if r.error is not None]
        if failed:
            print(f"{workload}: {len(failed)} job(s) failed: "
                  f"{failed[0].job.key}: {failed[0].error}", file=sys.stderr)
            return 1
        reference[workload] = {key: digests[0] for key, digests
                               in output_digests(records).items()}
        print(f"{workload}: {len(reference[workload])} job digests")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
