"""Write the committed reference outcomes the benchmark checks against.

Run from the root of a checkout, only when a change is meant to move the
outputs (and say so where the change is described)::

    python3 perfbench/make_references.py

It records one pass of fig5_search, fig3_curve and proto_tables for the
default seed and the held-out seed.  parity_io needs no file: its reads
are checked against a byte-array model built from the same inputs.
"""

from __future__ import annotations

import json
import sys

from inputs import DEFAULT_SEED, HELD_OUT_SEED, make_inputs
from run import import_program
from spans import Recorder
from workloads import REFERENCE_DIR, run_pass

REFERENCED = ("fig5_search", "fig3_curve", "proto_tables")


def main() -> int:
    import_program()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in REFERENCED:
        outcomes = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            result = run_pass(workload, make_inputs(workload, seed),
                              Recorder())
            outcomes[str(seed)] = dict(result.ops)
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
