"""Time one set-up in a fresh interpreter and print the seconds.

Set-up is importing ``repro`` and building the workload's first model,
testbed, or deployment and session.  Generating the inputs (the payload
bytes) happens before the clock starts.  The probe prints the host
seconds, then the same scaled to the reference host speed (see
``hostspeed.py``).  ``run.py`` starts it several times per run and
reports the median of the scaled figures as ``setup_s``::

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from hostspeed import speed, time_reference
from inputs import KB, make_inputs

ROOT = Path(__file__).resolve().parent.parent
#: Reference samples timed just before and just after the set-up; the
#: host's speed changes over seconds, the set-up takes a tenth of one.
BRACKET_SAMPLES = 5


def set_up(workload: str, inputs: dict) -> object:
    """Import the program and build what the workload's first step needs."""
    if workload in ("fig5_search", "fig3_curve"):
        from repro.sim import SimConfig, SwiftSimModel
        from repro.simdisk import DISK_CATALOG
        if workload == "fig5_search":
            disk_name, disks = inputs["cells"][0]
            shape = {"num_disks": disks, "transfer_unit": 4 * KB,
                     "request_size": 128 * KB}
        else:
            disk_name = "Fujitsu M2372K"
            shape = {"num_disks": inputs["disks"][0],
                     "transfer_unit": inputs["unit"],
                     "request_size": 1024 * KB}
        requests = inputs["num_requests"]
        return SwiftSimModel(SimConfig(
            disk=DISK_CATALOG[disk_name], num_requests=requests,
            warmup_requests=requests // 10, seed=inputs["sim_seed"],
            **shape))
    if workload == "proto_tables":
        from repro.prototype import PrototypeTestbed
        cell = inputs["cells"][0]
        return PrototypeTestbed(second_ethernet=cell["second_ethernet"],
                                seed=cell["seeds"][0])
    from repro.core import build_local_swift
    deployment = build_local_swift(num_agents=inputs["agents"], parity=True,
                                   seed=inputs["deployment_seed"])
    return deployment.client().open("obj", "w", parity=True)


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    inputs = make_inputs(workload, seed)
    sys.path.insert(0, str(ROOT / "src"))
    before = time_reference(BRACKET_SAMPLES)
    start = time.perf_counter()
    set_up(workload, inputs)
    seconds = time.perf_counter() - start
    after = time_reference(BRACKET_SAMPLES)
    print(seconds, seconds * speed(before + after))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
