"""Known defect: log/lp accepts a region whose payload was lost.

LP recovery's frontier scan recomputes each region's checksum over the
persisted values at its declared addresses and stops at the first
mismatch.  In the seed-0 ``log`` workload (crashcheck sizes), region 0
of thread 0 declares the writes (2.0, -4.0, head=1.0).  Crashed at op
28, the image that persists the dirty head line (head=2.0) and the
checksum-table line but not the data line holds (0.0, 0.0, 2.0) at
those addresses — and under the 32-bit ``modular`` engine
both triples sum to 0x40000000: small-integer doubles differ only in
their high 32-bit words, and 0x40000000 + 0xC0100000 + 0x3FF00000
wraps to the high word of 2.0.  The scan accepts region 0 and redo
starts at region 1, so the payload stays lost.

The collision is pinned as a passing test; the recovery expectation is
a strict xfail, so a fix turns it into a loud unexpected pass.  See
"Known defects" in docs/crash_testing.md.
"""

import pytest

from repro.core.checksum import get_engine
from repro.sim.config import tiny_machine
from repro.sim.crash import CrashPlan, run_to_crash_space
from repro.sim.machine import Machine
from repro.verify import checker
from repro.workloads import get_workload

LOG_PARAMS = {"records": 6, "width": 2, "wb_batch": 2}
CRASH = CrashPlan(at_op=28)
#: The failing ideal at that crash point: head line, checksum line.
EIDS = frozenset({1, 2})


def log_workload():
    return get_workload("log")(**LOG_PARAMS)


def test_region0_payload_is_the_colliding_one():
    assert log_workload().record_values(0)[0] == [2.0, -4.0]


def test_modular_checksum_collision():
    engine = get_engine("modular")
    declared = engine.of_values([2.0, -4.0, 1.0])
    persisted = engine.of_values([0.0, 0.0, 2.0])
    assert declared == persisted == 0x40000000


def crashed_image():
    wl = log_workload()
    machine = Machine(tiny_machine())
    bound = wl.bind(machine, num_threads=2, engine="modular")
    _, space = run_to_crash_space(machine, bound.threads("lp"), CRASH)
    return wl, machine, space.image_for(EIDS)


def test_image_stores_the_colliding_checksum():
    _, _, image = crashed_image()
    assert float(0x40000000) in image.values()


@pytest.mark.xfail(
    strict=True,
    reason="modular-checksum collision lets LP's frontier scan accept "
    "region 0 with its payload lost (docs/crash_testing.md, Known defects)",
)
def test_log_lp_recovers_from_the_colliding_image():
    wl, machine, image = crashed_image()
    failed, _ = checker._recovery_fails(machine, wl, "lp", image, 2, "modular")
    assert not failed
