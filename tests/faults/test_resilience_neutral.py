"""The resilience layer is invisible in a fault-free run.

``ResilienceConfig`` promises that with no fault injected none of its
mechanisms changes behaviour.  ``resilience=None`` turns off every
default-on guard at once -- the stale-sensor detector, DVFS read-back
retry, the market watchdog, migration retry and the allowance guard --
so one telemetry digest per point covers all of them.  A guard that
fires on a legitimate reading (a sensor-spike filter that latches on a
genuine step up in power, say) moves the digest.
"""

import hashlib

import pytest

from repro.checkpoint import canonical_json, tick_records
from repro.core import MarketConfig, PPMConfig, PPMGovernor, ResilienceConfig
from repro.hw import tc2_chip
from repro.sim import SimConfig, Simulation
from repro.tasks import WORKLOAD_ORDER, build_workload

_TICKS = 500


def _digest(workload, cap_w, resilience):
    market = MarketConfig(wtdp=cap_w) if cap_w else MarketConfig()
    governor = PPMGovernor(PPMConfig(market=market, resilience=resilience))
    sim = Simulation(
        tc2_chip(), build_workload(workload), governor, config=SimConfig(seed=1)
    )
    sim.run(_TICKS * sim.dt)
    payload = canonical_json(tick_records(sim.metrics))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("cap_w", [None, 4.0], ids=["no-cap", "4W"])
@pytest.mark.parametrize("workload", WORKLOAD_ORDER)
def test_default_resilience_matches_none(workload, cap_w):
    assert _digest(workload, cap_w, ResilienceConfig()) == _digest(
        workload, cap_w, None
    )
