"""Property tests: ``TickSample.to_json`` is ``asdict``, ``from_json`` its inverse.

Checkpoints, journals and restore all read and write the telemetry
layout through these two methods, so they must agree with the
``dataclasses.asdict`` layout every existing file and digest was built
from, for any sample: no tasks, either optional field absent or set.
"""

import dataclasses
import json

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.metrics import TaskSample, TickSample

_FLOATS = st.floats(allow_nan=False)
_NAMES = st.text(min_size=1, max_size=6)
_CLUSTERS = st.dictionaries(st.sampled_from(["big", "little"]), _FLOATS)

_TASKS = st.dictionaries(
    _NAMES,
    st.builds(TaskSample, _FLOATS, st.booleans(), st.booleans(), _FLOATS, _FLOATS),
    max_size=4,
)

_SAMPLES = st.builds(
    TickSample,
    time_s=_FLOATS,
    chip_power_w=_FLOATS,
    cluster_power_w=_CLUSTERS,
    cluster_frequency_mhz=_CLUSTERS,
    tasks=_TASKS,
    cluster_temperature_c=st.none() | _CLUSTERS,
    estimated_chip_power_w=st.none() | _FLOATS,
)


@given(_SAMPLES)
def test_to_json_is_asdict(sample):
    encoded = sample.to_json()
    assert encoded == dataclasses.asdict(sample)
    assert json.dumps(encoded) == json.dumps(dataclasses.asdict(sample))


@given(_SAMPLES)
def test_from_json_inverts_to_json(sample):
    assert TickSample.from_json(sample.to_json()) == sample
    assert TickSample.from_json(json.loads(json.dumps(sample.to_json()))) == sample


@given(_SAMPLES)
def test_from_json_reads_records_without_optional_fields(sample):
    record = sample.to_json()
    del record["cluster_temperature_c"], record["estimated_chip_power_w"]
    restored = TickSample.from_json(record)
    assert restored.cluster_temperature_c is None
    assert restored.estimated_chip_power_w is None
    assert restored.tasks == sample.tasks


def test_empty_tasks_round_trip():
    sample = TickSample(0.0, 1.0, {}, {}, {})
    assert sample.to_json()["tasks"] == {}
    assert TickSample.from_json(sample.to_json()) == sample
