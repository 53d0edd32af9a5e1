"""The shared ladder primitive: one rung per check, hysteresis, recovery.

Property tests drive :class:`repro.core.ladder.Ladder` with arbitrary
signal sequences, entry thresholds, hysteresis and recovery counts.  The
thermal, estimator and admission supervisors all walk this primitive;
their own suites cover the side effects each one hangs on a transition.
"""

from enum import Enum

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.ladder import Ladder


class Rung(Enum):
    CALM = "calm"
    LOW = "low"
    MID = "mid"
    HIGH = "high"


signals = st.floats(min_value=-5.0, max_value=15.0, allow_nan=False)


@st.composite
def ladders(draw):
    """A ladder with ascending entries, hysteresis and recovery count."""
    first = draw(st.floats(min_value=0.0, max_value=5.0))
    gaps = draw(st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=2, max_size=2))
    entries = (first, first + gaps[0], first + gaps[0] + gaps[1])
    hysteresis = draw(st.floats(min_value=0.0, max_value=2.0))
    recovery = draw(st.integers(min_value=1, max_value=5))
    return Ladder(Rung, entries, hysteresis, recovery)


def climb_to(ladder, rank):
    """Walk ``ladder`` up to ``rank`` with signals at each next entry."""
    while ladder.rank < rank:
        assert ladder.step(ladder.entries[ladder.rank]) == 1


def calm_signal(ladder):
    return ladder.entries[ladder.rank - 1] - ladder.hysteresis - 1.0


class TestLadderProperties:
    @settings(max_examples=200, deadline=None)
    @given(ladder=ladders(), sequence=st.lists(signals, min_size=1, max_size=80))
    def test_never_skips_a_rung(self, ladder, sequence):
        for signal in sequence:
            before = ladder.rank
            move = ladder.step(signal)
            assert move in (-1, 0, 1)
            assert ladder.rank - before == move
            assert 0 <= ladder.rank < len(Rung)
            assert ladder.state is list(Rung)[ladder.rank]

    @settings(max_examples=200, deadline=None)
    @given(
        ladder=ladders(),
        rank=st.integers(min_value=1, max_value=3),
        fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        repeats=st.integers(min_value=1, max_value=20),
    )
    def test_signal_inside_the_hysteresis_band_holds_the_rung(
        self, ladder, rank, fraction, repeats
    ):
        climb_to(ladder, rank)
        low = ladder.entries[rank - 1] - ladder.hysteresis
        high = ladder.entries[rank] if rank < len(ladder.entries) else low + 10.0
        signal = low + fraction * (high - low)
        assume(low <= signal < high)
        for _ in range(repeats):
            assert ladder.step(signal) == 0
            assert ladder.rank == rank
            assert ladder.calm == 0

    @settings(max_examples=200, deadline=None)
    @given(ladder=ladders(), rank=st.integers(min_value=1, max_value=3))
    def test_descent_needs_exactly_recovery_calm_checks(self, ladder, rank):
        climb_to(ladder, rank)
        for streak in range(1, ladder.recovery):
            assert ladder.step(calm_signal(ladder)) == 0
            assert ladder.rank == rank
            assert ladder.calm == streak
        assert ladder.step(calm_signal(ladder)) == -1
        assert ladder.rank == rank - 1
        assert ladder.calm == 0

    @settings(max_examples=200, deadline=None)
    @given(
        ladder=ladders(),
        rank=st.integers(min_value=1, max_value=2),
        partial=st.integers(min_value=0, max_value=4),
    )
    def test_a_climb_resets_the_streak(self, ladder, rank, partial):
        climb_to(ladder, rank)
        for _ in range(min(partial, ladder.recovery - 1)):
            ladder.step(calm_signal(ladder))
        assert ladder.step(ladder.entries[rank]) == 1
        assert ladder.calm == 0
        # The new rung needs a full streak of its own.
        for _ in range(ladder.recovery - 1):
            assert ladder.step(calm_signal(ladder)) == 0
        assert ladder.rank == rank + 1
        assert ladder.step(calm_signal(ladder)) == -1

    @settings(max_examples=100, deadline=None)
    @given(ladder=ladders(), sequence=st.lists(signals, max_size=40))
    def test_state_and_calm_restore_the_walk(self, ladder, sequence):
        """Setting ``state`` and ``calm`` (what a checkpoint restores)
        resumes the walk exactly where it stood."""
        split = len(sequence) // 2
        for signal in sequence[:split]:
            ladder.step(signal)
        clone = Ladder(Rung, ladder.entries, ladder.hysteresis, ladder.recovery)
        clone.state, clone.calm = ladder.state, ladder.calm
        for signal in sequence[split:]:
            assert clone.step(signal) == ladder.step(signal)
            assert (clone.rank, clone.calm) == (ladder.rank, ladder.calm)


class TestLadderBasics:
    def test_starts_at_the_bottom_rung(self):
        ladder = Ladder(Rung, (1.0, 2.0, 3.0), 0.5)
        assert ladder.state is Rung.CALM
        assert ladder.reached(Rung.CALM)
        assert not ladder.reached(Rung.LOW)

    def test_reached_compares_by_definition_order(self):
        ladder = Ladder(Rung, (1.0, 2.0, 3.0), 0.5)
        ladder.state = Rung.MID
        assert ladder.reached(Rung.LOW) and ladder.reached(Rung.MID)
        assert not ladder.reached(Rung.HIGH)

    def test_top_rung_holds_under_any_signal_above_its_band(self):
        ladder = Ladder(Rung, (1.0, 2.0, 3.0), 0.5)
        climb_to(ladder, 3)
        assert ladder.step(1e9) == 0
        assert ladder.state is Rung.HIGH

    def test_nan_signal_holds_and_resets_the_streak(self):
        ladder = Ladder(Rung, (1.0, 2.0, 3.0), 0.5, recovery=2)
        climb_to(ladder, 1)
        ladder.step(0.0)
        assert ladder.calm == 1
        assert ladder.step(float("nan")) == 0
        assert (ladder.rank, ladder.calm) == (1, 0)

    def test_entry_count_must_match_the_rungs(self):
        with pytest.raises(ValueError, match="one entry threshold per rung"):
            Ladder(Rung, (1.0, 2.0), 0.5)
