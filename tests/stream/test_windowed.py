"""Tests for repro.stream.windowed."""

import numpy as np
import pytest

from repro.core.condenser import DynamicCondenser
from repro.durability import replay_directory
from repro.stream.windowed import SlidingWindowCondenser

#: Records a push must reject: a NaN, an infinity and a wrong width.
BAD_RECORDS = [
    np.array([0.0, np.nan, 1.0]),
    np.array([np.inf, 0.0, 1.0]),
    np.zeros(4),
]


class TestSlidingWindowCondenser:
    def test_warmup_then_tracking(self, rng):
        condenser = SlidingWindowCondenser(k=5, window=50, random_state=0)
        for record in rng.normal(size=(9, 3)):
            condenser.push(record)
        assert not condenser.is_warm
        with pytest.raises(ValueError, match="warming up"):
            condenser.to_model()
        condenser.push(rng.normal(size=3))
        assert condenser.is_warm

    def test_window_count_capped(self, rng):
        condenser = SlidingWindowCondenser(
            k=5, window=50, random_state=0
        )
        condenser.push_stream(rng.normal(size=(200, 3)))
        assert condenser.n_seen == 50
        assert condenser.to_model().total_count == 50

    def test_band_maintained_under_churn(self, rng):
        condenser = SlidingWindowCondenser(
            k=5, window=40, random_state=0
        )
        for record in rng.normal(size=(300, 2)):
            condenser.push(record)
            if condenser.is_warm:
                sizes = condenser.to_model().group_sizes
                assert (sizes >= 5).all()
                assert (sizes < 10).all()

    def test_statistics_track_the_window(self, rng):
        # Stream shifts its mean mid-way; the window's statistics must
        # follow the new regime, not the average of both.
        condenser = SlidingWindowCondenser(
            k=10, window=100, random_state=0
        )
        condenser.push_stream(rng.normal(loc=0.0, size=(150, 2)))
        condenser.push_stream(rng.normal(loc=50.0, size=(150, 2)))
        model = condenser.to_model()
        window_mean = sum(
            group.first_order for group in model.groups
        ) / model.total_count
        assert np.all(window_mean > 40.0)

    def test_generate_matches_window_size(self, rng):
        condenser = SlidingWindowCondenser(
            k=5, window=60, random_state=0
        )
        condenser.push_stream(rng.normal(size=(120, 3)))
        assert condenser.generate().shape == (60, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowCondenser(k=0, window=10)
        with pytest.raises(ValueError, match="at least 2k"):
            SlidingWindowCondenser(k=10, window=15)
        with pytest.raises(ValueError, match="k must be an integer"):
            SlidingWindowCondenser(k=2.7, window=10)
        with pytest.raises(ValueError, match="window must be an integer"):
            SlidingWindowCondenser(k=2, window=10.0)
        with pytest.raises(ValueError, match="k must be an integer"):
            DynamicCondenser(k=2.7)
        condenser = SlidingWindowCondenser(k=2, window=10)
        with pytest.raises(ValueError, match="vector"):
            condenser.push(np.zeros((2, 2)))

    def test_rejected_push_leaves_the_steady_window_clean(
        self, tmp_path, rng
    ):
        condenser = SlidingWindowCondenser(
            k=2, window=6, random_state=0, wal_dir=tmp_path
        )
        stream = rng.normal(size=(30, 3))
        condenser.push_stream(stream[:10])
        for bad in BAD_RECORDS:
            with pytest.raises(ValueError):
                condenser.push(bad)
            assert condenser.n_seen == 6
            assert condenser.position == 10
        condenser.push_stream(stream[10:])
        assert condenser.n_seen == 6
        assert condenser.position == 30
        assert condenser.to_model().total_count == 6
        condenser.close()
        entries = [entry for __, entry in replay_directory(tmp_path)]
        assert [entry["kind"] for entry in entries] == (
            ["bootstrap"] + ["op"] * 26
        )
        assert [entry["pos"] for entry in entries] == list(range(4, 31))
        for entry in entries[1:]:
            adds = [sub for sub in entry["ops"]
                    if sub["op"] in ("absorb", "split")]
            assert len(adds) == 1
        recovered = SlidingWindowCondenser.recover(tmp_path)
        assert recovered.to_model().total_count == 6
        recovered.close()

    def test_rejected_push_does_not_wedge_the_warm_up(self, rng):
        condenser = SlidingWindowCondenser(k=2, window=6, random_state=0)
        stream = rng.normal(size=(10, 3))
        condenser.push(stream[0])
        for bad in BAD_RECORDS:
            with pytest.raises(ValueError):
                condenser.push(bad)
        assert condenser.n_seen == 1
        assert condenser.position == 1
        condenser.push_stream(stream[1:4])
        assert condenser.is_warm
        condenser.push_stream(stream[4:])
        assert condenser.n_seen == 6
        assert condenser.position == 10
        assert condenser.to_model().total_count == 6

    def test_repr(self, rng):
        condenser = SlidingWindowCondenser(k=2, window=10)
        assert "warm=False" in repr(condenser)
