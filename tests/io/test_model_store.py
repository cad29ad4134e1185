"""Tests for repro.io.model_store."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.core.condensation import create_condensed_groups
from repro.core.generation import generate_anonymized_data
from repro.core.statistics import CondensedModel, GroupStatistics
from repro.io.model_store import (
    FORMAT_VERSION,
    _jsonable_metadata,
    load_model,
    save_model,
)
from repro.parallel import condense_sharded


class TestModelRoundTrip:
    def test_round_trip_preserves_statistics(self, tmp_path,
                                              gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.k == model.k
        assert loaded.n_groups == model.n_groups
        np.testing.assert_allclose(loaded.centroids(), model.centroids())
        for original, rebuilt in zip(model.groups, loaded.groups):
            np.testing.assert_allclose(
                rebuilt.second_order, original.second_order
            )

    def test_generation_from_loaded_model(self, tmp_path, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        a = generate_anonymized_data(model, random_state=7)
        b = generate_anonymized_data(loaded, random_state=7)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_metadata_stripped_by_default(self, tmp_path, gaussian_data):
        # Memberships reference original records; they must not ship.
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        assert payload["metadata"] == {}
        assert load_model(path).metadata == {}

    def test_metadata_kept_on_request(self, tmp_path, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        path = tmp_path / "model.json"
        save_model(path, model, include_metadata=True)
        loaded = load_model(path)
        assert loaded.metadata["strategy"] == "random"
        assert len(loaded.metadata["memberships"]) == model.n_groups

    def test_format_version_written(self, tmp_path, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == FORMAT_VERSION

    def test_unknown_version_rejected(self, tmp_path, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            load_model(path)

    def test_missing_version_rejected(self, tmp_path, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        del payload["format_version"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            load_model(path)


class TestPathologicalStatistics:
    """Round trips at the edges the JSON layer must handle explicitly.

    NaN/inf sums and zero-count groups are never produced by a correct
    condensation run, but they can arrive from corrupted inputs or
    hand-edited files, and the store's behavior at those edges is part
    of its contract: values survive byte-exactly without validation,
    and validation rejects them at the trust boundary.
    """

    def _pathological_model(self, gaussian_data, mutate):
        model = create_condensed_groups(gaussian_data, k=10,
                                        random_state=0)
        mutate(model.groups[0])
        return model

    def test_nan_sums_round_trip_unvalidated(self, tmp_path,
                                             gaussian_data):
        def poison(group):
            group.first_order[0] = np.nan

        model = self._pathological_model(gaussian_data, poison)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path, validate=False)
        assert np.isnan(loaded.groups[0].first_order[0])
        np.testing.assert_array_equal(
            loaded.groups[0].first_order[1:],
            model.groups[0].first_order[1:],
        )

    def test_inf_sums_round_trip_unvalidated(self, tmp_path,
                                             gaussian_data):
        def poison(group):
            group.second_order[0, 0] = np.inf
            group.first_order[1] = -np.inf

        model = self._pathological_model(gaussian_data, poison)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path, validate=False)
        assert loaded.groups[0].second_order[0, 0] == np.inf
        assert loaded.groups[0].first_order[1] == -np.inf

    def test_nan_sums_rejected_by_validation(self, tmp_path,
                                             gaussian_data):
        def poison(group):
            group.first_order[0] = np.nan

        model = self._pathological_model(gaussian_data, poison)
        path = tmp_path / "model.json"
        save_model(path, model)
        with pytest.raises(ValueError, match="non-finite first-order"):
            load_model(path)

    def test_inf_sums_rejected_by_validation(self, tmp_path,
                                             gaussian_data):
        def poison(group):
            group.second_order[2, 2] = np.inf

        model = self._pathological_model(gaussian_data, poison)
        path = tmp_path / "model.json"
        save_model(path, model)
        with pytest.raises(ValueError, match="non-finite second-order"):
            load_model(path)

    def test_zero_count_group_round_trips_unvalidated(self, tmp_path,
                                                      gaussian_data):
        def empty_out(group):
            group.count = 0
            group.first_order[:] = 0.0
            group.second_order[:] = 0.0

        model = self._pathological_model(gaussian_data, empty_out)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path, validate=False)
        assert loaded.groups[0].count == 0
        np.testing.assert_array_equal(loaded.groups[0].first_order,
                                      np.zeros_like(
                                          model.groups[0].first_order))

    def test_zero_count_group_rejected_by_validation(self, tmp_path,
                                                     gaussian_data):
        def empty_out(group):
            group.count = 0

        model = self._pathological_model(gaussian_data, empty_out)
        path = tmp_path / "model.json"
        save_model(path, model)
        with pytest.raises(ValueError, match="non-positive count"):
            load_model(path)

    def test_extreme_magnitudes_survive_exactly(self, tmp_path,
                                                gaussian_data):
        """The JSON float round trip is shortest-repr exact."""
        def stretch(group):
            group.first_order[0] = 1.7976931348623157e308
            group.first_order[1] = 5e-324
            group.second_order[0, 0] = 2.2250738585072014e-308

        model = self._pathological_model(gaussian_data, stretch)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path, validate=False)
        np.testing.assert_array_equal(loaded.groups[0].first_order,
                                      model.groups[0].first_order)
        np.testing.assert_array_equal(loaded.groups[0].second_order,
                                      model.groups[0].second_order)


def _oracle_save(path, model, include_metadata=False):
    """The pre-streaming ``save_model``: one payload through ``json.dump``.

    Kept as the byte oracle for the streamed writer.
    """
    payload = model.to_dict()
    if not include_metadata:
        payload["metadata"] = {}
    else:
        payload["metadata"] = _jsonable_metadata(payload["metadata"])
    payload["format_version"] = FORMAT_VERSION
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _one_group(data):
    return CondensedModel(groups=[GroupStatistics.from_records(data)],
                          k=len(data))


def _edge_floats(data):
    sums = np.array([-0.0, 5e-324, 1e-300, 1e16, 1 / 3])
    group = GroupStatistics(first_order=sums,
                            second_order=np.outer(sums, sums[::-1]),
                            count=3)
    return CondensedModel(groups=[group, group.copy()], k=3)


def _metadata_with_groups_key(data):
    model = create_condensed_groups(data, k=10, random_state=0)
    model.metadata["groups"] = []
    model.metadata["nested"] = {"groups": [[]], "x": 1.5}
    return model


# (id, builder over the gaussian fixture, include_metadata)
_BYTE_CASES = [
    ("default",
     lambda data: create_condensed_groups(data, k=10, random_state=0),
     False),
    ("static-metadata",
     lambda data: create_condensed_groups(data, k=10, random_state=0),
     True),
    ("sharded-metadata",
     lambda data: condense_sharded(data, k=10, n_shards=3, n_workers=1,
                                   random_state=0),
     True),
    ("one-group", _one_group, False),
    ("d-1",
     lambda data: create_condensed_groups(data[:, :1], k=10,
                                          random_state=0),
     False),
    ("edge-floats", _edge_floats, False),
    ("k-1",
     lambda data: create_condensed_groups(data[:30], k=1,
                                          random_state=0),
     False),
    ("metadata-groups-key", _metadata_with_groups_key, True),
]


class TestStreamedBytes:
    """``save_model`` streams per-group chunks with ``json.dump``'s bytes."""

    @pytest.mark.parametrize(
        "build, include_metadata",
        [case[1:] for case in _BYTE_CASES],
        ids=[case[0] for case in _BYTE_CASES],
    )
    def test_bytes_match_json_dump(self, tmp_path, gaussian_data, build,
                                   include_metadata):
        model = build(gaussian_data)
        streamed = tmp_path / "streamed.json"
        oracle = tmp_path / "oracle.json"
        save_model(streamed, model, include_metadata=include_metadata)
        _oracle_save(oracle, model, include_metadata=include_metadata)
        assert streamed.read_bytes() == oracle.read_bytes()

    def test_sharded_metadata_is_nested(self, tmp_path, gaussian_data):
        # Guards the sharded case above: it must carry a nested dict.
        model = condense_sharded(gaussian_data, k=10, n_shards=3,
                                 n_workers=1, random_state=0)
        path = tmp_path / "model.json"
        save_model(path, model, include_metadata=True)
        payload = json.loads(path.read_text())
        assert isinstance(payload["metadata"]["parallel"], dict)

    def test_peak_allocation_is_per_group(self, tmp_path):
        # A whole-model payload or string for 2,000 eight-column groups
        # takes megabytes; one group's chunk takes a few kilobytes.
        rng = np.random.default_rng(0)
        model = CondensedModel(
            groups=[GroupStatistics.from_records(rng.normal(size=(3, 8)))
                    for _ in range(2000)],
            k=3,
        )
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            save_model(path, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        assert len(load_model(path).groups) == 2000

    def test_failed_save_keeps_previous_file(self, tmp_path,
                                             gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10,
                                        random_state=0)
        path = tmp_path / "model.json"
        save_model(path, model)
        before = path.read_bytes()
        model.metadata = {"x": object()}
        with pytest.raises(TypeError):
            save_model(path, model, include_metadata=True)
        assert path.read_bytes() == before
