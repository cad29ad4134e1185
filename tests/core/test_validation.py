"""Tests for repro.core.validation."""

import json

import numpy as np
import pytest

from repro.core.condensation import create_condensed_groups
from repro.core.statistics import CondensedModel, GroupStatistics
from repro.core.validation import _VALIDATION_BLOCK, validate_model


def reference_validate(model):
    """The per-group validation loop, one ``eigvalsh`` per group."""
    problems = []
    for index, group in enumerate(model.groups):
        prefix = f"group {index}"
        if group.count <= 0:
            problems.append(f"{prefix}: non-positive count {group.count}")
            continue
        if not np.isfinite(group.first_order).all():
            problems.append(f"{prefix}: non-finite first-order sums")
            continue
        if not np.isfinite(group.second_order).all():
            problems.append(f"{prefix}: non-finite second-order sums")
            continue
        if group.count < model.k:
            problems.append(
                f"{prefix}: size {group.count} below the declared "
                f"k={model.k}"
            )
        lower_bound = group.first_order**2 / group.count
        diagonal = np.diag(group.second_order)
        scale = np.abs(diagonal).max() + 1.0
        violation = lower_bound - diagonal
        if (violation > 1e-6 * scale).any():
            worst = int(np.argmax(violation))
            problems.append(
                f"{prefix}: second-order diagonal below the "
                f"Cauchy-Schwarz bound at attribute {worst}"
            )
            continue
        eigenvalues = np.linalg.eigvalsh(group.covariance)
        eigen_scale = max(abs(float(eigenvalues[-1])), 1.0)
        if eigenvalues[0] < -1e-6 * eigen_scale:
            problems.append(
                f"{prefix}: covariance has significantly negative "
                f"eigenvalue {eigenvalues[0]:.3e}"
            )
    return problems


def large_model(n_groups=600, d=4, k=5, seed=0):
    """More groups than one validation block, all valid."""
    rng = np.random.default_rng(seed)
    groups = [
        GroupStatistics.from_records(
            rng.normal(size=(int(rng.integers(k, 2 * k)), d)) * 3.0 + 5.0
        )
        for __ in range(n_groups)
    ]
    return CondensedModel(groups, k=k)


def indefinite(group, index, magnitude):
    """Push one off-diagonal pair of ``Sc`` past any real record set."""
    second_order = group.second_order
    bump = magnitude * np.sqrt(second_order[0, 0] * second_order[1, 1])
    second_order[0, 1] += bump * (1 + index % 3)
    second_order[1, 0] = second_order[0, 1]


class TestValidateModel:
    def test_fresh_model_is_valid(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        assert validate_model(model) == []

    def test_dynamic_model_is_valid(self, gaussian_data, rng):
        from repro.core.dynamic import DynamicGroupMaintainer

        maintainer = DynamicGroupMaintainer(
            8, initial_data=gaussian_data, random_state=0
        )
        maintainer.add_stream(rng.normal(size=(200, 4)))
        assert validate_model(maintainer.to_model()) == []

    def test_coarsened_model_is_valid(self, gaussian_data):
        from repro.core.coarsen import coarsen_model

        model = create_condensed_groups(gaussian_data, k=5, random_state=0)
        assert validate_model(coarsen_model(model, 20)) == []

    def test_undersized_group_flagged(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        model.groups[0].count = 3
        problems = validate_model(model)
        assert any("below the declared" in problem for problem in problems)

    def test_non_finite_sums_flagged(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        model.groups[1].first_order[0] = np.nan
        problems = validate_model(model)
        assert any("non-finite first-order" in p for p in problems)

    def test_cauchy_schwarz_violation_flagged(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        # Shrink a diagonal Sc entry below Fs^2 / n.
        model.groups[0].second_order[0, 0] = -1e6
        problems = validate_model(model)
        assert any("Cauchy-Schwarz" in p for p in problems)

    def test_indefinite_covariance_flagged(self):
        # Hand-build a group whose off-diagonal Sc exceeds what any real
        # record set could produce.
        group = GroupStatistics(
            first_order=np.zeros(2),
            second_order=np.array([[10.0, 50.0], [50.0, 10.0]]),
            count=10,
        )
        model = CondensedModel(groups=[group], k=10)
        problems = validate_model(model)
        assert any("negative eigenvalue" in p for p in problems)

    def test_strict_raises(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        model.groups[0].count = 1
        with pytest.raises(ValueError, match="invalid condensed model"):
            validate_model(model, strict=True)

    def test_multiple_problems_all_reported(self, gaussian_data):
        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        model.groups[0].count = 2
        model.groups[1].first_order[0] = np.inf
        problems = validate_model(model)
        assert len(problems) >= 2


class TestLoadModelValidation:
    def test_tampered_file_rejected(self, tmp_path, gaussian_data):
        from repro.io.model_store import load_model, save_model

        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["groups"][0]["count"] = 1  # below declared k
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="invalid condensed model"):
            load_model(path)

    def test_validation_can_be_disabled(self, tmp_path, gaussian_data):
        from repro.io.model_store import load_model, save_model

        model = create_condensed_groups(gaussian_data, k=10, random_state=0)
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["groups"][0]["count"] = 1
        path.write_text(json.dumps(payload))
        loaded = load_model(path, validate=False)
        assert loaded.groups[0].count == 1


class TestMatchesPerGroupReference:
    def test_valid_models(self, gaussian_data):
        from repro.core.coarsen import coarsen_model

        fresh = create_condensed_groups(gaussian_data, k=10, random_state=0)
        for model in (fresh, coarsen_model(fresh, 20), large_model(),
                      large_model(d=1, seed=1), large_model(d=12, seed=2)):
            assert validate_model(model) == reference_validate(model) == []

    def test_tampered_models(self):
        model = large_model(n_groups=700)
        groups = model.groups
        groups[3].first_order[1] = np.nan
        groups[300].second_order[2, 2] = np.inf
        groups[10].count = 0
        groups[257].count = -2
        groups[40].count = 3  # below k
        groups[255].second_order[0, 0] = -1e6  # Cauchy-Schwarz
        groups[256].second_order[1, 1] = -1e6
        # Below k and a negative eigenvalue: both are reported.
        groups[100] = GroupStatistics.from_records(
            np.random.default_rng(1).normal(size=(4, 4))
        )
        for position, index in enumerate([0, 1, 100, 511, 512, 699]):
            indefinite(groups[index], position, 2.0 + position)
        expected = reference_validate(model)
        assert sum("negative eigenvalue" in p for p in expected) == 6
        assert sum("below the declared" in p for p in expected) == 2
        assert validate_model(model) == expected

    def test_eigen_checks_cross_block_boundaries(self):
        model = large_model(n_groups=3 * _VALIDATION_BLOCK + 1)
        # The first and last group of every block, and a spread between.
        flagged = sorted(
            {edge * _VALIDATION_BLOCK for edge in (0, 1, 2, 3)}
            | {edge * _VALIDATION_BLOCK - 1 for edge in (1, 2, 3)}
            | set(range(0, model.n_groups, 37))
        )
        for index in flagged:
            indefinite(model.groups[index], index, 3.0)
        expected = reference_validate(model)
        assert len(expected) == len(flagged)
        assert validate_model(model) == expected
