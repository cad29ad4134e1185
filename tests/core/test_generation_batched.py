"""Differential tests for block-stacked generation (§2.1).

``generate_anonymized_data`` works in blocks of up to
``_GENERATION_BLOCK`` groups: one stacked ``eigh`` call, one sampler
draw for the whole block and one stacked product per distinct draw
size.  The references below are the earlier one-group-at-a-time
eigen-system, samplers and generation loop, kept as oracles: the
stacked eigen-systems, the generated arrays and the generator's state
afterwards must agree with them byte for byte.  That identity rests on
NumPy running LAPACK once per matrix of a stack, on a generator's
stream being contiguous across calls, and on a stacked ``matmul``
running the same gemm per slice as a 2-D product; these tests pin all
three for the installed build.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import generation
from repro.core.generation import (
    _GENERATION_BLOCK,
    generate_anonymized_data,
    generate_group_records,
    resolve_sampler,
)
from repro.core.statistics import (
    CondensedModel,
    GroupStatistics,
    stacked_covariances,
    stacked_eigen_systems,
)
from repro.linalg.rng import check_random_state
from repro.serve.service import _proportional_sizes


def reference_eigen_system(group):
    """One group's covariance, symmetrized twice, then ``eigh``."""
    mean = group.first_order / group.count
    covariance = group.second_order / group.count - np.outer(mean, mean)
    covariance = (covariance + covariance.T) / 2.0
    covariance = (covariance + covariance.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    order = np.argsort(eigenvalues)[::-1]
    return np.clip(eigenvalues[order], 0.0, None), eigenvectors[:, order]


def reference_uniform(rng, eigenvalues, size):
    """The per-group uniform sampler, as it was."""
    half_range = np.sqrt(12.0 * eigenvalues) / 2.0
    return rng.uniform(-1.0, 1.0, size=(size, eigenvalues.shape[0])) * (
        half_range[None, :]
    )


def reference_gaussian(rng, eigenvalues, size):
    """The per-group Gaussian sampler, as it was."""
    stddev = np.sqrt(eigenvalues)
    return rng.standard_normal((size, eigenvalues.shape[0])) * stddev[None, :]


REFERENCE_SAMPLERS = {"uniform": reference_uniform,
                      "gaussian": reference_gaussian}


def reference_generate(model, sampler="uniform", random_state=None,
                       sizes=None):
    """The per-group generation loop, as it was."""
    rng = check_random_state(random_state)
    if isinstance(sampler, str):
        sampler = REFERENCE_SAMPLERS[sampler]
    if sizes is None:
        sizes = [group.count for group in model.groups]
    parts = []
    for group, size in zip(model.groups, sizes):
        if size <= 0:
            continue
        eigenvalues, eigenvectors = reference_eigen_system(group)
        coordinates = np.asarray(
            sampler(rng, eigenvalues, size), dtype=float
        )
        parts.append(group.centroid[None, :] + coordinates @ eigenvectors.T)
    if not parts:
        return np.empty((0, model.n_features))
    return np.vstack(parts)


def assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert actual.tobytes() == expected.tobytes()


def assert_matches_reference(groups):
    eigenvalues, eigenvectors = stacked_eigen_systems(groups)
    assert eigenvalues.shape == (len(groups), groups[0].n_features)
    for index, group in enumerate(groups):
        expected_values, expected_vectors = reference_eigen_system(group)
        assert_same_bytes(eigenvalues[index], expected_values)
        assert_same_bytes(eigenvectors[index], expected_vectors)
        values, vectors = group.eigen_system()
        assert_same_bytes(values, expected_values)
        assert_same_bytes(vectors, expected_vectors)


def random_groups(n_groups, d, seed, low=1, high=40, offset=0.0):
    rng = np.random.default_rng(seed)
    groups = []
    for __ in range(n_groups):
        count = int(rng.integers(low, high + 1))
        scale = rng.uniform(0.1, 3.0, size=d)
        records = offset + rng.normal(size=(count, d)) * scale
        groups.append(GroupStatistics.from_records(records))
    return groups


def random_model(n_groups, d=4, seed=0):
    return CondensedModel(random_groups(n_groups, d, seed, low=2), k=2)


def mixed_size_model(d, k=5, n_groups=300, seed=0):
    """Groups of every size from 1 to 2k - 1, plus one that absorbed
    leftovers (3k + 2 records), cycled over more than one block."""
    rng = np.random.default_rng(seed)
    counts = [1 + index % (2 * k - 1) for index in range(n_groups)]
    counts[n_groups // 3] = 3 * k + 2
    groups = [
        GroupStatistics.from_records(
            rng.normal(size=(count, d)) * rng.uniform(0.1, 3.0, size=d)
            + rng.normal(size=d) * 10.0
        )
        for count in counts
    ]
    return CondensedModel(groups, k=1)


def interleaved_zeros(model):
    """Each group's count, with every third group drawing nothing."""
    return [0 if index % 3 == 1 else group.count
            for index, group in enumerate(model.groups)]


def laplace_sampler(rng, eigenvalues, size):
    """Custom per-axis distribution with variance λ (scale sqrt(λ/2))."""
    scale = np.sqrt(eigenvalues / 2.0)
    return rng.laplace(size=(size, eigenvalues.shape[0])) * scale


class TestStackedEigenSystems:
    @pytest.mark.parametrize("d", [1, 8, 20])
    def test_random_groups(self, d):
        assert_matches_reference(random_groups(300, d, seed=d))

    def test_exact_duplicate_groups(self):
        # Every record equal: all eigenvalues tie at (near) zero.
        rng = np.random.default_rng(1)
        groups = [
            GroupStatistics.from_records(
                np.repeat(rng.normal(size=(1, 6)), count, axis=0)
            )
            for count in (2, 3, 20, 7)
        ]
        assert_matches_reference(groups)

    def test_single_record_groups(self):
        # k = 1: each group is one record, a zero covariance.
        assert_matches_reference(random_groups(50, 5, seed=2, high=1))

    def test_fewer_records_than_dimensions_with_offset_means(self):
        # |mean| >> stddev: the raw-sum covariance cancels into tiny
        # negative eigenvalues that must be clipped identically.
        groups = random_groups(100, 8, seed=3, low=2, high=5, offset=1e4)
        eigenvalues, __ = stacked_eigen_systems(groups)
        assert (eigenvalues >= 0.0).all()
        assert_matches_reference(groups)

    def test_isotropic_ties(self):
        groups = [
            GroupStatistics.from_moments(
                np.full(4, float(index)), np.eye(4) * (index + 1), 10
            )
            for index in range(20)
        ]
        assert_matches_reference(groups)

    def test_asymmetric_second_order_sums(self):
        # Sums read back from elsewhere need not be exactly symmetric;
        # the stack must symmetrize them as the per-group path did.
        rng = np.random.default_rng(4)
        groups = []
        for __ in range(30):
            group = GroupStatistics.from_records(rng.normal(size=(9, 5)))
            group.second_order += np.triu(rng.normal(size=(5, 5)) * 1e-3)
            groups.append(group)
        assert_matches_reference(groups)

    def test_one_group_stacks(self):
        for group in random_groups(40, 3, seed=5):
            assert_matches_reference([group])

    def test_second_symmetrization_changes_no_bit(self):
        # The per-group path symmetrized twice; the stack once.  A sum
        # (a + b) / 2 is exactly symmetric, so the second pass is
        # (x + x) / 2 == x, including at overflow and subnormal scales.
        rng = np.random.default_rng(6)
        for scale in (1e-310, 1.0, 1e150, 8e307):
            matrix = rng.uniform(-1.0, 1.0, size=(64, 6, 6)) * scale
            once = (matrix + matrix.swapaxes(1, 2)) / 2.0
            twice = (once + once.swapaxes(1, 2)) / 2.0
            assert twice.tobytes() == once.tobytes()

    @pytest.mark.parametrize("d", [1, 4, 20])
    def test_stacked_covariances_match_group_covariance(self, d):
        groups = random_groups(60, d, seed=20 + d, offset=50.0)
        covariances = stacked_covariances(groups)
        for group, covariance in zip(groups, covariances):
            assert covariance.tobytes() == group.covariance.tobytes()

    def test_empty_group_rejected(self):
        groups = random_groups(3, 2, seed=7) + [GroupStatistics.empty(2)]
        with pytest.raises(ValueError, match="empty group"):
            stacked_eigen_systems(groups)


class TestGenerateMatchesReference:
    @pytest.mark.parametrize("n_groups", [1, 255, 256, 257, 600])
    def test_block_boundaries(self, n_groups):
        model = random_model(n_groups, seed=n_groups)
        assert_same_bytes(
            generate_anonymized_data(model, random_state=n_groups),
            reference_generate(model, random_state=n_groups),
        )

    @pytest.mark.parametrize("n_groups", [1, 255, 256, 257, 600])
    def test_block_sizes(self, n_groups, monkeypatch):
        stacks = []

        def recording(groups):
            stacks.append(len(groups))
            return stacked_eigen_systems(groups)

        monkeypatch.setattr(generation, "stacked_eigen_systems", recording)
        generate_anonymized_data(random_model(n_groups), random_state=0)
        full, rest = divmod(n_groups, _GENERATION_BLOCK)
        assert stacks == [_GENERATION_BLOCK] * full + ([rest] if rest else [])

    @pytest.mark.parametrize("sampler", ["uniform", "gaussian",
                                         laplace_sampler])
    def test_samplers(self, sampler):
        model = random_model(400, d=6, seed=11)
        assert_same_bytes(
            generate_anonymized_data(model, sampler=sampler,
                                     random_state=3),
            reference_generate(model, sampler=sampler, random_state=3),
        )

    def test_sizes_with_zeros(self):
        # The serve path's allocation: fewer draws than groups, so most
        # groups get zero; an empty group with size zero is skipped.
        groups = random_groups(600, 4, seed=12, low=2)
        groups[5] = GroupStatistics.empty(4)
        model = CondensedModel(groups, k=2)
        weights = [max(group.count, 1) for group in groups]
        sizes = _proportional_sizes(weights, 300)
        sizes[5] = 0
        assert sizes.count(0) > 256
        assert_same_bytes(
            generate_anonymized_data(model, random_state=4, sizes=sizes),
            reference_generate(model, random_state=4, sizes=sizes),
        )

    def test_group_records_match_reference(self):
        model = random_model(20, d=3, seed=13)
        for size, group in enumerate(model.groups):
            one = CondensedModel([group], k=1)
            assert_same_bytes(
                generate_group_records(group, size=size, random_state=size),
                reference_generate(one, random_state=size, sizes=[size]),
            )


class TestSamplerCalls:
    @staticmethod
    def _recording(calls):
        def sampler(rng, eigenvalues, size):
            calls.append((eigenvalues.tobytes(), size))
            return resolve_sampler("uniform")(rng, eigenvalues, size)
        return sampler

    def test_called_once_per_drawn_group_in_model_order(self):
        cycled = random_model(300, d=3, seed=14)
        mixed = mixed_size_model(4, seed=16)
        for model, sizes in (
            (cycled, [index % 3 for index in range(cycled.n_groups)]),
            (mixed, interleaved_zeros(mixed)),
        ):
            calls, expected = [], []
            generate_anonymized_data(model, sampler=self._recording(calls),
                                     random_state=0, sizes=sizes)
            reference_generate(model, sampler=self._recording(expected),
                               random_state=0, sizes=sizes)
            assert len(calls) == sum(1 for size in sizes if size > 0)
            assert calls == expected

    def test_wrong_shape_rejected(self):
        def bad_sampler(rng, eigenvalues, size):
            return np.zeros((size, eigenvalues.shape[0] + 1))

        with pytest.raises(ValueError, match="wrong shape"):
            generate_anonymized_data(random_model(300), sampler=bad_sampler)

    def test_wrong_row_count_mid_block_rejected(self):
        calls = []

        def short_sampler(rng, eigenvalues, size):
            calls.append(size)
            rows = size - 1 if len(calls) == 100 else size
            return np.zeros((rows, eigenvalues.shape[0]))

        with pytest.raises(ValueError, match="wrong shape"):
            generate_anonymized_data(mixed_size_model(3),
                                     sampler=short_sampler)
        assert len(calls) == 100

    def test_empty_group_with_draws_rejected(self):
        groups = random_groups(300, 2, seed=15, low=2)
        groups[280] = GroupStatistics.empty(2)
        model = CondensedModel(groups, k=2)
        with pytest.raises(ValueError, match="empty group"):
            generate_anonymized_data(model, sizes=[1] * model.n_groups)



class TestBlockDraws:
    @pytest.mark.parametrize("d", [1, 4, 8, 20])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_mixed_sizes_in_one_block(self, d, zeros):
        model = mixed_size_model(d, seed=d)
        sizes = interleaved_zeros(model) if zeros else None
        assert_same_bytes(
            generate_anonymized_data(model, random_state=d, sizes=sizes),
            reference_generate(model, random_state=d, sizes=sizes),
        )

    @pytest.mark.parametrize("d", [1, 4, 8, 20])
    def test_every_group_draws_one_record(self, d):
        # The serve /generate?n=256 shape over a larger model: every
        # bucket is size 1, a stack of (1, d) @ (d, d) products.
        model = random_model(600, d=d, seed=30 + d)
        sizes = [1] * model.n_groups
        assert_same_bytes(
            generate_anonymized_data(model, random_state=d, sizes=sizes),
            reference_generate(model, random_state=d, sizes=sizes),
        )

    @pytest.mark.parametrize("sampler", ["uniform", "gaussian",
                                         laplace_sampler])
    def test_generator_state_matches_reference(self, sampler):
        model = mixed_size_model(4, seed=40)
        sizes = interleaved_zeros(model)
        rng = np.random.default_rng(41)
        expected_rng = np.random.default_rng(41)
        assert_same_bytes(
            generate_anonymized_data(model, sampler=sampler,
                                     random_state=rng, sizes=sizes),
            reference_generate(model, sampler=sampler,
                               random_state=expected_rng, sizes=sizes),
        )
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize("name", ["uniform", "gaussian"])
    def test_per_group_sampler_is_the_block_of_one(self, name):
        rng = np.random.default_rng(42)
        expected_rng = np.random.default_rng(42)
        eigenvalues = np.array([4.0, 1.0, 0.25, 0.0])
        for size in (0, 1, 7):
            assert_same_bytes(
                resolve_sampler(name)(rng, eigenvalues, size),
                REFERENCE_SAMPLERS[name](expected_rng, eigenvalues, size),
            )
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_resolved_builtin_sampler_matches_its_name(self):
        model = mixed_size_model(3, seed=43)
        assert_same_bytes(
            generate_anonymized_data(
                model, sampler=resolve_sampler("gaussian"), random_state=5
            ),
            reference_generate(model, sampler="gaussian", random_state=5),
        )

    def test_peak_memory_is_bounded_by_the_output(self):
        model = CondensedModel(
            random_groups(2500, 8, seed=44, low=20, high=39), k=20
        )
        # Warm up first, so one-time imports and caches are not traced.
        generate_anonymized_data(random_model(3), random_state=0)
        tracemalloc.start()
        try:
            generated = generate_anonymized_data(model, random_state=0)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert generated.shape == (model.total_count, 8)
        assert peak <= 1.5 * generated.nbytes
