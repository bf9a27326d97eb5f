import numpy as np
import pytest

from decentrack.partition import (
    Partition,
    dirichlet_partition,
    histogram_csv,
    partition_histogram,
)


def balanced_labels(n_classes: int, n_samples: int) -> np.ndarray:
    return np.arange(n_samples) % n_classes


class TestDirichletPartition:
    def test_single_agent_gets_everything(self):
        labels = balanced_labels(4, 100)
        part = dirichlet_partition(labels, 1, alpha=0.5, seed=0)
        assert np.array_equal(np.sort(part.assignments[0]), np.arange(100))

    def test_large_alpha_near_uniform(self):
        labels = balanced_labels(10, 10000)
        part = dirichlet_partition(labels, 16, alpha=1e6, seed=3)
        for size in part.sizes():
            assert abs(size - 625) <= 62.5

    def test_tiny_alpha_concentrates_each_class(self):
        # sampling oracle: across seeds, every class lands almost wholly
        # on a single agent
        labels = balanced_labels(10, 2000)
        for seed in range(100):
            part = dirichlet_partition(
                labels, 10, alpha=1e-6, seed=seed, min_per_agent=0
            )
            table, _ = partition_histogram(part, labels)
            for c in range(10):
                assert table[:, c].max() / table[:, c].sum() >= 0.99

    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(42)
        labels = rng.integers(0, 7, size=500)
        for _ in range(25):
            alpha = float(10 ** rng.uniform(-2, 2))
            seed = int(rng.integers(0, 1 << 30))
            part = dirichlet_partition(labels, 8, alpha=alpha, seed=seed)
            joined = np.concatenate(part.assignments)
            assert len(joined) == len(labels)
            assert np.array_equal(np.sort(joined), np.arange(len(labels)))

    def test_deterministic(self):
        labels = balanced_labels(5, 300)
        a = dirichlet_partition(labels, 6, alpha=0.3, seed=9)
        b = dirichlet_partition(labels, 6, alpha=0.3, seed=9)
        for x, y in zip(a.assignments, b.assignments):
            assert np.array_equal(x, y)

    def test_min_per_agent_respected(self):
        labels = balanced_labels(10, 1000)
        part = dirichlet_partition(labels, 8, alpha=0.05, seed=1, min_per_agent=3)
        assert min(part.sizes()) >= 3

    def test_redraw_budget_exhaustion_names_combination(self):
        labels = balanced_labels(2, 10)
        with pytest.raises(RuntimeError, match=r"alpha=0.01, n_agents=10"):
            dirichlet_partition(labels, 10, alpha=0.01, seed=0, min_per_agent=5)

    @pytest.mark.parametrize(
        "alpha,n_agents", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, 999), (np.nan, 4), (np.inf, 4)]
    )
    def test_invalid_arguments(self, alpha, n_agents):
        with pytest.raises(ValueError):
            dirichlet_partition(balanced_labels(2, 20), n_agents, alpha=alpha, seed=0)


class TestPartitionHistogram:
    def test_iid_split_low_skew(self):
        labels = balanced_labels(10, 10000)
        part = dirichlet_partition(labels, 16, alpha=1e6, seed=0)
        _, skew = partition_histogram(part, labels)
        assert skew < 0.01

    def test_one_class_per_agent_skew_one(self):
        labels = balanced_labels(4, 400)
        assignments = [np.flatnonzero(labels == c) for c in range(4)]
        part = dirichlet_partition(labels, 4, alpha=1.0, seed=0)
        part.assignments[:] = assignments
        _, skew = partition_histogram(part, labels)
        assert skew == 1.0

    def test_smaller_alpha_more_skew(self):
        labels = balanced_labels(10, 8000)
        _, skew_low = partition_histogram(
            dirichlet_partition(labels, 16, alpha=0.01, seed=5), labels
        )
        _, skew_high = partition_histogram(
            dirichlet_partition(labels, 16, alpha=1.0, seed=5), labels
        )
        assert skew_low > skew_high

    def test_counts_match_sizes(self):
        labels = balanced_labels(3, 120)
        part = dirichlet_partition(labels, 5, alpha=0.5, seed=2)
        table, _ = partition_histogram(part, labels)
        assert table.sum() == 120
        assert list(table.sum(axis=1)) == part.sizes()

    @pytest.mark.parametrize("index", [-1, -4, 4])
    def test_index_outside_labels_names_the_agent(self, index):
        labels = balanced_labels(2, 4)
        part = Partition(assignments=[np.array([0, 1]), np.array([2, index])])
        with pytest.raises(ValueError, match="agent 1 holds indices outside the label array"):
            partition_histogram(part, labels)

    def test_csv_rendering(self):
        table = np.array([[1, 2], [3, 4]])
        assert histogram_csv(table) == "1,2\n3,4\n"
