import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        for size in [len(a) for a in part.assignments]:
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
        assert min([len(a) for a in part.assignments]) >= 3

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


def _reference_counts(p: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total`` that round the proportions ``p``."""
    raw = p * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def reference_partition(labels, n_agents, alpha, seed, min_per_agent=1):
    """The per-class loop ``dirichlet_partition`` ran before its array passes,
    with each class's members taken from ``np.unique``'s inverse, kept as the
    reference its partitions must equal."""
    labels = np.asarray(labels)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if n_agents < 1 or n_agents > len(labels):
        raise ValueError(
            f"n_agents must be in [1, {len(labels)}], got {n_agents}"
        )
    classes, position = np.unique(labels, return_inverse=True)
    for attempt in range(100):
        rng = np.random.default_rng(seed + attempt)
        buckets: list[list[np.ndarray]] = [[] for _ in range(n_agents)]
        for c in range(len(classes)):
            idx = np.flatnonzero(position == c)
            rng.shuffle(idx)
            p = rng.dirichlet(np.full(n_agents, alpha))
            counts = _reference_counts(p, len(idx))
            start = 0
            for agent, k in enumerate(counts):
                buckets[agent].append(idx[start : start + k])
                start += k
        assignments = [
            np.sort(np.concatenate(b)) if b else np.array([], dtype=int)
            for b in buckets
        ]
        if min(len(a) for a in assignments) >= min_per_agent:
            return Partition(assignments=assignments)
    raise RuntimeError(
        f"could not satisfy min_per_agent={min_per_agent} after 100 "
        f"redraws (alpha={alpha}, n_agents={n_agents}); raise alpha"
        " (--partition.alpha) or lower min_per_agent (--partition.min_per_agent)"
    )


_REDRAWN = np.array([-7, 3, 3, 40, -7, 3, 40, 40, 3, -7, 3, 40, 3, 3, -7, 40, 3, 3, 40, 3])
_FLOAT_CLASSES = st.sampled_from([np.nan, -0.0, 0.0, 1.5, -2.0, 7.0, np.inf, -np.inf, 1e300])


@st.composite
def partition_cases(draw):
    """Labels from a pool of 1-12 class values (ints with gaps and negative
    values, floats with NaN and signed zeros, or strings), an agent count in
    1-64 (1 and len(labels) among them), alpha in 10^[-2, 2], min_per_agent
    in 0-3 and a seed."""
    kind = draw(st.sampled_from(["int", "float", "str"]))
    if kind == "int":
        pool = draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=12, unique=True))
    elif kind == "float":
        pool = draw(st.lists(_FLOAT_CLASSES, min_size=1, max_size=12))
    else:
        pool = draw(st.lists(st.text("abc", max_size=3), min_size=1, max_size=12, unique=True))
    n = draw(st.integers(1, 160))
    labels = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    n_agents = draw(st.sampled_from([1, min(n, 64), draw(st.integers(1, min(n, 64)))]))
    alpha = 10 ** draw(st.floats(-2, 2))
    return labels, n_agents, alpha, draw(st.integers(0, 2**32)), draw(st.integers(0, 3))


class TestMatchesPerClassLoop:
    """``dirichlet_partition`` draws the partition of the per-class loop it
    replaced, array for array and dtype for dtype, redraws and exhaustion
    included."""

    @settings(max_examples=300, deadline=None)
    @given(partition_cases())
    @example((_REDRAWN, 6, 0.3, 0, 2))  # accepted at the 8th draw
    @example((balanced_labels(2, 10), 10, 0.01, 0, 5))  # exhausts its 100 draws
    @example((np.array([np.nan, 1.0, np.nan, -0.0, 0.0, 1.0]), 2, 1.0, 3, 0))  # NaNs: one class
    def test_same_partition(self, case):
        labels, n_agents, alpha, seed, min_per_agent = case
        outcomes = []
        for draw in (reference_partition, dirichlet_partition):
            try:
                outcomes.append(draw(labels, n_agents, alpha, seed, min_per_agent).assignments)
            except RuntimeError as exc:
                outcomes.append(str(exc))
        expected, got = outcomes
        if isinstance(expected, str) or isinstance(got, str):
            assert got == expected
            return
        assert len(got) == len(expected) == n_agents
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


class TestCovering:
    """Every sample lands in exactly one agent, and the histogram counts each
    agent's samples once, whatever the labels' type."""

    @settings(max_examples=200, deadline=None)
    @given(partition_cases())
    @example((np.array([0, np.nan, 1, np.nan, 1, 0]), 2, 1.0, 0, 0))
    @example((np.array(["b", "a", "b", "c", "a"]), 3, 0.1, 4, 0))
    def test_assignments_cover_every_sample_once(self, case):
        labels, n_agents, alpha, seed, _ = case
        part = dirichlet_partition(labels, n_agents, alpha, seed, min_per_agent=0)
        joined = np.sort(np.concatenate(part.assignments))
        assert np.array_equal(joined, np.arange(len(labels)))
        table, _ = partition_histogram(part, labels)
        assert table.shape == (n_agents, len(np.unique(labels)))
        assert table.sum(axis=1).tolist() == [len(a) for a in part.assignments]


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
        assert list(table.sum(axis=1)) == [len(a) for a in part.assignments]

    @pytest.mark.parametrize("index", [-1, -4, 4])
    def test_index_outside_labels_names_the_agent(self, index):
        labels = balanced_labels(2, 4)
        part = Partition(assignments=[np.array([0, 1]), np.array([2, index])])
        with pytest.raises(ValueError, match="agent 1 holds indices outside the label array"):
            partition_histogram(part, labels)

    def test_float_classes_keep_their_own_columns(self):
        # 0.5 and 0.7 are two classes, though both truncate to 0
        labels = np.array([0.5, 0.7, 0.5, 0.7, 1.5, 1.5])
        part = dirichlet_partition(labels, 2, alpha=1.0, seed=0, min_per_agent=0)
        assert [a.tolist() for a in part.assignments] == [[0, 2, 5], [1, 3, 4]]
        table, _ = partition_histogram(part, labels)
        assert table.tolist() == [[2, 0, 1], [0, 2, 1]]

    def test_nan_labels_form_one_class(self):
        labels = np.array([0.0, np.nan, np.nan, 1.0, 1.0, 0.0])
        part = Partition(assignments=[np.array([0, 1, 2]), np.array([3, 4, 5])])
        table, _ = partition_histogram(part, labels)
        assert table.tolist() == [[1, 0, 2], [1, 2, 0]]

    def test_string_labels(self):
        labels = np.array(["b", "a", "b", "c"])
        part = Partition(assignments=[np.array([0, 1]), np.array([2, 3])])
        table, skew = partition_histogram(part, labels)
        assert table.tolist() == [[1, 1, 0], [0, 1, 1]]
        assert skew == pytest.approx(1 - math.log(2) / math.log(3))

    def test_csv_rendering(self):
        table = np.array([[1, 2], [3, 4]])
        assert histogram_csv(table) == "1,2\n3,4\n"
