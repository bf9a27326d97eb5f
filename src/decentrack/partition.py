"""Label-skewed data assignment across agents via per-class Dirichlet draws.

For every class independently, proportions over agents are drawn from
Dirichlet(alpha * 1) and the class's shuffled samples are handed out in
contiguous blocks.  Small alpha concentrates each class on few agents
(high label skew); large alpha approaches a uniform split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Partition", "dirichlet_partition", "partition_histogram", "histogram_csv"]

_MAX_REDRAWS = 100


@dataclass
class Partition:
    """Disjoint per-agent assignment of sample indices."""

    assignments: list[np.ndarray]

    @property
    def n_agents(self) -> int:
        return len(self.assignments)

    def sizes(self) -> list[int]:
        return [len(a) for a in self.assignments]


def _largest_remainder_counts(p: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to ``total`` that round the proportions ``p``."""
    raw = p * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def dirichlet_partition(
    labels: np.ndarray,
    n_agents: int,
    alpha: float,
    seed: int,
    min_per_agent: int = 1,
) -> Partition:
    """Draw a disjoint, covering, label-skewed partition.

    Deterministic given ``seed``.  If some agent ends up below
    ``min_per_agent`` samples the whole draw is retried with ``seed + 1``,
    at most 100 times.
    """
    labels = np.asarray(labels)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if n_agents < 1 or n_agents > len(labels):
        raise ValueError(
            f"n_agents must be in [1, {len(labels)}], got {n_agents}"
        )
    classes = np.unique(labels)
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng(seed + attempt)
        buckets: list[list[np.ndarray]] = [[] for _ in range(n_agents)]
        for c in classes:
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            p = rng.dirichlet(np.full(n_agents, alpha))
            counts = _largest_remainder_counts(p, len(idx))
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
        f"could not satisfy min_per_agent={min_per_agent} after {_MAX_REDRAWS} "
        f"redraws (alpha={alpha}, n_agents={n_agents})"
    )


def partition_histogram(
    part: Partition, labels: np.ndarray
) -> tuple[np.ndarray, float]:
    """Per-agent class-count table plus a label-skew score in [0, 1].

    Skew is the mean over agents of 1 - H(agent label distribution) /
    log(n_classes): 0 for perfectly balanced agents, 1 when every agent
    holds a single class.
    """
    labels = np.asarray(labels)
    classes = np.unique(labels)
    table = np.zeros((part.n_agents, len(classes)), dtype=int)
    class_pos = {int(c): k for k, c in enumerate(classes)}
    for agent, idx in enumerate(part.assignments):
        if idx.max(initial=-1) >= len(labels):
            raise ValueError(f"agent {agent} holds indices outside the label array")
        for c, cnt in zip(*np.unique(labels[idx], return_counts=True)):
            table[agent, class_pos[int(c)]] = cnt
    if len(classes) < 2:
        return table, 0.0
    skews = []
    for row in table:
        total = row.sum()
        if total == 0:
            skews.append(1.0)
            continue
        q = row[row > 0] / total
        entropy = float(-(q * np.log(q)).sum())
        skews.append(1.0 - entropy / np.log(len(classes)))
    return table, float(np.mean(skews))


def histogram_csv(table: np.ndarray) -> str:
    """CSV rendering of the histogram: rows = agents, columns = classes."""
    return "\n".join(",".join(str(int(v)) for v in row) for row in table) + "\n"
