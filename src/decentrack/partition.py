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
        raise ValueError(f"n_agents must be in [1, {len(labels)}], got {n_agents}")
    # the classes are np.unique's: sorted, every NaN in one.  A class holds
    # the samples equal to it (the NaN class every NaN), ascending: the
    # argsort leaves ties unordered, so one sort of class·N + index orders them
    order = np.argsort(labels, axis=None)
    ranked = np.take(labels, order)
    real = ranked == ranked  # False only on NaN, which sorts last
    starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]) & real[:-1]])
    sizes = np.diff(starts, append=labels.size)
    base = np.repeat(np.arange(len(sizes)) * labels.size, sizes)
    members = np.sort(base + order) - base
    agents = np.tile(np.arange(n_agents) * labels.size, len(sizes))
    alphas, ends = np.full(n_agents, alpha), np.cumsum(sizes).tolist()
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng(seed + attempt)
        shuffled = members.copy()
        p = np.empty((len(sizes), n_agents))
        for c, (lo, hi) in enumerate(zip([0, *ends], ends)):  # shuffle, then proportions
            rng.shuffle(shuffled[lo:hi])
            p[c] = rng.dirichlet(alphas)
        # largest remainders: class c's short[c] largest round up, ties in agent order
        raw = p * sizes[:, None]
        counts = np.floor(raw).astype(int)
        short = sizes - counts.sum(axis=1)
        up = np.argsort(-(raw - counts), axis=1, kind="stable")
        counts[np.arange(len(sizes))[:, None], up] += np.arange(n_agents) < short[:, None]
        totals = counts.sum(axis=0)
        if totals.min() >= min_per_agent:
            # each class's block goes out in runs; agent·N + index keys sort by agent
            keys = np.sort(np.repeat(agents, counts.ravel()) + shuffled)
            keys -= np.repeat(agents[:n_agents], totals)
            cuts = np.cumsum(totals).tolist()
            return Partition(assignments=[keys[lo:hi] for lo, hi in zip([0, *cuts], cuts)])
    raise RuntimeError(
        f"could not satisfy min_per_agent={min_per_agent} after {_MAX_REDRAWS} "
        f"redraws (alpha={alpha}, n_agents={n_agents}); raise alpha"
        " (--partition.alpha) or lower min_per_agent (--partition.min_per_agent)"
    )


def partition_histogram(
    part: Partition, labels: np.ndarray
) -> tuple[np.ndarray, float]:
    """Per-agent class-count table, one column per class of ``np.unique``,
    plus a label-skew score in [0, 1].

    Skew is the mean over agents of 1 - H(agent label distribution) /
    log(n_classes): 0 for perfectly balanced agents, 1 when every agent
    holds a single class.
    """
    classes, position = np.unique(labels, return_inverse=True)
    table = np.zeros((part.n_agents, len(classes)), dtype=int)
    for agent, idx in enumerate(part.assignments):
        if idx.min(initial=0) < 0 or idx.max(initial=-1) >= len(position):
            raise ValueError(f"agent {agent} holds indices outside the label array")
        table[agent] = np.bincount(position[idx], minlength=len(classes))
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
