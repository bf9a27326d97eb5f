"""Communication graphs as doubly stochastic mixing matrices.

Builds the ring, Dyck and torus gossip topologies with uniform weights
(1 / peers-including-self) and computes their spectral statistics, from
the current weights on every call, so reassigned weights are seen.  The
spectral gap ``rho = 1 - max(|lambda2|, |lambdaN|)`` controls how fast
gossip averaging contracts toward consensus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MixingMatrix",
    "SpectralStats",
    "ValidationReport",
    "build_topology",
    "spectral_stats",
    "validate_mixing",
    "as_mixing",
    "matrix_csv",
]

STOCHASTIC_TOL = 1e-12

# Mixing crossover.  ``MixingMatrix.mix`` gathers over the neighbour table
# when there are at least GATHER_MIN_N agents and otherwise multiplies by
# the dense matrix.  Measured with one OpenBLAS thread on a 2-vCPU Xeon KVM
# guest, dense / gather in us at d = 32 (d = 200): ring-128 22 / 31
# (166 / 78), ring-160 28 / 26 (216 / 86), ring-256 103 / 38 (525 / 176),
# ring-1024 2120 / 198, torus-144 35 / 33, torus-256 117 / 56,
# torus-1024 2250 / 339.  At d = 1 both stay below 16 us up to n = 256.
GATHER_MIN_N = 160

# Chords of the Dyck graph on 32 vertices (0-indexed endpoint pairs),
# added on top of the 32-cycle.  Every vertex sits on exactly one chord,
# so the graph is 3-regular before self-loops.
_DYCK_CHORDS = [
    (0, 19), (3, 16), (8, 27), (11, 24),
    (4, 23), (7, 20), (12, 31), (15, 28),
    (1, 6), (5, 10), (9, 14), (13, 18),
    (17, 22), (21, 26), (25, 30), (2, 29),
]


@dataclass
class SpectralStats:
    """Second-largest / smallest eigenvalues of W and the spectral gap."""

    lambda2: float
    lambda_n: float
    rho: float


class MixingMatrix:
    """Doubly stochastic gossip weight matrix over ``n`` agents.

    ``weights[i, j] != 0`` iff ``{i, j}`` is an edge or ``i == j``;
    all built-in topologies include a positive self-loop.  The undirected
    edges come as an (m, 2) integer array or a list of pairs, in any order
    and either orientation.  A neighbour table is built once from them:
    row i of ``peers`` is agent i followed by its neighbours in ascending
    order, padded with i up to the largest degree.  ``peer_weights`` holds
    the weights aligned with ``peers``, 0 on padding: taken from
    ``weights``, or 1 / (1 + max degree) everywhere when ``weights`` is
    None (the built-in graphs are regular).  ``edges``, the sorted list of
    (min, max) pairs, is read back from the table on first use.  The dense
    ``weights`` is built from the table on first read; once read or
    assigned it is what ``mix`` reads at call time, so it may be changed or
    reassigned as long as its nonzero pattern stays that of ``edges``.  The
    gather keeps one (n, 1 + max degree, *trailing) buffer per trailing
    shape and dtype, so one matrix must not ``mix`` in two threads at once;
    it suits sparse graphs.
    """

    def __init__(
        self, n: int, weights: np.ndarray | None, edges: np.ndarray | list[tuple[int, int]]
    ):
        self.n = n
        ends = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        # both directions of every edge as src * n + dst, sorted: rows in
        # order, each row's neighbours ascending
        keys = np.concatenate([ends[:, 0] * n + ends[:, 1], ends[:, 1] * n + ends[:, 0]])
        keys.sort()
        src, dst = np.divmod(keys, n)
        self.degrees = np.bincount(src, minlength=n)
        width = 1 + int(self.degrees.max(initial=0))
        self.gather = n >= GATHER_MIN_N
        # column of each edge within its row: 1 + rank among the row's edges
        row_start = np.cumsum(self.degrees) - self.degrees
        col = 1 + np.arange(len(src)) - np.repeat(row_start, self.degrees)
        self.peers = np.repeat(np.arange(n)[:, None], width, axis=1)
        self.peers[src, col] = dst
        # flat index of weights[i, peers[i, k]]; ``real`` is 0 on padding
        self.slots = self.peers + n * np.arange(n)[:, None]
        self.real = (np.arange(width) <= self.degrees[:, None]).astype(float)
        self._table = (
            self.real / width if weights is None else np.take(weights, self.slots) * self.real
        )
        self._weights: np.ndarray | None = None
        self._edges: list[tuple[int, int]] | None = None
        self._gathered: dict = {}

    @property
    def edges(self) -> list[tuple[int, int]]:
        if self._edges is None:
            # self slots and padding hold i itself, so this is each edge once
            i, k = np.nonzero(self.peers > np.arange(self.n)[:, None])
            self._edges = list(zip(i.tolist(), self.peers[i, k].tolist()))
        return self._edges

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            # padding aliases the self slot, so only the real slots are written
            real = self.real > 0
            self._weights = np.zeros((self.n, self.n))
            self._weights.flat[self.slots[real]] = self._table[real]
        return self._weights

    @weights.setter
    def weights(self, weights: np.ndarray):
        self._weights = weights

    @property
    def peer_weights(self) -> np.ndarray:
        if self._weights is None:
            return self._table
        return np.take(self._weights, self.slots) * self.real

    def mix(self, X: np.ndarray) -> np.ndarray:
        """W X of any (n, ...) stack: dense product below the gather crossover, gather above."""
        if X.shape[0] != self.n:
            raise ValueError(f"mix needs {self.n} rows, got shape {X.shape}")
        if not self.gather:
            flat = X if X.ndim < 3 else X.reshape(self.n, -1)
            return (self.weights @ flat).reshape(X.shape)
        key = (X.shape[1:], X.dtype)
        if key not in self._gathered:
            self._gathered[key] = np.empty(self.peers.shape + key[0], X.dtype)
        # the same array as X[self.peers]; under mode="raise" numpy fills a
        # temporary and copies it into out, and peers are valid indices
        gathered = np.take(X, self.peers, axis=0, out=self._gathered[key], mode="clip")
        return np.einsum("nk,nk...->n...", self.peer_weights, gathered)

    def degree(self, i: int) -> int:
        """Number of neighbors of agent ``i``, excluding itself."""
        return int(self.degrees[i])

    def neighbors(self, i: int) -> list[int]:
        return self.peers[i, 1 : 1 + self.degrees[i]].tolist()


@dataclass
class ValidationReport:
    """List of violated mixing-matrix invariants; empty means compliant."""

    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _ring_edges(n: int) -> np.ndarray:
    i = np.arange(n)
    return np.stack([i, (i + 1) % n], axis=1)


def _square_grid(n: int) -> tuple[int, int]:
    """Most-square factorization rows * cols == n with rows <= cols."""
    best = None
    for r in range(1, int(np.sqrt(n)) + 1):
        if n % r == 0:
            best = (r, n // r)
    assert best is not None
    return best


def build_topology(kind: str, n: int, grid: tuple[int, int] | None = None) -> MixingMatrix:
    """Build a uniform-weight mixing matrix for the given graph family.

    kind: ``ring`` (3 peers per agent including self, weight 1/3),
    ``dyck`` (n=32 fixed, 4 peers, weight 1/4) or ``torus``
    (rows x cols wraparound grid, 5 peers, weight 1/5).  Only the torus
    takes a ``grid``; a grid given with ring or dyck is a ValueError.
    """
    if grid is not None and kind in ("ring", "dyck"):
        raise ValueError(f"{kind} topology takes no grid, got {grid[0]}x{grid[1]}")
    if kind == "ring":
        if n < 3:
            raise ValueError(f"ring topology requires n >= 3, got n={n}")
        pairs = _ring_edges(n)
    elif kind == "dyck":
        if n != 32:
            raise ValueError(f"dyck topology is a fixed graph on 32 agents, got n={n}")
        pairs = np.concatenate([_ring_edges(32), _DYCK_CHORDS])
    elif kind == "torus":
        if n < 9:
            raise ValueError(f"torus topology requires n >= 9, got n={n}")
        rows, cols = grid if grid is not None else _square_grid(n)
        if rows * cols != n:
            raise ValueError(f"torus grid {rows}x{cols} does not factor n={n}")
        if rows < 3 or cols < 3:
            raise ValueError(
                f"torus requires both grid dimensions >= 3, got {rows}x{cols}"
            )
        i = np.arange(n)
        r, c = np.divmod(i, cols)
        right = r * cols + (c + 1) % cols
        down = ((r + 1) % rows) * cols + c
        pairs = np.concatenate([np.stack([i, right], 1), np.stack([i, down], 1)])
    else:
        raise ValueError(f"unknown topology kind {kind!r}; expected ring, dyck or torus")
    # every built-in graph is regular, so the table's uniform weight is 1 / peers
    return MixingMatrix(n=n, weights=None, edges=pairs)


def as_mixing(weights: np.ndarray) -> MixingMatrix:
    """Wrap a raw weight matrix, deriving edges from nonzero off-diagonals.

    Every nonzero entry sits on an edge or the diagonal, so the neighbour
    table holds the whole matrix and ``weights`` is rebuilt from it.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
    i, j = np.nonzero(np.triu((w != 0) | (w.T != 0), 1))
    return MixingMatrix(n=w.shape[0], weights=w, edges=np.stack([i, j], axis=1))


def spectral_stats(mixing: MixingMatrix) -> SpectralStats:
    """Eigen-statistics of W: lambda2, lambdaN and rho = 1 - max(|l2|, |lN|).

    Uses a full symmetric eigendecomposition of the current ``weights``;
    matrices here are small.
    """
    try:
        eigs = np.linalg.eigvalsh(mixing.weights)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise RuntimeError(f"eigendecomposition failed for n={mixing.n} matrix: {exc}")
    eigs = np.sort(eigs)[::-1]
    lambda2 = float(eigs[1])
    lambda_n = float(eigs[-1])
    rho = 1.0 - max(abs(lambda2), abs(lambda_n))
    return SpectralStats(lambda2=lambda2, lambda_n=lambda_n, rho=rho)


def _connected(w: np.ndarray) -> bool:
    """Whether the graph with an edge wherever w_ij > 0 or w_ji > 0 is connected."""
    linked = (w > 0) | (w.T > 0)
    seen = np.zeros(w.shape[0], dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        i = frontier.pop()
        new = np.flatnonzero(linked[i] & ~seen)
        seen[new] = True
        frontier.extend(new.tolist())
    return bool(seen.all())


def validate_mixing(mixing: MixingMatrix | np.ndarray) -> ValidationReport:
    """Check the doubly stochastic mixing-matrix invariants.

    Returns a report listing every violation (finiteness, row sums, column
    sums, symmetry, nonnegativity, connectivity) instead of raising.
    """
    w = mixing.weights if isinstance(mixing, MixingMatrix) else np.asarray(mixing, float)
    violations: list[str] = []
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        return ValidationReport([f"matrix is not square: shape {w.shape}"])
    if w.size == 0:
        return ValidationReport(["matrix has no agents: shape (0, 0)"])
    finite = np.isfinite(w)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        violations.append(f"non-finite weight at ({i}, {j}): {w[i, j]}")
    row = np.abs(w.sum(axis=1) - 1.0)
    if row.max() > STOCHASTIC_TOL:
        bad = int(np.argmax(row))
        violations.append(f"row sums deviate from 1 (row {bad}: {w[bad].sum():.6g})")
    col = np.abs(w.sum(axis=0) - 1.0)
    if col.max() > STOCHASTIC_TOL:
        bad = int(np.argmax(col))
        violations.append(
            f"column sums deviate from 1 (column {bad}: {w[:, bad].sum():.6g})"
        )
    if not np.array_equal(w, w.T, equal_nan=True):
        violations.append("matrix is not symmetric")
    if w.min() < 0:
        i, j = np.unravel_index(np.argmin(w), w.shape)
        violations.append(f"negative weight at ({i}, {j}): {w[i, j]:.6g}")
    if not _connected(w):
        violations.append("graph induced by positive weights is not connected")
    return ValidationReport(violations)


def matrix_csv(mixing: MixingMatrix) -> str:
    """Render the weight matrix as CSV with 17 significant digits."""
    lines = [
        ",".join(format(v, ".17g") for v in row) for row in mixing.weights
    ]
    return "\n".join(lines) + "\n"
