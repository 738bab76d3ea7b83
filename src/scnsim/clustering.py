"""Dynamic BS clustering on a joint distance/load similarity graph.

Pipeline: epsilon-neighbourhood adjacency -> Gaussian distance similarity ->
load similarity -> geometric blend S = (S_dist^theta) * (S_load^(1-theta))
(build_similarity), then graph Laplacian of S -> eigendecomposition (LAPACK,
via np.linalg.eigh) -> eigengap choice of k -> k-means on the spectral
embedding (spectral_cluster). Deterministic given the caller's RNG.

Within a block of equal eigenvalues the eigensolver may return any
orthonormal basis. The partition never depends on that choice: the
embedding takes whole blocks, so its pairwise distances are basis-free,
and bisection falls back to id order when the Fiedler value is repeated.

The macro BS is never part of the similarity graph; partitions cover small
BSs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .coordination import elect_head

if TYPE_CHECKING:
    from .config import ClusteringConfig

LOAD_SIGN_MODES = ("gaussian", "reciprocal")
LAPLACIAN_MODES = ("standard", "rowsum")


@dataclass
class SimilarityGraph:
    adjacency: np.ndarray  # binary, zero diagonal
    s_dist: np.ndarray
    s_load: np.ndarray
    s_joint: np.ndarray


@dataclass(frozen=True)
class ClusterPartition:
    """Disjoint clusters of SBS ids, with one head per cluster.

    Heads carry the max estimated load among members (ties to lowest id).
    epoch records the step at which the partition was formed.
    """

    clusters: tuple[tuple[int, ...], ...]
    heads: tuple[int, ...]
    epoch: int = 0

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def sizes(self) -> list[int]:
        return [len(c) for c in self.clusters]

    def mean_size(self) -> float:
        return float(np.mean(self.sizes())) if self.clusters else 0.0


def build_adjacency(positions: np.ndarray, eps_d: float) -> np.ndarray:
    """Binary epsilon-neighbourhood graph: edge iff b != b' and distance <= eps_d."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    adj = (dist <= eps_d).astype(np.int64)
    np.fill_diagonal(adj, 0)
    return adj


def distance_similarity(
    positions: np.ndarray, adjacency: np.ndarray, sigma_d: float
) -> np.ndarray:
    """exp(-d^2 / 2 sigma_d^2) on adjacent pairs, exactly 0 elsewhere."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    return np.where(adjacency > 0, np.exp(-d2 / (2.0 * sigma_d**2)), 0.0)


def load_similarity(loads: np.ndarray, sigma_l: float, sign: str = "gaussian") -> np.ndarray:
    """Pairwise load kernel.

    gaussian:   exp(-(rho_b - rho_b')^2 / 2 sigma_l^2), decays with load gap;
    reciprocal: exp(+(rho_b - rho_b')^2 / 2 sigma_l^2), the exact reciprocal,
                grows with the gap. Diagonal is 0 in both modes.
    """
    if sign not in LOAD_SIGN_MODES:
        raise ValueError(f"load_sign must be one of {LOAD_SIGN_MODES}")
    rho = np.asarray(loads, dtype=float)
    d2 = (rho[:, None] - rho[None, :]) ** 2
    expo = d2 / (2.0 * sigma_l**2)
    s = np.exp(expo) if sign == "reciprocal" else np.exp(-expo)
    np.fill_diagonal(s, 0.0)
    return s


def joint_similarity(s_dist: np.ndarray, s_load: np.ndarray, theta: float) -> np.ndarray:
    """S = S_dist^theta * S_load^(1-theta), masked to adjacent pairs.

    s_dist is exactly zero off the adjacency support, so the mask is read
    from it; the mask applies at every theta, including theta = 0 where the
    bare power would otherwise resurrect non-adjacent pairs via 0^0 = 1.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    mask = s_dist > 0.0
    with np.errstate(divide="ignore"):
        s = np.where(mask, s_dist**theta * s_load ** (1.0 - theta), 0.0)
    np.fill_diagonal(s, 0.0)
    return s


def laplacian_matrix(similarity: np.ndarray, variant: str = "standard") -> np.ndarray:
    """Graph Laplacian of a symmetric similarity matrix.

    standard: L = D - S with D = diag(row sums).
    rowsum:   l_bb' = sum_k (s_bk - s_bb') = d_b - n * s_bb', symmetrized as
              (L + L^T)/2 since the row form is asymmetric for uneven degrees.
    """
    s = np.asarray(similarity, dtype=float)
    deg = s.sum(axis=1)
    if variant == "standard":
        return np.diag(deg) - s
    if variant == "rowsum":
        n = s.shape[0]
        l_row = deg[:, None] - n * s
        return (l_row + l_row.T) / 2.0
    raise ValueError(f"laplacian variant must be one of {LAPLACIAN_MODES}")


def build_similarity(
    positions: np.ndarray, loads: np.ndarray, cfg: ClusteringConfig
) -> SimilarityGraph:
    """Similarity graph of SBSs under cfg's clustering settings.

    spectral_cluster takes s_joint and builds its Laplacian.
    """
    adj = build_adjacency(positions, cfg.eps_d_m)
    s_d = distance_similarity(positions, adj, cfg.sigma_d_m)
    s_l = load_similarity(loads, cfg.sigma_l, cfg.load_sign)
    return SimilarityGraph(adj, s_d, s_l, joint_similarity(s_d, s_l, cfg.theta))


def select_k(eigenvalues: np.ndarray) -> int:
    """Eigengap heuristic: the 1-based index of the largest ascending gap.

    Ties break toward the smaller index. Fewer than two eigenvalues give
    k = len(eigenvalues).
    """
    vals = np.asarray(eigenvalues, dtype=float)
    if vals.size < 2:
        return int(vals.size)
    gaps = np.abs(np.diff(vals))
    return int(np.argmax(gaps)) + 1


def _block_tol(eigenvalues: np.ndarray) -> float:
    """Gap below which two ascending eigenvalues count as one block."""
    return 1e-8 * max(1.0, float(np.max(np.abs(eigenvalues))))


def zero_eigenvalue_count(eigenvalues: np.ndarray, tol: float = 1e-8) -> int:
    """Multiplicity of (numerically) zero eigenvalues = connected components."""
    return int(np.sum(np.abs(np.asarray(eigenvalues, dtype=float)) <= tol))


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iter: int = 100,
    init_labels: np.ndarray | None = None,
) -> np.ndarray:
    """Lloyd's k-means with k-means++ seeding and empty-cluster repair.

    Repair moves the point farthest from the centroid of the largest cluster
    into the empty one, so every returned label set has k non-empty clusters
    (requires k <= n). Deterministic given the RNG state.

    init_labels optionally warm-starts the centers from an existing
    assignment (one center per label group). It is used only when it has
    exactly k non-empty groups; otherwise seeding falls back to k-means++.
    Warm starts keep a slowly drifting embedding from flipping between
    equivalent partitions run over run.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n={n}, got k={k}")

    centers = None
    if init_labels is not None:
        init = np.asarray(init_labels)
        if init.shape == (n,):
            _, groups = np.unique(init, return_inverse=True)
            if groups.max() + 1 == k:
                centers = np.array(
                    [pts[groups == j].mean(axis=0) for j in range(k)]
                )
    if centers is None:
        centers = np.empty((k, pts.shape[1]))
        centers[0] = pts[rng.integers(n)]
        d2 = np.sum((pts - centers[0]) ** 2, axis=1)
        for j in range(1, k):
            total = d2.sum()
            if total <= 0.0:
                # every point coincides with a chosen center; the duplicate
                # center is harmless, repair below keeps clusters non-empty
                centers[j] = pts[int(np.argmax(d2))]
            else:
                centers[j] = pts[rng.choice(n, p=d2 / total)]
            d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))

    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        dist = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist, axis=1)
        # one count per iteration; the repair below runs only if one is 0
        if not np.bincount(new_labels, minlength=k).all():
            for j in range(k):
                if not np.any(new_labels == j):
                    counts = np.bincount(new_labels, minlength=k)
                    big = int(np.argmax(counts))
                    members = np.where(new_labels == big)[0]
                    centroid = pts[members].mean(axis=0)
                    far = members[int(np.argmax(np.sum((pts[members] - centroid) ** 2, axis=1)))]
                    new_labels[far] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = pts[labels == j].mean(axis=0)
    return labels


def _bisect(
    similarity: np.ndarray,
    members: list[int],
    ids: np.ndarray,
    laplacian: str,
    max_size: int | None,
) -> list[list[int]]:
    """Recursive spectral bisection of one cluster (indices into similarity).

    A cluster above max_size splits into halves of floor and ceil size by
    the order of the Fiedler vector of its own sub-Laplacian, ties broken
    by id; each half recurses until it fits. Entries are rounded to 1e-9
    first, so SBSs the graph cannot tell apart (equal entries but for the
    eigensolver's rounding) tie and go by id. The vector's sign puts its
    largest-magnitude entry positive. A Fiedler value equal to its
    neighbour leaves the vector up to the eigensolver's choice of basis,
    so the order is then by id alone.
    """
    if max_size is None or len(members) <= max_size:
        return [members]
    idx = np.asarray(members)
    vals, vecs = np.linalg.eigh(laplacian_matrix(similarity[np.ix_(idx, idx)], laplacian))
    fiedler = np.round(vecs[:, 1], 9)
    if np.any(np.diff(vals[:3]) <= _block_tol(vals)):
        fiedler = np.zeros(len(idx))
    elif fiedler[np.argmax(np.abs(fiedler))] < 0:
        fiedler = -fiedler
    order = idx[np.lexsort((ids[idx], fiedler))].tolist()
    half = len(order) // 2
    return _bisect(similarity, order[:half], ids, laplacian, max_size) + _bisect(
        similarity, order[half:], ids, laplacian, max_size
    )


def spectral_cluster(
    similarity: np.ndarray,
    ids: Sequence[int],
    rng: np.random.Generator,
    k: int | None = None,
    loads: np.ndarray | None = None,
    laplacian: str = "standard",
    epoch: int = 0,
    init_labels: np.ndarray | None = None,
    max_iter: int = 100,
    max_size: int | None = None,
) -> ClusterPartition:
    """Partition BSs by unnormalized spectral clustering on `similarity`.

    When k is not given it comes from the eigengap heuristic, floored by the
    zero-eigenvalue multiplicity so disconnected components are never merged
    (k-means on fewer clusters than components would pair arbitrary far-apart
    BSs). k-means looks for k clusters in an embedding of at least k
    eigenvectors: it runs on through the block of eigenvalues equal to the
    k-th, so the partition does not depend on the basis the eigensolver
    picks inside that block. Heads are elected by estimated load (`loads`,
    default all-zero, which degrades to lowest-id heads). init_labels
    (aligned with ids) warm-starts k-means from a previous partition when
    its group count still matches the selected k. max_iter caps the k-means
    Lloyd iterations. max_size (None: unbounded) caps the members per
    cluster: a larger k-means cluster is split by recursive spectral
    bisection (`_bisect`) before heads are elected.
    """
    s = np.asarray(similarity, dtype=float)
    n = s.shape[0]
    if s.shape != (n, n):
        raise ValueError("similarity must be square")
    if len(ids) != n:
        raise ValueError("ids must align with the similarity matrix")
    if n > 0 and (np.max(np.abs(s - s.T)) > 1e-10 * max(1.0, np.max(np.abs(s))) or np.min(s) < 0):
        raise ValueError("similarity must be symmetric and non-negative")
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    if loads is None:
        loads = np.zeros(n)

    if n == 0:
        return ClusterPartition(clusters=(), heads=(), epoch=epoch)
    if n == 1:
        return ClusterPartition(clusters=((int(ids[0]),),), heads=(int(ids[0]),), epoch=epoch)

    vals, vecs = np.linalg.eigh(laplacian_matrix(s, laplacian))
    if k is None:
        k = max(select_k(vals), zero_eigenvalue_count(vals))
    k = int(min(max(k, 1), n))
    # the embedding runs to the end of the eigenvalue block holding column k:
    # any basis of a whole block gives the same pairwise distances, which
    # are all k-means reads (a column's sign does not change them either)
    dim = int(np.searchsorted(vals, vals[k - 1] + _block_tol(vals), side="right"))
    labels = kmeans(vecs[:, :dim], k, rng, max_iter=max_iter, init_labels=init_labels)

    groups: dict[int, list[int]] = {}
    for idx, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(idx)
    id_arr = np.asarray(ids)
    parts = [
        part
        for members in groups.values()
        for part in _bisect(s, members, id_arr, laplacian, max_size)
    ]
    # deterministic ordering: clusters sorted by their smallest member id
    clusters = tuple(
        sorted((tuple(sorted(int(id_arr[i]) for i in g)) for g in parts), key=min)
    )
    load_of = {int(b): float(loads[i]) for i, b in enumerate(ids)}
    heads = tuple(
        elect_head(members, [load_of[b] for b in members]) for members in clusters
    )
    return ClusterPartition(clusters=clusters, heads=heads, epoch=epoch)
