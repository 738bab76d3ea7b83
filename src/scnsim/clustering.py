"""Dynamic BS clustering on a joint distance/load similarity graph.

Pipeline: epsilon-neighbourhood adjacency -> Gaussian distance similarity ->
load similarity -> geometric blend S = (S_dist^theta) * (S_load^(1-theta))
(build_similarity), then graph Laplacian of S -> eigendecomposition (cyclic
Jacobi) -> eigengap choice of k -> k-means on the spectral embedding
(spectral_cluster). Deterministic given the caller's RNG.

The macro BS is never part of the similarity graph; partitions cover small
BSs only.
"""

from __future__ import annotations

import math
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


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps the upper triangle in fixed row order, so the result is
    deterministic. Returns (eigenvalues ascending, eigenvectors as columns).
    tol is relative to the Frobenius norm of the input.

    Rotations run on Python floats (numpy dispatch per row costs more than
    the arithmetic at these sizes): rows p, q of a and columns p, q of the
    eigenvectors, then columns p, q of the row-rotated a, each element a
    correctly rounded scalar operation, so the rotations do not depend on
    the BLAS build.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > 1 and np.max(np.abs(a - a.T)) > 1e-8 * max(1.0, np.max(np.abs(a))):
        raise ValueError("matrix must be symmetric")
    if n <= 1:
        return a.diagonal().copy(), np.eye(n)
    # Frobenius norm from an exactly rounded sum, not a BLAS dot product
    scale = math.sqrt(math.fsum(x * x for x in a.ravel().tolist()))
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    thresh = tol * scale
    skip = thresh / (n * n)
    # rows[j] is row j of a followed by eigenvector column j, so one pair of
    # list comprehensions rotates rows p, q of a and columns p, q of v
    rows = np.hstack([a, np.eye(n)]).tolist()
    for _ in range(max_sweeps):
        # pairwise summation over the array keeps the stopping test's rounding
        off = np.sqrt(np.sum(np.triu(np.array(rows)[:, :n], 1) ** 2) * 2.0)
        if off <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                rp = rows[p]
                apq = rp[q]
                if abs(apq) <= skip:
                    continue
                rq = rows[q]
                # rotation angle zeroing a[p, q]
                theta = (rq[q] - rp[p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rows[p] = [c * x - s * y for x, y in zip(rp, rq)]
                rows[q] = [s * x + c * y for x, y in zip(rp, rq)]
                for row in rows:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
    av = np.array(rows)
    vals = av.diagonal().copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], av[:, n:].T[:, order]


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


def _canonical_signs(vecs: np.ndarray) -> np.ndarray:
    """Copy of vecs with each column flipped so its largest-magnitude entry
    is positive, so an embedding does not jump between +-v as the
    underlying loads drift."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        lead = int(np.argmax(np.abs(out[:, j])))
        if out[lead, j] < 0:
            out[:, j] = -out[:, j]
    return out


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
    by id; each half recurses until it fits.
    """
    if max_size is None or len(members) <= max_size:
        return [members]
    idx = np.asarray(members)
    _, vecs = jacobi_eigh(laplacian_matrix(similarity[np.ix_(idx, idx)], laplacian))
    fiedler = _canonical_signs(vecs[:, 1:2])[:, 0]
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
    BSs). Heads are elected by estimated load (`loads`, default all-zero,
    which degrades to lowest-id heads). init_labels (aligned with ids)
    warm-starts k-means from a previous partition when its group count still
    matches the selected k. max_iter caps the k-means Lloyd iterations.
    max_size (None: unbounded) caps the members per cluster: a larger
    k-means cluster is split by recursive spectral bisection (`_bisect`)
    before heads are elected.
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

    lap = laplacian_matrix(s, laplacian)
    vals, vecs = jacobi_eigh(lap)
    if k is None:
        k = max(select_k(vals), zero_eigenvalue_count(vals))
    k = int(min(max(k, 1), n))
    embedding = _canonical_signs(vecs[:, :k])
    labels = kmeans(embedding, k, rng, max_iter=max_iter, init_labels=init_labels)

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
