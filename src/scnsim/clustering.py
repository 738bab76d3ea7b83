"""Dynamic BS clustering on a joint distance/load similarity graph.

Pipeline: epsilon-neighbourhood adjacency -> Gaussian distance similarity ->
load similarity -> geometric blend S = (S_dist^theta) * (S_load^(1-theta))
(build_adjacency, distance_similarity, load_similarity, joint_similarity),
then graph Laplacian of S -> eigendecomposition (LAPACK, via np.linalg.eigh)
-> eigengap choice of k -> k-means on the spectral embedding
(spectral_cluster). Deterministic given the caller's RNG.

Within a block of equal eigenvalues the eigensolver may return any
orthonormal basis. The partition never depends on that choice: the
embedding takes whole blocks, so its pairwise distances are basis-free,
and bisection falls back to id order when the Fiedler value is repeated.

The macro BS is never part of the similarity graph; partitions cover small
BSs only.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .coordination import elect_head

LOAD_SIGN_MODES = ("gaussian", "reciprocal")


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
    # both exponents lie in [0, 1], so a zero entry never divides
    s = np.where(mask, s_dist**theta * s_load ** (1.0 - theta), 0.0)
    np.fill_diagonal(s, 0.0)
    return s


def laplacian_matrix(similarity: np.ndarray) -> np.ndarray:
    """Graph Laplacian L = D - S of a symmetric similarity matrix, with
    D = diag(row sums)."""
    s = np.asarray(similarity, dtype=float)
    return np.diag(s.sum(axis=1)) - s


def select_k(eigenvalues: Sequence[float]) -> int:
    """Eigengap heuristic: the 1-based index of the largest ascending gap.

    Ties break toward the smaller index. Fewer than two eigenvalues give
    k = len(eigenvalues).
    """
    if len(eigenvalues) < 2:
        return len(eigenvalues)
    gaps = [abs(b - a) for a, b in zip(eigenvalues, eigenvalues[1:])]
    return gaps.index(max(gaps)) + 1


def _block_tol(eigenvalues: Sequence[float]) -> float:
    """Gap below which two ascending eigenvalues count as one block."""
    return 1e-8 * max(1.0, max(map(abs, eigenvalues)))


def zero_eigenvalue_count(eigenvalues: Sequence[float], tol: float = 1e-8) -> int:
    """Multiplicity of (numerically) zero eigenvalues: the number of connected
    components of the similarity graph."""
    return sum(1 for v in eigenvalues if abs(v) <= tol)


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
    equivalent partitions run over run. They seed the labels too, so a warm
    start that already fits stops after one Lloyd pass.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n={n}, got k={k}")

    centers = None
    if init_labels is not None:
        init = np.asarray(init_labels)
        if init.shape == (n,):
            # np.unique's inverse: each label's rank among the distinct ones
            rank = {lab: j for j, lab in enumerate(sorted(set(init.tolist())))}
            if len(rank) == k:
                labels = np.array([rank[lab] for lab in init.tolist()])
                centers = _centroids(pts, labels, k)
    if centers is None:
        labels = np.full(n, -1, dtype=np.int64)
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

    for _ in range(max_iter):
        new_labels = _sq_dists(pts, centers).argmin(axis=1)
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
        if (new_labels == labels).all():
            break
        labels = new_labels
        centers = _centroids(pts, labels, k)
    return labels


def _sq_dists(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distance of every point to every center."""
    return ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _centroids(pts: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(k, d) mean of the points of each label 0..k-1; no label group is empty.

    One scatter-add in point order, then one division: with d >= 2 that is
    the row-by-row sum mean(axis=0) runs, bit for bit. With d = 1, mean
    sums pairwise instead, so that case keeps it.
    """
    if pts.shape[1] == 1:
        return np.array([pts[labels == j].mean(axis=0) for j in range(k)])
    sums = np.zeros((k, pts.shape[1]))
    np.add.at(sums, labels, pts)
    return sums / np.bincount(labels, minlength=k)[:, None]


def _bisect(
    similarity: np.ndarray,
    members: list[int],
    ids: np.ndarray,
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
    vals, vecs = np.linalg.eigh(laplacian_matrix(similarity[np.ix_(idx, idx)]))
    fiedler = np.round(vecs[:, 1], 9)
    if np.any(np.diff(vals[:3]) <= _block_tol(vals.tolist())):
        fiedler = np.zeros(len(idx))
    elif fiedler[np.argmax(np.abs(fiedler))] < 0:
        fiedler = -fiedler
    order = idx[np.lexsort((ids[idx], fiedler))].tolist()
    half = len(order) // 2
    return _bisect(similarity, order[:half], ids, max_size) + _bisect(
        similarity, order[half:], ids, max_size
    )


class _Hold(NamedTuple):
    """A full spectral_cluster run's certificate: a later run on the same ids
    and max_size, with k None and warm-started from this partition (labels:
    its cluster index per id, as netmodel.cluster_labels numbers them),
    returns its clusters while its Laplacian lies within rho of lap."""

    lap: np.ndarray | None
    rho: float
    ids: list[int]
    max_size: int | None
    labels: list[int] | None
    clusters: tuple[tuple[int, ...], ...]

    def covers(self, lap: np.ndarray, k: int | None, ids: list[int],
               max_size: int | None, init_labels: np.ndarray | None) -> bool:
        if not (self.rho > 0.0 and k is None and ids == self.ids
                and max_size == self.max_size and init_labels is not None
                and np.asarray(init_labels).tolist() == self.labels):
            return False
        diff = (lap - self.lap).ravel()
        return float(diff @ diff) < self.rho * self.rho  # squared Frobenius distance


def spectral_cluster(
    similarity: np.ndarray,
    ids: Sequence[int],
    rng: np.random.Generator,
    k: int | None = None,
    loads: np.ndarray | None = None,
    epoch: int = 0,
    init_labels: np.ndarray | None = None,
    max_iter: int = 100,
    max_size: int | None = None,
    *,
    hold: _Hold | tuple | None = None,
) -> ClusterPartition | tuple[ClusterPartition, _Hold]:
    """Partition BSs by unnormalized spectral clustering on `similarity`.

    When k is not given it comes from the eigengap heuristic, floored by the
    zero-eigenvalue multiplicity, which is the component count, so k is never
    below it; k-means may still put BSs of two components into one cluster.
    k-means looks for k clusters in an embedding of at least k eigenvectors:
    it runs on through the block of eigenvalues equal to the k-th, so the
    partition does not depend on the basis the eigensolver picks inside that
    block. Heads are elected by estimated load (`loads`, default all-zero,
    which degrades to lowest-id heads). init_labels (aligned with ids)
    warm-starts k-means from a previous partition when its group count still
    matches the selected k. max_iter caps the k-means Lloyd iterations.
    max_size (None: unbounded) caps the members per cluster: a larger k-means
    cluster is split by recursive spectral bisection (`_bisect`) before heads
    are elected.

    hold (keyword; () on a first call, then the hold the previous call
    returned) makes the call return (partition, hold). A call the hold
    covers (`_Hold.covers`) provably returns the hold's clusters
    (`_hold_radius`), so it keeps them with heads elected on `loads`, skips
    the eigensolve, k-means and bisection, draws nothing and returns the
    hold it was given. Any other call runs in full and returns a new hold.
    """
    s = np.asarray(similarity, dtype=float)
    n = s.shape[0]
    if s.shape != (n, n):
        raise ValueError("similarity must be square")
    if len(ids) != n:
        raise ValueError("ids must align with the similarity matrix")
    # NaN fails every comparison, so non-finite input stops before s - s.T
    if n > 0 and not (
        s.min() >= 0 and (top := s.max()) < np.inf
        and abs(s - s.T).max() <= 1e-10 * max(1.0, top)
    ):
        raise ValueError("similarity must be finite, symmetric and non-negative")
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    id_arr = np.asarray(ids)
    id_list = id_arr.tolist()

    lap = None
    rho = 0.0
    if n < 2:
        part = ClusterPartition(tuple((b,) for b in id_list), tuple(id_list), epoch)
    else:
        lap = laplacian_matrix(s)
        if hold and hold.covers(lap, k, id_list, max_size, init_labels):
            heads = _elect_heads(hold.clusters, id_list, loads)
            return ClusterPartition(hold.clusters, heads, epoch), hold
        vals, vecs = np.linalg.eigh(lap)
        values = vals.tolist()  # ascending
        auto_k = k is None
        if auto_k:
            k = max(select_k(values), zero_eigenvalue_count(values))
        k = int(min(max(k, 1), n))
        # the embedding runs to the end of the eigenvalue block holding column k:
        # any basis of a whole block gives the same pairwise distances, which
        # are all k-means reads (a column's sign does not change them either)
        dim = bisect_right(values, values[k - 1] + _block_tol(values))
        pts = vecs[:, :dim]
        labels = kmeans(pts, k, rng, max_iter=max_iter, init_labels=init_labels)

        groups: dict[int, list[int]] = {}
        for idx, lab in enumerate(labels.tolist()):
            groups.setdefault(lab, []).append(idx)
        parts = [
            part
            for members in groups.values()
            for part in _bisect(s, members, id_arr, max_size)
        ]
        # deterministic ordering: clusters sorted by their smallest member id,
        # which is their first, and no two share it
        clusters = tuple(sorted(tuple(sorted(id_list[i] for i in g)) for g in parts))
        part = ClusterPartition(clusters, _elect_heads(clusters, id_list, loads), epoch)
        # a bisected group is no k-means group, so the k-means margin says nothing of it
        if hold is not None and auto_k and len(parts) == k:
            rho = _hold_radius(lap, values, k, dim, pts, labels)
    if hold is None:
        return part
    cluster_of = {b: j for j, members in enumerate(part.clusters) for b in members}
    hold_labels = [cluster_of[b] for b in id_list] if rho > 0.0 else None
    return part, _Hold(lap, rho, id_list, max_size, hold_labels, part.clusters)


def _elect_heads(clusters: Sequence[Sequence[int]], ids: list[int],
                 loads: np.ndarray | None) -> tuple[int, ...]:
    """One head per cluster by estimated load (`loads` aligned with ids,
    None: all zero)."""
    if loads is None:
        loads = np.zeros(len(ids))
    load_of = dict(zip(ids, np.asarray(loads, dtype=float).tolist()))
    return tuple(elect_head(members, [load_of[b] for b in members]) for members in clusters)


def _hold_radius(lap: np.ndarray, values: list[float], k: int, dim: int,
                 pts: np.ndarray, labels: np.ndarray) -> float:
    """Frobenius radius rho around the Laplacian `lap` within which
    spectral_cluster, with k None and warm-started from the partition that
    k-means gave as `labels` on the embedding `pts`, provably returns that
    partition again and draws nothing: for every symmetric L with
    ||L - lap||_F < rho. 0 where `_hold_bounds` does not apply.

    Each computed eigenvalue moves by at most delta = rho + slack (Weyl); the
    slack covers LAPACK's backward error and the Laplacian's rounding at both
    matrices. rho stays under the zero band's bound, which is under the
    largest |eigenvalue| <= ||lap||_F, so the slack covers L's own error too.
    """
    bounds = _hold_bounds(values, k, dim, pts, labels)
    if bounds is None:
        return 0.0
    return max(min(bounds.values()) - 1e-10 * float(np.linalg.norm(lap)), 0.0)


def _hold_bounds(values: list[float], k: int, dim: int, pts: np.ndarray,
                 labels: np.ndarray) -> dict[str, float] | None:
    """The margins _hold_radius takes the least of, by name, as bounds on the
    eigenvalue shift delta; None where the argument does not apply.

    gap_lead: k = max(eigengap k, zero count) holds while the largest gap
    keeps its lead over every other; zero_band: and while no eigenvalue
    outside the zero band [-1e-8, 1e-8] enters it, since the zero count can
    then only fall and the eigengap k already reaches it. block_top,
    block_next: the embedding's width holds while the `_block_tol` block
    keeps its ends. davis_kahan: k-means distances are linear in the
    embedding's projector, which moves by at most delta / (gap after the
    block - delta) (Davis-Kahan sin theta), and the lead of a point's own
    center over another by under 3 times that, so the warm-start Lloyd pass
    keeps every label while that stays under the assignment margin.
    """
    n = len(values)
    if k == n:  # only the zero count reaches n, and its fall would change k
        return None
    gaps = np.diff(values)
    bounds = {
        # no other gap ties the (k - 1)-th, so it is select_k's and k is its k
        "gap_lead": (gaps[k - 1] - np.delete(gaps, k - 1).max(initial=-np.inf)) / 4,
        "zero_band": min(abs(v) for v in values if abs(v) > 1e-8) - 1e-8,
    }
    if k > 1:  # one cluster holds whatever the embedding
        margin = _assignment_margin(pts, labels, k) - 1e-9  # k-means rounding
        if margin <= 0:
            return None
        tol = _block_tol(values)
        if dim > k:
            bounds["block_top"] = (values[k - 1] + tol - values[dim - 1]) / 3
        if dim < n:
            bounds["block_next"] = (values[dim] - values[k - 1] - tol) / 3
            bounds["davis_kahan"] = margin * (values[dim] - values[dim - 1]) / (3 + margin)
    return bounds


def _assignment_margin(pts: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Smallest squared-distance lead of a point's own center over the next
    one, with centers the means of `labels`: the margin of the Lloyd pass
    that ended k-means. Not positive unless the labels are its strict fixed
    point (a loop cut short by max_iter, or a repair, may leave them not)."""
    dist = _sq_dists(pts, _centroids(pts, labels, k))
    rows = np.arange(len(labels))
    own = dist[rows, labels]
    dist[rows, labels] = np.inf
    return float((dist.min(axis=1) - own).min())
