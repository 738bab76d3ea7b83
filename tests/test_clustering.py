"""Similarity graph, k selection, spectral partition and eigenbasis-invariance tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnsim import clustering
from scnsim.clustering import (
    LOAD_SIGN_MODES,
    _bisect,
    _centroids,
    ClusterPartition,
    build_adjacency,
    distance_similarity,
    joint_similarity,
    kmeans,
    laplacian_matrix,
    load_similarity,
    select_k,
    spectral_cluster,
    zero_eigenvalue_count,
)
from scnsim.config import ClusteringConfig, default_config
from scnsim.netmodel import cluster_labels


def joint_of(pos, loads, cc):
    """Joint similarity of SBSs under clustering settings cc, composed as
    World composes it: adjacency, distance kernel, load kernel, blend."""
    s_dist = distance_similarity(pos, build_adjacency(pos, cc.eps_d_m), cc.sigma_d_m)
    return joint_similarity(s_dist, load_similarity(loads, cc.sigma_l, cc.load_sign),
                            cc.theta)


def test_adjacency_radius():
    pos = np.array([[0.0, 0.0], [100.0, 0.0]])
    assert build_adjacency(pos, 250.0)[0, 1] == 1
    pos = np.array([[0.0, 0.0], [300.0, 0.0]])
    assert build_adjacency(pos, 250.0)[0, 1] == 0
    # chain: 0-200-400 with radius 250 links only consecutive pairs
    pos = np.array([[0.0, 0.0], [200.0, 0.0], [400.0, 0.0]])
    adj = build_adjacency(pos, 250.0)
    assert adj[0, 1] == adj[1, 2] == 1 and adj[0, 2] == 0
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)
    # coincident but distinct stations are adjacent (zero distance <= radius)
    pos = np.array([[5.0, 5.0], [5.0, 5.0]])
    assert build_adjacency(pos, 250.0)[0, 1] == 1


def test_distance_similarity_values():
    pos = np.array([[0.0, 0.0], [0.0, 0.0], [300.0, 0.0], [900.0, 0.0]])
    adj = build_adjacency(pos, 400.0)
    s = distance_similarity(pos, adj, sigma_d=300.0)
    assert s[0, 1] == 1.0  # coincident adjacent pair
    assert s[0, 2] == pytest.approx(np.exp(-0.5), rel=1e-12)  # d = sigma_d
    assert s[0, 3] == 0.0  # out of radius: exactly zero
    assert np.array_equal(s, s.T)


def test_load_similarity_modes():
    loads = np.array([0.2, 0.2, 1.2])
    s = load_similarity(loads, sigma_l=1.0, sign="gaussian")
    assert s[0, 1] == 1.0
    assert s[0, 2] == pytest.approx(np.exp(-0.5), rel=1e-12)
    s = load_similarity(loads, sigma_l=1.0, sign="reciprocal")
    assert s[0, 1] == 1.0
    assert s[0, 2] == pytest.approx(np.exp(0.5), rel=1e-12)
    with pytest.raises(ValueError):
        load_similarity(loads, 1.0, sign="inverse")


def test_joint_similarity_mixing():
    s_d = np.array([[0.0, 0.36], [0.36, 0.0]])
    s_l = np.array([[0.0, 0.64], [0.64, 0.0]])
    s = joint_similarity(s_d, s_l, theta=0.5)
    # sqrt(0.36) * sqrt(0.64) = 0.6 * 0.8
    assert s[0, 1] == pytest.approx(0.48, rel=1e-12)
    assert np.max(np.abs(joint_similarity(s_d, s_l, 1.0) - s_d)) < 1e-12
    assert joint_similarity(s_d, s_l, 0.0)[0, 1] == pytest.approx(0.64, rel=1e-12)
    with pytest.raises(ValueError):
        joint_similarity(s_d, s_l, 1.5)


def test_joint_similarity_mask_all_theta():
    # non-adjacent pairs stay exactly zero for every theta, including 0
    pos = np.array([[0.0, 0.0], [100.0, 0.0], [900.0, 0.0]])
    adj = build_adjacency(pos, 250.0)
    s_d = distance_similarity(pos, adj, 300.0)
    s_l = load_similarity(np.array([0.1, 0.5, 0.9]), 1.0)
    for theta in (0.0, 0.25, 0.5, 1.0):
        s = joint_similarity(s_d, s_l, theta)
        assert s[0, 2] == 0.0 and s[2, 0] == 0.0
        assert s[0, 1] > 0.0
        assert np.all(np.diag(s) == 0.0)


def test_laplacian_variants():
    # the one Laplacian, D - S
    s = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.1], [0.2, 0.1, 0.0]])
    lap = laplacian_matrix(s)
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-15)
    assert np.allclose(lap, lap.T)
    assert lap[0, 0] == pytest.approx(0.7) and lap[0, 1] == pytest.approx(-0.5)


def reference_jacobi_eigh(a, tol=1e-12, max_sweeps=60):
    """Cyclic Jacobi with numpy row/column rotations: an eigensolver that
    shares no code with LAPACK, the oracle for the one clustering calls."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n <= 1:
        return a.diagonal().copy(), v
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n), v
    thresh = tol * scale
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.triu(a, 1) ** 2) * 2.0)
        if off <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= thresh / (n * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p, rot_q = a[p].copy(), a[q].copy()
                a[p], a[q] = c * rot_p - s * rot_q, s * rot_p + c * rot_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p], a[:, q] = c * col_p - s * col_q, s * col_p + c * col_q
                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p], v[:, q] = c * vec_p - s * vec_q, s * vec_p + c * vec_q
    vals = a.diagonal().copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


def _oracle_matrices():
    """(name, matrix, similarity): Laplacians of default drops, with the
    similarity they come from, then random symmetric matrices and edge
    cases, which have none."""
    from scnsim.sim import generate_scenario

    cfg = default_config()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        pos = generate_scenario(cfg, rng)[0][1:]
        loads = rng.uniform(0, 1, size=len(pos))
        for eps_d in (150.0, 250.0, 400.0):
            s_joint = joint_of(pos, loads, ClusteringConfig(eps_d_m=eps_d))
            yield f"drop{seed}-{eps_d}-standard", laplacian_matrix(s_joint), s_joint
    rng = np.random.default_rng(53)
    for n in range(1, 21):
        for rep in range(2):
            m = rng.normal(size=(n, n))
            yield f"random{n}-{rep}", (m + m.T) / 2.0, None
    m = rng.normal(size=(7, 7))
    m = (m + m.T) / 2.0
    m[2, 5] += 5e-9  # asymmetric, inside the symmetry tolerance
    yield "near-symmetric", m, None
    # equal diagonal entries: the first rotation takes the theta == 0 branch
    yield "theta0-2x2", np.array([[2.0, 1.0], [1.0, 2.0]]), None
    yield "theta0-4x4", np.full((4, 4), 0.5) + np.eye(4), None
    yield "zero", np.zeros((5, 5)), None


@pytest.mark.parametrize("a, similarity", [
    pytest.param(a, s, id=name) for name, a, s in _oracle_matrices()
])
def test_jacobi_bitwise_equals_numpy_rotations(monkeypatch, a, similarity):
    """np.linalg.eigh, the solver clustering calls, against the Jacobi
    oracle: the spectra and each eigenvalue block's projector agree to
    rounding, and every choice made from the spectrum (block cuts, eigengap
    k, zero count) is identical. On a drop's Laplacian the spectral
    partition is bitwise the same with either solver."""
    vals, vecs = np.linalg.eigh(a)
    ref_vals, ref_vecs = reference_jacobi_eigh(a)
    assert np.max(np.abs(vals - ref_vals)) <= _tol(ref_vals)
    assert select_k(vals) == select_k(ref_vals)
    assert zero_eigenvalue_count(vals) == zero_eigenvalue_count(ref_vals)
    cuts = (np.flatnonzero(np.diff(ref_vals) > _tol(ref_vals)) + 1).tolist()
    assert (np.flatnonzero(np.diff(vals) > _tol(vals)) + 1).tolist() == cuts
    for lo, hi in zip([0, *cuts], [*cuts, len(a)]):
        block, ref_block = vecs[:, lo:hi], ref_vecs[:, lo:hi]
        assert np.max(np.abs(block @ block.T - ref_block @ ref_block.T)) <= 1e-7
    if similarity is None:
        return
    ids = list(range(1, len(similarity) + 1))

    def partition():
        return spectral_cluster(similarity, ids, np.random.default_rng(0), max_size=4)

    base = partition()
    monkeypatch.setattr(np.linalg, "eigh", reference_jacobi_eigh)
    assert partition() == base


def test_select_k_examples():
    assert select_k(np.array([0.0, 0.0, 5.0, 5.1])) == 2
    assert select_k(np.array([2.0, 2.0, 2.0])) == 1  # ties -> smallest k
    assert select_k(np.array([1.0])) == 1
    assert select_k(np.array([])) == 0
    # two exact blocks: Laplacian spectrum (0, 0, 2, 2) -> gap at k = 2
    s = np.zeros((4, 4))
    s[0, 1] = s[1, 0] = 1.0
    s[2, 3] = s[3, 2] = 1.0
    vals = np.linalg.eigvalsh(laplacian_matrix(s))
    assert zero_eigenvalue_count(vals) == 2
    assert select_k(vals) == 2


def test_zero_eigenvalue_count_tolerance():
    assert zero_eigenvalue_count(np.array([0.0, 1e-12, 0.5, 2.0])) == 2
    assert zero_eigenvalue_count(np.array([1e-7, 1.0])) == 0


def test_kmeans_two_blobs():
    rng = np.random.default_rng(23)
    a = rng.normal(0.0, 0.1, size=(8, 2))
    b = rng.normal(5.0, 0.1, size=(7, 2)) + np.array([5.0, 0.0])
    pts = np.vstack([a, b])
    labels = kmeans(pts, 2, np.random.default_rng(1))
    assert len(set(labels[:8])) == 1 and len(set(labels[8:])) == 1
    assert labels[0] != labels[8]


def test_kmeans_degenerate_and_validation():
    # identical points with k = 2: repair still returns two non-empty clusters
    pts = np.zeros((3, 2))
    labels = kmeans(pts, 2, np.random.default_rng(0))
    assert set(labels) == {0, 1}
    labels = kmeans(np.arange(8.0).reshape(4, 2), 4, np.random.default_rng(0))
    assert sorted(labels) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 2)), 3, np.random.default_rng(0))


def reference_kmeans(points, k, rng, max_iter=100, init_labels=None):
    """kmeans as it ran before a fitting warm start stopped after one Lloyd
    pass: the labels start at -1, so the first pass never matches and a
    second confirms it. The oracle for the early exit. Returns the labels,
    the Lloyd passes run and whether any pass repaired an empty cluster."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    centers = None
    if init_labels is not None:
        init = np.asarray(init_labels)
        if init.shape == (n,):
            _, groups = np.unique(init, return_inverse=True)
            if groups.max() + 1 == k:
                centers = np.array([pts[groups == j].mean(axis=0) for j in range(k)])
    if centers is None:
        centers = np.empty((k, pts.shape[1]))
        centers[0] = pts[rng.integers(n)]
        d2 = np.sum((pts - centers[0]) ** 2, axis=1)
        for j in range(1, k):
            total = d2.sum()
            if total <= 0.0:
                centers[j] = pts[int(np.argmax(d2))]
            else:
                centers[j] = pts[rng.choice(n, p=d2 / total)]
            d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    labels = np.full(n, -1, dtype=np.int64)
    passes, repaired = 0, False
    for _ in range(max_iter):
        passes += 1
        dist = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist, axis=1)
        for j in range(k):
            if not np.any(new_labels == j):
                repaired = True
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
    return labels, passes, repaired


def _kmeans_case(start, n, d, k, seed):
    """(points, init_labels) of one k-means input.

    cold: no warm start. fit: the oracle's own converged labels, renumbered,
    so the warm start already fits. shuffled: k random groups, which mostly
    need more passes. repair: k random groups over fewer distinct points
    than clusters, so a pass must repair. miscount: random labels of a
    random group count, which mostly fall back to k-means++.
    """
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d))
    if start == "repair":
        pts = pts[rng.integers(0, max(1, k - 1), size=n)]
    if start == "cold":
        return pts, None
    if start == "fit":
        labels = reference_kmeans(pts, k, np.random.default_rng(seed))[0]
        return pts, 3 * labels + 2
    if start == "miscount":
        return pts, rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    return pts, rng.permutation(np.arange(n) % k)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    start=st.sampled_from(["cold", "fit", "shuffled", "repair", "miscount"]),
    n=st.integers(2, 16),
    d=st.integers(1, 9),
    k_frac=st.floats(0.0, 1.0),
    max_iter=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_kmeans_equals_the_two_pass_oracle(start, n, d, k_frac, max_iter, seed):
    k = 1 + min(int(k_frac * n), n - 1)
    pts, init = _kmeans_case(start, n, d, k, seed)
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = kmeans(pts, k, got_rng, max_iter=max_iter, init_labels=init)
    want = reference_kmeans(pts, k, want_rng, max_iter=max_iter, init_labels=init)[0]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got_rng.random() == want_rng.random()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    d=st.integers(1, 9),
    k=st.integers(1, 6),
    extra=st.integers(0, 40),
    scale=st.sampled_from([1e-3, 1.0, 1e6]),
    seed=st.integers(0, 2**16),
)
def test_scatter_centers_equal_per_group_means(d, k, extra, scale, seed):
    # k-means centers come from one scatter-add and one division; each must
    # equal numpy's mean of its own group bit for bit, for groups of 9 or
    # more points, where a pairwise sum of one column would round otherwise
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.concatenate([np.repeat(np.arange(k), 9),
                                             rng.integers(0, k, size=extra)]))
    pts = rng.normal(size=(labels.size, d)) * scale + rng.normal(size=d)
    want = np.array([pts[labels == j].mean(axis=0) for j in range(k)])
    assert _centroids(pts, labels, k).tobytes() == want.tobytes()


@pytest.mark.parametrize("start, k, seed, passes, repaired", [
    ("cold", 3, 1, 3, False),
    ("fit", 3, 0, 2, False),  # the second pass only confirms the first
    ("shuffled", 3, 2, 3, False),
    ("repair", 4, 2, 3, True),
    ("miscount", 3, 1, 3, False),  # 7 groups for k = 3: k-means++ seeding
])
def test_kmeans_oracle_cases_cover_each_start(start, k, seed, passes, repaired):
    # one fixed 12-point input per start kind of the property test above,
    # with the oracle's pass count and repair flag showing the kind does
    # what it says; only the fitting warm start ends where it began
    pts, init = _kmeans_case(start, 12, 2, k, seed)
    want, want_passes, want_repaired = reference_kmeans(
        pts, k, np.random.default_rng(1), init_labels=init)
    assert (want_passes, want_repaired) == (passes, repaired)
    fits = init is not None and np.array_equal(np.unique(init, return_inverse=True)[1], want)
    assert fits == (start == "fit")
    got = kmeans(pts, k, np.random.default_rng(1), init_labels=init)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("row, col, value", [
    (0, 1, np.nan), (0, 1, np.inf), (2, 2, np.inf),
])
def test_spectral_rejects_non_finite_similarity(row, col, value):
    # NaN and inf would otherwise reach the eigensolver, which raises
    # LinAlgError on a non-finite Laplacian
    s = np.ones((3, 3)) - np.eye(3)
    s[row, col] = s[col, row] = value
    with pytest.raises(ValueError, match="finite"):
        spectral_cluster(s, [1, 2, 3], np.random.default_rng(0))


def brute_force_min_cut(s):
    """Minimum-weight 2-cut over all bipartitions; independent oracle."""
    n = s.shape[0]
    best, best_groups = np.inf, None
    for r in range(1, n // 2 + 1):
        for left in itertools.combinations(range(n), r):
            right = tuple(i for i in range(n) if i not in left)
            cut = sum(s[i, j] for i in left for j in right)
            if cut < best:
                best, best_groups = cut, (left, right)
    return best_groups


def test_spectral_two_geographic_groups():
    pos = np.array([[0, 0], [30, 0], [0, 30], [800, 800], [830, 800], [800, 830]],
                   dtype=float)
    ids = [1, 2, 3, 4, 5, 6]
    cfg = ClusteringConfig(theta=1.0)
    s_joint = joint_of(pos, np.zeros(6), cfg)
    part = spectral_cluster(s_joint, ids, np.random.default_rng(0))
    assert part.clusters == ((1, 2, 3), (4, 5, 6))
    # agrees with the brute-force minimum cut on the same similarity
    left, right = brute_force_min_cut(s_joint)
    oracle = tuple(sorted((tuple(sorted(ids[i] for i in left)),
                           tuple(sorted(ids[i] for i in right))), key=min))
    assert part.clusters == oracle


def test_spectral_load_groups_identical_positions():
    # six co-located SBSs split purely by load when theta = 0
    pos = np.tile([[500.0, 500.0]], (6, 1))
    loads = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    ids = [1, 2, 3, 4, 5, 6]
    cfg = ClusteringConfig(theta=0.0, sigma_l=0.25)
    s_joint = joint_of(pos, loads, cfg)
    part = spectral_cluster(s_joint, ids, np.random.default_rng(0),
                            loads=loads)
    assert part.clusters == ((1, 2, 3), (4, 5, 6))
    assert part.heads == (1, 4)  # equal loads tie toward the lowest id
    # with the default sigma_l the blocks are softer; k = 2 still splits them
    cfg = ClusteringConfig(theta=0.0, sigma_l=1.0)
    s_joint = joint_of(pos, loads, cfg)
    part = spectral_cluster(s_joint, ids, np.random.default_rng(0),
                            k=2, loads=loads)
    assert part.clusters == ((1, 2, 3), (4, 5, 6))


def test_spectral_singleton_and_disconnected():
    part = spectral_cluster(np.zeros((1, 1)), [7], np.random.default_rng(0))
    assert part.clusters == ((7,),) and part.heads == (7,)
    # an edgeless graph keeps every SBS alone (component floor on k)
    part = spectral_cluster(np.zeros((5, 5)), [1, 2, 3, 4, 5],
                            np.random.default_rng(0))
    assert part.clusters == ((1,), (2,), (3,), (4,), (5,))
    part = spectral_cluster(np.zeros((0, 0)), [], np.random.default_rng(0))
    assert part.clusters == ()


def test_spectral_partition_validity_random():
    rng = np.random.default_rng(31)
    for trial in range(15):
        n = int(rng.integers(2, 12))
        pos = rng.uniform(0, 1000, size=(n, 2))
        loads = rng.uniform(0, 1, size=n)
        ids = list(range(1, n + 1))
        s_joint = joint_of(pos, loads, ClusteringConfig())
        part = spectral_cluster(s_joint, ids, np.random.default_rng(trial),
                                loads=loads)
        members = sorted(b for c in part.clusters for b in c)
        assert members == ids  # disjoint cover
        for head, cluster in zip(part.heads, part.clusters):
            assert head in cluster
            head_load = loads[ids.index(head)]
            assert all(head_load >= loads[ids.index(b)] - 1e-15 for b in cluster)


def test_spectral_determinism():
    rng = np.random.default_rng(5)
    pos = rng.uniform(0, 1000, size=(9, 2))
    loads = rng.uniform(0, 1, size=9)
    ids = list(range(9))
    s_joint = joint_of(pos, loads, ClusteringConfig())
    p1 = spectral_cluster(s_joint, ids, np.random.default_rng(42), loads=loads)
    p2 = spectral_cluster(s_joint, ids, np.random.default_rng(42), loads=loads)
    assert p1.clusters == p2.clusters and p1.heads == p2.heads


def _line_similarity(n, spacing=100.0):
    """Path graph: n SBSs on a line, each adjacent to its neighbours only."""
    pos = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    return joint_of(pos, np.zeros(n), ClusteringConfig(eps_d_m=1.5 * spacing, theta=1.0))


def test_bisection_splits_by_fiedler_order():
    # one k-means cluster over a path: the Fiedler vector is monotone along
    # the path, so each bisection cuts it into contiguous halves
    s = _line_similarity(8)
    ids = list(range(1, 9))
    loads = np.linspace(0.1, 0.8, 8)
    part = spectral_cluster(s, ids, np.random.default_rng(0), k=1, loads=loads,
                            max_size=4)
    assert part.clusters == ((1, 2, 3, 4), (5, 6, 7, 8))
    assert part.heads == (4, 8)  # re-elected: max load in each half
    part = spectral_cluster(s, ids, np.random.default_rng(0), k=1, max_size=2)
    assert part.clusters == ((1, 2), (3, 4), (5, 6), (7, 8))
    # a bound the clusters already meet changes nothing
    free = spectral_cluster(s, ids, np.random.default_rng(0), k=1)
    assert free.clusters == (tuple(ids),)
    assert spectral_cluster(s, ids, np.random.default_rng(0), k=1,
                            max_size=8) == free
    with pytest.raises(ValueError, match="max_size"):
        spectral_cluster(s, ids, np.random.default_rng(0), max_size=0)


def test_bisection_ties_break_by_id():
    # no edges: the sub-Laplacian is zero, its Fiedler vector is e_1, so
    # every member but the second ties and the order falls back to ids
    ids = [3, 9, 4, 7, 5, 8]
    part = spectral_cluster(np.zeros((6, 6)), ids, np.random.default_rng(0),
                            k=1, max_size=3)
    assert part.clusters == ((3, 4, 5), (7, 8, 9))


def test_bisection_bounds_random_partitions():
    rng = np.random.default_rng(61)
    for trial in range(20):
        n = int(rng.integers(2, 16))
        max_size = int(rng.integers(1, 6))
        pos = rng.uniform(0, 1000, size=(n, 2))
        loads = rng.uniform(0, 1, size=n)
        ids = list(range(1, n + 1))
        s_joint = joint_of(pos, loads, ClusteringConfig(eps_d_m=600.0))
        part = spectral_cluster(s_joint, ids, np.random.default_rng(trial),
                                loads=loads, max_size=max_size)
        assert sorted(b for c in part.clusters for b in c) == ids
        assert all(1 <= len(c) <= max_size for c in part.clusters)
        for head, cluster in zip(part.heads, part.clusters):
            assert loads[head - 1] == max(loads[b - 1] for b in cluster)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n_small=st.integers(1, 12),
    eps_d=st.floats(50.0, 600.0),
    theta=st.floats(0.0, 1.0),
    sigma_l=st.floats(0.03, 3.0),
    load_sign=st.sampled_from(LOAD_SIGN_MODES),
    max_size=st.none() | st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_clusters_are_at_least_the_adjacency_components(n_small, eps_d, theta, sigma_l,
                                                        load_sign, max_size, seed):
    # the Laplacian's zero count is the component count of the similarity
    # graph, whose edges lie inside those of s_dist > 0, and floors k;
    # bisection only adds clusters. (A cluster may still span components.)
    from scipy.sparse.csgraph import connected_components

    from scnsim.sim import generate_scenario

    cfg = default_config()
    cfg.layout.n_small = n_small
    cc = cfg.clustering
    cc.eps_d_m, cc.theta, cc.sigma_l, cc.load_sign = eps_d, theta, sigma_l, load_sign
    rng = np.random.default_rng(seed)
    pos = generate_scenario(cfg, rng)[0][1:]
    loads = rng.uniform(0, 1, size=n_small)
    s_dist = distance_similarity(pos, build_adjacency(pos, eps_d), cc.sigma_d_m)
    s = joint_similarity(s_dist, load_similarity(loads, sigma_l, load_sign), theta)
    part = spectral_cluster(s, list(range(1, n_small + 1)), rng, loads=loads,
                            max_size=max_size)
    assert part.n_clusters >= connected_components(s_dist > 0, directed=False)[0]


def _tol(vals):
    return 1e-8 * max(1.0, np.max(np.abs(vals)))


def _rotating_eigh(seed):
    """np.linalg.eigh, then a random orthogonal change of basis inside each
    block of equal eigenvalues (a random sign on a lone eigenvector): any
    basis LAPACK could have returned."""
    eigh = np.linalg.eigh
    rng = np.random.default_rng(seed)

    def rotated(a):
        vals, vecs = eigh(a)
        vecs = vecs.copy()
        cuts = (np.flatnonzero(np.diff(vals) > _tol(vals)) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(vals)]):
            q, _ = np.linalg.qr(rng.normal(size=(hi - lo, hi - lo)))
            vecs[:, lo:hi] = vecs[:, lo:hi] @ (q * rng.choice([-1.0, 1.0], hi - lo))
        return vals, vecs

    return rotated


def _partition_under_rotations(monkeypatch, partition, seeds):
    """partition() with the plain solver, then under each rotation seed."""
    base = partition()
    for seed in seeds:
        monkeypatch.setattr(np.linalg, "eigh", _rotating_eigh(seed))
        assert partition() == base, f"rotation seed {seed}"
        monkeypatch.undo()
    return base


def _components_similarity(sizes, rng):
    """Disjoint components of the given sizes with random weights, shuffled;
    the standard Laplacian has one zero eigenvalue per component."""
    n = sum(sizes)
    s = np.zeros((n, n))
    start = 0
    for size in sizes:
        w = np.triu(rng.uniform(0.2, 1.0, size=(size, size)), 1)
        s[start:start + size, start:start + size] = w + w.T
        start += size
    perm = rng.permutation(n)
    return s[np.ix_(perm, perm)]


@pytest.mark.parametrize("k, similarity", [
    # a caller's k below the component count cuts the zero block
    pytest.param(2, lambda: _components_similarity((1, 2, 3, 4), np.random.default_rng(7)),
                 id="standard-k2"),
    pytest.param(3, lambda: _components_similarity((1, 2, 3, 5), np.random.default_rng(8)),
                 id="standard-k3"),
])
def test_partition_is_invariant_to_the_eigenbasis(monkeypatch, k, similarity):
    s = similarity()
    ids = list(range(1, len(s) + 1))
    vals = np.linalg.eigvalsh(laplacian_matrix(s))
    used_k = k or max(select_k(vals), zero_eigenvalue_count(vals))
    assert vals[used_k] - vals[used_k - 1] <= _tol(vals)  # k ends inside a block

    def partition():
        return spectral_cluster(s, ids, np.random.default_rng(0), k=k)

    base = _partition_under_rotations(monkeypatch, partition, range(20))
    assert base.n_clusters == used_k  # k itself is not raised


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    sizes=st.sets(st.integers(1, 5), min_size=1, max_size=4),
    k=st.none() | st.integers(1, 15),
    seed=st.integers(0, 2**16),
)
def test_random_partitions_are_invariant_to_the_eigenbasis(sizes, k, seed):
    # components of distinct sizes keep the embedded points free of exact
    # distance ties, which rounding alone would break
    rng = np.random.default_rng(seed)
    s = _components_similarity(sorted(sizes), rng)
    ids = list(range(1, len(s) + 1))
    k = None if k is None else min(k, len(s))

    def partition():
        return spectral_cluster(s, ids, np.random.default_rng(seed), k=k)

    with pytest.MonkeyPatch.context() as monkeypatch:
        _partition_under_rotations(monkeypatch, partition, range(3))


def _cycle_similarity(n):
    """Uniform ring: each SBS similar (weight 1) to its two neighbours. Its
    eigenvalues come in pairs, so the Fiedler value is repeated."""
    s = np.zeros((n, n))
    for i in range(n):
        s[i, (i + 1) % n] = s[(i + 1) % n, i] = 1.0
    return s


@pytest.mark.parametrize("similarity", [
    # lambda_2 = lambda_3
    pytest.param(lambda: _cycle_similarity(6), id="standard-ring"),
    # lambda_1 = lambda_2 = 0
    pytest.param(lambda: _components_similarity((3, 4), np.random.default_rng(3)),
                 id="standard-two-components"),
])
def test_bisection_of_a_repeated_fiedler_value_is_by_id(monkeypatch, similarity):
    s = similarity()
    n = len(s)
    ids = [int(b) for b in np.random.default_rng(5).permutation(n) + 1]
    vals = np.linalg.eigvalsh(laplacian_matrix(s))
    assert np.min(np.diff(vals[:3])) <= _tol(vals)

    def partition():
        return spectral_cluster(s, ids, np.random.default_rng(0), k=1,
                                max_size=(n + 1) // 2)

    base = _partition_under_rotations(monkeypatch, partition, range(20))
    half = n // 2
    assert base.clusters == (tuple(range(1, half + 1)), tuple(range(half + 1, n + 1)))


def test_partition_helpers():
    part = ClusterPartition(((1, 2), (3,), (4, 5, 6)), (2, 3, 6), epoch=50)
    assert part.n_clusters == 3
    assert part.sizes() == [2, 1, 3]
    assert part.mean_size() == pytest.approx(2.0)
    assert cluster_labels(8, part.clusters).tolist() == [-1, 0, 0, 1, 2, 2, 2, -1]


def test_joint_similarity_composition():
    pos = np.array([[0.0, 0.0], [100.0, 0.0], [600.0, 0.0]])
    loads = np.array([0.1, 0.3, 0.9])
    cc = ClusteringConfig()
    adj = build_adjacency(pos, cc.eps_d_m)
    s_dist = distance_similarity(pos, adj, cc.sigma_d_m)
    s_load = load_similarity(loads, cc.sigma_l, cc.load_sign)
    s_joint = joint_similarity(s_dist, s_load, cc.theta)
    assert adj[0, 1] == 1 and adj[0, 2] == 0
    assert s_joint[0, 2] == 0.0
    expected = np.sqrt(s_dist[0, 1] * s_load[0, 1])
    assert s_joint[0, 1] == pytest.approx(expected, rel=1e-12)
    assert np.allclose(laplacian_matrix(s_joint).sum(axis=1), 0.0, atol=1e-15)
    assert np.array_equal(joint_of(pos, loads, cc), s_joint)


def reference_spectral_cluster(similarity, ids, rng, loads=None, epoch=0,
                               init_labels=None, max_iter=100, max_size=None):
    """spectral_cluster with k from the eigengap and zero-count rules, written
    out step by step: reference_kmeans on the embedding through k's
    eigenvalue block, _bisect on every k-means group, and per cluster the
    head of maximal load, ties to the lowest id."""
    s = np.asarray(similarity, dtype=float)
    n = s.shape[0]
    ids = [int(b) for b in ids]
    loads = [0.0] * n if loads is None else [float(x) for x in loads]
    if n < 2:
        return ClusterPartition(tuple((b,) for b in ids), tuple(ids), epoch)
    vals, vecs = np.linalg.eigh(laplacian_matrix(s))
    values = vals.tolist()
    gaps = [abs(b - a) for a, b in zip(values, values[1:])]
    k = gaps.index(max(gaps)) + 1  # the first largest gap
    k = min(max(k, sum(abs(v) <= 1e-8 for v in values), 1), n)
    tol = 1e-8 * max(1.0, max(abs(v) for v in values))
    dim = sum(v <= values[k - 1] + tol for v in values)
    labels = reference_kmeans(vecs[:, :dim], k, rng, max_iter, init_labels)[0]
    groups = {}
    for i, lab in enumerate(labels.tolist()):
        groups.setdefault(lab, []).append(i)
    parts = [part for g in groups.values()
             for part in _bisect(s, g, np.asarray(ids), max_size)]
    clusters = tuple(sorted((tuple(sorted(ids[i] for i in g)) for g in parts), key=min))
    load_of = dict(zip(ids, loads))
    heads = tuple(min(c, key=lambda b: (-load_of[b], b)) for c in clusters)
    return ClusterPartition(clusters, heads, epoch)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    bridges=st.integers(0, 3),
    max_size=st.none() | st.integers(1, 4),
    warm=st.sampled_from(["none", "groups", "random"]),
    seed=st.integers(0, 2**16),
)
def test_spectral_cluster_equals_the_stepwise_reference(sizes, bridges, max_size, warm,
                                                        seed):
    # components joined by a few random bridges, loads with ties, shuffled
    # ids and warm starts that fit, miss or miscount
    rng = np.random.default_rng(seed)
    s = _components_similarity(sizes, rng)
    n = len(s)
    for _ in range(bridges):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            s[i, j] = s[j, i] = rng.uniform(0.01, 1.0)
    ids = (rng.permutation(n) * 3 + 2).tolist()
    loads = rng.choice([0.0, 0.25, 0.5], size=n)
    init = {"none": None, "groups": rng.permutation(np.arange(n) % len(sizes)),
            "random": rng.integers(0, n, size=n)}[warm]
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = spectral_cluster(s, ids, got_rng, loads=loads, epoch=7, init_labels=init,
                           max_iter=5, max_size=max_size)
    want = reference_spectral_cluster(s, ids, want_rng, loads=loads, epoch=7,
                                      init_labels=init, max_iter=5, max_size=max_size)
    assert got == want
    assert got_rng.random() == want_rng.random()


def _attack(values, vecs, k, dim, bound, rng):
    """A unit-Frobenius symmetric change of a Laplacian with eigenpairs
    (values, vecs) aimed at the margin behind one of _hold_bounds' bounds:
    eigenvalue moves in its eigenbasis, for davis_kahan a rotation of the
    embedding out of its block; None, or an aim with nothing to move: a
    random direction."""
    n = len(values)
    eps = np.zeros(n)
    if bound == "gap_lead":  # shrink the chosen gap, grow the runner-up
        gaps = np.diff(values)
        j = int(np.argmax(np.where(np.arange(n - 1) == k - 1, -np.inf, gaps)))
        eps[[k - 1, k, j, j + 1]] += [1.0, -1.0, -1.0, 1.0]
    elif bound == "zero_band":  # pull the nearest eigenvalue outside the band in
        out = np.flatnonzero(np.abs(values) > 1e-8)
        i = out[np.argmin(np.abs(np.asarray(values)[out]))]
        eps[i] = -np.sign(values[i])
    elif bound == "block_top":  # push the block's last eigenvalue out
        eps[[k - 1, dim - 1]] += [-1.0, 1.0]
    elif bound == "block_next":  # pull the first one after the block in
        eps[[k - 1, dim]] += [1.0, -1.0]
    if bound == "davis_kahan":
        e = np.outer(vecs[:, dim - 1], vecs[:, dim])
        e = e + e.T
    elif bound is None or not eps.any():
        e = rng.normal(size=(n, n))
        e = e + e.T
    else:
        e = (vecs * eps) @ vecs.T
        e = (e + e.T) / 2
    return e / np.linalg.norm(e)


def _near_threshold_laplacian(rng):
    """A symmetric matrix in a random eigenbasis whose spectrum sits at the
    1e-8 scale of the zero band and _block_tol: up to two zeros, then gaps of
    0.1-1e-8 (the eigenvalue after the k-th then in its block) or 0.1-1.5e-8, so
    each of _hold_bounds' bounds is the least in some draws."""
    n = int(rng.integers(3, 9))
    zeros = int(rng.integers(0, 3))
    gaps = rng.uniform(0.1, rng.choice([1.0, 1.5]), n - zeros)
    values = np.concatenate([np.zeros(zeros), np.cumsum(gaps)])
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (basis * (values * 1e-8)) @ basis.T


def test_a_laplacian_within_the_hold_radius_keeps_the_partition():
    # the full pipeline on any Laplacian within the hold radius, here one
    # aimed at the margin behind the least bound, returns the partition,
    # warm-started from it, and draws nothing, and the hold covers it; a
    # k-means loop cut off by max_iter may leave labels that are no Lloyd
    # fixed point, whose radius must then be 0. Every bound must be the
    # least in some examples, so a bound left out of _hold_bounds fails here
    binding = dict.fromkeys(["gap_lead", "zero_band", "block_top", "block_next",
                             "davis_kahan"], 0)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        source=st.sampled_from(["similarity", "spectrum"]),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        bridges=st.integers(0, 3),
        aim=st.booleans(),
        frac=st.floats(0.5, 0.999),
        max_iter=st.sampled_from([1, 2, 100]),
        seed=st.integers(0, 2**16),
    )
    def check(source, sizes, bridges, aim, frac, max_iter, seed):
        rng = np.random.default_rng(seed)
        if source == "similarity":
            s = _components_similarity(sizes, rng)
            n = len(s)
            for _ in range(bridges):
                i, j = rng.integers(0, n, size=2)
                if i != j:
                    s[i, j] = s[j, i] = rng.uniform(0.01, 1.0)
            lap = laplacian_matrix(s)
        else:
            lap = _near_threshold_laplacian(rng)
            n = len(lap)
            s = np.zeros((n, n))
        ids = (rng.permutation(n) * 3 + 2).tolist()
        loads = rng.choice([0.0, 0.25, 0.5], size=n)
        seen = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(clustering, "laplacian_matrix", lambda *_: lap)
            bounds = clustering._hold_bounds
            monkeypatch.setattr(clustering, "_hold_bounds",
                                lambda *a: seen.append(bounds(*a)) or seen[-1])
            part, hold = spectral_cluster(s, ids, np.random.default_rng(seed), loads=loads,
                                          epoch=3, max_iter=max_iter, hold=())
        if hold.rho == 0.0:
            return
        least = min(seen[0], key=seen[0].get)
        binding[least] += 1
        vals, vecs = np.linalg.eigh(lap)
        k = part.n_clusters
        dim = int(np.sum(vals <= vals[k - 1] + 1e-8 * max(1.0, np.max(np.abs(vals)))))
        moved = lap + frac * hold.rho * _attack(vals.tolist(), vecs, k, dim,
                                                least if aim else None, rng)
        init = cluster_labels(max(ids) + 1, part.clusters)[ids]
        draws = np.random.default_rng(seed + 1)
        state = draws.bit_generator.state
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(clustering, "laplacian_matrix", lambda *_: moved)
            got = spectral_cluster(s, ids, draws, loads=loads, epoch=3,
                                   init_labels=init, max_iter=max_iter)
            held, same = spectral_cluster(s, ids, draws, loads=loads, epoch=3,
                                          init_labels=init, max_iter=max_iter, hold=hold)
        assert got == part
        assert held == part and same is hold
        assert draws.bit_generator.state == state

    check()
    assert min(binding.values()) > 0, binding
