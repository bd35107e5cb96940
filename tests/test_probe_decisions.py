"""run_directprobe against the loop that asks ``separable`` about every
cluster.

``reference_directprobe`` is the merge loop as it was before the probe
settled decisions from bounding boxes, stored separating directions and
inherited rejections: it calls the public ``separable`` once per
different-label cluster for every candidate merge. The probe must give
the same merge log and clusters, bit for bit. ``separable`` itself tries
the centroid direction before its LP, so its verdicts are checked against
a max-margin LP written out here.
"""
import hashlib
import heapq
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from spectrobe import LabeledPoint, evaluate, probe, run_directprobe, separable
from spectrobe.probe import SEPARABILITY_TOLERANCE, Cluster, MergeRecord


def reference_directprobe(points):
    """(merge_log, clusters) of the plain loop over ``separable``."""
    n = len(points)
    x = np.stack([p.vector for p in points])
    members = {i: (i,) for i in range(n)}
    label_of = {i: points[i].label for i in range(n)}
    centroid = {i: x[i] for i in range(n)}

    def push_pair(heap, ia, ib):
        d = float(np.linalg.norm(centroid[ia] - centroid[ib]))
        heapq.heappush(heap, (d, ia, ib))

    heap = []
    for ia in range(n):
        for ib in range(ia + 1, n):
            if label_of[ia] == label_of[ib]:
                push_pair(heap, ia, ib)
    log = []
    next_id = n
    while heap:
        dist, ia, ib = heapq.heappop(heap)
        if ia not in members or ib not in members:
            continue
        merged = tuple(sorted(members[ia] + members[ib]))
        ok = all(
            separable(x[list(merged)], x[list(members[other])])
            for other in members
            if label_of[other] != label_of[ia]
        )
        if not ok:
            continue
        del members[ia], members[ib]
        cid = next_id
        next_id += 1
        members[cid] = merged
        label_of[cid] = label_of[ia]
        centroid[cid] = x[list(merged)].mean(axis=0)
        log.append(MergeRecord(ia, ib, dist))
        for other in members:
            if other != cid and label_of[other] == label_of[cid]:
                push_pair(heap, other, cid)
    order = sorted(members, key=lambda cid: members[cid][0])
    return tuple(log), tuple(Cluster(members[c], label_of[c]) for c in order)


def outcome(result):
    return result.merge_log, [(c.member_indices, c.label) for c in result.clusters]


def make_dataset(x, labels):
    return [LabeledPoint(v, "abcd"[k]) for v, k in zip(x, labels)]


@st.composite
def datasets(draw, lattice=None, scaled=True, max_points=60):
    """Overlapping labeled points: Gaussian or on a small integer lattice,
    with some rows repeated, then scaled by a power of two."""
    n = draw(st.integers(2, max_points))
    d = draw(st.integers(1, 8))
    n_labels = draw(st.integers(1, 4))
    on_lattice = draw(st.booleans()) if lattice is None else lattice
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if on_lattice:
        x = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        x = rng.normal(size=(n, d)) + rng.integers(0, 3, size=(n, 1))
    repeats = rng.integers(0, n, size=draw(st.integers(0, n // 3)))
    x[rng.integers(0, n, size=repeats.size)] = x[repeats]
    scale = 2.0 ** draw(st.integers(-60, 60)) if scaled else 1.0
    return x * scale, rng.integers(0, n_labels, size=n)


@settings(max_examples=40)
@given(datasets())
def test_same_merges_as_the_loop_over_separable(data):
    dataset = make_dataset(*data)
    log, clusters = reference_directprobe(dataset)
    assert outcome(run_directprobe(dataset)) == (
        log, [(c.member_indices, c.label) for c in clusters])


@settings(max_examples=12)
@given(datasets(), st.integers(-40, 40))
def test_clusters_ignore_power_of_two_scaling(data, exponent):
    x, labels = data
    base = run_directprobe(make_dataset(x, labels))
    scaled = run_directprobe(make_dataset(x * 2.0 ** exponent, labels))
    assert outcome(scaled)[1] == outcome(base)[1]
    assert [(m.cluster_a, m.cluster_b) for m in scaled.merge_log] == [
        (m.cluster_a, m.cluster_b) for m in base.merge_log]


@settings(max_examples=20)
@given(datasets(lattice=True, scaled=False, max_points=30),
       st.lists(st.integers(-1000, 1000), min_size=8, max_size=8))
def test_clusters_ignore_integer_translation_of_a_lattice(data, shift):
    x, labels = data
    base = run_directprobe(make_dataset(x, labels))
    moved = run_directprobe(make_dataset(x + np.array(shift[:x.shape[1]]), labels))
    assert outcome(moved)[1] == outcome(base)[1]


@pytest.fixture
def solves(monkeypatch):
    """A list that grows by one per LP the probe solves: the probe looks its
    solver up in its module at each call, so it gets the counting one."""
    calls = []
    solve = probe._max_margin

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(probe, "_max_margin", counted)
    return calls


def test_most_decisions_skip_the_solver(solves):
    rng = np.random.default_rng(8)
    labels = rng.permutation(np.arange(120) % 3)
    means = np.zeros((3, 6))
    means[1] = 0.35
    means[2, 0] = 6.0
    dataset = make_dataset(means[labels] + rng.normal(size=(120, 6)), labels)
    log, clusters = reference_directprobe(dataset)
    reference_calls = len(solves)
    solves.clear()
    result = run_directprobe(dataset)
    assert outcome(result) == (log, [(c.member_indices, c.label) for c in clusters])
    assert 0 < len(solves) <= reference_calls / 2


def probe_overlap_points(n, d, seed):
    """The benchmark's probe_overlap recipe at any size: three labels, the
    second's mean 0.35 in every coordinate, the third's 12 in the first,
    rounded to float32 as the pair dataset reader rounds them."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 3)
    means = np.zeros((3, d))
    means[1] = 0.35
    means[2, 0] = 12.0
    x = means[labels] + rng.normal(size=(n, d))
    return make_dataset(x.astype(np.float32).astype(np.float64), labels)


def sha256_prefix(lines):
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("n, d, seed, merges, clusters, lps", [
    (300, 8, 0, "cecc9b73e397adcf", "c723e2c925437252", 85),
    (300, 8, 1, "5d63ec6c45b5c0b3", "0b9d667013dae459", 96),
    (300, 8, 2, "7a9f73a11d48e4e9", "620dc4c821bd20cf", 104),
    (1000, 64, 0, "7b1a6f20e7ea4499", "3fa973ac3d920909", 64),
])
def test_decisions_are_pinned(solves, n, d, seed, merges, clusters, lps):
    # the merge sequence, the clusters and the LP count: a change to the
    # solver's pivots or to the merge bookkeeping that moves one decision
    # moves them; distances are left out, so the pins hold under any BLAS
    # kernel's rounding
    result = run_directprobe(probe_overlap_points(n, d, seed))
    assert sha256_prefix(f"{m.cluster_a} {m.cluster_b}" for m in result.merge_log) == merges
    assert sha256_prefix(f"{c.label} {' '.join(map(str, c.member_indices))}"
                         for c in result.clusters) == clusters
    assert len(solves) == lps


@pytest.mark.parametrize("n, d, seed, warm, lps", [
    (300, 8, 0, 66, 85),
    (300, 8, 1, 72, 96),
    (300, 8, 2, 85, 104),
    (1000, 64, 0, 63, 64),
])
def test_warm_starts_change_no_decision(solves, monkeypatch, n, d, seed, warm, lps):
    # an LP starts from the optimal basis stored for a parent of its union
    # against the same cluster; that moves at most the optimal vertex, so
    # the run with every start dropped makes the same merges, at the same
    # distances to the bit, the same clusters and the same LPs
    points = probe_overlap_points(n, d, seed)
    solve, starts = probe._max_margin, []

    def started(za, zb, start):
        starts.append(start is not None)
        return solve(za, zb, start)

    def exact(result):
        return [(m.cluster_a, m.cluster_b, m.distance.hex())
                for m in result.merge_log], outcome(result)[1]

    monkeypatch.setattr(probe, "_max_margin", started)
    built = exact(run_directprobe(points))
    assert (sum(starts), len(solves)) == (warm, lps)
    monkeypatch.setattr(probe, "_max_margin", lambda za, zb, start: solve(za, zb))
    assert exact(run_directprobe(points)) == built
    assert len(solves) == 2 * lps


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
def test_merges_and_accuracy_ignore_the_points_scale(scale):
    # squared centroid gaps of points near 1e-170 underflow and those of
    # points near 1e170 overflow unless the points are scaled first
    train, heldout = probe_overlap_points(150, 8, 0), probe_overlap_points(150, 8, 1)
    base = run_directprobe(train)
    scaled = run_directprobe([LabeledPoint(p.vector * scale, p.label) for p in train])
    assert [(m.cluster_a, m.cluster_b) for m in scaled.merge_log] == [
        (m.cluster_a, m.cluster_b) for m in base.merge_log]
    assert [m.distance for m in scaled.merge_log] == pytest.approx(
        [m.distance * scale for m in base.merge_log], rel=1e-12)
    assert outcome(scaled)[1] == outcome(base)[1]
    accuracy = evaluate(base, heldout)
    assert evaluate(scaled, [LabeledPoint(p.vector * scale, p.label)
                             for p in heldout]) == accuracy
    assert accuracy.mean_accuracy > 0.5


def test_a_wrong_inseparable_verdict_is_refused(monkeypatch):
    # two parallel segments along (1, -1), one above the other: their boxes
    # touch and the centroid gap (0, 1) has margin 0, so the LP decides; a
    # solver that reports t* = 0 for them is caught by its own hull weights
    solve = probe._max_margin
    monkeypatch.setattr(probe, "_max_margin", lambda za, zb, start: (0.0, *solve(za, zb)[1:]))
    with pytest.raises(RuntimeError, match="hull weights miss its margin"):
        separable([[2.0, 1.0], [3.0, 0.0]], [[2.0, 2.0], [3.0, 1.0]])


@pytest.mark.parametrize("answer, fault", [
    (lambda za, zb, solve: (1.0, np.zeros(za.shape[1]), *solve(za, zb)[2:]),
     "its w misses its margin 1.0"),
    (lambda za, zb, solve: (0.0, solve(za, zb)[1], np.zeros(len(za)), np.zeros(len(zb)), None),
     "its hull weights miss its margin 0.0"),
], ids=["zero-w", "no-hull-weights"])
def test_an_uncertified_answer_is_refused(monkeypatch, answer, fault):
    # the segments of test_a_wrong_inseparable_verdict_is_refused reach the
    # LP: a separable verdict whose w is zero, and an inseparable one with
    # no hull weight on either side, fail their certificates
    solve = probe._max_margin
    monkeypatch.setattr(probe, "_max_margin", lambda za, zb, start: answer(za, zb, solve))
    with pytest.raises(RuntimeError, match=fault):
        separable([[2.0, 1.0], [3.0, 0.0]], [[2.0, 2.0], [3.0, 1.0]])


def test_tied_distances_merge_in_the_order_of_the_full_heap():
    # a 2-D lattice with repeated rows, labeled by side with three flips:
    # many centroid distances tie exactly, so cluster ids decide which
    # pair goes first
    rng = np.random.default_rng(0)
    x = rng.integers(-3, 4, size=(40, 2)).astype(np.float64)
    x[rng.integers(0, 40, size=10)] = x[rng.integers(0, 40, size=10)]
    labels = (x[:, 0] > 0).astype(int)
    labels[rng.integers(0, 40, size=3)] ^= 1
    dataset = make_dataset(x, labels)
    log, clusters = reference_directprobe(dataset)
    distances = [m.distance for m in log]
    assert len(set(distances)) < len(distances) / 2
    assert outcome(run_directprobe(dataset)) == (
        log, [(c.member_indices, c.label) for c in clusters])


def test_heap_pops_grow_linearly_with_the_points(monkeypatch):
    # probe_overlap's shape: 300 points in 8-D, two labels overlapping and
    # one apart; a heap of every same-label pair pops ~29,000 times here
    rng = np.random.default_rng(0)
    n = 300
    labels = rng.permutation(np.arange(n) % 3)
    means = np.zeros((3, 8))
    means[1] = 0.35
    means[2, 0] = 12.0
    dataset = make_dataset(means[labels] + rng.normal(size=(n, 8)), labels)
    pops = []

    def heappop(heap):
        pops.append(1)
        return heapq.heappop(heap)

    monkeypatch.setattr(probe, "heapq", SimpleNamespace(
        heapify=heapq.heapify, heappush=heapq.heappush, heappop=heappop))
    result = run_directprobe(dataset)
    assert len(result.merge_log) >= n - 20
    assert len(pops) <= 5 * n


@pytest.mark.parametrize("scale", [1e-9, 1e-7, 1e-5, 1.0, 1e7, 1e30])
def test_separable_is_relative_to_the_sets_extent(scale):
    a = np.array([[0.0, 0.0], [1.0, 0.0]]) * scale
    b = np.array([[0.0, 1.0], [1.0, 1.0]]) * scale
    assert separable(a, b)
    assert not separable(a, np.vstack([b, [[0.5 * scale, 0.0]]]))


def joint_frame(a, b):
    """a and b in the frame that maps their joint bounding box's longest
    side onto [-1, 1], or None when all points are one point."""
    lo, hi = np.minimum(a.min(0), b.min(0)), np.maximum(a.max(0), b.max(0))
    unit = (hi / 2 - lo / 2).max()
    if unit == 0:
        return None
    center = lo / 2 + hi / 2
    return (a - center) / unit, (b - center) / unit


def highs_margin(za, zb):
    """The largest t with z.w <= b0 - t on za and z.w >= b0 + t on zb,
    w in [-1, 1]^d, solved by HiGHS."""
    d = za.shape[1]
    # variables: w (d), b0, t
    rows = np.vstack([np.hstack([za, -np.ones((len(za), 1)), np.ones((len(za), 1))]),
                      np.hstack([-zb, np.ones((len(zb), 1)), np.ones((len(zb), 1))])])
    res = scipy.optimize.linprog(
        -np.eye(d + 2)[d + 1], A_ub=rows, b_ub=np.zeros(len(rows)),
        bounds=[(-1.0, 1.0)] * d + [(None, None), (0.0, None)], method="highs")
    assert res.success, res.message
    return res.x[d + 1]


def max_margin_separable(a, b):
    """``separable``'s definition decided by the LP alone."""
    frame = joint_frame(a, b)
    return frame is not None and highs_margin(*frame) > SEPARABILITY_TOLERANCE


def assert_solver_matches_highs(a, b):
    """The probe's solver gives HiGHS's margin t* within 1e-9, its w is in
    [-1, 1]^d and attains t*, and its hull weights bound t* within 1e-9,
    from its cold start and from the optimal basis of the first half of
    each set, solved in that half's own frame and mapped onto the full
    sets' columns; returns t*."""
    frame = joint_frame(a, b)
    if frame is None:
        return 0.0
    za, zb = frame
    expected = highs_margin(za, zb)
    (na, d), nb = za.shape, len(zb)
    ka, kb = (na + 1) // 2, (nb + 1) // 2
    starts = [None]
    if (half := joint_frame(a[:ka], b[:kb])) is not None:
        columns = np.r_[:ka, na:na + kb, na + nb:na + nb + 2 * d + 1]
        starts.append(columns[probe._max_margin(*half)[4]])
    for start in starts:
        t, w, on_a, on_b, _ = probe._max_margin(za, zb, start)
        assert abs(t - expected) <= 1e-9, (t, expected)
        assert np.abs(w).max() <= 1 + 1e-9
        assert (np.min(zb @ w) - np.max(za @ w)) / 2 >= t - 1e-9
        assert abs(probe._hull_gap(za, zb, on_a, on_b) - t) <= 1e-9
    return t


@settings(max_examples=40)
@given(datasets())
def test_solver_margin_matches_highs(data):
    x, labels = data
    for ka, kb in itertools.combinations(np.unique(labels), 2):
        for k in (2, 4, None):
            assert_solver_matches_highs(x[labels == ka][:k], x[labels == kb][:k])


@pytest.mark.parametrize("seed", range(4))
def test_solver_margin_is_zero_on_overlapping_lattices(seed):
    # a 5x5 lattice in 2-D and a 0/1 lattice in 6-D, labeled at random
    # with repeated rows: the hulls overlap, so t* is 0
    rng = np.random.default_rng(seed)
    for x in (rng.integers(-2, 3, size=(60, 2)), rng.integers(0, 2, size=(60, 6))):
        x = x.astype(np.float64)
        x[rng.integers(0, 60, size=15)] = x[rng.integers(0, 60, size=15)]
        labels = rng.permutation(np.arange(60) % 2)
        assert assert_solver_matches_highs(x[labels == 0], x[labels == 1]) == pytest.approx(
            0.0, abs=1e-9)


@pytest.mark.parametrize("offset", [0.0, 1e-3, 1.0])
def test_solver_ends_on_duplicate_and_collinear_points(offset):
    # every point on one line through the origin in 8-D, each one many
    # times over; b is moved off the line by offset along one axis, so
    # most pivots are degenerate and many bases tie
    rng = np.random.default_rng(1)
    line = rng.integers(-2, 3, size=8).astype(np.float64)
    a = np.outer(np.repeat(np.arange(-4, 5), 12), line)
    b = np.outer(np.repeat(np.arange(-3, 4, 2), 20), line)
    b[:, 3] += offset
    t = assert_solver_matches_highs(rng.permutation(a), rng.permutation(b))
    assert (t > SEPARABILITY_TOLERANCE) == (offset > 0)


@settings(max_examples=40)
@given(datasets())
def test_separable_agrees_with_the_max_margin_lp(data):
    # the first 2, the first 4 and all points of each label: small sets
    # are where the centroid gap settles most verdicts
    x, labels = data
    for ka, kb in itertools.combinations(np.unique(labels), 2):
        for k in (2, 4, None):
            a, b = x[labels == ka][:k], x[labels == kb][:k]
            assert separable(a, b) == max_margin_separable(a, b), (ka, kb, k)


def coordinate_maps(rng, d):
    """A permutation of d coordinates, a sign per coordinate and a
    power-of-two scale per coordinate in 2^-40..1, drawn in that order."""
    return rng.permutation(d), rng.choice([-1.0, 1.0], d), 2.0 ** rng.integers(-40, 1, d)


def label_pairs(x, labels):
    """The first 2, the first 4 and all points of each pair of labels."""
    for ka, kb in itertools.combinations(np.unique(labels), 2):
        for k in (2, 4, None):
            yield x[labels == ka][:k], x[labels == kb][:k]


@settings(max_examples=40)
@given(datasets(), st.integers(0, 2**32 - 1))
def test_separable_ignores_coordinate_order_signs_and_set_order(data, seed):
    # the joint box frame and [-1, 1]^d map onto themselves under all three
    x, labels = data
    order, signs, _ = coordinate_maps(np.random.default_rng(seed), x.shape[1])
    for a, b in label_pairs(x, labels):
        verdict = separable(a, b)
        assert separable(a[:, order], b[:, order]) == verdict
        assert separable(a * signs, b * signs) == verdict
        assert separable(b, a) == verdict


@settings(max_examples=40)
@given(datasets(), st.integers(0, 2**32 - 1))
def test_separable_holds_under_per_coordinate_scales(data, seed):
    # coordinates whose spans differ by up to 2^40 leave frame rows far
    # below the pivot tolerance; the verdict must still be the LP's
    x, labels = data
    _, _, scales = coordinate_maps(np.random.default_rng(seed), x.shape[1])
    for a, b in label_pairs(x * scales, labels):
        assert separable(a, b) == max_margin_separable(a, b)


def test_separable_holds_on_a_lattice_with_per_coordinate_scales():
    # a seeded case the derandomized draws may miss: frame rows of span
    # 2^-13 and 2^-30 beside rows of span 2, on which the solver once
    # ended with hull weights that missed its margin
    rng = np.random.default_rng(115)
    n, d = rng.integers(2, 40), rng.integers(1, 8)
    x = rng.integers(-2, 3, (n, d)).astype(np.float64)
    labels = rng.integers(0, 2, n)
    _, _, scales = coordinate_maps(rng, d)
    a, b = x[labels == 0] * scales, x[labels == 1] * scales
    assert separable(a, b) == max_margin_separable(a, b)


def test_a_centroid_gap_settles_overlapping_boxes_without_the_solver(solves):
    # the boxes [0, 2]^2 and [1.5, 4]^2 overlap, and no stored direction
    # exists yet; the centroid gap, along (1, 1), separates the two labels
    a = np.array([[0.0, 0.0], [2.0, 2.0]])
    b = np.array([[1.5, 4.0], [4.0, 1.5]])
    result = run_directprobe(make_dataset(np.vstack([a, b]), [0, 0, 1, 1]))
    assert outcome(result)[1] == [((0, 1), "a"), ((2, 3), "b")]
    assert not solves


@pytest.mark.parametrize("seed", [9, 11, 12, 13])
def test_solver_ends_on_a_64_d_lattice_with_repeated_rows(seed):
    # 160 points of {-2, ..., 2}^64, a third of them copies: identical
    # columns whose reduced costs differ only by rounding, and long runs
    # of degenerate pivots; a smallest-index pivot on a near-zero entry
    # cycled or made the basis singular on these seeds
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(160, 64)).astype(np.float64)
    x[rng.integers(0, 160, size=50)] = x[rng.integers(0, 160, size=50)]
    assert_solver_matches_highs(x[:120], x[120:]) > SEPARABILITY_TOLERANCE
