"""Classifier-free probing of labeled representation pairs.

Points start as singleton clusters. Same-label clusters merge greedily,
nearest centroids first, but a merge only commits when the merged point
set stays linearly separable from every cluster of a different label.
What survives is a set of pure, mutually separable clusters that doubles
as a nearest-cluster classifier for held-out points.
"""
from __future__ import annotations

import enum
import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .config import located, quoted
from .spectral import FloatArray, as_vector

SEPARABILITY_TOLERANCE = 1e-6


@dataclass(frozen=True, slots=True, eq=False)
class LabeledPoint:
    """One representation vector with its relational label."""

    vector: FloatArray
    label: str

    def __post_init__(self):
        object.__setattr__(self, "vector", as_vector(self.vector, "vector"))
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("label must be a nonempty string")

    @property
    def dimension(self) -> int:
        return int(self.vector.size)


@dataclass(frozen=True, slots=True, eq=False)
class Cluster:
    member_indices: tuple[int, ...]
    label: str


@dataclass(frozen=True, slots=True)
class MergeRecord:
    """One committed merge: the two cluster ids and their centroid distance.

    Ids count up from the singletons (point i starts as cluster i); each
    merge mints the next id for its result.
    """

    cluster_a: int
    cluster_b: int
    distance: float


@dataclass(frozen=True, slots=True, eq=False)
class ProbeResult:
    """Final clustering over the training points.

    Clusters are ordered by their smallest member index. ``run_directprobe``
    always runs to completion and sets ``converged``; ``evaluate`` refuses
    a result built by hand with it False.
    """

    points: tuple[LabeledPoint, ...]
    clusters: tuple[Cluster, ...]
    merge_log: tuple[MergeRecord, ...]
    converged: bool


class PairTask(enum.Enum):
    """How a token pair becomes one vector, and which labels are legal.

    DISTANCE subtracts the two representations and keeps only tree
    distances 2 through 6, dropping longer ones. SIBLINGS and DFG_EDGE
    concatenate the representations; they allow at most two and three
    distinct labels respectively.
    """

    DISTANCE = "distance"
    SIBLINGS = "siblings"
    DFG_EDGE = "dfg_edge"


@dataclass(frozen=True, slots=True)
class BuiltPairs:
    points: tuple[LabeledPoint, ...]
    skipped: int


@dataclass(frozen=True, slots=True)
class EvalResult:
    """Per-label and unweighted mean accuracy over a held-out set.

    Labels that never occur in training are listed in ``unknown_labels``;
    their points count as wrong, which is what nearest-cluster prediction
    does to them anyway.
    """

    per_label: dict[str, float]
    mean_accuracy: float
    unknown_labels: tuple[str, ...]


def _as_point_matrix(points, name: str) -> FloatArray:
    arr = np.asarray(points)
    if np.iscomplexobj(arr):  # a real cast would drop the imaginary part
        raise ValueError(f"{name} must be real, got complex values")
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be a nonempty set of vectors")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains a non-finite value")
    return arr


def _frames(lo_a, hi_a, lo_b, hi_b):
    """Per pair of boxes (rows): the gap margin, half the widest coordinate
    gap, and the frame x -> (x - center) / unit that maps the joint box's
    longest side onto [-1, 1]. Every margin is measured in that frame;
    unit == 0 means all points are one point.
    """
    lo = np.minimum(lo_a, lo_b)
    hi = np.maximum(hi_a, hi_b)
    # halves first, so no difference of finite coordinates overflows
    unit = (hi / 2 - lo / 2).max(axis=-1)
    half_gap = np.maximum(lo_b / 2 - hi_a / 2, lo_a / 2 - hi_b / 2).max(axis=-1)
    margin = np.divide(half_gap, unit, out=np.zeros_like(unit), where=unit > 0)
    return margin, lo / 2 + hi / 2, unit


def _direction(a, b, center, unit, stored=()):
    """A w in [-1, 1]^d putting a below b with a margin above the
    tolerance in the frame (center, unit), or None. A stored w, or else
    the centroid gap scaled to max-abs 1, that clears it proves the best
    margin does; else ``_max_margin``'s largest t with x.w <= b0 - t on a,
    x.w >= b0 + t on b decides, and its w, scaled to max-abs 1, must clear
    the tolerance as a stored w does.
    """
    if unit == 0:
        return None
    za = (a - center) / unit
    zb = (b - center) / unit

    def clears(w):
        return (np.min(zb @ w) - np.max(za @ w)) / 2 > SEPARABILITY_TOLERANCE

    for w in stored:
        if clears(w):
            return w
    gap = zb.mean(axis=0) - za.mean(axis=0)
    if gap.any() and clears(w := gap / np.abs(gap).max()):
        return w
    t, w = _max_margin(za, zb)
    if t <= SEPARABILITY_TOLERANCE:
        return None
    if not (w.any() and clears(w := w / np.abs(w).max())):
        raise RuntimeError(f"separability program failed: its w misses its margin {t!r}")
    return w


# reduced costs, pivots and steps at or below it count as zero: rounding in
# the updated inverse reaches ~1e-11, and tighter cut-offs cycled on it
_PIVOT_TOLERANCE = 1e-9


def _max_margin(za, zb):
    """(t*, w): the largest t with z.w <= b0 - t on za, z.w >= b0 + t on zb,
    w in [-1, 1]^d, and an optimal w. Solved as its dual, the least L1 gap
    1/2 |sum l.za - sum m.zb|_1 between a point of each hull, by a revised
    simplex over d + 2 rows: the multipliers of the d coordinate rows are w.
    The most negative reduced cost enters and the largest tied pivot
    leaves, until more degenerate pivots in a row than there are rows turn
    it to Bland's rule; the basis inverse is rebuilt before optimality is
    declared.
    """
    (na, d), nb = za.shape, zb.shape[0]
    n = na + nb
    # columns: l (na), m (nb), +e_k, -e_k, s; rows: the d coordinates of
    # sum l.za - sum m.zb + e+ - e-, then sum l - sum m = 0, sum l + sum m - s = 1
    matrix = np.zeros((d + 2, n + 2 * d + 1))
    matrix[:d, :n] = np.hstack([za.T, -zb.T])
    matrix[d, :n] = np.r_[np.ones(na), -np.ones(nb)]
    matrix[d + 1] = np.r_[np.ones(n), np.zeros(2 * d), -1.0]
    matrix[:d, n:n + 2 * d] = np.hstack([np.eye(d), -np.eye(d)])
    cost = np.r_[np.zeros(n), np.ones(2 * d), 0.0]
    # l = m = 1/2 on a[0] and b[0], the slack of each coordinate's sign: feasible
    basis = np.r_[0, na, n + np.arange(d) + d * (zb[0] < za[0])]
    inverse, exact, stalled = np.linalg.inv(matrix[:, basis]), True, 0
    while True:
        y = cost[basis] @ inverse
        reduced = cost - y @ matrix
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced < -_PIVOT_TOLERANCE)
        if not entering.size:
            if exact:
                return y[-1], y[:d]
            inverse, exact = np.linalg.inv(matrix[:, basis]), True
            continue
        bland = stalled > d + 2
        j = entering[0] if bland else entering[reduced[entering].argmin()]
        u = inverse @ matrix[:, j]
        rows = np.flatnonzero(u > _PIVOT_TOLERANCE)
        if not rows.size:
            raise RuntimeError("separability program failed: its dual is unbounded")
        ratio = np.maximum(inverse[rows, -1], 0.0) / u[rows]
        ties = rows[ratio == ratio.min()]
        r = ties[basis[ties].argmin()] if bland else ties[u[ties].argmax()]
        stalled = stalled + 1 if ratio.min() <= _PIVOT_TOLERANCE else 0
        inverse[r] /= u[r]
        u[r] = 0.0
        inverse -= np.outer(u, inverse[r])
        basis[r], exact = j, False


def separable(set_a, set_b) -> bool:
    """True iff a hyperplane strictly separates the two point sets, each
    a 2-D array-like with one point per row.

    Equivalent to their convex hulls being disjoint. Decided by the
    maximal margin with w in [-1, 1]^d, measured once the joint bounding
    box is centered and its longest side spans [-1, 1]: separable when it
    exceeds ``SEPARABILITY_TOLERANCE``, at any common scale and offset.
    That maximum is an LP, solved by a simplex in numpy on its dual, the
    least L1 gap between the two hulls. A coordinate gap above twice the tolerance
    settles it without an LP, as does the direction between the two
    centroids when its margin clears the tolerance. Symmetric in its
    arguments.
    """
    a = _as_point_matrix(set_a, "set_a")
    b = _as_point_matrix(set_b, "set_b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    margin, center, unit = _frames(a.min(0), a.max(0), b.min(0), b.max(0))
    if margin > SEPARABILITY_TOLERANCE:
        return True
    return _direction(a, b, center, unit) is not None


def run_directprobe(dataset: Sequence[LabeledPoint]) -> ProbeResult:
    """Constrained agglomerative clustering of the dataset.

    Each step takes the same-label cluster pair with the smallest centroid
    distance (ties broken toward lower cluster ids) and merges it if the
    union stays ``separable`` from every different-label cluster;
    otherwise the pair is set aside. Different-label hulls only ever grow,
    so a rejected pair can never become mergeable again and is not
    retried, nor is any pair of clusters that contain it. The loop ends
    when no candidate pair remains. Each candidate pair has one owner
    cluster, which keeps its pairs sorted by distance; one heap holds each
    live owner's nearest pair with a live partner. So each pair is decided
    at most once, the loop needs no budget and always runs to completion:
    the result is always converged.

    Each answer is ``separable``'s, mostly without an LP. The decision
    order is box gap, stored direction, centroid direction, LP: one pass
    over bounding boxes settles the clusters far enough from the union,
    and the rest go smallest gap first, each settled by a stored direction
    against either parent that still clears the tolerance, else by the
    direction between the two sets' centroids if it clears it, or else by
    the LP. A direction is stored while both of its clusters are live.
    """
    points = tuple(dataset)
    if not points:
        raise ValueError("dataset is empty")
    for i, p in enumerate(points):
        if not isinstance(p, LabeledPoint):
            raise ValueError(f"dataset[{i}] is not a LabeledPoint")
        if p.dimension != points[0].dimension:
            raise ValueError(
                f"dataset[{i}] has dimension {p.dimension}, "
                f"expected {points[0].dimension}"
            )
    n = len(points)

    x = np.stack([p.vector for p in points])
    # per cluster id, as rows or list items: member indices, centroid,
    # bounding box, label code and liveness; the rows from n on are filled
    # as merges mint their ids, and an id is never reused
    members = [(i,) for i in range(n)]
    centroid, lo, hi = (np.vstack([x, x]) for _ in range(3))
    codes: dict[str, int] = {}
    label = np.array([codes.setdefault(p.label, len(codes)) for p in points] * 2)
    live = np.arange(2 * n) < n
    # known[i][c], for live i and c: with different labels, a w that puts
    # cluster i below c; with one label, None: the two may never merge
    known: list[dict[int, FloatArray | None]] = [{} for _ in range(n)]

    def union_directions(ia, ib, cid, union):
        """Directions settling every other-label cluster the box gaps leave
        open, or None at the first that the union is not separable from."""
        others = np.flatnonzero(live & (label != label[cid]))
        margin, center, unit = _frames(lo[cid], hi[cid], lo[others], hi[others])
        pending = np.flatnonzero(margin <= SEPARABILITY_TOLERANCE)
        found = {}
        for j in pending[np.argsort(margin[pending], kind="stable")]:
            c = int(others[j])
            stored = [known[i][c] for i in (ia, ib) if c in known[i]]
            w = _direction(union, x[list(members[c])], center[j], unit[j], stored)
            if w is None:
                return None
            found[c] = w
        return found

    # candidate pairs (dist, ia, ib), ia < ib: each has one owner, the lower
    # id for the singletons' pairs and the minted id for a merge's. Per
    # owner id: an iterator over its (dist, partner) pairs in that order,
    # None once it is dead. The heap holds each live owner's next pair with
    # a live partner, so pops come in (dist, ia, ib) order, ties included.
    queues: list[Iterator[tuple[np.float64, np.intp]] | None] = []
    heap: list[tuple[float, int, int, int]] = []

    def push_next(owner):
        for dist, p in queues[owner]:
            if live[p]:
                p = int(p)
                heapq.heappush(heap, (float(dist), min(owner, p), max(owner, p), owner))
                return

    def enqueue(owner, partners):
        """Queue owner's pairs with partners, given in ascending order, and
        push the first. The distances have the bits of np.linalg.norm:
        both take the sqrt of one BLAS dot."""
        diff = centroid[partners] - centroid[owner]
        dists = np.sqrt(np.vecdot(diff, diff))
        order = np.argsort(dists, kind="stable")
        queues.append(zip(dists[order], partners[order]))
        push_next(owner)

    for ia in range(n):
        enqueue(ia, ia + 1 + np.flatnonzero(label[ia + 1:n] == label[ia]))
    log: list[MergeRecord] = []
    cid = n

    while heap:
        dist, ia, ib, owner = heapq.heappop(heap)
        if not live[owner]:
            continue
        if not live[ia + ib - owner]:  # the partner died since the push
            push_next(owner)
            continue
        merged = tuple(sorted(members[ia] + members[ib]))
        union = x[list(merged)]
        # the candidate takes the next id's row
        lo[cid], hi[cid] = np.minimum(lo[ia], lo[ib]), np.maximum(hi[ia], hi[ib])
        label[cid] = label[ia]
        found = union_directions(ia, ib, cid, union)
        if found is None:
            known[ia][ib] = known[ib][ia] = None
            push_next(owner)
            continue
        members.append(merged)
        centroid[cid] = union.mean(axis=0)
        live[[ia, ib, cid]] = False, False, True
        queues[ia] = queues[ib] = None
        log.append(MergeRecord(ia, ib, dist))
        # only pairs of live clusters are ever read again, and a pair that
        # contains a rejected pair is rejected too
        for i in (ia, ib):
            for c, w in known[i].items():
                del known[c][i]
                if w is None:
                    found[c] = None
            known[i] = {}
        known.append(found)
        for c, w in found.items():
            known[c][cid] = None if w is None else -w
        # of found's keys, those of cid's label are the rejected partners
        partners = np.flatnonzero(live & (label == label[cid]))
        enqueue(cid, partners[(partners != cid) & ~np.isin(partners, list(found))])
        cid += 1

    order = sorted(np.flatnonzero(live).tolist(), key=lambda c: members[c][0])
    clusters = tuple(Cluster(members[c], points[members[c][0]].label) for c in order)
    return ProbeResult(points, clusters, tuple(log), converged=True)


def _nearest_labels(result: ProbeResult, queries) -> list[str]:
    """``predict`` for each query, over one stack of the training points.

    Points are stacked cluster by cluster: the nearest cluster holds the
    nearest point, and argmin's first minimum has the lowest cluster index.
    """
    if not result.clusters:
        raise ValueError("result has no clusters")
    sizes = [len(c.member_indices) for c in result.clusters]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    x = np.stack([result.points[i].vector
                  for c in result.clusters for i in c.member_indices])
    labels = []
    for query in queries:
        q = as_vector(query, "query")
        if q.size != x.shape[1]:
            raise ValueError(f"query must be a vector of dimension {x.shape[1]}")
        nearest = owner[np.argmin(np.linalg.norm(x - q, axis=1))]
        labels.append(result.clusters[nearest].label)
    return labels


def predict(result: ProbeResult, query) -> str:
    """Label of the cluster nearest to the query.

    Distance to a cluster is the minimum Euclidean distance to any of its
    member points; ties go to the lower-indexed cluster.
    """
    return _nearest_labels(result, [query])[0]


def evaluate(result: ProbeResult, heldout: Sequence[LabeledPoint]) -> EvalResult:
    """Nearest-cluster accuracy per label plus the unweighted label mean."""
    heldout = tuple(heldout)
    if not heldout:
        raise ValueError("held-out set is empty")
    if not result.converged:
        raise ValueError("result did not converge and is excluded from evaluation")
    predicted = _nearest_labels(result, [point.vector for point in heldout])
    totals = Counter(point.label for point in heldout)
    correct = Counter(p.label for p, got in zip(heldout, predicted) if got == p.label)
    per_label = {label: correct[label] / n for label, n in sorted(totals.items())}
    mean = sum(per_label.values()) / len(per_label)
    unknown = tuple(sorted(totals.keys() - {c.label for c in result.clusters}))
    return EvalResult(per_label=per_label, mean_accuracy=mean, unknown_labels=unknown)


def _checked_representations(representations) -> dict[str, FloatArray]:
    """Token id -> float64 vector, each nonempty, finite, 1-D and of one size."""
    vectors: dict[str, FloatArray] = {}
    dim = 0
    for token_id, rep in representations.items():
        what = f"representation {quoted(token_id)}"
        arr = vectors[token_id] = as_vector(rep, what)
        dim = dim or arr.size
        if arr.size != dim:
            raise ValueError(f"{what} has dimension {arr.size}, expected {dim}")
    return vectors


_MAX_DISTINCT_LABELS = {PairTask.SIBLINGS: 2, PairTask.DFG_EDGE: 3}
DISTANCE_MIN = 2
DISTANCE_MAX = 6


def build_pairs(
    representations: Mapping[str, "np.ndarray"],
    pairs: Sequence[tuple[str, str, str]],
    task: PairTask,
) -> BuiltPairs:
    """Turn labeled token-id pairs into labeled vectors for probing.

    DISTANCE points are the difference of the two representations; the label
    must be ASCII decimal digits giving a tree distance of at least 2, and
    distances above 6 are dropped (the skip count says how many). SIBLINGS
    and DFG_EDGE points concatenate the representations and cap the distinct
    label count at 2 and 3 respectively. A fault in a pair names it:
    ``pairs[<i>]: <message>``.
    """
    vectors = _checked_representations(representations)
    points: list[LabeledPoint] = []
    skipped = 0
    seen_labels: set[str] = set()
    for i, (id_i, id_j, label) in enumerate(pairs):
        with located(f"pairs[{i}]"):
            for token_id in (id_i, id_j):
                if token_id not in vectors:
                    raise ValueError(f"unknown token id {quoted(token_id)}")
            if task is PairTask.DISTANCE:
                # ASCII digits only: int() also takes "1_0", "+3" and other scripts' digits
                try:
                    if not (label.isascii() and label.isdigit()):
                        raise ValueError
                    distance = int(label)  # raises on a label too long to convert
                except ValueError:
                    raise ValueError(
                        f"label {quoted(label)} is not an integer tree distance"
                    ) from None
                if distance < DISTANCE_MIN:
                    raise ValueError(
                        f"tree distance must be >= {DISTANCE_MIN}, got {distance}"
                    )
                if distance > DISTANCE_MAX:
                    skipped += 1
                    continue
                points.append(
                    LabeledPoint(vectors[id_i] - vectors[id_j], str(distance))
                )
            else:
                seen_labels.add(label)
                cap = _MAX_DISTINCT_LABELS[task]
                if len(seen_labels) > cap:
                    raise ValueError(
                        f"{task.value} allows at most {cap} distinct labels; "
                        f"got {quoted(sorted(seen_labels))}"
                    )
                points.append(
                    LabeledPoint(np.concatenate([vectors[id_i], vectors[id_j]]), label)
                )
    return BuiltPairs(tuple(points), skipped)
