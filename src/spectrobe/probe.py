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
import sys
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Iterator, Mapping, Sequence

import numpy as np

from .config import quoted
from .spectral import FloatArray, as_array

SEPARABILITY_TOLERANCE = 1e-6


@dataclass(frozen=True, slots=True, eq=False)
class LabeledPoint:
    """One representation vector with its relational label."""

    vector: FloatArray
    label: str

    def __post_init__(self):
        object.__setattr__(self, "vector", as_array(self.vector, "vector"))
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("label must be a nonempty string")


def _checked_point(vector: FloatArray, label: str) -> LabeledPoint:
    """A LabeledPoint of a read-only, finite 1-D float64 vector and a
    nonempty str label, as they are: no copy."""
    point = object.__new__(LabeledPoint)
    object.__setattr__(point, "vector", vector)
    object.__setattr__(point, "label", label)
    return point


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

    Clusters are ordered by their smallest member index. ``converged`` is
    True on every result: ``run_directprobe`` always runs to completion.
    """

    points: tuple[LabeledPoint, ...]
    clusters: tuple[Cluster, ...]
    merge_log: tuple[MergeRecord, ...]
    converged: ClassVar[bool] = True


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


def _scaled(x):
    """(x / 2^shift, shift), the least shift keeping each |x.w| with w in
    [-1, 1]^d below 1: no projection or squared distance overflows, and
    outside the subnormals no sum, mean, difference, product or sqrt
    moves a bit."""
    shift = int(np.frexp(np.abs(x).max())[1]) + x.shape[1].bit_length()
    return np.ldexp(x, -shift), shift


def _frames(lo_a, hi_a, lo_b, hi_b):
    """Per pair of half-boxes (columns: each box's corners halved, one
    coordinate per row): the gap margin, half the widest coordinate gap,
    and the frame x -> (x - center) / unit that maps the joint box's
    longest side onto [-1, 1]. Every margin is measured in that frame;
    unit == 0 means all points are one point. Halves, so no difference
    of finite coordinates overflows; halving is monotone, so the joint
    half-box is the halved joint box.
    """
    lo = np.minimum(lo_a, lo_b)
    hi = np.maximum(hi_a, hi_b)
    unit = (hi - lo).max(axis=0)
    half_gap = np.maximum(lo_b - hi_a, lo_a - hi_b).max(axis=0)
    margin = np.divide(half_gap, unit, out=np.zeros_like(unit), where=unit > 0)
    return margin, lo + hi, unit


def _direction(a, b, center, unit, start=None):
    """(w, basis): a w in [-1, 1]^d putting a below b with a margin above
    the tolerance in the frame (center, unit), with the LP's optimal
    basis, or start where no LP ran; None when there is no such w. The
    centroid gap scaled to max-abs 1, if it clears the tolerance, proves
    the best margin does; else ``_max_margin``'s largest t with
    x.w <= b0 - t on a, x.w >= b0 + t on b decides, from start if given.
    Its answer is checked either way: its w, scaled to max-abs 1, must
    clear the tolerance as the centroid gap does, and its hull weights
    must bound every margin by the tolerance.
    """
    if unit == 0:
        return None
    za = (a - center) / unit
    zb = (b - center) / unit

    def clears(w):
        return ((zb @ w).min() - (za @ w).max()) / 2 > SEPARABILITY_TOLERANCE

    gap = zb.mean(axis=0) - za.mean(axis=0)
    if gap.any() and clears(w := gap / np.abs(gap).max()):
        return w, start
    t, w, on_a, on_b, basis = _max_margin(za, zb, start)
    if t <= SEPARABILITY_TOLERANCE:
        if _hull_gap(za, zb, on_a, on_b) <= SEPARABILITY_TOLERANCE:
            return None
        raise RuntimeError(
            f"separability program failed: its hull weights miss its margin {t!r}")
    if not (w.any() and clears(w := w / np.abs(w).max())):
        raise RuntimeError(f"separability program failed: its w misses its margin {t!r}")
    return w, basis


def _hull_gap(za, zb, on_a, on_b):
    """Half the L1 distance between the points of za's and zb's hulls that
    the row weights give, an upper bound on every margin: a w in [-1, 1]^d
    with margin m has 2m <= (q - p).w <= |q - p|_1. Weights are clipped
    at zero first, since rounding leaves a degenerate basic weight near
    -1e-16, so p and q are hull points whatever the weights; inf when
    either side has no weight.
    """
    on_a, on_b = np.maximum(on_a, 0.0), np.maximum(on_b, 0.0)
    if not (on_a.any() and on_b.any()):
        return np.inf
    return np.abs(on_b @ zb / on_b.sum() - on_a @ za / on_a.sum()).sum() / 2


# reduced costs, pivots and steps at or below it count as zero: rounding in
# the updated inverse reaches ~1e-11, and tighter cut-offs cycled on it
_PIVOT_TOLERANCE = 1e-9


def _inverse(block):
    """The inverse of a basis, whose singularity is the solver's fault."""
    try:
        return np.linalg.inv(block)
    except np.linalg.LinAlgError as err:  # a ValueError, which would blame the input
        raise RuntimeError(f"separability program failed: {err}") from None


def _row_scales(z):
    """Per coordinate of the rows z, the least power of two f at or above
    its span if that span is below 2^-8, else 1."""
    span = z.max(0) - z.min(0)
    if span.min() >= 2.0 ** -8:  # as for every LP of well-spread points
        return np.ones(z.shape[1])
    return np.ldexp(1.0, np.where(span < 2.0 ** -8, np.frexp(span)[1], 0))


def _max_margin(za, zb, start=None):
    """(t*, w, on_a, on_b, basis): the largest t with z.w <= b0 - t on za,
    z.w >= b0 + t on zb, w in [-1, 1]^d, an optimal w, the weights of
    za's and zb's rows at the optimum, and the optimal basis as column
    indices. Solved as its dual, the least L1 gap 1/2 |sum l.za - sum
    m.zb|_1 between a point of each hull, by a revised simplex over d + 2
    rows: the multipliers of the d coordinate rows are w, and l, m are
    the weights. The most negative reduced cost enters and the largest
    tied pivot leaves, until more degenerate pivots in a row than there
    are rows turn it to Bland's rule; the basis inverse is rebuilt before
    optimality is declared.

    start, if given, is the optimal basis of this program on subsets of
    za's and zb's points in another frame, mapped onto these columns; the
    simplex starts there, not from a0, b0 and the sign slacks. It is a
    feasible basis: it names only columns this program has, its points
    and slacks; in this frame each coordinate row is the old row times a
    positive factor (the ratio of the units and row scales) plus a
    multiple of the sum l - sum m = 0 row (the center's move); so its
    matrix is T B D, T triangular and D diagonal, both with positive
    diagonals, which is nonsingular and keeps the old basic values, each
    slack's times a positive factor. t* is unique, so no verdict depends
    on the start; only the optimal vertex, and so w and the weights, can.

    A coordinate whose span in the frame is below 2^-8 has its row divided
    by the power of two f at or above that span, and its two slacks cost
    f: the same program, whose row multiplier is f w_k, but whose pivots
    on that row are not left below the pivot tolerance. Those slacks'
    reduced costs, f (1 -+ w_k), are priced over f, so w stays within the
    tolerance of [-1, 1]^d. Every other row has f = 1 and keeps its bits.
    """
    (na, d), nb = za.shape, zb.shape[0]
    n = na + nb
    width = n + 2 * d + 1
    z = np.concatenate([za, zb])
    f = _row_scales(z)
    scaled = f.min() < 1.0
    # columns: l (na), m (nb), +e_k, -e_k, s; rows: the d coordinates of
    # (sum l.za - sum m.zb) / f + e+ - e-, then sum l - sum m = 0, sum l + sum m - s = 1
    matrix = np.zeros((d + 2, width))
    matrix[:d, :n] = z.T / f[:, None]
    matrix[:d, na:n] *= -1.0
    matrix[d, :na] = 1.0
    matrix[d, na:n] = -1.0
    matrix[d + 1, :n] = 1.0
    matrix[d + 1, -1] = -1.0
    k = np.arange(d)
    matrix[k, n + k] = 1.0
    matrix[k, n + d + k] = -1.0
    cost = np.zeros(width)
    cost[n:n + d] = cost[n + d:n + 2 * d] = f
    # else l = m = 1/2 on a[0] and b[0], the slack of each coordinate's sign: feasible
    basis = (np.concatenate(([0, na], n + k + d * (zb[0] < za[0]))) if start is None
             else np.array(start))
    inverse, exact, stalled = _inverse(matrix[:, basis]), True, 0
    while True:
        y = cost[basis] @ inverse
        reduced = cost - y @ matrix
        if scaled:  # else a division by 1
            reduced[n:n + 2 * d] /= cost[n:n + 2 * d]
        reduced[basis] = 0.0
        bland = stalled > d + 2
        # the first most negative reduced cost, or under Bland's rule the
        # first negative one
        j = (reduced < -_PIVOT_TOLERANCE).argmax() if bland else reduced.argmin()
        if not reduced[j] < -_PIVOT_TOLERANCE:
            if exact:
                weights = np.zeros(width)
                weights[basis] = inverse[:, -1]
                return y[-1], y[:d] / f, weights[:na], weights[na:n], basis
            inverse, exact = _inverse(matrix[:, basis]), True
            continue
        u = inverse @ matrix[:, j]
        rows = (u > _PIVOT_TOLERANCE).nonzero()[0]
        if not rows.size:
            raise RuntimeError("separability program failed: its dual is unbounded")
        ratio = np.maximum(inverse[rows, -1], 0.0) / u[rows]
        low = ratio.min()
        ties = rows[ratio == low]
        r = ties[basis[ties].argmin()] if bland else ties[u[ties].argmax()]
        stalled = stalled + 1 if low <= _PIVOT_TOLERANCE else 0
        inverse[r] /= u[r]
        u[r] = 0.0
        inverse -= u[:, None] * inverse[r]
        basis[r], exact = j, False


def separable(set_a, set_b) -> bool:
    """True iff a hyperplane strictly separates the two point sets, each
    a 2-D array-like with one point per row, checked by ``as_array``.

    Equivalent to their convex hulls being disjoint. Decided by the
    maximal margin with w in [-1, 1]^d, measured once the joint bounding
    box is centered and its longest side spans [-1, 1]: separable when it
    exceeds ``SEPARABILITY_TOLERANCE``, at any common scale and offset.
    That maximum is an LP, solved by a simplex in numpy on its dual, the
    least L1 gap between the two hulls. A coordinate gap above twice the tolerance
    settles it without an LP, as does the direction between the two
    centroids when its margin clears the tolerance. Symmetric in its
    arguments.

    Both of the LP's verdicts are certified: its separating w must clear
    the tolerance, and its inseparable verdict must come with hull
    weights naming a point of each hull at most twice the tolerance apart
    in L1. A failed certificate or a singular basis raises
    ``RuntimeError``, which the CLI reports as an internal error (exit 2).
    """
    a = as_array(set_a, "set_a", ndim=2)
    b = as_array(set_b, "set_b", ndim=2)
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    margin, center, unit = _frames(a.min(0) / 2, a.max(0) / 2, b.min(0) / 2, b.max(0) / 2)
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
    the LP. A direction is stored while both of its clusters are live,
    with its extreme projections on each, so checking it against a union
    takes one product with the points the other parent adds. With it goes
    the optimal basis of the last LP on subsets of the two, and the LP
    against a union starts from the basis stored for either parent (see
    ``_max_margin``), not cold. Its verdict is the cold start's, but its
    w can be another optimal one, so a later check by stored direction
    can settle, or leave to the LP, what a cold start's w would not.

    Every step computes on one copy of the points divided by a power of
    two, the least that keeps each |x.w| with w in [-1, 1]^d below 1;
    merge distances are given in the points' own units. That scaling
    moves no bit outside float64's subnormals, so merges, clusters and
    distances do not depend on a common scale of the vectors. Float64
    points can still reach the subnormals: a centroid gap below about
    2^-500 of the largest coordinate squares into them, and a coordinate
    below about 2^-1000 of it is one. Float32 points never do.
    """
    points = tuple(dataset)
    if not points:
        raise ValueError("dataset is empty")
    for i, p in enumerate(points):
        if not isinstance(p, LabeledPoint):
            raise ValueError(f"dataset[{i}] is not a LabeledPoint")
        if p.vector.size != points[0].vector.size:
            raise ValueError(f"dataset[{i}] has dimension {p.vector.size}, "
                             f"expected {points[0].vector.size}")
    n = len(points)

    x, shift = _scaled(np.stack([p.vector for p in points]))
    # per cluster id, as rows, columns or list items: member indices,
    # centroid, bounding box with its corners halved (``_frames``'
    # half-boxes, one column per id, so that a coordinate max runs along
    # contiguous rows), label code and liveness; the ids from n on are
    # filled as merges mint them, and an id is never reused
    members = list(np.arange(n)[:, None])
    centroid = np.vstack([x, x])
    lo, hi = (np.ascontiguousarray(np.vstack([x, x]).T) / 2 for _ in range(2))
    codes: dict[str, int] = {}
    label = np.array([codes.setdefault(p.label, len(codes)) for p in points] * 2)
    live = np.arange(2 * n) < n
    # known[i][c], for live i and c: with different labels, a w that puts
    # cluster i below c, with max(x_i.w) and min(x_c.w) and the optimal
    # basis of the last LP on subsets of i and c, or None; with one label,
    # None: the two may never merge. A basis names the program's columns
    # by run-wide ids: point ids, then +e_k, -e_k and s from n on; flip
    # swaps +e_k and -e_k, as swapping i and c does
    known: list[dict[int, tuple[FloatArray, float, float, np.ndarray | None] | None]] = [
        {} for _ in range(n)]
    d = x.shape[1]
    slacks = np.arange(n, n + 2 * d + 1)
    flip = np.concatenate([np.arange(n), slacks[d:-1], slacks[:d], slacks[-1:]])
    slot = np.empty(n + 2 * d + 1, dtype=np.intp)  # per LP: its column of each id

    def union_directions(ia, ib, cid, merged, union):
        """(w, top, bottom, basis) settling every other-label cluster the
        box gaps leave open, or None at the first that the union is not
        separable from. A w stored for a parent and c clears the tolerance
        in the frame of the union and c when (bottom - top) / unit / 2
        does, with top taken over the other parent's points too; below a
        normal unit, subnormal rounding could outweigh the margin, so such
        a check is left to ``_direction``."""
        others = (live & (label != label[cid])).nonzero()[0]
        margin, center, unit = _frames(lo[:, cid:cid + 1], hi[:, cid:cid + 1],
                                       lo.take(others, axis=1), hi.take(others, axis=1))
        pending = (margin <= SEPARABILITY_TOLERANCE).nonzero()[0]
        if not pending.size:  # the box gaps settled them all, as for most candidates
            return {}
        parents = {ia: x[members[ia]], ib: x[members[ib]]}
        found = {}
        for j in pending[np.argsort(margin[pending], kind="stable")]:
            c = int(others[j])
            for i, other in (ia, ib), (ib, ia):
                if c in known[i] and unit[j] >= sys.float_info.min:
                    w, top, bottom, basis = known[i][c]
                    top = max(top, float((parents[other] @ w).max()))
                    if (bottom - top) / unit[j] / 2 > SEPARABILITY_TOLERANCE:
                        break
            else:
                # the LP starts from ia's basis against c, else ib's: each
                # side of that program is a subset of this one's
                start = next((known[i][c][3] for i in (ia, ib)
                              if c in known[i] and known[i][c][3] is not None), None)
                columns = np.concatenate([merged, members[c], slacks])
                if start is not None:
                    slot[columns] = np.arange(columns.size)
                    start = slot[start]
                points_c = x[members[c]]
                settled = _direction(union, points_c, center[:, j], unit[j], start)
                if settled is None:
                    return None
                w, basis = settled
                basis = None if basis is None else columns[basis]
                top = max(float((parents[ia] @ w).max()), float((parents[ib] @ w).max()))
                bottom = float((points_c @ w).min())
            found[c] = w, top, bottom, basis
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
        enqueue(ia, ia + 1 + (label[ia + 1:n] == label[ia]).nonzero()[0])
    log: list[tuple[int, int, float]] = []
    cid = n

    while heap:
        dist, ia, ib, owner = heapq.heappop(heap)
        if not live[owner]:
            continue
        if not live[ia + ib - owner]:  # the partner died since the push
            push_next(owner)
            continue
        merged = np.sort(np.concatenate([members[ia], members[ib]]))
        union = x[merged]
        # the candidate takes the next id's slots
        lo[:, cid], hi[:, cid] = np.minimum(lo[:, ia], lo[:, ib]), np.maximum(hi[:, ia], hi[:, ib])
        label[cid] = label[ia]
        found = union_directions(ia, ib, cid, merged, union)
        if found is None:
            known[ia][ib] = known[ib][ia] = None
            push_next(owner)
            continue
        members.append(merged)
        centroid[cid] = union.mean(axis=0)
        live[[ia, ib, cid]] = False, False, True
        queues[ia] = queues[ib] = None
        log.append((ia, ib, dist))
        # only pairs of live clusters are ever read again, and a pair that
        # contains a rejected pair is rejected too
        for i in (ia, ib):
            for c, fact in known[i].items():
                del known[c][i]
                if fact is None:
                    found[c] = None
            known[i] = {}
        known.append(found)
        for c, fact in found.items():
            if fact is None:
                known[c][cid] = None
            else:
                w, top, bottom, basis = fact
                known[c][cid] = -w, -bottom, -top, None if basis is None else flip[basis]
        # of found's keys, those of cid's label are the rejected partners
        partners = live & (label == label[cid])
        partners[[cid, *found]] = False
        enqueue(cid, partners.nonzero()[0])
        cid += 1

    order = sorted(np.flatnonzero(live).tolist(), key=lambda c: members[c][0])
    clusters = tuple(Cluster(tuple(members[c].tolist()), points[members[c][0]].label)
                     for c in order)
    with np.errstate(over="ignore"):  # in the points' units: inf past float64's range
        merges = tuple(MergeRecord(a, b, float(np.ldexp(dist, shift))) for a, b, dist in log)
    return ProbeResult(points, clusters, merges)


def _nearest_labels(result: ProbeResult, queries: Sequence[FloatArray]) -> list[str]:
    """``predict`` for each query, a finite 1-D float64 vector, over one
    stack of the training points.

    Points are stacked cluster by cluster: the nearest cluster holds the
    nearest point, and argmin's first minimum has the lowest cluster index.
    Each block of queries q gets every squared distance to the points x
    from one product, e = |x|^2 + |q|^2 - 2 q.x. In any order of sums,
    fused or not, e and the square of the exact ``norm(x - q)`` each lie
    within 1.01 (d + 4) u (|x| + |q|)^2 + (3d + 1) 2^-1074 of |x - q|^2,
    u = 2^-53. The limit, the least e plus (d + 4) (2^-49 (max |x|^2 +
    |q|^2) + 2^-1070), clears the least e by more than twice that, so a
    point past it is farther than the point of the least e; only the
    points within it get the exact norm. A query whose least e is not
    finite, being past float64's range, gets it for every point.
    """
    if not result.clusters:
        raise ValueError("result has no clusters")
    sizes = [len(c.member_indices) for c in result.clusters]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    x, shift = _scaled(np.stack([result.points[i].vector
                                 for c in result.clusters for i in c.member_indices]))
    d = x.shape[1]
    if any(query.size != d for query in queries):
        raise ValueError(f"query must be a vector of dimension {d}")
    xx, picks = np.vecdot(x, x), []
    # an overflow ties all points, as unscaled rounding does; a query past
    # the float64 range makes a not-a-number estimate
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.ldexp(np.array(queries), -shift)
        for block in np.split(q, range(64, len(q), 64)):  # 512 bytes of e per point
            qq = np.vecdot(block, block)
            e = xx + qq[:, None] - 2.0 * (block @ x.T)
            limit = e.min(axis=1) + (d + 4) * (2.0 ** -49 * (xx.max() + qq) + 2.0 ** -1070)
            near = (e <= limit[:, None]) | ~np.isfinite(limit)[:, None]
            picks.append(pick := near.argmax(axis=1))
            for k in (near.sum(axis=1) > 1).nonzero()[0]:
                rows = near[k].nonzero()[0]
                pick[k] = rows[np.argmin(np.linalg.norm(x[rows] - block[k], axis=1))]
    return [result.clusters[c].label for c in owner[np.concatenate(picks)].tolist()]


def predict(result: ProbeResult, query) -> str:
    """Label of the cluster nearest to the query, checked by ``as_array``.

    Distance to a cluster is the minimum Euclidean distance to any of its
    member points; ties go to the lower-indexed cluster, whatever the BLAS
    or CPU (see ``_nearest_labels``).
    """
    return _nearest_labels(result, [as_array(query, "query")])[0]


def evaluate(result: ProbeResult, heldout: Sequence[LabeledPoint]) -> EvalResult:
    """Nearest-cluster accuracy per label plus the unweighted label mean.

    Each held-out item must be a ``LabeledPoint`` of the training points'
    dimension, whose vector was checked when the point was built. Labels
    are ``predict``'s (see ``_nearest_labels``), taken with the training
    points and each query divided by one power of two, ``run_directprobe``'s
    scale rule, so accuracy does not depend on a common scale of the
    vectors, within the same float64 range.
    """
    heldout = tuple(heldout)
    if not heldout:
        raise ValueError("held-out set is empty")
    for i, point in enumerate(heldout):
        if not isinstance(point, LabeledPoint):
            raise ValueError(f"heldout[{i}] is not a LabeledPoint")
    predicted = _nearest_labels(result, [point.vector for point in heldout])
    totals = Counter(point.label for point in heldout)
    correct = Counter(p.label for p, got in zip(heldout, predicted) if got == p.label)
    per_label = {label: correct[label] / n for label, n in sorted(totals.items())}
    mean = sum(per_label.values()) / len(per_label)
    unknown = tuple(sorted(totals.keys() - {c.label for c in result.clusters}))
    return EvalResult(per_label=per_label, mean_accuracy=mean, unknown_labels=unknown)


def representation_matrix(representations: Mapping[str, "np.ndarray"]) -> FloatArray:
    """The representations as the rows of one float64 matrix, in their
    order, checked by ``as_array`` as one 2-D array: each real, nonempty,
    finite, 1-D and of one size. A fault names the first representation
    that has it."""
    try:
        return as_array(list(representations.values()), "representations", ndim=2)
    except (TypeError, ValueError):  # ragged or faulty: the walk names the fault
        pass
    vectors: list[FloatArray] = []  # walk them in order for the first fault's message
    for token_id, rep in representations.items():
        what = f"representation {quoted(token_id)}"
        vectors.append(arr := as_array(rep, what))
        if arr.size != vectors[0].size:
            raise ValueError(f"{what} has dimension {arr.size}, expected {vectors[0].size}")
    return np.stack(vectors) if vectors else np.empty((0, 0))


def checked_pair(pair, ids: Mapping[str, object]) -> tuple[str, str, str]:
    """``pair`` as ``(id_i, id_j, label)`` by the one pair rule of
    ``build_pairs`` and the pair-dataset reader and writer: a tuple or list
    of three items, then a nonempty ``str`` label, then two ``str`` keys of
    ``ids``. A fault raises a bare ValueError; each caller names the place."""
    if not isinstance(pair, (tuple, list)) or len(pair) != 3:
        raise ValueError(f"pair must be (id_i, id_j, label), got {quoted(pair)}")
    id_i, id_j, label = pair
    if not isinstance(label, str) or not label:
        raise ValueError("label must be a nonempty string")
    for token_id in (id_i, id_j):
        if not isinstance(token_id, str) or token_id not in ids:
            raise ValueError(f"unknown token id {quoted(token_id)}")
    return id_i, id_j, label


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
    label count at 2 and 3 respectively. Each pair is first checked by
    ``checked_pair``. A fault in a pair names it: ``pairs[<i>]: <message>``.
    """
    matrix = representation_matrix(representations)
    row = {token_id: i for i, token_id in enumerate(representations)}
    kept, labels = [], []  # (pair index, row of id_i, row of id_j), label
    skipped = 0
    seen_labels: set[str] = set()
    fault = None
    for i, pair in enumerate(pairs):
        # not located(): once per pair, and a context costs more than the checks
        try:
            id_i, id_j, label = checked_pair(pair, row)  # before it is parsed or counted
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
                label = str(distance)
            else:
                seen_labels.add(label)
                cap = _MAX_DISTINCT_LABELS[task]
                if len(seen_labels) > cap:
                    raise ValueError(
                        f"{task.value} allows at most {cap} distinct labels; "
                        f"got {quoted(sorted(seen_labels))}"
                    )
        except ValueError as err:  # raised once the points before it are checked
            fault = ValueError(f"pairs[{i}]: {err}")
            break
        kept.append((i, row[id_i], row[id_j]))
        labels.append(label)
    # one gather; float32 representations were widened first, so each point
    # has the bits of a float64 one
    kept = np.array(kept, dtype=np.intp).reshape(-1, 3)
    ends = matrix[kept[:, 1:]]
    if task is PairTask.DISTANCE:
        vectors = ends[:, 0] - ends[:, 1]
    else:
        vectors = ends.reshape(len(ends), 2 * matrix.shape[1])
    # a difference of float64 representations can pass the float64 range
    if (bad := np.argwhere(~np.isfinite(vectors))).size:
        k, index = bad[0]
        raise ValueError(f"pairs[{kept[k, 0]}]: vector has a non-finite value at index {index}")
    if fault is not None:
        raise fault
    vectors.flags.writeable = False
    return BuiltPairs(tuple(map(_checked_point, vectors, labels)), skipped)
