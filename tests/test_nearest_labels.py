"""Nearest-cluster scoring against one exact ``norm`` row per query.

``_nearest_labels`` filters each block of queries by one matrix product
and takes the exact distance only for the points within its rounding
bound of the least estimate. The product's bits follow the BLAS kernel
and the CPU, so these sets aim at its edges: exact ties between
duplicate points in different clusters, ties one ulp apart, widths from
1 to 64, more queries than one block, and queries of scale 1e-300 or
1e300 against points of unit scale. Labels must equal the oracle's.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import nearest_labels
from spectrobe import LabeledPoint, ProbeResult, evaluate, predict
from spectrobe.probe import Cluster, _nearest_labels


def clustered(x, cluster_of):
    """A hand-built result whose cluster j holds the points with cluster_of
    j and is labeled ``c<j>``, so a label names its cluster."""
    points = tuple(LabeledPoint(v, f"c{j}") for v, j in zip(x, cluster_of))
    clusters = tuple(Cluster(tuple(np.flatnonzero(cluster_of == j).tolist()), f"c{j}")
                     for j in np.unique(cluster_of))
    return ProbeResult(points, clusters, ())


@st.composite
def scoring_sets(draw):
    """(result, queries): normal points with duplicates in other clusters,
    pairs mirrored about a query with one coordinate one ulp off, and
    queries at the points, their midpoints, the mirrors' centers, random
    places, and any of those times 1e-300 or 1e300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 64))
    n = draw(st.integers(1, 30))
    x = rng.normal(size=(n, d))
    copies = rng.integers(0, n, size=draw(st.integers(0, n // 2)))
    x[rng.integers(0, n, size=copies.size)] = x[copies]
    centers = rng.normal(size=(draw(st.integers(0, 4)), d))
    mirrors = []
    for c in centers:
        v = rng.normal(size=d)
        far = c + v
        k = rng.integers(d)
        far[k] = np.nextafter(far[k], np.copysign(np.inf, v[k]))  # one ulp farther
        mirrors += [c - v, far]
    x = np.vstack([x, *mirrors])
    cluster_of = rng.integers(0, draw(st.integers(1, 5)), size=len(x))
    i, j = rng.integers(0, len(x), size=(2, draw(st.integers(0, 40))))
    queries = np.concatenate([x[rng.integers(0, len(x), size=draw(st.integers(0, 40)))],
                              (x[i] + x[j]) / 2, centers,
                              rng.normal(size=(draw(st.integers(1, 90)), d))])
    scales = rng.choice([1.0, 1e-300, 1e300], size=len(queries), p=[0.8, 0.1, 0.1])
    queries = queries * scales[:, None]
    return clustered(x, cluster_of), list(queries[rng.permutation(len(queries))])


@settings(max_examples=80)
@given(scoring_sets())
def test_labels_equal_one_exact_row_per_query(data):
    result, queries = data
    assert _nearest_labels(result, queries) == nearest_labels(result, queries)


def test_a_duplicate_in_a_later_cluster_loses_the_tie():
    x = np.array([[0.0, 1.0], [3.0, 4.0], [0.0, 1.0]])
    result = clustered(x, np.array([1, 2, 0]))
    assert [c.member_indices for c in result.clusters] == [(2,), (0,), (1,)]
    assert predict(result, np.array([0.0, 1.0])) == "c0"
    assert predict(result, np.array([-5.0, 1.0])) == "c0"


@pytest.mark.parametrize("first, second, nearest", [
    (-1.0, np.nextafter(1.0, 2.0), "c0"), (-np.nextafter(1.0, 2.0), 1.0, "c1")])
def test_a_point_one_ulp_farther_loses(first, second, nearest):
    result = clustered(np.array([[first, 0.5], [second, 0.5]]), np.array([0, 1]))
    queries = [np.array([0.0, 0.5])] * 70  # more than one block
    assert _nearest_labels(result, queries) == nearest_labels(result, queries) == [nearest] * 70


# each public function checks its queries where they enter: a held-out
# point's vector was checked, finite, when the point was built, so
# evaluate meets only a width fault, and predict meets as_vector's first
@pytest.mark.parametrize("score, message", [
    (lambda result: evaluate(result, [LabeledPoint(np.ones(n), "c0") for n in (2, 3, 4)]),
     "query must be a vector of dimension 2"),
    (lambda result: predict(result, [1j, 0.0]), "query must be real, got complex values"),
], ids=["size-first", "complex"])
def test_the_first_faulty_query_is_named(score, message):
    result = clustered(np.eye(2), np.array([0, 1]))
    with pytest.raises(ValueError) as caught:
        score(result)
    assert str(caught.value) == message
