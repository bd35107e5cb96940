import dataclasses

import numpy as np
import pytest

from helpers import random_rotation
from oracles import hulls_intersect
from spectrobe import (
    BuiltPairs,
    LabeledPoint,
    PairTask,
    ProbeResult,
    build_pairs,
    evaluate,
    predict,
    probe,
    run_directprobe,
    separable,
)
from spectrobe.config import quoted


def lp(vector, label):
    return LabeledPoint(np.asarray(vector, dtype=np.float64), label)


def xor_dataset():
    return [
        lp([0.0, 0.0], "a"),
        lp([1.0, 1.0], "a"),
        lp([0.0, 1.0], "b"),
        lp([1.0, 0.0], "b"),
    ]


def cluster_points(result, cluster):
    return np.stack([result.points[i].vector for i in cluster.member_indices])


def assert_probe_invariants(result):
    """Partition, purity, and pairwise cross-label separability."""
    seen = sorted(i for c in result.clusters for i in c.member_indices)
    assert seen == list(range(len(result.points)))
    for cluster in result.clusters:
        labels = {result.points[i].label for i in cluster.member_indices}
        assert labels == {cluster.label}
    for ia, ca in enumerate(result.clusters):
        for cb in result.clusters[ia + 1:]:
            if ca.label != cb.label:
                assert not hulls_intersect(
                    cluster_points(result, ca), cluster_points(result, cb)
                )


class TestSeparable:
    def test_distinct_singletons(self):
        assert separable(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))

    def test_point_inside_triangle(self):
        triangle = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        inside = np.array([[1.0, 1.0]])
        assert not separable(triangle, inside)

    def test_shared_point_is_inseparable(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[1.0, 0.0], [2.0, 5.0]])
        assert not separable(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(3, 3))
            assert separable(a, b) == separable(b, a)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(4, 3)) + rng.choice([0.0, 4.0])
            rot = random_rotation(rng, 3)
            shift = rng.normal(size=3) * 10
            assert separable(a, b) == separable(a @ rot.T + shift, b @ rot.T + shift)

    def test_agrees_with_hull_intersection_oracle(self):
        rng = np.random.default_rng(444)
        disagreements = 0
        for _ in range(500):
            d = int(rng.integers(1, 4))
            a = rng.normal(size=(int(rng.integers(1, 7)), d))
            b = rng.normal(size=(int(rng.integers(1, 7)), d))
            if separable(a, b) != (not hulls_intersect(a, b)):
                disagreements += 1
        assert disagreements == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            separable(np.zeros((1, 2)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            separable(np.zeros((0, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="^set_a has a non-finite value at index 0, 0$"):
            separable(np.array([[np.nan]]), np.ones((1, 1)))

    # the one rule of every real array input, spectral.as_array, at rank 2
    @pytest.mark.parametrize("set_a, set_b, message", [
        (np.ones(2), np.ones((1, 2)), "set_a must be 2-D, got shape (2,)"),
        (np.zeros((0, 2)), np.ones((1, 2)), "set_a must be nonempty with at least 1 values, got 0"),
        (np.zeros((2, 0)), np.ones((1, 2)), "set_a must be nonempty with at least 1 values, got 0"),
        (np.ones((1, 2)), np.array([[0.0, 1.0], [np.nan, 1.0]]),
         "set_b has a non-finite value at index 1, 0"),
    ], ids=["1-D", "no-rows", "no-columns", "non-finite"])
    def test_messages(self, set_a, set_b, message):
        with pytest.raises(ValueError) as caught:
            separable(set_a, set_b)
        assert str(caught.value) == message

    def test_complex_points_are_refused(self):
        # a real cast would drop the imaginary part and only warn
        with pytest.raises(ValueError, match="set_b must be real, got complex values"):
            separable(np.zeros((1, 2)), np.array([[1j, 2.0]]))

    @pytest.mark.parametrize("span", [np.nextafter(2.0 ** -8, 0.0), 3 * 2.0 ** -10, 2.0 ** -40])
    def test_a_row_spanning_less_than_2_to_the_minus_8_is_scaled(self, span):
        # the solver divides that coordinate's row by the power of two f at
        # or above its span; the rows spanning 2 and 2^-8 keep f = 1
        z = np.array([[-1.0, 0.0, 0.25], [1.0, span, 0.25 + 2.0 ** -8]])
        f = probe._row_scales(z)
        assert f[0] == f[2] == 1.0
        assert span <= f[1] <= 2 * span and np.frexp(f[1])[0] == 0.5

    def test_rows_spanning_2_to_the_minus_8_are_not_scaled(self):
        z = np.array([[-1.0, 0.5, 0.0], [1.0, 0.5 + 2.0 ** -8, 2.0 ** -8]])
        assert probe._row_scales(z).tolist() == [1.0, 1.0, 1.0]


class TestRunDirectprobe:
    def test_single_label_collapses_fully(self):
        rng = np.random.default_rng(14)
        dataset = [lp(rng.normal(size=3), "only") for _ in range(10)]
        result = run_directprobe(dataset)
        assert result.converged
        assert len(result.clusters) == 1
        assert len(result.merge_log) == 9
        assert result.clusters[0].member_indices == tuple(range(10))

    def test_xor_needs_three_clusters(self):
        result = run_directprobe(xor_dataset())
        assert result.converged
        assert len(result.clusters) == 3
        assert len(result.merge_log) == 1
        first = result.merge_log[0]
        assert (first.cluster_a, first.cluster_b) == (0, 1)
        assert first.distance == pytest.approx(np.sqrt(2.0))
        assert_probe_invariants(result)

    def test_well_separated_blobs_merge_per_label(self):
        rng = np.random.default_rng(15)
        blobs = {
            "a": [(0.0, 0.0), (0.0, 8.0)],
            "b": [(20.0, 0.0), (20.0, 8.0)],
        }
        dataset = []
        for label, centers in blobs.items():
            for cx, cy in centers:
                for _ in range(15):
                    dataset.append(
                        lp(rng.normal((cx, cy), 0.5), label)
                    )
        result = run_directprobe(dataset)
        assert result.converged
        assert sorted(c.label for c in result.clusters) == ["a", "b"]

    def test_determinism(self):
        rng = np.random.default_rng(16)
        dataset = [
            lp(rng.normal(size=2), rng.choice(["x", "y"])) for _ in range(20)
        ]
        first = run_directprobe(dataset)
        second = run_directprobe(dataset)
        assert first.merge_log == second.merge_log
        assert [c.member_indices for c in first.clusters] == [
            c.member_indices for c in second.clusters
        ]

    def test_random_datasets_keep_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            labels = [f"l{k}" for k in range(int(rng.integers(1, 4)))]
            centers = {label: rng.normal(scale=3.0, size=d) for label in labels}
            dataset = [
                lp(rng.normal(centers[label], 1.0), label)
                for label in rng.choice(labels, size=int(rng.integers(2, 25)))
            ]
            result = run_directprobe(dataset)
            assert result.converged
            assert_probe_invariants(result)

    @pytest.mark.parametrize("exponent", [-60, 0, 60])
    @pytest.mark.parametrize("d", [1, 8, 64, 768])
    def test_vecdot_distance_has_the_bits_of_norm(self, d, exponent):
        """The identity run_directprobe relies on to keep its merge log:
        a row-broadcast sqrt(vecdot(diff, diff)) rounds as np.linalg.norm
        does for each row."""
        x = np.random.default_rng([18, d]).standard_normal((200, d)) * 2.0 ** exponent
        for anchor in range(0, 200, 40):
            diff = x - x[anchor]
            assert np.sqrt(np.vecdot(diff, diff)).tolist() == [
                float(np.linalg.norm(row)) for row in diff], f"anchor {anchor}"

    def test_a_distance_past_the_float64_range_is_inf(self):
        # the points' gap of 3e308 overflows float64; computed on the
        # scaled points it does not, and the log gives it as inf
        result = run_directprobe([lp([-1.5e308], "a"), lp([1.5e308], "a")])
        assert [m.distance for m in result.merge_log] == [np.inf]

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            run_directprobe([])
        with pytest.raises(ValueError, match="not a LabeledPoint"):
            run_directprobe([np.zeros(2)])
        with pytest.raises(ValueError, match="dimension"):
            run_directprobe([lp([0.0], "a"), lp([0.0, 1.0], "a")])
        with pytest.raises(ValueError, match="label must be a nonempty string"):
            lp([0.0], "")


class TestPredictEvaluate:
    def test_training_points_predict_their_own_label(self):
        result = run_directprobe(xor_dataset())
        for point in result.points:
            assert predict(result, point.vector) == point.label

    def test_tie_goes_to_earlier_cluster(self):
        result = run_directprobe([lp([0.0], "a"), lp([2.0], "b")])
        assert predict(result, np.array([1.0])) == "a"

    def test_tie_goes_to_earlier_cluster_not_earlier_point(self):
        # cluster 0 is points {0, 2}; [4] is 1 from point 2 and 1 from point 1
        result = run_directprobe([lp([0.0], "a"), lp([5.0], "b"), lp([3.0], "a")])
        assert [c.member_indices for c in result.clusters] == [(0, 2), (1,)]
        assert predict(result, np.array([4.0])) == "a"
        outcome = evaluate(result, [lp([4.0], "a")])
        assert outcome.per_label == {"a": 1.0}

    def test_a_query_far_past_the_points_scale_ties_them_all(self):
        # scaled by the points' power of two, these queries overflow;
        # unscaled, the distances to both points round to 1e10, a tie,
        # which goes to the earlier cluster either way
        result = run_directprobe([lp([1e-300], "a"), lp([-1e-300], "b")])
        assert predict(result, np.array([1e10])) == "a"
        assert predict(result, np.array([-1e10])) == "a"

    def test_query_validation(self):
        result = run_directprobe([lp([0.0, 0.0], "a")])
        with pytest.raises(ValueError):
            predict(result, np.array([1.0]))
        with pytest.raises(ValueError):
            predict(result, np.array([np.inf, 0.0]))
        empty = ProbeResult(result.points, (), ())
        with pytest.raises(ValueError, match="result has no clusters"):
            predict(empty, np.array([1.0, 0.0]))

    def test_perfect_heldout(self):
        result = run_directprobe(xor_dataset())
        outcome = evaluate(result, xor_dataset())
        assert outcome.per_label == {"a": 1.0, "b": 1.0}
        assert outcome.mean_accuracy == 1.0
        assert outcome.unknown_labels == ()

    def test_swapped_labels_score_zero(self):
        result = run_directprobe([lp([0.0], "a"), lp([10.0], "b")])
        heldout = [lp([0.1], "b"), lp([9.9], "a")]
        outcome = evaluate(result, heldout)
        assert outcome.per_label == {"a": 0.0, "b": 0.0}
        assert outcome.mean_accuracy == 0.0

    def test_unknown_labels_count_as_wrong_and_are_listed(self):
        result = run_directprobe([lp([0.0], "a"), lp([10.0], "b")])
        heldout = [lp([0.1], "a"), lp([20.0], "zz")]
        outcome = evaluate(result, heldout)
        assert outcome.per_label == {"a": 1.0, "zz": 0.0}
        assert outcome.mean_accuracy == 0.5
        assert outcome.unknown_labels == ("zz",)

    def test_mean_is_unweighted_across_labels(self):
        result = run_directprobe([lp([0.0], "a"), lp([10.0], "b")])
        heldout = [lp([0.1], "a")] * 9 + [lp([0.2], "b")]
        outcome = evaluate(result, heldout)
        assert outcome.per_label == {"a": 1.0, "b": 0.0}
        assert outcome.mean_accuracy == 0.5

    def test_every_result_is_converged(self):
        line = [lp([float(i)], "same") for i in range(3)]
        full = run_directprobe(line)
        assert [f.name for f in dataclasses.fields(ProbeResult)] == [
            "points", "clusters", "merge_log"]
        with pytest.raises(TypeError):
            ProbeResult(full.points, full.clusters, full.merge_log, converged=False)
        built = ProbeResult(full.points, full.clusters, full.merge_log)
        assert full.converged is True and built.converged is True
        # a frozen slots dataclass refuses the class constant as an instance
        # attribute: TypeError or AttributeError, by Python version
        with pytest.raises((AttributeError, TypeError)):
            built.converged = False
        assert built.converged is True

    def test_empty_heldout_rejected(self):
        result = run_directprobe([lp([0.0], "a")])
        with pytest.raises(ValueError, match="empty"):
            evaluate(result, [])

    def test_an_item_that_is_not_a_point_is_named(self):
        result = run_directprobe([lp([0.0, 0.0], "a"), lp([1.0, 1.0], "b")])
        with pytest.raises(ValueError) as caught:
            evaluate(result, [lp([0.0, 1.0], "a"), np.ones(2)])
        assert str(caught.value) == "heldout[1] is not a LabeledPoint"


class TestBuildPairs:
    reps = {
        "t1": np.array([1.0, 2.0]),
        "t2": np.array([5.0, 3.0]),
        "t3": np.array([0.0, 1.0]),
    }

    def test_distance_subtracts(self):
        built = build_pairs(self.reps, [("t1", "t2", "3")], PairTask.DISTANCE)
        assert built.skipped == 0
        point = built.points[0]
        np.testing.assert_array_equal(point.vector, [-4.0, -1.0])
        assert point.label == "3"

    def test_distance_skips_far_pairs_and_counts_them(self):
        pairs = [
            ("t1", "t2", "2"),
            ("t1", "t3", "7"),
            ("t2", "t3", "8"),
            ("t1", "t2", "6"),
        ]
        built = build_pairs(self.reps, pairs, PairTask.DISTANCE)
        assert built.skipped == 2
        assert [p.label for p in built.points] == ["2", "6"]

    def test_distance_label_is_canonicalized(self):
        built = build_pairs(self.reps, [("t1", "t2", "03")], PairTask.DISTANCE)
        assert built.points[0].label == "3"

    def test_distance_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="integer"):
            build_pairs(self.reps, [("t1", "t2", "near")], PairTask.DISTANCE)
        with pytest.raises(ValueError, match=">= 2"):
            build_pairs(self.reps, [("t1", "t2", "1")], PairTask.DISTANCE)

    @pytest.mark.parametrize("label", ["1_0", "\u0663", "+3", " 4"])
    def test_distance_labels_are_ascii_decimal_integers(self, label):
        # int() takes each of these: "1_0" as 10, "\u0663" (Arabic-Indic 3) as 3
        with pytest.raises(ValueError, match="is not an integer tree distance"):
            build_pairs(self.reps, [("t1", "t2", label)], PairTask.DISTANCE)

    def test_identical_tokens_give_zero_vector(self):
        built = build_pairs(self.reps, [("t1", "t1", "2")], PairTask.DISTANCE)
        np.testing.assert_array_equal(built.points[0].vector, [0.0, 0.0])

    def test_siblings_concatenates(self):
        built = build_pairs(self.reps, [("t1", "t2", "yes")], PairTask.SIBLINGS)
        np.testing.assert_array_equal(built.points[0].vector, [1.0, 2.0, 5.0, 3.0])
        assert built.points[0].label == "yes"

    def test_siblings_caps_distinct_labels_at_two(self):
        pairs = [("t1", "t2", "yes"), ("t1", "t3", "no"), ("t2", "t3", "maybe")]
        with pytest.raises(ValueError, match="at most 2"):
            build_pairs(self.reps, pairs, PairTask.SIBLINGS)

    def test_dfg_edge_caps_distinct_labels_at_three(self):
        ok = [("t1", "t2", "a"), ("t1", "t3", "b"), ("t2", "t3", "c")]
        built = build_pairs(self.reps, ok, PairTask.DFG_EDGE)
        assert len(built.points) == 3
        with pytest.raises(ValueError, match="at most 3"):
            build_pairs(self.reps, ok + [("t1", "t2", "d")], PairTask.DFG_EDGE)

    def test_unknown_token_id_is_named(self):
        with pytest.raises(ValueError, match="t9"):
            build_pairs(self.reps, [("t1", "t9", "2")], PairTask.DISTANCE)

    def test_representation_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            build_pairs(
                {"a": np.ones(2), "b": np.ones(3)}, [("a", "b", "2")],
                PairTask.DISTANCE,
            )
        with pytest.raises(ValueError, match="non-finite"):
            build_pairs(
                {"a": np.array([np.nan]), "b": np.ones(1)}, [("a", "b", "2")],
                PairTask.DISTANCE,
            )
        with pytest.raises(ValueError, match="nonempty"):
            build_pairs(
                {"a": np.array([]), "b": np.ones(1)}, [("a", "b", "2")],
                PairTask.DISTANCE,
            )

    @pytest.mark.parametrize("task, label", [(PairTask.DISTANCE, "3"),
                                             (PairTask.SIBLINGS, "yes")])
    def test_points_hold_read_only_float64_rows(self, task, label):
        reps = {k: v.astype(np.float32) for k, v in self.reps.items()}
        built = build_pairs(reps, [("t1", "t2", label), ("t2", "t3", label)], task)
        for point in built.points:
            assert point.vector.dtype == np.float64 and point.vector.ndim == 1
            assert not point.vector.flags.writeable
            assert type(point.label) is str and point.label == label
        reps["t1"][:] = 99.0  # the points do not share the caller's memory
        assert 99.0 not in built.points[0].vector

    def test_a_difference_past_the_float64_range_names_its_pair(self):
        reps = {"a": np.array([1.5e308]), "b": np.array([-1.5e308])}
        pairs = [("a", "a", "3"), ("a", "b", "4"), ("a", "t9", "5")]
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError) as caught:
                build_pairs(reps, pairs, PairTask.DISTANCE)
        # named before the unknown id of a later pair: the pairs count in order
        assert str(caught.value) == "pairs[1]: vector has a non-finite value at index 0"

    def test_returns_built_pairs_type(self):
        built = build_pairs(self.reps, [], PairTask.DISTANCE)
        assert isinstance(built, BuiltPairs)
        assert built.points == () and built.skipped == 0


OK_REPS = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 5.0])}
SET_PAIR = {"a", "b", "x"}  # three items in no fixed order: refused, never unpacked


class TestInputMessages:
    """The exact message of each input fault of ``build_pairs`` and
    ``predict``: the first faulty representation, pair or query in input
    order is the one named."""

    @pytest.mark.parametrize("reps, pairs, task, message", [
        (OK_REPS, [("a", "b", "2"), ("a", "t9", "2"), ("a", "b", "x")], PairTask.DISTANCE,
         "pairs[1]: unknown token id 't9'"),
        (OK_REPS, [("a", "b", "near")], PairTask.DISTANCE,
         "pairs[0]: label 'near' is not an integer tree distance"),
        (OK_REPS, [("a", "b", "2"), ("a", "b", "1")], PairTask.DISTANCE,
         "pairs[1]: tree distance must be >= 2, got 1"),
        (OK_REPS, [("a", "b", "9" * 5000)], PairTask.DISTANCE,
         "pairs[0]: label '999999999999999999999999999...9999999999999999999999999999' "
         "is not an integer tree distance"),
        (OK_REPS, [("a", "b", "x"), ("a", "b", "y"), ("b", "a", "z")], PairTask.SIBLINGS,
         "pairs[2]: siblings allows at most 2 distinct labels; got ['x', 'y', 'z']"),
        (OK_REPS, [("a", "b", "w"), ("a", "b", "x"), ("a", "b", "y"), ("a", "b", "z")],
         PairTask.DFG_EDGE,
         "pairs[3]: dfg_edge allows at most 3 distinct labels; got ['w', 'x', 'y', 'z']"),
        (OK_REPS, [("a", "b", "x"), ("a", "b", "")], PairTask.SIBLINGS,
         "pairs[1]: label must be a nonempty string"),
        ({"a": np.ones(2), "b": np.array([1j, 2.0])}, [], PairTask.DISTANCE,
         "representation 'b' must be real, got complex values"),
        ({"a": np.ones(2), "b": np.ones((1, 2))}, [], PairTask.DISTANCE,
         "representation 'b' must be 1-D, got shape (1, 2)"),
        ({"a": np.array([]), "b": np.ones(1)}, [], PairTask.DISTANCE,
         "representation 'a' must be nonempty with at least 1 values, got 0"),
        ({"a": np.ones(2), "b": np.array([0.0, np.nan])}, [], PairTask.DISTANCE,
         "representation 'b' has a non-finite value at index 1"),
        ({"a": np.ones(2), "b": np.ones(3)}, [], PairTask.DISTANCE,
         "representation 'b' has dimension 3, expected 2"),
        ({"a": np.ones(2), "b": np.array([np.inf, 1.0]), "c": np.ones(3),
          "d": np.array([1j, 1])}, [], PairTask.SIBLINGS,
         "representation 'b' has a non-finite value at index 0"),
        (OK_REPS, [("a", "b", "2"), ("a", "b")], PairTask.DISTANCE,
         "pairs[1]: pair must be (id_i, id_j, label), got ('a', 'b')"),
        (OK_REPS, [("a", "b", 2)], PairTask.DISTANCE, "pairs[0]: label must be a nonempty string"),
        (OK_REPS, [("a", "b", "x"), ("a", "b", ["x"])], PairTask.SIBLINGS,
         "pairs[1]: label must be a nonempty string"),
        (OK_REPS, [("a", "b", "x"), ("a", "b", "y"), ("b", "a", 5)], PairTask.SIBLINGS,
         "pairs[2]: label must be a nonempty string"),
        (OK_REPS, [("a", "b", "x"), "abc"], PairTask.SIBLINGS,
         "pairs[1]: pair must be (id_i, id_j, label), got 'abc'"),
        (OK_REPS, [SET_PAIR], PairTask.SIBLINGS,
         f"pairs[0]: pair must be (id_i, id_j, label), got {quoted(SET_PAIR)}"),
        (OK_REPS, [("a", "b", "x"), (["a"], "b", "x")], PairTask.SIBLINGS,
         "pairs[1]: unknown token id ['a']"),
        (OK_REPS, [("a", "b", "2"), ("a", "b", "")], PairTask.DISTANCE,
         "pairs[1]: label must be a nonempty string"),
    ], ids=["unknown-id", "non-digit-distance", "too-small-distance", "too-long-distance",
            "third-label", "fourth-label", "empty-label", "complex", "2-D", "empty",
            "non-finite", "dimensions", "first-of-several", "two-items", "int-distance",
            "list-label", "int-third-label", "str-pair", "set-pair", "list-id",
            "empty-distance-label"])
    def test_build_pairs(self, reps, pairs, task, message):
        with pytest.raises(ValueError) as caught:
            build_pairs(reps, pairs, task)
        assert str(caught.value) == message

    @pytest.mark.parametrize("query, message", [
        (np.ones(3), "query must be a vector of dimension 2"),
        (np.array([np.nan, 0.0]), "query has a non-finite value at index 0"),
        (np.array([1j, 0.0]), "query must be real, got complex values"),
        (np.ones((1, 2)), "query must be 1-D, got shape (1, 2)"),
        (np.array([]), "query must be nonempty with at least 1 values, got 0"),
    ], ids=["wrong-size", "non-finite", "complex", "2-D", "empty"])
    def test_predict(self, query, message):
        result = run_directprobe([lp([0.0, 0.0], "a"), lp([1.0, 1.0], "b")])
        with pytest.raises(ValueError) as caught:
            predict(result, query)
        assert str(caught.value) == message
