"""Tests for greedy forward feature selection."""

import numpy as np
import pytest

from repro.core.feature_sets import FeatureSet
from repro.core.features import Feature
from repro.core.linear import LinearModel
from repro.core.selection import forward_selection, rank_feature_sets


class TestForwardSelection:
    def test_full_trajectory_shape(self, small_dataset):
        steps = forward_selection(
            LinearModel, list(small_dataset), repetitions=3
        )
        assert len(steps) == 8
        # Selected sets grow by exactly one feature per step.
        for i, step in enumerate(steps):
            assert len(step.selected) == i + 1
            assert step.added == step.selected[-1]
        # No feature selected twice.
        assert len(set(steps[-1].selected)) == 8

    def test_first_pick_is_base_ex_time(self, small_dataset):
        """Alone, only baseExTime carries the target's scale — any sane
        search must pick it first."""
        steps = forward_selection(
            LinearModel, list(small_dataset), repetitions=3, max_features=1
        )
        assert steps[0].added is Feature.BASE_EX_TIME

    def test_error_non_increasing_early(self, small_dataset):
        """Adding informative features shouldn't hurt the linear model in
        the first few rounds (greedy keeps the best superset)."""
        steps = forward_selection(
            LinearModel, list(small_dataset), repetitions=5,
            max_features=4, rng=np.random.default_rng(1),
        )
        errors = [s.test_mpe for s in steps]
        assert errors[1] <= errors[0] * 1.05
        assert min(errors) == pytest.approx(errors[-1], rel=0.3)

    def test_max_features_limits_rounds(self, small_dataset):
        steps = forward_selection(
            LinearModel, list(small_dataset), repetitions=2, max_features=3
        )
        assert len(steps) == 3

    def test_restricted_candidates(self, small_dataset):
        cands = (Feature.BASE_EX_TIME, Feature.CO_APP_MEM)
        steps = forward_selection(
            LinearModel, list(small_dataset), candidates=cands, repetitions=2
        )
        assert {s.added for s in steps} == set(cands)

    def test_deterministic_given_rng(self, small_dataset):
        def run():
            return forward_selection(
                LinearModel, list(small_dataset), repetitions=3,
                max_features=4, rng=np.random.default_rng(7),
            )

        s1, s2 = run(), run()
        assert [s.added for s in s1] == [s.added for s in s2]
        assert [s.test_mpe for s in s1] == [s.test_mpe for s in s2]

    def test_validation(self, small_dataset):
        with pytest.raises(ValueError, match="candidate"):
            forward_selection(LinearModel, list(small_dataset), candidates=())
        with pytest.raises(ValueError, match="max_features"):
            forward_selection(
                LinearModel, list(small_dataset), max_features=9
            )
        with pytest.raises(ValueError, match="workers"):
            forward_selection(
                LinearModel, list(small_dataset), workers=0
            )

    def test_one_pool_per_round(self, small_dataset, pools_built):
        forward_selection(
            LinearModel, list(small_dataset), repetitions=2,
            max_features=3, workers=2,
        )
        assert len(pools_built) == 3

    def test_workers_do_not_change_trajectory(self, small_dataset):
        def run(workers):
            return forward_selection(
                LinearModel, list(small_dataset), repetitions=3,
                max_features=3, rng=np.random.default_rng(7),
                workers=workers,
            )

        serial, parallel = run(1), run(2)
        assert [s.added for s in serial] == [s.added for s in parallel]
        assert [s.test_mpe for s in serial] == [s.test_mpe for s in parallel]


class TestRankFeatureSets:
    def test_ranks_every_set_best_first(self, small_dataset):
        ranking = rank_feature_sets(
            LinearModel, list(small_dataset), repetitions=3,
            rng=np.random.default_rng(1),
        )
        assert [fs for fs, _ in ranking] != []
        assert {fs for fs, _ in ranking} == set(FeatureSet)
        scores = [score for _, score in ranking]
        assert scores == sorted(scores)
        assert all(np.isfinite(scores))

    def test_deterministic_given_rng(self, small_dataset):
        def run():
            return rank_feature_sets(
                LinearModel, list(small_dataset), repetitions=3,
                rng=np.random.default_rng(4),
            )

        assert run() == run()

    def test_workers_do_not_change_ranking(self, small_dataset):
        def run(workers):
            return rank_feature_sets(
                LinearModel, list(small_dataset),
                feature_sets=(FeatureSet.A, FeatureSet.C, FeatureSet.F),
                repetitions=3, rng=np.random.default_rng(4),
                workers=workers,
            )

        assert run(1) == run(2)

    def test_one_pool_per_call(self, small_dataset, pools_built):
        rank_feature_sets(
            LinearModel, list(small_dataset), repetitions=2, workers=2
        )
        assert len(pools_built) == 1

    def test_restricted_sets_and_validation(self, small_dataset):
        ranking = rank_feature_sets(
            LinearModel, list(small_dataset),
            feature_sets=(FeatureSet.B, FeatureSet.D), repetitions=2,
        )
        assert {fs for fs, _ in ranking} == {FeatureSet.B, FeatureSet.D}
        with pytest.raises(ValueError, match="feature set"):
            rank_feature_sets(LinearModel, list(small_dataset), feature_sets=())
        with pytest.raises(ValueError, match="workers"):
            rank_feature_sets(LinearModel, list(small_dataset), workers=0)
