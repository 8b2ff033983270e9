"""Tests for the fit-statistics observability counters."""

import pytest

from repro.core.fitstats import GLOBAL_FIT_STATS, FitStats


class TestRecording:
    def test_starts_at_zero(self):
        stats = FitStats()
        assert stats.fits == 0
        assert stats.restarts == 0
        assert stats.scg_iterations == 0
        assert stats.wall_time_s == 0.0

    def test_record_fit_accumulates(self):
        stats = FitStats()
        stats.record_fit(restarts=2, scg_iterations=100, gradient_evals=180,
                         function_evals=180, wall_time_s=0.5)
        stats.record_fit(restarts=2, scg_iterations=50, gradient_evals=90,
                         function_evals=90, wall_time_s=0.25)
        assert stats.fits == 2
        assert stats.restarts == 4
        assert stats.scg_iterations == 150
        assert stats.gradient_evals == 270
        assert stats.wall_time_s == 0.75

    def test_record_fit_defaults_count_one_fit(self):
        stats = FitStats()
        stats.record_fit()
        assert stats.fits == 1
        assert stats.restarts == 1
        assert stats.scg_iterations == 0

    def test_merge(self):
        a, b = FitStats(), FitStats()
        a.record_fit(restarts=3, scg_iterations=30)
        b.record_fit(restarts=1, scg_iterations=10, wall_time_s=1.0)
        a.merge(b)
        assert a.fits == 2
        assert a.restarts == 4
        assert a.scg_iterations == 40
        assert a.wall_time_s == 1.0
        assert b.fits == 1  # merge does not mutate the source

    def test_reset(self):
        stats = FitStats()
        stats.record_fit(restarts=5, scg_iterations=500, wall_time_s=2.0)
        stats.reset()
        assert stats == FitStats()


class TestDerived:
    def test_rates_idle_are_zero(self):
        stats = FitStats()
        assert stats.iterations_per_fit == 0.0
        assert stats.fits_per_second == 0.0

    def test_rates(self):
        stats = FitStats()
        stats.record_fit(scg_iterations=300, wall_time_s=0.5)
        stats.record_fit(scg_iterations=100, wall_time_s=0.5)
        assert stats.iterations_per_fit == 200.0
        assert stats.fits_per_second == 2.0

    def test_summary_mentions_counts(self):
        stats = FitStats()
        stats.record_fit(restarts=2, scg_iterations=120, gradient_evals=200,
                         wall_time_s=0.5)
        text = stats.summary()
        assert "1 fits" in text
        assert "2 restarts" in text
        assert "120 SCG iterations" in text
        assert "fits/s" in text

    def test_summary_idle_omits_wall_time_line(self):
        assert "wall time" not in FitStats().summary()


class TestGlobalForwarding:
    """A fit is recorded once and lands in the process-wide aggregate."""

    @staticmethod
    def _fits() -> tuple:
        from repro.core.fitstats import GLOBAL_FIT_STATS

        g = GLOBAL_FIT_STATS
        return (g.fits, g.restarts, g.scg_iterations, g.gradient_evals)

    def test_record_forwards_merge_does_not(self):
        before = self._fits()
        stats = FitStats()
        stats.record_fit(restarts=3, scg_iterations=40, gradient_evals=41)
        after = self._fits()
        assert tuple(a - b for a, b in zip(after, before)) == (1, 3, 40, 41)
        FitStats().merge(stats)
        assert self._fits() == after
        GLOBAL_FIT_STATS.record_fit()  # the aggregate counts itself once
        assert self._fits()[0] == after[0] + 1

    def test_linear_ensemble_members_count_once(self, small_dataset):
        from repro.core.ensemble import EnsemblePredictor
        from repro.core.feature_sets import FeatureSet
        from repro.core.methodology import ModelKind

        before = self._fits()
        ens = EnsemblePredictor(
            ModelKind.LINEAR, FeatureSet.F, n_members=3, seed=1
        )
        ens.fit(list(small_dataset))
        assert ens.fit_stats_.fits == 3
        assert self._fits()[0] - before[0] == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_validation_counts_each_fit_once(self, small_dataset, workers):
        from repro.core.feature_sets import FeatureSet
        from repro.core.methodology import ModelKind, evaluate_models

        before = self._fits()
        stats = FitStats()
        evaluate_models(
            list(small_dataset),
            kinds=(ModelKind.LINEAR, ModelKind.NEURAL),
            feature_sets=(FeatureSet.B,),
            repetitions=2,
            workers=workers,
            stats=stats,
        )
        delta = tuple(a - b for a, b in zip(self._fits(), before))
        assert delta == (
            stats.fits, stats.restarts, stats.scg_iterations,
            stats.gradient_evals,
        )
        assert stats.fits == 4
