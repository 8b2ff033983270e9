"""Repeated random sub-sampling validation (paper, Section IV-B4).

Model accuracy is estimated the paper's way: withhold a random 30% of the
data, train on the remaining 70%, measure MPE and NRMSE on both partitions,
and repeat one hundred times with fresh random splits; report the averages.
(The paper attributes the approach to the bootstrap literature [EfT94].)

The per-partition spread is also reported — the paper notes each model's
partition errors varied by "at most a quarter of a percent", i.e. tight
confidence intervals, and the reproduction's benches check the same.

Both protocols run in two steps.  First the splits and per-repetition
fit streams are drawn into a :class:`FitPlan`; then :func:`score_plans`
fits and scores every (plan, repetition) task.  A caller with many plans
(the 12-model grid, a feature-set ranking, one forward-selection round)
hands them all to one :func:`score_plans` call, so ``workers=N`` starts
one process pool for the whole grid and dispatches its tasks singly,
widest ``X`` first: the costliest fits start early and the cheap ones
fill the tail.  Two rules keep ``workers=N`` bit-identical to
``workers=1``:

* **Stable split stream.**  Every split permutation is drawn up front from
  the caller's ``rng`` in repetition order, exactly as the serial loop
  always has, so the partitions are identical in both modes (and identical
  to historical serial runs).
* **Per-repetition fit streams.**  A model factory that accepts an ``rng``
  keyword receives one SeedSequence-spawned child generator per repetition
  (keyed by repetition index, independent of draw position), so a
  repetition's fit randomness never depends on which process ran it or on
  how many fits preceded it.  Factories without an ``rng`` parameter are
  called with no arguments, as before.

Each plan aggregates a :class:`~repro.core.fitstats.FitStats` record
across its repetitions (merged in repetition order, so every count is
worker-independent; wall time sums per-process fit time).
"""

from __future__ import annotations

import inspect
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..obs.trace import get_tracer
from .fitstats import GLOBAL_FIT_STATS, FitStats
from .metrics import mpe, nrmse

__all__ = [
    "FitPlan",
    "GroupValidationResult",
    "RegressionModel",
    "ValidationResult",
    "leave_one_group_out",
    "repeated_random_subsampling",
    "score_plans",
    "subsampling_plan",
]


class RegressionModel(Protocol):
    """Anything trainable on (X, y) that predicts from X."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionModel": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...


def _accepts_rng(factory: Callable) -> bool:
    """Whether a model factory declares an ``rng`` parameter.

    Factories that do (e.g. ``functools.partial(make_model, kind, fs)``
    from the methodology layer) receive one spawned child generator per
    repetition; plain zero-argument factories are called as before.
    """
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return False
    return "rng" in params


def _spawn_streams(
    rng: np.random.Generator, count: int
) -> list[np.random.Generator]:
    """One child generator per repetition (same scheme as the harness).

    Children derive from the generator's SeedSequence spawn counter, not
    its draw position, so the i-th child is fixed no matter how many
    values (e.g. split permutations) were drawn in between.
    """
    try:
        return list(rng.spawn(count))
    except TypeError:  # bit generator built without a seed sequence
        root = np.random.SeedSequence(int(rng.integers(2**63)))
        return [np.random.default_rng(child) for child in root.spawn(count)]


@dataclass(frozen=True)
class FitPlan:
    """One validation sweep, drawn but not yet run.

    ``splits`` holds one ``(train_idx, test_idx)`` pair per repetition and
    ``fit_rngs`` the matching fit stream (``None`` for factories without
    an ``rng`` parameter).  :func:`score_plans` runs plans.
    """

    make_model: Callable
    X: np.ndarray
    y: np.ndarray
    splits: list
    fit_rngs: list

    @property
    def repetitions(self) -> int:
        """Number of (train, test) splits in the sweep."""
        return len(self.splits)


def _fit_and_score(
    plan: FitPlan, repetition: int, stats: FitStats
) -> tuple[float, float, float, float]:
    """Train one fresh model on a plan's split and score both partitions."""
    X, y = plan.X, plan.y
    train_idx, test_idx = plan.splits[repetition]
    fit_rng = plan.fit_rngs[repetition]
    started = time.perf_counter()
    model = plan.make_model(rng=fit_rng) if fit_rng is not None else plan.make_model()
    model.fit(X[train_idx], y[train_idx])
    elapsed = time.perf_counter() - started
    fit_stats = getattr(model, "fit_stats_", None)
    if isinstance(fit_stats, FitStats):
        stats.merge(fit_stats)
    else:
        # Models without their own record (e.g. the linear model) still
        # count; ``stats`` forwards the fit to the process-wide aggregate.
        # (Neural fits feed the global from inside ``fit`` instead.)
        stats.record_fit(wall_time_s=elapsed)
    pred_train = model.predict(X[train_idx])
    pred_test = model.predict(X[test_idx])
    return (
        mpe(pred_train, y[train_idx]),
        mpe(pred_test, y[test_idx]),
        nrmse(pred_train, y[train_idx]),
        nrmse(pred_test, y[test_idx]),
    )


# Worker-process state: every plan of the call, installed once per worker
# by the pool initializer, so tasks carry only (plan, repetition) indices.
_POOL_PLANS: tuple = ()


def _init_pool(plans: tuple) -> None:
    global _POOL_PLANS
    _POOL_PLANS = plans


def _score_task(task: tuple[int, int]):
    plan, repetition = task
    stats = FitStats()
    return _fit_and_score(_POOL_PLANS[plan], repetition, stats), stats


def _score(plans: list[FitPlan], workers: int) -> list[ValidationResult]:
    """Fit and score every (plan, repetition) task; one pool for all."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tasks = [(p, r) for p, plan in enumerate(plans) for r in range(plan.repetitions)]
    scored: dict = {}
    if workers == 1 or len(tasks) <= 1:
        tracer = get_tracer()
        for p, r in tasks:
            stats = FitStats()
            with tracer.span("validation.repetition", plan=p, repetition=r):
                scored[p, r] = _fit_and_score(plans[p], r, stats), stats
    else:
        widest_first = sorted(tasks, key=lambda task: -plans[task[0]].X.shape[1])
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            initializer=_init_pool,
            initargs=(tuple(plans),),
        ) as pool:
            for task, (row, stats) in zip(
                widest_first, pool.map(_score_task, widest_first)
            ):
                scored[task] = row, stats
                # Worker processes fed their own (discarded) global
                # aggregate; fold the task's counters into this process's.
                GLOBAL_FIT_STATS.merge(stats)
    results = []
    for p, plan in enumerate(plans):
        aggregate = FitStats()
        for r in range(plan.repetitions):
            aggregate.merge(scored[p, r][1])
        scores = np.asarray([scored[p, r][0] for r in range(plan.repetitions)])
        results.append(
            ValidationResult(
                train_mpe=scores[:, 0],
                test_mpe=scores[:, 1],
                train_nrmse=scores[:, 2],
                test_nrmse=scores[:, 3],
                fit_stats=aggregate,
            )
        )
    return results


def score_plans(
    plans: list[FitPlan], workers: int = 1, *, stats: FitStats | None = None
) -> list[ValidationResult]:
    """Run every plan's sweep; one :class:`ValidationResult` per plan.

    ``workers=1`` fits inline, in (plan, repetition) order.  Otherwise
    every (plan, repetition) task goes to one process pool, dispatched
    singly, widest ``X`` first; rows and :class:`FitStats` are put back
    in (plan, repetition) order, so results equal ``workers=1`` bit for
    bit.  ``stats`` (optional, shared) accumulates each plan's aggregate,
    in plan order.
    """
    with get_tracer().span(
        "validation.subsampling",
        plans=len(plans),
        repetitions=sum(plan.repetitions for plan in plans),
        samples=max((plan.X.shape[0] for plan in plans), default=0),
        workers=workers,
    ):
        results = _score(plans, workers)
    if stats is not None:
        for result in results:
            stats.merge(result.fit_stats)
    return results


@dataclass(frozen=True)
class ValidationResult:
    """Per-repetition error arrays plus their summary statistics."""

    train_mpe: np.ndarray
    test_mpe: np.ndarray
    train_nrmse: np.ndarray
    test_nrmse: np.ndarray
    fit_stats: FitStats | None = field(default=None, compare=False)

    @property
    def repetitions(self) -> int:
        """Number of random partitions evaluated."""
        return self.train_mpe.size

    @property
    def mean_train_mpe(self) -> float:
        """Average training MPE across partitions (a Figure 1/2 point)."""
        return float(self.train_mpe.mean())

    @property
    def mean_test_mpe(self) -> float:
        """Average testing MPE across partitions (a Figure 1/2 point)."""
        return float(self.test_mpe.mean())

    @property
    def mean_train_nrmse(self) -> float:
        """Average training NRMSE across partitions (a Figure 3/4 point)."""
        return float(self.train_nrmse.mean())

    @property
    def mean_test_nrmse(self) -> float:
        """Average testing NRMSE across partitions (a Figure 3/4 point)."""
        return float(self.test_nrmse.mean())

    @property
    def test_mpe_std(self) -> float:
        """Partition-to-partition spread of the testing MPE."""
        return float(self.test_mpe.std())


def _as_dataset(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be (n, k) with y of length n")
    return X, y


def subsampling_plan(
    make_model: Callable[[], RegressionModel],
    X: np.ndarray,
    y: np.ndarray,
    *,
    test_fraction: float = 0.3,
    repetitions: int = 100,
    rng: np.random.Generator | None = None,
) -> FitPlan:
    """Draw a repeated-random-sub-sampling sweep's splits and fit streams.

    Arguments as for :func:`repeated_random_subsampling`; ``rng`` is
    consumed exactly as that function consumes it.
    """
    X, y = _as_dataset(X, y)
    n = X.shape[0]
    if n < 4:
        raise ValueError(
            "need at least four samples to split into train/test partitions "
            "of two or more rows each"
        )
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test fraction must be in (0, 1)")
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    if rng is None:
        rng = np.random.default_rng(0)

    # A 1-sample test split always has zero range, which makes NRMSE
    # undefined; keep both partitions at >= 2 rows.
    n_test = min(max(int(round(n * test_fraction)), 2), n - 2)
    # Permutations are drawn up front, in repetition order — the same
    # stream positions the historical serial loop consumed.
    splits = []
    for _ in range(repetitions):
        perm = rng.permutation(n)
        splits.append((perm[n_test:], perm[:n_test]))  # (train, test)
    if _accepts_rng(make_model):
        fit_rngs: list = _spawn_streams(rng, repetitions)
    else:
        fit_rngs = [None] * repetitions
    return FitPlan(make_model, X, y, splits, fit_rngs)


def repeated_random_subsampling(
    make_model: Callable[[], RegressionModel],
    X: np.ndarray,
    y: np.ndarray,
    *,
    test_fraction: float = 0.3,
    repetitions: int = 100,
    rng: np.random.Generator | None = None,
    workers: int = 1,
    stats: FitStats | None = None,
) -> ValidationResult:
    """Estimate a model family's accuracy by repeated random splits.

    Parameters
    ----------
    make_model:
        Factory producing a fresh, unfitted model per repetition.  A
        factory declaring an ``rng`` parameter receives one spawned child
        generator per repetition (see the module docstring); with
        ``workers > 1`` it must also be picklable — a module-level
        function or :func:`functools.partial`, not a lambda.
    X, y:
        The full dataset; each repetition withholds ``test_fraction`` of
        the rows (at least two so NRMSE is defined on the test partition,
        at most all-but-two so the model can fit).
    test_fraction:
        Withheld share; the paper uses 0.3.
    repetitions:
        Number of random partitions; the paper uses 100.
    rng:
        Split randomness (seeded for reproducibility).
    workers:
        Process-pool width; repetitions fan out across workers with
        results bit-identical to ``workers=1``.
    stats:
        Optional shared :class:`FitStats` that additionally accumulates
        the aggregate recorded on the returned result.
    """
    plan = subsampling_plan(
        make_model, X, y, test_fraction=test_fraction, repetitions=repetitions, rng=rng
    )
    return score_plans([plan], workers, stats=stats)[0]


@dataclass(frozen=True)
class GroupValidationResult:
    """Per-group held-out errors from leave-one-group-out validation."""

    group_test_mpe: dict
    group_test_nrmse: dict
    fit_stats: FitStats | None = field(default=None, compare=False)

    @property
    def groups(self) -> list:
        """The held-out groups, in evaluation order."""
        return list(self.group_test_mpe)

    @property
    def mean_test_mpe(self) -> float:
        """Average held-out MPE across groups."""
        return float(np.mean(list(self.group_test_mpe.values())))

    @property
    def worst_group(self):
        """The group hardest to predict when excluded from training."""
        return max(self.group_test_mpe, key=self.group_test_mpe.get)


def leave_one_group_out(
    make_model: Callable[[], RegressionModel],
    X: np.ndarray,
    y: np.ndarray,
    groups: list,
    *,
    workers: int = 1,
    rng: np.random.Generator | None = None,
    stats: FitStats | None = None,
) -> GroupValidationResult:
    """Leave-one-group-out cross-validation.

    For each distinct group label (e.g. the target application's name),
    train on every other group's rows and test on the held-out group.
    This is a strictly harder protocol than the paper's random
    sub-sampling: the model must predict for a *target application it has
    never seen*, from baseline-derived features alone.

    Parameters
    ----------
    make_model:
        Fresh-model factory per fold (picklable when ``workers > 1``; an
        ``rng``-accepting factory gets one spawned stream per fold).
    X, y:
        The full dataset.
    groups:
        One hashable label per row; folds are the distinct labels, in
        first-seen order.
    workers:
        Process-pool width; folds fan out with results identical to
        ``workers=1``.
    rng:
        Root generator for per-fold fit streams (only consulted for
        ``rng``-accepting factories; defaults to a fixed seed).
    stats:
        Optional shared :class:`FitStats` that additionally accumulates
        the aggregate recorded on the returned result.
    """
    X, y = _as_dataset(X, y)
    if len(groups) != y.size:
        raise ValueError("need one group label per row")
    labels = np.asarray(groups)
    distinct: list = []
    for g in groups:
        if g not in distinct:
            distinct.append(g)
    if len(distinct) < 2:
        raise ValueError("leave-one-group-out needs at least two groups")
    for g in distinct:
        members = int((labels == g).sum())
        if members < 2:
            raise ValueError(
                f"group {g!r} has only {members} row; NRMSE is undefined on "
                f"a singleton held-out group — every group needs >= 2 rows"
            )

    indices = np.arange(y.size)
    splits = []
    for g in distinct:
        test_mask = labels == g
        splits.append((indices[~test_mask], indices[test_mask]))
    if _accepts_rng(make_model):
        if rng is None:
            rng = np.random.default_rng(0)
        fit_rngs: list = _spawn_streams(rng, len(distinct))
    else:
        fit_rngs = [None] * len(distinct)

    with get_tracer().span(
        "validation.leave_one_group_out",
        folds=len(distinct),
        samples=int(y.size),
        workers=workers,
    ):
        (result,) = _score([FitPlan(make_model, X, y, splits, fit_rngs)], workers)
    if stats is not None:
        stats.merge(result.fit_stats)
    return GroupValidationResult(
        group_test_mpe=dict(zip(distinct, result.test_mpe.tolist())),
        group_test_nrmse=dict(zip(distinct, result.test_nrmse.tolist())),
        fit_stats=result.fit_stats,
    )
