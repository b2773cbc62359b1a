"""End-to-end tests of the short-window pipeline (Theorem 20)."""

from __future__ import annotations

import pytest

from repro.core import Instance, Job, validate_ise
from repro.instances import partition_instance, short_window_instance
from repro.shortwindow import ShortWindowConfig, ShortWindowSolver
from repro.shortwindow import pipeline
from repro.shortwindow.intervals import partition_short_jobs


class TestFeasibility:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("mm", ["best_greedy", "auto"])
    def test_valid_on_generated_instances(self, seed, mm):
        gen = short_window_instance(
            n=20, machines=2, calibration_length=10.0, seed=seed
        )
        result = ShortWindowSolver(ShortWindowConfig(mm_algorithm=mm)).solve(
            gen.instance
        )
        report = validate_ise(gen.instance, result.schedule)
        assert report.ok, report.summary()
        assert result.schedule.scheduled_job_ids() == {
            j.job_id for j in gen.instance.jobs
        }

    def test_lp_rounding_black_box(self):
        gen = short_window_instance(
            n=12, machines=2, calibration_length=10.0, seed=1
        )
        result = ShortWindowSolver(
            ShortWindowConfig(mm_algorithm="lp_rounding")
        ).solve(gen.instance)
        assert validate_ise(gen.instance, result.schedule).ok

    def test_partition_gadget(self):
        gen = partition_instance(5, seed=3)
        result = ShortWindowSolver().solve(gen.instance)
        assert validate_ise(gen.instance, result.schedule).ok

    def test_empty_instance(self, t10):
        inst = Instance(jobs=(), machines=1, calibration_length=t10)
        result = ShortWindowSolver().solve(inst)
        assert result.num_calibrations == 0


class TestTheorem20Accounting:
    @pytest.mark.parametrize("seed", range(5))
    def test_machine_bound(self, seed):
        """Machines <= 3*(max w pass0) + 3*(max w pass1) <= 6 * alpha * w*."""
        gen = short_window_instance(
            n=20, machines=2, calibration_length=10.0, seed=seed
        )
        result = ShortWindowSolver().solve(gen.instance)
        w0, w1 = result.max_mm_machines
        assert result.machines_used <= 3 * w0 + 3 * w1

    @pytest.mark.parametrize("seed", range(5))
    def test_calibration_bound_against_lower_bound(self, seed):
        """Unpruned calibrations <= 16*gamma*alpha*LB with alpha measured
        per interval; check the loosest sound form: unpruned <=
        8*gamma*(sum of all interval w) and ratio vs Lemma 18 LB finite."""
        gen = short_window_instance(
            n=20, machines=2, calibration_length=10.0, seed=seed
        )
        result = ShortWindowSolver().solve(gen.instance)
        gamma = result.gamma
        total_w = sum(r.mm_machines for r in result.intervals)
        assert result.unpruned_calibrations <= 4 * gamma * total_w + 1e-9
        lb = result.calibration_lower_bound
        assert lb > 0
        # Measured alpha per interval: w_i / w_i^LB.
        alpha = max(r.mm_machines / r.mm_lower_bound for r in result.intervals)
        assert result.unpruned_calibrations <= 16 * gamma * alpha * lb + 1e-6

    def test_interval_reports_consistent(self):
        gen = short_window_instance(
            n=15, machines=2, calibration_length=10.0, seed=2
        )
        result = ShortWindowSolver().solve(gen.instance)
        assert sum(r.num_jobs for r in result.intervals) == gen.instance.n
        for report in result.intervals:
            assert report.mm_lower_bound <= report.mm_machines
            assert report.crossing_jobs <= report.num_jobs


class TestPruning:
    def test_pruned_at_most_unpruned(self):
        gen = short_window_instance(
            n=15, machines=2, calibration_length=10.0, seed=4
        )
        result = ShortWindowSolver().solve(gen.instance)
        assert result.num_calibrations <= result.unpruned_calibrations

    def test_no_prune_config(self):
        gen = short_window_instance(
            n=10, machines=1, calibration_length=10.0, seed=5
        )
        result = ShortWindowSolver(
            ShortWindowConfig(prune_empty=False)
        ).solve(gen.instance)
        assert result.num_calibrations == result.unpruned_calibrations


class TestSpeed:
    def test_speed_augmented_mm(self):
        """With a 2-speed MM black box, rigid simultaneous jobs pack onto
        fewer machines; the lifted schedule validates at that speed."""
        T = 10.0
        jobs = tuple(Job(i, 0.0, 10.0, 8.0) for i in range(4))
        inst = Instance(jobs=jobs, machines=4, calibration_length=T)
        fast = ShortWindowSolver(
            ShortWindowConfig(speed=2.0, mm_algorithm="best_greedy")
        ).solve(inst)
        slow = ShortWindowSolver().solve(inst)
        assert fast.schedule.speed == pytest.approx(2.0)
        assert validate_ise(inst, fast.schedule).ok
        assert fast.machines_used <= slow.machines_used


class TestBucketMMCalls:
    def test_solve_bucket_mm_called_once_per_bucket_in_order(self, monkeypatch):
        """Each bucket's MM solve goes through the module-level
        ``_solve_bucket_mm``, once, in bucket order: a tracer that wraps
        that name sees every per-interval MM solve."""
        instance = short_window_instance(60, 2, 10.0, seed=4).instance
        seen: list[tuple[int, ...]] = []
        real = pipeline._solve_bucket_mm

        def spy(jobs, *args):
            seen.append(tuple(job.job_id for job in jobs))
            return real(jobs, *args)

        monkeypatch.setattr(pipeline, "_solve_bucket_mm", spy)
        result = ShortWindowSolver().solve(instance)
        buckets = partition_short_jobs(instance.jobs, 10.0, gamma=2.0).buckets
        assert len(buckets) > 1
        assert seen == [tuple(job.job_id for job in b.jobs) for b in buckets]
        assert [(r.start, r.num_jobs) for r in result.intervals] == [
            (b.start, len(b.jobs)) for b in buckets
        ]
