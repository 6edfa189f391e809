"""Arithmetic behind the reported numbers: percentiles, self time, failure counting."""

import types

import pytest

import run
import spans
import stats
import workloads as wl


class TestPercentile:
    def test_p90_of_100_samples_leaves_ten_above(self):
        samples = list(range(100, 0, -1))
        assert stats.percentile(samples, 0.9) == 90
        assert sum(1 for s in samples if s > 90) == stats.TAIL_SAMPLES

    def test_too_few_samples_beyond_the_point(self):
        with pytest.raises(ValueError, match="at least 10"):
            stats.percentile(range(99), 0.9)

    def test_median_needs_ten_above_too(self):
        assert stats.percentile(range(20), 0.5) == 9
        with pytest.raises(ValueError):
            stats.percentile(range(19), 0.5)

    @pytest.mark.parametrize("q", [0, 1, 1.5])
    def test_quantile_out_of_range(self, q):
        with pytest.raises(ValueError, match="strictly between"):
            stats.percentile(range(1000), q)


class TestSelfTime:
    SPANS = [
        ("loop", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 6.0, 0),
        ("loop", 20.0, 22.0, -1),
        ("b", 20.5, 21.0, 4),
    ]

    def test_children_are_subtracted_once(self):
        got = spans.self_times(self.SPANS)
        assert got == {"loop": 6.0 + 1.5, "a": 2.0 + 1.0, "b": 1.0 + 0.5}

    def test_self_times_add_up_to_the_roots(self):
        assert sum(spans.self_times(self.SPANS).values()) == spans.root_time(self.SPANS) == 12.0

    def test_tracer_records_nesting_and_skips_recursion(self):
        mod = types.ModuleType("fake")
        exec(
            "def depth(n):\n"
            "    return 0 if n == 0 else 1 + depth(n - 1)\n"
            "def outer(n):\n"
            "    return depth(n) + depth(n)\n",
            mod.__dict__,
        )
        alias = types.ModuleType("alias")
        alias.depth = mod.depth
        original = mod.depth
        tracer = spans.Tracer()
        tracer.install([mod, alias], {"depth": [(mod, "depth")], "outer": [(mod, "outer")]})
        try:
            assert alias.depth is mod.depth is not original
            with tracer.span("loop"):
                assert mod.outer(50) == 100
                assert alias.depth(3) == 3
        finally:
            tracer.uninstall()
        assert mod.depth is alias.depth is original
        names = [(name, parent) for name, _, _, parent in tracer.spans]
        assert names == [("loop", -1), ("outer", 0), ("depth", 1), ("depth", 1), ("depth", 0)]
        times = spans.self_times(tracer.spans)
        assert sum(times.values()) == pytest.approx(spans.root_time(tracer.spans))

    def test_spans_are_not_recorded_unless_installed(self):
        tracer = spans.Tracer()
        with tracer.span("loop"):
            pass
        assert tracer.spans == []


class TestFailureCounting:
    def test_error_rate(self):
        assert stats.error_rate(120, 3) == 0.025
        with pytest.raises(ValueError):
            stats.error_rate(0, 0)
        with pytest.raises(ValueError):
            stats.error_rate(5, 6)

    def test_failed_operations_count_against_attempted(self):
        def boom():
            raise RuntimeError("unexpected")

        def check_raises(out):
            raise KeyError("check cannot finish")

        ok = lambda out: wl._crashed(out) or wl.Outcome(work={"tree.nodes": 1})
        ops = [
            wl.Op("fine", (), lambda: 1, ok),
            wl.Op("raises", (), boom, ok),
            wl.Op("wrong", (), lambda: 2, lambda out: wl.Outcome(problem="wrong output")),
            wl.Op("unchecked", (), lambda: 3, check_raises),
            wl.Op("fine", (), lambda: 4, ok),
        ]
        result = run.Run(wl.Plan(ops))
        result.measure()
        assert (result.attempted, result.failed) == (5, 3)
        assert result.ops_per_s() == 2 / result.wall
        result.measure()
        assert (result.attempted, result.failed) == (10, 6)
        assert stats.error_rate(result.attempted, result.failed) == 0.6

    def test_work_that_changes_between_passes_is_a_failure(self):
        calls = []

        def grows():
            calls.append(1)
            return len(calls)

        def check(out):
            return wl.Outcome(work={"tree.nodes": out})

        result = run.Run(wl.Plan([wl.Op("grows", (), grows, check)] * 100))
        result.measure()
        assert result.failed == 0
        result.measure()
        assert result.failed == 100
        assert "differ from the first pass" in result.problems[-1]


class TestRoundTrips:
    def queue(self, plan, encode, decode, message=(1, 2, 3)):
        outcome = wl.Outcome()
        plan.roundtrips.append((outcome, encode, decode, list(message)))
        return outcome

    def test_a_message_that_does_not_come_back_fails_its_operation(self):
        plan = wl.Plan([])
        good = self.queue(plan, lambda: "abc", lambda s: [1, 2, 3])
        bad = self.queue(plan, lambda: "abc", lambda s: [1, 2])
        wl.run_roundtrips(plan)
        assert good.problem is None and "did not come back" in bad.problem
        assert [(d, n) for _, _, d, n in plan.clock.calls] == [("encode", 6), ("decode", 6)]
        assert plan.roundtrips == []

    def test_a_codec_error_fails_every_queued_round_trip(self):
        def broken(streams):
            raise ValueError("bad stream")

        plan = wl.Plan([])
        outcomes = [self.queue(plan, lambda: "abc", broken) for _ in range(3)]
        wl.run_roundtrips(plan)
        assert all("bad stream" in o.problem for o in outcomes)


class TestHostSpeed:
    def speed(self, durations):
        speed = stats.HostSpeed()
        speed.times = [float(t) for t in range(len(durations))]
        speed.durations = [d * stats.REFERENCE_S for d in durations]
        return speed

    def test_local_slowdown_is_the_median_of_the_nearest_samples(self):
        speed = self.speed([1.0] * 20 + [2.0] * 20 + [9.0])
        assert speed.slowdown_at(5.0) == 1.0
        assert speed.slowdown_at(30.0) == 2.0
        assert speed.slowdown_at(100.0) == 2.0  # one outlier does not move the median
        assert speed.scaled(30.0, 4.0) == 2.0
        assert speed.slowdown == pytest.approx((20 + 40 + 9) / 41)

    def test_fewer_samples_than_the_window(self):
        assert self.speed([1.0, 3.0]).slowdown_at(0.0) == 2.0

    def test_reference_time_is_left_out_of_the_pass(self):
        speed = stats.HostSpeed()
        ops = [wl.Op("noop", (), lambda: None, lambda out: wl.Outcome())] * 20
        _, starts, latencies, wall = run.run_pass(ops, speed)
        assert len(speed.durations) == len(starts) == 20
        assert sum(latencies) <= wall < sum(speed.durations)
