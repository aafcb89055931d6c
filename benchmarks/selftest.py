"""Fast checks of the benchmark's own machinery (a few seconds).

    python3 benchmarks/selftest.py

Checks the self-time arithmetic on a synthetic span tree, that every
attribute the traced run wraps is restored afterwards (also when the traced
code raises), that a short traced fit reproduces the untraced one bit for
bit, and that BENCHMARK.json names exactly the metrics the code reports.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402  (bench.py sits next to this file)

error = bench.import_package()
if error:
    sys.exit(f"error: {error}")

import numpy as np  # noqa: E402
import tracing  # noqa: E402
from glmmvb import datasets, engine, model, posterior  # noqa: E402


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 100] with children [10, 30] and [40, 70]; grandchild [50, 60]
        start = np.array([0, 10, 40, 50])
        end = np.array([100, 30, 70, 60])
        parent = np.array([-1, 0, 0, 2])
        dur, own = tracing.self_times(start, end, parent)
        self.assertEqual(dur.tolist(), [100, 20, 30, 10])
        self.assertEqual(own.tolist(), [50, 20, 20, 10])
        self.assertEqual(own.sum(), dur[0])

    def test_wrapped_calls_record_the_tree(self):
        # clock reads in call order: step in, stream in/out, affine in, inner in/out,
        # affine out, step out
        tracer = tracing.Tracer(clock=FakeClock([0, 5, 15, 20, 22, 30, 40, 100]))
        inner = tracer.span("reparam.build_transforms", lambda: None)
        affine = tracer.span("engine.affine", lambda: inner())
        stream = tracer.span("engine.stream", lambda: None)
        step = tracer.span("engine.step", lambda: (stream(), affine()))
        step()
        self.assertEqual(tracer.name, ["engine.step", "engine.stream", "engine.affine",
                                       "reparam.build_transforms"])
        self.assertEqual(tracer.parent, [-1, 0, 0, 2])
        self.assertEqual(tracer.run, [0, 0, 0, 0])
        self.assertEqual(tracer.phase, ["step"] * 4)
        a = tracer.arrays()
        _, own = tracing.self_times(a["start"], a["end"], a["parent"])
        self.assertEqual(own.tolist(), [100 - 10 - 20, 10, 20 - 8, 8])
        m = tracing.layer_metrics(tracer)
        self.assertEqual(m["engine.step.us"], 0.1)
        self.assertAlmostEqual(m["engine.step.breakdown_ratio"], 1.0)

    def test_counters_follow_the_phase(self):
        tracer = tracing.Tracer()
        count = tracer.count("linalg.inv", lambda: None)
        step = tracer.span("engine.step", lambda: (count(), count()))
        step()
        count()
        self.assertEqual(tracer.counts[("step", "linalg.inv")], 2)
        self.assertEqual(tracer.counts[("other", "linalg.inv")], 1)

    def test_raising_call_closes_its_span(self):
        tracer = tracing.Tracer(clock=FakeClock([0, 7]))

        def boom():
            raise ValueError("x")
        with self.assertRaises(ValueError):
            tracer.span("reparam.build_transforms", boom)()
        self.assertEqual(tracer.error, {0: "ValueError"})
        self.assertEqual(tracer.end, [7])
        self.assertEqual(tracer._stack, [])


class Installation(unittest.TestCase):
    def originals(self):
        return [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tracing.targets()]

    def assert_restored(self, before):
        for owner, attr, raw in before:
            self.assertIs(vars(owner)[attr], raw, f"{owner.__name__}.{attr} not restored")

    def test_every_wrapper_is_restored(self):
        before = self.originals()
        self.assertGreater(len(before), 30)
        with tracing.installed(tracing.Tracer().wrappers()) as missing:
            self.assertEqual(missing, [])
            self.assertTrue(all(vars(o)[a] is not raw for o, a, raw in before))
        self.assert_restored(before)

    def test_restored_after_an_exception(self):
        before = self.originals()
        with self.assertRaises(RuntimeError):
            with tracing.installed(tracing.Tracer().wrappers()):
                raise RuntimeError("traced code failed")
        self.assert_restored(before)

    def test_missing_target_is_reported(self):
        class Owner:
            present = staticmethod(lambda: 1)
        wrappers = [(Owner, "present", lambda fn: lambda: 2), (Owner, "gone", lambda fn: fn)]
        with tracing.installed(wrappers) as missing:
            self.assertEqual(missing, ["Owner.gone"])
            self.assertEqual(Owner.present(), 2)
        self.assertEqual(Owner.present(), 1)
        self.assertFalse(hasattr(Owner, "gone"))

    def test_traced_fit_is_bit_identical(self):
        data = datasets.seeds_dataset()
        prior = model.default_prior(data)
        cfg = engine.FitConfig(method="a2", seed=3, max_iter=60, window=10,
                               final_elbo_draws=50)
        plain = engine.fit(data, prior, cfg)
        tracer = tracing.Tracer()
        with tracing.installed(tracer.wrappers()):
            traced = engine.fit(data, prior, cfg)
        self.assertEqual(traced.n_iter, plain.n_iter)
        self.assertEqual(traced.elbo, plain.elbo)
        self.assertTrue(np.array_equal(traced.state.mu, plain.state.mu))
        m = tracing.layer_metrics(tracer)
        self.assertEqual(tracer.name.count("engine.step"), plain.n_iter)
        self.assertEqual(m["engine.philox.per_step"], 1.0)
        self.assertGreater(m["reparam.objective.calls_per_build"], 0)


class QuietTime(unittest.TestCase):
    P = tracing.PROBE_NS

    def one_fit(self, slow, outside_ns):
        """A fit of two blocks on a host `slow` times slower than at PROBE_NS:
        the first block at full speed, the second at half speed."""
        n = tracing.BLOCK
        steps = [10 * slow, 30 * slow] * (n // 2) + [20 * slow, 60 * slow] * (n // 2)
        probes = [self.P * slow] * n + [2 * self.P * slow] * n
        in_probes = 2 * sum(probes)  # the warm-up probes took as long
        wall = (sum(steps) + in_probes + outside_ns * 1.5 * slow) * 1e-9
        return [(steps, probes, in_probes)], wall

    def test_every_step_counts_scaled_by_its_probes(self):
        # 20 ns a step at full speed: the mean of the 10/30 ns steps, not the
        # 10 ns floor. The outside time is scaled by the pass's median probe.
        fits, wall = self.one_fit(1, 100)
        fit_s, step_us = tracing.quiet_fit_s([(fits, wall)])
        n = tracing.BLOCK
        self.assertAlmostEqual(step_us / 20e-3, 1.0)
        self.assertAlmostEqual(fit_s / ((2 * n * 20 + 100) * 1e-9), 1.0)

    def test_a_slower_host_reads_the_same(self):
        runs = [self.one_fit(slow, 100) for slow in (1, 3, 2)]
        fit_s, step_us = tracing.quiet_fit_s(runs)
        one_s, one_us = tracing.quiet_fit_s(runs[:1])
        self.assertAlmostEqual(fit_s / one_s, 1.0)
        self.assertAlmostEqual(step_us / one_us, 1.0)

    def test_shards_keep_their_own_step_time(self):
        n = tracing.BLOCK
        fits = [([100] * (2 * n), [self.P] * (2 * n), 2 * n * self.P),
                ([10] * n, [self.P] * n, n * self.P)]
        wall = (210 * n + 3 * n * self.P) * 1e-9
        fit_s, step_us = tracing.quiet_fit_s([(fits, wall)])
        self.assertAlmostEqual(fit_s / (210 * n * 1e-9), 1.0)
        self.assertAlmostEqual(step_us / (210 / 3 * 1e-3), 1.0)

    def test_host_factor(self):
        self.assertGreater(tracing.host_factor(), 0)

    def test_probe_is_not_counted(self):
        tracer = tracing.Tracer()
        with tracing.installed(tracer.wrappers()):
            tracing.probe()
        self.assertEqual(sum(tracer.counts.values()), 0)

    def test_quiet_tracer_restored_and_exact(self):
        data = datasets.seeds_dataset()
        prior = model.default_prior(data)
        cfg = engine.FitConfig(method="a1", seed=2, max_iter=40, window=10,
                               final_elbo_draws=20)
        originals = engine.fit, engine.step, posterior.simulate_b, engine.VariationalState.affine
        plain = engine.fit(data, prior, cfg)
        tracer = tracing.Tracer()
        wrappers = tracer.wrappers(tracing.QUIET)
        self.assertEqual(len(wrappers), len(tracing.QUIET))
        with tracing.installed(wrappers):
            timed = engine.fit(data, prior, cfg)
            posterior.simulate_b(data, prior, timed.state, "a1", 10, 1)
        self.assertEqual((engine.fit, engine.step, posterior.simulate_b,
                          engine.VariationalState.affine), originals)
        self.assertEqual(len(tracer.durations("posterior.simulate_b")), 1)
        self.assertEqual((timed.n_iter, timed.elbo), (plain.n_iter, plain.elbo))
        fits = tracer.fit_steps()
        self.assertEqual(len(fits), 1)
        self.assertEqual(len(fits[0][0]), plain.n_iter)
        self.assertEqual(len(fits[0][1]), plain.n_iter)
        self.assertEqual(len(tracer.durations("probe.warm")), plain.n_iter)
        self.assertGreater(fits[0][2], sum(fits[0][1]))
        # each probe ends before its step starts: the step time excludes it
        probe_end = [e for nm, e in zip(tracer.name, tracer.end) if nm == "probe"]
        step_start = [t for nm, t in zip(tracer.name, tracer.start) if nm == "engine.step"]
        self.assertTrue(all(e <= t for e, t in zip(probe_end, step_start)))


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        from workloads import WORKLOADS
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.PER_LAYER)

    def test_layer_metrics_cover_per_layer_list(self):
        m = tracing.layer_metrics(tracing.Tracer())
        missing = set(tracing.PER_LAYER) - set(m) - {"posterior.accept_ratio",
                                                     "trace.fit_overhead"}
        self.assertEqual(missing, set())


if __name__ == "__main__":
    unittest.main()
