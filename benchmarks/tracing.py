"""Outside-in tracing of glmmvb for the benchmark's traced run.

Timing wrappers replace module and class attributes that the package looks
up at call time (``reparam.build_transforms``, ``engine.estimator``,
``VariationalState.affine``, ...), so no package file changes. Untraced
runs install only the wrappers in ``QUIET``. ``installed()`` restores every
replaced attribute on exit, also when the traced code raises.

Other tenants of a shared host slow it by about 2x for seconds at a time.
So each fit step is preceded by ``probe()``, a fixed task of the same kind,
and step times are scaled by ``PROBE_NS`` over the probe times next to them
(``quiet_fit_s``, ``host_factor``).

Spans (name, start, end, parent, run id, phase) are appended to in-memory
lists and written out once at the end; counters are keyed by the phase
(``fit``, ``step``, ``elbo``, ``sim``) of the innermost phase span open at
the call, which makes per-step counts exact.
"""

import collections
import contextlib
import functools
import time

import numpy as np

# Spans that open a phase; everything they call is attributed to it.
PHASES = {"engine.fit": "fit", "engine.step": "step",
          "engine.elbo_estimate": "elbo", "posterior.simulate_b": "sim"}

# Layers whose spans nest under engine.step; their per-step self times
# partition the step.
STEP_LAYERS = ("engine.step", "engine.stream", "engine.affine",
               "gradients.value_and_grad", "reparam.build_transforms",
               "gradients.grad_full", "model.log_joint_reparam",
               "engine.estimator", "engine.ascent_step")

# Per-layer metric -> unit, in report order. The last two are added by the
# caller, which holds the simulation outcome and the untraced fit.
# layer_metrics also returns engine.step.breakdown_ratio, which the caller
# checks and reports beside them.
PER_LAYER = {
    "engine.step.us": "us", "engine.step.self_us": "us", "engine.stream.us": "us",
    "engine.affine.us": "us", "engine.estimator.us": "us", "engine.ascent_step.us": "us",
    "engine.retries": "count",
    "engine.elbo_estimate.s": "s", "engine.philox.per_step": "count",
    "engine.c_materialize.per_step": "count",
    "gradients.value_and_grad.us": "us", "gradients.grad_full.self_us": "us",
    "model.log_joint_reparam.us": "us", "model.w_matrix.per_step": "count",
    "model.omega_matrix.per_step": "count", "matcalc.dweight.per_step": "count",
    "families.evals.per_step": "count", "linalg.inv.per_step": "count",
    "linalg.solve.per_step": "count", "linalg.cholesky.per_step": "count",
    "reparam.build_transforms.fit.self_us": "us",
    "reparam.build_transforms.sim.self_us": "us",
    "reparam.build_transforms.batch": "count", "reparam.objective.calls_per_build": "count",
    "reparam.failures.ModeSearchFailedError": "count",
    "reparam.failures.NotPositiveDefiniteError": "count",
    "reparam.failures.OverflowGuardError": "count", "reparam.failures.other": "count",
    "posterior.simulate_b.s": "s", "posterior.draw_transforms.ms": "ms",
    "posterior.slow_path_chunks": "count",
    "recombine.partition.us": "us", "recombine.combine.us": "us",
    "recombine.shard_fit.s": "s", "recombine.shard_iters": "count",
    "recombine.shard_imbalance": "ratio",
    "model.default_prior.ms": "ms", "fileio.load_csv.ms": "ms", "fileio.write.ms": "ms",
    "simulate.simulate_dataset.ms": "ms", "datasets.epilepsy_dataset.ms": "ms",
    "posterior.accept_ratio": "ratio", "trace.fit_overhead": "ratio",
}

# The only wrappers of an untraced run: enough to time fits, steps, the probe
# before each step, and simulations.
QUIET = ("engine.fit", "engine.step", "probe", "posterior.simulate_b")

WRITERS = ("write_summary", "write_trace", "write_state", "write_subject_diagnostics")
FAILURE_TYPES = ("ModeSearchFailedError", "NotPositiveDefiniteError", "OverflowGuardError")


class Tracer:
    """In-memory span and counter store."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.name, self.start, self.end = [], [], []
        self.parent, self.run, self.phase = [], [], []
        self.note = {}    # span index -> number recorded at entry (batch size)
        self.error = {}   # span index -> type name of the exception it raised
        self.counts = collections.Counter()  # (phase, name) -> calls
        self._stack = []
        self._phase = "other"
        self._runs = 0

    def span(self, name, fn, note=None):
        """Wrap fn so that each call records a span named `name`."""
        phase = PHASES.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            idx = len(self.name)
            if stack:
                parent = stack[-1]
                run = self.run[parent]
            else:
                parent = -1
                run = self._runs
                self._runs += 1
            outer = self._phase
            if phase is not None:
                self._phase = phase
            self.name.append(name)
            self.parent.append(parent)
            self.run.append(run)
            self.phase.append(self._phase)
            self.end.append(0)
            if note is not None:
                self.note[idx] = note(*args, **kwargs)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                self.error[idx] = type(err).__name__
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                self._phase = outer
        return wrapper

    def count(self, name, fn):
        """Wrap fn so that each call increments counts[(phase, name)]."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self._phase, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def arrays(self):
        """Spans as numpy arrays plus the name and phase tables."""
        names = sorted(set(self.name))
        phases = sorted(set(self.phase))
        name_id = {nm: k for k, nm in enumerate(names)}
        phase_id = {ph: k for k, ph in enumerate(phases)}
        return {
            "names": np.array(names), "phases": np.array(phases),
            "name": np.array([name_id[nm] for nm in self.name], dtype=np.int32),
            "phase": np.array([phase_id[ph] for ph in self.phase], dtype=np.int32),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "run": np.array(self.run, dtype=np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())

    def wrappers(self, names=None):
        """(owner, attribute, make wrapper) for installed(); every target, or
        only those whose span or counter name is in `names`."""
        out = []
        for owner, attr, kind, name, note in targets():
            if names is not None and name not in names:
                continue
            if kind == "span":
                make = functools.partial(self._span_of, name, note)
            elif kind == "probe":
                make = self._probe_before
            else:
                make = functools.partial(self.count, name)
            out.append((owner, attr, make))
        return out

    def _span_of(self, name, note, fn):
        return self.span(name, fn, note)

    def _probe_before(self, fn):
        """Wrap fn so that two probe() calls run before each call. The first,
        "probe.warm", refills the caches, so that the second, "probe",
        measures the host and not the cache footprint of the call before."""
        warm = self.span("probe.warm", probe)
        timed = self.span("probe", probe)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            warm()
            timed()
            return fn(*args, **kwargs)
        return wrapper

    def durations(self, name):
        """Duration in ns of every span named `name`, in call order."""
        return [e - s for nm, s, e in zip(self.name, self.start, self.end) if nm == name]

    def fit_steps(self):
        """(step ns, probe ns, ns spent in probes) per engine.fit span, in
        call order; the last also counts the warm-up probes."""
        kinds = ("engine.step", "probe", "probe.warm")
        fits = {}
        for i, nm in enumerate(self.name):
            if nm == "engine.fit":
                fits[i] = ([], [], [])
            elif nm in kinds and self.parent[i] in fits:
                fits[self.parent[i]][kinds.index(nm)].append(self.end[i] - self.start[i])
        return [(steps, probes, sum(probes) + sum(warm)) for steps, probes, warm in fits.values()]


def _batch(data, gp, *args, **kwargs):
    """Number of theta_G draws a build_transforms call handles at once."""
    return int(np.prod(np.shape(gp.beta)[:-1], dtype=np.int64))


def targets():
    """(owner, attribute, kind, span or counter name, note) for every wrapper.

    Owners are imported here, after the caller has put the package on
    sys.path. Private attributes may disappear in a refactor; installed()
    reports a missing one, and the traced run counts it as a failed check.
    """
    from glmmvb import (datasets, engine, families, fileio, gradients, matcalc,
                        model, posterior, recombine, reparam, simulate)
    out = [
        (engine, "fit", "span", "engine.fit", None),
        (engine, "step", "span", "engine.step", None),
        # after the engine.step span, so that it wraps the span and the probe
        # runs outside the timed step
        (engine, "step", "probe", "probe", None),
        (engine, "stream", "span", "engine.stream", None),
        (engine.VariationalState, "affine", "span", "engine.affine", None),
        (engine, "estimator", "span", "engine.estimator", None),
        (engine.AdamState, "ascent_step", "span", "engine.ascent_step", None),
        (engine, "elbo_estimate", "span", "engine.elbo_estimate", None),
        (gradients, "value_and_grad", "span", "gradients.value_and_grad", None),
        (gradients, "grad_full", "span", "gradients.grad_full", None),
        (model, "log_joint_reparam", "span", "model.log_joint_reparam", None),
        (model, "default_prior", "span", "model.default_prior", None),
        (reparam, "build_transforms", "span", "reparam.build_transforms", _batch),
        (posterior, "simulate_b", "span", "posterior.simulate_b", None),
        (posterior, "_draw_transforms", "span", "posterior.draw_transforms", None),
        (recombine, "fit_sharded", "span", "recombine.fit_sharded", None),
        (recombine, "partition", "span", "recombine.partition", None),
        (recombine, "combine", "span", "recombine.combine", None),
        (fileio, "load_csv", "span", "fileio.load_csv", None),
        (simulate, "simulate_dataset", "span", "simulate.simulate_dataset", None),
        (datasets, "epilepsy_dataset", "span", "datasets.epilepsy_dataset", None),
        (engine.VariationalState, "_materialize", "count", "engine.c_materialize", None),
        (model.GlobalParams, "w_matrix", "count", "model.w_matrix", None),
        (model.GlobalParams, "omega_matrix", "count", "model.omega_matrix", None),
        (matcalc, "dweight", "count", "matcalc.dweight", None),
        (reparam, "_conditional_objective", "count", "reparam.objective", None),
        (np.linalg, "inv", "count", "linalg.inv", None),
        (np.linalg, "solve", "count", "linalg.solve", None),
        (np.linalg, "cholesky", "count", "linalg.cholesky", None),
        (np.random, "Philox", "count", "engine.philox", None),
    ]
    out += [(fileio, w, "span", "fileio.write", None) for w in WRITERS]
    for cls in vars(families).values():
        if isinstance(cls, type) and issubclass(cls, families.Family):
            out += [(cls, m, "count", "families.evals", None)
                    for m in ("loglik", "h1", "h2", "h3") if m in vars(cls)]
    return out


@contextlib.contextmanager
def installed(wrappers):
    """Replace each (owner, attribute) by make(original) for the duration of
    the block, then put every original back, also when the block raises.

    Yields the list of "owner.attribute" names the owners do not have; those
    are left alone, so a figure that depends on one would read 0.
    """
    saved, missing = [], []
    try:
        for owner, attr, make in wrappers:
            if attr not in vars(owner):
                missing.append(f"{owner.__name__}.{attr}")
                continue
            raw = vars(owner)[attr]
            static = isinstance(raw, staticmethod)
            wrapped = make(raw.__func__ if static else raw)
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            saved.append((owner, attr, raw))
        yield missing
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# probe() time that measured times are scaled to: about its time on the
# quiet 2-core x86_64 VM the benchmark was built on, so that scaled times
# read as that host's quiet wall times.
PROBE_NS = 10_000
BLOCK = 20  # consecutive steps scaled by the median of their probes

_PROBE_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
_PROBE_B = np.array([1.0, 2.0, 3.0])
# bound at import, before any wrapper is installed, so that the traced run's
# counter on np.linalg.solve neither counts nor slows the probe
_solve = np.linalg.solve


def probe():
    """A fixed task of the same kind as a fit step: Python calls around tiny
    numpy operations. Its time says how fast the host runs such code now."""
    x = _solve(_PROBE_A, _PROBE_B)
    return float(np.exp(-x * x).sum() + x @ _PROBE_B)


def host_factor(n=5):
    """PROBE_NS over the median time of n probe() calls made now, after an
    untimed one."""
    probe()
    times = []
    for _ in range(n):
        t0 = time.perf_counter_ns()
        probe()
        times.append(time.perf_counter_ns() - t0)
    return PROBE_NS / float(np.median(times))


def quiet_fit_s(passes):
    """Fit time scaled to a quiet host, and the step time it is made of.

    `passes` holds, for each repetition of the same fit call, (fits, wall s):
    fits lists Tracer.fit_steps() per engine.fit call inside it (one per
    shard), with one timed probe before each step. Repetitions do the same
    work, since fits are deterministic.

    A host slowdown lasts seconds and slows a step and the probe before it
    alike. So every step counts at its own time, and each block of BLOCK
    consecutive steps is scaled by PROBE_NS over the median of its probes.
    The time outside steps and probes (initialisation, final ELBO,
    partition and combination) is scaled by the median of all the pass's
    probes. Returns the median over repetitions of (fit s, step us).
    """
    if not passes[0][0] or any(len(fits) != len(passes[0][0]) for fits, _ in passes):
        raise RuntimeError("engine.fit/engine.step were not timed in every repetition")
    fit_ns, step_ns = [], []
    for fits, wall in passes:
        scaled, spent, all_probes = 0.0, 0, []
        for steps, probes, in_probes in fits:
            if len(steps) != len(probes):
                raise RuntimeError("a fit step ran without its probe")
            steps, probes = np.asarray(steps, float), np.asarray(probes, float)
            for i in range(0, len(steps), BLOCK):
                scaled += steps[i:i + BLOCK].sum() * PROBE_NS / np.median(probes[i:i + BLOCK])
            spent += steps.sum() + in_probes
            all_probes.append(probes)
        outside = wall * 1e9 - spent
        fit_ns.append(scaled + outside * PROBE_NS / np.median(np.concatenate(all_probes)))
        step_ns.append(scaled)
    n_steps = sum(len(steps) for steps, _, _ in passes[0][0])
    return float(np.median(fit_ns)) / 1e9, float(np.median(step_ns)) / n_steps / 1e3


# ---------------------------------------------------------------------------
# analysis


def self_times(start, end, parent):
    """Each span's duration minus the durations of its direct children.

    Spans on one thread nest, so children never overlap each other and the
    part of the parent's interval they cover is the sum of their durations.
    """
    dur = (end - start).astype(float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur, dur - covered


def enclosing(names, parent, target):
    """Index of the nearest span named `target` at or above each span (-1 if none).

    Takes plain lists; a parent is always recorded before its children.
    """
    out = [-1] * len(names)
    for i, (nm, par) in enumerate(zip(names, parent)):
        if nm == target:
            out[i] = i
        elif par >= 0:
            out[i] = out[par]
    return np.array(out, dtype=np.int64)


def _median(x):
    return float(np.median(x)) if len(x) else 0.0


def layer_metrics(tracer):
    """Per-layer metrics from one traced repetition.

    Times are medians per call in microseconds unless the name says
    otherwise; counts are exact.
    """
    a = tracer.arrays()
    names = a["names"][a["name"]] if len(a["name"]) else np.array([], dtype=str)
    phase = a["phases"][a["phase"]] if len(a["phase"]) else np.array([], dtype=str)
    parent = a["parent"]
    dur, own = self_times(a["start"], a["end"], parent)
    dur_us, own_us = dur / 1e3, own / 1e3
    step_of = enclosing(tracer.name, tracer.parent, "engine.step")
    is_step = names == "engine.step"
    n_steps = int(is_step.sum())
    step_pos = np.cumsum(is_step) - 1  # position of each step span among steps
    in_step = step_of >= 0

    def sel(name, where=None):
        m = names == name
        return m if where is None else m & where

    m = {}
    # -- engine / gradients / model: one fit step and what it calls
    for layer, key in (("engine.step", "engine.step.us"), ("engine.stream", "engine.stream.us"),
                       ("engine.affine", "engine.affine.us"),
                       ("engine.estimator", "engine.estimator.us"),
                       ("engine.ascent_step", "engine.ascent_step.us"),
                       ("gradients.value_and_grad", "gradients.value_and_grad.us"),
                       ("model.log_joint_reparam", "model.log_joint_reparam.us")):
        m[key] = _median(dur_us[sel(layer, in_step)])
    m["engine.step.self_us"] = _median(own_us[is_step])
    m["gradients.grad_full.self_us"] = _median(own_us[sel("gradients.grad_full", in_step)])
    # per-step self time of each layer; their medians should add up to the step
    per_step = {}
    for layer in STEP_LAYERS:
        mask = sel(layer, in_step)
        per_step[layer] = np.bincount(step_pos[step_of[mask]], weights=own_us[mask],
                                      minlength=n_steps)
    step_median = m["engine.step.us"]
    m["engine.step.breakdown_ratio"] = (
        sum(_median(v) for v in per_step.values()) / step_median if step_median else 0.0)
    vg_calls = int(sel("gradients.value_and_grad", in_step).sum())
    m["engine.retries"] = vg_calls - n_steps
    m["engine.elbo_estimate.s"] = float(dur[sel("engine.elbo_estimate")].sum() / 1e9)

    def per_step_count(name):
        return tracer.counts[("step", name)] / n_steps if n_steps else 0.0

    for name in ("engine.philox", "engine.c_materialize", "model.w_matrix",
                 "model.omega_matrix", "matcalc.dweight", "families.evals",
                 "linalg.inv", "linalg.solve", "linalg.cholesky"):
        m[f"{name}.per_step"] = per_step_count(name)

    # -- reparam
    bt = names == "reparam.build_transforms"
    bt_fit = bt & in_step
    bt_sim = bt & (phase == "sim")
    m["reparam.build_transforms.fit.self_us"] = _median(own_us[bt_fit])
    m["reparam.build_transforms.sim.self_us"] = _median(own_us[bt_sim])
    sim_batches = [tracer.note[i] for i in np.flatnonzero(bt_sim)]
    m["reparam.build_transforms.batch"] = float(np.mean(sim_batches)) if sim_batches else 0.0
    m["reparam.objective.calls_per_build"] = (
        tracer.counts[("step", "reparam.objective")] / int(bt_fit.sum()) if bt_fit.any() else 0.0)
    errors = collections.Counter(tracer.error[i] for i in np.flatnonzero(bt) if i in tracer.error)
    for kind in FAILURE_TYPES:
        m[f"reparam.failures.{kind}"] = errors.pop(kind, 0)
    m["reparam.failures.other"] = sum(errors.values())

    # -- posterior
    m["posterior.simulate_b.s"] = float(dur[sel("posterior.simulate_b")].sum() / 1e9)
    m["posterior.draw_transforms.ms"] = _median(dur_us[sel("posterior.draw_transforms")]) / 1e3
    m["posterior.slow_path_chunks"] = sum(
        1 for i in np.flatnonzero(bt_sim) if i in tracer.error and tracer.note[i] > 1)

    # -- recombine: engine.fit spans below fit_sharded are the shard fits
    shard_fit = sel("engine.fit") & (enclosing(tracer.name, tracer.parent,
                                               "recombine.fit_sharded") >= 0)
    shard_s = dur[shard_fit] / 1e9
    shard_iters = [int((is_step & (parent == i)).sum()) for i in np.flatnonzero(shard_fit)]
    m["recombine.partition.us"] = _median(dur_us[sel("recombine.partition")])
    m["recombine.combine.us"] = _median(dur_us[sel("recombine.combine")])
    m["recombine.shard_fit.s"] = _median(shard_s)
    m["recombine.shard_iters"] = max(shard_iters, default=0)
    m["recombine.shard_imbalance"] = float(shard_s.max() / shard_s.mean()) if len(shard_s) else 0.0

    # -- inputs and outputs
    for layer in ("model.default_prior", "fileio.load_csv", "fileio.write",
                  "simulate.simulate_dataset", "datasets.epilepsy_dataset"):
        m[f"{layer}.ms"] = float(dur[sel(layer)].sum() / 1e6)
    return m
