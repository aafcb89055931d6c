"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Fits are shared across criteria through module-scoped fixtures; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from glmmvb import (
    datasets,
    engine,
    families,
    gradients,
    matcalc,
    model,
    posterior,
    recombine,
    reparam,
    simulate,
)

import oracles
from conftest import (
    case_seed,
    exact_elbo_known_omega_micro,
    max_rel_err,
    random_dataset,
    random_gp,
    random_wishart_prior,
    reparam_value,
)


@contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\ncriterion {num:2d}: FAIL  {desc}", flush=True)
        raise
    print(f"\ncriterion {num:2d}: PASS  {desc} "
          f"[{time.perf_counter() - t0:.1f}s]", flush=True)


def fit_and_summarize(data, prior, method, seed, n_draws=5000, **kw):
    cfg = engine.FitConfig(method=method, seed=seed, final_elbo_draws=1000, **kw)
    res = engine.fit(data, prior, cfg)
    summ = posterior.simulate_b(data, prior, res.state, method, n_draws, seed=seed)
    return res, summ


# ---------------------------------------------------------------------------
# shared fits


@pytest.fixture(scope="module")
def seeds_problem():
    data = datasets.seeds_dataset()
    return data, model.default_prior(data)


@pytest.fixture(scope="module")
def seeds_a1_fits(seeds_problem):
    data, prior = seeds_problem
    return [fit_and_summarize(data, prior, "a1", seed) for seed in range(1, 6)]


@pytest.fixture(scope="module")
def seeds_a2_fit(seeds_problem):
    data, prior = seeds_problem
    return fit_and_summarize(data, prior, "a2", 1)


@pytest.fixture(scope="module")
def epilepsy1_a2_fit():
    data = datasets.epilepsy_dataset("I")
    prior = model.default_prior(data)
    return data, prior, *fit_and_summarize(data, prior, "a2", 1)


@pytest.fixture(scope="module")
def epilepsy2_a2_fit():
    data = datasets.epilepsy_dataset("II")
    prior = model.default_prior(data)
    return data, prior, *fit_and_summarize(data, prior, "a2", 1)


# ---------------------------------------------------------------------------
# criteria


def test_c01_gradient_oracle_suite():
    with criterion(1, "analytic gradients match central finite differences "
                      "(4 families x 2 methods x r in {1,2,3} x 100 configs, "
                      "rel err < 1e-5, < 2 min)"):
        t0 = time.perf_counter()
        worst = 0.0
        for famname in ("poisson", "binomial", "bernoulli", "gaussian-unit"):
            fam = oracles.family(famname)
            for method in ("a1", "a2"):
                for r in (1, 2, 3):
                    rng = np.random.default_rng(case_seed(famname, method, r))
                    for _ in range(100):
                        n = int(rng.integers(1, 4))
                        data = random_dataset(rng, fam, r=r, n=n, p=2, ni_max=4)
                        gp = random_gp(rng, 2, r)
                        pr = random_wishart_prior(rng, r)
                        bt = 0.8 * rng.standard_normal((n, r))
                        got = gradients.grad_full(
                            data, bt, reparam.build_transforms(data, gp, method), pr)
                        theta = np.concatenate([bt.ravel(), gp.beta, gp.omega])
                        fd = np.zeros_like(theta)
                        h = 1e-5
                        for k in range(theta.size):
                            e = np.zeros_like(theta)
                            e[k] = h
                            fd[k] = (reparam_value(data, theta + e, method, pr)
                                     - reparam_value(data, theta - e, method, pr)) / (2 * h)
                        worst = max(worst, max_rel_err(got, fd))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-5, f"max rel err {worst:.2e}"
        assert elapsed < 120.0, f"took {elapsed:.0f}s"


def test_c02_gaussian_exactness_oracle():
    with criterion(2, "gaussian-unit transforms match the closed form to 1e-10 "
                      "and the conjugate micro-model ELBO is within 1e-3 of the "
                      "Gauss-Hermite evidence (< 1 min)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        for _ in range(25):
            r = int(rng.integers(1, 4))
            data = random_dataset(rng, oracles.GAUSSIAN_UNIT, r=r, n=3, p=2)
            gp = random_gp(rng, 2, r)
            Omega = gp.omega_matrix()
            t1 = reparam.transform_a1(data, gp)
            t2 = reparam.transform_a2(data, gp)
            for i in range(data.n):
                k = int(data.n_obs[i])
                Z, X, y = data.Z[i, :k], data.X[i, :k], data.y[i, :k]
                Lam = np.linalg.inv(Omega + Z.T @ Z)
                lam = Lam @ Z.T @ (y - X @ gp.beta)
                for t in (t1, t2):
                    assert np.abs(t.lam[i] - lam).max() < 1e-10
                    assert np.abs(t.Lambda[i] - Lam).max() < 1e-10

        gen = np.random.default_rng(7)
        y = [gen.standard_normal(3) + 0.8]
        ones = np.ones((3, 1))
        data = model.Dataset.from_lists(oracles.GAUSSIAN_UNIT, y, [ones], [ones])
        prior = oracles.KnownOmega(100.0, np.array([0.25]))
        cfg = engine.FitConfig(method="a1", seed=1, max_iter=12_000, window=12_000,
                               final_elbo_draws=2000)
        res = engine.fit(data, prior, cfg)
        exact = exact_elbo_known_omega_micro(data, prior.omega, prior.sigma_beta2)
        assert abs(res.elbo - exact) < 1e-3, f"gap {res.elbo - exact:.2e}"
        assert time.perf_counter() - t0 < 60.0


def test_c03_regularized_estimate_table():
    with criterion(3, "regularized estimates and (h1, h2, h2*eta) reproduce the "
                      "boundary table to two decimals"):
        pois = families.POISSON
        eta = pois.eta_hat_reg(0.0, 1.0)
        _, h1, h2 = pois.derivs(eta, None, 2)
        assert (round(float(eta), 2), round(float(h1), 2),
                round(float(h2), 2), round(float(h2 * eta), 2)) \
            == (-1.96, 0.14, 0.14, -0.28)
        bino = families.BINOMIAL
        m = np.array(10.0)
        eta = bino.eta_hat_reg(0.0, m)
        _, h1, h2 = bino.derivs(eta, m, 2)
        assert (round(float(eta), 2), round(float(h1), 2),
                round(float(h2), 2), round(float(h2 * eta), 2)) \
            == (-4.27, 0.14, 0.14, -0.58)
        bern = families.BERNOULLI
        eta = bern.eta_hat_reg(1.0, 1.0)
        assert round(float(eta), 2) == 2.0
        _, h1, h2 = bern.derivs(eta, None, 2)
        assert (round(float(h1), 2), round(float(h2), 2),
                round(float(h2 * eta), 2)) == (0.88, 0.10, 0.21)


def test_c04_default_prior_reproduction():
    with criterion(4, "default conjugate priors on the bundled datasets "
                      "reproduce the documented constants"):
        pr = model.default_prior(datasets.epilepsy_dataset("I"))
        assert pr.nu == 1.0
        assert abs(0.5 / pr.S[0, 0] - 0.0151) < 0.0005
        pr = model.default_prior(datasets.epilepsy_dataset("II"))
        assert pr.nu == 3.0
        assert abs(pr.S[0, 0] - 11.0169) < 0.01
        assert abs(pr.S[0, 1] - (-0.1616)) < 0.01
        assert abs(pr.S[1, 1] - 0.5516) < 0.01
        pr = model.default_prior(datasets.seeds_dataset())
        assert pr.nu == 1.0
        assert abs(0.5 / pr.S[0, 0] - 0.0544) < 0.001


def test_c05_seeds_reproduction(seeds_a1_fits, seeds_a2_fit):
    with criterion(5, "seeds: 5-seed average matches the reference column "
                      "(means +-0.04, sds +-0.03); both transform routes agree on "
                      "the ELBO within 0.5 (< 2 min)"):
        t0 = time.perf_counter()
        ref_mean = np.array([-0.39, -0.36, 1.03, 0.35])
        ref_sd = np.array([0.18, 0.23, 0.22, 0.11])
        means = np.mean([np.concatenate([s.global_mean[:3], s.scale_mean])
                         for _, s in seeds_a1_fits], axis=0)
        sds = np.mean([np.concatenate([s.global_sd[:3], s.scale_sd])
                       for _, s in seeds_a1_fits], axis=0)
        assert np.abs(means - ref_mean).max() < 0.04, means
        assert np.abs(sds - ref_sd).max() < 0.03, sds
        elbo_a1 = np.mean([r.elbo for r, _ in seeds_a1_fits])
        res_a2, _ = seeds_a2_fit
        assert abs(elbo_a1 - res_a2.elbo) < 0.5
        for r, _ in seeds_a1_fits:
            assert r.converged
            # the fit starts on the plateau: its first window mean is within
            # 0.5 nats of its best
            assert r.window_means[0] > r.window_means.max() - 0.5
            assert engine.window_slope(r.window_means, r.config.tau) < 0
        # shared fixture timing is attributed here; generous margin
        assert time.perf_counter() - t0 < 120.0


def test_c06_epilepsy_reproduction(epilepsy1_a2_fit, epilepsy2_a2_fit):
    with criterion(6, "epilepsy: model I matches the reference column "
                      "(means +-0.05, sds +-0.03); model II scales within +-0.05 "
                      "of (0.52, 0.77, 0.01) (< 5 min)"):
        _, _, res1, s1 = epilepsy1_a2_fit
        ref = {
            "beta.intercept": (0.27, 0.27), "beta.lbase": (0.88, 0.13),
            "beta.trt": (-0.94, 0.41), "beta.lbase_trt": (0.34, 0.21),
            "beta.lage": (0.47, 0.36), "beta.v4": (-0.16, 0.05),
        }
        for name, (m_ref, sd_ref) in ref.items():
            k = s1.global_names.index(name)
            assert abs(s1.global_mean[k] - m_ref) < 0.05, name
            assert abs(s1.global_sd[k] - sd_ref) < 0.03, name
        assert abs(s1.scale_mean[0] - 0.53) < 0.05
        assert abs(s1.scale_sd[0] - 0.06) < 0.03
        assert res1.converged and res1.window_means[0] > res1.window_means.max() - 0.5

        _, _, res2, s2 = epilepsy2_a2_fit
        assert s2.scale_names == ["sigma1", "sigma2", "rho"]
        target = np.array([0.52, 0.77, 0.01])
        assert np.abs(s2.scale_mean - target).max() < 0.05, s2.scale_mean
        assert res2.converged


def test_c07_estimator_properties(seeds_problem, seeds_a1_fits):
    with criterion(7, "L1/L2/L3 estimator means agree within 3 combined MC "
                      "standard errors (1e5 draws); at the converged seeds state "
                      "var(L2) <= 0.2 var(L1) per coordinate (< 2 min)"):
        t0 = time.perf_counter()
        estimators = {"L1": oracles.estimator_l1, "L2": engine.estimator,
                      "L3": oracles.estimator_l3}
        gen = np.random.default_rng(7)
        y = [gen.standard_normal(3) + 0.8, gen.standard_normal(3)]
        ones = np.ones((3, 1))
        data = model.Dataset.from_lists(oracles.GAUSSIAN_UNIT, y, [ones] * 2,
                                        [ones] * 2)
        prior = oracles.KnownOmega(100.0, np.array([0.25]))
        state = engine.VariationalState.initial(data.n, data.r, data.p)
        state.mu += 0.3
        N = 100_000
        sums = {w: 0.0 for w in ("L1", "L2", "L3")}
        sqs = {w: 0.0 for w in ("L1", "L2", "L3")}
        rng = engine.stream(11, 7, 0)
        for _ in range(N // 10_000):
            s = rng.standard_normal((10_000, state.d))
            theta = state.affine(s)
            b_tilde, glob = state.split(theta)
            gp = engine._global_params(data, prior, glob)
            gvec = gradients.grad_full(data, b_tilde, reparam.build_transforms(data, gp, "a1"),
                                       prior)[..., :state.d]
            for which in sums:
                gmu = state.views(estimators[which](state, s, gvec, state.blocks()))[0]
                sums[which] += gmu.sum(axis=0)
                sqs[which] += (gmu * gmu).sum(axis=0)
        means = {w: sums[w] / N for w in sums}
        ses = {w: np.sqrt(np.maximum(sqs[w] / N - means[w] ** 2, 0) / N) for w in sums}
        for a, b in (("L1", "L2"), ("L1", "L3"), ("L2", "L3")):
            comb = np.sqrt(ses[a] ** 2 + ses[b] ** 2)
            assert np.all(np.abs(means[a] - means[b]) < 3 * comb + 1e-12), (a, b)

        data, prior = seeds_problem
        state = seeds_a1_fits[0][0].state
        N = 10_000
        rng = engine.stream(123, 7, 1)
        acc = {w: [0.0, 0.0] for w in ("L1", "L2")}
        for _ in range(N // 1000):
            s = rng.standard_normal((1000, state.d))
            theta = state.affine(s)
            b_tilde, glob = state.split(theta)
            gp = engine._global_params(data, prior, glob)
            gvec = gradients.grad_full(data, b_tilde, reparam.build_transforms(data, gp, "a1"),
                                       prior)
            for which in acc:
                gmu = state.views(estimators[which](state, s, gvec, state.blocks()))[0]
                acc[which][0] += gmu.sum(axis=0)
                acc[which][1] += (gmu * gmu).sum(axis=0)
        var = {w: acc[w][1] / N - (acc[w][0] / N) ** 2 for w in acc}
        ratio = var["L2"] / var["L1"]
        assert np.all(ratio <= 0.2), f"max ratio {ratio.max():.3f}"
        assert time.perf_counter() - t0 < 120.0


def test_c08_btilde_normalization(seeds_a2_fit, epilepsy1_a2_fit):
    with criterion(8, "converged mode-based fits leave the transformed effects "
                      "near N(0,1): median |mean| < 0.25, median sd in "
                      "[0.75, 1.15] on seeds and epilepsy"):
        _, s_seeds = seeds_a2_fit
        _, _, _, s_epil = epilepsy1_a2_fit
        for s in (s_seeds, s_epil):
            assert np.median(np.abs(s.btilde_mean)) < 0.25
            assert 0.75 <= np.median(s.btilde_sd) <= 1.15


@pytest.mark.slow
def test_c09_simulation_recovery():
    with criterion(9, "simulated Poisson-II recovers (1.5, 0.5, 1.5) within 3 "
                      "posterior sds with |ELBO_a1 - ELBO_a2| < 1; Bernoulli-I "
                      "mode-based ELBO >= estimate-based - 0.1 (< 10 min)"):
        t0 = time.perf_counter()
        data, truth = simulate.simulate_dataset("poisson-ii", seed=101)
        prior = model.default_prior(data)
        elbos = {}
        for method in ("a1", "a2"):
            res, summ = fit_and_summarize(data, prior, method, 1, n_draws=2000)
            elbos[method] = res.elbo
            est = np.concatenate([summ.global_mean[:2], summ.scale_mean])
            sd = np.concatenate([summ.global_sd[:2], summ.scale_sd])
            target = np.array([truth["beta"][0], truth["beta"][1], truth["sigma"]])
            assert np.all(np.abs(est - target) < 3 * sd), (method, est, sd)
        assert abs(elbos["a1"] - elbos["a2"]) < 1.0

        data, _ = simulate.simulate_dataset("bernoulli-i", seed=202)
        prior = model.default_prior(data)
        res_a1, _ = fit_and_summarize(data, prior, "a1", 1, n_draws=500)
        res_a2, _ = fit_and_summarize(data, prior, "a2", 1, n_draws=500)
        assert res_a2.elbo >= res_a1.elbo - 0.1
        assert time.perf_counter() - t0 < 600.0


@pytest.mark.slow
def test_c10_divide_and_recombine():
    with criterion(10, "Bernoulli n=1500, V=3, normal-omega prior: combined "
                       "global means within 0.05 of the full-data fit across 5 "
                       "replicate partitions (< 10 min)"):
        t0 = time.perf_counter()
        data, _ = simulate.simulate_dataset("bernoulli-i", seed=77, n=1500)
        prior = model.normal_omega_prior(data.r)
        cfg = engine.FitConfig(method="a1", seed=5, final_elbo_draws=200)
        full = engine.fit(data, prior, cfg)
        f_full = recombine.global_factor(full.state)
        for rep in range(5):
            sharded = recombine.fit_sharded(data, prior, cfg, V=3,
                                            partition_seed=1000 + rep)
            dev = np.abs(sharded.combined.mean - f_full.mean).max()
            assert dev < 0.05, f"replicate {rep}: {dev:.4f}"
            np.linalg.cholesky(sharded.combined.cov)
        assert time.perf_counter() - t0 < 600.0
