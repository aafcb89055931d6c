"""Stochastic gradient ascent on the block-diagonal Gaussian posterior.

q(theta~) = N(mu, C C') with C block diagonal: n local blocks of order r and
one global block of order g. Diagonals of C are optimized on the log scale
(C*), which keeps them positive; the dweight chain-rule scaling turns
half-vec gradients in C into gradients in C*.

Randomness is a counter-based stream keyed by (seed, lane, iteration), so a
fit is reproducible bit for bit regardless of how per-subject work inside an
iteration is scheduled.
"""

import math
import numbers
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import gradients, matcalc, model, reparam
from .exceptions import RECOVERABLE, ConfigError, DivergedError, OverflowGuardError

LANE_FIT = 0
LANE_FINAL = 1
LANE_SIM = 2
LANE_PART = 3

ELBO_CHUNK = 250  # draws per chunk of the final ELBO
# bytes of one (block, n, J) float64 array, for the blocks of draws that
# evaluate takes at once (draw_block): 2^16 elements, 512 KB
DRAW_BLOCK_BYTES = 2 ** 19
REJECTION_WARN_FRACTION = 0.01  # warn when more of the draws over q are rejected


def _check_seed(seed):
    """Raise ConfigError unless seed is a Philox key: an integer in [0, 2^128)."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2 ** 128):
        raise ConfigError(f"seed must be an integer in [0, 2^128), got {seed!r}")


def stream(seed, lane, t):
    """Deterministic generator for iteration t of a given lane."""
    return LaneStream(seed, lane).at(t)


class LaneStream:
    """The generators of one lane: at(t) resets one Philox generator keyed
    by seed to iteration t's counter, [0, 0, lane, t]."""

    def __init__(self, seed, lane):
        _check_seed(seed)
        self._bits = np.random.Philox(key=int(seed), counter=[0, 0, int(lane), 0])
        self._state, self._gen = self._bits.state, np.random.Generator(self._bits)

    def at(self, t):
        self._state["state"]["counter"][3] = int(t)
        self._bits.state = self._state
        return self._gen


def child_seed(seed, index):
    """Well-mixed derived seed (shards, replicates)."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


@dataclass
class FitConfig:
    method: str = "a2"
    seed: int = 0
    max_iter: int = 200_000
    window: int = 1000
    tau: int = 5
    adam_alpha: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    estimator: str = "L2"
    final_elbo_draws: int = 1000

    def __post_init__(self):
        _check_seed(self.seed)
        if self.method not in reparam.METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.estimator not in ("L1", "L2", "L3"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        counts = (self.max_iter, self.window, self.tau, self.final_elbo_draws)
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in counts):
            raise ConfigError("max_iter, window, tau and final_elbo_draws must be integers")
        if self.max_iter < 1 or self.window < 1 or self.tau < 2:
            raise ConfigError("limits must be positive (tau >= 2)")
        if not (math.isfinite(self.adam_alpha) and self.adam_alpha > 0
                and 0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1
                and math.isfinite(self.adam_eps) and self.adam_eps > 0):
            raise ConfigError("Adam needs a finite alpha > 0, betas in [0, 1) and a "
                              "finite eps > 0")
        if self.final_elbo_draws < 0 or self.final_elbo_draws == 1:
            raise ConfigError("final_elbo_draws must be 0 (no final ELBO) or >= 2")


class VariationalState:
    """Mean vector and packed Cholesky blocks of the variational Gaussian.

    All parameters live in one vector, `params`, laid out as
    [mu (d = n*r + g), C* local (n * r(r+1)/2), C* global (g(g+1)/2)]: the
    section order of the state file, and the order of Adam's vector. mu holds
    the n local blocks first, then the global block; C blocks are half-vecs
    of C* (log diagonal). `mu`, `cstar_local` (n, r(r+1)/2) and
    `cstar_global` are views of `params`, and assigning to any of the four
    writes into `params`.
    """

    def __init__(self, n, r, g, params=None):
        self.n, self.r, self.g = n, r, g
        size = self.d + n * matcalc.half_len(r) + matcalc.half_len(g)
        self.params = np.zeros(size) if params is None else np.asarray(params, dtype=float)
        if self.params.shape != (size,):
            raise ConfigError(f"expected {size} parameters, got shape {self.params.shape}")
        self.mu, self.cstar_local, self.cstar_global = self.views(self.params)

    def __setattr__(self, name, value):
        # params and its views are written into once set, never rebound
        if name in ("params", "mu", "cstar_local", "cstar_global") and name in vars(self):
            vars(self)[name][...] = value
        else:
            object.__setattr__(self, name, value)

    @classmethod
    def initial(cls, n, r, g, global_scale=0.1):
        """mu = 0, C = blockdiag(I_{nr}, global_scale * I_g)."""
        state = cls(n, r, g)
        state.cstar_global[matcalc.diag_positions(g)] = np.log(global_scale)
        return state

    @property
    def d(self):
        return self.n * self.r + self.g

    def views(self, vec):
        """(mu, C* local, C* global) views of a (..., P) params-layout vector."""
        d, k = self.d, self.n * matcalc.half_len(self.r)
        return (vec[..., :d], vec[..., d:d + k].reshape(vec.shape[:-1] + (self.n, -1)),
                vec[..., d + k:])

    def copy(self):
        return VariationalState(self.n, self.r, self.g, self.params.copy())

    def __reduce__(self):
        # pickled as the one vector, so that the views are rebuilt on it
        return VariationalState, (self.n, self.r, self.g, self.params)

    # -- C blocks ----------------------------------------------------------
    @staticmethod
    def _materialize(cstar, r):
        return matcalc.unpack_log_diag(cstar, r)

    def c_local(self):
        return self._materialize(self.cstar_local, self.r)

    def c_global(self):
        return self._materialize(self.cstar_global, self.g)

    def blocks(self):
        """(local C blocks, global C block) at the current parameters; the
        methods below take them to save rebuilding within one step."""
        return self.c_local(), self.c_global()

    def log_det_c(self):
        return (self.cstar_local[..., matcalc.diag_positions(self.r)].sum()
                + self.cstar_global[matcalc.diag_positions(self.g)].sum())

    # -- vector <-> blocks ---------------------------------------------------
    def split(self, vec):
        """(local (..., n, r), global (..., g)) views of a theta~-layout vector."""
        nr = self.n * self.r
        loc = vec[..., :nr].reshape(vec.shape[:-1] + (self.n, self.r))
        return loc, vec[..., nr:]

    def _join(self, loc, glob):
        flat = loc.reshape(loc.shape[:-2] + (-1,))
        return np.concatenate([flat, glob], axis=-1)

    def affine(self, s, blocks=None):
        """theta~ = C s + mu, blockwise; broadcasts over leading dims of s."""
        c_loc, c_glob = blocks or self.blocks()
        s_loc, s_glob = self.split(s)
        mu_loc, mu_glob = self.split(self.mu)
        loc = np.einsum("nrs,...ns->...nr", c_loc, s_loc) + mu_loc
        glob = np.einsum("rs,...s->...r", c_glob, s_glob) + mu_glob
        return self._join(loc, glob)

    def cinv_t(self, s, blocks=None):
        """C^{-T} s, blockwise triangular solves (LAPACK for the global block,
        where substitution would take g Python-level sweeps)."""
        c_loc, c_glob = blocks or self.blocks()
        s_loc, s_glob = self.split(s)
        glob = np.linalg.solve(c_glob.T, s_glob[..., None])[..., 0]
        return self._join(matcalc.solve_lower(c_loc, s_loc, trans=True), glob)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, size):
        return cls(np.zeros(size), np.zeros(size))

    def ascent_step(self, g, cfg):
        self.t += 1
        self.m = cfg.adam_beta1 * self.m + (1.0 - cfg.adam_beta1) * g
        self.v = cfg.adam_beta2 * self.v + (1.0 - cfg.adam_beta2) * g * g
        m_hat = self.m / (1.0 - cfg.adam_beta1 ** self.t)
        v_hat = self.v / (1.0 - cfg.adam_beta2 ** self.t)
        return cfg.adam_alpha * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


@dataclass
class FitResult:
    state: VariationalState
    window_means: np.ndarray
    n_iter: int
    wall_time: float
    elbo: float
    elbo_se: float
    converged: bool
    max_iter_reached: bool
    method: str
    config: FitConfig = field(repr=False, default=None)


def estimator(state, s, grad_vec, which, blocks=None):
    """Gradient estimators for (mu, v(C)) from a single draw.

    L1 evaluates the entropy term analytically; L2 uses the same draw for
    both terms and collapses to zero noise at convergence; L3 keeps the
    noisier score form for mu (its v(C) part is taken from L2, which is the
    form the update rule uses).

    Returns (g_mu (..., d), g_vC local (..., n, K_r), g_vC global (..., K_g)),
    with only the block-diagonal support of v(.) formed.
    """
    c_loc, c_glob = blocks or state.blocks()
    cts = state.cinv_t(s, (c_loc, c_glob))
    if which == "L1":
        g_mu = grad_vec
        outer_of = grad_vec
    elif which == "L2":
        g_mu = grad_vec + cts
        outer_of = g_mu
    elif which == "L3":
        g_mu = grad_vec - cts
        outer_of = grad_vec + cts
    else:
        raise ConfigError(f"unknown estimator {which!r}")

    s_loc, s_glob = state.split(s)
    o_loc, o_glob = state.split(outer_of)
    gv_loc = matcalc.halfvec(o_loc[..., :, None] * s_loc[..., None, :])
    gv_glob = matcalc.halfvec(o_glob[..., :, None] * s_glob[..., None, :])
    if which == "L1":
        # + v(C^{-T}): only the diagonal of C^{-T} lies on the lower support
        gv_loc[..., matcalc.diag_positions(state.r)] += 1.0 / _diag(c_loc)
        gv_glob[..., matcalc.diag_positions(state.g)] += 1.0 / _diag(c_glob)
    return g_mu, gv_loc, gv_glob


def _diag(mat):
    return np.diagonal(mat, axis1=-2, axis2=-1)


def should_stop(window_means, tau):
    """Least-squares slope over the most recent min(tau, available) window
    means; stop once it turns negative. Never stops on a single mean."""
    k = min(tau, len(window_means))
    if k < 2:
        return False
    return window_slope(window_means, tau) < 0.0


def window_slope(window_means, tau):
    k = min(tau, len(window_means))
    y = np.asarray(window_means[-k:], dtype=float)
    x = np.arange(k, dtype=float)
    xc = x - x.mean()
    return float((xc * (y - y.mean())).sum() / (xc * xc).sum())


def _global_params(data, prior, glob):
    """Split a global-block vector into GlobalParams, omega fixed unless prior.learns_omega."""
    beta = glob[..., :data.p]
    if prior.learns_omega:
        omega = glob[..., data.p:]
    else:
        omega = np.broadcast_to(prior.omega, glob.shape[:-1] + (data.g2,))
    return model.GlobalParams(beta, omega, data.r)


def draw(data, prior, state, method, s, anchor=None, blocks=None):
    """(b~, transforms) of draws s (..., d): theta~ = C s + mu split, and
    reparam.build_transforms from anchor at the drawn theta_G (Transforms.gp)."""
    b_tilde, glob = state.split(state.affine(s, blocks))
    gp = _global_params(data, prior, glob)
    return b_tilde, reparam.build_transforms(data, gp, method, anchor)


def step(data, prior, config, state, adam, t, draws=None, anchor=None):
    """One stochastic gradient step; returns the pre-update ELBO sample and
    the step's transforms, the next step's anchor.

    The draws are those of stream(config.seed, LANE_FIT, t), taken from
    `draws`, the fit's LaneStream of that stream, when given; the
    transforms are built from `anchor` (draw). A recoverable numeric
    failure (overflow guard, failed factorization, failed mode search)
    retries once with a fresh draw from the same iteration stream and the
    same anchor; a second failure, a non-finite ELBO sample or a
    non-finite update raises DivergedError.
    """
    rng = (draws or LaneStream(config.seed, LANE_FIT)).at(t)
    blocks = state.blocks()
    last_err = None
    for _ in range(2):
        s = rng.standard_normal(state.d)
        try:
            b_tilde, transforms = draw(data, prior, state, config.method, s, anchor, blocks)
            value, grad = gradients.value_and_grad(data, b_tilde, transforms, prior)
            break
        except RECOVERABLE as err:
            last_err = err
    else:
        raise DivergedError(f"iteration {t}: {last_err}") from last_err
    elbo = float(value + state.log_det_c() + 0.5 * (s * s).sum())
    if not math.isfinite(elbo):
        raise DivergedError(f"iteration {t}: non-finite ELBO sample {elbo}")

    grad_vec = grad.concat(include_omega=prior.learns_omega)
    g_mu, gv_loc, gv_glob = estimator(state, s, grad_vec, config.estimator, blocks)
    # chain rule into C*: scale diagonal positions by the current diagonals
    c_loc, c_glob = blocks
    gv_loc[..., matcalc.diag_positions(state.r)] *= _diag(c_loc)
    gv_glob[matcalc.diag_positions(state.g)] *= np.diag(c_glob)
    g_all = np.concatenate([g_mu, gv_loc.ravel(), gv_glob])
    update = adam.ascent_step(g_all, config)
    if not np.all(np.isfinite(update)):
        raise DivergedError(f"iteration {t}: non-finite parameter update")
    state.params += update
    return elbo, transforms


def draw_block(data):
    """Draws evaluate takes at once: as many as keep a (block, n, J) float64
    array within DRAW_BLOCK_BYTES, and at least one."""
    return max(1, DRAW_BLOCK_BYTES // (8 * data.n * data.J))


def accepted_draws(state, n_draws, seed, lane, chunk, block, evaluate):
    """Monte Carlo over q: evaluate(s) on chunks of standard normal draws
    until n_draws draws are accepted.

    Chunk k holds min(chunk, draws still wanted) rows of stream(seed, lane,
    k). evaluate maps a (B, d) block of at most `block` of a chunk's rows to
    a tuple of arrays with B leading rows; a chunk's results are its blocks'
    concatenated. When a block raises a recoverable error, that block is
    evaluated again one draw at a time and the draws that raise are
    rejected. Yields (results, draws rejected so far) per chunk with
    accepted draws. n_draws must be at least 2, which a standard error needs.
    """
    if n_draws < 2:
        raise ConfigError("n_draws must be >= 2")
    done = rejected = k = 0
    while done < n_draws:
        s = stream(seed, lane, k).standard_normal((min(chunk, n_draws - done), state.d))
        k += 1
        kept = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for lo in range(0, len(s), block):
                part = s[lo:lo + block]
                try:
                    kept.append(evaluate(part))
                except RECOVERABLE:
                    for i in range(len(part)):
                        try:
                            kept.append(evaluate(part[i:i + 1]))
                        except RECOVERABLE:
                            pass
        out = tuple(np.concatenate(parts) for parts in zip(*kept))
        n_ok = len(out[0]) if out else 0
        rejected += len(s) - n_ok
        if rejected > 100 * (1 + n_draws):
            raise OverflowGuardError("Monte Carlo over q rejected nearly all draws")
        if n_ok:
            yield out, rejected
            done += n_ok
    if rejected > REJECTION_WARN_FRACTION * n_draws:
        warnings.warn(f"Monte Carlo over q rejected {rejected} pathological draws",
                      RuntimeWarning, stacklevel=3)


def mean_anchor(data, prior, state, method):
    """The transforms at the mean of theta_G under q, the draws' anchor; None
    when that build fails: their a2 mode searches then start from a1's lambda."""
    gp = _global_params(data, prior, state.split(state.mu)[1])
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return reparam.build_transforms(data, gp, method)
    except RECOVERABLE:
        return None


def elbo_estimate(data, prior, state, method, n_draws, seed):
    """Monte Carlo ELBO at a fixed state, averaged over fresh draws; a draw
    whose transforms fail or whose log joint is not finite is rejected."""
    logdet = state.log_det_c()
    anchor = mean_anchor(data, prior, state, method)

    def evaluate(s):
        b_tilde, transforms = draw(data, prior, state, method, s, anchor)
        value = model.log_joint_reparam(data, b_tilde, transforms, prior)
        if not np.all(np.isfinite(value)):
            raise OverflowGuardError("non-finite log joint")
        return (value + logdet + 0.5 * (s * s).sum(axis=-1),)

    vals = np.concatenate([out[0] for out, _ in accepted_draws(
        state, n_draws, seed, LANE_FINAL, ELBO_CHUNK, draw_block(data), evaluate)])
    mean, sd = scaled_moments(vals)
    return float(mean), float(sd / np.sqrt(len(vals)))


def scaled_moments(vals):
    """(mean, sd with ddof 1) of each column of vals, taken of the column
    scaled by a power of two above its largest magnitude: that changes no
    rounding, and the sums stay finite also when the values lie near the
    largest float."""
    _, e = np.frexp(np.abs(vals).max(axis=0))
    z = np.ldexp(vals, -e)
    return np.ldexp(z.mean(axis=0), e), np.ldexp(z.std(axis=0, ddof=1), e)


def fit(data, prior, config=None, **overrides):
    """Run the optimizer until the stopping rule fires or max_iter is hit."""
    if config is None:
        config = FitConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    if not prior.learns_omega and prior.omega.shape != (data.g2,):
        raise ConfigError("fixed omega has the wrong length for this dataset")
    g = data.p + (data.g2 if prior.learns_omega else 0)
    state = VariationalState.initial(data.n, data.r, g)
    adam = AdamState.zeros(state.params.size)

    draws, anchor = LaneStream(config.seed, LANE_FIT), None
    t_start = time.perf_counter()
    means = []
    acc = 0.0
    cnt = 0
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        elbo, anchor = step(data, prior, config, state, adam, it, draws, anchor)
        acc += elbo
        cnt += 1
        if cnt == config.window:
            means.append(acc / cnt)
            acc = 0.0
            cnt = 0
            if should_stop(means, config.tau):
                converged = True
                break
    wall = time.perf_counter() - t_start

    if config.final_elbo_draws > 0:
        elbo, elbo_se = elbo_estimate(data, prior, state, config.method,
                                      config.final_elbo_draws, config.seed)
    else:
        elbo, elbo_se = float("nan"), float("nan")
    return FitResult(state=state, window_means=np.asarray(means), n_iter=it,
                     wall_time=wall, elbo=elbo, elbo_se=elbo_se,
                     converged=converged, max_iter_reached=not converged,
                     method=config.method, config=config)
