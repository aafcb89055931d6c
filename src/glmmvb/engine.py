"""Stochastic gradient ascent on the block-diagonal Gaussian posterior.

q(theta~) = N(mu, C C') with C block diagonal: n local blocks of order r and
one global block of order g. Diagonals of C are optimized on the log scale
(C*), which keeps them positive; the chain rule scales the diagonal
positions of a half-vec gradient in C by C's diagonal to give it in C*.

Randomness is a counter-based stream keyed by (seed, lane, iteration), so a
fit is reproducible bit for bit regardless of how per-subject work inside an
iteration is scheduled.
"""

import collections
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import gradients, matcalc, model, reparam
from .exceptions import RECOVERABLE, ConfigError, DivergedError, GlmmVbError, OverflowGuardError

LANE_FIT = 0
LANE_FINAL = 1
LANE_SIM = 2  # simulate_dataset (t = 0) and posterior.factor_scales (t = 1)
LANE_PART = 3
LANE_POSTERIOR = 4  # posterior.simulate_b, one t per chunk

ELBO_CHUNK = 250  # draws per chunk of the final ELBO
# bytes of one (block, n, J) float64 array, for the blocks of draws that
# evaluate takes at once (draw_block): 2^16 elements, 512 KB
DRAW_BLOCK_BYTES = 2 ** 19
REJECTION_WARN_FRACTION = 0.01  # warn when more of the draws over q are rejected
ADAM_ALPHA = 1e-3  # Adam's step size, decay rates and guard (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# a Laplace-started fit's first BOOST_STEPS steps take LAPLACE_BOOST times
# ADAM_ALPHA: they travel to the plateau, before its window average forms
LAPLACE_BOOST = 5
BOOST_STEPS = 100
# the start's BFGS search (start_state): its gradient tolerance, iteration
# limit and central-difference step; and the largest sd of a theta_G
# coordinate under which the Laplace start is kept
LAPLACE_GTOL = 1e-6
LAPLACE_MAX_ITER = 100
LAPLACE_FD_STEP = 1e-4
LAPLACE_MAX_SD = 1.0


def _check_seed(seed):
    """Raise ConfigError unless seed is a Philox key: an integer in [0, 2^128)."""
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
            and 0 <= seed < 2 ** 128):
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
    window: int = 100
    tau: int = 3
    final_elbo_draws: int = 1000

    def __post_init__(self):
        _check_seed(self.seed)
        if self.method not in reparam.METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        counts = (self.max_iter, self.window, self.tau, self.final_elbo_draws)
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in counts):
            raise ConfigError("max_iter, window, tau and final_elbo_draws must be integers")
        if self.max_iter < 1 or self.window < 1 or self.tau < 2:
            raise ConfigError("limits must be positive (tau >= 2)")
        if self.final_elbo_draws < 0 or self.final_elbo_draws == 1:
            raise ConfigError("final_elbo_draws must be 0 (no final ELBO) or >= 2")


CstarLayout = collections.namedtuple("CstarLayout", "rows cols offsets diag")


@lru_cache(maxsize=None)
def cstar_layout(n, r, g):
    """The position map of C*'s layout for n local blocks of order r and a
    global block of order g, as read-only int arrays: for each C* entry, in
    params order, its row and column in theta~ and its offset in one flat
    buffer that holds the n local r x r blocks, then the g x g global block;
    and the positions of the log-diagonal entries, the local ones column by
    column (every block's (0, 0), then every (1, 1), ...), as log|C|'s sum
    has always taken them, then the global ones."""
    (lr, lc), (gr, gc) = matcalc.tri_indices(r), matcalc.tri_indices(g)
    start, nr, h = np.arange(n)[:, None] * r, n * r, matcalc.half_len(r)
    diag = matcalc.diag_positions(r)[:, None] + h * np.arange(n)
    layout = CstarLayout(np.concatenate([(start + lr).ravel(), nr + gr]),
                         np.concatenate([(start + lc).ravel(), nr + gc]),
                         np.concatenate([(start * r + lr * r + lc).ravel(), nr * r + gr * g + gc]),
                         np.concatenate([diag.ravel(), n * h + matcalc.diag_positions(g)]))
    for a in layout:
        a.setflags(write=False)
    return layout


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
    def initial(cls, n, r, g):
        """mu = 0, C = blockdiag(I_{nr}, 0.1 I_g); start_state moves beta
        from there."""
        state = cls(n, r, g)
        state.cstar_global[matcalc.diag_positions(g)] = np.log(0.1)
        return state

    @property
    def d(self):
        return self.n * self.r + self.g

    def views(self, vec):
        """(mu, C* local, C* global) views of a (..., P) params-layout vector."""
        d, h = self.d, matcalc.half_len(self.r)
        k = d + self.n * h
        return vec[..., :d], vec[..., d:k].reshape(vec.shape[:-1] + (self.n, h)), vec[..., k:]

    def __reduce__(self):
        # deepcopy and pickle copy params alone and rebuild the views on the copy
        return VariationalState, (self.n, self.r, self.g, self.params)

    # -- C blocks ----------------------------------------------------------
    def _materialize(self):
        """C's blocks (local (n, r, r), global (g, g)): views of one buffer
        that C* is scattered into by cstar_layout, exp taken at its diagonal."""
        layout, k = cstar_layout(self.n, self.r, self.g), self.n * self.r * self.r
        flat = np.zeros(k + self.g * self.g)
        flat[layout.offsets] = self.params[self.d:]
        diag = layout.offsets[layout.diag]
        flat[diag] = np.exp(flat[diag])
        return flat[:k].reshape(self.n, self.r, self.r), flat[k:].reshape(self.g, self.g)

    def blocks(self):
        """(local C blocks, global C block) at the current parameters; the
        methods below take them to save rebuilding within one step."""
        return self._materialize()

    def log_det_c(self):
        """The sum of C*'s log diagonal: the local blocks', then the global's."""
        logs, nr = self.params[self.d:][cstar_layout(self.n, self.r, self.g).diag], self.n * self.r
        return logs[:nr].sum() + logs[nr:].sum()

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
        loc = matcalc.matvec(c_loc, s_loc) + mu_loc
        glob = matcalc.matvec_fixed(c_glob, s_glob) + mu_glob
        return self._join(loc, glob)

    def cinv_t(self, s, blocks):
        """C^{-T} s from blocks(), as (local (..., n, r), global (..., g))
        blocks: blockwise triangular solves (LAPACK for the global block,
        where substitution would take g Python-level sweeps)."""
        c_loc, c_glob = blocks
        s_loc, s_glob = self.split(s)
        return (matcalc.solve_lower(c_loc, s_loc, trans=True),
                np.linalg.solve(c_glob.T, s_glob[..., None])[..., 0])


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, size):
        return cls(np.zeros(size), np.zeros(size))

    def ascent_step(self, g, alpha=ADAM_ALPHA):
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * g * g
        m_hat = self.m / (1.0 - ADAM_BETA1 ** self.t)
        v_hat = self.v / (1.0 - ADAM_BETA2 ** self.t)
        return alpha * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class FitResult:
    # converged: the average of the last window's iterates; else the last iterate
    state: VariationalState
    window_means: np.ndarray
    n_iter: int
    wall_time: float
    elbo: float
    elbo_se: float
    elbo_rejected: int  # draws of the final ELBO rejected (0 without one)
    converged: bool
    config: FitConfig = field(repr=False)
    start: np.ndarray = field(repr=False)  # the pooled GLM's beta (0 if its IRLS raised)
    start_kind: str  # the state the first step ran from: "laplace" or "pooled" (start_state)


def estimator(state, s, grad_vec, blocks):
    """The L2 estimate of the ELBO's gradient from draws s (..., d), in the
    layout and coordinates of `params`; broadcasts over leading draw dims.

    grad_vec is the log joint's gradient at theta~ = C s + mu, and blocks
    the C blocks. g_mu = grad_vec + C^{-T} s uses the same draw for the
    entropy term, so its noise vanishes at convergence (Roeder, Wu &
    Duvenaud, 2017); the C blocks' part is v(g_mu s') on the block-diagonal
    support, one gather through cstar_layout, its diagonal positions times
    C's diagonal for C*'s log scale.
    """
    layout, (c_loc, c_glob) = cstar_layout(state.n, state.r, state.g), blocks
    g = grad_vec + state._join(*state.cinv_t(s, blocks))
    g_c = g[..., layout.rows] * s[..., layout.cols]
    g_c[..., layout.diag] *= np.concatenate([c_loc.diagonal(0, -2, -1).T.reshape(-1),
                                             c_glob.diagonal()])
    return np.concatenate([g, g_c], axis=-1)


class Plateau:
    """The stopping rule. push(elbo, params) sums a step's ELBO sample and
    the params after it; at the end of each `window` pushes the mean ELBO
    joins `means`, the mean params (summed in push order) become `average`
    and push returns `converged`: whether the least-squares slope of the
    last min(tau, len(means)) means is negative (never on one mean, nor on
    a window holding one of the first `hold` pushes). The ELBO is then on
    its plateau, where constant-step Adam's iterates scatter about the
    optimum: fit returns `average` (Polyak & Juditsky, 1992), which is why
    a window of boosted steps, whose iterates scatter wider, never fires."""

    def __init__(self, window, tau, hold=0):
        self.window, self.tau, self.hold, self.means, self.average = window, tau, hold, [], None
        self.converged, self._count, self._elbo, self._params = False, 0, 0.0, 0.0

    def push(self, elbo, params):
        self._count += 1
        self._elbo += elbo
        self._params += params
        if self._count < self.window:
            return False
        self.means.append(self._elbo / self.window)
        self.average = self._params / self.window
        self._count, self._elbo, self._params = 0, 0.0, 0.0
        self.converged = (len(self.means) >= 2 and (len(self.means) - 1) * self.window >= self.hold
                          and window_slope(self.means, self.tau) < 0.0)
        return self.converged


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


def step(data, prior, config, state, adam, t, draws, anchor=None, alpha=ADAM_ALPHA):
    """One stochastic gradient step, Adam's at step size alpha; returns the
    pre-update ELBO sample and the step's transforms, the next step's anchor.

    The draws are those of stream(config.seed, LANE_FIT, t), taken from
    `draws`, the fit's LaneStream of that stream; the transforms are built
    from `anchor` (draw). A recoverable numeric
    failure (overflow guard, failed factorization, failed mode search)
    retries once with a fresh draw from the same iteration stream and the
    same anchor; a second failure, a non-finite ELBO sample or a
    non-finite update raises DivergedError.
    """
    rng = draws.at(t)
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

    # omega's block is last, and d leaves it out when the prior fixes omega
    update = adam.ascent_step(estimator(state, s, grad[:state.d], blocks), alpha)
    if not np.isfinite(update).all():
        raise DivergedError(f"iteration {t}: non-finite parameter update")
    state.params += update
    return elbo, transforms


def draw_block(data):
    """Draws evaluate takes at once: as many as keep a (block, n, J) float64
    array within DRAW_BLOCK_BYTES, and at least one."""
    return max(1, DRAW_BLOCK_BYTES // (8 * max(1, data.n * data.J)))


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
        out = kept[0] if len(kept) == 1 else tuple(np.concatenate(parts) for parts in zip(*kept))
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
    """Monte Carlo ELBO at a fixed state, averaged over fresh draws: (mean,
    its standard error, draws rejected). A draw whose transforms fail or
    whose log joint is not finite is rejected."""
    logdet = state.log_det_c()
    anchor = mean_anchor(data, prior, state, method)

    def evaluate(s):
        b_tilde, transforms = draw(data, prior, state, method, s, anchor)
        value = model.log_joint_reparam(data, b_tilde, transforms, prior)
        if not np.all(np.isfinite(value)):
            raise OverflowGuardError("non-finite log joint")
        return (value + logdet + 0.5 * (s * s).sum(axis=-1),)

    chunks = list(accepted_draws(state, n_draws, seed, LANE_FINAL, ELBO_CHUNK,
                                 draw_block(data), evaluate))
    vals = np.concatenate([out[0] for out, _ in chunks])
    mean, sd = scaled_moments(vals)
    return float(mean), float(sd / np.sqrt(len(vals))), chunks[-1][1]


def scaled_moments(vals):
    """(mean, sd with ddof 1) of each column of vals, taken of the column
    scaled by a power of two above its largest magnitude: that changes no
    rounding, and the sums stay finite also when the values lie near the
    largest float."""
    _, e = np.frexp(np.abs(vals).max(axis=0))
    z = np.ldexp(vals, -e)
    return np.ldexp(z.mean(axis=0), e), np.ldexp(z.std(axis=0, ddof=1), e)


def laplace_objective(data, prior, x, anchor=None):
    """The Laplace approximation of log p(y, theta_G) at theta_G = x (..., g),
    its gradient in x and the a2 transforms it was built from (anchored at
    `anchor`, as draw builds are).

    Under a2, the reparametrized log joint at b~ = 0 is
    log p(y, lambda(theta_G), theta_G) + log|L(theta_G)|: the second-order
    expansion about each conditional mode integrated over b (Tierney &
    Kadane, 1986), with gradients.value_and_grad's exact gradient. Raises
    the build's recoverable errors, and OverflowGuardError when the value or
    the gradient is not finite.
    """
    transforms = reparam.build_transforms(data, _global_params(data, prior, x), "a2", anchor)
    value, grad = gradients.value_and_grad(data, np.zeros((data.n, data.r)), transforms, prior)
    nr = data.n * data.r
    grad = grad[..., nr:nr + x.shape[-1]]
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(grad))):
        raise OverflowGuardError("non-finite Laplace objective")
    return value, grad, transforms


def _laplace_mode(data, prior, x):
    """(mode, its a2 transforms, the Cholesky factor of (-H)^{-1}) of the
    Laplace objective, by BFGS from x (Nocedal & Wright, 2006, ch. 6).

    The first direction is the gradient scaled to at most 1 per coordinate.
    A trial point is accepted, as transform_a2 accepts a Newton candidate,
    unless its objective is lower by more than round-off; otherwise, or
    when its build fails recoverably, the step is halved, and a direction
    with no ascent after NR_MAX_HALVINGS ends the search. H is the central
    difference of the gradient at the mode, its 2g points built as one
    batch; raises NotPositiveDefiniteError unless -H is positive definite.
    """
    f, grad, transforms = laplace_objective(data, prior, x)
    eye = np.eye(x.size)
    hinv, scaled = eye / max(1.0, np.abs(grad).max()), False
    for _ in range(LAPLACE_MAX_ITER):
        if np.abs(grad).max() <= LAPLACE_GTOL:
            break
        direction, t = hinv @ grad, 1.0
        for _ in range(reparam.NR_MAX_HALVINGS + 1):
            try:
                f_new, g_new, t_new = laplace_objective(data, prior, x + t * direction,
                                                        transforms)
                if f_new >= f - 1e-10 * (abs(f) + 1.0):
                    break
            except RECOVERABLE:
                pass
            t *= 0.5
        else:
            break
        s, y = t * direction, grad - g_new  # y: the change in the gradient of -f
        sy = s @ y
        if sy > 0:
            if not scaled:  # the first update starts from (s'y / y'y) I
                hinv, scaled = (sy / (y @ y)) * eye, True
            v = eye - np.outer(s, y) / sy
            hinv = v @ hinv @ v.T + np.outer(s, s) / sy
        x, f, grad, transforms = x + s, f_new, g_new, t_new
    steps = LAPLACE_FD_STEP * np.concatenate([eye, -eye])
    grads = laplace_objective(data, prior, x + steps, transforms)[1]
    hess = (grads[:x.size] - grads[x.size:]) / (2.0 * LAPLACE_FD_STEP)
    return x, transforms, matcalc.spd_inv_cholesky(-0.5 * (hess + hess.T))[1]


def _log_diag_halfvec(c):
    """Half-vec of lower-triangular blocks c with each diagonal entry's log:
    the C* layout (inverse of matcalc.unpack_log_diag)."""
    out = matcalc.halfvec(c)
    pos = matcalc.diag_positions(c.shape[-1])
    out[..., pos] = np.log(out[..., pos])
    return out


def start_state(data, prior, method, beta):
    """The state fit's first step runs from, and its kind.

    "laplace": q's global block is the Laplace approximation of the
    marginal posterior of theta_G, its mode (_laplace_mode, from `beta` and
    omega = 0, a2 transforms whatever the method) and the Cholesky factor of
    (-H)^{-1}. Each local block is the a2 conditional N(lambda2_i,
    Lambda2_i) of b_i at the mode: under a2 that is mu_i = 0, C_i = I, as
    VariationalState.initial has them; under a1, in a1's coordinates,
    mu_i = L1_i^{-1}(lambda2_i - lambda1_i) and C_i = L1_i^{-1} L2_i, the
    Cholesky factor of L1_i^{-1} Lambda2_i L1_i^{-T}.

    "pooled": VariationalState.initial with beta at `beta`, when a build
    fails recoverably or a value is not finite at the start or the mode,
    -H is not positive definite, or a sd of the global block exceeds
    LAPLACE_MAX_SD: a posterior that wide is one the data barely inform,
    where the large-sample expansion fails, and q drawn from it can put b
    far outside the family's range (all-zero Poisson counts, a separable
    Bernoulli design). The search uses no draws, so a seeded fit stays
    reproducible.
    """
    g = data.g if prior.learns_omega else data.p
    state = VariationalState.initial(data.n, data.r, g)
    glob = state.split(state.mu)[1]
    glob[:data.p] = beta
    try:
        # a trial point far from the mode may overflow on its way to a failure
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mode, transforms, c_glob = _laplace_mode(data, prior, glob.copy())
            a1 = reparam.build_transforms(data, transforms.gp, "a1") if method == "a1" else None
    except RECOVERABLE:
        return state, "pooled"
    if np.sqrt((c_glob * c_glob).sum(axis=-1)).max() > LAPLACE_MAX_SD:
        return state, "pooled"
    glob[:] = mode
    state.cstar_global = _log_diag_halfvec(c_glob)
    if a1 is not None:
        state.split(state.mu)[0][:] = matcalc.solve_lower(a1.L, transforms.lam - a1.lam)
        # column k of L1^{-1} L2 solves L1 x = column k of L2
        state.cstar_local = _log_diag_halfvec(np.swapaxes(matcalc.solve_lower(
            a1.L[:, None], np.swapaxes(transforms.L, -1, -2)), -1, -2))
    return state, "laplace"


def fit(data, prior, config=None, **settings):
    """Run the optimizer until the stopping rule (Plateau) fires or max_iter
    is hit, from start_state at the pooled GLM's beta under the prior on
    beta (0 if that IRLS raises): FitResult.start; FitResult.start_kind is
    the start's kind, and a "laplace" start's first BOOST_STEPS steps take
    LAPLACE_BOOST times Adam's step size; no window holding one of them
    stops the fit (Plateau's hold). The settings are `config`, or
    FitConfig(**settings); FitResult.wall_time times all but the final ELBO.

    A converged fit returns Plateau.average, the average of its last
    window's iterates; a fit that reaches max_iter returns its last iterate.
    FitResult.window_means and converged are the Plateau's."""
    if config is None:
        config = FitConfig(**settings)
    elif settings:
        raise ConfigError("fit takes a FitConfig or its settings, not both")
    if prior.g2 != data.g2:
        raise ConfigError(f"the prior is on {prior.g2} omega values; r = {data.r} has {data.g2}")
    t_start = time.perf_counter()
    try:
        start = model.fit_pooled_glm(data, sigma_beta2=prior.sigma_beta2)
    except GlmmVbError:
        start = np.zeros(data.p)
    state, start_kind = start_state(data, prior, config.method, start)
    adam = AdamState.zeros(state.params.size)

    draws, anchor = LaneStream(config.seed, LANE_FIT), None
    boosted = BOOST_STEPS if start_kind == "laplace" else 0
    plateau = Plateau(config.window, config.tau, boosted)
    for it in range(1, config.max_iter + 1):
        alpha = ADAM_ALPHA * (LAPLACE_BOOST if it <= boosted else 1)
        elbo, anchor = step(data, prior, config, state, adam, it, draws, anchor, alpha)
        if plateau.push(elbo, state.params):
            state.params = plateau.average
            break
    wall = time.perf_counter() - t_start

    if config.final_elbo_draws > 0:
        elbo, elbo_se, rejected = elbo_estimate(data, prior, state, config.method,
                                                config.final_elbo_draws, config.seed)
    else:
        elbo, elbo_se, rejected = float("nan"), float("nan"), 0
    return FitResult(state=state, window_means=np.asarray(plateau.means), n_iter=it,
                     wall_time=wall, elbo=elbo, elbo_se=elbo_se, elbo_rejected=rejected,
                     converged=plateau.converged, config=config, start=start,
                     start_kind=start_kind)
