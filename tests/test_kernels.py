"""The contraction kernels of a fit step (Dataset's, its observation-major
layout's and matcalc's) against np.einsum, matcalc's small solve and
column reductions against numpy, their independence of the draw block, a
package free of np.einsum, a step path free of numpy's Python-level
wrappers, and the padding mask read only where a value is summed."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmvb import families, matcalc, model, reparam
from glmmvb.exceptions import NotPositiveDefiniteError

from conftest import random_dataset

REL_TOL = 1e-12


def _cases(data):
    """(name, kernel, einsum subscripts, operand specs, layout). Every kernel
    takes all of the einsum's operands; a spec is either the dataset's own
    array, taken as it is, or the trailing shape of an operand drawn with the
    leading (draw) dims in front. layout maps the einsum's result to the
    kernel's (observation-major: (..., J, n) per observation, (..., r, n)
    per subject, half-vec columns (..., r(r+1)/2, n) for symmetric blocks)."""
    n, J, p, r = data.n, data.J, data.p, data.r
    X, Z = data.X, data.Z
    obs = data._obs_major()
    oX, oZ = obs.X, obs.Z
    same = None
    return [
        ("xbeta", lambda _, beta: data.xbeta(beta), "njp,...p->...nj", [X, (p,)], same),
        ("zb", lambda _, b: data.zb(b), "njr,...nr->...nj", [Z, (n, r)], same),
        ("zt", lambda _, v: data.zt(v), "njr,...nj->...nr", [Z, (n, J)], same),
        ("xt", lambda _, v: data.xt(v), "njp,...nj->...p", [X, (n, J)], same),
        ("zwx", lambda _, w, __: data.zwx(w), "njr,...nj,njp->...nrp", [Z, (n, J), X], same),
        ("zmz", lambda _, M, __: data.zmz(M), "njr,...nrs,njs->...nj", [Z, (n, r, r), Z], same),
        ("matvec", matcalc.matvec, "...nrs,...ns->...nr", [(n, r, p), (n, p)], same),
        ("matvec, fixed blocks", matcalc.matvec, "nrs,...ns->...nr", [Z, (n, r)], same),
        ("matvec_rows", matcalc.matvec_rows, "...rs,...ns->...nr", [(r, p), (n, p)], same),
        ("matvec_fixed", matcalc.matvec_fixed, "njp,...p->...nj", [X, (p,)], same),
        # the observation-major kernels of the a2 mode search
        ("obs xbeta", lambda _, beta: obs.xbeta(beta), "jnp,...p->...jn", [oX, (p,)], same),
        ("obs eta", lambda _, b: obs.eta(0.0, b), "rjn,...rn->...jn", [oZ, (r, n)], same),
        ("obs zt", lambda _, v: obs.zt(v), "rjn,...jn->...rn", [oZ, (J, n)], same),
        ("obs zwz", lambda _, w, __: obs.zwz(w), "rjn,...jn,sjn->...nrs", [oZ, (J, n), oZ],
         lambda a: np.swapaxes(matcalc.halfvec(a), -1, -2)),
        ("obs sum_obs", obs.sum_obs, "...jn->...n", [(J, n)], same),
    ]


def _operands(rng, specs, lead):
    """The operands of a case, and which of them carry the leading dims."""
    batched = [isinstance(spec, tuple) for spec in specs]
    ops = [rng.standard_normal(lead + spec) if b else spec for spec, b in zip(specs, batched)]
    return ops, batched


class TestKernels:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), J=st.integers(1, 5), p=st.integers(1, 5),
           r=st.sampled_from([1, 2, 3]), lead=st.sampled_from([(), (3,), (2, 3)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_match_einsum_and_do_not_depend_on_the_block(self, n, J, p, r, lead, seed):
        rng = np.random.default_rng(seed)
        data = model.Dataset(families.POISSON, np.zeros((n, J)),
                             rng.standard_normal((n, J, p)), rng.standard_normal((n, J, r)))
        for name, kernel, subscripts, specs, layout in _cases(data):
            ops, batched = _operands(rng, specs, lead)
            got = kernel(*ops)
            want = np.einsum(subscripts, *ops)
            # a sum of products rounds within a few eps of its terms' magnitudes
            scale = np.einsum(subscripts, *[np.abs(op) for op in ops])
            if layout is not None:
                want, scale = layout(want), layout(scale)
            assert got.shape == want.shape, name
            assert np.all(np.abs(got - want) <= REL_TOL * scale), name
            # a row of a batch equals that row computed alone, byte for byte
            for k in np.ndindex(lead):
                row = kernel(*[op[k][None] if b else op for op, b in zip(ops, batched)])[0]
                assert row.tobytes() == np.ascontiguousarray(got[k]).tobytes(), (name, k)

    def test_observation_major_arrays_are_the_datasets(self, rng):
        data = random_dataset(rng, families.BINOMIAL, r=3, n=5, p=2)
        obs = data._obs_major()
        for name in ("y", "trials"):
            assert getattr(obs, name).tobytes() == getattr(data, name).T.copy().tobytes(), name
        assert obs.X.tobytes() == data.X.transpose(1, 0, 2).copy().tobytes()
        assert obs.Z.tobytes() == data.Z.transpose(2, 1, 0).copy().tobytes()
        assert data._obs_major() is obs  # built once


def _spd_blocks(rng, shape, r):
    """Well-conditioned SPD blocks A A' + r I of order r, symmetric to the bit."""
    a = rng.standard_normal(shape + (r, r))
    s = a @ a.swapaxes(-1, -2) + r * np.eye(r)
    return 0.5 * (s + s.swapaxes(-1, -2))


class TestSolveAndColumnReductions:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), s=st.integers(1, 4), r=st.sampled_from([1, 2, 3]),
           lead=st.sampled_from([(), (3,), (2, 3)]), seed=st.integers(0, 2 ** 32 - 1))
    def test_match_numpy_and_do_not_depend_on_the_block(self, n, s, r, lead, seed):
        rng = np.random.default_rng(seed)
        P, g = _spd_blocks(rng, lead + (n,), r), rng.standard_normal(lead + (n, r))
        x = rng.standard_normal(lead + (n, s))
        # the solve's layout: n blocks as half-vec columns, n right-hand sides as columns
        h, g_cols, x_cols = (np.swapaxes(v, -1, -2) for v in (matcalc.halfvec(P), g, x))
        cases = [
            # (name, kernel, operands, want, the magnitude its round-off scales with)
            ("spd_solve", matcalc.spd_solve, (h, g_cols),
             np.swapaxes(np.linalg.solve(P, g[..., None])[..., 0], -1, -2),
             np.swapaxes(matcalc.matvec(np.abs(np.linalg.inv(P)), np.abs(g)), -1, -2)),
            ("sym_blocks", matcalc.sym_blocks, (h,), P, 0.0),
            ("absmax", matcalc.absmax, (x_cols,), np.abs(x).max(axis=-1), 0.0),
        ]
        for name, kernel, ops, want, scale in cases:
            got = kernel(*ops)
            assert got.shape == want.shape, name
            assert np.all(np.abs(got - want) <= REL_TOL * scale), name
            for k in np.ndindex(lead):
                row = kernel(*[op[k][None] for op in ops])[0]
                assert row.tobytes() == np.ascontiguousarray(got[k]).tobytes(), (name, k)
        # C ordered whatever the block: a reduction's order follows the layout
        assert matcalc.sym_blocks(h).flags.c_contiguous
        # the Newton step is the one spd_inv's inverse gives
        want = matcalc.matvec(matcalc.spd_inv(P), g)
        assert matcalc.spd_solve(h, g_cols).tobytes() == np.swapaxes(want, -1, -2).tobytes()

    # a negative pivot (which LAPACK's inverse takes for r > 2) and a
    # singular block
    @pytest.mark.parametrize("r,first", [(1, -1.0), (2, -1.0), (1, 0.0), (2, 0.0), (3, 0.0)])
    def test_solve_raises_as_the_inverse_does(self, r, first):
        P = np.eye(r)
        P[0, 0] = first
        with pytest.raises(NotPositiveDefiniteError):
            matcalc.spd_inv(P)
        with pytest.raises(NotPositiveDefiniteError):
            matcalc.spd_solve(matcalc.halfvec(P)[:, None], np.ones((r, 1)))


# np.einsum in the package, as (module, enclosing function): none, set-up
# work included, since Dataset's kernels compute every sum over observations
EINSUM_SITES = set()

# the functions that read the padding mask (a name or attribute "mask"):
# Dataset builds it, and the log joint's value sum, the pooled GLM's row
# selection and the simulation writer need it. Every other sum runs over
# Dataset's zeroed padding, so the gradient, the transform builds and the
# a2 mode search's objective never see it.
MASK_SITES = {("model", "Dataset.__init__"), ("model", "log_joint"),
              ("model", "fit_pooled_glm"), ("fileio", "write_simulation")}


def _uses(source, names, numpy_only=False):
    """(enclosing function, line) of each attribute, name or import of one
    of names. With numpy_only, only attributes of np or numpy and imports
    from numpy count, so that ndarray methods and builtins of the same
    names pass."""
    uses = []

    def found(node):
        if isinstance(node, ast.Attribute):
            return node.attr in names and (not numpy_only or isinstance(node.value, ast.Name)
                                           and node.value.id in ("np", "numpy"))
        if isinstance(node, ast.Name):
            return node.id in names and not numpy_only
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return ((not numpy_only or isinstance(node, ast.ImportFrom) and node.module == "numpy")
                    and any(a.name.split(".")[-1] in names for a in node.names))
        return False

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if found(node):
            uses.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return uses


def _package_uses(names, numpy_only=False):
    package = pathlib.Path(matcalc.__file__).parent
    return {(path.stem, scope, line)
            for path in package.glob("*.py")
            for scope, line in _uses(path.read_text(), names, numpy_only)}


# numpy functions that are Python wrappers around an ndarray method or a
# cheaper call (np.any/np.all: .any()/.all() or np.count_nonzero; the views
# of np.swapaxes/np.diagonal: ndarray.swapaxes/diagonal; np.eye: the cached
# matcalc.eye), and the step path they stay off: every function of matcalc,
# reparam and gradients, and the step's functions in engine and model
WRAPPERS = {"any", "all", "swapaxes", "diagonal", "eye"}
STEP_PATH = {"matcalc": ("",), "reparam": ("",), "gradients": ("",),
             "engine": ("step", "estimator", "draw", "_global_params", "VariationalState"),
             "model": ("GlobalParams", "log_joint", "Dataset.xbeta", "Dataset.zb",
                       "Dataset.zt", "Dataset.xt", "Dataset.eta", "Dataset.zwx",
                       "Dataset.zmz", "Dataset._z_outer", "Dataset._obs_major",
                       "_ObsMajor.xbeta", "_ObsMajor.eta", "_ObsMajor.sum_obs",
                       "_ObsMajor._contract", "_ObsMajor.zt", "_ObsMajor.zwz"),
             "families": ("Poisson.derivs", "Binomial.derivs", "Bernoulli.derivs",
                          "_logistic_derivs")}
# the one use allowed there: matcalc.eye builds the identity it caches
WRAPPER_SITES = {("matcalc", "eye")}


def _on_step_path(module, scope):
    return any(scope == prefix or scope.startswith(prefix + ".") or prefix == ""
               for prefix in STEP_PATH.get(module, ()))


class TestEinsumStaysOffTheStepPath:
    def test_only_set_up_code_calls_einsum(self):
        found = _package_uses({"einsum"})
        assert {(module, scope) for module, scope, _ in found} == EINSUM_SITES, sorted(found)

    def test_finds_attributes_names_and_imports(self):
        source = ("from numpy import einsum\n"
                  "class A:\n    def f(self):\n        return np.einsum('i->', x)\n"
                  "def g():\n    return einsum('i->', x)\n"
                  "def h():\n    return np.sum(x)\n")
        assert _uses(source, {"einsum"}) == [("", 1), ("A.f", 4), ("g", 6)]


def _cached_arrays(data):
    """(name, array) of every array Dataset caches, the observation-major
    layout's attributes among them, whatever the nesting."""
    found = []

    def walk(name, value):
        if isinstance(value, np.ndarray):
            found.append((name, value))
        elif isinstance(value, (tuple, list)):
            for k, v in enumerate(value):
                walk(f"{name}[{k}]", v)
        elif isinstance(value, dict):
            for k, v in value.items():
                walk(f"{name}[{k!r}]", v)
        elif hasattr(value, "__dict__"):
            for k, v in vars(value).items():
                walk(f"{name}.{k}", v)

    walk("cache", data.cache)
    return found


class TestMaskStaysInTheValueSums:
    def test_only_the_value_sums_read_the_mask(self):
        found = _package_uses({"mask"})
        assert {(module, scope) for module, scope, _ in found} == MASK_SITES, sorted(found)

    def test_no_cache_holds_the_mask_under_another_name(self, rng):
        # the scan above finds reads of attributes named mask, so a copy of
        # the mask kept under another name would hide its reads from it
        data = random_dataset(rng, families.POISSON, r=2, n=6, p=2)
        assert not data.mask.all()  # ragged: the mask is not all ones
        gp = model.GlobalParams(0.1 * rng.standard_normal(2), 0.1 * rng.standard_normal(3), 2)
        for method in reparam.METHODS:
            reparam.build_transforms(data, gp, method)
        masks = {data.mask.tobytes(), data.mask.T.copy().tobytes()}
        names = [name for name, a in _cached_arrays(data)
                 if a.size == data.mask.size and np.ascontiguousarray(a).tobytes() in masks]
        assert names == []


class TestNumpyWrappersStayOffTheStepPath:
    def test_step_path_calls_no_wrapper(self):
        found = {(module, scope, line) for module, scope, line in _package_uses(WRAPPERS, True)
                 if _on_step_path(module, scope) and (module, scope) not in WRAPPER_SITES}
        assert not found, sorted(found)

    def test_the_step_path_names_what_the_package_has(self):
        # a renamed function would leave the scan looking at nothing
        from glmmvb import engine, families, gradients, model, reparam
        modules = {"matcalc": matcalc, "reparam": reparam, "gradients": gradients,
                   "engine": engine, "model": model, "families": families}
        for module, prefixes in STEP_PATH.items():
            for prefix in prefixes:
                obj = modules[module]
                for part in filter(None, prefix.split(".")):
                    obj = getattr(obj, part)

    def test_finds_numpy_attributes_and_imports_only(self):
        source = ("from numpy import any\n"
                  "import numpy as np\n"
                  "def f(x):\n"
                  "    return np.any(x), x.any(), any(x), all(x), numpy.swapaxes(x, 0, 1)\n"
                  "def g(x):\n"
                  "    return x.diagonal(), np.eye(2), y.all()\n")
        assert _uses(source, WRAPPERS, numpy_only=True) == [("", 1), ("f", 4), ("f", 4),
                                                            ("g", 6)]
        assert _on_step_path("engine", "step") and _on_step_path("matcalc", "spd_solve")
        assert _on_step_path("model", "GlobalParams.W_inv_t")
        assert not _on_step_path("engine", "start_state")
        assert not _on_step_path("model", "Dataset.__init__")
