"""The contraction kernels of a fit step (Dataset's and matcalc's) against
np.einsum, matcalc's small solve and column reductions against numpy,
their independence of the draw block, a package free of np.einsum, a step
path free of numpy's Python-level wrappers, and the padding mask read only
where a value is summed."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmvb import families, matcalc, model
from glmmvb.exceptions import NotPositiveDefiniteError

REL_TOL = 1e-12


def _cases(data):
    """(name, kernel, einsum subscripts, operand specs). Every kernel takes
    all of the einsum's operands; a spec is either the dataset's own array,
    taken as it is, or the trailing shape of an operand drawn with the
    leading (draw) dims in front."""
    n, J, p, r = data.n, data.J, data.p, data.r
    X, Z = data.X, data.Z
    return [
        ("xbeta", lambda _, beta: data.xbeta(beta), "njp,...p->...nj", [X, (p,)]),
        ("zb", lambda _, b: data.zb(b), "njr,...nr->...nj", [Z, (n, r)]),
        ("zt", lambda _, v: data.zt(v), "njr,...nj->...nr", [Z, (n, J)]),
        ("xt", lambda _, v: data.xt(v), "njp,...nj->...p", [X, (n, J)]),
        ("zwz", lambda _, w, __: data.zwz(w), "njr,...nj,njs->...nrs", [Z, (n, J), Z]),
        ("zwx", lambda _, w, __: data.zwx(w), "njr,...nj,njp->...nrp", [Z, (n, J), X]),
        ("zmz", lambda _, M, __: data.zmz(M), "njr,...nrs,njs->...nj", [Z, (n, r, r), Z]),
        ("matvec", matcalc.matvec, "...nrs,...ns->...nr", [(n, r, p), (n, p)]),
        ("matvec, fixed blocks", matcalc.matvec, "nrs,...ns->...nr", [Z, (n, r)]),
        ("matvec_rows", matcalc.matvec_rows, "...rs,...ns->...nr", [(r, p), (n, p)]),
        ("matvec_fixed", matcalc.matvec_fixed, "njp,...p->...nj", [X, (p,)]),
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
        for name, kernel, subscripts, specs in _cases(data):
            ops, batched = _operands(rng, specs, lead)
            got = kernel(*ops)
            want = np.einsum(subscripts, *ops)
            # a sum of products rounds within a few eps of its terms' magnitudes
            scale = np.einsum(subscripts, *[np.abs(op) for op in ops])
            assert got.shape == want.shape, name
            assert np.all(np.abs(got - want) <= REL_TOL * scale), name
            # a row of a batch equals that row computed alone, byte for byte
            for k in np.ndindex(lead):
                row = kernel(*[op[k][None] if b else op for op, b in zip(ops, batched)])[0]
                assert row.tobytes() == np.ascontiguousarray(got[k]).tobytes(), (name, k)


def _spd_blocks(rng, shape, r):
    """Well-conditioned SPD blocks A A' + r I of order r."""
    a = rng.standard_normal(shape + (r, r))
    return a @ a.swapaxes(-1, -2) + r * np.eye(r)


class TestSolveAndColumnReductions:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), s=st.integers(1, 4), r=st.sampled_from([1, 2, 3]),
           lead=st.sampled_from([(), (3,), (2, 3)]), seed=st.integers(0, 2 ** 32 - 1))
    def test_match_numpy_and_do_not_depend_on_the_block(self, n, s, r, lead, seed):
        rng = np.random.default_rng(seed)
        P, g = _spd_blocks(rng, lead + (n,), r), rng.standard_normal(lead + (n, r))
        a, x = rng.standard_normal((2,) + lead + (n, s))
        cases = [
            # (name, kernel, operands, want, the magnitude its round-off scales with)
            ("spd_solve", matcalc.spd_solve, (P, g), np.linalg.solve(P, g[..., None])[..., 0],
             matcalc.matvec(np.abs(np.linalg.inv(P)), np.abs(g))),
            ("absmax", matcalc.absmax, (x,), np.abs(x).max(axis=-1), 0.0),
            # b'Omega b in the mode search's objective: a 1 x s block times x
            ("row times x", lambda a, x: matcalc.matvec(a[..., None, :], x)[..., 0], (a, x),
             np.einsum("...s,...s->...", a, x), np.einsum("...s,...s->...", np.abs(a), np.abs(x))),
        ]
        for name, kernel, ops, want, scale in cases:
            got = kernel(*ops)
            assert got.shape == want.shape, name
            assert np.all(np.abs(got - want) <= REL_TOL * scale), name
            for k in np.ndindex(lead):
                row = kernel(*[op[k][None] for op in ops])[0]
                assert row.tobytes() == np.ascontiguousarray(got[k]).tobytes(), (name, k)
        # the Newton step is the one spd_inv gave before the solve replaced it
        assert matcalc.spd_solve(P, g).tobytes() == matcalc.matvec(matcalc.spd_inv(P), g).tobytes()

    # a negative pivot (which LAPACK's inverse takes for r > 2) and a
    # singular block
    @pytest.mark.parametrize("r,first", [(1, -1.0), (2, -1.0), (1, 0.0), (2, 0.0), (3, 0.0)])
    def test_solve_raises_as_the_inverse_does(self, r, first):
        P = np.eye(r)
        P[0, 0] = first
        with pytest.raises(NotPositiveDefiniteError):
            matcalc.spd_inv(P)
        with pytest.raises(NotPositiveDefiniteError):
            matcalc.spd_solve(P, np.ones(r))


# np.einsum in the package, as (module, enclosing function): none, set-up
# work included, since Dataset's kernels compute every sum over observations
EINSUM_SITES = set()

# the functions that read the padding mask (a name or attribute "mask"):
# Dataset builds it, and the value sums and the pooled GLM's row selection
# and the simulation writer need it. Every other sum runs over Dataset's
# zeroed padding, so the gradient and the transform builds never see it.
MASK_SITES = {("model", "Dataset.__init__"), ("model", "log_joint"),
              ("model", "fit_pooled_glm"), ("reparam", "_conditional_objective"),
              ("fileio", "write_simulation")}


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
                       "Dataset.zt", "Dataset.xt", "Dataset.eta", "Dataset.zwz",
                       "Dataset.zwx", "Dataset.zmz", "Dataset._z_outer"),
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


class TestMaskStaysInTheValueSums:
    def test_only_the_value_sums_read_the_mask(self):
        found = _package_uses({"mask"})
        assert {(module, scope) for module, scope, _ in found} == MASK_SITES, sorted(found)


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
