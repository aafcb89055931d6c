"""The contraction kernels of a fit step (Dataset's and matcalc's) against
np.einsum, their independence of the draw block, and the einsum-free step
path."""

import ast
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from glmmvb import families, matcalc, model

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


# np.einsum in the package, as (module, enclosing function): set-up work
# outside the fit step, namely a1's cache of the parts free of theta_G, the
# default prior's pooled crossproduct and simulate_b's exact sds of b~
EINSUM_SITES = {("reparam", "transform_a1"), ("model", "default_prior"),
                ("posterior", "simulate_b")}


def _einsum_uses(source):
    """(enclosing function, line) of each einsum attribute, name or import."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        names = ([a.name for a in node.names]
                 if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
        if (isinstance(node, ast.Attribute) and node.attr == "einsum"
                or isinstance(node, ast.Name) and node.id == "einsum"
                or any(name.split(".")[-1] == "einsum" for name in names)):
            uses.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return uses


class TestEinsumStaysOffTheStepPath:
    def test_only_set_up_code_calls_einsum(self):
        package = pathlib.Path(matcalc.__file__).parent
        found = {(path.stem, scope, line)
                 for path in package.glob("*.py")
                 for scope, line in _einsum_uses(path.read_text())}
        assert {(module, scope) for module, scope, _ in found} == EINSUM_SITES, sorted(found)

    def test_finds_attributes_names_and_imports(self):
        source = ("from numpy import einsum\n"
                  "class A:\n    def f(self):\n        return np.einsum('i->', x)\n"
                  "def g():\n    return einsum('i->', x)\n"
                  "def h():\n    return np.sum(x)\n")
        assert _einsum_uses(source) == [("", 1), ("A.f", 4), ("g", 6)]
