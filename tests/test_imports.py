"""The package's runtime dependency is numpy alone: its modules import
nothing else outside the standard library, and scipy serves only the tests'
reference implementations. The demos and the benchmark import only names the
package has, and call its entry points and the functions of its modules with
arguments their signatures take. README's FitConfig table lists FitConfig's
fields with their defaults, its "Command line" section names every flag
of the CLI, and every `module.name` it cites exists in the package."""

import ast
import dataclasses
import importlib
import inspect
import itertools
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import glmmvb
from glmmvb import cli

PACKAGE = pathlib.Path(glmmvb.__file__).parent
ROOT = pathlib.Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the benchmark's scripts that call the package
BENCHMARKS = [ROOT / "benchmarks" / "workloads.py", ROOT / "benchmarks" / "selftest.py"]
# the entry points whose calls in the demos are checked against their signatures
CHECKED = (glmmvb.FitConfig, glmmvb.fit, glmmvb.simulate_dataset, glmmvb.normal_omega_prior,
           glmmvb.simulate_b, glmmvb.fit_sharded)


def _foreign_imports(source):
    """Line of each import in a module of something other than numpy, the
    package itself or the standard library."""
    allowed = {"numpy", PACKAGE.name} | set(sys.stdlib_module_names)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] not in allowed for name in names):
            found.append(node.lineno)
    return sorted(found)


class TestNumpyOnlyRuntime:
    def test_no_module_imports_beyond_numpy_and_the_standard_library(self):
        found = {(str(path.relative_to(PACKAGE)), line)
                 for path in PACKAGE.rglob("*.py")
                 for line in _foreign_imports(path.read_text())}
        assert found == set()

    def test_finds_imports(self):
        source = ("import numpy as np\nimport scipy.special as sc\nfrom scipy import linalg\n"
                  "from . import scipy\ndef f():\n    import os, scipy\n"
                  "from scipyx import y\nimport pandas as pd\nfrom numpy.linalg import solve\n"
                  "from glmmvb import engine\nimport collections.abc, numpyx\n")
        assert _foreign_imports(source) == [2, 3, 6, 7, 8, 11]

    def test_fresh_interpreter_loads_no_scipy(self):
        code = ("import sys, glmmvb, glmmvb.cli\n"
                "print(glmmvb.__file__)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60, check=True)
        imported_from, loaded = done.stdout.splitlines()
        assert pathlib.Path(imported_from).parent == PACKAGE
        assert loaded == "[]"


def _checked_calls(source):
    """(line, callee, bound arguments) of each call in a module of a CHECKED
    entry point, by the name it imported from glmmvb, and of each call
    module.attr(...) on a glmmvb module it imported, whose callee is named
    "module.attr". Resolving an imported name the package lacks raises
    ImportError, an attribute the module lacks AttributeError, and binding
    arguments the signature does not take TypeError. fit's keyword settings
    are bound to FitConfig."""
    tree = ast.parse(source)
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "glmmvb":
            module = importlib.import_module(node.module)
            for alias in node.names:
                # as the import statement does: an attribute, else a submodule
                names[alias.asname or alias.name] = (
                    getattr(module, alias.name) if hasattr(module, alias.name)
                    else importlib.import_module(f"{node.module}.{alias.name}"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and names.get(func.id) in CHECKED:
            callee = names[func.id]
            name = callee.__name__
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(names.get(func.value.id))):
            callee = getattr(names[func.value.id], func.attr)
            name = f"{func.value.id}.{func.attr}"
        else:
            continue
        # a starred argument stands for any number: bind only those before it
        positional = list(itertools.takewhile(lambda a: not isinstance(a, ast.Starred),
                                              node.args))
        bound = inspect.signature(callee).bind_partial(
            *[None] * len(positional), **{kw.arg: None for kw in node.keywords if kw.arg})
        if callee is glmmvb.fit:
            inspect.signature(glmmvb.FitConfig).bind_partial(**bound.arguments.get("settings", {}))
        found.append((node.lineno, name, dict(bound.arguments)))
    return found


class TestDemos:
    @pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
    def test_calls_match_the_package(self, path):
        assert _checked_calls(path.read_text())

    def test_every_entry_point_is_called_by_a_demo(self):
        called = {name for path in DEMOS for _, name, _ in _checked_calls(path.read_text())
                  if "." not in name}
        assert called == {entry.__name__ for entry in CHECKED}

    def test_finds_what_the_package_does_not_take(self):
        with pytest.raises(ImportError):
            _checked_calls("from glmmvb import no_such_name\n")
        with pytest.raises(TypeError):
            _checked_calls("from glmmvb import simulate_dataset\n"
                           "simulate_dataset('poisson-i', seed=1, n_obs=3)\n")
        with pytest.raises(TypeError):
            _checked_calls("from glmmvb import fit\nfit(data, prior, adam_alpha=0.1)\n")
        source = ("from glmmvb import fit as run, datasets\n"
                  "run(data, prior, None)\nrun(data, prior, method='a1')\n")
        assert _checked_calls(source) == [
            (2, "fit", {"data": None, "prior": None, "config": None}),
            (3, "fit", {"data": None, "prior": None, "settings": {"method": None}})]


class TestBenchmark:
    @pytest.mark.parametrize("path", BENCHMARKS, ids=lambda path: path.name)
    def test_calls_match_the_package(self, path):
        assert any("." in name for _, name, _ in _checked_calls(path.read_text()))

    def test_finds_module_calls_the_package_does_not_take(self):
        with pytest.raises(TypeError):
            _checked_calls("from glmmvb import fileio\n"
                           "fileio.write_trace(path, means, 1000, 'extra')\n")
        with pytest.raises(TypeError):
            _checked_calls("from glmmvb import recombine\n"
                           "recombine.fit_sharded(data, prior, cfg, 2, processes=1)\n")
        with pytest.raises(AttributeError):
            _checked_calls("from glmmvb import engine\nengine.no_such_function()\n")
        source = ("import numpy as np\nfrom glmmvb import engine, posterior as post\n"
                  "post.simulate_b(d, p, s, 'a1', *rest)\nnp.zeros(3)\nstate.split(x)\n")
        assert _checked_calls(source) == [
            (3, "post.simulate_b", {"data": None, "prior": None, "state": None,
                                    "method": None})]


def _table(text, header):
    """The rows, as lists of cells without spaces or backticks around them,
    of the first markdown table whose header row starts with the cells
    `header`."""
    lines = text.splitlines()
    key = "|" + "|".join(header) + "|"
    start = next(i for i, line in enumerate(lines) if line.replace(" ", "").startswith(key))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.split("|")[1:-1]])
    return rows


def _settings_table(text):
    """{setting: default} of the README table headed | setting | default |,
    each default read as a Python literal once its thousands commas go."""
    return {name: ast.literal_eval(default.replace(",", ""))
            for name, default, *_ in _table(text, ("setting", "default"))}


def _section(text, heading):
    """The text under the markdown heading `## heading`, up to the next."""
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _unnamed_flags(parser, text):
    """The parser's option strings that text does not name as a whole word:
    "--simulate-n" does not name "--simulate"."""
    return [opt for action in parser._actions for opt in action.option_strings
            if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", text)]


def _missing_names(text):
    """The backticked `module.name` spans of text, on a module of the
    package, whose name the module lacks; a span naming one of the package's
    files, such as `cli.py`, names no attribute."""
    modules = {m.name for m in pkgutil.iter_modules(glmmvb.__path__)}
    missing = []
    for span in re.findall(r"`([^`\n]+)`", text):
        cited = re.match(r"(\w+)\.(\w+)", span)
        if (cited and cited[1] in modules and not (PACKAGE / span).is_file()
                and not hasattr(importlib.import_module(f"glmmvb.{cited[1]}"), cited[2])):
            missing.append(cited[0])
    return missing


class TestReadme:
    def test_fit_config_table_matches_the_fields(self):
        table = _settings_table((ROOT / "README.md").read_text())
        fields = {f.name: f.default for f in dataclasses.fields(glmmvb.FitConfig)}
        assert list(table) == list(fields)
        assert table == fields

    def test_fit_result_table_matches_the_fields(self):
        rows = _table((ROOT / "README.md").read_text(), ("field", "meaning"))
        assert [row[0] for row in rows] == [f.name for f in dataclasses.fields(glmmvb.FitResult)]

    def test_every_cli_flag_is_documented(self):
        text = _section((ROOT / "README.md").read_text(), "Command line")
        assert _unnamed_flags(cli.build_parser(), text) == []

    def test_finds_a_flag_named_only_inside_a_longer_one(self):
        parser = cli.build_parser()
        named = " ".join(opt for action in parser._actions for opt in action.option_strings
                         if opt != "--simulate")
        assert _unnamed_flags(parser, named) == ["--simulate"]

    def test_every_cited_name_exists(self):
        assert _missing_names((ROOT / "README.md").read_text()) == []

    def test_finds_a_cited_name_the_package_lacks(self):
        text = ("`engine.DRAW_BLOCK_BYTES`, `engine.NO_SUCH_CONSTANT` and "
                "`posterior.simulate_b(data, ...)`, in `cli.py` and `np.errstate`")
        assert _missing_names(text) == ["engine.NO_SUCH_CONSTANT"]

    def test_reads_quoted_and_grouped_defaults(self):
        text = ("intro\n\n| setting | default | meaning |\n|---|---|---|\n"
                "| `method` | `\"a2\"` | m |\n| `max_iter` | 200,000 | n |\n\nafter\n")
        assert _settings_table(text) == {"method": "a2", "max_iter": 200_000}
