import ast
import os
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glmmvb import cli, datasets, engine, families, fileio, model, simulate
from glmmvb.exceptions import (
    ConfigError,
    DataError,
    InvalidResponseError,
    MissingColumnError,
    ParseError,
)

from conftest import separable_bernoulli


class TestLoadCsv:
    def test_epilepsy_grouping(self):
        data = fileio.load_csv(datasets.fixture_path("epilepsy.csv"), "poisson",
                               "subject", ["lbase", "trt"], [], intercept="both")
        assert data.n == 59
        assert np.all(data.n_obs == 4)
        assert data.total_obs == 236
        assert data.x_names == ["intercept", "lbase", "trt"]

    def test_seeds_single_observation_groups(self):
        data = fileio.load_csv(datasets.fixture_path("seeds.csv"), "binomial",
                               "plate", ["seed", "extract"], [],
                               response_col="germinated", trials_col="total")
        assert data.n == 21
        assert np.all(data.n_obs == 1)

    def test_invalid_response_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("group,y\n1,2\n1,-1\n")
        with pytest.raises(InvalidResponseError) as err:
            fileio.load_csv(str(p), "poisson", "group", [], [])
        assert err.value.line == 3

    def test_unknown_family_is_a_config_error(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("group,y\n1,2\n")
        with pytest.raises(ConfigError, match="unknown family 'gaussian'"):
            fileio.load_csv(str(p), "gaussian", "group", [], [])

    def test_missing_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("group,y\n1,2\n")
        with pytest.raises(MissingColumnError):
            fileio.load_csv(str(p), "poisson", "group", ["nope"], [])

    def test_unparseable_cell(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("group,y\n1,2\n1,huh\n")
        with pytest.raises(ParseError) as err:
            fileio.load_csv(str(p), "poisson", "group", [], [])
        assert err.value.line == 3

    def test_blank_line_keeps_physical_line_numbers(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("group,y\n1,2\n\n1,-1\n")
        with pytest.raises(InvalidResponseError) as err:
            fileio.load_csv(str(p), "poisson", "group", [], [])
        assert err.value.line == 4

    def test_reports_first_bad_row_of_the_file(self, tmp_path):
        # the bad rows are in two groups; the group seen first has the later one
        p = tmp_path / "two.csv"
        p.write_text("group,y\nb,1\na,-2\nb,-3\n")
        with pytest.raises(InvalidResponseError) as err:
            fileio.load_csv(str(p), "poisson", "group", [], [])
        assert err.value.line == 3

    def test_reports_first_bad_trial_count_of_the_file(self, tmp_path):
        # groups b, a, c in file order; the bad trial counts are c's line 4 and
        # a's line 5, so a comes before c among the subjects but after it in
        # the file; b's line 6 has a bad response, checked after the trials
        p = tmp_path / "trials.csv"
        p.write_text("group,y,m\nb,1,2\na,2,3\nc,1,0\na,1,2.5\nb,4,3\n")
        with pytest.raises(InvalidResponseError) as err:
            fileio.load_csv(str(p), "binomial", "group", [], [], trials_col="m")
        assert err.value.line == 4

    def test_validates_each_load_once(self, monkeypatch):
        calls = []
        validate = families.Binomial.validate
        monkeypatch.setattr(families.Binomial, "validate",
                            lambda *args, **kw: calls.append(1) or validate(*args, **kw))
        fileio.load_csv(datasets.fixture_path("seeds.csv"), "binomial", "plate",
                        ["seed", "extract"], [], response_col="germinated", trials_col="total")
        assert len(calls) == 1

    @pytest.mark.parametrize("fixed,intercept,error,match", [
        (["x"], "fixed", ConfigError, "invalid intercept mode 'fixed'"),
        ([], "z", ConfigError, "empty design"),
        (["x"], "x", ConfigError, "empty design"),
    ], ids=["bad intercept", "no fixed effects", "no random effects"])
    def test_design_options_are_checked_before_reading(self, tmp_path, fixed, intercept,
                                                       error, match):
        # the file does not exist: the options are checked before it is opened
        with pytest.raises(error, match=match):
            fileio.load_csv(str(tmp_path / "absent.csv"), "poisson", "group", fixed, [],
                            intercept=intercept)

    @pytest.mark.parametrize("text", ["group,y\n", "group,y\n\n\n"], ids=["header", "blank"])
    def test_no_data_rows_is_a_parse_error(self, tmp_path, text):
        p = tmp_path / "empty.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match="no data rows") as err:
            fileio.load_csv(str(p), "poisson", "group", [], [])
        assert err.value.line == 1

    def test_blank_rows_skipped(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("group,y\n\n1,2\n\n2,3\n1,4\n\n")
        data = fileio.load_csv(str(p), "poisson", "group", [], [])
        np.testing.assert_array_equal(data.y, [[2.0, 4.0], [3.0, 0.0]])
        np.testing.assert_array_equal(data.n_obs, [2, 1])

    def test_short_row_reports_line(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("group,y,x\n1,2,0.5\n\n1,3\n")
        with pytest.raises(ParseError) as err:
            fileio.load_csv(str(p), "poisson", "group", ["x"], [])
        assert err.value.line == 4

    def test_noncontiguous_groups_stably_collected(self, tmp_path):
        p = tmp_path / "nc.csv"
        p.write_text("group,y\nb,1\na,2\nb,3\na,4\n")
        data = fileio.load_csv(str(p), "poisson", "group", [], [])
        assert data.group_labels == ["b", "a"]
        np.testing.assert_array_equal(data.y[0, :2], [1.0, 3.0])
        np.testing.assert_array_equal(data.y[1, :2], [2.0, 4.0])

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
           binomial=st.booleans(), newline=st.sampled_from(["\n", "\r\n"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_builds_what_from_lists_builds(self, tmp_path, sizes, binomial, newline, seed):
        # the same rows in a shuffled file: subjects are neither contiguous nor
        # in label order, and the file's first appearances set their order;
        # lines may end in LF, as the package writes them, or in CR LF
        rng = np.random.default_rng(seed)
        group = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        labels = [f"s{k}" for k in rng.permutation(len(sizes))]
        m = rng.integers(1, 9, group.size).astype(float)
        y = np.floor(rng.random(group.size) * (m + 1)) if binomial \
            else rng.poisson(3.0, group.size).astype(float)
        X, Z = rng.standard_normal((group.size, 2)), rng.standard_normal((group.size, 1))
        path = tmp_path / "rows.csv"
        path.write_bytes(newline.join(["g,y,m,x1,x2,z"] + [
            ",".join([labels[k]] + [repr(float(v)) for v in (y[t], m[t], *X[t], *Z[t])])
            for t, k in enumerate(group)]).encode() + newline.encode())
        fam = families.BINOMIAL if binomial else families.POISSON
        got = fileio.load_csv(str(path), fam, "g", ["x1", "x2"], ["z"],
                              trials_col="m" if binomial else None, intercept="none")
        first = list(dict.fromkeys(group))
        rows = [group == k for k in first]
        want = model.Dataset.from_lists(fam, [y[r] for r in rows], [X[r] for r in rows],
                                        [Z[r] for r in rows],
                                        [m[r] for r in rows] if binomial else None)
        assert got.group_labels == [labels[k] for k in first]
        for name in ("y", "X", "Z", "trials", "n_obs", "mask"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestBundledDatasets:
    # subjects in file order: the placebo arm, then the treated arm
    EPILEPSY_LABELS = (
        "104 106 107 114 116 118 123 126 130 135 141 145 201 202 205 206 210 213 215 "
        "217 219 220 222 226 227 230 234 238 101 102 103 108 110 111 112 113 117 121 "
        "122 124 128 129 137 139 143 147 203 204 207 208 209 211 214 218 221 225 228 "
        "232 236").split()
    # name -> (x_names, z_names, (n, J, p, r), group labels)
    DESIGNS = {
        "epilepsy I": (["intercept", "lbase", "trt", "lbase_trt", "lage", "v4"],
                       ["intercept"], (59, 4, 6, 1), EPILEPSY_LABELS),
        "epilepsy II": (["intercept", "lbase", "trt", "lbase_trt", "lage", "visit"],
                        ["intercept", "visit"], (59, 4, 6, 2), EPILEPSY_LABELS),
        "seeds": (["intercept", "seed", "extract"], ["intercept"], (21, 1, 3, 1),
                  [str(k) for k in range(1, 22)]),
    }

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_design(self, name):
        data = (datasets.seeds_dataset() if name == "seeds"
                else datasets.epilepsy_dataset(name.split()[1]))
        x_names, z_names, shape, labels = self.DESIGNS[name]
        assert data.x_names == x_names and data.z_names == z_names
        assert (data.n, data.J, data.p, data.r) == shape
        assert data.group_labels == labels

    def test_epilepsy_columns_are_the_derived_covariates(self):
        one, two = datasets.epilepsy_dataset("I"), datasets.epilepsy_dataset("II")
        np.testing.assert_array_equal(one.X[..., 3], one.X[..., 1] * one.X[..., 2])
        np.testing.assert_array_equal(two.X[..., :5], one.X[..., :5])
        np.testing.assert_array_equal(two.Z[..., 1], two.X[..., 5])
        np.testing.assert_array_equal(two.X[0, :, 5], [-0.3, -0.1, 0.1, 0.3])

    def test_unknown_epilepsy_model(self):
        with pytest.raises(ValueError):
            datasets.epilepsy_dataset("III")


class TestPriorFile:
    def test_wishart(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("type,wishart\nsigma_beta2,50\nnu,3\nS,2,0.5\nS,0.5,1\n")
        prior = fileio.read_prior_file(str(p), 2)
        assert isinstance(prior, model.WishartPrior)
        assert prior.sigma_beta2 == 50.0 and prior.nu == 3.0
        np.testing.assert_array_equal(prior.S, [[2.0, 0.5], [0.5, 1.0]])

    def test_normal_omega(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("type,normal-omega\nmean,0,0.5,1\nsd,5\n")
        prior = fileio.read_prior_file(str(p), 2)
        assert isinstance(prior, model.NormalOmegaPrior)
        assert prior.sigma_beta2 == model.DEFAULT_SIGMA_BETA2
        np.testing.assert_array_equal(prior.mean, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(prior.sd, [5.0, 5.0, 5.0])

    def test_normal_omega_single_mean_fits_r2(self, tmp_path):
        # one mean holds for every coordinate of omega, as one sd does
        p = tmp_path / "n.csv"
        p.write_text("type,normal-omega\nmean,0\nsd,1\n")
        prior = fileio.read_prior_file(str(p), 2)
        np.testing.assert_array_equal(prior.mean, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(prior.sd, [1.0, 1.0, 1.0])
        args = ["--data", datasets.fixture_path("epilepsy.csv"), "--family", "poisson",
                "--group-col", "subject", "--response-col", "y", "--fixed", "lbase,visit_code",
                "--random", "visit_code", "--prior", "file", "--prior-file", str(p),
                "--method", "a1", "--max-iter", "50", "--draws", "200",
                "--out", str(tmp_path / "o")]
        assert run_cli(args) == 0

    def test_asymmetric_scale_is_a_configuration_error(self, tmp_path):
        # S positive definite but mistyped below the diagonal
        p = tmp_path / "w.csv"
        p.write_text("nu,3\nS,2,0.5\nS,0,2\n")
        with pytest.raises(ConfigError, match="symmetric"):
            fileio.read_prior_file(str(p), 2)
        args = ["--data", datasets.fixture_path("epilepsy.csv"), "--family", "poisson",
                "--group-col", "subject", "--response-col", "y", "--fixed", "lbase,visit_code",
                "--random", "visit_code", "--prior", "file", "--prior-file", str(p),
                "--max-iter", "50", "--out", str(tmp_path / "o")]
        assert run_cli(args) == 2

    @pytest.mark.parametrize("text", ["nu,3\nS,1,0\n",
                                      "type,normal-omega\nmean,0,0\nsd,1\n",
                                      "type,normal-omega\nmean,0\nsd,1,1,1\n"])
    def test_wrong_size_is_a_configuration_error(self, tmp_path, text):
        p = tmp_path / "prior.csv"
        p.write_text(text)
        with pytest.raises(ConfigError):
            fileio.read_prior_file(str(p), 2)

    @pytest.mark.parametrize("text", ["type,wishart\nS,1\n", "S,1\n",
                                      "type,normal-omega\nmean,0\n",
                                      "type,normal-omega\nsd,1\n",
                                      # a key with no value
                                      "nu\nS,0.5\n", "type\nnu,3\nS,0.5\n",
                                      "sigma_beta2\nnu,3\nS,0.5\n"])
    def test_missing_key_is_a_configuration_error(self, tmp_path, text):
        p = tmp_path / "prior.csv"
        p.write_text(text)
        args = ["--data", datasets.fixture_path("seeds.csv"), "--family", "binomial",
                "--group-col", "plate", "--response-col", "germinated",
                "--trials-col", "total", "--prior", "file", "--prior-file", str(p),
                "--out", str(tmp_path / "o")]
        assert run_cli(args) == 2

    # a misspelt key, and a key of the other prior type, would otherwise be
    # dropped and leave their setting at its default
    @pytest.mark.parametrize("text,key", [("nu,3\nS,0.5\nsigma_beta,1\n", "sigma_beta"),
                                          ("nu,3\nS,0.5\nmean,0\n", "mean"),
                                          ("type,normal-omega\nmean,0\nsd,1\nnu,3\n", "nu")],
                             ids=["misspelt", "normal-omega-key", "wishart-key"])
    def test_unknown_key_is_a_configuration_error(self, tmp_path, text, key):
        p = tmp_path / "prior.csv"
        p.write_text(text)
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            fileio.read_prior_file(str(p), 1)
        args = ["--data", datasets.fixture_path("seeds.csv"), "--family", "binomial",
                "--group-col", "plate", "--response-col", "germinated",
                "--trials-col", "total", "--prior", "file", "--prior-file", str(p),
                "--out", str(tmp_path / "o")]
        assert run_cli(args) == 2

    # otherwise a scalar key with more values reads as its first value, and
    # of a key on two lines one line is silently dropped
    @pytest.mark.parametrize("text,match", [
        ("nu,3,4\nS,0.5\n", "'nu' takes one value"),
        ("nu,3\nS,0.5\nsigma_beta2,10,20\n", "'sigma_beta2' takes one value"),
        ("nu,3\nS,0.5\nnu,4\n", "'nu' is on more than one line"),
        ("type,normal-omega\nmean,0\nsd,1\nmean,1\n", "'mean' is on more than one line"),
    ], ids=["nu-two-values", "sigma_beta2-two-values", "nu-two-lines", "mean-two-lines"])
    def test_keys_are_given_once(self, tmp_path, text, match):
        p = tmp_path / "prior.csv"
        p.write_text(text)
        with pytest.raises(ConfigError, match=match):
            fileio.read_prior_file(str(p), 1)
        args = ["--data", datasets.fixture_path("seeds.csv"), "--family", "binomial",
                "--group-col", "plate", "--response-col", "germinated",
                "--trials-col", "total", "--prior", "file", "--prior-file", str(p),
                "--max-iter", "50", "--out", str(tmp_path / "o")]
        assert run_cli(args) == 2

    # settings that define no prior: the fit would fail at its first step
    @pytest.mark.parametrize("text,match", [("type,normal-omega\nmean,0\nsd,nan\n", "sds"),
                                            ("type,normal-omega\nmean,nan\nsd,1\n", "means"),
                                            ("type,normal-omega\nmean,inf\nsd,1\n", "means"),
                                            ("nu,3\nS,-1\n", "S must be positive definite"),
                                            ("nu,3\nS,nan\n", "S must be positive definite"),
                                            ("nu,inf\nS,1\n", "degrees of freedom")],
                             ids=["sd-nan", "mean-nan", "mean-inf", "S-negative", "S-nan",
                                  "nu-inf"])
    def test_prior_file_that_defines_no_prior(self, tmp_path, text, match):
        p = tmp_path / "prior.csv"
        p.write_text(text)
        with pytest.raises(ConfigError, match=match):
            fileio.read_prior_file(str(p), 1)
        args = ["--data", datasets.fixture_path("seeds.csv"), "--family", "binomial",
                "--group-col", "plate", "--response-col", "germinated",
                "--trials-col", "total", "--prior", "file", "--prior-file", str(p),
                "--max-iter", "50", "--out", str(tmp_path / "o")]
        assert run_cli(args) == 2


    def test_unknown_prior_type_is_a_configuration_error(self, tmp_path):
        p = tmp_path / "prior.csv"
        p.write_text("type,gamma\nnu,3\nS,1\n")
        with pytest.raises(ConfigError, match="unknown prior type 'gamma'"):
            fileio.read_prior_file(str(p), 1)


class TestStateFile:
    def test_bit_exact_roundtrip(self, tmp_path, rng):
        state = engine.VariationalState.initial(3, 2, 4)
        state.mu = rng.standard_normal(state.d)
        state.cstar_local = rng.standard_normal(state.cstar_local.shape)
        state.cstar_global = rng.standard_normal(state.cstar_global.size)
        path = str(tmp_path / "state.txt")
        fileio.write_state(path, state, "a1", "poisson", 3)
        back, meta = fileio.read_state(path)
        np.testing.assert_array_equal(back.mu, state.mu)
        np.testing.assert_array_equal(back.cstar_local, state.cstar_local)
        np.testing.assert_array_equal(back.cstar_global, state.cstar_global)
        assert meta["method"] == "a1" and meta["family"] == "poisson"
        assert (back.n, back.r, back.g) == (3, 2, 4)

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("something else\n")
        with pytest.raises(ParseError):
            fileio.read_state(str(p))

    # a valid file of n = 2, r = 2, g = 3: header on lines 1-7, section mu on
    # 8-9, cstar_local on 10-12, cstar_global on 13-14
    @pytest.mark.parametrize("edit, line", [
        (lambda ls: ls[:11], 12),                              # truncated in a section
        (lambda ls: ls[:7], 8),                                # truncated after the header
        (lambda ls: ls[:11] + ["0.5,0.5"] + ls[12:], 12),      # short cstar_local row
        (lambda ls: ls[:8] + ["0,1,x,3,4,5,6"] + ls[9:], 9),   # non-numeric value
        (lambda ls: ls[:8] + [ls[8] + ",7"] + ls[9:], 9),      # long mu row
        (lambda ls: ls[:2] + ls[3:], 7),                       # no r header line
        (lambda ls: ls[:2] + ["r,two"] + ls[3:], 8),           # non-integer r
        (lambda ls: ls[:7] + ["junk"] + ls[7:], 8),            # header line without a comma
        (lambda ls: ls[:12] + ls[13:], 13),                    # missing section line
        (lambda ls: ls + ["1,2,3"], 15),                       # a row after the last section
        (lambda ls: ls + ["section,extra"], 15),               # a section after the last
        (lambda ls: ls + ["", " ", "1,2,3"], 17),              # blank lines are skipped
        (lambda ls: ls[:4] + ["method,a2"] + ls[4:], 6),       # a repeated header key
    ], ids=["truncated", "header-only", "short-row", "non-numeric", "long-row",
            "no-r", "non-integer-r", "no-comma", "no-section", "extra-row",
            "extra-section", "extra-row-after-blanks", "repeated-key"])
    def test_malformed_file_names_its_line(self, tmp_path, edit, line):
        path = tmp_path / "state.txt"
        fileio.write_state(path, engine.VariationalState.initial(2, 2, 3), "a1", "poisson", 3)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ParseError) as info:
            fileio.read_state(path)
        assert info.value.line == line

    # the header of a valid n = 2, r = 2, g = 3 file with n set below zero or
    # r or g below one
    @pytest.mark.parametrize("line,value", [(2, "n,-1"), (3, "r,0"), (4, "g,-1")],
                             ids=["n", "r", "g"])
    def test_sizes_out_of_range_are_parse_errors(self, tmp_path, line, value):
        path = tmp_path / "state.txt"
        fileio.write_state(path, engine.VariationalState.initial(2, 2, 3), "a1", "poisson", 3)
        lines = path.read_text().splitlines()
        lines[line - 1] = value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="n must be non-negative, r and g positive") as info:
            fileio.read_state(path)
        assert info.value.line == 8  # the first section line, below the header

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 6), r=st.integers(1, 3), g=st.integers(1, 4), data=st.data())
    def test_roundtrip_is_bit_exact(self, tmp_path, n, r, g, data):
        state = engine.VariationalState.initial(n, r, g)
        values = st.one_of(
            st.floats(allow_nan=False),
            st.sampled_from([1e300, -1e300, 1.7976931348623157e308, 5e-324, -5e-324,
                             2.2250738585072014e-308, 1e-310, -0.0]))
        state.params = data.draw(st.lists(values, min_size=state.params.size,
                                          max_size=state.params.size))
        path = tmp_path / "state.txt"
        fileio.write_state(path, state, "a2", "bernoulli", 0)
        back, _ = fileio.read_state(path)
        assert (back.n, back.r, back.g) == (n, r, g)
        assert back.params.tobytes() == state.params.tobytes()


def run_cli(args):
    return cli.main(args)


class TestCliRuns:
    def _seeds_args(self, out, extra=()):
        return ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--fixed", "seed,extract", "--method", "a1", "--seed", "1",
                "--max-iter", "150", "--draws", "500",
                "--out", out, *extra]

    def test_seeds_fit_writes_outputs(self, tmp_path):
        out = str(tmp_path / "run")
        assert run_cli(self._seeds_args(out)) == 0
        for name in ("summary.csv", "trace.csv", "state.txt", "subjects.csv"):
            assert os.path.exists(os.path.join(out, name))
        lines = pathlib.Path(out, "summary.csv").read_text().splitlines()
        assert lines[0] == "key,value"
        params = [ln.split(",")[0] for ln in lines]
        assert params.index("beta.intercept") < params.index("beta.seed") \
            < params.index("beta.extract") < params.index("sigma")
        # one window of 100 steps within --max-iter 150: not converged
        assert lines[5:7] == ["converged,False", "start,laplace"]
        assert fileio.read_state(os.path.join(out, "state.txt"))[1]["converged"] == "False"

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for k in (0, 1):
            out = str(tmp_path / f"run{k}")
            assert run_cli(self._seeds_args(out)) == 0
            outs.append(out)
        t0 = pathlib.Path(outs[0], "trace.csv").read_bytes()
        t1 = pathlib.Path(outs[1], "trace.csv").read_bytes()
        assert t0 == t1
        s0 = pathlib.Path(outs[0], "state.txt").read_bytes()
        s1 = pathlib.Path(outs[1], "state.txt").read_bytes()
        assert s0 == s1
        # summaries identical apart from the wall-time line
        strip = lambda p: [ln for ln in pathlib.Path(p).read_text().splitlines()
                           if not ln.startswith("wall_time_s")]
        assert strip(os.path.join(outs[0], "summary.csv")) == \
            strip(os.path.join(outs[1], "summary.csv"))

    def test_state_file_resumes_simulation(self, tmp_path):
        out = str(tmp_path / "run")
        assert run_cli(self._seeds_args(out)) == 0
        state, meta = fileio.read_state(os.path.join(out, "state.txt"))
        data = datasets.seeds_dataset()
        prior = model.default_prior(data)
        from glmmvb import posterior
        summary = posterior.simulate_b(data, prior, state, meta["method"], 200,
                                       seed=int(meta["seed"]))
        assert np.all(np.isfinite(summary.b_mean))

    def test_seeds_full_fit_reproduces_reference_numbers(self, tmp_path):
        # converged run: the summary carries the documented seeds estimates
        out = str(tmp_path / "full")
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--fixed", "seed,extract", "--method", "a1", "--seed", "1",
                "--draws", "4000", "--out", out]
        assert run_cli(args) == 0
        table = {}
        for ln in pathlib.Path(out, "summary.csv").read_text().splitlines():
            parts = ln.split(",")
            if len(parts) == 3 and parts[0] not in ("parameter",):
                try:
                    table[parts[0]] = float(parts[1])
                except ValueError:
                    pass
        assert abs(table["beta.intercept"] - (-0.39)) < 0.05
        assert abs(table["sigma"] - 0.35) < 0.05

    def test_sharded_run_writes_shard_states(self, tmp_path):
        out = str(tmp_path / "sharded")
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--fixed", "seed,extract", "--method", "a1", "--seed", "2",
                "--prior", "normal-omega", "--shards", "2",
                "--max-iter", "800", "--draws", "200", "--out", out]
        assert run_cli(args) == 0
        assert os.path.exists(os.path.join(out, "summary.csv"))
        for v in (0, 1):
            assert os.path.exists(os.path.join(out, f"state_shard{v}.txt"))
            state, meta = fileio.read_state(os.path.join(out, f"state_shard{v}.txt"))
            assert state.r == 1
        text = pathlib.Path(out, "summary.csv").read_text()
        assert "shards,2" in text and "sigma," in text

    def test_sharded_run_takes_a_normal_omega_prior_file(self, tmp_path):
        p = tmp_path / "prior.csv"
        p.write_text("type,normal-omega\nmean,0\nsd,5\n")
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--method", "a1", "--prior", "file", "--prior-file", str(p),
                "--shards", "2", "--max-iter", "400", "--draws", "200",
                "--out", str(tmp_path / "o")]
        assert run_cli(args) == 0

    def test_default_prior_fits_a_separable_design(self, tmp_path):
        # the flat pooled IRLS diverges on it; the default prior's weights come
        # from the ridge mode
        data = separable_bernoulli()
        path = tmp_path / "sep.csv"
        path.write_text("g,y,x\n" + "".join(
            f"{i},{data.y[i, j]:g},{float(data.X[i, j, 1])!r}\n"
            for i in range(data.n) for j in range(data.J)))
        args = ["--data", str(path), "--family", "bernoulli", "--group-col", "g",
                "--response-col", "y", "--fixed", "x", "--method", "a1",
                "--max-iter", "50", "--draws", "500", "--out", str(tmp_path / "o")]
        assert run_cli(args) == 0

    @pytest.mark.parametrize("method", ["a1", "a2"])
    def test_bernoulli_ignores_a_trials_column(self, tmp_path, method):
        # a Bernoulli response is one trial, whatever the trials column holds
        outs = []
        for extra in ([], ["--trials-col", "total"]):
            out = tmp_path / f"run{len(outs)}"
            assert run_cli(["--data", datasets.fixture_path("seeds.csv"), "--family", "bernoulli",
                            "--group-col", "plate", "--response-col", "seed", "--fixed", "extract",
                            "--method", method, "--max-iter", "250", "--draws", "200",
                            "--out", str(out), *extra]) == 0
            outs.append({name: (out / name).read_text()
                         for name in ("state.txt", "trace.csv", "subjects.csv")})
        assert outs[0] == outs[1]

    def test_simulate_mode(self, tmp_path):
        out = str(tmp_path / "sim")
        assert run_cli(["--simulate", "poisson-ii", "--seed", "2",
                        "--out", out]) == 0
        rows = pathlib.Path(out, "dataset.csv").read_text().splitlines()
        assert rows[0] == "group,y,x"
        assert len(rows) == 1 + 500 * 7
        truth = pathlib.Path(out, "truth.csv").read_text()
        assert "beta0,1.5" in truth and "sigma,1.5" in truth


class TestCliFormats:
    @pytest.mark.parametrize("scenario", ["poisson-ii", "bernoulli-i", "binomial-i"])
    def test_simulated_dataset_round_trips(self, tmp_path, scenario):
        out = str(tmp_path / scenario)
        assert run_cli(["--simulate", scenario, "--seed", "4", "--out", out]) == 0
        want, truth = simulate.simulate_dataset(scenario, 4)
        got = fileio.load_csv(os.path.join(out, "dataset.csv"), truth["family"], "group",
                              ["x"], [], trials_col="m" if truth["trials"] else None)
        for name in ("y", "X", "Z", "trials", "n_obs", "mask"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.x_names == want.x_names

    def test_sharded_summary_lines(self, tmp_path):
        out = str(tmp_path / "sharded")
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--fixed", "seed,extract", "--method", "a1", "--seed", "2",
                "--prior", "normal-omega", "--shards", "2",
                "--max-iter", "400", "--draws", "200", "--out", out]
        assert run_cli(args) == 0
        lines = pathlib.Path(out, "summary.csv").read_text().splitlines()
        assert lines[:4] == ["key,value", "method,a1", "shards,2", "parameter,mean,sd"]
        rows = [ln.split(",") for ln in lines[4:]]
        assert [r[0] for r in rows] == ["beta.intercept", "beta.seed", "beta.extract",
                                        "omega.00", "sigma"]
        assert all(len(r) == 3 and float(r[2]) > 0 for r in rows)
        for v in range(2):
            _, meta = fileio.read_state(os.path.join(out, f"state_shard{v}.txt"))
            assert meta["converged"] == "False"


class TestCliExitCodes:
    def test_missing_required_config(self, tmp_path):
        assert run_cli(["--out", str(tmp_path)]) == 2

    def test_binomial_without_trials(self, tmp_path):
        assert run_cli(["--data", datasets.fixture_path("seeds.csv"),
                        "--family", "binomial", "--group-col", "plate",
                        "--response-col", "germinated",
                        "--out", str(tmp_path)]) == 2

    def test_poisson_with_a_trials_column(self, tmp_path, capsys):
        # no Poisson response reads trials: naming a column is a configuration
        # error, not a column silently left unread
        assert run_cli(["--data", datasets.fixture_path("epilepsy.csv"), "--family", "poisson",
                        "--group-col", "subject", "--trials-col", "lage", "--fixed", "lbase",
                        "--max-iter", "250", "--draws", "200", "--out", str(tmp_path)]) == 2
        assert "--trials-col" in capsys.readouterr().err

    def test_data_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("group,y\n1,-3\n")
        assert run_cli(["--data", str(p), "--family", "poisson",
                        "--group-col", "group", "--out", str(tmp_path)]) == 3

    def test_invalid_shards(self, tmp_path):
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--prior", "normal-omega", "--shards", "22",
                "--out", str(tmp_path)]
        assert run_cli(args) == 2

    def test_bare_value_error_is_not_a_configuration_error(self, tmp_path, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise ValueError("a numeric failure outside the package's checks")
        monkeypatch.setattr(engine, "fit", failing_fit)
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--out", str(tmp_path)]
        with pytest.raises(ValueError, match="numeric failure"):
            run_cli(args)

    def test_non_numeric_prior_value(self, tmp_path):
        p = tmp_path / "prior.csv"
        p.write_text("nu,three\nS,1\n")
        with pytest.raises(ConfigError, match="nu: could not convert"):
            fileio.read_prior_file(str(p), 1)
        args = ["--data", datasets.fixture_path("seeds.csv"), "--family", "binomial",
                "--group-col", "plate", "--response-col", "germinated",
                "--trials-col", "total", "--prior", "file", "--prior-file", str(p),
                "--out", str(tmp_path / "o")]
        assert run_cli(args) == 2

    @pytest.mark.parametrize("extra", [["--max-iter", "0"], ["--draws", "0"],
                                       ["--omega-prior-sd", "0", "--prior", "normal-omega"],
                                       ["--sigma-beta2", "0"],
                                       ["--sigma-beta2", "-1", "--prior", "normal-omega"],
                                       ["--seed", "-1"],
                                       ["--omega-prior-sd", "nan", "--prior", "normal-omega"],
                                       ["--omega-prior-sd", "inf", "--prior", "normal-omega"],
                                       ["--omega-prior-sd", "1e-200", "--prior", "normal-omega"],
                                       ["--draws", "1"]])
    def test_package_checks_exit_2(self, tmp_path, extra):
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--max-iter", "50", "--out", str(tmp_path), *extra]
        assert run_cli(args) == 2

    def test_sharded_fit_with_the_default_prior_exits_2_before_fitting(
            self, tmp_path, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")
        monkeypatch.setattr(engine, "fit", no_fit)
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--shards", "2", "--out", str(tmp_path)]
        assert run_cli(args) == 2

    @pytest.mark.parametrize("extra", [["--prior", "file", "--sigma-beta2", "-1"],
                                       ["--prior", "file", "--sigma-beta2", "100"],
                                       ["--prior", "file", "--omega-prior-sd", "5"],
                                       ["--omega-prior-sd", "-5"],
                                       ["--omega-prior-sd", "10"]])
    def test_a_prior_flag_the_prior_does_not_read_exits_2(self, tmp_path, monkeypatch, extra):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")
        monkeypatch.setattr(engine, "fit", no_fit)
        p = tmp_path / "prior.csv"
        p.write_text("type,normal-omega\nmean,0\nsd,5\n")
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--out", str(tmp_path / "o"), *extra]
        assert run_cli(args + ["--prior-file", str(p)] * ("file" in extra)) == 2

    @pytest.mark.parametrize("extra, want", [
        ([], (model.DEFAULT_SIGMA_BETA2, None)),
        (["--sigma-beta2", "50"], (50.0, None)),
        (["--prior", "normal-omega"], (model.DEFAULT_SIGMA_BETA2, 10.0)),
        (["--prior", "normal-omega", "--sigma-beta2", "50", "--omega-prior-sd", "5"],
         (50.0, 5.0))])
    def test_the_selected_prior_reads_its_flags(self, tmp_path, monkeypatch, extra, want):
        priors = []

        def no_fit(data, prior, config):
            priors.append(prior)
            raise ConfigError("stop before fitting")
        monkeypatch.setattr(engine, "fit", no_fit)
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--out", str(tmp_path / "o"), *extra]
        assert run_cli(args) == 2
        sd = getattr(priors[0], "sd", None)
        assert (priors[0].sigma_beta2, None if sd is None else float(sd[0])) == want

    def test_prior_file_without_prior_file_mode(self, tmp_path):
        # the file would be ignored and the default prior fitted
        p = tmp_path / "prior.csv"
        p.write_text("type,normal-omega\nmean,0\nsd,5\n")
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--prior-file", str(p), "--max-iter", "50", "--out", str(tmp_path / "o")]
        assert run_cli(args) == 2

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_draws_are_checked_before_fitting(self, tmp_path, monkeypatch, shards):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")
        monkeypatch.setattr(engine, "fit", no_fit)
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--prior", "normal-omega", "--shards", shards, "--draws", "0",
                "--out", str(tmp_path)]
        assert run_cli(args) == 2

    def test_estimator_is_an_unknown_argument(self, tmp_path, monkeypatch, capsys):
        # every fit runs the L2 estimator, so there is nothing to choose
        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")
        monkeypatch.setattr(engine, "fit", no_fit)
        args = ["--data", datasets.fixture_path("seeds.csv"),
                "--family", "binomial", "--group-col", "plate",
                "--response-col", "germinated", "--trials-col", "total",
                "--estimator", "L2", "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exit_:
            run_cli(args)
        assert exit_.value.code == 2
        assert "unrecognized arguments: --estimator L2" in capsys.readouterr().err

    def test_empty_simulation_is_a_configuration_error(self, tmp_path):
        assert run_cli(["--simulate", "poisson-i", "--simulate-n", "0",
                        "--out", str(tmp_path)]) == 2

    def test_simulation_seed_out_of_range_is_a_configuration_error(self, tmp_path):
        assert run_cli(["--simulate", "poisson-i", "--seed", "-1",
                        "--out", str(tmp_path)]) == 2


class TestSummaryFormatting:
    def test_nine_significant_digits(self, tmp_path):
        from glmmvb.posterior import PosteriorSummary
        summary = PosteriorSummary(
            global_names=["beta.a"], global_mean=np.array([1 / 3]),
            global_sd=np.array([2 / 3]), scale_names=["sigma"],
            scale_mean=np.array([np.pi]), scale_sd=np.array([0.1]),
            b_mean=np.zeros((1, 1)), b_sd=np.ones((1, 1)),
            btilde_mean=np.zeros((1, 1)), btilde_sd=np.ones((1, 1)),
            n_draws=10, n_rejected=0)
        path = str(tmp_path / "s.csv")
        fileio.write_summary(path, summary, "a1", 5, 0.1, -1.23456789012)
        text = pathlib.Path(path).read_text()
        assert "beta.a,0.333333333,0.666666667" in text
        assert "sigma,3.14159265," in text
        assert "elbo,-1.23456789" in text


# the functions that open a file for writing: the one writer of fileio
WRITE_SITES = {("fileio", "_write_lines")}


def _write_opens(source):
    """(enclosing function, line) of each open() call whose mode may write:
    one holding w, a, x or +, or one that is not a string constant."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and not set(str(mode.value)) & set("wax+")):
                found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


class TestOneFileWriter:
    def test_only_the_writer_opens_files_for_writing(self):
        package = pathlib.Path(fileio.__file__).parent
        found = {(path.stem, scope, line) for path in package.glob("*.py")
                 for scope, line in _write_opens(path.read_text())}
        assert {(module, scope) for module, scope, _ in found} == WRITE_SITES, sorted(found)

    def test_finds_every_open_that_may_write(self):
        source = ("def f(p):\n"
                  "    open(p)\n"
                  "    open(p, 'r', encoding='utf-8')\n"
                  "    open(p, 'w')\n"
                  "class C:\n"
                  "    def g(self, p, m):\n"
                  "        io.open(p, mode='a')\n"
                  "        open(p, m)\n"
                  "        open(p, 'rb+')\n")
        assert _write_opens(source) == [("f", 4), ("C.g", 7), ("C.g", 8), ("C.g", 9)]

    def test_no_output_file_holds_a_carriage_return(self, tmp_path):
        fit = ["--data", datasets.fixture_path("seeds.csv"), "--family", "binomial",
               "--group-col", "plate", "--response-col", "germinated", "--trials-col", "total",
               "--method", "a1", "--max-iter", "250", "--draws", "200"]
        runs = {"fit": fit, "sharded": fit + ["--prior", "normal-omega", "--shards", "2"],
                "simulate": ["--simulate", "binomial-i", "--simulate-n", "20"]}
        for name, args in runs.items():
            out = tmp_path / name
            assert run_cli(args + ["--out", str(out)]) == 0
            written = sorted(path.name for path in out.iterdir())
            assert len(written) >= 2, written
            for path in out.iterdir():
                assert b"\r" not in path.read_bytes(), (name, path.name)
