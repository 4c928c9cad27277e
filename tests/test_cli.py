"""Command-line interface: parsing, outputs, exit codes."""

import json
import math

import numpy as np
import pytest

from varidx.bounds import chebyshev_bound
from varidx import cli, measures, quadrature
from varidx.cli import DistSpec, _load_values, _parse_grid, main, parse_dist_spec
from varidx.distributions import Exponential, Power, Uniform
from varidx.errors import SpecParseError
from varidx.measures import info_moments

LOG2 = math.log(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_loads(text):
    """json.loads that fails on the non-standard Infinity/NaN constants."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def csv_rows(text):
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


class TestDistSpec:
    @pytest.mark.parametrize(
        "text,family,params",
        [
            ("exp:2", "exp", (2.0,)),
            ("exponential:2", "exp", (2.0,)),
            ("power:3", "power", (3.0,)),
            ("uniform:0,1", "uniform", (0.0, 1.0)),
            ("w2:1.5487,0.0166", "w2", (1.5487, 0.0166)),
            ("weibull2:1.6,0.0127", "w2", (1.6, 0.0127)),
            ("lognormal:3.5559,0.2192", "lognormal", (3.5559, 0.2192)),
            ("binomial:3,0.55", "binomial", (3.0, 0.55)),
            ("betabin:3,12,10", "betabin", (3.0, 12.0, 10.0)),
            ("dunif:4", "dunif", (4.0,)),
            ("beta_binomial:3,12,10", "betabin", (3.0, 12.0, 10.0)),
            ("discrete_uniform:4", "dunif", (4.0,)),
        ],
    )
    def test_parse(self, text, family, params):
        spec = parse_dist_spec(text)
        assert spec.family == family
        assert spec.params == params

    def test_round_trip(self):
        for text in ["exp:2", "w2:1.5487,0.0166", "uniform:0,1", "betabin:3,12,10"]:
            spec = parse_dist_spec(text)
            assert parse_dist_spec(spec.format()) == spec

    def test_unknown_family_position(self):
        with pytest.raises(SpecParseError) as exc:
            parse_dist_spec("cauchy:0,1")
        assert exc.value.position == 0

    def test_bad_number_position(self):
        with pytest.raises(SpecParseError) as exc:
            parse_dist_spec("exp:x")
        assert exc.value.position == 4
        with pytest.raises(SpecParseError) as exc:
            parse_dist_spec("uniform:0,oops")
        assert exc.value.position == 10

    def test_arity_mismatch(self):
        with pytest.raises(SpecParseError):
            parse_dist_spec("exp:1,2")

    def test_kind(self):
        assert parse_dist_spec("exp:1").kind == "continuous"
        assert parse_dist_spec("dunif:4").kind == "discrete"


class TestMeasuresCommand:
    def test_exponential_pair_values(self, capsys):
        code, out, _ = run(
            capsys, "measures", "--f", "exp:1", "--g", "exp:2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        values = {r["measure"]: r["value"] for r in payload["measures"]}
        assert abs(values["I"] - (2.0 - LOG2)) <= 1e-12
        assert abs(values["VarI"] - 4.0) <= 1e-12
        assert abs(values["K"] - (1.0 - LOG2)) <= 1e-12
        assert abs(values["VarK"] - 1.0) <= 1e-12

    def test_uniform_power_pair(self, capsys):
        code, out, _ = run(
            capsys, "measures", "--f", "uniform:0,1", "--g", "power:2", "--json"
        )
        values = {r["measure"]: r["value"] for r in json.loads(out)["measures"]}
        assert code == 0
        assert abs(values["VarI"] - 1.0) <= 1e-12

    def test_identical_pair_is_zero(self, capsys):
        code, out, _ = run(capsys, "measures", "--f", "exp:1", "--g", "exp:1", "--json")
        values = {r["measure"]: r["value"] for r in json.loads(out)["measures"]}
        assert code == 0
        assert values["K"] == 0.0 and values["VarK"] == 0.0

    def test_discrete_pair(self, capsys):
        code, out, _ = run(
            capsys, "measures", "--f", "binomial:3,0.55", "--g", "dunif:4", "--json"
        )
        assert code == 0
        values = {r["measure"]: r["value"] for r in json.loads(out)["measures"]}
        assert values["K"] > 0.0

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "measures", "--f", "exp:1", "--g", "exp:2", "--json")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload

    def test_power_pair_closed_forms(self, capsys):
        code, out, _ = run(
            capsys, "measures", "--f", "power:0.01", "--g", "power:50", "--json"
        )
        assert code == 0
        records = json.loads(out)["measures"]
        assert {r["method"] for r in records} == {"closed_form"}
        values = {r["measure"]: r["value"] for r in records}
        assert abs(values["K"] - (values["I"] - values["H"])) <= 1e-12 * values["I"]

    def test_json_is_strict_with_infinities(self, capsys):
        code, out, _ = run(
            capsys, "measures", "--f", "exp:1", "--g", "power:2", "--json"
        )
        assert code == 0
        records = strict_loads(out)["measures"]
        values = {r["measure"]: r["value"] for r in records}
        assert [values[m] for m in ("I", "VarI", "K", "VarK")] == ["inf"] * 4

    def test_divergent_route(self, capsys):
        code, out, _ = run(
            capsys, "measures", "--f", "exp:1", "--g", "power:2", "--json"
        )
        assert code == 0
        records = {r["measure"]: r for r in strict_loads(out)["measures"]}
        for name in ("I", "VarI", "K", "VarK"):
            assert records[name]["method"] == "divergent"
        for name in ("H", "VarH"):
            assert records[name]["method"] == "closed_form"
            assert math.isfinite(records[name]["value"])

    def test_lognormal_weibull_tail_pair_is_closed_form(self, capsys):
        # A heavy-tailed pair that the closed-form table covers.
        code, out, _ = run(
            capsys, "measures", "--f", "lognormal:0,5", "--g", "w2:0.5,1", "--json"
        )
        assert code == 0
        records = {r["measure"]: r for r in strict_loads(out)["measures"]}
        assert {r["method"] for r in records.values()} == {"closed_form"}
        assert abs(records["K"]["value"] - 20.42466583) <= 1e-7 * 20.42466583

    def test_overflowing_moments_exit_code(self, capsys):
        code, out, err = run(capsys, "measures", "--f", "w2:0.01,1", "--g", "exp:1")
        assert code == 3 and out == ""
        assert "overflow" in err

    def test_text_output_has_method_tags(self, capsys):
        code, out, _ = run(capsys, "measures", "--f", "exp:1", "--g", "exp:2")
        assert code == 0
        assert "closed_form" in out

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "measures", "--f", "exp:x", "--g", "exp:2")
        assert code == 2
        assert "exp:x" in err

    def test_kind_mismatch_exit_code(self, capsys):
        code, _, _ = run(capsys, "measures", "--f", "exp:1", "--g", "dunif:4")
        assert code == 2

    def test_uniform_of_infinite_width_exit_code(self, capsys):
        code, out, err = run(
            capsys, "measures", "--f", "uniform:-1e308,1e308", "--g", "exp:1"
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: uniform width") and "Traceback" not in err

    def test_computation_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "measures", "--f", "uniform:0,1", "--g", "uniform:2,3"
        )
        assert code == 3
        assert "intersect" in err


class TestCurvesCommand:
    def test_exponential_pair_closed_form_columns(self, capsys, tmp_path):
        out_file = tmp_path / "curves.csv"
        code, _, _ = run(
            capsys,
            "curves",
            "--pair",
            "exp",
            "--lambdas",
            "1,2",
            "--grid",
            "0.5:4:0.5",
            "--out",
            str(out_file),
        )
        assert code == 0
        header, rows = csv_rows(out_file.read_text())
        assert header[0] == "eta"
        i_col = header.index("VarI_lambda=2")
        for row in rows:
            eta = row[0]
            assert abs(row[i_col] - (eta / 2.0) ** 2) <= 1e-7

    def test_power_pair_minimum_near_unit(self, capsys):
        code, out, _ = run(capsys, "curves", "--pair", "power", "--grid", "0.2:4:0.1")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["alpha", "I", "VarI"]
        alphas = [r[0] for r in rows]
        ivals = [r[1] for r in rows]
        assert abs(alphas[int(np.argmin(ivals))] - 1.0) <= 0.05 + 1e-9

    def test_single_grid_point(self, capsys):
        code, out, _ = run(capsys, "curves", "--pair", "power", "--grid", "2")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 1

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "curves", "--pair", "power", "--grid", "1.5:3:0.5")
        _, second, _ = run(capsys, "curves", "--pair", "power", "--grid", "1.5:3:0.5")
        assert first == second
        assert "\r" not in first

    @pytest.mark.parametrize(
        "command,grid",
        [
            ("curves", "nan:1:0.1"),
            ("curves", "0:1:nan"),
            ("curves", "0:inf:1"),
            ("curves", "0:1e18:1"),
            ("curves", "0:1:inf"),
            ("curves", "-inf:1:1"),
            ("bounds", "0.5:nan:0.25"),
        ],
    )
    def test_hostile_grid_is_a_parse_error(self, capsys, command, grid):
        # A nan, an inf or more than 10^6 steps exits 2 before any grid
        # is built.
        code, out, err = run(capsys, command, "--pair", "power", f"--grid={grid}")
        assert (code, out) == (2, "")
        assert err == f"error: grid '{grid}' must be finite and take at most 10^6 steps\n"


class TestBoundsCommand:
    def test_exponential_figure_data(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds",
            "--pair",
            "exp",
            "--lam",
            "4",
            "--eps",
            "0.5,1,1.5,2",
            "--grid",
            "0.5:8:0.5",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header[:2] == ["eta", "VarI"]
        for row in rows:
            vi = row[1]
            for bound in row[2:]:
                assert bound <= vi + 1e-7

    def test_power_figure_data(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds",
            "--pair",
            "power",
            "--eps",
            "0.5,1,1.5,2",
            "--grid",
            "1.25:5:0.25",
        )
        assert code == 0
        _, rows = csv_rows(out)
        for row in rows:
            for bound in row[2:]:
                assert bound <= row[1] + 1e-7

    @pytest.mark.parametrize("pair,grid", [("exp", "1:2:1"), ("power", "2:3:1")])
    def test_overflowing_upper_level(self, capsys, pair, grid):
        code, out, err = run(capsys, "bounds", "--pair", pair, "--grid", grid, "--eps", "800")
        assert (code, err) == (0, "")
        _, rows = csv_rows(out)
        # The closed forms' values: the lower-tail term 800^2 e^{-401} of
        # alpha = 3 is a float, the other terms underflow to 0.
        expected = {"exp": [0.0, 0.0], "power": [0.0, 4.50912973432e-169]}[pair]
        assert [row[2] for row in rows] == expected

    @pytest.mark.parametrize("pair", ["exp", "power"])
    def test_one_record_per_pair(self, capsys, monkeypatch, pair):
        # The bounds read I off the records that give VarI: one
        # info_moments call for the whole grid, none per bound.
        calls = []
        inner = measures.info_moments

        def counted(f, g, *args, **kwargs):
            calls.append(f)
            return inner(f, g, *args, **kwargs)

        monkeypatch.setattr(cli, "info_moments", counted)
        monkeypatch.setattr(measures, "info_moments", counted)
        grid = "0.5:8:0.5" if pair == "exp" else "1.25:5:0.25"
        code, _, _ = run(capsys, "bounds", "--pair", pair, "--grid", grid)
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("pair", ["exp", "power"])
    def test_one_cdf_call_per_grid(self, capsys, cdf_calls, pair):
        # Every threshold of every g and margin goes through one call of
        # f's cdf.
        grid = "0.5:8:0.25" if pair == "exp" else "1.25:5:0.25"
        code, _, _ = run(capsys, "bounds", "--pair", pair, "--grid", grid)
        assert code == 0 and len(cdf_calls) == 1

    def test_tiny_eps_column_vanishes(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--pair", "exp", "--eps", "1e-6", "--grid", "1:2:0.5"
        )
        assert code == 0
        _, rows = csv_rows(out)
        for row in rows:
            assert row[2] <= 2e-12


def pointwise_row(command, pair, x):
    """One CSV row of ``command`` with its default options, from one
    info_moments call per pair and one chebyshev_bound call per margin."""
    if command == "curves":
        if pair == "exp":
            pairs = [(Exponential(lam), Exponential(x)) for lam in (1.0, 2.0, 3.0, 4.0)]
        else:
            pairs = [(Uniform(0.0, 1.0), Power(x))]
        records = [info_moments(f, g) for f, g in pairs]
        return [x] + [v for r in records for v in (r.I.value, r.VarI.value)]
    f, g = (Exponential(4.0), Exponential(x)) if pair == "exp" else (Uniform(0.0, 1.0), Power(x))
    bounds = [chebyshev_bound(f, g, e).bound_value for e in (0.5, 1.0, 1.5, 2.0)]
    return [x, info_moments(f, g).VarI.value] + bounds


@pytest.mark.parametrize(
    "command,pair,grid,header",
    [
        ("curves", "exp", "0.1:8:0.1", "eta,I_lambda=1,VarI_lambda=1,I_lambda=2,"
         "VarI_lambda=2,I_lambda=3,VarI_lambda=3,I_lambda=4,VarI_lambda=4"),
        ("curves", "power", "0.2:4:0.1", "alpha,I,VarI"),
        ("bounds", "exp", "0.5:8:0.25", "eta,VarI,bound_eps=0.5,bound_eps=1,"
         "bound_eps=1.5,bound_eps=2"),
        ("bounds", "power", "1.25:5:0.25", "alpha,VarI,bound_eps=0.5,bound_eps=1,"
         "bound_eps=1.5,bound_eps=2"),
    ],
)
def test_grid_csv_matches_pointwise_calls(capsys, command, pair, grid, header):
    # One batched call per grid prints what one call per point prints.
    code, out, err = run(capsys, command, "--pair", pair, "--grid", grid)
    assert (code, err) == (0, "")
    rows = [pointwise_row(command, pair, x) for x in _parse_grid(grid)]
    lines = [",".join(f"{v:.12g}" for v in row) for row in rows]
    assert out == "\n".join([header] + lines) + "\n"


def _messy_data(seed):
    """Numbers in every layout a data file allows, with CRLF endings."""
    rng = np.random.default_rng(seed)
    lines = []
    for i, v in enumerate(rng.lognormal(2.0, 0.7, 4000).tolist()):
        kind = i % 6
        lines.append(
            [
                repr(v),
                f"{v:.6g}, {v * 2:.3e},{v / 3!r}",
                f"  {v:g}\t{v + 1:g}  # trailing, 9.9",
                "# a comment line, 1.0",
                "",
                f"{v:.4f},",
            ][kind]
        )
    return "\r\n".join(lines) + "\r\n"


def _load_lines(source):
    """The parse of a data file one line at a time."""
    values = []
    with open(source, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            for token in body.replace(",", " ").split():
                try:
                    values.append(float(token))
                except ValueError:
                    raise SpecParseError(f"{source}:{lineno}: malformed number '{token}'") from None
    return values


class TestFitCommand:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("fit_weibull_mle", ["--data", "murthy41", "--candidates", "w2"]),
            ("fit_lognormal_mle", ["--data", "murthy41", "--candidates", "lognormal"]),
            ("fit_binomial_p", ["--data", "coin3", "--discrete", "--candidates", "binomial"]),
        ],
    )
    def test_bare_name_calls_the_fitter_on_this_module(self, capsys, monkeypatch, name, argv):
        # A wrapper set on cli's name, as a tracer sets one, sees the fit.
        inner, calls = getattr(cli, name), []

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(cli, name, counted)
        code, _, _ = run(capsys, "fit", *argv, "--json")
        assert code == 0 and len(calls) == 1

    def test_reference_continuous_pipeline(self, capsys):
        code, out, _ = run(
            capsys, "fit", "--data", "murthy41", "--candidates", "w2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        fitted = payload["candidates"][0]
        assert fitted["fitted"]
        shape, rate = fitted["fit"]["params"]
        assert abs(shape - 1.5487) / 1.5487 <= 0.01
        assert abs(rate - 0.0166) / 0.0166 <= 0.01
        assert abs(fitted["K"] - 0.099) <= 0.02

    def test_reference_pair_selection(self, capsys):
        code, out, _ = run(
            capsys,
            "fit",
            "--data",
            "murthy41",
            "--candidates",
            "w2:1.5487,0.0166",
            "w2:1.6,0.0127",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ranking"][0] == "w2:1.6,0.0127"
        k = {c["label"]: c["K"] for c in payload["candidates"]}
        v = {c["label"]: c["VarK"] for c in payload["candidates"]}
        assert abs(k["w2:1.5487,0.0166"] - k["w2:1.6,0.0127"]) <= 0.01
        assert v["w2:1.5487,0.0166"] > v["w2:1.6,0.0127"]

    def test_discrete_pipeline_reference_values(self, capsys):
        code, out, _ = run(
            capsys,
            "fit",
            "--data",
            "coin3",
            "--discrete",
            "--candidates",
            "binomial",
            "betabin:3,12,10",
            "dunif:4",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ranking"][0].startswith("binomial:")
        values = {c["label"]: (c["K"], c["VarK"]) for c in payload["candidates"]}
        binom_label = payload["ranking"][0]
        assert abs(values[binom_label][0] - 0.0011) <= 5e-5
        assert abs(values[binom_label][1] - 0.0023) <= 5e-5
        assert abs(values["betabin:3.0,12.0,10.0"][0] - 0.0027) <= 5e-5
        assert abs(values["dunif:4.0"][0] - 0.1305) <= 5e-5
        order = payload["ranking"]
        assert order[1].startswith("betabin") and order[2].startswith("dunif")

    def test_data_file_loading(self, capsys, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# lifetimes\n1.5, 2.5\n3.5\n4.5 5.5\n")
        code, out, _ = run(
            capsys, "fit", "--data", str(path), "--candidates", "lognormal", "--json"
        )
        assert code == 0
        assert json.loads(out)["reference"]["n"] == 5

    def test_malformed_number_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.5\n2.5\nbogus\n")
        code, _, err = run(
            capsys, "fit", "--data", str(path), "--candidates", "w2"
        )
        assert code == 2
        assert ":3:" in err and "bogus" in err

    def test_file_that_is_not_utf8_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1.5\n2.5\n\xff3.5\n")
        code, out, err = run(capsys, "fit", "--data", str(path), "--candidates", "w2")
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {path}: not UTF-8 text"]
        assert "Traceback" not in err

    def test_blocks_parse_as_lines(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_bytes(_messy_data(seed=5).encode())
        assert path.stat().st_size > 3 * (1 << 14)
        values = _load_values(str(path))
        assert len(values) > 3000 and values == _load_lines(str(path))

    def test_malformed_number_past_the_first_block_reports_line(self, tmp_path):
        lines = _messy_data(seed=6).split("\r\n")
        lines[2500] = "1.5, 2.x # trailing"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines))
        with pytest.raises(SpecParseError) as info:
            _load_values(str(path))
        assert str(info.value) == f"{path}:2501: malformed number '2.x'"
        with pytest.raises(SpecParseError) as oracle:
            _load_lines(str(path))
        assert str(info.value) == str(oracle.value)

    def test_comments_only_file_has_no_data(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# header\n\n  # 1.5, 2.5\n" * 2000)
        with pytest.raises(SpecParseError, match="no numeric data found"):
            _load_values(str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_counts_exit_code(self, capsys, tmp_path, bad):
        path = tmp_path / "counts.txt"
        path.write_text(f"20\n{bad}\n84\n33\n")
        code, _, err = run(
            capsys, "fit", "--data", str(path), "--discrete", "--candidates", "binomial"
        )
        assert code == 2
        assert "integer counts" in err

    def test_disqualified_candidate_json_is_strict(self, capsys):
        code, out, _ = run(
            capsys, "fit", "--data", "murthy41", "--candidates", "w2", "uniform:0,50",
            "--json",
        )
        assert code == 0
        payload = strict_loads(out)
        cand = {c["label"]: c for c in payload["candidates"]}["uniform:0.0,50.0"]
        assert cand["K"] == "inf" and cand["VarK"] == "inf"

    @pytest.mark.parametrize("bandwidth,mass", [("1e-3", "0.95"), ("1e-6", "0")])
    def test_kde_narrower_than_panels_is_an_error(self, capsys, bandwidth, mass):
        # Kernels narrower than the quadrature panels were missed, giving a
        # confident K of 3.24 (about 3.58 is right) or K = VarK = 0.  At
        # 1e-3 the nodes see 19 of the 20 kernels, at 1e-6 none.
        code, out, err = run(
            capsys, "fit", "--data", "murthy41", "--candidates", "w2", "lognormal",
            "--bandwidth", bandwidth,
        )
        assert code == 3
        assert out == ""
        assert f"did not see all of f's mass: it integrated {mass} on" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run(
            capsys, "fit", "--data", "/nonexistent/file.txt", "--candidates", "w2"
        )
        assert code == 4

    def test_all_candidates_failing_is_an_error(self, capsys):
        code, _, err = run(capsys, "fit", "--data", "murthy41", "--candidates", "exp")
        assert code == 3
        assert "failed to fit" in err

    def test_overflowing_beta_binomial_fails_its_fit(self, capsys):
        argv = ["fit", "--data", "coin3", "--discrete", "--candidates"]
        code, out, err = run(capsys, *argv, "betabin:3,1e308,1e308")
        assert (code, out) == (3, "")
        assert "overflows a float" in err and "Traceback" not in err
        # Beside a valid candidate it is listed as a failure.
        code, out, _ = run(capsys, *argv, "betabin:3,1e308,1e308", "dunif:4", "--json")
        assert code == 0
        payload = strict_loads(out)
        assert payload["ranking"] == ["dunif:4.0"]
        assert "overflows a float" in payload["failures"][0]["error"]

    def test_fit_failure_recorded_not_fatal(self, capsys):
        # 'exp' has no fitter; the explicit candidate still ranks.
        code, out, _ = run(
            capsys,
            "fit",
            "--data",
            "murthy41",
            "--candidates",
            "exp",
            "w2:1.6,0.0127",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] and payload["failures"][0]["spec"] == "exp"
        assert payload["ranking"] == ["w2:1.6,0.0127"]

    def test_human_readable_output(self, capsys):
        code, out, _ = run(
            capsys,
            "fit",
            "--data",
            "murthy41",
            "--candidates",
            "w2:1.5487,0.0166",
            "w2:1.6,0.0127",
        )
        assert code == 0
        assert "selected: w2:1.6,0.0127" in out
        assert "decisions:" in out


class TestDatasets:
    def test_murthy41_invariants(self):
        from varidx.datasets import MURTHY41

        assert len(MURTHY41) == 20
        assert all(v > 0 for v in MURTHY41)

    def test_coin3_invariants(self):
        from varidx.datasets import COIN3

        assert sum(COIN3) == 200
        assert len(COIN3) == 4

    def test_unknown_dataset_rejected(self):
        from varidx.datasets import load
        from varidx.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            load("nope")


class TestPrecisionFlag:
    def test_precision_override(self, capsys):
        _, out6, _ = run(capsys, "measures", "--f", "exp:1", "--g", "exp:2")
        _, out12, _ = run(
            capsys, "measures", "--f", "exp:1", "--g", "exp:2", "--precision", "12"
        )
        assert "1.30685" in out6
        assert "1.30685281944" in out12

    @pytest.mark.parametrize(
        "argv",
        [
            ["measures", "--f", "exp:1", "--g", "exp:2"],
            ["fit", "--data", "murthy41", "--candidates", "w2"],
        ],
        ids=["measures", "fit"],
    )
    def test_negative_precision_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--precision", "-3"])
        assert exc.value.code == 2
        assert "--precision" in capsys.readouterr().err


class TestReproduceCommand:
    @pytest.mark.parametrize(
        "target",
        [
            "example23",
            "example24",
            "remark33",
            "table2",
            "example41",
            "example44",
            "bounds_figs",
        ],
    )
    def test_fast_targets_pass(self, capsys, target):
        code, out, _ = run(capsys, "reproduce", target)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS" in out

    def test_kde_targets_pass(self, capsys):
        code, out, _ = run(capsys, "reproduce", "example42")
        assert code == 0 and "FAIL" not in out
        code, out, _ = run(capsys, "reproduce", "example43")
        assert code == 0 and "FAIL" not in out

    def test_all_targets_take_few_integrand_calls(self, capsys, monkeypatch):
        # A call of the integrand costs fixed numpy work whatever its node
        # count, so refinement rounds, not nodes, set the time: every
        # quadrature starts from panels that already cover f's bulk.
        sizes = []
        inner = quadrature._integrate_vector

        def counted(h, *args):
            def h_counted(x):
                sizes.append(x.size)
                return h(x)

            return inner(h_counted, *args)

        monkeypatch.setattr(quadrature, "_integrate_vector", counted)
        code, out, _ = run(capsys, "reproduce", "all")
        assert code == 0 and "FAIL" not in out
        assert len(sizes) <= 16 and sum(sizes) <= 1530

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        from varidx import cli

        def broken():
            return [cli.CheckRow("forced mismatch", 1.0, 2.0, 0.0)]

        monkeypatch.setitem(cli._TARGETS, "example23", broken)
        code, out, _ = run(capsys, "reproduce", "example23")
        assert code == 1
        assert "FAIL" in out
