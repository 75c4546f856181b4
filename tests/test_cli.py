import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from trapbound import cli
from trapbound.cli import (
    DistributionLoadError,
    HypothesisError,
    load_distribution,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def dist_files(tmp_path):
    p = tmp_path / "p.csv"
    q = tmp_path / "q.csv"
    p.write_text("0.5\n0.5\n")
    q.write_text("0.25\n0.75\n")
    return str(p), str(q)


class TestLoadDistribution:
    def test_csv(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("0.25\n\n0.75\n")
        assert load_distribution(f).weights == (0.25, 0.75)

    def test_json(self, tmp_path):
        f = tmp_path / "w.json"
        f.write_text("[0.1, 0.9]")
        assert load_distribution(f).weights == (0.1, 0.9)

    def test_explicit_format_overrides_suffix(self, tmp_path):
        f = tmp_path / "w.dat"
        f.write_text("[0.5, 0.5]")
        assert load_distribution(f, fmt="json").weights == (0.5, 0.5)

    def test_unknown_suffix(self, tmp_path):
        f = tmp_path / "w.dat"
        f.write_text("0.5\n0.5\n")
        with pytest.raises(DistributionLoadError):
            load_distribution(f)

    def test_csv_error_names_line(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("0.5\nbogus\n")
        with pytest.raises(DistributionLoadError) as exc:
            load_distribution(f)
        assert "line 2" in str(exc.value)
        assert str(exc.value) == f"{f}: line 2: not a number: 'bogus'"

    def test_csv_error_counts_blank_lines(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("0.5\n\n  bogus \n")
        with pytest.raises(DistributionLoadError) as exc:
            load_distribution(f)
        assert str(exc.value) == f"{f}: line 3: not a number: 'bogus'"

    @pytest.mark.parametrize("raw", [
        b"0.25\r\n0.75\r\n",
        b"  0.25\t\n 0.75 \n",
        b"0.25\n0.75\n\n   \n",
    ], ids=["crlf", "surrounding_spaces", "trailing_blank_lines"])
    def test_csv_line_formats(self, tmp_path, raw):
        f = tmp_path / "w.csv"
        f.write_bytes(raw)
        assert load_distribution(f).weights == (0.25, 0.75)

    @pytest.mark.parametrize("name, text", [
        ("w.csv", "nan\n0.5\n0.5\n"),
        ("w.json", "[NaN, 0.5, 0.5]"),
    ])
    def test_nan_weight_rejected(self, tmp_path, name, text):
        f = tmp_path / name
        f.write_text(text)
        with pytest.raises(HypothesisError):
            load_distribution(f)
        with pytest.raises(HypothesisError):
            load_distribution(f, normalize=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DistributionLoadError):
            load_distribution(tmp_path / "absent.csv")

    def test_unnormalized_rejected_then_rescaled(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("0.45\n0.45\n")
        with pytest.raises(HypothesisError):
            load_distribution(f)
        d = load_distribution(f, normalize=True)
        assert math.fsum(d.weights) == pytest.approx(1.0, abs=1e-15)

    def test_negative_weight(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("1.5\n-0.5\n")
        with pytest.raises(HypothesisError):
            load_distribution(f)


class TestIntegrate:
    def test_adaptive(self, capsys):
        rep = run_json(capsys, "integrate", "--fn", "x^2",
                       "--interval", "0", "1", "--eps", "1e-6")
        assert rep["converged"] and rep["certified"]
        assert rep["integral"]["lo"] <= 1.0 / 3.0 <= rep["integral"]["hi"]
        assert rep["width"] <= 1e-6
        # the integral is [gn - hi, gn - lo] of the remainder, rounded outward
        assert rep["integral"]["lo"] == math.nextafter(rep["gn"] - rep["remainder"]["hi"], -math.inf)
        assert rep["integral"]["hi"] == math.nextafter(rep["gn"] - rep["remainder"]["lo"], math.inf)

    def test_converged_width_within_eps(self, capsys):
        rep = run_json(capsys, "integrate", "--fn", "x*log(x)", "--interval", "0.5", "2", "--eps", "1e-13")
        assert rep["converged"] and rep["width"] <= 1e-13

    def test_fixed_partition(self, capsys):
        rep = run_json(capsys, "integrate", "--fn", "exp(x)",
                       "--interval", "0", "1", "--n", "4")
        assert rep["cells"] == 4
        assert rep["integral"]["lo"] <= math.e - 1.0 <= rep["integral"]["hi"]
        assert rep["remainder"]["hi"] == pytest.approx(
            0.125 * 0.25 ** 2 * (math.e - 1.0), rel=1e-12
        )

    def test_nonconvex_rejected(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--fn=-(x^2)",
                               "--interval", "0", "1")
        assert code == 2
        assert "convexity" in err

    def test_allow_nonconvex_is_uncertified(self, capsys):
        # a shallow double well: not convex near 0, but the per-cell brackets
        # on a 2-cell grid stay ordered, so the rule still runs uncertified
        code, out, _ = run_cli(capsys, "integrate", "--fn", "x^4 - 0.05*x^2",
                               "--interval", "-1", "1",
                               "--allow-nonconvex", "--n", "2")
        assert code == 0
        assert json.loads(out)["certified"] is False

    def test_bracket_inversion_reported_as_hypothesis_failure(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--fn=-(x^2)",
                               "--interval", "0", "1", "--allow-nonconvex", "--n", "2")
        assert code == 2
        assert "not convex" in err


class TestGapAndHH:
    def test_kink_gap(self, capsys):
        rep = run_json(capsys, "gap", "--fn", "abs(x - 0.5)",
                       "--interval", "0", "1", "--x", "0.5")
        assert rep["lower"] == pytest.approx(0.25, abs=1e-9)
        assert rep["upper"] == pytest.approx(0.25, abs=1e-9)
        # no point value, only the certified integral, which holds 1/4
        assert "gap" not in rep
        assert rep["integral"]["lo"] <= 0.25 <= rep["integral"]["hi"]
        assert rep["integral"]["hi"] - rep["integral"]["lo"] <= 1e-10
        assert rep["certified"]

    def test_hh(self, capsys):
        rep = run_json(capsys, "hh", "--fn", "x^2", "--interval", "0", "1")
        assert rep["lower"] == pytest.approx(0.0, abs=1e-15)
        assert rep["upper"] == pytest.approx(0.25, abs=1e-15)
        assert "difference" not in rep
        integral = rep["integral"]
        assert integral["lo"] <= Fraction(1, 3) <= integral["hi"]
        # the defect 1/2 - integral lies in the paper's bracket
        assert rep["lower"] <= 0.5 - integral["hi"] <= 0.5 - integral["lo"] <= rep["upper"]

    def test_gap_outside_domain(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--fn", "x^2",
                               "--interval", "0", "1", "--x", "2")
        assert code == 1

    def test_gap_at_an_end(self, capsys):
        # at x = a the gap of x^2 on [0, 1] is f(1) - 1/3 = 2/3
        rep = run_json(capsys, "gap", "--fn", "x^2", "--interval", "0", "1", "--x", "0")
        assert (rep["lower"], rep["upper"]) == (0.0, 1.0)
        assert rep["lower"] <= Fraction(2, 3) <= rep["upper"]


class TestNarrowInterval:
    """[1, 1 + 2^-52]: adjacent floats, so the convexity grid repeats points
    and the midpoint rounds onto an end."""

    ARGS = ("--fn", "x^2", "--interval", "1", "1.0000000000000002")
    U = Fraction(2) ** -52

    def test_integrate_is_one_cell(self, capsys):
        rep = run_json(capsys, "integrate", *self.ARGS)
        assert rep["cells"] == 1 and rep["certified"]
        assert (rep["integral"]["lo"], rep["integral"]["hi"]) == (2.2204460492503099e-16, 2.2204460492503175e-16)
        assert rep["integral"]["lo"] <= ((1 + self.U) ** 3 - 1) / 3 <= rep["integral"]["hi"]

    def test_hh(self, capsys):
        rep = run_json(capsys, "hh", *self.ARGS)
        assert (rep["lower"], rep["upper"]) == (0.0, 1.232595164407831e-32)
        # the defect of x^2 on a cell of width u is u^2/6
        assert rep["lower"] <= self.U ** 2 / 6 <= rep["upper"]

    def test_check_passes(self, capsys):
        rep = run_json(capsys, "check", *self.ARGS)
        assert rep["passed"] and rep["convexity"]["witness"] is None


class TestExpectation:
    def test_triangular_midpoint(self, capsys):
        rep = run_json(capsys, "expectation", "--density", "2*x",
                       "--interval", "0", "1")
        assert rep["expectation"]["lo"] == pytest.approx(0.5, abs=1e-12)
        assert rep["expectation"]["hi"] == pytest.approx(0.75, abs=1e-12)
        assert rep["x_used"] == 0.5

    def test_explicit_split(self, capsys):
        rep = run_json(capsys, "expectation", "--density", "2*x",
                       "--interval", "0", "1", "--x", "0.25")
        assert rep["x_used"] == 0.25
        assert rep["expectation"]["lo"] <= 2.0 / 3.0 <= rep["expectation"]["hi"]

    def test_decreasing_density_rejected(self, capsys):
        code, _, err = run_cli(capsys, "expectation", "--density", "2 - 2*x",
                               "--interval", "0", "1")
        assert code == 2
        assert "monotone" in err


class TestDivergence:
    def test_chi2_spot_values(self, capsys, dist_files):
        p, q = dist_files
        rep = run_json(capsys, "divergence", "--generator", "chi2",
                       "--p", p, "--q", q)
        assert rep["csiszar"] == pytest.approx(0.25, abs=1e-12)
        assert rep["lin_wong"] == pytest.approx(0.0625, abs=1e-12)
        assert rep["hh"]["lo"] == pytest.approx(0.25 / 3.0, abs=1e-12)
        assert rep["hh"]["hi"] == pytest.approx(0.25 / 3.0, abs=1e-12)
        assert rep["sandwich_holds"]
        assert rep["gap"]["lo"] <= rep["half_csiszar"] - rep["hh"]["hi"] <= rep["gap"]["hi"]

    def test_unnormalized_input(self, capsys, tmp_path, dist_files):
        _, q = dist_files
        bad = tmp_path / "bad.csv"
        bad.write_text("0.45\n0.45\n")
        code, _, err = run_cli(capsys, "divergence", "--generator", "kl",
                               "--p", str(bad), "--q", q)
        assert code == 2
        code, out, _ = run_cli(capsys, "divergence", "--generator", "kl",
                               "--p", str(bad), "--q", q, "--normalize")
        assert code == 0
        assert json.loads(out)["sandwich_holds"]


    def test_hellinger_with_q_zero_has_infinite_gap_hi(self, tmp_path):
        # the hellinger slope tends to -inf at 0, so a point with q = 0 < p
        # makes the gap's upper side +inf instead of dividing by zero
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        p.write_text("0.2\n0.3\n0.5\n")
        q.write_text("0.5\n0\n0.5\n")
        argv = [sys.executable, "-m", "trapbound", "divergence", "--generator", "hellinger",
                "--p", str(p), "--q", str(q)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["gap"] == {"lo": 0.0, "hi": "inf"}
        assert rep["sandwich_holds"]


    def test_p_zero_point_takes_its_limit(self, capsys, tmp_path):
        # a point with p = 0 < q adds q f'(inf)/2 to HH, as to LW and D/2;
        # for tv then LW = HH = D/2 and the gap is exactly 0
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        p.write_text("0\n0.5\n0.5\n")
        q.write_text("0.2\n0.4\n0.4\n")
        rep = run_json(capsys, "divergence", "--generator", "tv", "--p", str(p), "--q", str(q))
        assert rep["hh"]["lo"] == rep["hh"]["hi"] == pytest.approx(0.2, abs=1e-15)
        assert rep["half_csiszar"] == pytest.approx(0.2, abs=1e-15)
        assert rep["sandwich_holds"]
        assert rep["gap"] == {"lo": 0.0, "hi": 0.0}
        # an infinite slope at infinity: D/2 - HH is inf - inf, so hi is +inf
        rep = run_json(capsys, "divergence", "--generator", "kl", "--p", str(p), "--q", str(q))
        assert rep["hh"] == {"lo": "inf", "hi": "inf"}
        assert rep["gap"]["hi"] == "inf"
        assert rep["sandwich_holds"]

    def test_overflowing_term_exits_1(self, capsys, tmp_path):
        # chi2 squares q/p - 1 = 5e299, which overflows a float power
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        p.write_text("1e-300\n1\n")
        q.write_text("0.5\n0.5\n")
        code, out, err = run_cli(capsys, "divergence", "--generator", "chi2", "--p", str(p), "--q", str(q))
        assert code == 1 and out == ""
        assert err.startswith("trapbound: error: OverflowError")

    def test_eps_flag_removed(self, capsys, dist_files):
        p, q = dist_files
        code, _, err = run_cli(capsys, "divergence", "--generator", "kl",
                               "--p", p, "--q", q, "--eps", "1e-9")
        assert code == 1
        assert "--eps" in err


class TestCheck:
    def test_all_valid(self, capsys, dist_files):
        p, _ = dist_files
        rep = run_json(capsys, "check", "--fn", "exp(x)", "--density", "2*x",
                       "--interval", "0", "1", "--dist", p)
        assert rep["passed"]
        assert rep["convexity"]["passed"]
        assert rep["density"]["valid"]
        assert rep["distribution"]["n"] == 2

    def test_failures_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--fn=-(x^2)",
                             "--interval", "0", "1")
        assert code == 2

    @pytest.mark.parametrize("fn, a, b", [
        # the benchmark's nonconvex inputs, and a shallow double well
        ("-x^2", "-1", "1"), ("sqrt(x)", "0.1", "2"), ("x^3", "-1", "1"),
        ("-exp(x)", "-1", "1"), ("log(x)", "0.5", "2"), ("x^4 - 0.05*x^2", "-1", "1"),
    ])
    def test_commands_share_one_verdict(self, capsys, fn, a, b):
        code, _, err = run_cli(capsys, "check", f"--fn={fn}", "--interval", a, b)
        assert code == 2
        conv = json.loads(err[err.index("{"):])["convexity"]
        assert conv["worst_violation"] > 0 and conv["witness"]
        code, _, err = run_cli(capsys, "integrate", f"--fn={fn}", "--interval", a, b)
        assert code == 2
        assert f"worst secant violation {conv['worst_violation']:.3e} at {tuple(conv['witness'])}" in err

    def test_needs_a_target(self, capsys):
        code, _, _ = run_cli(capsys, "check")
        assert code == 1

    @pytest.mark.parametrize("name, text", [
        ("w.csv", "nan\n0.5\n0.5\n"),
        ("w.json", "[0.5, NaN, 0.5]"),
    ])
    def test_nan_distribution_exits_2(self, capsys, tmp_path, dist_files, name, text):
        bad = tmp_path / name
        bad.write_text(text)
        code, out, err = run_cli(capsys, "check", "--dist", str(bad))
        assert code == 2 and out == ""
        assert "nan" in err
        p, _ = dist_files
        code, out, err = run_cli(capsys, "divergence", "--generator", "kl",
                                 "--p", p, "--q", str(bad))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("text", ["[true, false]", '["0.5", "0.5"]', "[[0.5], [0.5]]", "[1, false]"])
    def test_json_weights_must_be_numbers(self, capsys, tmp_path, text):
        # a JSON bool is an int to isinstance, but not a weight
        bad = tmp_path / "w.json"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "check", "--dist", str(bad))
        assert code == 1 and out == ""
        assert err == f"trapbound: error: {bad}: expected a JSON array of numbers\n"
        other = tmp_path / "v.json"
        other.write_text("[false, true]")
        code, out, err = run_cli(capsys, "divergence", "--generator", "tv",
                                 "--p", str(other), "--q", str(bad))
        assert code == 1 and out == ""
        assert err == f"trapbound: error: {other}: expected a JSON array of numbers\n"

    def test_sum_past_float_range_exits_2(self, capsys, tmp_path):
        # math.fsum raises on the partial sum 2e308; the weights do not sum to 1
        bad = tmp_path / "w.json"
        bad.write_text("[1e308, 1e308]")
        code, out, err = run_cli(capsys, "check", "--dist", str(bad))
        assert code == 2 and out == ""
        assert err == f"trapbound: hypothesis failure: {bad}: weights sum to inf, not 1 (pass --normalize to rescale)\n"

    def test_integer_past_float_range_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "w.json"
        bad.write_text(f"[{10 ** 400}, 1]")
        code, out, err = run_cli(capsys, "check", "--dist", str(bad))
        assert code == 1 and out == ""
        assert err == f"trapbound: error: {bad}: a JSON integer is outside the float range\n"

    @pytest.mark.parametrize("name, text", [
        ("zeros.csv", "0\n0\n0\n"),
        ("zeros.json", "[0, 0.0, 0]"),
    ])
    def test_zero_sum_normalize_exits_2(self, capsys, tmp_path, name, text):
        bad = tmp_path / name
        bad.write_text(text)
        code, out, err = run_cli(capsys, "check", "--dist", str(bad), "--normalize")
        assert code == 2 and out == ""
        assert err.startswith("trapbound: hypothesis failure:")
        assert "sum to 0" in err

    @pytest.mark.parametrize("name, text", [
        ("neg.csv", "-0.5\n-0.5\n"),
        ("neg.json", "[-0.5, -0.5]"),
    ])
    def test_negative_weights_normalize_exits_2(self, capsys, tmp_path, dist_files, name, text):
        # dividing by the negative sum would flip the signs into a valid file
        bad = tmp_path / name
        bad.write_text(text)
        code, out, err = run_cli(capsys, "check", "--dist", str(bad), "--normalize")
        assert code == 2 and out == ""
        assert "negative weight" in err
        p, _ = dist_files
        code, out, err = run_cli(capsys, "divergence", "--generator", "kl",
                                 "--p", p, "--q", str(bad), "--normalize")
        assert code == 2 and out == ""
        assert "negative weight" in err


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "integrate", "--fn", "x^2",
                       "--interval", "0", "1", "--bogus")[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "differentiate")[0] == 1

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--fn", "x +",
                               "--interval", "0", "1")
        assert code == 1
        assert "position" in err

    @pytest.mark.parametrize("argv, fragment", [
        (["integrate", "--fn", "exp(x)", "--interval", "0", "1", "--eps", "nan"], "eps must be positive, got nan"),
        (["check", "--dist", "{bad}"], "bad.json: line 2: Expecting ',' delimiter"),
        (["check", "--dist", "{empty}"], "empty.csv: no weights found"),
        (["check", "--dist", "{empty}", "--normalize"], "empty.csv: no weights found"),
        (["expectation", "--density", "2*", "--interval", "0", "1"], "--density: "),
        (["check", "--fn", "x +", "--interval", "0", "1"], "--fn: "),
        (["check", "--fn", "x^2"], "--fn requires --interval"),
        (["check", "--density", "2*x"], "--density requires --interval"),
    ])
    def test_input_errors_exit_1(self, capsys, tmp_path, argv, fragment):
        (tmp_path / "bad.json").write_text("[0.5,\n 0.5 0.5]")
        (tmp_path / "empty.csv").write_text("\n\n")
        argv = [a.format(bad=tmp_path / "bad.json", empty=tmp_path / "empty.csv") for a in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and fragment in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["integrate", "check"])
    def test_infinite_exponent_refused(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--fn", "x^(1e308*10)", "--interval", "0.5", "1")
        assert code == 1
        assert "--fn: exponent must be a constant (position 3)" in err

    def test_evaluation_error(self):
        # x*log(x) cannot be evaluated at 0 by the expression evaluator
        argv = [sys.executable, "-m", "trapbound", "integrate",
                "--fn", "x*log(x)", "--interval", "0", "1"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("trapbound: error:")
        assert "Traceback" not in proc.stderr

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "hh", "--fn", "x^2",
                               "--interval", "0", "1", "--format", "table")
        assert code == 0
        assert "upper = 0.25" in out


def test_deterministic_output():
    argv = [sys.executable, "-m", "trapbound", "integrate",
            "--fn", "exp(x)", "--interval", "0", "1", "--eps", "1e-5"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_kept_parser_matches_fresh_parsers(capsys, monkeypatch, dist_files):
    # main builds its parser once; a run of subcommands with usage errors
    # between them must answer as if each call had a parser of its own
    p, q = dist_files
    calls = [
        ["integrate", "--fn", "exp(x)", "--interval", "0", "1", "--eps", "1e-6"],
        ["integrate", "--fn", "x^2", "--interval", "0", "1", "--bogus"],
        ["gap", "--fn", "x^2", "--interval", "0", "1", "--x", "0.3"],
        ["hh", "--fn", "x^2"],
        ["integrate", "--fn", "abs(x - 0.3)", "--interval", "0", "1", "--n", "8", "--xi-rule", "left"],
        ["differentiate"],
        ["check", "--fn=-x^2", "--interval", "-1", "1"],
        ["expectation", "--density", "2*x", "--interval", "0", "1", "--format", "table"],
        ["divergence", "--generator", "kl", "--p", p, "--q", q],
        [],
        ["hh", "--fn", "exp(x)", "--interval", "0", "1"],
    ]
    kept = [run_cli(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run_cli(capsys, *argv) for argv in calls]
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0, 1, 0, 1, 0, 1, 2, 0, 0, 1, 0]
