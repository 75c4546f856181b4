import errno
import io
import json
import math
import os
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

    @pytest.mark.parametrize("name, text", [
        ("w.dat", "[0.5, 0.5]"),
        ("w.csv", "[0.5, 0.5]"),
        ("w.csv", "\n  [0.5,\n 0.5]\n"),
    ], ids=["dat", "csv_suffix", "blank_first_line"])
    def test_json_array_whatever_the_suffix(self, tmp_path, name, text):
        # the first non-blank character, not the suffix, says JSON
        f = tmp_path / name
        f.write_text(text)
        assert load_distribution(f).weights == (0.5, 0.5)

    def test_csv_whatever_the_suffix(self, tmp_path):
        f = tmp_path / "w.dat"
        f.write_text("0.5\n0.5\n")
        assert load_distribution(f).weights == (0.5, 0.5)

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

    def test_negative_weight_and_bad_sum_get_no_hint(self, tmp_path):
        # rescaling cannot mend a negative weight, so --normalize is not offered
        f = tmp_path / "w.csv"
        f.write_text("0.7\n-0.5\n")
        with pytest.raises(HypothesisError, match=r"^.*w\.csv: weights must be nonnegative, got -0\.5$"):
            load_distribution(f)

    def test_normalize_divides_by_the_sum(self, tmp_path):
        # a sum within the tolerance of 1 is rescaled too
        raw = (0.25, 0.75 + 5e-10)
        f = tmp_path / "w.csv"
        f.write_text("".join(f"{w!r}\n" for w in raw))
        total = math.fsum(raw)
        assert abs(total - 1.0) <= 1e-9
        assert load_distribution(f).weights == raw
        assert load_distribution(f, normalize=True).weights == tuple(w / total for w in raw)


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

    def test_n_is_bounded_by_max_cells(self, capsys):
        code, out, err = run_cli(capsys, "integrate", "--fn", "x^2.5", "--interval", "0", "1", "--n", "10001")
        assert (code, out) == (1, "")
        assert err == "trapbound: error: --n 10001 exceeds --max-cells 10000\n"

    def test_n_up_to_max_cells(self, capsys):
        rep = run_json(capsys, "integrate", "--fn", "x^2.5", "--interval", "0", "1",
                       "--n", "10001", "--max-cells", "10001")
        assert rep["cells"] == 10001
        assert rep["integral"]["lo"] <= 1 / 3.5 <= rep["integral"]["hi"]

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

    @pytest.mark.parametrize("argv, converged", [
        (["hh", "--fn", "x^2", "--interval", "0", "1"], True),
        # a cell's width squared overflows: its bracket and integral.lo are infinite, after 2 cells
        (["gap", "--fn", "exp(-x)", "--interval", "0", "1e160", "--x", "5e159"], False),
    ], ids=["hh", "gap"])
    def test_integral_says_whether_it_converged(self, capsys, argv, converged):
        integral = run_json(capsys, *argv)["integral"]
        assert integral["converged"] is converged
        if not converged:
            assert integral["lo"] == "-inf"

    def test_gap_outside_domain(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--fn", "x^2",
                               "--interval", "0", "1", "--x", "2")
        assert code == 1

    @pytest.mark.parametrize("argv", [["hh"], ["gap", "--x", "0.5"]], ids=["hh", "gap"])
    def test_inverted_bracket_is_a_hypothesis_failure(self, capsys, argv):
        # as for integrate: the bracket of -x^2 inverts, and the cell is named
        code, out, err = run_cli(capsys, *argv, "--fn=-x^2", "--interval", "0", "1", "--allow-nonconvex")
        assert (code, out) == (2, "")
        assert err == ("trapbound: hypothesis failure: cell [0.0, 1.0] has inverted remainder bracket "
                       "[0.0, -0.25]; '-x^2' is not convex there\n")

    @pytest.mark.parametrize("argv, bracket", [
        (["hh"], [-2.465190328815662e-32, 0.0]),
        (["gap", "--x", "3.239168395452613"], [-2.145027806161181e-31, -2.1450278061611805e-31]),
    ], ids=["hh", "gap"])
    def test_bracket_inverted_by_rounding_is_its_hull(self, capsys, argv, bracket):
        # x log x is convex and passes the check; on this 2-ulp interval the
        # bracket's ends cross by rounding alone, and their hull is reported
        rep = run_json(capsys, *argv, "--fn", "x*log(x)", "--interval", "3.2391683954526127", "3.239168395452613")
        assert rep["certified"] and [rep["lower"], rep["upper"]] == bracket

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
        # E(X) lies in 1/2 + [0, 1/4] / [m_lo, m_hi], the mass bracket reported
        rep = run_json(capsys, "expectation", "--density", "2*x",
                       "--interval", "0", "1")
        m_lo, m_hi = rep["mass_bracket"]
        assert m_lo < 1.0 < m_hi and m_hi - m_lo < 1.0 / 64
        assert rep["expectation"]["lo"] == pytest.approx(0.5, abs=1e-12)
        assert rep["expectation"]["hi"] == pytest.approx(0.5 + 0.25 / m_lo, abs=1e-12)
        assert rep["x_used"] == 0.5

    @pytest.mark.parametrize("density", ["4*x", "2.0004*x"])
    def test_mean_of_the_normalized_density(self, capsys, density):
        # the mass is used, not tested against 1: both have mean 2/3, and
        # check reports the bracket that the default expectation divides by
        rep = run_json(capsys, "expectation", "--density", density, "--interval", "0", "1")
        assert Fraction(rep["expectation"]["lo"]) <= Fraction(2, 3) <= Fraction(rep["expectation"]["hi"])
        mass = Fraction(float(density[:-2])) / 2
        assert Fraction(rep["mass_bracket"][0]) <= mass <= Fraction(rep["mass_bracket"][1])
        check = run_json(capsys, "check", "--density", density, "--interval", "0", "1")
        assert check["density"]["valid"] and check["density"]["mass_bracket"] == rep["mass_bracket"]

    def test_zero_mass_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--density", "0*x", "--interval", "0", "1")
        assert code == 2
        assert "does not exclude 0" in err

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

    def test_slightly_decreasing_density_rejected(self, capsys):
        # each read falls by less than the sample slack, but the mass bracket
        # inverts: it printed the inverted expectation [0.4999999999999997, 0.4999749974991398]
        code, out, err = run_cli(capsys, "expectation", "--density", "1 - 2e-4*x", "--interval", "0", "1")
        assert code == 2 and out == ""
        assert "monotone" in err

    def test_one_ulp_support_splits_at_an_end(self, capsys):
        # the float midpoint of adjacent floats rounds onto a
        rep = run_json(capsys, "expectation", "--density", "4503599627370496",
                       "--interval", "1", "1.0000000000000002")
        assert rep["x_used"] == 1.0
        mean = (Fraction(1) + Fraction(1.0000000000000002)) / 2
        assert Fraction(rep["expectation"]["lo"]) <= mean <= Fraction(rep["expectation"]["hi"])

    @pytest.mark.parametrize("density, interval, split, enclosure", [
        ("4503599627370496", ("1", "1.0000000000000002"), (), [1.0, 1.0000000000000002]),
        ("3*x^2", ("0", "1"), ("--x", "0"), [0.0, 1.0]),
    ])
    def test_enclosure_is_cut_to_the_support(self, capsys, density, interval, split, enclosure):
        # E(X) lies in [a, b]; the rounding allowance pushed both cases past it
        rep = run_json(capsys, "expectation", "--density", density, "--interval", *interval, *split)
        assert [rep["expectation"]["lo"], rep["expectation"]["hi"]] == enclosure

    def test_wide_support_is_checked(self, capsys):
        # the walk sizes its grid with weights over (b - a)^2: (b - x)^2 = 1e310
        # raised OverflowError
        rep = run_json(capsys, "check", "--density", "5e-156", "--interval", "0", "2e155")
        lo, hi = rep["density"]["mass_bracket"]
        assert rep["density"]["valid"] and lo <= Fraction(5e-156) * Fraction(2e155) <= hi

    @pytest.mark.parametrize("x, code", [("0", 0), ("1", 0), ("1.5", 1), ("-0.5", 1), ("1e200", 1),
                                         ("nan", 1)])
    def test_split_on_the_closed_support(self, capsys, x, code):
        got, out, err = run_cli(capsys, "expectation", "--density", "2*x",
                                "--interval", "0", "1", "--x", x)
        assert got == code, err
        if code:
            assert "split point must lie in [0.0, 1.0]" in err
        else:
            enc = json.loads(out)["expectation"]
            assert enc["lo"] <= 2.0 / 3.0 <= enc["hi"]


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

    def test_inverted_mass_bracket_is_not_monotone(self, capsys):
        code, out, err = run_cli(capsys, "check", "--density", "1 - 1e-7*x", "--interval", "0", "1")
        assert code == 2 and out == ""
        density = json.loads(err[err.index("{"):])["density"]
        assert density["valid"] is False and density["nondecreasing"] is False
        lo, hi = density["mass_bracket"]
        assert lo > hi

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
        # nor is there a float sum to divide by
        code, out, err = run_cli(capsys, "check", "--dist", str(bad), "--normalize")
        assert code == 2 and out == ""
        assert err == f"trapbound: hypothesis failure: {bad}: weights sum to inf, cannot normalize\n"

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


class TestNegativeNumbers:
    """A negative number written with an exponent is a value, not a flag, in
    every subcommand; argparse's own pattern took -1e-3 for an option."""

    @pytest.mark.parametrize("a", ["-1e-3", "-1E-3", "-1.0e-3", "-.1e-2", "-1.e-3"])
    def test_interval(self, capsys, a):
        rep = run_json(capsys, "integrate", "--fn", "x^2", "--interval", a, "1", "--eps", "1e-8")
        assert rep["interval"] == [-1e-3, 1.0]
        exact = (1 + Fraction(1e-3) ** 3) / 3
        assert Fraction(rep["integral"]["lo"]) <= exact <= Fraction(rep["integral"]["hi"])

    def test_gap_x(self, capsys):
        # the gap of x^2 on [-1, 1] is 2 - 2/3 at every split point
        rep = run_json(capsys, "gap", "--fn", "x^2", "--interval", "-1", "1", "--x", "-1e-3")
        assert rep["x"] == -1e-3
        assert rep["lower"] <= 4 / 3 <= rep["upper"]

    def test_expectation_x(self, capsys):
        rep = run_json(capsys, "expectation", "--density", "1", "--interval", "-1", "1", "--x", "-1e-3")
        assert rep["x_used"] == -1e-3
        assert rep["expectation"]["lo"] <= 0.0 <= rep["expectation"]["hi"]

    @pytest.mark.parametrize("argv, message", [
        (["integrate", "--fn", "x^2", "--interval", "-inf", "1"], "interval endpoints must be finite"),
        (["integrate", "--fn", "x^2", "--interval", "0", "-INF"], "interval endpoints must be finite"),
        (["integrate", "--fn", "x^2", "--interval", "-Infinity", "1"], "interval endpoints must be finite"),
        (["gap", "--fn", "x^2", "--interval", "0", "1", "--x", "-nan"], "split point"),
        (["expectation", "--density", "2*x", "--interval", "0", "1", "--x", "-NaN"], "split point"),
    ])
    def test_infinity_and_nan_are_values(self, capsys, argv, message):
        # they reach the interval and split-point checks instead of being taken for flags
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err and "expected" not in err

    def test_expression_that_looks_like_a_flag_needs_equals(self, capsys):
        # only numbers are values: --fn=-log(x) passes the expression
        code, _, err = run_cli(capsys, "integrate", "--fn", "-log(x)", "--interval", "0.5", "2")
        assert code == 1 and "argument --fn: expected one argument" in err


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
        # not an array, so read as CSV
        (["check", "--dist", "{obj}"], "obj.json: line 1: not a number: '{\"p\": 1}'"),
    ])
    def test_input_errors_exit_1(self, capsys, tmp_path, argv, fragment):
        (tmp_path / "bad.json").write_text("[0.5,\n 0.5 0.5]")
        (tmp_path / "empty.csv").write_text("\n\n")
        (tmp_path / "obj.json").write_text('{"p": 1}')
        argv = [a.format(bad=tmp_path / "bad.json", empty=tmp_path / "empty.csv", obj=tmp_path / "obj.json") for a in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and fragment in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["expectation", "--density", "1"],
        ["check", "--density", "1"],
        ["integrate", "--fn", "x^2"],
        ["check", "--fn", "x^2"],
    ])
    def test_interval_whose_width_overflows_refused(self, capsys, argv):
        # b - a = 3.4e308 is not a float: the mass bracket was [nan, nan] and
        # the integrator read f at a NaN point
        code, _, err = run_cli(capsys, *argv, "--interval", "-1.7e308", "1.7e308")
        assert code == 1, err
        assert "--interval [-1.7e+308, 1.7e+308]: its width b - a overflows to inf" in err

    @pytest.mark.parametrize("command", ["integrate", "check"])
    def test_infinite_exponent_refused(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--fn", "x^(1e308*10)", "--interval", "0.5", "1")
        assert code == 1
        assert "--fn: exponent must be a constant (position 3)" in err

    def test_unknown_generator_names_the_known_ones(self, capsys, dist_files):
        # generator_catalog's own message: the command line lists no names of its own
        code, out, err = run_cli(capsys, "divergence", "--generator", "js", "--p", dist_files[0], "--q", dist_files[1])
        assert (code, out) == (1, "")
        assert err == "trapbound: error: unknown generator 'js'; known: chi_squared, kl, total_variation, hellinger\n"

    @pytest.mark.parametrize("fn, culprit", [
        ("log(x - 1e400)", "log(x - 1e999)"),
        # a constant the compiler folds: its failed fold rendered the tree too
        ("log(-1e400) + x^2", "log(-1e999)"),
    ])
    def test_infinite_literal_in_an_evaluation_error(self, capsys, fn, culprit):
        # rendering the tree for the message raised OverflowError at int(inf)
        code, _, err = run_cli(capsys, "integrate", "--fn", fn, "--interval", "0", "1")
        assert code == 1
        assert err == f"trapbound: error: log of nonpositive value -inf in {culprit}\n"

    def test_variable_is_read_from_the_text(self, capsys):
        rep = run_json(capsys, "integrate", "--fn", "t^2", "--interval", "0", "1")
        assert rep["integral"]["lo"] <= Fraction(1, 3) <= rep["integral"]["hi"]
        rep = run_json(capsys, "expectation", "--density", "2*u", "--interval", "0", "1")
        assert rep["expectation"]["lo"] <= Fraction(2, 3) <= rep["expectation"]["hi"]
        code, _, err = run_cli(capsys, "integrate", "--fn", "x + t", "--interval", "0", "1")
        assert code == 1
        assert err == "trapbound: error: --fn: unknown identifier 't' (position 5)\n"
        assert run_cli(capsys, "integrate", "--fn", "t^2", "--interval", "0", "1", "--var", "t")[0] == 1

    def test_evaluation_error(self):
        # x*log(x) cannot be evaluated at 0 by the expression evaluator
        argv = [sys.executable, "-m", "trapbound", "integrate",
                "--fn", "x*log(x)", "--interval", "0", "1"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("trapbound: error:")
        assert "Traceback" not in proc.stderr

    def test_closed_stdout_exits_1(self, capsys, monkeypatch):
        class ClosedPipe(io.TextIOBase):
            """A stdout whose reader has gone, on a descriptor of its own."""

            def __init__(self, fd):
                self.fd = fd

            def fileno(self):
                return self.fd

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        r, w = os.pipe()
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(w))
            assert main(["integrate", "--fn", "x^2.5", "--interval", "0", "1", "--n", "4"]) == 1
            # the descriptor now leads to the null device, where the flush at exit succeeds
            assert os.path.samestat(os.fstat(w), os.stat(os.devnull))
        finally:
            os.close(r)
            os.close(w)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, code", [
        (["check", "--fn", "x^4 - 0.05*x^2", "--interval", "-1", "1"], 2),
        (["integrate", "--fn", "x^2"], 1),
    ], ids=["hypothesis failure", "usage error"])
    def test_closed_stderr_keeps_the_exit_code(self, argv, code):
        # the read end is closed before the run, so the error line meets a
        # broken pipe; uncaught, it turned exit 2 into 1
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, "-m", "trapbound", *argv],
                                  stdout=subprocess.DEVNULL, stderr=w)
        finally:
            os.close(w)
        assert proc.returncode == code

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


def test_non_finite_floats_are_written_as_strings():
    # JSON has no inf or nan: the report writes them as strings, at any depth
    report = {"lo": -math.inf, "hi": math.inf, "width": math.nan, "points": [0.5, (math.nan, 1.0)], "n": 3}
    assert cli._jsonable(report) == {"lo": "-inf", "hi": "inf", "width": "nan", "points": [0.5, ["nan", 1.0]], "n": 3}
