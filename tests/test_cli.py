import csv
import math
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cva_scalar, read_units_csv_reference, write_csv_reference
from scipy.special import ndtri
from test_pipeline import fit_inputs

from shrinkci import _csvio
from shrinkci import cli
from shrinkci import moments as mom
from shrinkci import pipeline as pl
from shrinkci import worstcase as wc

Z975 = float(ndtri(0.975))


def write_units(path, y, se, x=None, weight=None):
    cols = ["y", "se"] + (["x1"] if x is not None else []) + (
        ["weight"] if weight is not None else []
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for i in range(len(y)):
            row = [y[i], se[i]]
            if x is not None:
                row.append(x[i])
            if weight is not None:
                row.append(weight[i])
            w.writerow(row)


def read_output(path):
    header = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                header[key] = value
            else:
                fh_rest = [line] + fh.readlines()
                reader = csv.DictReader(fh_rest)
                rows = list(reader)
                break
    return header, rows


class TestFitCommand:
    def test_matches_library_fit(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 30
        y = rng.normal(0, 1.5, n)
        se = rng.uniform(0.5, 2.0, n)
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_units(str(inp), y, se)
        code = cli.main(["fit", "--input", str(inp), "--output", str(out)])
        assert code == 0
        header, rows = read_output(str(out))
        res = pl.fit(mom.Units(y, se))
        assert float(header["mu2"]) == res.moments.mu2
        assert float(header["kappa"]) == res.moments.kappa
        assert len(rows) == n
        for row, exp in zip(rows, res.outputs):
            assert float(row["theta_hat"]) == exp.theta_hat
            assert float(row["lower"]) == exp.lower
            assert float(row["upper"]) == exp.upper

    def test_large_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 100_000
        y = rng.normal(0, 1, n)
        se = rng.uniform(0.5, 1.5, n)
        inp = tmp_path / "in.csv"
        out1 = tmp_path / "out1.csv"
        out2 = tmp_path / "out2.csv"
        write_units(str(inp), y, se)
        assert cli.main([
            "fit", "--input", str(inp), "--output", str(out1), "--method", "unshrunk",
        ]) == 0
        # re-emit the parsed output: repr round-trips exactly
        _, rows = read_output(str(out1))
        reparsed = [(float(r["theta_hat"]), float(r["lower"]), float(r["upper"])) for r in rows]
        with open(out2, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["theta_hat", "lower", "upper"])
            for t in reparsed:
                w.writerow([repr(v) for v in t])
        _, rows2 = read_output(str(out2))
        for a, b in zip(rows, rows2):
            assert a["theta_hat"] == b["theta_hat"]
            assert a["lower"] == b["lower"]

    def test_missing_se_column_exit_2(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("y,sigma\n1.0,0.5\n")
        out = tmp_path / "out.csv"
        assert cli.main(["fit", "--input", str(inp), "--output", str(out)]) == 2
        assert "se" in capsys.readouterr().err

    def test_bad_number_names_column_and_line(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("y,se\n1.0,0.5\nNOPE,0.7\n")
        out = tmp_path / "out.csv"
        assert cli.main(["fit", "--input", str(inp), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "'y'" in err

    @pytest.mark.parametrize("rows_before", [1, 5000], ids=["header_chunk", "later_chunk"])
    def test_non_utf8_input_exit_2_names_file(self, tmp_path, capsys, rows_before):
        # 5000 rows put the bad byte past the first decoded chunk and block
        inp = tmp_path / "in.csv"
        inp.write_bytes(b"y,se\n" + b"1.0,0.5\n" * rows_before + b"2.0,\xff0.7\n")
        out = tmp_path / "out.csv"
        assert cli.main(["fit", "--input", str(inp), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and str(inp) in err and "not UTF-8" in err

    def test_bad_number_after_comments_names_physical_line(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("# a comment\n# another\ny,se\n1.0,0.5\nNOPE,0.7\n")
        out = tmp_path / "out.csv"
        assert cli.main(["fit", "--input", str(inp), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and "'y'" in err

    def test_invalid_unit_after_comments_names_physical_line(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("# a comment\ny,se\n1.0,0.5\n# mid-file comment\n2.0,0.7\n3.0,0\n")
        out = tmp_path / "out.csv"
        assert cli.main(["fit", "--input", str(inp), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 6" in err and "sigma" in err

    def test_nn_j_without_nn_moments_exit_4(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        write_units(str(inp), np.linspace(-1, 1, 40), np.ones(40))
        assert cli.main([
            "fit", "--input", str(inp), "--output", str(tmp_path / "o.csv"), "--nn-j", "10",
        ]) == 4
        assert "--nn-j" in capsys.readouterr().err

    @pytest.mark.parametrize("nn_j", ["1", "41"])
    def test_nn_j_outside_unit_range_exit_4(self, tmp_path, capsys, nn_j):
        inp = tmp_path / "in.csv"
        write_units(str(inp), np.linspace(-1, 1, 40), np.ones(40))
        assert cli.main([
            "fit", "--input", str(inp), "--output", str(tmp_path / "o.csv"),
            "--moments", "nn", "--nn-j", nn_j,
        ]) == 4
        assert "[2, 40]" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["robust_mu2", "robust_mu2_kappa"])
    def test_one_huge_standard_error_keeps_the_batch(self, tmp_path, method):
        # m2 = se^2 / mu2 near 1e18 for the outlier: its chi lies beyond 2**26,
        # where the float spacing exceeds the inversion's 1e-8 bracket width
        rng = np.random.default_rng(7)
        se = np.ones(200)
        se[17] = 1e9
        y = rng.normal(0, 1.5, 200) + se * rng.standard_normal(200)
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_units(str(inp), y, se)
        assert cli.main([
            "fit", "--input", str(inp), "--output", str(out), "--method", method,
            "--weights", "inverse_variance",
        ]) == 0
        _, rows = read_output(str(out))
        assert len(rows) == 200
        for r in rows:
            assert r["error"] == ""
            assert all(math.isfinite(float(r[c])) for c in ("theta_hat", "cva", "lower", "upper"))

    @pytest.mark.parametrize("method", ["parametric", "robust_mu2", "robust_mu2_kappa"])
    @pytest.mark.parametrize("se_big", [1e70, 1e80, 1e155])
    def test_one_extreme_standard_error(self, tmp_path, capsys, method, se_big):
        # the PMT moments are taken on data scaled by a power of two, so
        # sigma^4 and sigma^8 do not overflow; a unit whose se^2 overflows
        # is rejected, naming its line (header plus 18 rows)
        rng = np.random.default_rng(0)
        y, se = rng.normal(size=200), np.ones(200)
        se[17] = se_big
        y[17] *= se_big
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_units(str(inp), y, se)
        code = cli.main(["fit", "--input", str(inp), "--output", str(out), "--method", method])
        if se_big > 1e154:
            assert code == 2
            assert "line 19" in capsys.readouterr().err
            return
        assert code == 0
        _, rows = read_output(str(out))
        assert len(rows) == 200
        for r in rows:
            assert r["error"] == ""
            assert all(math.isfinite(float(r[c])) for c in ("theta_hat", "cva", "lower", "upper"))

    @pytest.mark.parametrize("method", ["parametric", "robust_mu2", "robust_mu2_kappa"])
    @pytest.mark.parametrize("y_big", [1e100, 1e200, 1e300])
    def test_one_extreme_estimate(self, tmp_path, capsys, method, y_big):
        # se = 1 throughout: the PMT floors keep a scale of their own, so the
        # huge residual does not flush them to 0 / 0; a unit whose y^2
        # overflows is rejected, naming its line (header plus 18 rows)
        rng = np.random.default_rng(0)
        y = rng.normal(size=200)
        y[17] = y_big
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_units(str(inp), y, np.ones(200))
        code = cli.main([
            "fit", "--input", str(inp), "--output", str(out), "--method", method,
            "--moments", "pmt",
        ])
        if y_big > 1.34e154:
            assert code == 2
            assert "line 19" in capsys.readouterr().err
            return
        assert code == 0
        _, rows = read_output(str(out))
        assert len(rows) == 200
        for r in rows:
            assert r["error"] == ""
            assert all(math.isfinite(float(r[c])) for c in ("theta_hat", "cva", "lower", "upper"))

    @pytest.mark.parametrize("kind,big", [("y", 1e100), ("se", 1e40), ("se", 1e80)])
    def test_fplib_one_extreme_unit(self, tmp_path, kind, big):
        # FPLIB's variance estimates run on the power-of-two scale of the PMT
        # moments, so the outlier's eps^4 no longer overflows (exit 3 once)
        rng = np.random.default_rng(0)
        y, se = rng.normal(size=200), np.ones(200)
        if kind == "se":
            se[17] = big
        y[17] = big if kind == "y" else y[17] * big
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_units(str(inp), y, se)
        assert cli.main([
            "fit", "--input", str(inp), "--output", str(out), "--method", "robust_mu2_kappa",
            "--moments", "fplib",
        ]) == 0
        header, rows = read_output(str(out))
        assert math.isfinite(float(header["mu2"])) and math.isfinite(float(header["kappa"]))
        assert len(rows) == 200
        for r in rows:
            assert r["error"] == ""
            assert all(math.isfinite(float(r[c])) for c in ("theta_hat", "cva", "lower", "upper"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nn_j", [["--nn-j", "30"], []])
    @pytest.mark.parametrize("kind,big", [("se", 1e80), ("se", 1e150), ("y", 1e100), ("y", 1e150)])
    def test_nn_one_extreme_unit(self, tmp_path, kind, big, nn_j):
        # each neighborhood takes its own power-of-two scales: with one per
        # call the floors of every neighborhood without the outlier read
        # 0 / 0, and CV's squared errors overflowed to inf for every J
        rng = np.random.default_rng(0)
        y, se, x = rng.normal(size=201), np.ones(201), rng.normal(size=201)
        if kind == "se":
            se[200] = big
            y[200] *= big
        else:
            y[200] = big
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_units(str(inp), y, se, x=x)
        assert cli.main([
            "fit", "--input", str(inp), "--output", str(out), "--method", "robust_mu2_kappa",
            "--moments", "nn", *nn_j,
        ]) == 0
        _, rows = read_output(str(out))
        assert len(rows) == 201
        for r in rows:
            assert r["error"] == ""
            assert all(math.isfinite(float(r[c])) for c in ("theta_hat", "cva", "lower", "upper"))

    @pytest.mark.parametrize("method", ["parametric", "robust_mu2", "robust_mu2_kappa"])
    def test_huge_center_keeps_each_estimate(self, tmp_path, method):
        # one unit at se = 1e80, y = 3e80 puts the center near 1.5e78 and
        # gives every other unit w_eb = 1, whose estimate is then its own y
        # (the center cancelled it to 0.0 once)
        rng = np.random.default_rng(0)
        y = np.append(rng.normal(size=200), 3e80)
        se = np.append(np.ones(200), 1e80)
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_units(str(inp), y, se)
        assert cli.main(["fit", "--input", str(inp), "--output", str(out), "--method", method]) == 0
        _, rows = read_output(str(out))
        ones = [(float(r["theta_hat"]), yi) for r, yi in zip(rows, y) if float(r["w_eb"]) == 1.0]
        assert len(ones) == 200
        assert all(theta == yi for theta, yi in ones)

    def test_alpha_out_of_range_exit_4(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("y,se\n1.0,0.5\n")
        assert cli.main([
            "fit", "--input", str(inp), "--output", str(tmp_path / "o.csv"),
            "--alpha", "1.5",
        ]) == 4

    def test_weight_column_used(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 20
        y = rng.normal(0, 1, n)
        se = rng.uniform(0.5, 1.0, n)
        weight = rng.uniform(0.1, 1.0, n)
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_units(str(inp), y, se, weight=weight)
        assert cli.main(["fit", "--input", str(inp), "--output", str(out)]) == 0
        header, _ = read_output(str(out))
        res = pl.fit(mom.Units(y, se, omega=weight), weights="record")
        assert float(header["mu2"]) == res.moments.mu2

    @pytest.mark.parametrize("explicit", [["--weights", "inverse_variance"], ["--weights", "uniform"], "config"])
    def test_weights_with_weight_column_exit_4(self, tmp_path, capsys, explicit):
        # the weight column sets record weights; an explicit choice is not
        # ignored but refused, from a flag or a config key alike
        rng = np.random.default_rng(2)
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_units(str(inp), rng.normal(0, 1, 30), rng.uniform(0.5, 1.0, 30), weight=rng.uniform(0.1, 1.0, 30))
        if explicit == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("weights=inverse_variance\n")
            explicit = ["--config", str(cfg)]
        assert cli.main(["fit", "--input", str(inp), "--output", str(out), *explicit]) == 4
        err = capsys.readouterr().err
        assert "config error" in err and "--weights" in err and "weight column" in err
        assert not out.exists()

    def test_weights_with_unit_weight_column(self, tmp_path):
        # a weight column of ones weighs nothing, so --weights applies
        rng = np.random.default_rng(2)
        y, se = rng.normal(0, 1, 30), rng.uniform(0.5, 1.0, 30)
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_units(str(inp), y, se, weight=np.ones(30))
        assert cli.main(["fit", "--input", str(inp), "--output", str(out), "--weights", "inverse_variance"]) == 0
        header, _ = read_output(str(out))
        res = pl.fit(mom.Units(y, se), weights="inverse_variance")
        assert float(header["mu2"]) == res.moments.mu2

    def test_fplib_constant_input_falls_back_to_pmt(self, tmp_path):
        # every w2 equal: FPLIB's variance estimate is 0, so it takes PMT's moments
        inp = tmp_path / "in.csv"
        write_units(str(inp), np.ones(4), np.ones(4))
        by_fplib, by_pmt = tmp_path / "fplib.csv", tmp_path / "pmt.csv"
        with pytest.warns(UserWarning, match="falling back to PMT"):
            assert cli.main(["fit", "--input", str(inp), "--output", str(by_fplib), "--moments", "fplib"]) == 0
        assert cli.main(["fit", "--input", str(inp), "--output", str(by_pmt), "--moments", "pmt"]) == 0
        fplib, pmt = read_output(str(by_fplib)), read_output(str(by_pmt))
        assert fplib[0]["mu2"] == pmt[0]["mu2"] and fplib[0]["kappa"] == pmt[0]["kappa"]
        assert fplib[1] == pmt[1]

    def test_config_file_defaults_and_flag_precedence(self, tmp_path):
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1, 15)
        se = np.full(15, 1.0)
        inp = tmp_path / "in.csv"
        write_units(str(inp), y, se)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.10\nmethod=unshrunk\n")
        out1 = tmp_path / "o1.csv"
        assert cli.main([
            "fit", "--input", str(inp), "--output", str(out1), "--config", str(cfg),
        ]) == 0
        header, rows = read_output(str(out1))
        assert header["alpha"] == "0.1" and header["method"] == "unshrunk"
        half = float(rows[0]["half_length"])
        assert half == pytest.approx(float(ndtri(0.95)), rel=1e-12)
        # explicit flag beats the config value
        out2 = tmp_path / "o2.csv"
        assert cli.main([
            "fit", "--input", str(inp), "--output", str(out2),
            "--config", str(cfg), "--alpha", "0.05",
        ]) == 0
        header2, _ = read_output(str(out2))
        assert header2["alpha"] == "0.05"


@settings(max_examples=30, deadline=None)
@given(case=fit_inputs(), method=st.sampled_from(pl.METHODS), bad_se=st.sampled_from(["nan", "inf", "-inf"]))
def test_fit_route_matches_the_library_and_exits_by_kind(case, method, bad_se):
    # the CLI's columns are pl.fit's bit for bit on the library property's
    # edge inputs; one broken thing at a time then gives its exit code and
    # writes no output
    data, alpha, variant, weights = case
    y, se = data.y.tolist(), data.sigma.tolist()
    flags = ["--alpha", repr(alpha), "--method", method, "--weights", weights]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "FPLIB variance estimate", UserWarning)
        inp, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "out.csv")
        write_units(inp, y, se)
        assert cli.main(["fit", "--input", inp, "--output", out, "--moments", variant, *flags]) == 0
        header, rows = read_output(out)
        res = pl.fit(data, alpha=alpha, method=method, moment_variant=variant, weights=weights)
        assert (float(header["mu2"]), float(header["kappa"])) == (res.moments.mu2, res.moments.kappa)
        for name in ("theta_hat", "w_eb", "cva", "lower", "upper", "half_length", "param_max_noncov"):
            parsed = np.array([float(r[name]) for r in rows])
            assert parsed.tobytes() == getattr(res, name).tobytes(), name
        assert [r["rule_of_thumb_ok"] for r in rows] == [str(int(v)) for v in res.rule_of_thumb_ok]
        assert [r["error"] for r in rows] == ["" if e is None else e for e in res.error]
        os.remove(out)

        write_units(inp, y, [bad_se, *se[1:]])
        assert cli.main(["fit", "--input", inp, "--output", out, "--moments", variant, *flags]) == 2
        write_units(inp, y, se)
        other = "pmt" if variant == "nn" else variant
        assert cli.main(["fit", "--input", inp, "--output", out, "--moments", other, "--nn-j", "2", *flags]) == 4
        write_units(inp, y[:2], se[:2])
        assert cli.main(["fit", "--input", inp, "--output", out, "--moments", "nn", *flags]) == 3
        assert not os.path.exists(out)


def test_nn_on_two_units_names_the_count(tmp_path, capsys):
    # cross-validation has no candidate neighbor count below 3 units
    inp = tmp_path / "in.csv"
    write_units(str(inp), [0.5, -1.0], [1.0, 2.0])
    assert cli.main(["fit", "--input", str(inp), "--output", str(tmp_path / "o.csv"), "--moments", "nn"]) == 3
    assert "among 2 units" in capsys.readouterr().err
    assert cli.main(["fit", "--input", str(inp), "--output", str(tmp_path / "o.csv"), "--moments", "nn", "--nn-j", "2"]) == 0


class TestConfigFile:
    """Config-file values go through their option's own type and choices."""

    def test_non_utf8_config_file_exit_4(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"alpha=0.1\n\xff\n")
        assert cli.main(["cva", "--output", str(tmp_path / "o.csv"), "--m2", "1", "--config", str(cfg)]) == 4
        assert "config error" in capsys.readouterr().err

    @staticmethod
    def base_args(tmp_path, command):
        if command == "fit":
            rng = np.random.default_rng(8)
            se = rng.uniform(0.5, 2.0, 60)
            inp = tmp_path / "in.csv"
            write_units(str(inp), rng.normal(0, 1.5, 60), se, x=rng.normal(0, 1, 60))
            return ["--input", str(inp)]
        if command == "cva":
            return ["--m2", "0.5,2"]
        return list(TestSimulateCommand.ARGS)

    @pytest.mark.parametrize(
        "command,config,flags",
        [
            ("fit", "moments=nn\nnn_j=30\n", ["--moments", "nn", "--nn-j", "30"]),
            ("cva", "kappa=3\n", ["--kappa", "3"]),
            ("simulate", "workers=2\n", ["--workers", "2"]),
        ],
        ids=["fit-nn-j", "cva-kappa", "simulate-workers"],
    )
    def test_config_file_gives_the_flags_csv(self, tmp_path, command, config, flags):
        # these options default to None, so no current value gives their type
        base = self.base_args(tmp_path, command)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        by_cfg, by_flags = tmp_path / "cfg.csv", tmp_path / "flags.csv"
        assert cli.main([command, *base, "--output", str(by_cfg), "--config", str(cfg)]) == 0
        assert cli.main([command, *base, "--output", str(by_flags), *flags]) == 0
        assert by_cfg.read_bytes() == by_flags.read_bytes()

    @pytest.mark.parametrize(
        "command,config",
        [("fit", "nn_j=abc\n"), ("fit", "moments=zz\n"), ("cva", "kappa=three\n"),
         ("simulate", "workers=1.5\n"), ("cva", "func=x\n"), ("fit", "alph=0.1\n"),
         ("cva", "kappa=0.5\n"), ("simulate", "methods=foo\n"), ("cva", "config=other.cfg\n")],
        ids=["int", "choice", "float", "int-workers", "not-an-option", "prefix-key", "kappa-below-1",
             "unknown-method", "nested-config"],
    )
    def test_bad_config_value_exit_4(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "o.csv"
        args = [command, *self.base_args(tmp_path, command), "--output", str(out), "--config", str(cfg)]
        assert cli.main(args) == 4
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_supplies_required_options(self, tmp_path, capsys):
        inp = self.base_args(tmp_path, "fit")[1]
        by_cfg, by_flags = tmp_path / "cfg.csv", tmp_path / "flags.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={inp}\noutput={by_cfg}\n")
        assert cli.main(["fit", "--config", str(cfg)]) == 0
        assert cli.main(["fit", "--input", inp, "--output", str(by_flags)]) == 0
        assert by_cfg.read_bytes() == by_flags.read_bytes()
        # one the file leaves out is still required
        cfg.write_text(f"input={inp}\n")
        assert cli.main(["fit", "--config", str(cfg)]) == 4
        assert "required: --output" in capsys.readouterr().err

    def test_config_value_error_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa=0.5\n")
        assert cli.main(["cva", "--m2", "1", "--output", str(tmp_path / "o.csv"), "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert str(cfg) in err and "--kappa" in err and "got 0.5" in err


class TestCurvesCommand:
    def test_curve_properties(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert cli.main([
            "curves", "--output", str(out), "--points", "12",
            "--m2-min", "0.05", "--m2-max", "20", "--kappas", "3",
        ]) == 0
        _, rows = read_output(str(out))
        by_kappa = {}
        for r in rows:
            by_kappa.setdefault(r["kappa"], []).append(r)
        assert set(by_kappa) == {"3.0", "inf"}
        for r in rows:
            m2 = float(r["m2"])
            assert float(r["cva_parametric"]) == pytest.approx(
                Z975 * math.sqrt(1 + m2), rel=1e-12
            )
            if m2 == 0.0:
                assert float(r["cva"]) == pytest.approx(Z975, abs=1e-7)
        for fin, inf in zip(by_kappa["3.0"], by_kappa["inf"]):
            assert float(fin["cva"]) <= float(inf["cva"]) + 1e-7

    def test_inf_kappa_is_the_no_bound_curve(self, tmp_path):
        # its m2 = 0 key warned in inf * 0, an error under the suite's filter
        out = tmp_path / "curves.csv"
        assert cli.main(["curves", "--output", str(out), "--points", "5", "--kappas", "inf,3"]) == 0
        _, rows = read_output(str(out))
        curves = [rows[i : i + 6] for i in range(0, len(rows), 6)]
        assert [c[0]["kappa"] for c in curves] == ["inf", "3.0", "inf"]
        assert [r["cva"] for r in curves[0]] == [r["cva"] for r in curves[2]]

    @pytest.mark.parametrize(
        "argv, flag, shown",
        [
            (["curves", "--kappas", "3,abc"], "--kappas", "'abc'"),
            (["curves", "--kappas", "0.5"], "--kappas", "'0.5'"),
            (["curves", "--m2-min", "-1"], "--m2-min", "got -1.0"),
            (["cva", "--m2", "-1"], "--m2", "'-1'"),
            (["cva", "--m2", "1", "--kappa", "0.5"], "--kappa", "got 0.5"),
            (["curves", "--points", "-1"], "--points", "got -1"),
            (["curves", "--points", "0"], "--points", "got 0"),
            (["power", "--w-min", "0"], "--w-min", "got 0.0"),
            (["power", "--w-max", "1.5"], "--w-max", "got 1.5"),
            (["power", "--d-steps", "-1"], "--d-steps", "got -1"),
            (["power", "--w-steps", "0"], "--w-steps", "got 0"),
            (["power", "--d-max", "-1"], "--d-max", "got -1.0"),
            (["power", "--d-max", "nan"], "--d-max", "got nan"),
            # argparse's own usage errors exit 4 as well
            (["cva", "--m2", "1", "--alpha", "abc"], "--alpha", "'abc'"),
            (["fit", "--input", "in.csv", "--method", "foo"], "--method", "'foo'"),
            (["fit"], "--input", "required"),
            (["cva", "--m2", "1", "--bogus", "1"], "--bogus", "unrecognized"),
        ],
        ids=["kappas", "kappas_below_1", "m2_min_negative", "cva_m2_negative", "cva_kappa_below_1",
             "points_negative", "points_0", "power_w_min_0", "power_w_max_above_1", "power_d_steps_negative",
             "power_w_steps_0", "power_d_max_negative", "power_d_max_nan", "alpha_not_a_number",
             "fit_unknown_method", "fit_missing_input", "unknown_flag"],
    )
    def test_non_numeric_kappas_exit_4(self, tmp_path, capsys, argv, flag, shown):
        # a value out of range is a configuration error, as an unparseable one is
        out = tmp_path / "out.csv"
        assert cli.main([*argv, "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert "config error" in err and flag in err and shown in err
        assert not out.exists()


class TestCvaCommand:
    def test_values_match_library(self, tmp_path):
        out = tmp_path / "cva.csv"
        assert cli.main(["cva", "--m2", "0,1,4", "--output", str(out)]) == 0
        _, rows = read_output(str(out))
        for r in rows:
            m2 = float(r["m2"])
            assert float(r["cva"]) == pytest.approx(cva_scalar(m2, None, 0.05), abs=1e-7)
            assert float(r["noncoverage"]) <= 0.05 + 1e-5

    @pytest.mark.parametrize("kappa", [None, "1.000001", "3"])
    @pytest.mark.parametrize("alpha", ["0.05", "0.001"])
    def test_extreme_moments_at_most_alpha(self, tmp_path, alpha, kappa):
        # the binding pair's diagnostics overflowed in (x - x0)^2 at m2 = 1e300
        # (exit 3), the kernel's second derivative warned at t = 1e-300, and
        # the kink and the pair, solved at the unscaled chi, overflowed at
        # m2 = 1.7e308 and reported a worst case above alpha from m2 = 1e150
        out = tmp_path / "cva.csv"
        m2 = "1e-300,1e-20,1,1e150,1e300,1.7e308"
        flags = [] if kappa is None else ["--kappa", kappa]
        assert cli.main(["cva", "--m2", m2, *flags, "--alpha", alpha, "--output", str(out)]) == 0
        _, rows = read_output(str(out))
        kap = None if kappa is None else float(kappa)
        chi = wc.critical_values([float(v) for v in m2.split(",")], kap, float(alpha))
        assert [float(r["cva"]) for r in rows] == chi.tolist()
        assert all(float(r["noncoverage"]) <= float(alpha) for r in rows)


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"], ["simulate", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage: shrinkci" in capsys.readouterr().out


def test_python_m_shrinkci_runs_the_cli(tmp_path):
    # under PYTHONPATH=src, without an installed entry point
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    by_module, by_main = tmp_path / "m.csv", tmp_path / "main.csv"
    subprocess.run(
        [sys.executable, "-m", "shrinkci", "cva", "--m2", "0,1,4", "--output", str(by_module)],
        env=env, check=True,
    )
    assert cli.main(["cva", "--m2", "0,1,4", "--output", str(by_main)]) == 0
    assert by_module.read_bytes() == by_main.read_bytes()


class TestSimulateCommand:
    ARGS = [
        "--reps", "4", "--n", "30", "--theta-kinds", "normal,two_point",
        "--snr", "0.5", "--methods", "robust_mu2,unshrunk", "--seed", "12",
    ]

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        outs = []
        for i, workers in enumerate(("1", "1", "2")):
            out = tmp_path / f"sim{i}.csv"
            assert cli.main([
                "simulate", "--output", str(out), "--workers", workers, *self.ARGS,
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_smoke_runtime_single_rep(self, tmp_path):
        import time
        out = tmp_path / "sim.csv"
        start = time.time()
        assert cli.main([
            "simulate", "--output", str(out), "--reps", "1", "--n", "100",
            "--theta-kinds", "normal", "--snr", "0.5",
            "--methods", "robust_mu2_kappa", "--seed", "1", "--workers", "1",
        ]) == 0
        assert time.time() - start < 10.0

    def test_missing_het_input_exit_2(self, tmp_path):
        assert cli.main([
            "simulate", "--output", str(tmp_path / "o.csv"),
            "--het-input", str(tmp_path / "missing.csv"), "--reps", "2",
        ]) == 2

    def test_bad_het_input_names_physical_line_and_column_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# calibration draws\ntheta_hat,se\n0.1,0.5\n\n-0.2,0.7\n0.3,oops\n")
        assert cli.main([
            "simulate", "--output", str(tmp_path / "o.csv"), "--het-input", str(bad), "--reps", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert "line 6" in err and "column 'se'" in err and "'oops'" in err

    def test_non_utf8_het_input_exit_2_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"theta_hat,se\n0.1,0.5\n0.2,\xff0.7\n")
        assert cli.main([
            "simulate", "--output", str(tmp_path / "o.csv"), "--het-input", str(bad), "--reps", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and str(bad) in err and "not UTF-8" in err

    @pytest.mark.parametrize("se", ["-1", "0", "nan", "inf"])
    def test_bad_se_in_het_input_names_line_exit_2(self, tmp_path, capsys, se):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"theta_hat,se\n0.1,0.5\n# comment\n\n-0.2,{se}\n0.3,0.4\n")
        assert cli.main([
            "simulate", "--output", str(tmp_path / "o.csv"), "--het-input", str(bad), "--reps", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and "column 'se'" in err and repr(se) in err

    @pytest.mark.parametrize("rows", ["", "0.1,0.5\n"])
    def test_het_input_with_fewer_than_two_rows_exit_2_names_file(self, tmp_path, capsys, rows):
        few = tmp_path / "few.csv"
        few.write_text("# calibration draws\ntheta_hat,se\n\n" + rows)
        assert cli.main([
            "simulate", "--output", str(tmp_path / "o.csv"), "--het-input", str(few), "--reps", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and str(few) in err

    @pytest.mark.parametrize("first, second, line, raw", [
        ("0.2,-1", "oops,0.4", 3, "'-1'"), ("oops,0.4", "0.2,-1", 3, "'oops'"),
    ])
    def test_het_input_names_first_bad_value_in_file_order(self, tmp_path, capsys, first, second, line, raw):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"theta_hat,se\n0.1,0.5\n{first}\n{second}\n")
        assert cli.main([
            "simulate", "--output", str(tmp_path / "o.csv"), "--het-input", str(bad), "--reps", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert f"line {line}:" in err and raw in err

    @pytest.mark.parametrize(
        "flags, shown",
        [
            (["--snr", "abc"], "'abc'"),
            (["--t", "abc"], "'abc'"),
            (["--t", "1.5"], "'1.5'"),
            (["--snr", "-1"], "'-1'"),
            (["--n", "1"], "got 1"),
            (["--reps", "0"], "got 0"),
            (["--theta-kinds", "foo"], "'foo'"),
            (["--methods", "foo"], "'foo'"),
            (["--snr", "inf"], "'inf'"),
            (["--snr", ","], "at least one value"),
            (["--theta-kinds", ","], "at least one value"),
            (["--methods", ","], "at least one value"),
            (["--workers", "-1"], "got -1"),
            (["--workers", "0"], "got 0"),
            (["--seed", "-1"], "got -1"),
        ],
        ids=["snr", "t", "t_fraction", "snr_negative", "n_1", "reps_0", "theta_kinds_unknown",
             "methods_unknown", "snr_inf", "snr_empty", "theta_kinds_empty", "methods_empty",
             "workers_negative", "workers_0", "seed_negative"],
    )
    def test_non_numeric_flag_exit_4(self, tmp_path, capsys, flags, shown):
        out = tmp_path / "o.csv"
        assert cli.main(["simulate", "--output", str(out), "--reps", "2", *flags]) == 4
        err = capsys.readouterr().err
        assert "config error" in err and flags[0] in err and shown in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_workers_env_var_exit_4(self, tmp_path, capsys, monkeypatch, value):
        # the variable is --workers' default, checked by its type
        monkeypatch.setenv(cli.WORKERS_ENV, value)
        out = tmp_path / "o.csv"
        assert cli.main(["simulate", "--output", str(out), "--reps", "2"]) == 4
        err = capsys.readouterr().err
        assert "config error" in err and cli.WORKERS_ENV in err
        assert not out.exists()

    def test_workers_env_var_honored_and_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        out_env = tmp_path / "env.csv"
        assert cli.main(["simulate", "--output", str(out_env), *self.ARGS]) == 0
        out_flag = tmp_path / "flag.csv"
        assert cli.main([
            "simulate", "--output", str(out_flag), "--workers", "1", *self.ARGS,
        ]) == 0
        # worker count never changes the report, so both paths agree
        assert out_env.read_bytes() == out_flag.read_bytes()


class TestPowerCommand:
    def test_grid_has_both_signs_of_power_difference(self, tmp_path):
        out = tmp_path / "power.csv"
        assert cli.main([
            "power", "--output", str(out), "--d-steps", "9", "--w-steps", "5",
            "--d-max", "3.0", "--w-min", "0.1", "--w-max", "0.9",
        ]) == 0
        _, rows = read_output(str(out))
        diffs = [float(r["power_difference"]) for r in rows]
        assert any(d > 0.01 for d in diffs)
        assert any(d < -0.01 for d in diffs)
        assert all(0 <= float(r["power_robust"]) <= 1 for r in rows)


def _quoted(field):
    return '"' + field.replace('"', '""') + '"'


_NAMES = ("y", "se", "x1", "x2", "x10", "x01", "weight", "z", "")
_TOKENS = (
    "1_000", "nan", "inf", "-inf", "", " ", " 1.5 ", "-0.0", "0", "abc", "1e999",
    "1,5", 'a"b', "2\n3", "4\n# not a comment",
)
_GOOD = st.floats(0.1, 10.0).map(repr)
_ANY = st.one_of(
    st.floats().map(repr),
    st.sampled_from(_TOKENS),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
)


@st.composite
def units_files(draw):
    """Text of a units CSV: comment lines, blank lines, quoted fields,
    duplicated column names, short and long rows, and bad tokens."""
    names = draw(st.lists(st.sampled_from(_NAMES), max_size=5))
    if draw(st.integers(0, 9)):
        names += ["y", "se"]
    names = draw(st.permutations(names))
    rarely = lambda: draw(st.integers(0, 19)) == 0

    def row(fields):
        quote = lambda f: any(c in f for c in ',"\n') or rarely()
        return ",".join(_quoted(f) if quote(f) else f for f in fields)

    def data_row():
        width = len(names) + (draw(st.integers(-2, 2)) if rarely() else 0)
        return row([draw(_ANY if rarely() else _GOOD) for _ in range(max(0, width))])

    comment = st.sampled_from(["# comment", "#", "#y,se"])
    other = st.one_of(comment, st.sampled_from(["", " "]))
    lines = [draw(comment) for _ in range(draw(st.integers(0, 2)))] + [row(names)]
    for _ in range(draw(st.integers(0, 12))):
        lines.append(draw(other) if rarely() or rarely() else data_row())
    text = "".join(line + draw(st.sampled_from(["\n", "\n", "\r\n"])) for line in lines)
    return text if draw(st.booleans()) else text[:-1]


def _read_outcome(read, path):
    """The arrays of the ``Units`` read, bit for bit, or the error raised."""
    try:
        units = read(path)
    except Exception as exc:  # compare whatever the reference raises
        return type(exc).__name__, str(exc)
    return tuple((a.shape, a.tobytes()) for a in (units.y, units.sigma, units.X, units.omega))


_SPECIAL_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
    1e-5, 9.999999999999999e-06, 1e-4, 1e16, 9999999999999998.0, 1e15, 0.1, -1.5,
)
_COLUMNS = st.sampled_from(["float", "object", "str", "int"])
_TEXT = st.text(st.sampled_from(["a", " ", ",", '"', "\n", "\r", "#", "é"]), max_size=4)


def _column(draw, kind, n):
    if kind == "float":
        values = [draw(st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))) for _ in range(n)]
        return np.array(values, dtype=float)
    if kind == "object":
        values = [draw(st.one_of(st.none(), st.just(""), _TEXT)) for _ in range(n)]
        return np.array(values, dtype=object)
    if kind == "str":
        return np.full(n, draw(_TEXT))
    return np.array([draw(st.integers(0, 1)) for _ in range(n)])


class TestCsvLayer:
    """The blocked columnar reader and writer against the row-at-a-time
    references in ``tests/oracles.py``, with three rows to a block so that
    files span full and partial blocks."""

    @pytest.fixture(scope="class")
    def csv_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("csv")

    @settings(max_examples=400, deadline=None)
    @given(text=units_files())
    def test_reader_matches_dictreader_reference(self, csv_dir, text):
        path = csv_dir / "units.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(_csvio, "BLOCK_ROWS", 3):
            got = _read_outcome(cli._read_units_csv, str(path))
        assert got == _read_outcome(read_units_csv_reference, str(path))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 11), kinds=st.lists(_COLUMNS, min_size=2, max_size=5), data=st.data())
    def test_writer_matches_row_writer(self, csv_dir, n, kinds, data):
        columns = {f"c{j}": _column(data.draw, kind, n) for j, kind in enumerate(kinds)}
        comments = ["alpha=0.05", "a note"]
        with mock.patch.object(_csvio, "BLOCK_ROWS", 3):
            _csvio.write_csv(str(csv_dir / "new.csv"), comments, columns)
        rows = zip(*(col.tolist() for col in columns.values()))
        write_csv_reference(str(csv_dir / "ref.csv"), comments, list(columns), rows)
        assert (csv_dir / "new.csv").read_bytes() == (csv_dir / "ref.csv").read_bytes()

    @pytest.mark.parametrize("method", pl.METHODS)
    def test_fit_output_parses_to_library_columns(self, tmp_path, monkeypatch, method):
        monkeypatch.setattr(_csvio, "BLOCK_ROWS", 16)
        rng = np.random.default_rng(11)
        n = 40
        y, se, x = rng.normal(0, 1.5, n), rng.uniform(0.5, 2.0, n), rng.normal(0, 1, n)
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_units(str(inp), y, se, x=x)
        assert cli.main(["fit", "--input", str(inp), "--output", str(out), "--method", method]) == 0
        _, rows = read_output(str(out))
        res = pl.fit(mom.Units(y, se, X=np.column_stack([np.ones(n), x])), method=method)
        assert len(rows) == n
        for name in ("theta_hat", "w_eb", "cva", "lower", "upper", "half_length", "param_max_noncov"):
            parsed = np.array([float(r[name]) for r in rows])
            assert parsed.tobytes() == getattr(res, name).tobytes(), name
        assert [r["rule_of_thumb_ok"] for r in rows] == [str(int(v)) for v in res.rule_of_thumb_ok]
        assert {r["method"] for r in rows} == {method}
        assert [r["error"] for r in rows] == ["" if e is None else e for e in res.error]

    def test_unclosed_quote_exit_2(self, tmp_path, capsys):
        # the quote swallows the rest of the file into one field, beyond
        # csv's field size limit
        inp = tmp_path / "in.csv"
        inp.write_text('y,se\n"1.0,0.5\n' + "2.0,0.7\n" * 20_000)
        assert cli.main(["fit", "--input", str(inp), "--output", str(tmp_path / "o.csv")]) == 2
        assert "field larger than field limit" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy_optimize():
    # scipy.optimize costs about a quarter second at start-up; only the
    # nonlinear calibrations (through momentlp) need it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, shrinkci.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
