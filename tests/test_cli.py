import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import reeb_spectra
from reeb_spectra import cli
from reeb_spectra.bodies import ConvexBody
from reeb_spectra.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from reeb_spectra.ellipsoid import action_spectrum, spectrum_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_e12_table(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--ellipsoid", "1,2", "--max", "6")
        assert code == EXIT_OK
        data = json.loads(out)
        assert [row["tau"] for row in data["entries"]] == ["1", "2", "3", "4", "5", "6"]
        assert [row["multiplicity"] for row in data["entries"]] == [1, 2, 1, 2, 1, 2]
        assert data["meta"]["mode"] == "exact"

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--ellipsoid", "1,2", "--max", "3", "--out", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("tau,multiplicity")
        assert len(lines) == 4

    def test_plot_output(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "spectrum", "--ellipsoid", "1,2", "--max", "3",
            "--out", "plot", "--plot-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        files = json.loads(out)["series_files"]
        assert files and all((tmp_path / f.split("/")[-1]).exists() for f in files)
        first = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert first[0] == "x,y"


class TestClassify:
    def test_round_zoll_hit(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--ellipsoid", "1,1", "--count", "4")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["classification"] == "Zoll"
        assert data["zoll_by_invariant_equality"]
        assert data["invariant_hits"][0] == {"i": 0, "tau": "1", "mu": 2}

    def test_roundtrip_spectrum_to_classify(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "spectrum", "--ellipsoid", "1,2", "--max", "8")
        spectrum_file = tmp_path / "spec.json"
        spectrum_file.write_text(out)
        code, out2, _ = run_cli(
            capsys, "classify", "--from-spectrum", str(spectrum_file), "--count", "8"
        )
        assert code == EXIT_OK
        reingested = json.loads(out2)
        code, out3, _ = run_cli(capsys, "classify", "--ellipsoid", "1,2", "--count", "8")
        direct = json.loads(out3)
        assert reingested["hits"] == direct["invariant_hits"]
        assert reingested["besse"] and not reingested["zoll"]

    def test_spectrum_json_reingests_to_the_direct_hits(self, capsys, tmp_path):
        # acceptance-style vectors (n in 2..6, a_h = p/q <= 10, some round);
        # the table up to count a_1 holds the first count invariants
        rng = np.random.default_rng(4242)
        count, with_hits = 40, 0
        for j in range(16):
            n = int(rng.integers(2, 7))
            if j % 4 == 0:
                a = [Fraction(int(rng.integers(1, 41)), int(rng.integers(1, 5)))] * n
            else:
                q = rng.integers(1, 5, size=n)
                a = sorted(Fraction(int(rng.integers(1, 10 * qh + 1)), int(qh)) for qh in q)
            spec = ",".join(map(str, a))
            code, out, _ = run_cli(capsys, "spectrum", "--ellipsoid", spec, "--max", str(count * a[0]))
            assert code == EXIT_OK
            spectrum_file = tmp_path / f"spec{j}.json"
            spectrum_file.write_text(out)
            code, out, _ = run_cli(capsys, "classify", "--from-spectrum", str(spectrum_file), "--count", str(count))
            assert code == EXIT_OK
            reingested = json.loads(out)
            code, out, _ = run_cli(capsys, "classify", "--ellipsoid", spec, "--count", str(count))
            direct = json.loads(out)
            assert reingested["meta"]["count"] == count
            assert reingested["hits"] == direct["invariant_hits"], spec
            assert reingested["zoll"] == direct["zoll_by_invariant_equality"]
            assert reingested["besse"] == bool(direct["invariant_hits"])
            with_hits += bool(direct["invariant_hits"])
        assert with_hits > 4  # the four round vectors and some others

    def test_float_hits_are_scale_free(self, capsys):
        # 3.3 a_1 is no multiple of a_1 at any scale: the equality scan finds
        # no hit on E(1e-10, 3.3e-10) as on the exact E(1/10^10, 33/10^11)
        for spec in ("1e-10,3.3e-10", "1/10000000000,33/100000000000", "1.0,3.3"):
            code, out, _ = run_cli(capsys, "classify", "--ellipsoid", spec, "--count", "8")
            data = json.loads(out)
            assert code == EXIT_OK
            assert data["invariant_hits"] == [] and data["zoll_by_invariant_equality"] is False, spec

    def test_float_candidate_that_is_no_common_period_reads_not_besse(self, capsys):
        # the ratios reconstruct to 1, 1, 1, but 1.0000000012 is not the same
        # action as 1.0: no Zoll verdict, and the candidate is named; the
        # float table merges the three within tol and says so
        with pytest.warns(UserWarning, match="merged within tol but not exactly equal"):
            code, out, _ = run_cli(capsys, "classify", "--ellipsoid", "1.0,1.0000000006,1.0000000012")
        data = json.loads(out)
        assert code == EXIT_OK
        assert (data["classification"], data["tau0"], data["heuristic"]) == ("NotBesse", None, True)
        assert data["certificate"]["rejected_tau0"] == 1.0
        assert data["invariant_hits"] == [] and data["zoll_by_invariant_equality"] is False

    def test_float_invariants_below_one_keep_their_count(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--ellipsoid", "1e-12,1.0", "--count", "5")
        assert code == EXIT_OK
        assert json.loads(out)["invariants"] == [1e-12, 2e-12, 3e-12, 4e-12, 5e-12]

    def test_numerical_besse_on_body(self, capsys, tmp_path):
        body = tmp_path / "body.json"
        body.write_text(json.dumps({"type": "ellipsoid", "a": [1, 2]}))
        code, out, _ = run_cli(
            capsys, "classify", "--body", str(body), "--tau", "2.0", "--samples", "200"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["besse_at_tau"]
        assert data["max_displacement"] < 1e-8
        assert "evidence" in data["verdict"]


class TestPinch:
    def test_round_certificate(self, capsys):
        code, out, _ = run_cli(
            capsys, "pinch", "--ellipsoid", "1,1", "--delta-sq", "3/2"
        )
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "certified-zoll"

    @pytest.mark.parametrize("a, spectrum, dsq", [([2, 1], "1,2", "3/2"),
                                                  (["3/2", 1], "1,3/2", "7/4")])
    def test_unsorted_parameters_pinch_as_sorted(self, a, spectrum, dsq, capsys, tmp_path):
        # the radii come from min a and max a, not from the first and last entry
        results = []
        for order in (a, sorted(a, key=Fraction)):
            spec = {"type": "ellipsoid", "a": order}
            body = tmp_path / "body.json"
            body.write_text(json.dumps(spec))
            code, out, _ = run_cli(capsys, "pinch", "--body", str(body), "--spectrum", spectrum,
                                   "--attest-coverage", "--delta-sq", dsq)
            assert code == EXIT_OK
            results.append((json.loads(out), ConvexBody.from_spec(spec).pinching_radii()))
        assert results[0] == results[1]
        assert results[0][0]["status"] != "certified-zoll"

    @pytest.mark.parametrize("x", ["1000000007/1000000000", "12345678901/10000000000"])
    def test_pinching_boundary_is_not_applicable(self, x, capsys):
        # R^2/r^2 = x = delta^2 fails R/r < delta; decided on the exact x,
        # not on a float rebuilt from it
        code, out, _ = run_cli(capsys, "pinch", "--ellipsoid", f"1,{x}", "--delta-sq", x)
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "not-applicable"

    def test_besse_refusal_is_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "pinch", "--ellipsoid", "1,3/2", "--delta-sq", "7/4"
        )
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "refusal"

    def test_non_finite_body_is_input_error(self, capsys, tmp_path):
        # json reads NaN; the body is refused before any radius is computed
        body = tmp_path / "body.json"
        body.write_text('{"type": "perturbed", "a": [NaN, 1.2], "epsilon": 1e-3, "quartic": [1.0, 0.8]}')
        code, out, err = run_cli(capsys, "pinch", "--body", str(body), "--spectrum", "1.0,1.2,2.0",
                                 "--attest-coverage", "--delta-sq", "1.5")
        assert code == EXIT_INPUT
        assert out == ""
        assert "must be finite" in err


class TestCz:
    def test_rotation_value(self, capsys):
        code, out, _ = run_cli(capsys, "cz", "--rotation", "1.5")
        assert code == EXIT_OK
        assert json.loads(out)["cz_index"] == 3

    def test_block_rates(self, capsys):
        code, out, _ = run_cli(capsys, "cz", "--rotation", "1.5,2.0")
        assert json.loads(out)["cz_index"] == 6

    @pytest.mark.parametrize("rates", ["1.000000001", "2.000000001", "1.5,2.000000001"])
    def test_rate_within_kernel_resolution_warns(self, capsys, rates):
        # 2 pi 1e-9 < TOL_KER: counted as the integer, which the warning says
        with pytest.warns(UserWarning, match="counted as"):
            code, out, _ = run_cli(capsys, "cz", "--rotation", rates)
        assert code == EXIT_OK

    @pytest.mark.parametrize("rates", ["1", "3/2,2", "1,2.0001", "1.5,1.50000001", "1,2",
                                       "3.7,0.003", "131.5", "2049.5"])
    def test_resolved_rates_do_not_warn(self, capsys, rates):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = run_cli(capsys, "cz", "--rotation", rates)
        assert code == EXIT_OK


class TestBott:
    def test_s2_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "bott", "--model", "S^n", "--dim", "2", "--mmax", "3", "--ell", "2.0"
        )
        assert code == EXIT_OK
        rows = json.loads(out)["table"]
        assert [(r["ind"], r["nul"]) for r in rows] == [(1, 3), (3, 3), (5, 3)]
        assert rows[1]["spectral_value"] == 4.0

    def test_rp_requires_index(self, capsys):
        code, _, err = run_cli(capsys, "bott", "--model", "RP^n", "--dim", "3")
        assert code == EXIT_INPUT
        assert "initial_index" in err


class TestSystoleAndOrbits:
    def test_systole_ball(self, capsys):
        import numpy as np

        code, out, _ = run_cli(
            capsys, "systole", "--ellipsoid", f"{np.pi},{np.pi}",
            "--modes", "16", "--starts", "2", "--no-double-check",
        )
        assert code == EXIT_OK
        assert abs(json.loads(out)["systole"] - np.pi) < 1e-6

    def test_orbits_e12(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbits", "--ellipsoid", "1,2", "--tmax", "2.5", "--seeds", "3"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        periods = sorted({round(o["period"], 6) for o in data["orbits"]})
        assert periods == [1.0, 2.0]
        assert all("monodromy_eigenvalues" in o for o in data["orbits"])

    def test_orbits_e12_long_window_lists_primitive_orbits(self, capsys):
        # the 9- and 10-fold covers a window of 10 picks up reduce to their
        # primitive orbits; a screen of k = 8..2 left a third orbit at 3.0
        code, out, _ = run_cli(
            capsys, "orbits", "--ellipsoid", "1,2", "--tmax", "10", "--seeds", "2"
        )
        assert code == EXIT_OK
        orbits = json.loads(out)["orbits"]
        assert [round(o["period"], 6) for o in orbits] == [1.0, 2.0]
        assert [(o["cz"], o["morse"], o["nullity"]) for o in orbits] == [(2, 0, 1), (4, 2, 3)]


class TestExitCodes:
    def test_input_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--ellipsoid", "not-numbers", "--max", "3")
        assert code == EXIT_INPUT

    def test_missing_body_file(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--body", "/nonexistent.json", "--tau", "1.0")
        assert code == EXIT_INPUT

    def test_numerical_failure(self, capsys, tmp_path):
        body = tmp_path / "body.json"
        body.write_text(
            json.dumps({"type": "perturbed", "a": [1, 2], "epsilon": 0.01, "quartic": [1, 1]})
        )
        code, _, err = run_cli(
            capsys, "systole", "--body", str(body),
            "--modes", "8", "--starts", "0", "--maxiter", "0", "--no-double-check",
        )
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("ellipsoid", ["1,2", "1.0,2.0"])
    def test_infinite_max_action_is_input_error(self, ellipsoid, capsys):
        # 1e400 parses to float infinity
        code, _, err = run_cli(capsys, "spectrum", "--ellipsoid", ellipsoid, "--max", "1e400")
        assert code == EXIT_INPUT
        assert "finite" in err

    @pytest.mark.parametrize("ellipsoid", ["1,2", "1.0,2.0"])
    @pytest.mark.parametrize("bound", ["1e300", "1" + "0" * 400])
    def test_huge_max_action_is_refused(self, ellipsoid, bound, capsys):
        # a finite bound whose table would not fit: refused before any
        # allocation, and without converting the bound to a float
        code, _, err = run_cli(capsys, "spectrum", "--ellipsoid", ellipsoid, "--max", bound)
        assert code == EXIT_INPUT
        assert "multiples" in err

    @pytest.mark.parametrize("argv, name", [
        (["classify", "--body", "{body}", "--tau", "nan"], "tau"),
        (["classify", "--body", "{body}", "--tau", "inf"], "tau"),
        (["classify", "--body", "{body}", "--tau", "2", "--samples", "-5"], "samples"),
        (["classify", "--body", "{body}", "--tau", "2", "--samples", "0"], "samples"),
        (["systole", "--body", "{body}", "--starts", "-2"], "starts"),
        (["systole", "--body", "{body}", "--maxiter", "-1"], "maxiter"),
        (["bott", "--model", "S^n", "--dim", "2", "--ell", "-1"], "ell"),
        (["bott", "--model", "S^n", "--dim", "2", "--ell", "nan"], "ell"),
        (["bott", "--model", "S^n", "--dim", "2", "--ell", "inf"], "ell"),
        (["bott", "--model", "S^n", "--dim", "2", "--mmax", "0"], "m_max"),
        (["orbits", "--body", "{body}", "--tmax", "nan"], "t_max"),
        (["orbits", "--body", "{body}", "--tmax", "inf"], "t_max"),
        (["orbits", "--body", "{body}", "--tmax", "4000"], "t_max"),
        (["orbits", "--body", "{body}", "--tmax", "3", "--seeds", "0"], "n_seeds"),
        (["pinch", "--body", "{body}", "--spectrum", "1.0,2.0", "--attest-coverage", "--delta", "-1.2"], "delta"),
        (["pinch", "--body", "{body}", "--spectrum", "1.0,2.0", "--attest-coverage", "--delta", "nan"], "delta"),
        (["pinch", "--body", "{body}", "--spectrum", "1.0,2.0", "--attest-coverage", "--delta", "0"], "delta"),
        (["pinch", "--ellipsoid", "1,1.2", "--delta", "nan"], "delta"),
        (["pinch", "--ellipsoid", "1,1.2", "--delta", "inf"], "delta"),
        (["pinch", "--ellipsoid", "1,1.2", "--delta-sq", "1e400"], "delta_sq"),
        (["pinch", "--ellipsoid", "1,1.2", "--delta-sq", "nan"], "delta_sq"),
        (["pinch", "--ellipsoid", "1,1.2", "--delta-sq", "inf"], "delta_sq"),
        (["spectrum", "--ellipsoid", "1,2", "--max", "nan"], "max_action"),
        (["spectrum", "--ellipsoid", "1,2", "--max", "inf"], "max_action"),
        (["spectrum", "--ellipsoid", "1,inf", "--max", "3"], "parameters"),
        (["invariants", "--ellipsoid", "nan,2"], "parameters"),
        (["cz", "--rotation", "inf"], "rates"),
        (["cz", "--rotation", "1,nan"], "rates"),
        (["pinch", "--body", "{body}", "--spectrum", "1.0,nan", "--attest-coverage", "--delta-sq", "1.5"], "spectrum"),
        (["pinch", "--body", "{body}", "--spectrum", "inf,1.0", "--attest-coverage", "--delta-sq", "1.5"], "spectrum"),
    ])
    def test_bad_numeric_input_is_refused_by_name(self, argv, name, capsys, tmp_path):
        body = tmp_path / "body.json"
        body.write_text('{"type": "perturbed", "a": [1.0, 2.0], "epsilon": 1e-3, '
                        '"quartic": [1.0, 1.0]}')
        code, out, err = run_cli(capsys, *(a.format(body=body) for a in argv))
        assert code == EXIT_INPUT
        assert out == ""
        assert name in err

    def test_parse_value_reads_nan_and_inf_as_floats(self):
        assert math.isnan(cli._parse_value("nan")) and cli._parse_value(" -inf ") == -math.inf
        assert cli._parse_value("3/2") == Fraction(3, 2) and cli._parse_value("1.5") == 1.5
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            cli._parse_value("1/x")

    def test_closed_stdout_is_not_a_failure(self):
        # the reader takes one line and closes the pipe, as `| head -1` does
        with subprocess.Popen(
            [sys.executable, "-m", "reeb_spectra.cli", "spectrum", "--ellipsoid", "1,3/2", "--max", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env(),
        ) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_OK
        assert err == b""

    def test_pinch_without_delta_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "pinch", "--ellipsoid", "1,1")
        assert code == EXIT_INPUT
        assert "--delta" in err

    def test_exit_codes_stable_across_formats(self, capsys):
        for fmt in ("json", "csv"):
            code, _, _ = run_cli(
                capsys, "pinch", "--ellipsoid", "1,3/2", "--delta-sq", "7/4", "--out", fmt
            )
            assert code == EXIT_OK


def _fresh_env():
    env = dict(os.environ)
    src = str(Path(reeb_spectra.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestColdStart:
    EXACT_RUNS = [
        ["spectrum", "--ellipsoid", "1,2", "--max", "10"],
        ["spectrum", "--ellipsoid", "1.0,2.5", "--max", "10", "--out", "csv"],
        ["invariants", "--ellipsoid", "1,3/2", "--count", "12"],
        ["classify", "--ellipsoid", "1,2,3"],
        ["pinch", "--ellipsoid", "1,3/2", "--delta-sq", "7/4"],
        ["cz", "--rotation", "2.5,0.7"],
        ["bott", "--model", "S^n", "--dim", "2", "--mmax", "3"],
    ]

    # in the fresh process: count every start of a solve_ivp solver and every
    # odeint call, whatever module makes it
    ODE_COUNTER = (
        "import scipy.integrate\n"
        "from scipy.integrate._ivp.base import OdeSolver\n"
        "ode_starts = []\n"
        "def counting(fn, name):\n"
        "    def counted(*args, **kwargs):\n"
        "        ode_starts.append(name)\n"
        "        return fn(*args, **kwargs)\n"
        "    return counted\n"
        "OdeSolver.__init__ = counting(OdeSolver.__init__, 'solve_ivp')\n"
        "scipy.integrate.odeint = counting(scipy.integrate.odeint, 'odeint')\n"
    )

    @staticmethod
    def _fresh_run(runs, prelude="", report="sorted(m for m in sys.modules "
                                             "if m.split('.')[0] == 'scipy')"):
        """`report`, evaluated after the CLI runs `runs` in one fresh process
        that first executes `prelude`."""
        script = (
            "import contextlib, io, json, sys\n"
            + prelude
            + "from reeb_spectra import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            f"print(json.dumps({report}))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)],
            capture_output=True, text=True, env=_fresh_env(), check=True,
        )
        return json.loads(run.stdout)

    def _scipy_modules_after(self, runs):
        return self._fresh_run(runs)

    def test_exact_subcommands_load_no_scipy(self):
        assert self._scipy_modules_after(self.EXACT_RUNS) == []

    def test_pinch_on_a_body_loads_no_scipy(self, tmp_path):
        # the certificate reads the pinching radii and the convexity margin
        # in closed form, so building the body samples nothing
        body = tmp_path / "body.json"
        body.write_text(json.dumps(
            {"type": "perturbed", "a": [1.0, 1.2], "epsilon": 1e-3, "quartic": [1.0, 0.8]}
        ))
        run = ["pinch", "--body", str(body), "--spectrum", "1.0,1.2,2.0",
               "--attest-coverage", "--delta-sq", "1.5"]
        assert self._scipy_modules_after([run]) == []

    def test_orbits_on_the_ball_load_no_scipy(self):
        # the ball's two circles share a period, and their winding keys
        # (1, 0) and (0, 1) tell them apart without comparing trajectories
        run = ["orbits", "--ellipsoid", "1,1", "--tmax", "1.5", "--seeds", "2"]
        assert self._scipy_modules_after([run]) == []

    def test_systole_loads_no_scipy(self, tmp_path):
        # the Clarke descent is a numpy L-BFGS
        body = tmp_path / "e12.json"
        body.write_text(json.dumps(
            {"type": "perturbed", "a": [1.0, 2.0], "epsilon": 1e-3, "quartic": [1.0, 1.0]}
        ))
        run = ["systole", "--body", str(body), "--modes", "8", "--starts", "0"]
        assert self._scipy_modules_after([run]) == []

    def test_besse_test_on_a_body_solves_no_ode(self, tmp_path):
        # the sampling Besse test flows its samples in closed form, and the
        # orbit search's scan, Newton polish and index path are the
        # closed-form flow as well
        body = tmp_path / "e12.json"
        body.write_text(json.dumps(
            {"type": "perturbed", "a": [1.0, 2.0], "epsilon": 1e-3, "quartic": [1.0, 1.0]}
        ))
        besse = ["classify", "--body", str(body), "--tau", "2", "--samples", "200"]
        assert self._fresh_run([besse], self.ODE_COUNTER, "ode_starts") == []
        orbits = ["orbits", "--body", str(body), "--tmax", "1.1", "--seeds", "2"]
        assert self._fresh_run([orbits], self.ODE_COUNTER, "ode_starts") == []

    def test_sampling_body_jobs_load_no_scipy(self, tmp_path):
        # surface samples are numpy Gaussian directions, so neither the
        # Besse test nor an orbit search with more seeds than planes loads scipy
        body = tmp_path / "e12.json"
        body.write_text(json.dumps(
            {"type": "perturbed", "a": [1.0, 2.0], "epsilon": 1e-3, "quartic": [1.0, 1.0]}
        ))
        besse = ["classify", "--body", str(body), "--tau", "2", "--samples", "200"]
        orbits = ["orbits", "--body", str(body), "--tmax", "3", "--seeds", "16"]
        assert self._scipy_modules_after([besse]) == []
        assert self._scipy_modules_after([orbits]) == []


class TestParserReuse:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_defaults_are_the_library_defaults(self):
        import inspect

        from reeb_spectra.clarke import MinimizeConfig
        from reeb_spectra.dynamics import (find_closed_orbits, monodromy_and_index,
                                           numerical_besse_test)

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        parse = build_parser().parse_args
        systole = parse(["systole", "--ellipsoid", "1,2"])
        cfg = MinimizeConfig()
        assert (systole.modes, systole.starts, systole.maxiter, systole.seed) == (
            cfg.modes, cfg.starts, cfg.maxiter, cfg.seed)
        assert systole.alpha == ConvexBody([1.0, 2.0]).alpha
        orbits = parse(["orbits", "--ellipsoid", "1,2", "--tmax", "3"])
        assert orbits.seeds == default(find_closed_orbits, "n_seeds")
        assert orbits.alpha == default(monodromy_and_index, "alpha") == systole.alpha
        classify = parse(["classify", "--body", "b.json", "--tau", "2"])
        assert classify.samples == default(numerical_besse_test, "samples") == 2000

    def test_sequence_matches_a_fresh_run(self, capsys):
        code_a, _, _ = run_cli(capsys, "invariants", "--ellipsoid", "1,2", "--count", "5")
        code_b, out_b, _ = run_cli(capsys, "cz", "--rotation", "2.5,0.7")
        code_bad, _, _ = run_cli(capsys, "cz", "--rates", "2.5")
        code_again, out_again, _ = run_cli(capsys, "cz", "--rotation", "2.5,0.7")
        fresh = subprocess.run(
            [sys.executable, "-m", "reeb_spectra.cli", "cz", "--rotation", "2.5,0.7"],
            capture_output=True, text=True, env=_fresh_env(), check=True,
        )
        assert (code_a, code_b, code_bad, code_again) == (EXIT_OK, EXIT_OK, EXIT_INPUT, EXIT_OK)
        assert out_b == fresh.stdout == out_again


def _reference_fmt(v):
    """The formatter without the exact-type exit for plain leaves."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return v
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_reference_fmt(x) for x in v]
    if isinstance(v, dict):
        return {k: _reference_fmt(x) for k, x in v.items()}
    return v


def _reference_spectrum_output(argv) -> str:
    """The spectrum table as json.dumps(indent=2) and csv.DictWriter write it
    from `action_spectrum` rows, through the reference formatter."""
    args = build_parser().parse_args(list(argv))
    E = cli._parse_ellipsoid(args.ellipsoid)
    rows = [
        {"tau": e.tau, "multiplicity": e.multiplicity, "morse_index": e.morse_index,
         "nullity": e.nullity, "cz_index": e.cz_index}
        for e in action_spectrum(E, cli._parse_value(str(args.max)))
    ]
    if args.out == "json":
        payload = {"ellipsoid": [str(x) for x in E.a], "max_action": str(args.max),
                   "entries": rows, "meta": cli._meta(E.exact)}
        return json.dumps(_reference_fmt(payload), indent=2) + "\n"
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=["tau", "multiplicity", "morse_index", "nullity", "cz_index"])
    w.writeheader()
    for r in rows:
        w.writerow({k: _reference_fmt(v) for k, v in r.items()})
    return buf.getvalue()


def _assert_same_text(got: str, want: str) -> None:
    """got == want, reporting the first difference instead of a diff of two
    texts of up to a few MB"""
    at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
    near = slice(max(at - 60, 0), at + 60)
    same = got == want
    assert same, f"differ at {at} of {len(got)}/{len(want)}: {got[near]!r} vs {want[near]!r}"


def _sweep_cases():
    """(ellipsoid, max) pairs of the byte-identity sweep: seeded rational
    vectors with n = 1..6, spelled exact and float, the round E(1, ..., 1)
    with n = 10 (multiplicity 10, nullity 19), tables past int64, and empty
    and one-row tables."""
    rng = np.random.default_rng(2028)
    cases = []
    for n in range(1, 7):
        for j in range(2):
            q = rng.integers(1, 5, size=n)
            a = sorted(Fraction(int(rng.integers(1, 10 * qh + 1)), int(qh)) for qh in q)
            top = a[0] * int(rng.integers(1, 80)) + Fraction(1, 7)
            cases.append(pytest.param(",".join(map(str, a)), str(top), id=f"exact-n{n}-{j}"))
            cases.append(pytest.param(",".join(repr(float(x)) for x in a), repr(float(top)), id=f"float-n{n}-{j}"))
    cases += [
        pytest.param(",".join(["1"] * 10), "20", id="exact-round-n10"),
        pytest.param(",".join(["1.0"] * 10), "20.0", id="float-round-n10"),
        # scaled parameters past 2^32 (Python ints), an integer vector past
        # int64, and a common denominator 3^40 past int64 over int64 values
        pytest.param("8589934593/3,17179869191/5,34359738368/7", str(2**36), id="object-tau"),
        pytest.param("9223372036854775809,27670116110564327424", "55340232221128654848", id="object-integers"),
        pytest.param(f"{2**31}/{3**40},{2**31 + 1}/{3**40}", f"{20 * 2**31}/{3**40}", id="denominator-past-int64"),
        pytest.param("5", "4", id="exact-empty-n1"),
        pytest.param("2,3", "2", id="exact-one-row"),
        pytest.param("2.0,3.0", "2.5", id="float-one-row"),
        pytest.param("2.0,3.0,7.5", "1.5", id="float-empty-n3"),
    ]
    return cases


class TestFormatting:
    @pytest.mark.filterwarnings("ignore:action values merged within tol")
    @pytest.mark.parametrize(
        "ellipsoid,top,rows",
        [
            ("1,3/2,7/3", "60", 50),
            ("1.0,1.5,2.3", "60", 50),
            ("1.0,1.0000000005,2.5", "60", 50),  # merged within tol, not equal
            ("2,3", "1", 0),
            ("8589934593/3,17179869191/5,34359738368/7", str(2**36), 20),  # past int64
        ],
        ids=["exact", "float", "ambiguous", "empty", "beyond-int64"],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_spectrum_table_matches_reference_formatter(self, ellipsoid, top, rows, fmt, capsys):
        argv = ("spectrum", "--ellipsoid", ellipsoid, "--max", top, "--out", fmt)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out.count("\n") > rows
        assert out == _reference_spectrum_output(argv)

    @pytest.mark.filterwarnings("ignore:action values merged within tol")
    @pytest.mark.parametrize("ellipsoid,top", _sweep_cases())
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_seeded_sweep_matches_reference_formatter(self, ellipsoid, top, fmt, capsys):
        argv = ("spectrum", "--ellipsoid", ellipsoid, "--max", top, "--out", fmt)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        _assert_same_text(out, _reference_spectrum_output(argv))

    @pytest.mark.parametrize(
        "ellipsoid,top,extra",
        [
            ("1,2", "{}", 0), ("1,2", "{}", 1),
            ("1/3,2/3", "{}/3", 0), ("1/3,2/3", "{}/3", 1),  # denominators 1 and 3 in a block
            ("1.0,2.0", "{}.0", 0), ("1.0,2.0", "{}.0", 1),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_block_and_one_more_row(self, ellipsoid, top, extra, fmt, capsys):
        rows = cli._BLOCK_ROWS + extra
        top = top.format(rows)
        assert len(spectrum_table(cli._parse_ellipsoid(ellipsoid), cli._parse_value(top))) == rows
        argv = ("spectrum", "--ellipsoid", ellipsoid, "--max", top, "--out", fmt)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        _assert_same_text(out, _reference_spectrum_output(argv))

    @pytest.mark.filterwarnings("ignore:action values merged within tol")
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "ellipsoid,top",
        [("1,3/2,7/3", "30"), ("1.0,1.0000000005,2.5", "30"), ("8589934593/3,17179869191/5,34359738368/7", str(2**36))],
        ids=["exact", "float", "object-tau"],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_small_blocks_write_block_by_block(self, block, ellipsoid, top, fmt, monkeypatch):
        # every write holds at most one block of rows, and the writes add up
        # to the reference text
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
        argv = ("spectrum", "--ellipsoid", ellipsoid, "--max", top, "--out", fmt)
        assert main(list(argv)) == EXIT_OK
        monkeypatch.undo()
        row_end = '"cz_index"' if fmt == "json" else "\r\n"
        rows = [w.count(row_end) for w in writes[1:]]
        assert max(rows) == block and sum(rows) > 3 * block
        _assert_same_text("".join(writes), _reference_spectrum_output(argv))

    def test_empty_csv_table_is_the_header(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--ellipsoid", "2,3", "--max", "1", "--out", "csv")
        assert code == EXIT_OK
        assert out == "tau,multiplicity,morse_index,nullity,cz_index\r\n"

    def test_empty_json_table_keeps_entries(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--ellipsoid", "2,3", "--max", "1")
        assert code == EXIT_OK
        assert json.loads(out)["entries"] == []
        assert '"entries": [],' in out

    def test_nested_csv_cells_are_json(self, capsys, tmp_path):
        # a list or dict cell is JSON text; scalar cells are as they were
        code, out, _ = run_cli(capsys, "pinch", "--ellipsoid", "1,1", "--delta-sq", "3/2",
                               "--out", "csv")
        assert code == EXIT_OK
        (row,) = csv.DictReader(io.StringIO(out))
        assert json.loads(row["interval"]) == ["1", "3/2"]
        assert json.loads(row["bound_chain"])["holds"] is True
        assert (row["status"], row["delta_sq"]) == ("certified-zoll", "3/2")
        spec = tmp_path / "e12.json"
        spec.write_text('{"type": "perturbed", "a": [1.0, 2.0], "epsilon": 1e-3, '
                        '"quartic": [1.0, 1.0]}')
        code, out, _ = run_cli(capsys, "orbits", "--body", str(spec), "--tmax", "3",
                               "--seeds", "3", "--out", "csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [json.loads(r["winding"]) for r in rows] == [[1, 0], [0, 1]]
        assert [r["cz"] for r in rows] == ["2", "4"]
