import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reeb_spectra
from reeb_spectra import cli
from reeb_spectra.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, build_parser, main
from reeb_spectra.ellipsoid import action_spectrum


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

    def test_besse_refusal_is_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "pinch", "--ellipsoid", "1,3/2", "--delta-sq", "7/4"
        )
        assert code == EXIT_OK
        assert json.loads(out)["status"] == "refusal"


class TestCz:
    def test_rotation_value(self, capsys):
        code, out, _ = run_cli(capsys, "cz", "--rotation", "1.5")
        assert code == EXIT_OK
        assert json.loads(out)["cz_index"] == 3

    def test_block_rates(self, capsys):
        code, out, _ = run_cli(capsys, "cz", "--rotation", "1.5,2.0")
        assert json.loads(out)["cz_index"] == 6


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

    def test_exit_codes_stable_across_formats(self, capsys):
        for fmt in ("json", "csv"):
            code, _, _ = run_cli(
                capsys, "pinch", "--ellipsoid", "1,3/2", "--delta-sq", "7/4", "--out", fmt
            )
            assert code == EXIT_OK


class TestParserReuse:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_sequence_matches_a_fresh_run(self, capsys):
        code_a, _, _ = run_cli(capsys, "invariants", "--ellipsoid", "1,2", "--count", "5")
        code_b, out_b, _ = run_cli(capsys, "cz", "--rotation", "2.5,0.7")
        code_bad, _, _ = run_cli(capsys, "cz", "--rates", "2.5")
        code_again, out_again, _ = run_cli(capsys, "cz", "--rotation", "2.5,0.7")
        env = dict(os.environ)
        src = str(Path(reeb_spectra.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        fresh = subprocess.run(
            [sys.executable, "-m", "reeb_spectra.cli", "cz", "--rotation", "2.5,0.7"],
            capture_output=True, text=True, env=env, check=True,
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

    def test_empty_csv_table_is_the_header(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--ellipsoid", "2,3", "--max", "1", "--out", "csv")
        assert code == EXIT_OK
        assert out == "tau,multiplicity,morse_index,nullity,cz_index\r\n"

    def test_empty_json_table_keeps_entries(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--ellipsoid", "2,3", "--max", "1")
        assert code == EXIT_OK
        assert json.loads(out)["entries"] == []
        assert '"entries": [],' in out
