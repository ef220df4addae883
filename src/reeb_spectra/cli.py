"""Command-line front end.

Subcommands: spectrum, invariants, classify, pinch, systole, orbits, cz,
bott.  Output format is selected by --out json|csv|plot; plot emits (x, y)
series as CSV files into --plot-dir.  Exit codes: 0 success (honest
refusals included), 1 numerical failure, 2 input validation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2


def _parse_value(tok: str):
    tok = tok.strip()
    if "." in tok or "e" in tok.lower():
        return float(tok)
    return Fraction(tok)


def _parse_ellipsoid(spec: str):
    from .ellipsoid import ellipsoid

    values = [_parse_value(t) for t in spec.split(",") if t.strip()]
    if not values:
        raise ValueError("empty ellipsoid spec")
    return ellipsoid(values)


def _load_body(args, alpha=None):
    from .bodies import ConvexBody

    kwargs = {} if alpha is None else {"alpha": alpha}
    if getattr(args, "body", None):
        spec = json.loads(Path(args.body).read_text())
        return ConvexBody.from_spec(spec, **kwargs)
    if getattr(args, "ellipsoid", None):
        E = _parse_ellipsoid(args.ellipsoid)
        return ConvexBody(a=[float(x) for x in E.a], **kwargs)
    raise ValueError("supply --ellipsoid or --body")


# leaves that JSON and csv take as they are; matched on the exact type, which
# is cheaper per cell than the isinstance chain below
_PLAIN = frozenset({int, str, float, bool, type(None)})


def _fmt(v):
    if type(v) in _PLAIN:
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return v
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_fmt(x) for x in v]
    if isinstance(v, dict):
        return {k: _fmt(x) for k, x in v.items()}
    return v


def _emit(payload: dict, rows: list[dict], series: dict, args) -> None:
    out = getattr(args, "out", "json")
    if out == "json":
        print(json.dumps(_fmt(payload), indent=2))
    elif out == "csv":
        if not rows:
            rows = [payload]
        w = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        w.writeheader()
        for r in rows:
            w.writerow({k: _fmt(v) for k, v in r.items()})
    elif out == "plot":
        plot_dir = Path(getattr(args, "plot_dir", None) or "plots")
        plot_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, (xs, ys) in series.items():
            path = plot_dir / f"{name}.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["x", "y"])
                for x, y in zip(xs, ys):
                    w.writerow([float(x), float(y)])
            written.append(str(path))
        print(json.dumps({"series_files": written}))
    else:
        raise ValueError(f"unknown output format {out}")


def _meta(exact: bool, **extra) -> dict:
    from .ellipsoid import TOL_MERGE

    meta = {"mode": "exact" if exact else "float"}
    if not exact:
        meta["merge_tol_rel"] = TOL_MERGE
    meta.update(extra)
    return meta


_SPECTRUM_FIELDS = ("tau", "multiplicity", "morse_index", "nullity", "cz_index")
# the text of a table row around its tau, Morse and CZ cells, as
# json.dumps(indent=2) lays out one entry of "entries" and csv.DictWriter writes
# one row: the row's opening, the text after tau (%d the multiplicity), after the
# Morse index (%d the nullity) and after cz, and the separator between two rows
_ROW_TEXT = {
    "json": ('    {\n      "tau": ', ',\n      "multiplicity": %d,\n      "morse_index": ',
             ',\n      "nullity": %d,\n      "cz_index": ', "\n    }", ",\n"),
    "csv": ("", ",%d,", ",%d,", "\r\n", ""),
}
# rows of a spectrum table per write, so that the text of one block, not of the
# whole table, is alive at a time
_BLOCK_ROWS = 1 << 14
_INT64_MAX = int(np.iinfo(np.int64).max)


def _tau_cells(table, rows: slice, after_m: list[str]):
    """A block's tau strings, the fragments that follow them, and each row's
    index into those fragments.

    An exact tau is its numerator over the reduced denominator q, and each
    distinct q of the block prefixes its "/q" to the n + 1 fragments.
    """
    m = table.multiplicity[rows]
    if not table.exact:
        return map(float.__repr__, table.tau[rows].tolist()), after_m, m
    D = table.denominator
    # the gcd with a denominator past int64 takes Python ints
    v = table.tau[rows] if D <= _INT64_MAX else table.tau[rows].astype(object)
    g = np.gcd(v, D)
    dens, which = np.unique(D // g, return_inverse=True)
    after = [("" if q == 1 else f"/{q}") + text for q in dens.tolist() for text in after_m]
    return map(str, (v // g).tolist()), after, which * len(after_m) + m


def _spectrum_blocks(table, out: str):
    """The rows of a spectrum table as `out` text, in blocks of _BLOCK_ROWS rows.

    Each block turns every column into strings once, by map over its values:
    exact tau as the reduced numerator, float tau by float.__repr__, Morse and
    CZ by str.  Multiplicity and nullity depend only on m <= n, so the text
    around them is looked up from n + 1 fragments, which also hold an exact
    tau's "/q" suffix and JSON quotes.  The columns are interleaved into one
    list by strided slice assignment, and each block is one join.
    """
    opening, after_tau, after_morse, close, sep = _ROW_TEXT[out]
    # an exact tau is a JSON string; its quotes go in the fixed text
    quote = '"' if table.exact and out == "json" else ""
    opening += quote
    after_m = [quote + after_tau % m for m in range(table.n + 1)]
    after_null = [after_morse % (2 * m - 1) for m in range(table.n + 1)]
    between = close + sep + opening
    n_rows = len(table)
    if n_rows:
        yield opening
    for lo in range(0, n_rows, _BLOCK_ROWS):
        rows = slice(lo, min(lo + _BLOCK_ROWS, n_rows))
        tau, after, keys = _tau_cells(table, rows, after_m)
        morse = table.morse_index[rows]
        # six cells a row, the last the text between this row and the next
        flat = [between] * (6 * len(morse))
        flat[0::6] = tau
        flat[1::6] = map(after.__getitem__, keys.tolist())
        flat[2::6] = map(str, morse.tolist())
        flat[3::6] = map(after_null.__getitem__, table.multiplicity[rows].tolist())
        flat[4::6] = map(str, (morse + table.n).tolist())  # cz = morse + n
        if rows.stop == n_rows:
            flat[-1] = close
        yield "".join(flat)


# -- subcommands ---------------------------------------------------------------


def cmd_spectrum(args) -> int:
    """The spectrum table, written from the columns of `spectrum_table`:
    byte for byte what json.dumps(indent=2) and csv.DictWriter make of the
    `action_spectrum` rows.  The rows are one join over column strings per
    block of _BLOCK_ROWS rows (`_spectrum_blocks`), each written as it is
    made, so the text in memory does not grow with the table."""
    from .ellipsoid import spectrum_table

    E = _parse_ellipsoid(args.ellipsoid)
    table = spectrum_table(E, _parse_value(str(args.max)))
    payload = {
        "ellipsoid": [str(x) for x in E.a],
        "max_action": str(args.max),
        "entries": [],
        "meta": _meta(E.exact),
    }
    out = getattr(args, "out", "json")
    if out == "plot":
        taus = table.values()
        series = {"spectrum": (taus, table.multiplicity), "morse_index": (taus, table.morse_index)}
        _emit(payload, [], series, args)
        return EXIT_OK
    write = sys.stdout.write
    if out == "csv":
        write(",".join(_SPECTRUM_FIELDS) + "\r\n")
        tail = ""
    else:
        text = json.dumps(payload, indent=2) + "\n"
        if not len(table):
            write(text)
            return EXIT_OK
        # JSON escapes newlines and quotes inside strings, so this marker is
        # the "entries" key itself
        head, tail = text.split('\n  "entries": []', 1)
        write(head + '\n  "entries": [\n')
        tail = "\n  ]" + tail
    for block in _spectrum_blocks(table, out):
        write(block)
    write(tail)
    return EXIT_OK


def cmd_invariants(args) -> int:
    from .ellipsoid import spectral_invariants

    E = _parse_ellipsoid(args.ellipsoid)
    c = spectral_invariants(E, args.count)
    rows = [{"i": i, "c_i": v} for i, v in enumerate(c)]
    payload = {
        "ellipsoid": [str(x) for x in E.a],
        "invariants": c,
        "meta": _meta(E.exact),
    }
    _emit(payload, rows, {"invariants": (list(range(len(c))), [float(v) for v in c])}, args)
    return EXIT_OK


def cmd_classify(args) -> int:
    from .certify import besse_by_invariants
    from .ellipsoid import classify, spectral_invariants

    if args.from_spectrum:
        data = json.loads(Path(args.from_spectrum).read_text())
        n = len(data["ellipsoid"])
        exact = data["meta"]["mode"] == "exact"
        conv = Fraction if exact else float
        c: list = []
        for row in data["entries"]:
            c.extend([conv(str(row["tau"])) if exact else float(row["tau"])] * row["multiplicity"])
        count = min(args.count, len(c))
        hits = besse_by_invariants(c[:count], n, exact=exact)
        payload = {
            "source": args.from_spectrum,
            "hits": [{"i": h.i, "tau": h.tau, "mu": h.mu} for h in hits],
            "zoll": bool(hits and hits[0].i == 0),
            "besse": bool(hits),
            "meta": _meta(exact, count=count),
        }
        _emit(payload, payload["hits"], {}, args)
        return EXIT_OK

    if args.tau is not None:
        # numerical Besse test on a general body
        from .dynamics import numerical_besse_test

        body = _load_body(args)
        res = numerical_besse_test(body, args.tau, samples=args.samples)
        payload = {
            "tau": res.tau,
            "samples": res.samples,
            "max_displacement": res.max_displacement,
            "tolerance": res.tol,
            "verdict": res.label,
            "besse_at_tau": res.verdict,
            "worst_point": res.worst_point,
            "meta": _meta(False, note="numerical evidence, not a proof"),
        }
        _emit(payload, [payload], {}, args)
        return EXIT_OK

    E = _parse_ellipsoid(args.ellipsoid)
    cls = classify(E)
    c = spectral_invariants(E, args.count)
    hits = besse_by_invariants(c, E.n)
    payload = {
        "ellipsoid": [str(x) for x in E.a],
        "classification": cls.kind,
        "tau0": cls.tau0,
        "heuristic": cls.heuristic,
        "certificate": cls.certificate,
        "invariant_hits": [{"i": h.i, "tau": h.tau, "mu": h.mu} for h in hits],
        "zoll_by_invariant_equality": bool(hits and hits[0].i == 0),
        "meta": _meta(E.exact, invariants_scanned=args.count),
    }
    _emit(payload, payload["invariant_hits"], {}, args)
    return EXIT_OK


def cmd_pinch(args) -> int:
    from .certify import zoll_by_pinching
    from .ellipsoid import spectral_invariants, spectrum_table

    delta_sq = _parse_value(args.delta_sq) if args.delta_sq else None
    delta = float(args.delta) if args.delta else None
    if delta is None and delta_sq is None:
        raise ValueError("supply --delta or --delta-sq")
    if args.ellipsoid:
        # the certificate reads pi r^2 and pi R^2 off the ellipsoid's parameters
        body = E = _parse_ellipsoid(args.ellipsoid)
        dsq_f = float(delta_sq) if delta_sq is not None else float(delta) ** 2
        upper = dsq_f * float(E.a[0]) * 1.0001
        spectrum = spectrum_table(E, upper).values()
        invariants = spectral_invariants(E, E.n)
        attested = True  # exact ellipsoid spectra are complete on the window
    else:
        body = _load_body(args)
        spectrum = [_parse_value(t) for t in (args.spectrum or "").split(",") if t.strip()]
        invariants = None
        attested = args.attest_coverage
    res = zoll_by_pinching(
        body,
        spectrum,
        delta=delta,
        delta_sq=delta_sq,
        coverage_attested=attested,
        invariants_c=invariants,
    )
    payload = res.as_dict()
    payload["meta"] = _meta(bool(args.ellipsoid) and E.exact)
    _emit(payload, [payload], {}, args)
    return EXIT_OK


def cmd_systole(args) -> int:
    from .clarke import MinimizeConfig, minimize

    body = _load_body(args, alpha=args.alpha)
    cfg = MinimizeConfig(
        modes=args.modes,
        starts=args.starts,
        maxiter=args.maxiter,
        seed=args.seed,
        double_check=not args.no_double_check,
    )
    res = minimize(body, cfg)
    payload = {
        "systole": res.systole,
        "psi": res.psi_value,
        "grad_norm": res.grad_norm,
        "orbit": res.orbit.as_dict(),
        "diagnostics": res.diagnostics,
        "meta": _meta(False, modes=cfg.modes, starts=cfg.starts),
    }
    u = res.loop.values()
    ts = res.loop.grid()
    series = {f"loop_component_{i}": (ts, u[:, i]) for i in range(min(u.shape[1], 4))}
    _emit(payload, [{"systole": res.systole, "grad_norm": res.grad_norm}], series, args)
    return EXIT_OK


def cmd_orbits(args) -> int:
    from .dynamics import TOL_ORBIT, find_closed_orbits, monodromy_and_index

    body = _load_body(args, alpha=args.alpha)
    orbits = find_closed_orbits(body, t_max=args.tmax, n_seeds=args.seeds, seed=args.seed)
    for orb in orbits:
        monodromy_and_index(body, orb, alpha=args.alpha)
    rows = [orb.as_dict() for orb in orbits]
    payload = {
        "t_max": args.tmax,
        "orbit_count": len(orbits),
        "orbits": rows,
        "meta": _meta(False, alpha=args.alpha, tol_orbit=TOL_ORBIT),
    }
    series = {
        "periods": (list(range(len(orbits))), [o.period for o in orbits]),
    }
    _emit(payload, rows, series, args)
    return EXIT_OK


def cmd_cz(args) -> int:
    from .conley_zehnder import (cz_index, cz_nullity, grid_cells, morse_index_from_path,
                                 warn_unresolved_rates)
    from .symplectic import rotation_path

    rates = [float(_parse_value(t)) for t in args.rotation.split(",") if t.strip()]
    warn_unresolved_rates(rates)
    path = rotation_path(rates)
    index = cz_index(path)
    payload = {
        "rates": rates,
        "cz_index": index,
        "morse_index": morse_index_from_path(path),
        "nullity": cz_nullity(path),
        "meta": _meta(False, grid=grid_cells(path), normalization="cz(e^{2 pi J t}) = 1"),
    }
    _emit(payload, [payload], {}, args)
    return EXIT_OK


def cmd_bott(args) -> int:
    from .bott import bott_indices, class_degrees, cross_model, zoll_spectral_values

    model = cross_model(args.model, args.dim, args.initial_index)
    rows = []
    for m, (value, _) in enumerate(zoll_spectral_values(model, args.ell, args.mmax), start=1):
        ind, nul = bott_indices(model, m)
        da, db = class_degrees(model, m)
        rows.append(
            {
                "m": m,
                "ind": ind,
                "nul": nul,
                "deg_alpha": da,
                "deg_beta": db,
                "spectral_value": value,
            }
        )
    payload = {
        "model": model.model,
        "n": model.n,
        "initial_index": model.initial_index,
        "spin": model.spin,
        "table": rows,
        "meta": {"ell": args.ell},
    }
    series = {"bott_index": ([r["m"] for r in rows], [r["ind"] for r in rows])}
    _emit(payload, rows, series, args)
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    call, so callers must not modify it.

    main looks the subcommand's function up by name when it runs, so a
    cmd_* function replaced on the module after the parser was built (a
    test's monkeypatch, a profiler's wrapper) still takes effect.
    """
    p = argparse.ArgumentParser(
        prog="reeb-spectra",
        description="Action spectra, spectral invariants and Besse/Zoll certificates "
        "for convex contact spheres.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", choices=("json", "csv", "plot"), default="json")
        sp.add_argument("--plot-dir", default=None)

    sp = sub.add_parser("spectrum", help="ellipsoid action spectrum table")
    sp.add_argument("--ellipsoid", required=True, help="comma list, e.g. 1,2 or 1,3/2 (use decimals for float mode)")
    sp.add_argument("--max", required=True, help="largest action value")
    add_out(sp)

    sp = sub.add_parser("invariants", help="spectral invariants c_0..c_{count-1}")
    sp.add_argument("--ellipsoid", required=True)
    sp.add_argument("--count", type=int, default=10)
    add_out(sp)

    sp = sub.add_parser("classify", help="Besse/Zoll verdicts and the equality scan")
    sp.add_argument("--ellipsoid")
    sp.add_argument("--body", help="JSON body spec (with --tau: numerical test)")
    sp.add_argument("--count", type=int, default=32, help="invariants to scan")
    sp.add_argument("--tau", type=float, default=None, help="numerical Besse test period")
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--from-spectrum", default=None, help="re-ingest a spectrum JSON file")
    add_out(sp)

    sp = sub.add_parser("pinch", help="pinched-Zoll certificate")
    sp.add_argument("--ellipsoid")
    sp.add_argument("--body")
    sp.add_argument("--delta", default=None)
    sp.add_argument("--delta-sq", default=None, help="delta^2, exact fractions allowed")
    sp.add_argument("--spectrum", default=None, help="comma list of spectrum values")
    sp.add_argument("--attest-coverage", action="store_true")
    add_out(sp)

    sp = sub.add_parser("systole", help="Clarke-dual systole minimization")
    sp.add_argument("--ellipsoid")
    sp.add_argument("--body")
    sp.add_argument("--alpha", type=float, default=1.5)
    sp.add_argument("--modes", type=int, default=64)
    sp.add_argument("--starts", type=int, default=16)
    sp.add_argument("--maxiter", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--no-double-check", action="store_true")
    add_out(sp)

    sp = sub.add_parser("orbits", help="closed-orbit shooting search with indices")
    sp.add_argument("--ellipsoid")
    sp.add_argument("--body")
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--seeds", type=int, default=16)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--alpha", type=float, default=1.5)
    add_out(sp)

    sp = sub.add_parser("cz", help="Conley-Zehnder index of a rotation path")
    sp.add_argument("--rotation", required=True, help="comma list of rotation rates")
    add_out(sp)

    sp = sub.add_parser("bott", help="geodesic-flow index tables")
    sp.add_argument("--model", required=True, help="S^n | RP^n | CP^{n/2} | HP^{n/4} | CaP^2")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--mmax", type=int, default=10)
    sp.add_argument("--ell", type=float, default=1.0, help="minimal period")
    sp.add_argument("--initial-index", type=int, default=None)
    add_out(sp)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # numerical failures
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
