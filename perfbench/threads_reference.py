"""Ungated reference: convex-bodies jobs at full pool width, single-threaded
and on the default pool.

    python3 perfbench/threads_reference.py --pairs 3

Runs `systole --modes 16 --starts 2` and `orbits --tmax 3` (the default 16
shooting seeds) on the perturbed E(1,2) of ROADMAP items 3 and 4, each call
in a fresh interpreter, alternating REEB_SPECTRA_THREADS=1 and the default
pool (which side goes first alternates too), and prints every call's wall
time and the per-side medians.  These are the job sizes at which the pool has
more than two items to share, unlike the gated convex-bodies jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

JOBS = {
    "systole": ["systole", "--modes", "16", "--starts", "2"],
    "orbits": ["orbits", "--tmax", "3"],
}


def _one(job: str) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from reeb_spectra.cli import main
    from reeb_spectra.util import max_workers

    workdir = ROOT / ".perfbench_out" / f"threads-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        body = workdir / "roadmap-E12.json"
        body.write_text(json.dumps(workloads.ROADMAP_BODY))
        argv = JOBS[job][:1] + ["--body", str(body)] + JOBS[job][1:]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        seconds = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = json.loads(buf.getvalue())
    found = ([round(o["period"], 7) for o in out["orbits"]] if job == "orbits"
             else round(out["systole"], 9))
    print(json.dumps({"job": job, "workers": max_workers(), "rc": rc,
                      "seconds": seconds, "found": found}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--one", choices=sorted(JOBS), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one:
        _one(args.one)
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from run import environment

    print("env " + json.dumps(environment(None)), flush=True)
    times: dict[tuple[str, str], list[float]] = {}
    for pair in range(args.pairs):
        order = ("1", "default") if pair % 2 == 0 else ("default", "1")
        for side in order:
            env = dict(os.environ)
            if side == "1":
                env["REEB_SPECTRA_THREADS"] = "1"
            else:
                env.pop("REEB_SPECTRA_THREADS", None)
            for job in JOBS:
                line = subprocess.run([sys.executable, __file__, "--one", job], env=env,
                                      check=True, capture_output=True, text=True).stdout.strip()
                rec = json.loads(line.splitlines()[-1])
                print(f"pair {pair} REEB_SPECTRA_THREADS={side} " + json.dumps(rec), flush=True)
                times.setdefault((job, side), []).append(rec["seconds"])
    for (job, side), xs in sorted(times.items()):
        print(f"median {job} REEB_SPECTRA_THREADS={side}: {statistics.median(xs):.3f} s "
              f"over {len(xs)} calls ({', '.join(f'{x:.3f}' for x in xs)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
