from reeb_spectra.util import max_workers


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("REEB_SPECTRA_THREADS", "2")
    assert max_workers() == 2
    monkeypatch.setenv("REEB_SPECTRA_THREADS", "not-a-number")
    assert max_workers() >= 1


def test_benchmark_hook_targets_exist():
    # perfbench/tracing.py patches private names of the package; a rename
    # fails here instead of dropping metrics from a traced benchmark run
    import importlib.util
    from pathlib import Path

    import reeb_spectra.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert callable(reeb_spectra.util.max_workers)


def test_traced_search_counts_flow_with_monodromy():
    # every internal flow over one period goes through the public
    # flow_with_monodromy, so the benchmark's traced count of it is live
    import importlib.util
    from pathlib import Path

    from reeb_spectra.bodies import ConvexBody

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        from reeb_spectra import dynamics

        body = ConvexBody(a=[1.0, 2.0], epsilon=1e-3, quartic=[1.0, 1.0], alpha=1.5)
        for orbit in dynamics.find_closed_orbits(body, t_max=1.1, n_seeds=2):
            dynamics.monodromy_and_index(body, orbit, alpha=1.5)
    finally:
        tracer.uninstall()
    assert sum(s[2] == "dynamics.flow_with_monodromy" for s in tracer.spans) >= 1
