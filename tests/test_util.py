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
