from reeb_spectra.util import max_workers


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("REEB_SPECTRA_THREADS", "2")
    assert max_workers() == 2
    monkeypatch.setenv("REEB_SPECTRA_THREADS", "not-a-number")
    assert max_workers() >= 1
