from qdl import figures
from qdl.verify import run_suites


def test_suite_results_do_not_depend_on_the_chunk_size(monkeypatch):
    default = run_suites(resolution=5)
    monkeypatch.setattr(figures, "CHUNK_POINTS", 7)  # ragged chunks on every grid
    assert run_suites(resolution=5) == default
