"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the
repository root (the repository's own suite under ``tests/`` does not
collect them)."""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(autouse=True)
def hermetic(monkeypatch):
    """Scrub ambient ``REPRO_*`` knobs; drop seeded datasets afterwards."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    yield
    from perfbench.suite import unregister_seeded

    unregister_seeded()
