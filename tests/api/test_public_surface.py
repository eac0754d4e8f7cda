"""The committed public surface of ``repro.api`` — CI's api-surface gate.

``tests/api/public_surface.txt`` is the contract: one exported name per
line, sorted.  Growing the surface means committing the new name there
(a conscious, reviewable act); a name disappearing or appearing without
the file changing fails this test.
"""

from pathlib import Path

import repro
import repro.api

SURFACE_FILE = Path(__file__).parent / "public_surface.txt"


def test_all_matches_committed_surface():
    committed = SURFACE_FILE.read_text().split()
    assert sorted(repro.api.__all__) == committed, (
        "repro.api.__all__ drifted from tests/api/public_surface.txt; "
        "update the file if the change is intentional")


def test_surface_is_sorted_and_unique():
    committed = SURFACE_FILE.read_text().split()
    assert committed == sorted(set(committed))


def test_every_name_resolves():
    for name in repro.api.__all__:
        assert getattr(repro.api, name, None) is not None, name


def test_package_exports_every_subpackage():
    # repro.__all__ lists every subpackage; each loads on first access
    expected = {"analysis", "api", "binarize", "cost", "data", "deploy",
                "experiments", "grad", "infer", "jobs", "metrics", "models",
                "nn", "optim", "perf", "serve", "stream", "train", "viz"}
    assert expected <= set(repro.__all__)
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_api_docstring_names_the_lifecycle():
    for term in ("ModelSpec", "EngineConfig", "Engine", "InferResult"):
        assert term in repro.api.__doc__
