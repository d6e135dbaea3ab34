"""Session guard: a test run must leave the working tree as it found it.

Every file under the repository root is listed with its modification time
before the first test and after the last; a file added, changed or removed
in between fails the run. Caches that Python and pytest keep there are
skipped.
"""

import os
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SKIPPED_DIRS = {".git", "__pycache__", ".pytest_cache"}


def snapshot(root) -> dict:
    """Relative path -> mtime in ns for every file under ``root``."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIPPED_DIRS]
        for name in filenames:
            path = Path(dirpath, name)
            files[path.relative_to(root).as_posix()] = path.stat().st_mtime_ns
    return files


def tree_changes(before: dict, after: dict) -> list:
    """Sorted ``added``/``changed``/``removed`` lines between two snapshots."""
    added = [f"added {p}" for p in after.keys() - before.keys()]
    removed = [f"removed {p}" for p in before.keys() - after.keys()]
    changed = [f"changed {p}" for p in before.keys() & after.keys() if before[p] != after[p]]
    return sorted(added + removed + changed)


@pytest.fixture(scope="session", autouse=True)
def working_tree_untouched():
    before = snapshot(REPO)
    yield
    changes = tree_changes(before, snapshot(REPO))
    if changes:
        pytest.fail("the test session wrote into the working tree:\n  " + "\n  ".join(changes))
