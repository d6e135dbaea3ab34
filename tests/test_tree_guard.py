"""Self-test of the working-tree guard in conftest.py."""

import os

from conftest import snapshot, tree_changes


def test_diff_reports_added_changed_and_removed_files(tmp_path):
    for name in ("kept.txt", "edited.txt", "deleted.txt"):
        (tmp_path / name).write_text("a")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "edited.txt").write_text("a")
    for cache in ("__pycache__", ".pytest_cache", ".git"):
        (tmp_path / cache).mkdir()
    before = snapshot(tmp_path)
    assert set(before) == {"kept.txt", "edited.txt", "deleted.txt", "sub/edited.txt"}

    (tmp_path / "new.txt").write_text("b")
    (tmp_path / "deleted.txt").unlink()
    for name in ("edited.txt", "sub/edited.txt"):
        path = tmp_path / name
        stamp = path.stat().st_mtime_ns + 1_000_000_000
        os.utime(path, ns=(stamp, stamp))
    for cache in ("__pycache__", ".pytest_cache", ".git"):
        (tmp_path / cache / "x").write_text("skipped")
    assert tree_changes(before, snapshot(tmp_path)) == [
        "added new.txt", "changed edited.txt", "changed sub/edited.txt", "removed deleted.txt"]
    assert tree_changes(before, before) == []
