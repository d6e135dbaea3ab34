"""The package must run on the numpy its pyproject.toml declares (>= 1.24).

Newer numpy installs accept the 2.0-only names below, so a call to one of
them would pass every other test and fail only on an older install. This
scans the package source for them instead.
"""

import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "stochpool").glob("*.py"))

NUMPY2_ONLY = {
    "vecdot": r"\bvecdot\b",  # np.vecdot and np.linalg.vecdot
    "matrix_transpose": r"\bmatrix_transpose\b",
    "permute_dims": r"\bpermute_dims\b",
    "np.concat(": r"\b(?:np|numpy)\.concat\s*\(",
    "np.astype(": r"\b(?:np|numpy)\.astype\s*\(",
    "unique_*": r"\bunique_(?:values|counts|inverse|all)\b",
    "cumulative_sum": r"\bcumulative_sum\b",
    "isdtype": r"\bisdtype\b",
    "bitwise_count": r"\bbitwise_count\b",
    # copy= inside an asarray call, which may span lines and nest one level of parentheses
    "asarray(copy=)": r"\basarray\s*\((?:[^()]|\([^()]*\))*\bcopy\s*=",
}

CAUGHT = [
    "d = np.vecdot(a, b)",
    "d = np.linalg.vecdot(a, b)",
    "t = np.matrix_transpose(a)",
    "t = np.permute_dims(a, (1, 0))",
    "c = np.concat([a, b])",
    "c = numpy.concat([a, b])",
    "b = np.astype(a, np.float32)",
    "u = np.unique_values(a)",
    "u = np.unique_counts(a)",
    "u = np.unique_inverse(a)",
    "u = np.unique_all(a)",
    "s = np.cumulative_sum(a)",
    "ok = np.isdtype(a.dtype, 'real floating')",
    "n = np.bitwise_count(a)",
    "b = np.asarray(a, copy=False)",
    "b = np.asarray(f(a),\n               dtype=np.float64, copy=True)",
]

ALLOWED = [
    "c = np.concatenate([a, b])",
    "b = a.astype(np.float32)",
    "b = np.array(a, copy=True)",
    "b = np.asarray(a, dtype=np.float64)\nc = a.copy()",
    "u = np.unique(a, return_counts=True)",
    "s = np.cumsum(a)",
    "d = np.einsum('ij,ij->i', a, a)",
]


def numpy2_names(text: str) -> list:
    return [name for name, pattern in NUMPY2_ONLY.items() if re.search(pattern, text)]


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("line", CAUGHT)
def test_scan_catches_numpy2_names(line):
    assert numpy2_names(line)


@pytest.mark.parametrize("line", ALLOWED)
def test_scan_allows_numpy_1_24_names(line):
    assert numpy2_names(line) == []


def test_package_uses_no_numpy2_only_names():
    found = {path.name: names for path in SOURCES
             if (names := numpy2_names(path.read_text(encoding="utf-8")))}
    assert found == {}, f"numpy >= 2.0 names in a package declaring numpy>=1.24: {found}"
