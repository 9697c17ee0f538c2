"""The package-data globs in pyproject.toml ship the bundled fixtures.

Checked against the source tree, so a broken glob fails here and not only
when an installed package cannot find its examples.
"""
import os
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toricnash"


def _globs():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    return config["tool"]["setuptools"]["package-data"]["toricnash"]


def _files(top):
    return [(Path(d) / name).relative_to(PACKAGE).as_posix()
            for d, _, names in os.walk(top) for name in names]


def test_every_fixture_is_shipped():
    globs = _globs()
    fixtures = _files(PACKAGE / "fixtures")
    assert fixtures
    for path in fixtures:
        assert any(fnmatch(path, g) for g in globs), path


def test_every_glob_matches_a_file():
    files = _files(PACKAGE)
    for g in _globs():
        assert any(fnmatch(path, g) for path in files), g
