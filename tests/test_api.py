"""The package's public names: every exported name resolves, and the names
of deleted types stay gone; and every source file is valid on the oldest
Python the package declares."""

import ast
import re
import warnings
from pathlib import Path

import phasescope

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from phasescope import *", namespace)
    assert all(name in namespace for name in phasescope.__all__)


def test_exports_are_sorted_and_unique():
    assert phasescope.__all__ == sorted(set(phasescope.__all__))


def test_deleted_types_are_not_exported():
    for name in ("BlockProfile", "ProfileSource", "MarkerTable", "NoAlignmentError", "Spectrum",
                 "MainSpectrum", "TqPhase", "FlatSpectrumError"):
        assert name not in phasescope.__all__
        assert not hasattr(phasescope, name)


def test_every_source_file_compiles_on_the_oldest_declared_python():
    # only one interpreter may be at hand: parse with the grammar of the
    # oldest one requires-python admits, and fail on any SyntaxWarning
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                         (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE)
    oldest = (int(declared[1]), int(declared[2]))
    paths = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert ROOT / "src" / "phasescope" / "phases.py" in paths
    for path in paths:
        source = path.read_text(encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(source, str(path), "exec", dont_inherit=True)
        ast.parse(source, str(path), feature_version=oldest)
