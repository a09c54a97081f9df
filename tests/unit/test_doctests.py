"""The ``>>>`` examples in ``repro``'s docstrings are run, not just read."""

import doctest
import importlib
import pkgutil

import repro


def test_every_module_doctest_passes():
    failed, attempted, modules = [], 0, 0
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        result = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
        if result.failed:
            failed.append(info.name)
        attempted += result.attempted
        modules += bool(result.attempted)
    assert not failed, f"doctest failures in {failed} (run them with -v for details)"
    assert modules >= 12 and attempted > modules
