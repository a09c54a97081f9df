"""Setuptools packaging for the reproduction.

The core is dependency-free on purpose — ``pip install repro`` pulls in
nothing and runs the same exploration loop as any other install.  The
``fast`` extra buys one thing: with numpy importable, the completion-bound
tables of a large summary (512+ elements in a query's view) are computed
by the relaxation kernel of :mod:`repro.core.kernels` instead of
per-keyword Dijkstras, with identical output.
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "src", "repro", "__init__.py")) as fh:
        match = re.search(r'^__version__ = "([^"]+)"', fh.read(), re.M)
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    description=(
        "Top-k exploration of query candidates for keyword search on "
        "graph-shaped (RDF) data"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.8",
    install_requires=[],
    extras_require={
        # numpy accelerates the bound tables of large summaries, nothing
        # else; output stays byte-identical.
        "fast": ["numpy"],
        "dev": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
