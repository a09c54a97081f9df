"""Setuptools packaging for the reproduction.

The package is dependency-free on purpose: ``pip install repro`` pulls in
nothing, and every install runs the same code.
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
        "dev": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
