"""Package metadata for ``repro``.

The editable install ``pip install -e . --no-build-isolation`` runs this
file through setuptools' legacy path, which needs the ``wheel`` package.
Without it, skip installation and run everything with ``PYTHONPATH=src``.
The version is read from ``src/repro/__init__.py``, its one definition.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="TSExplain: explaining aggregated time series by surfacing evolving contributors",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # np.vecdot (the segment costs' ideal DCGs) arrived in NumPy 2.0.
    install_requires=["numpy>=2.0"],
)
