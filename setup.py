"""Setuptools shim.

Kept deliberately minimal so the package installs editable
(``pip install -e .``) in offline environments that lack the ``wheel``
package required by PEP 517 editable builds.  The library is pure
standard-library Python; it needs 3.11 or later (CI's floor: the stream and
the reorder buffer bisect with ``key=``, new in 3.10).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
