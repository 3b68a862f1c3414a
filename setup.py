"""Setuptools entry point.

Declares the package layout, the runtime dependency, and the ``[test]``
extra (pytest plus hypothesis for the property-based suites under
``tests/``).  The only runtime dependency is numpy: the Eq. 3 LP is solved in
closed form.  scipy is a test dependency: its HiGHS solver is the reference
the closed form is cross-checked against in ``tests/test_properties.py``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-jarvis",
    version="0.4.0",
    description=(
        "Epoch-driven reproduction of Jarvis-style data/operator partitioning "
        "for edge stream monitoring queries"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
            "scipy",
        ],
    },
)
