"""Legacy setup shim (the environment's setuptools predates PEP 660)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Waldspurger & Weihl, 'Lottery Scheduling: Flexible "
        "Proportional-Share Resource Management' (OSDI 1994)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
