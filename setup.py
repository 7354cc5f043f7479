"""Setuptools entry point (the only packaging file of this repository).

A plain ``setup.py`` so that ``pip install -e .`` works in offline
environments whose setuptools/pip lack PEP 660 editable-wheel support (the
legacy ``setup.py develop`` path needs no ``wheel`` package).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'A+ Indexes: Tunable and Space-Efficient Adjacency "
        "Lists in Graph Database Management Systems' (ICDE 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
)
