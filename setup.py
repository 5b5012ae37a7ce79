"""Setup shim so that ``pip install -e .`` works in fully offline environments
(where the ``wheel`` package needed for PEP 660 editable wheels is absent)."""

from setuptools import find_packages, setup

setup(
    name="repro-cuttlefish",
    version="0.1.0",
    description="Cuttlefish (MLSys 2023) reproduction: automated low-rank training",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={"console_scripts": [
        "repro-cuttlefish=repro.cli:main",
        "repro=repro.cli:main",
    ]},
)
