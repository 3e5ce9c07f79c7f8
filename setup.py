"""Package metadata for the ``repro`` SSD simulator.

The project runs straight from the tree with ``PYTHONPATH=src``; this file
only makes it installable (``pip install -e . --no-use-pep517`` or
``python setup.py develop``) on machines without the ``wheel`` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
