"""Legacy setup shim: enables editable installs in offline environments
where the ``wheel`` package (needed by PEP 660 builds on old setuptools)
is unavailable.  There is no ``pyproject.toml`` or ``setup.cfg``: the
call passes no metadata, and setuptools finds the ``repro`` package by
its automatic ``src/`` layout discovery.  The tests and examples run
from the source tree with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
