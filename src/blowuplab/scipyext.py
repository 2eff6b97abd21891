"""scipy's compiled extensions, loaded without the inits of their packages.

The program calls two compiled routines of scipy: QUADPACK ``qagse`` from
``scipy.integrate._quadpack`` and Brent's method from
``scipy.optimize._zeros``.  A third, LAPACK ``gtsv`` from
``scipy.linalg._flapack``, is loaded only where numpy bundles no OpenBLAS
whose ``dgtsv`` ``discretize`` can call.  Importing them through their
packages runs the package inits of ``scipy.linalg``, ``scipy.integrate``,
``scipy.optimize`` and ``scipy.special``: with scipy 1.17 on a 2-core x86-64
machine, 0.42-0.48 s and 50 MB of resident memory together, much of it spent
cloning numpy's namespace (``numpy.f2py``, ``numpy.testing``, ``numpy.random``,
``numpy.ma``).  The ``_quadpack`` and ``_zeros`` extensions alone load in under
a millisecond each, and ``_flapack`` in a few.

scipy's folder is located with ``importlib.util.find_spec``, which runs no
package code, so loading an extension does not run ``scipy/__init__`` either
(13-16 ms and 1.3 MB after numpy on the same machine, for
``scipy._lib._testutils``, ``subprocess``, ``sysconfig`` and more).  A
session that never integrates or finds a root leaves ``scipy`` unloaded; the
first ``_qagse`` or ``_brentq`` call imports ``scipy._lib._ccallback``, which
runs the init then.
"""

from __future__ import annotations

import sys
from functools import cache
from importlib import import_module
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path


@cache
def load_extension(name: str, directory: Path | None = None):
    """The compiled module ``name`` (``scipy.<package>.<extension>``).

    The file is found in ``directory``, by default the package's folder in
    scipy's installation.  The module is registered in ``sys.modules`` under
    ``name``, so a later import of its package reuses it; a module already
    registered under that name is returned as it is.  Without the file in
    ``directory`` (an editable or meson build), or where loading the file
    raises ``ImportError`` (a platform whose wheels need scipy's init to set
    up the library search path), ``name`` is imported the ordinary way,
    package init included.
    """
    if directory is None:
        directory = Path(find_spec("scipy").origin).parent.joinpath(*name.split(".")[1:-1])
    spec = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        return import_module(name)
    module = sys.modules.get(name)
    if module is None:
        try:
            module = module_from_spec(spec)  # opens the shared library
        except ImportError:
            return import_module(name)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]  # as the import system does
            raise
    return module
