"""Print the OpenBLAS core of numpy's and then scipy's bundled library, one a line; "unknown" where a library does not say.

The golden CSV bytes depend on this kernel. Run it as `python tests/openblas_cores.py`.
"""

import ctypes
import pathlib

import numpy
import scipy
import scipy.linalg  # loads scipy's bundled OpenBLAS

for module in (numpy, scipy):
    libs = pathlib.Path(module.__file__).parent.parent / f"{module.__name__}.libs"
    core = "unknown"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                core = getter().decode()
                break
    print(core)
