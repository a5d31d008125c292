"""Build script: compiles the optional simulation kernel.

The package works without the kernel library (a pure-Python fallback is
selected at import time), so a missing C compiler only costs speed.  For an
in-tree build run ``python setup.py build_ext --inplace``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        # A plain C library loaded through ctypes, not a Python extension
        # module.  -ffp-contract=off keeps it bit-identical to the
        # pure-Python fallback (no FMA fusion of a*b+c).
        Extension(
            "pplab.kernels._kernel",
            ["src/pplab/kernels/_kernel.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
