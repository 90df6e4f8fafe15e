import sys

from setuptools import Extension, setup


def extensions():
    """Build the compiled scan kernels: from _fastscan.pyx when Cython
    is available, else from _fastscan.c, the committed Cython output
    (tests/test_kernels_parity.py checks it is in sync with the .pyx).

    The package is fully functional without them; lotpref._kernels
    falls back to the pure-Python twin at import time, so the .c build
    is optional and a failed compile still installs the package.
    """
    source = "src/lotpref/_kernels/_fastscan"
    try:
        from Cython.Build import cythonize
    except ImportError:
        print("lotpref: Cython not found, building the compiled kernels "
              "from the committed _fastscan.c", file=sys.stderr)
        return [Extension("lotpref._kernels._fastscan",
                          sources=[source + ".c"],
                          extra_compile_args=["-O3"],
                          optional=True)]
    ext = Extension(
        "lotpref._kernels._fastscan",
        sources=[source + ".pyx"],
        extra_compile_args=["-O3"],
    )
    return cythonize([ext], compiler_directives={"language_level": "3"})


setup(ext_modules=extensions())
