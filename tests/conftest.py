"""Shared fixtures: the compiled scan kernels, built once per session."""

import importlib.util
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from lotpref import _kernels as kernels

ROOT = Path(__file__).resolve().parent.parent

# setup.py with Cython hidden, so the build compiles the committed
# _fastscan.c instead of regenerating it beside the .pyx.
BUILD = ("import sys; sys.modules['Cython'] = sys.modules['Cython.Build'] = None; "
         "sys.argv = ['setup.py', *sys.argv[1:]]; exec(open('setup.py').read())")


@pytest.fixture(scope="session")
def fastscan(tmp_path_factory):
    """The compiled extension, built by ``setup.py build_ext`` into a
    temporary directory and loaded from there; the checkout is not
    written to.  Skips only when there is no C compiler."""
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler: {compiler!r} is not on PATH")
    build = tmp_path_factory.mktemp("fastscan")
    proc = subprocess.run(
        [sys.executable, "-c", BUILD, "build_ext",
         "--build-lib", str(build / "lib"), "--build-temp", str(build / "temp")],
        cwd=ROOT, capture_output=True, text=True)
    built = sorted((build / "lib" / "lotpref" / "_kernels").glob("_fastscan*"))
    assert proc.returncode == 0 and built, proc.stdout[-2000:] + proc.stderr[-2000:]
    spec = importlib.util.spec_from_file_location(
        "lotpref._kernels._fastscan", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled(fastscan, monkeypatch):
    """lotpref._kernels dispatching to the compiled extension."""
    monkeypatch.setattr(kernels, "_fast", fastscan)
    return kernels
