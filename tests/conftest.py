import os
import shutil
import subprocess

import pytest

from pplab import BevertonHolt, PeriodicSystem, Pielou, RationalSaturating, kernels


@pytest.fixture
def pielou_k1():
    return PeriodicSystem([Pielou(2.0)])


@pytest.fixture
def pielou_k2():
    # the canonical alternating system: P0 = 1.5, limit product 0
    return PeriodicSystem([Pielou(0.5), Pielou(3.0)])


@pytest.fixture
def pielou_k2_boundary():
    # P0 = 1 exactly: zero-attractive by the tie rule
    return PeriodicSystem([Pielou(0.5), Pielou(2.0)])


@pytest.fixture
def beverton_k1():
    return PeriodicSystem([BevertonHolt(lam=3.0, capacity=5.0)])


@pytest.fixture
def rational_out_of_theory():
    # P0 = 2, limit product 2 / (1 + 0.5) = 4/3 >= 1
    return PeriodicSystem([RationalSaturating(beta=2.0, alpha1=1.0, alpha2=2.0)])


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """simulate_packed of _kernel.c, compiled here and bound by the package's loader."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    out_dir = tmp_path_factory.mktemp("kernel")
    source = os.path.join(os.path.dirname(kernels.__file__), "_kernel.c")
    subprocess.run(
        [cc, "-O3", "-ffp-contract=off", "-shared", "-fPIC", source, "-o", str(out_dir / "_kernel.so")],
        check=True,
    )
    simulate_packed = kernels._load_compiled(str(out_dir), "_kernel.so")
    assert simulate_packed is not None
    return simulate_packed
