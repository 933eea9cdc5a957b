"""Shared session fixtures: registries are expensive, build each once."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hallforge.gf import GF
from hallforge.hall import HallAlgebra
from hallforge.quiver import d4_star_out, jordan, kronecker
from hallforge.registry import IsoRegistry


@pytest.fixture(scope="session")
def kron2():
    return IsoRegistry(kronecker(), GF.of(2))


@pytest.fixture(scope="session")
def kron3():
    return IsoRegistry(kronecker(), GF.of(3))


@pytest.fixture(scope="session")
def kron4():
    return IsoRegistry(kronecker(), GF.of(2, 2))


@pytest.fixture(scope="session")
def d4star2():
    return IsoRegistry(d4_star_out(), GF.of(2))


@pytest.fixture(scope="session")
def hall_kron2(kron2):
    return HallAlgebra(kron2)


@pytest.fixture(scope="session")
def hall_kron3(kron3):
    return HallAlgebra(kron3)


@pytest.fixture(scope="session")
def hall_kron4(kron4):
    return HallAlgebra(kron4)


@pytest.fixture(scope="session")
def jordan2():
    return IsoRegistry(jordan(), GF.of(2))


@pytest.fixture(scope="session")
def jordan3():
    return IsoRegistry(jordan(), GF.of(3))


@pytest.fixture(scope="session")
def hall_jordan2(jordan2):
    return HallAlgebra(jordan2)


@pytest.fixture(scope="session")
def hall_jordan3(jordan3):
    return HallAlgebra(jordan3)


@pytest.fixture(scope="session")
def tubes_kron2(hall_kron2):
    from hallforge.cuspidal import tube_decomposition
    return tube_decomposition(hall_kron2, 2)


@pytest.fixture(scope="session")
def tubes_kron3(hall_kron3):
    from hallforge.cuspidal import tube_decomposition
    return tube_decomposition(hall_kron3, 2)
