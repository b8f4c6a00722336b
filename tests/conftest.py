import pytest

from tribcount import oracle


@pytest.fixture(scope="session")
def scan3000():
    return oracle.scan_repetitions(3000)


@pytest.fixture(scope="session")
def scan_cap():
    return oracle.scan_repetitions(oracle.ORACLE_CAP)


@pytest.fixture(scope="session")
def scan600_exhaustive():
    return oracle.scan_repetitions(600, exhaustive=True)


@pytest.fixture(scope="session")
def scan600_restricted():
    return oracle.scan_repetitions(600)
