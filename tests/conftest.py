import sys

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--run-digits10m", action="store_true", default=False,
        help="run the ten-million-digit spigot checks (takes hours)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-digits10m"):
        return
    skip = pytest.mark.skip(reason="pass --run-digits10m to enable")
    for item in items:
        if "digits10m" in item.keywords:
            item.add_marker(skip)


def _clear_caches() -> set[str]:
    """Empty every functools cache in the package's modules, methods of
    their classes included, and return the names found."""
    found = set()
    for name, mod in list(sys.modules.items()):
        if name != "lihex" and not name.startswith("lihex."):
            continue
        for attr, obj in vars(mod).items():
            members = [(attr, obj)]
            if isinstance(obj, type) and obj.__module__ == name:
                members += vars(obj).items()
            for key, member in members:
                clear = getattr(member, "cache_clear", None)
                if callable(clear):
                    clear()
                    found.add(key)
    return found


@pytest.fixture
def clear_caches():
    """`_clear_caches`, for tests that swap a table the caches read;
    the caches are emptied once more after the test."""
    yield _clear_caches
    _clear_caches()
