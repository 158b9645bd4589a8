import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True)
# a fresh draw on every run, for CI or by hand: pytest tests/test_fuzz.py --hypothesis-profile explore
settings.register_profile("explore", deadline=None, derandomize=False, max_examples=500)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def corpus():
    from helpers import corpus as load

    return load()


def pytest_terminal_summary(terminalreporter):
    import helpers

    if helpers.acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in helpers.acceptance_lines:
            terminalreporter.write_line(line)
