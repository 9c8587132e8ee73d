import numpy as np
import pytest

from qident.budget import BudgetParams

# verdict lines recorded by the acceptance suite, echoed after the run
ACCEPTANCE_VERDICTS: list[str] = []


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


@pytest.fixture
def reference_params() -> BudgetParams:
    return BudgetParams.reference()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
