"""The bundled verification checks must pass deterministically."""

import pytest

from dbc.checks import CHECKS, run_checks


def test_all_checks_pass_default_seed():
    results = run_checks(sorted(CHECKS), seed=0)
    assert [r.name for r in results] == sorted(CHECKS)
    for result in results:
        assert result.passed, result.line()
        assert result.discrepancy < result.threshold
        assert result.line().startswith("pass")


@pytest.mark.parametrize("seed", [1, 2])
def test_checks_robust_to_seed(seed):
    for result in run_checks(["gradient", "adjoint", "coercivity"], seed=seed):
        assert result.passed, result.line()


def test_unknown_check_name():
    with pytest.raises(KeyError, match="unknown check"):
        run_checks(["gradient", "nope"], seed=0)
