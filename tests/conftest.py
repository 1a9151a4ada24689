"""Shared fixtures.

The five-level convergence study is the expensive part of the suite, so it
runs once per session and every consumer reads the same report.  Acceptance
tests record one verdict line per criterion; the lines are replayed in the
terminal summary so the full pass/fail table is visible in one place.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from dbc import assembly
from dbc.assembly import EnergyExtension
from dbc.kernels import SlabSystem
from dbc.manufactured import StudyReport, bump_case, run_study

STUDY_LEVELS = [(4, 4), (8, 6), (16, 12), (32, 23), (64, 46)]

_CRITERIA: list = []


@dataclass
class StudyRun:
    report: StudyReport
    seconds: float


@pytest.fixture(scope="session")
def study():
    """The full benchmark study on the standard level sequence, timed."""
    start = time.perf_counter()
    report = run_study(STUDY_LEVELS, bump_case(), tol=1e-9, max_outer=50)
    seconds = time.perf_counter() - start
    assert report.failure is None, f"study failed: {report.failure}"
    assert len(report.records) == len(STUDY_LEVELS)
    return StudyRun(report=report, seconds=seconds)


@pytest.fixture
def layout(monkeypatch):
    """Force the basis of the interior unknowns by the one fold gate.

    ``layout(name)`` applies to every ``Discretization`` made after the
    call: "band" keeps the vertex basis in the band order at every size,
    and "folded" folds into the square's symmetry-adapted basis at every
    size where the mesh has the symmetry."""

    def force(name):
        gate = {"band": np.inf, "folded": 0}[name]
        monkeypatch.setattr(assembly, "_FOLD_WORK", gate)

    return force


@pytest.fixture
def corrupt_slab_solve(monkeypatch):
    """Make some slab solves leave wrong answers.

    ``corrupt(*calls, size=None)`` adds 1 to every entry of the answer that
    each listed ``SlabSystem.solve_in_place`` call (1-based) leaves in its
    vector, counting only systems with ``size`` unknowns when ``size`` is
    given."""
    solve = SlabSystem.solve_in_place

    def corrupt(*calls, size=None):
        count = []

        def corrupted(self, x):
            solve(self, x)
            if size is None or self.size == size:
                count.append(None)
                if len(count) in calls:
                    x += 1.0

        monkeypatch.setattr(SlabSystem, "solve_in_place", corrupted)

    return corrupt


@pytest.fixture
def corrupt_extension(monkeypatch):
    """Make the extension's mode factors wrong once they are made.

    ``corrupt(scale, modes=slice(None))`` multiplies the diagonal of each
    listed mode factor U by ``scale``, once per extension, in the factors
    that ``EnergyExtension._factors`` returns after its wait: the band
    layout's or the folded one's, whose band is ``kd`` wide alike."""
    factors = EnergyExtension._factors

    def corrupt(scale, modes=slice(None)):
        done = []

        def corrupted(self):
            bands = factors(self)
            if not any(extension is self for extension in done):
                done.append(self)
                # Entry kd, the last, of each row of a factor's upper band
                # is its diagonal.
                bands[modes, :, self.kd] *= scale
            return bands

        monkeypatch.setattr(EnergyExtension, "_factors", corrupted)

    return corrupt


@pytest.fixture(scope="session")
def criterion():
    """Record a one-line verdict for an acceptance criterion, then assert it.

    The line is appended before the assert so failing criteria still show up
    in the summary table.
    """

    def record(name, passed, detail):
        status = "PASS" if passed else "FAIL"
        _CRITERIA.append(f"{status}  criterion {name}: {detail}")
        assert passed, f"criterion {name}: {detail}"

    return record


def pytest_terminal_summary(terminalreporter):
    if _CRITERIA:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERIA:
            terminalreporter.write_line(line)
