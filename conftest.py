"""Fixtures shared by ``tests/`` and ``perfbench/``.

Every layer reads its tolerances from ``genmargin.tolerances.current()``,
so a ``GENMARGIN_TOL_*`` variable exported in the shell would change what
the tests compute.  They run at the built-in tolerances instead; a test
that wants an override sets it and calls ``current.cache_clear()``.
``genmargin`` is imported inside the fixtures, after the test modules that
put ``src`` on the path themselves have been collected.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _no_tolerance_overrides():
    """Unset every GENMARGIN_TOL_* variable for the session, module-scoped
    fixtures included."""
    with pytest.MonkeyPatch.context() as mp:
        for name in list(os.environ):
            if name.startswith("GENMARGIN_TOL_"):
                mp.delenv(name)
        yield


@pytest.fixture(autouse=True)
def _fresh_tolerances():
    """Around each test, make ``current()`` read the environment again."""
    from genmargin import tolerances

    tolerances.current.cache_clear()
    yield
    tolerances.current.cache_clear()


@pytest.fixture
def tableaux(monkeypatch):
    """A list that grows by its problem for every LP tableau built: one per
    simplex run (``lp._simplex``, which every binding of ``solve_lp`` calls,
    ``verify``'s included, and which ``solve_stacked`` runs on each LP it
    does not certify)."""
    from genmargin import lp

    built = []
    solve = lp._simplex

    def counted(problem):
        built.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "_simplex", counted)
    return built
