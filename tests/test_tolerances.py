import os
import subprocess
import sys

import pytest

from genmargin.tolerances import Tolerances, current, from_env


def test_defaults():
    default = Tolerances()
    assert default.feas == 1e-9
    assert default.gap == 1e-8
    assert default.money == 1e-6
    assert default.slackness == 1e-7


def test_env_overrides():
    tol = from_env({"GENMARGIN_TOL_FEAS": "1e-7", "GENMARGIN_TOL_CS": "1e-5"})
    assert tol.feas == 1e-7
    assert tol.slackness == 1e-5
    assert tol.gap == Tolerances().gap


def test_empty_env_is_default():
    assert from_env({}) == Tolerances()


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "-1", "-1e-300", "tight", ""])
def test_malformed_override_names_the_variable(raw):
    with pytest.raises(ValueError, match="^GENMARGIN_TOL_GAP must be a finite nonnegative"):
        from_env({"GENMARGIN_TOL_GAP": raw})


def test_zero_override_is_accepted():
    assert from_env({"GENMARGIN_TOL_GAP": "0"}).gap == 0.0


def test_current_reads_the_environment_once(monkeypatch):
    monkeypatch.setenv("GENMARGIN_TOL_FEAS", "1e-7")
    current.cache_clear()
    assert current().feas == 1e-7
    monkeypatch.setenv("GENMARGIN_TOL_FEAS", "1e-5")
    assert current().feas == 1e-7
    current.cache_clear()
    assert current() == Tolerances(feas=1e-5)


def test_malformed_override_does_not_fail_the_import():
    env = dict(os.environ, GENMARGIN_TOL_FEAS="nan")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    code = ("import genmargin.cli, genmargin.tolerances as t\n"
            "try:\n    t.current()\nexcept ValueError as exc:\n    print(exc)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "GENMARGIN_TOL_FEAS must be a finite nonnegative number, got 'nan'\n"
