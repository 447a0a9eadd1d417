"""Records built in one step (``lp.record``) keep the frozen-dataclass
contract: each is checked against a plain frozen dataclass of the same
fields, built through the ``__init__`` that ``dataclasses`` writes."""

import dataclasses
import inspect
import pickle

import pytest

from genmargin.groups import AnalyticResult, InstanceGroup, analytic_solution, classify
from genmargin.lp import LpSolution
from genmargin.model import DualValues, PrimalDecision, SystemParams, solve_lrmc
from genmargin.pricing import (
    RecoveryReport,
    SrmcPricing,
    cost_recovery,
    group_orientation,
    lrmc_profile_for_group,
    srmc_profile,
)
from genmargin.verify import SlacknessReport, cross_check

RECORDS = (InstanceGroup, PrimalDecision, AnalyticResult, RecoveryReport, SrmcPricing,
           DualValues, SlacknessReport, LpSolution)


def samples() -> dict:
    """One record of each class, from the README scenario's closed form
    and long-run solve."""
    params = SystemParams.from_values(60, 1, 3000, 82, 20, 4000, 200, 2000, 8000)
    group = classify(params)
    analytic = analytic_solution(params, group)
    lr = solve_lrmc(params)
    out = [group, analytic.decision, analytic,
           cost_recovery(analytic.lrmc, analytic.decision, params),
           srmc_profile(lrmc_profile_for_group(group.gid), params, group_orientation(group.gid)),
           lr.duals, cross_check(params, lrmc=lr).slackness, lr.lp_solution]
    return {type(r): r for r in out}


def twin(cls):
    """A frozen dataclass with ``cls``'s name, fields and options, whose
    ``__init__`` is the one ``dataclasses`` writes."""
    params = cls.__dataclass_params__
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type, f) for f in dataclasses.fields(cls)],
        frozen=True, eq=params.eq)


def init_values(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.init}


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_record_keeps_the_frozen_dataclass_contract(cls):
    record = samples()[cls]
    values = init_values(record)
    other = twin(cls)(**values)
    assert inspect.signature(cls) == inspect.signature(type(other))
    assert vars(record) == vars(other)
    assert repr(record) == repr(other)
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, None)
    again = cls(**values)
    changed = dataclasses.replace(record, **{name: None})
    assert repr(changed) == repr(dataclasses.replace(other, **{name: None}))
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)
    if cls.__dataclass_params__.eq:
        assert again == record and hash(again) == hash(record) == hash(other)
        assert changed != record
    else:
        assert again != record and hash(again) != hash(record)


def test_positional_and_default_fields():
    group = InstanceGroup(6, 1, 2, False, 0.25)
    assert group._walk is None
    assert group == InstanceGroup(6, 1, 2, False, 0.25, ("a walk",))    # _walk not compared
    assert PrimalDecision(*range(10)).l_2 == 9
    assert LpSolution("infeasible").iterations == 0
    with pytest.raises(TypeError):
        SlacknessReport(0.0)
