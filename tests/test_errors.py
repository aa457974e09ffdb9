"""Every package error survives a pickle round trip: its type, its message
and its attributes, whatever arguments its own __init__ takes."""

import datetime as dt
import inspect
import pickle
from pathlib import Path

import pytest

from defiparity import errors
from defiparity.domain import WeightVector

# constructor arguments of the classes with an __init__ of their own; every
# other class takes a message
ARGUMENTS = {
    errors.DuplicateId: ("aave", "line 3"),
    errors.NonPositiveScore: ("aave", "score -1.0"),
    errors.MissingTvl: ("aave",),
    errors.NotConverged: (WeightVector(("a", "b"), (0.25, 0.75)), 1.5e-9, 500),
    errors.NoActiveProtocols: (dt.date(2022, 1, 3),),
    errors.MissingFx: (dt.date(2022, 1, 4),),
    errors.ParseError: (Path("ledger_ew.csv"), 5, "could not convert string to float: 'x'"),
    errors.UnknownProtocol: ("zzz", "line 7"),
    errors.MappingError: ("yields", "apy"),
}

CLASSES = sorted((cls for cls in vars(errors).values()
                  if inspect.isclass(cls) and issubclass(cls, errors.DefiParityError)),
                 key=lambda cls: cls.__name__)


def test_every_class_with_its_own_init_has_arguments():
    own_init = {cls for cls in CLASSES if "__init__" in vars(cls)}
    assert own_init == set(ARGUMENTS)
    assert len(own_init) == 9


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    error = cls(*ARGUMENTS.get(cls, ("a message",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)


def test_parse_error_keeps_path_and_line():
    copy = pickle.loads(pickle.dumps(errors.ParseError("p", 3, "bad")))
    assert (str(copy), copy.path, copy.line) == ("p:3: bad", "p", 3)
