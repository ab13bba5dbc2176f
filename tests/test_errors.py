"""The package's exception survives pickling, as a worker process's does
on its way back to the parent, with its fields and message intact."""

import pickle

import pytest

from alebench.errors import ConfigError


@pytest.mark.parametrize("err, fields, text", [
    (ConfigError("mod.m", "must be a power of two from 2 to 16, got 3"),
     {"key": "mod.m", "reason": "must be a power of two from 2 to 16, got 3"},
     "mod.m: must be a power of two from 2 to 16, got 3"),
], ids=["ConfigError"])
def test_round_trips_through_pickle(err, fields, text):
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is type(err)
    assert {name: getattr(again, name) for name in fields} == fields
    assert str(again) == str(err) == text
