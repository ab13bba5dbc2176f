"""The package's exceptions survive pickling, as a worker process's do
on their way back to the parent, with their fields and message intact."""

import pickle

import pytest

from alebench.errors import ConfigError, DivergenceError


@pytest.mark.parametrize("err, fields, text", [
    (ConfigError("mod.m", "must be a power of two from 2 to 16, got 3"),
     {"key": "mod.m", "reason": "must be a power of two from 2 to 16, got 3"},
     "mod.m: must be a power of two from 2 to 16, got 3"),
    (DivergenceError(144, 1.234e6),
     {"sample_index": 144, "max_weight": 1.234e6},
     "weight magnitude 1.234e+06 exceeded bound at sample 144"),
], ids=["ConfigError", "DivergenceError"])
def test_round_trips_through_pickle(err, fields, text):
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is type(err)
    assert {name: getattr(again, name) for name in fields} == fields
    assert str(again) == str(err) == text
