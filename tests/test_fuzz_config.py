"""Property test: a config file with one drawn value parses or raises ConfigError.

Each draw starts from the README config block (read as TestConfigDefaults
reads it) and sets one key to a drawn JSON value: null, a bool, a huge or
negative integer, NaN or +-Infinity, a string, a list or an object.  The key
is a documented one, a removed one, or an unknown one.  Parsing must return
or raise ConfigError, and an unknown or removed key must be named in the
message.  Nothing trains.  Hypothesis profiles are registered in conftest.py.
"""

import copy
import string

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, strategies as st  # noqa: E402

from test_cli import readme_config_block  # noqa: E402
from xmcl.cli import ConfigError, parse_experiment_config  # noqa: E402

BLOCK = readme_config_block()
# (container path, key) for each key of the block and of its objects
DOCUMENTED = [((), key) for key in BLOCK]
DOCUMENTED += [(("tasks", 0), key) for key in BLOCK["tasks"][0]]
DOCUMENTED += [((name,), k) for name, obj in BLOCK.items() if isinstance(obj, dict) for k in obj]
REMOVED = [(("tasks", 0), "num_aux_ids")] + [(("schedule",), k) for k in ("beta1", "beta2", "eps")]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.sampled_from([10**400, -(10**400), 2**63, -1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=8),
)
json_values = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.dictionaries(st.text(max_size=6), scalars, max_size=3),
)


@st.composite
def edited_configs(draw):
    """(payload, key that must be named in the error, or None)."""
    kind = draw(st.sampled_from(["documented", "removed", "unknown"]))
    event(kind)
    if kind == "unknown":
        path = draw(st.sampled_from(sorted({p for p, _ in DOCUMENTED})))
        taken = {k for p, k in DOCUMENTED if p == path} | {"path"}
        alphabet = string.ascii_letters + string.digits + "_"
        key = draw(st.text(alphabet, min_size=1, max_size=12).filter(lambda k: k not in taken))
    else:
        path, key = draw(st.sampled_from(DOCUMENTED if kind == "documented" else REMOVED))
    payload = copy.deepcopy(BLOCK)
    target = payload
    for step in path:
        target = target[step]
    target[key] = draw(json_values)
    return payload, None if kind == "documented" else key


@given(edited_configs())
def test_one_edited_key_parses_or_raises_config_error(case):
    payload, named = case
    try:
        parse_experiment_config(payload)
    except ConfigError as e:
        assert named is None or repr(named) in str(e) or f".{named}'" in str(e), str(e)
    else:
        assert named is None, f"{named!r} was accepted"
