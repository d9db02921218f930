"""Property tests: a config file with one drawn value parses or raises ConfigError,
and one that parses runs through ``xmcl run`` without a traceback.

Each draw starts from a config block and sets one key to a drawn JSON value.

- Parsing: the block is the README's (read as TestConfigDefaults reads it)
  and the key a documented one, a removed one, or an unknown one.  The value
  is null, a bool, an integer (huge or negative too), NaN or +-Infinity, a
  string, a list or an object.  Parsing must return or raise ConfigError,
  and an unknown or removed key must be named in the message.  Nothing
  trains.
- Running: the block is a tiny two-task config and the key one of its
  documented leaf keys, set to a value of the key's own JSON type: any float
  (NaN, +-Infinity, 1e300 and 1e-300 among them), a small integer, a list
  of those, a string.  Integers stay small, so every run that parses is a
  tiny one (huge counts are valid configs that would train for ever).  Each
  config that parses goes through ``xmcl run``, which must exit 0, or 2
  naming the key, or 1 only for a non-finite training term, ``task T,
  epoch E: non-finite <term>``; nothing may print a traceback.  One
  example test pins an exit 1: ``jmmd.alpha`` 1e300 overflows Adam's second
  moment.

Hypothesis profiles are registered in conftest.py.
"""

import contextlib
import copy
import io
import json
import re
import string
import tempfile
import warnings
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, strategies as st  # noqa: E402

from test_cli import readme_config_block  # noqa: E402
from xmcl.cli import _FLAT_KEYS, ConfigError, main, parse_experiment_config  # noqa: E402

def documented_keys(block: dict) -> list[tuple[tuple, str]]:
    """(container path, key) for each key of the block, of its first task and of its objects."""
    keys = [((), key) for key in block]
    keys += [(("tasks", 0), key) for key in block["tasks"][0]]
    keys += [((name,), k) for name, obj in block.items() if isinstance(obj, dict) for k in obj]
    return keys


def container(block: dict, path: tuple):
    for step in path:
        block = block[step]
    return block


def edited(block: dict, path: tuple, key: str, value) -> dict:
    payload = copy.deepcopy(block)
    container(payload, path)[key] = value
    return payload


BLOCK = readme_config_block()
DOCUMENTED = documented_keys(BLOCK)
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
    payload = edited(BLOCK, path, key, draw(json_values))
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


def tiny_task(task_id: int) -> dict:
    return {
        "task_id": task_id, "latent_dim": 3, "feature_dim": 6,
        "num_train_ids": 4, "num_test_ids": 3, "sketches_per_id": 2, "photos_per_id": 2,
        "modality_gap": 0.6, "task_shift": 1.5 * task_id, "noise_sigma": 0.1, "seed": 0,
    }


# every documented key of the README block, at values that train in a few milliseconds
TINY = {
    **BLOCK,
    "tasks": [tiny_task(0), tiny_task(1)],
    "schedule": {"epochs_first_task": 2, "epochs_later_tasks": 2, "warmup_epochs": 1,
                 "base_lr": 1e-2, "warmup_start_lr": 1e-3, "decay_epochs": [1], "decay_factor": 0.1},
    "encoder": {"hidden_dims": [8], "embedding_dim": 4, "temperature": 0.07},
    "pk": {"p": 2, "k": 2},
}


# the leaf keys: a whole section or task list set to one drawn value only fails parsing
TINY_KEYS = [
    (path, key)
    for path, key in documented_keys(TINY)
    if key != "tasks" and not isinstance(container(TINY, path)[key], dict)
]
NON_FINITE = re.compile(
    r"^runtime failure: task \d+( \(replaying task \d+\))?, epoch \d+: non-finite [\w ]+$"
)


def names_key(message: str, path: tuple, key: str) -> bool:
    """Whether an error message names a key: quoted, or as the word of the field it sets."""
    field = _FLAT_KEYS.get(".".join(map(str, (*path, key))), key)
    return repr(key) in message or re.search(rf"\b{field}\b", message) is not None


small_ints = st.integers(-2, 12)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300, -1e300, 1e-300, 0.0]),
    small_ints,
)


def values_like(value) -> st.SearchStrategy:
    """JSON values of the type a key holds in TINY, with edge cases; the integers stay small."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return small_ints
    if isinstance(value, float):
        return floats
    if isinstance(value, list):
        return st.lists(values_like(value[0]), max_size=3)
    if value is None:  # jmmd.layer_set
        return st.one_of(st.none(), st.lists(small_ints, max_size=3))
    if isinstance(value, str):  # jmmd.bandwidths
        return st.one_of(st.just(value), st.text(max_size=8), st.lists(floats, max_size=3))
    raise TypeError(value)


@st.composite
def parsed_tiny_configs(draw):
    """(payload, path, key): one key of TINY set to a drawn value that parses."""
    path, key = draw(st.sampled_from(TINY_KEYS))
    if key == "arms":
        value = draw(st.lists(st.sampled_from(["full", "no_mpm", "alpha_zero"]), min_size=1, max_size=3))
    else:
        value = draw(values_like(container(TINY, path)[key]))
    payload = edited(TINY, path, key, value)
    try:
        parse_experiment_config(payload)
    except ConfigError:
        event("rejected by parsing")
        hypothesis.assume(False)
    return payload, path, key


def run_tiny(payload: dict) -> tuple[int, str]:
    """``xmcl run`` on a config payload: (exit code, the last line of stderr).

    Nothing may print a traceback.  The exit's own message is the last line;
    batch warnings may come before it.
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(payload))
        # numpy's overflow warnings stay warnings, as for a user, instead of
        # the exceptions this suite's filters make them
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["run", "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, (err.getvalue().strip().splitlines() or [""])[-1]


@given(parsed_tiny_configs())
def test_one_edited_key_of_a_tiny_config_runs_or_fails_cleanly(case):
    payload, path, key = case
    code, message = run_tiny(payload)
    event(f"exit {code}")
    if code == 2:
        assert names_key(message, path, key), message
    elif code == 1:
        assert NON_FINITE.match(message), message
    else:
        assert code == 0, message


def test_an_overflowing_adam_second_moment_exits_1():
    # gradients near 1e299 square to inf in Adam's second moment, and every
    # later step of those weights would be 0 while the losses stay finite
    code, message = run_tiny(edited(TINY, ("jmmd",), "alpha", 1e300))
    assert code == 1
    assert NON_FINITE.match(message), message
    assert message.endswith(": non-finite adam second moment"), message
