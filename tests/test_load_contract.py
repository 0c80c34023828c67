"""The load contract, checked on mutated copies of the bundled configs.

Fields are dropped, retyped, negated, scaled out of range or replaced
with NaN, +-inf and other bad values.  Loading must then either return a
``ScenarioConfig`` or raise ``ConfigError``, and ``ntnsim linkbudget``
must exit 0, 2 or 3 without a traceback.  ``simulate`` is left out: a
loadable config may ask for any number of messages.  A few single bad
fields pin the error list itself: one error each, at the field's path.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from ntnsim.cli import main
from ntnsim.config import ScenarioConfig, load_config_dict
from ntnsim.errors import ConfigError

BUNDLED = {path.name: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}

BAD_VALUES = [
    math.nan, math.inf, -math.inf, -1.0, 0.0, -1e9, 1e9, 1e308, 10**400,
    95.0, -200.0, 400.0, 0, -3, True, None, "text", [], {}, [None], {"bogus": 1},
]


def _paths(value, prefix=()):
    """Every path below ``value`` to an object member or a list item."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


def _is_number(value):
    """A number that float arithmetic can take (not a bool, not 10**400)."""
    return type(value) is float or (type(value) is int and abs(value) < 1e300)


@st.composite
def mutated_configs(draw):
    data = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(_paths(data))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _parent(data, path), path[-1]
        op = draw(st.sampled_from(["drop", "replace", "negate", "scale"]))
        if op == "drop":
            del parent[key]
        elif op == "replace" or not _is_number(parent[key]):
            parent[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
        elif op == "negate":
            parent[key] = -parent[key] if parent[key] else -1.0
        else:
            parent[key] = parent[key] * draw(st.sampled_from([1e6, -1e6, 1e300]))
    return data


@given(mutated_configs())
@settings(max_examples=150, deadline=None)
def test_mutated_config_loads_or_raises_config_error_and_never_crashes(data):
    try:
        assert isinstance(load_config_dict(copy.deepcopy(data)), ScenarioConfig)
        loaded = True
    except ConfigError:
        loaded = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["linkbudget", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    assert loaded or code == 2
    assert "Traceback" not in stderr.getvalue()


MSG_KINDS = "'msg1_preamble', 'msg2_rar', 'msg3_rrc_connection_request', 'msg4_contention_resolution'"


@pytest.mark.parametrize(
    "edit, errors",
    [
        (lambda d: d["transfer"].update(tti_ms="x"), ["config.transfer.tti_ms: expected a number"]),
        (
            lambda d: d["links"][0].update(direction=None),
            ["config.links[0].direction: unknown value None, expected one of 'downlink', 'uplink'"],
        ),
        (
            lambda d: d["channel"].update(drop_kinds=["bogus", 3]),
            [
                f"config.channel.drop_kinds[0]: unknown value 'bogus', expected one of {MSG_KINDS}",
                f"config.channel.drop_kinds[1]: unknown value 3, expected one of {MSG_KINDS}",
            ],
        ),
        (
            lambda d: d["constellation"][0].update(kind="meo"),
            [
                "config.constellation[0].kind: unknown value 'meo', "
                "expected one of 'geosynchronous', 'leo_circular'"
            ],
        ),
    ],
    ids=["tti_ms", "direction", "drop_kinds", "kind"],
)
def test_each_bad_field_gives_one_error_at_its_own_path(edit, errors):
    """An object whose field failed is not built, so its own checks add no
    second error about a value the config never held."""
    data = copy.deepcopy(BUNDLED["leo600_sband.json"])
    edit(data)
    with pytest.raises(ConfigError) as exc:
        load_config_dict(data)
    assert exc.value.fields == errors


@pytest.mark.parametrize("name", ["leo600_sband.json", "geo_sband.json"])
def test_a_second_load_resolves_no_type_hints(name, monkeypatch):
    """Each config dataclass's string annotations are evaluated once per
    process, not on every load."""
    first = load_config_dict(copy.deepcopy(BUNDLED[name]))
    calls = []

    def get_type_hints(*args, **kwargs):
        calls.append(args)
        return resolve(*args, **kwargs)

    resolve = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", get_type_hints)
    assert load_config_dict(copy.deepcopy(BUNDLED[name])) == first
    assert calls == []
