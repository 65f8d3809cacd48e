"""Random edits of valid archive heads: the readers refuse them cleanly.

Each example replaces one JSON node of a valid ``manifest.json`` or
``description.json`` with a random JSON value.  ``load_family`` and
``load_description`` may accept the result or refuse it with
``PatternError``, ``InfeasibleError`` or ``FileNotFoundError``; no other
exception may escape.  ``verify_archive`` is left out: random parameters
can make its rebuild arbitrarily slow.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftlab.core import InfeasibleError, PatternError, get_spec
from shiftlab.deepshift import MULTI_BLOCK, build_family, load_family, save_family, schedule_params
from shiftlab.lowcfg import NNSpec, build_Pk, describe_subpattern, load_description, save_description

REFUSALS = (PatternError, InfeasibleError, FileNotFoundError)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def heads(tmp_path_factory):
    """(reader, head path, head) for a two-block and a multi-block family
    archive and a two-square description."""
    root = tmp_path_factory.mktemp("archives")
    out = []
    for name, params in [
        ("two", schedule_params(2, 3, 2, structural_override=(2, 2, 2))),
        ("multi", schedule_params(2, 3, 1, mode=MULTI_BLOCK, structural_override=(2, 2, 2))),
    ]:
        save_family(build_family(params), str(root / name))
        out.append((load_family, root / name / "manifest.json"))
    nn = NNSpec(get_spec("hard-square"))
    save_description(describe_subpattern(nn, build_Pk(nn, 3), 3, (1, 3, 4, 5)), str(root / "desc"))
    out.append((load_description, root / "desc" / "description.json"))
    return [(reader, path, json.loads(path.read_text())) for reader, path in out]


def _nodes(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _nodes(sub, path + (key,))
    elif isinstance(value, list):
        for ix, sub in enumerate(value):
            yield from _nodes(sub, path + (ix,))


def _replaced(value, path, new):
    if not path:
        return new
    out = copy.deepcopy(value)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_readers_refuse_edited_heads_cleanly(heads, data):
    reader, path, head = data.draw(st.sampled_from(heads))
    node = data.draw(st.sampled_from(list(_nodes(head))))
    path.write_text(json.dumps(_replaced(head, node, data.draw(JSON))))
    try:
        reader(str(path.parent))
    except REFUSALS:
        pass
    finally:
        path.write_text(json.dumps(head))


def test_unedited_heads_load(heads):
    for reader, path, _ in heads:
        reader(str(path.parent))
