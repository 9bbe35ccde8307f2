"""Every field of the demo documents replaced by a value of each JSON type.

A document that parses must render and serialize; one that does not must
fail with ``DocumentError`` (exit 2 on the command line), never with another
exception.  Lists are entered at their first element only.
"""

import json

import pytest

from opacedit import (
    DocumentError,
    demo_g1,
    demo_pair,
    export_dot,
    largest_tpo,
    parse_document,
    serialize_document,
    synthesize_modular_edit_structure,
    transform_monolithic,
)

_VALUES = (None, True, 7, "x", [], {})


def _documents():
    g = demo_g1()
    tpo = largest_tpo(g, name=f"tpo({g.name})")
    return {
        "automaton": g,
        "tpo": tpo,
        "transformed-automaton": transform_monolithic(tpo, name=f"{g.name}^T"),
        "structure": synthesize_modular_edit_structure(list(demo_pair()), max_erasures=1),
    }


def _paths(doc, path=()):
    """Each dict key and each list's first index, depth first."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc[:1])
    else:
        return
    for key, value in children:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` set to ``value``; only the
    containers along the path are copied."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[head] = _replaced(doc[head], rest, value)
    return copy


@pytest.mark.parametrize("kind", ["automaton", "tpo", "transformed-automaton", "structure"])
def test_every_field_of_every_type_parses_or_raises_document_error(kind):
    doc = json.loads(serialize_document(_documents()[kind]))
    rejected = 0
    problems = []
    for path in _paths(doc):
        for value in _VALUES:
            text = json.dumps(_replaced(doc, path, value), ensure_ascii=False)
            try:
                parsed = parse_document(text)
                export_dot(parsed)
                serialize_document(parsed)
            except DocumentError:
                rejected += 1
            except Exception as err:  # noqa: BLE001 - any other exception is the finding
                problems.append(f"{'.'.join(map(str, path))} = {value!r}: {type(err).__name__}: {err}")
    assert problems == []
    assert rejected > 0
