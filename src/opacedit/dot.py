"""Graphviz DOT rendering for automata, TPOs and synthesized structures.

Shape conventions follow the game reading: Y states are boxes, Z states
ellipses, W states diamonds.  Marked states are filled, secret states get a
double outline, and each initial state is pointed at by an arrow from an
invisible anchor node.
"""

from __future__ import annotations

from typing import Mapping

from .automata import Automaton
from .synthesis import ModularEditStructure
from .tpo import Tpo, W, Y, Z, render_names
from .transform import TransformedAutomaton

_SHAPES = {Y: "box", Z: "ellipse", W: "diamond"}


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _node_line(
    name: str,
    shape: str | None = None,
    marked: bool = False,
    secret: bool = False,
) -> str:
    attrs = []
    if shape:
        attrs.append(f"shape={shape}")
    if marked:
        attrs.append("style=filled")
        attrs.append("fillcolor=lightgrey")
    if secret:
        attrs.append("peripheries=2")
    suffix = f" [{', '.join(attrs)}]" if attrs else ""
    return f"  {_quote(name)}{suffix};"


def _automaton_body(
    a: Automaton,
    shapes: Mapping[str, str] | None = None,
) -> list[str]:
    lines = []
    for st in a.states:
        shape = shapes.get(st.name) if shapes else None
        lines.append(_node_line(st.name, shape=shape, marked=st.marked, secret=st.secret))
    for i, name in enumerate(a.initial_states):
        anchor = f"__start{i}"
        lines.append(f'  "{anchor}" [shape=point, style=invis];')
        lines.append(f'  "{anchor}" -> {_quote(name)};')
    for src, label, dst in a.transitions:
        lines.append(f"  {_quote(src)} -> {_quote(dst)} [label={_quote(label)}];")
    return lines


def _wrap(name: str, body: list[str], comments: list[str] | None = None) -> str:
    lines = [f"digraph {_quote(name)} {{"]
    for comment in comments or []:
        lines.append(f"  // {comment}")
    lines.append("  rankdir=LR;")
    lines.extend(body)
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(x: Automaton | Tpo | TransformedAutomaton | ModularEditStructure) -> str:
    """Render a structure as a DOT digraph."""
    if isinstance(x, Automaton):
        return _wrap(x.name, _automaton_body(x))
    if isinstance(x, Tpo):
        names = render_names(x.states)
        lines = [_node_line(name, shape=_SHAPES[fields[0]]) for fields, name in zip(x.states, names)]
        if x.initial is not None:
            lines.append('  "__start0" [shape=point, style=invis];')
            lines.append(f'  "__start0" -> {_quote(names[x.initial])};')
        for src, _, label, dst in x.transitions:
            lines.append(f"  {_quote(names[src])} -> {_quote(names[dst])} [label={_quote(label)}];")
        return _wrap(x.name, lines)
    if isinstance(x, TransformedAutomaton):
        shapes = {name: _SHAPES[kind] for name, kind in x.origins.items()}
        return _wrap(x.automaton.name, _automaton_body(x.automaton, shapes))
    if isinstance(x, ModularEditStructure):
        shapes = {}
        for st in x.supervisor.states:
            parts = x.tuple_map[st.name]
            kinds = {x.components[i].origins[parts[i]] for i in range(len(x.components))}
            if kinds == {Y}:
                shapes[st.name] = _SHAPES[Y]
            elif W in kinds:
                shapes[st.name] = _SHAPES[W]
            else:
                shapes[st.name] = _SHAPES[Z]
        comments = [f"removed states: {x.removed_states}"]
        return _wrap(x.supervisor.name, _automaton_body(x.supervisor, shapes), comments)
    raise TypeError(f"cannot render {type(x).__name__}")
