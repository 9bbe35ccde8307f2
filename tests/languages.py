"""The observable language of an automaton up to a length bound: an
enumeration of raw paths, independent of the subset construction, that the
tests compare languages with."""

from collections import deque

from opacedit import TAU, Automaton


def language_upto(a: Automaton, depth: int) -> set[tuple[str, ...]]:
    """All observable strings of length at most ``depth`` generated by ``a``.

    Enumerates raw paths directly (tau moves emit nothing), so it is usable as
    an independent oracle for the subset construction.
    """
    language: set[tuple[str, ...]] = set()
    seen: set[tuple[str, tuple[str, ...]]] = set()
    queue: deque[tuple[str, tuple[str, ...]]] = deque()
    for init in a.initial_states:
        pair = (init, ())
        if pair not in seen:
            seen.add(pair)
            queue.append(pair)
            language.add(())
    while queue:
        state, string = queue.popleft()
        for label, dst in a.outgoing(state):
            if label == TAU:
                nxt = (dst, string)
            elif a.event_map[label].observable:
                if len(string) == depth:
                    continue
                nxt = (dst, string + (label,))
            else:
                nxt = (dst, string)
            if nxt not in seen:
                seen.add(nxt)
                language.add(nxt[1])
                queue.append(nxt)
    return language
