"""Language-level overlap tests gating de-composition (paper §IV-A/B).

The paper requires that "no suffix of A can be a prefix of B" before
splitting ``.*A.*B``.  Taken literally that condition misses one corner
case: a *whole word* of A occurring inside a proper prefix of B (e.g.
A = ``b``, B = ``abc`` on input ``abc`` — A fires inside B's span, the flag
is set, and the filtered result wrongly confirms).  The test implemented
here closes that gap by checking the slightly stronger condition

    Pref(L(B))  ∩  Suf(L(.*A))  contains no non-empty string,

i.e. no non-empty prefix of a B-word may simultaneously be the tail of some
input that just finished matching ``.*A``.  ``Suf(L(.*A))`` contains both
every suffix of every A-word *and* every string ending in a complete A-word,
which is exactly the set of histories after which the A-flag can be set.

The check runs on the product of two small NFAs (one per segment), so it is
exact for the full regex subset, not just literal strings.
"""

from __future__ import annotations

from ..automata.nfa import NFA, build_nfa
from ..regex.ast import Node, Pattern

__all__ = ["segments_overlap", "useful_states"]


def useful_states(nfa: NFA) -> set[int]:
    """States from which some accepting state is reachable (co-reachable)."""
    # Build the reverse edge relation once.
    reverse: list[list[int]] = [[] for _ in range(nfa.n_states)]
    for src, edges in enumerate(nfa.transitions):
        for _bits, dst in edges:
            reverse[dst].append(src)
    frontier = [
        q
        for q in range(nfa.n_states)
        if nfa.accepts[q] or nfa.accepts_end[q]
    ]
    useful = set(frontier)
    while frontier:
        state = frontier.pop()
        for prev in reverse[state]:
            if prev not in useful:
                useful.add(prev)
                frontier.append(prev)
    return useful


def segments_overlap(a: Node, b: Node) -> bool:
    """True when splitting ``.*a ... b`` would be unsafe.

    Checks whether some non-empty string is both a suffix of the language of
    ``.*a`` and a prefix of the language of ``b`` (see module docstring).
    """
    # NFA for ".*a": unanchored build adds the ".*" prefix.
    nfa_a = build_nfa([Pattern(a, match_id=1, anchored=False)])
    # NFA for "b" alone, anchored so no ".*" is prepended.
    nfa_b = build_nfa([Pattern(b, match_id=1, anchored=True)])

    accepting_a = {
        q
        for q in range(nfa_a.n_states)
        if nfa_a.accepts[q] or nfa_a.accepts_end[q]
    }
    useful_b = useful_states(nfa_b)

    # Suffixes of L(.*a) start from any state of nfa_a (every state is
    # reachable by construction); prefixes of L(b) start from b's start.
    # BFS the synchronous product looking for a path of length >= 1 ending
    # in (accepting_a, useful_b).
    start_b = nfa_b.initial[0]
    frontier: list[tuple[int, int]] = [(qa, start_b) for qa in range(nfa_a.n_states)]
    seen: set[tuple[int, int]] = set(frontier)
    while frontier:
        qa, qb = frontier.pop()
        for bits_a, ta in nfa_a.transitions[qa]:
            for bits_b, tb in nfa_b.transitions[qb]:
                if not bits_a & bits_b:
                    continue
                if ta in accepting_a and tb in useful_b:
                    return True
                pair = (ta, tb)
                if pair not in seen:
                    seen.add(pair)
                    frontier.append(pair)
    return False
