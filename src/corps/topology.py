"""Communication policies over absolute tree addresses.

A topology is a list of rules for the three relations candown, canup
and cansend.  A rule either grants the relation unconditionally
(`true`), never (`false`), or matches a pair of paths against two
patterns.  Patterns are dot-separated atoms with an optional leading
`*` wildcard; every `*` in one rule binds the same prefix, and every
`$v` variable binds one agent name consistently across both sides.
Rules are disjunctive: a relation holds when at least one rule of its
kind matches.

Shipped presets:

    doxastic   candown: *.$a => *.$a.$a ; canup: same ; cansend: false
    choreo     doxastic with cansend: true
    siblings   doxastic with cansend: *.$a => *.$b
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .syntax import Path, _frozen, is_agent_name

KINDS = ("candown", "canup", "cansend")


class TopologyError(Exception):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@_frozen
class PathPattern:
    """A path pattern of a topology rule: literal names and variables,
    optionally after a wildcard prefix."""
    prefix_wildcard: bool
    atoms: tuple[tuple[str, str], ...]  # ("lit", Name) or ("var", name)

    def match(self, path: Path, binding: dict[str, object]) -> Optional[dict[str, object]]:
        """Match against an absolute path, extending `binding` consistently."""
        n = len(self.atoms)
        if self.prefix_wildcard:
            cut = len(path) - n
            if cut < 0:
                return None
            prefix, rest = path[:cut], path[cut:]
            bound = binding.get("*")
            if bound is not None and bound != prefix:
                return None
            binding = {**binding, "*": prefix}
        else:
            if len(path) != n:
                return None
            rest = path
        for (kind, name), seg in zip(self.atoms, rest):
            if kind == "lit":
                if name != seg:
                    return None
            else:
                bound = binding.get("$" + name)
                if bound is None:
                    binding = {**binding, "$" + name: seg}
                elif bound != seg:
                    return None
        return binding


@_frozen
class TopoRule:
    """One rule of a topology: a relation kind and either a constant or a
    pair of path patterns."""
    kind: str
    const: Optional[bool] = None
    lhs: Optional[PathPattern] = None
    rhs: Optional[PathPattern] = None


@_frozen
class Topology:
    """The rules of a topology, and the name it was loaded by, if any."""
    rules: tuple[TopoRule, ...]
    name: Optional[str] = None


def relation_holds(topology: Topology, kind: str, a: Path, b: Path) -> bool:
    if kind not in KINDS:
        raise ValueError(f"unknown relation kind {kind!r}")
    for rule in topology.rules:
        if rule.kind != kind:
            continue
        if rule.const is not None:
            if rule.const:
                return True
            continue
        binding = rule.lhs.match(a, {})
        if binding is None:
            continue
        if rule.rhs.match(b, binding) is not None:
            return True
    return False


def _parse_pattern(text: str, line: int) -> PathPattern:
    parts = [p.strip() for p in text.strip().split(".")]
    if parts == [""]:
        raise TopologyError("empty pattern", line)
    star = False
    atoms: list[tuple[str, str]] = []
    for i, part in enumerate(parts):
        if part == "*":
            if i != 0:
                raise TopologyError("`*` may appear only at the head of a pattern", line)
            star = True
        elif part.startswith("$"):
            name = part[1:]
            if not name.isidentifier():
                raise TopologyError(f"bad agent variable {part!r}", line)
            atoms.append(("var", name))
        elif is_agent_name(part):
            atoms.append(("lit", part))
        else:
            raise TopologyError(f"bad pattern atom {part!r}", line)
    return PathPattern(star, tuple(atoms))


def parse_topology(text: str, name: Optional[str] = None) -> Topology:
    rules: list[TopoRule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise TopologyError("expected `kind: rule`", lineno)
        kind, rest = (part.strip() for part in line.split(":", 1))
        if kind not in KINDS:
            raise TopologyError(f"unknown relation kind {kind!r}", lineno)
        if rest == "true":
            rules.append(TopoRule(kind, const=True))
        elif rest == "false":
            rules.append(TopoRule(kind, const=False))
        elif "=>" in rest:
            lhs_text, rhs_text = rest.split("=>", 1)
            rules.append(TopoRule(kind, lhs=_parse_pattern(lhs_text, lineno),
                                  rhs=_parse_pattern(rhs_text, lineno)))
        else:
            raise TopologyError("expected `true`, `false`, or `lhs => rhs`", lineno)
    return Topology(tuple(rules), name)


PRESETS = {
    "doxastic": ("candown: *.$a => *.$a.$a\n"
                 "canup: *.$a => *.$a.$a\n"
                 "cansend: false\n"),
    "choreo": ("candown: *.$a => *.$a.$a\n"
               "canup: *.$a => *.$a.$a\n"
               "cansend: true\n"),
    "siblings": ("candown: *.$a => *.$a.$a\n"
                 "canup: *.$a => *.$a.$a\n"
                 "cansend: *.$a => *.$b\n"),
}


# Each preset parsed once; a Topology is frozen, so every caller shares it.
_PRESET_TOPOLOGIES = {name: parse_topology(text, name) for name, text in PRESETS.items()}


def load_preset(name: str) -> Topology:
    try:
        return _PRESET_TOPOLOGIES[name]
    except KeyError:
        raise TopologyError(f"unknown preset {name!r}; expected one of "
                            + ", ".join(sorted(PRESETS))) from None


def flow_reachable(topology: Topology, src: Path, dst: Path,
                   universe: Iterable[Path]) -> bool:
    """Transitive data-flow reachability over a finite address universe.

    Edges: a->b for cansend(a, b); child->parent for candown(parent,
    child); parent->child for canup(parent, child), where parent is a
    prefix of child.
    """
    nodes = set(universe) | {src, dst}
    edges: dict[Path, set[Path]] = {node: set() for node in nodes}
    for a in nodes:
        for b in nodes:
            if relation_holds(topology, "cansend", a, b):
                edges[a].add(b)
            if b[:len(a)] == a:  # a is a prefix of b
                if relation_holds(topology, "candown", a, b):
                    edges[b].add(a)
                if relation_holds(topology, "canup", a, b):
                    edges[a].add(b)
    seen = {src}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        if node == dst:
            return True
        for nxt in edges[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return dst in seen
