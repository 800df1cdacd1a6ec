"""Structure-only reader and writer for discrete Bayesian-network files in the
textual BIF 0.15 dialect.

Only the graph skeleton is retained: variable declarations with their state
labels, and the parent list of each probability block. Table numbers are
required to be numeric and are then discarded, since downstream instances
regenerate all conditional probabilities randomly. `property` lines and both
comment styles are skipped.
"""
from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from importlib import resources

from .errors import BifParseError, InternalConsistencyError
from .model import CausalDag

# One match per token: the spaces and comments before it, then the token, or
# the end of the text. A word is whatever is no space, comment or punctuation,
# up to a "//" or "/*". A plain decimal word is a number and a word that starts
# with a letter no float starts with (all but i and n, for inf and nan) is a
# name, both at once; any other word is a number when `float` reads it. The
# pattern is compiled at the first parse (`re` caches it), not at import.
_WORD_CHAR = r"(?:[^ \t\r\n{}()\[\]|,;/] | /(?![/*]))"
_TOKEN = rf"""
    (?:[ \t\r\n]+ | //[^\n]* | /\*.*?\*/)*
    (?: (?P<open>/\*)
      | (?P<punct>[{{}}()\[\]|,;])
      | (?P<number>[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?!{_WORD_CHAR}))
      | (?P<ident>[A-HJ-MO-Za-hj-mo-z_]{_WORD_CHAR}*)
      | (?P<word>{_WORD_CHAR}+)
      | \Z)
"""


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def _tokenize(text: str):
    tokens = []
    line, line_start, last = 1, 0, 0
    next_newline = text.find("\n") % (len(text) + 1)  # past the end when there is none
    for m in re.finditer(_TOKEN, text, re.VERBOSE | re.DOTALL):
        kind = m.lastgroup
        if kind is None:  # only spaces and comments were left
            break
        start = m.start(kind)
        if start > next_newline:  # tokens hold no newline, so the skipped text has them all
            line += text.count("\n", last, start)
            line_start = text.rfind("\n", last, start) + 1
            next_newline = text.find("\n", start) % (len(text) + 1)
        last = start
        if kind == "open":
            raise BifParseError("unterminated block comment", line, start - line_start + 1)
        word = m[kind]
        if kind == "word":
            kind = "number" if _is_number(word) else "ident"
        tokens.append((kind, word, line, start - line_start + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def _where(self):
        if self.pos < len(self.tokens):
            _, _, line, col = self.tokens[self.pos]
        elif self.tokens:
            _, text, line, col = self.tokens[-1]
            col += len(text)
        else:
            line, col = 1, 1
        return line, col

    def fail(self, message):
        line, col = self._where()
        raise BifParseError(message, line, col)

    @property
    def done(self):
        return self.pos >= len(self.tokens)

    def peek(self):
        if self.done:
            self.fail("unexpected end of input")
        return self.tokens[self.pos]

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_punct(self, ch):
        kind, text, _, _ = self.peek()
        if kind != "punct" or text != ch:
            self.fail(f"expected {ch!r}, found {text!r}")
        return self.take()

    def expect_word(self, expected):
        kind, text, _, _ = self.peek()
        if text != expected:
            self.fail(f"expected {expected!r}, found {text!r}")
        return self.take()

    def expect_name(self):
        kind, text, _, _ = self.peek()
        if kind != "ident":
            self.fail(f"expected a name, found {text!r}")
        return self.take()

    def match_punct(self, ch):
        if not self.done:
            kind, text, _, _ = self.tokens[self.pos]
            if kind == "punct" and text == ch:
                self.pos += 1
                return True
        return False

    def skip_property(self):
        # `property` runs to the next semicolon, content arbitrary
        while True:
            kind, text, _, _ = self.take()
            if kind == "punct" and text == ";":
                return


@dataclass(frozen=True)
class BifVariable:
    name: str
    states: tuple[str, ...]

    @property
    def state_count(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class BifNetwork:
    name: str
    variables: tuple[BifVariable, ...]
    parent_map: dict[str, tuple[str, ...]]

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def edge_count(self) -> int:
        return sum(len(ps) for ps in self.parent_map.values())

    @property
    def root_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if not self.parent_map[v.name])


def _parse_variable(cur: _Cursor, declared: dict[str, BifVariable]):
    _, name, line, col = cur.expect_name()
    if name in declared:
        raise BifParseError(f"variable {name!r} declared twice", line, col)
    cur.expect_punct("{")
    states = None
    while not cur.match_punct("}"):
        kind, word, wline, wcol = cur.peek()
        if word == "property":
            cur.take()
            cur.skip_property()
            continue
        if word != "type":
            raise BifParseError(f"unknown keyword {word!r} in variable block",
                                wline, wcol)
        cur.take()
        cur.expect_word("discrete")
        cur.expect_punct("[")
        kind, count_text, cline, ccol = cur.take()
        if kind != "number" or not float(count_text).is_integer():
            raise BifParseError(f"expected a state count, found {count_text!r}",
                                cline, ccol)
        count = int(float(count_text))
        cur.expect_punct("]")
        cur.expect_punct("{")
        labels = []
        while True:
            _, label, _, _ = cur.take()
            labels.append(label)
            if not cur.match_punct(","):
                break
        cur.expect_punct("}")
        cur.expect_punct(";")
        if count != len(labels) or count < 1:
            raise BifParseError(
                f"variable {name!r} declares {count} states but lists {len(labels)}",
                cline, ccol)
        states = tuple(labels)
    if states is None:
        raise BifParseError(f"variable {name!r} has no type clause", line, col)
    declared[name] = BifVariable(name, states)


def _parse_probability(cur: _Cursor, declared, parent_map, block_pos):
    cur.expect_punct("(")
    _, child, line, col = cur.expect_name()
    if child not in declared:
        raise BifParseError(f"probability block for undeclared variable {child!r}",
                            line, col)
    if child in parent_map:
        raise BifParseError(f"second probability block for {child!r}", line, col)
    parents = []
    if cur.match_punct("|"):
        while True:
            _, pname, pline, pcol = cur.expect_name()
            if pname not in declared:
                raise BifParseError(f"unresolved parent name {pname!r}", pline, pcol)
            if pname in parents or pname == child:
                raise BifParseError(f"repeated parent {pname!r}", pline, pcol)
            parents.append(pname)
            if not cur.match_punct(","):
                break
    cur.expect_punct(")")
    cur.expect_punct("{")
    while not cur.match_punct("}"):
        kind, word, wline, wcol = cur.peek()
        if word == "property":
            cur.take()
            cur.skip_property()
            continue
        if word == "table":
            cur.take()
        elif kind == "punct" and word == "(":
            # row prefix naming the parent states; labels are not interpreted
            cur.take()
            while not cur.match_punct(")"):
                cur.take()
        else:
            raise BifParseError(f"unknown keyword {word!r} in probability block",
                                wline, wcol)
        # the numeric entries themselves are validated and dropped
        saw_number = False
        while True:
            kind, word, wline, wcol = cur.take()
            if kind == "punct" and word == ";":
                break
            if kind == "punct" and word == ",":
                continue
            if kind != "number":
                raise BifParseError(f"expected a numeric entry, found {word!r}",
                                    wline, wcol)
            saw_number = True
        if not saw_number:
            raise BifParseError("probability row lists no numbers", wline, wcol)
    parent_map[child] = tuple(parents)
    block_pos[child] = (line, col)


def _topological_order(names, parent_map) -> list[str]:
    """Kahn's algorithm, ties broken by position in `names`; a variable on or
    below a cycle never becomes ready, so it is missing from the result."""
    position = {name: i for i, name in enumerate(names)}
    pending = {name: set(parent_map[name]) for name in names}
    children: dict[str, list[str]] = {name: [] for name in names}
    for child in names:
        for p in parent_map[child]:
            children[p].append(child)
    ready = [position[n] for n, ps in pending.items() if not ps]
    heapq.heapify(ready)
    order = []
    while ready:
        n = names[heapq.heappop(ready)]
        order.append(n)
        for ch in children[n]:
            pending[ch].discard(n)
            if not pending[ch]:
                heapq.heappush(ready, position[ch])
    return order


def parse_bif(text: str) -> BifNetwork:
    cur = _Cursor(_tokenize(text))
    cur.expect_word("network")
    _, net_name, _, _ = cur.expect_name()
    cur.expect_punct("{")
    while not cur.match_punct("}"):
        kind, word, wline, wcol = cur.peek()
        if word == "property":
            cur.take()
            cur.skip_property()
        else:
            raise BifParseError(f"unknown keyword {word!r} in network block",
                                wline, wcol)
    declared: dict[str, BifVariable] = {}
    parent_map: dict[str, tuple[str, ...]] = {}
    block_pos: dict[str, tuple[int, int]] = {}
    while not cur.done:
        kind, word, wline, wcol = cur.peek()
        if word == "variable":
            cur.take()
            _parse_variable(cur, declared)
        elif word == "probability":
            cur.take()
            _parse_probability(cur, declared, parent_map, block_pos)
        else:
            raise BifParseError(f"unknown keyword {word!r}", wline, wcol)
    names = tuple(declared)
    for name in names:
        parent_map.setdefault(name, ())
    ordered = set(_topological_order(names, parent_map))
    stuck = [n for n in names if n not in ordered]
    if stuck:
        line, col = block_pos.get(stuck[0], (1, 1))
        raise BifParseError(f"cycle through variable {stuck[0]!r}", line, col)
    return BifNetwork(net_name, tuple(declared.values()), parent_map)


def to_causal_dag(net: BifNetwork) -> tuple[CausalDag, dict[str, int]]:
    """Topologically sorted binary DAG plus the variable-name to node-index map.

    Every variable becomes one binary node regardless of its state count. Ties
    in the topological order are broken by declaration order, so the result is
    stable across runs.
    """
    order = _topological_order(net.variable_names, net.parent_map)
    if len(order) != len(net.variables):
        raise InternalConsistencyError("acyclic network failed to sort")
    name_to_index = {name: i for i, name in enumerate(order)}
    parents = [() for _ in order]
    for name, idx in name_to_index.items():
        parents[idx] = tuple(sorted(name_to_index[p] for p in net.parent_map[name]))
    return CausalDag(tuple(parents)), name_to_index


def format_bif(net: BifNetwork) -> str:
    """Canonical pretty-print; tables are emitted as uniform placeholders."""
    out = [f"network {net.name} {{", "}"]
    counts = {v.name: v.state_count for v in net.variables}
    for v in net.variables:
        out.append(f"variable {v.name} {{")
        out.append(f"  type discrete [ {v.state_count} ] {{ {', '.join(v.states)} }};")
        out.append("}")
    for v in net.variables:
        parents = net.parent_map[v.name]
        head = v.name if not parents else f"{v.name} | {', '.join(parents)}"
        out.append(f"probability ( {head} ) {{")
        n_cells = v.state_count
        for p in parents:
            n_cells *= counts[p]
        uniform = f"{1.0 / v.state_count:.6f}"
        out.append(f"  table {', '.join([uniform] * n_cells)};")
        out.append("}")
    return "\n".join(out) + "\n"


def load_bundled(name: str) -> BifNetwork:
    """Parse one of the network files shipped inside the package."""
    path = resources.files("causalbandit").joinpath("data", f"{name}.bif")
    return parse_bif(path.read_text())
