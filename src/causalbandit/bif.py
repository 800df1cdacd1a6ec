"""Structure-only reader and writer for discrete Bayesian-network files in the
textual BIF 0.15 dialect.

Only the graph skeleton is retained: variable declarations with their state
labels, and the parent list of each probability block. Table numbers are
required to be numeric and are then discarded, since downstream instances
regenerate all conditional probabilities randomly. `property` lines and both
comment styles are skipped.

The text is read one token at a time, each token keeping only its offset;
line and column are counted from it when an error is raised. In a probability
block one pattern match checks the longest run of rows written as plain
decimals, commas and spaces, and the token rules take over where it stops.
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
# name, both at once; any other word is a number when `float` reads it.
# `_ROWS` matches a run of probability rows parted by spaces alone: `table` or
# `(` words and commas `)`, then commas and plain decimals (one at least), then
# `;`. Its words end where tokens would, so it accepts only what the token rules
# accept. Both are compiled at the first parse (`re` caches them), not at import.
_WORD_CHAR = r"(?:[^ \t\r\n{}()\[\]|,;/] | /(?![/*]))"
_DECIMAL = rf"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?!{_WORD_CHAR})"
_TOKEN = rf"""
    (?:[ \t\r\n]+ | //[^\n]* | /\*.*?\*/)*
    (?: (?P<open>/\*)
      | (?P<punct>[{{}}()\[\]|,;])
      | (?P<number>{_DECIMAL})
      | (?P<ident>[A-HJ-MO-Za-hj-mo-z_]{_WORD_CHAR}*)
      | (?P<word>{_WORD_CHAR}+)
      | \Z)
"""
_ROWS = rf"""(?: [ \t\r\n]*
    (?: table(?!{_WORD_CHAR})
      | \( (?:[ \t\r\n]* (?:{_WORD_CHAR}+(?!{_WORD_CHAR}) | ,))* [ \t\r\n]* \) )
    (?:[ \t\r\n]* ,)* [ \t\r\n]* {_DECIMAL}
    (?:[ \t\r\n]* (?:{_DECIMAL} | ,))* [ \t\r\n]* ; )*
"""


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


class _Scanner:
    """The text read one token at a time. The next token is `kind`, `word` and
    `at`, its offset; `kind` is None at the end, where `at` is the end of the
    last token. Line and column are counted from an offset only on error."""

    def __init__(self, text: str):
        self.text = text
        self._token = re.compile(_TOKEN, re.VERBOSE | re.DOTALL)
        self._rows = re.compile(_ROWS, re.VERBOSE)
        self.end = 0  # where the last token taken ends
        self._read()

    def _read(self):
        m = self._token.match(self.text, self.end)
        kind = m.lastgroup
        if kind is None:  # only spaces and comments were left
            self.kind, self.word, self.at = None, None, self.end
            return
        if kind == "open":
            self.fail("unterminated block comment", m.start(kind))
        self.word, self.at, self._next = m[kind], m.start(kind), m.end()
        if kind == "word":
            kind = "number" if _is_number(self.word) else "ident"
        self.kind = kind

    def fail(self, message, at=None):
        """Raise at offset `at`, by default the next token's. An unterminated
        block comment past `end` is raised instead: a text must tokenize before
        its grammar is judged."""
        at = self.at if at is None else at
        last = next(m for m in self._token.finditer(self.text, self.end)
                    if m.lastgroup in ("open", None))
        if last.lastgroup == "open":
            message, at = "unterminated block comment", last.start("open")
        line_start = self.text.rfind("\n", 0, at) + 1
        raise BifParseError(message, self.text.count("\n", 0, at) + 1, at - line_start + 1)

    def peek(self):
        if self.kind is None:
            self.fail("unexpected end of input")
        return self.kind, self.word, self.at

    def take(self):
        token = self.peek()
        self.end = self._next
        self._read()
        return token

    def expect_punct(self, ch):
        kind, word, _ = self.peek()
        if kind != "punct" or word != ch:
            self.fail(f"expected {ch!r}, found {word!r}")
        self.take()

    def expect_word(self, expected):
        if self.peek()[1] != expected:
            self.fail(f"expected {expected!r}, found {self.word!r}")
        self.take()

    def expect_name(self):
        kind, word, at = self.peek()
        if kind != "ident":
            self.fail(f"expected a name, found {word!r}")
        self.take()
        return word, at

    def match_punct(self, ch):
        if self.kind == "punct" and self.word == ch:
            self.take()
            return True
        return False

    def skip_property(self):
        # `property` runs to the next semicolon, content arbitrary
        while self.take()[:2] != ("punct", ";"):
            pass

    def skip_rows(self):
        self.end = self._rows.match(self.text, self.end).end()
        self._read()


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


def _parse_variable(cur: _Scanner, declared: dict[str, BifVariable]):
    name, at = cur.expect_name()
    if name in declared:
        cur.fail(f"variable {name!r} declared twice", at)
    cur.expect_punct("{")
    states = None
    while not cur.match_punct("}"):
        _, word, _ = cur.peek()
        if word == "property":
            cur.take()
            cur.skip_property()
            continue
        if word != "type":
            cur.fail(f"unknown keyword {word!r} in variable block")
        cur.take()
        cur.expect_word("discrete")
        cur.expect_punct("[")
        kind, count_text, count_at = cur.take()
        if kind != "number" or not float(count_text).is_integer():
            cur.fail(f"expected a state count, found {count_text!r}", count_at)
        count = int(float(count_text))
        cur.expect_punct("]")
        cur.expect_punct("{")
        labels = [cur.take()[1]]
        while cur.match_punct(","):
            labels.append(cur.take()[1])
        cur.expect_punct("}")
        cur.expect_punct(";")
        if count != len(labels) or count < 1:
            cur.fail(f"variable {name!r} declares {count} states but lists {len(labels)}",
                     count_at)
        states = tuple(labels)
    if states is None:
        cur.fail(f"variable {name!r} has no type clause", at)
    declared[name] = BifVariable(name, states)


def _parse_probability(cur: _Scanner, declared, parent_map, block_at):
    cur.expect_punct("(")
    child, at = cur.expect_name()
    if child not in declared:
        cur.fail(f"probability block for undeclared variable {child!r}", at)
    if child in parent_map:
        cur.fail(f"second probability block for {child!r}", at)
    parents = []
    if cur.match_punct("|"):
        while True:
            pname, p_at = cur.expect_name()
            if pname not in declared:
                cur.fail(f"unresolved parent name {pname!r}", p_at)
            if pname in parents or pname == child:
                cur.fail(f"repeated parent {pname!r}", p_at)
            parents.append(pname)
            if not cur.match_punct(","):
                break
    cur.expect_punct(")")
    cur.expect_punct("{")
    while True:
        cur.skip_rows()
        if cur.match_punct("}"):
            break
        kind, word, _ = cur.peek()
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
            cur.fail(f"unknown keyword {word!r} in probability block")
        # the numeric entries themselves are validated and dropped
        saw_number = False
        while True:
            kind, word, entry_at = cur.take()
            if kind == "punct" and word == ";":
                break
            if kind == "punct" and word == ",":
                continue
            if kind != "number":
                cur.fail(f"expected a numeric entry, found {word!r}", entry_at)
            saw_number = True
        if not saw_number:
            cur.fail("probability row lists no numbers", entry_at)
    parent_map[child] = tuple(parents)
    block_at[child] = at


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
    cur = _Scanner(text)
    cur.expect_word("network")
    net_name, _ = cur.expect_name()
    cur.expect_punct("{")
    while not cur.match_punct("}"):
        if cur.peek()[1] != "property":
            cur.fail(f"unknown keyword {cur.word!r} in network block")
        cur.take()
        cur.skip_property()
    declared: dict[str, BifVariable] = {}
    parent_map: dict[str, tuple[str, ...]] = {}
    block_at: dict[str, int] = {}
    while cur.kind is not None:
        _, word, at = cur.take()
        if word == "variable":
            _parse_variable(cur, declared)
        elif word == "probability":
            _parse_probability(cur, declared, parent_map, block_at)
        else:
            cur.fail(f"unknown keyword {word!r}", at)
    names = tuple(declared)
    for name in names:
        parent_map.setdefault(name, ())
    ordered = set(_topological_order(names, parent_map))
    stuck = [n for n in names if n not in ordered]
    if stuck:
        cur.fail(f"cycle through variable {stuck[0]!r}", block_at[stuck[0]])
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
    data = resources.files("causalbandit").joinpath("data")
    if not data.joinpath(f"{name}.bif").is_file():
        bundled = sorted(p.name[:-4] for p in data.iterdir() if p.name.endswith(".bif"))
        raise FileNotFoundError(f"{name!r} is neither a file nor a bundled network "
                                f"({', '.join(bundled)})")
    return parse_bif(data.joinpath(f"{name}.bif").read_text())
