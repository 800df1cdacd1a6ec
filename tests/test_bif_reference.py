"""The network-file parser against a frozen copy of the tokenize-then-walk
parser it replaced: on token-level edits of every fixture, both bundled
networks and MINIMAL, `parse_bif` must return an equal network (parent map
order included) or raise the same message at the same line and column."""
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbandit.bif import BifNetwork, BifVariable, _topological_order, parse_bif
from causalbandit.errors import BifParseError

from test_bif import FIXTURES, MINIMAL

# reference: the whole text tokenized into (kind, text, line, column) tuples,
# then walked one token at a time by a cursor
_REF_WORD_CHAR = r"(?:[^ \t\r\n{}()\[\]|,;/] | /(?![/*]))"
_REF_TOKEN = rf"""
    (?:[ \t\r\n]+ | //[^\n]* | /\*.*?\*/)*
    (?: (?P<open>/\*)
      | (?P<punct>[{{}}()\[\]|,;])
      | (?P<number>[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?!{_REF_WORD_CHAR}))
      | (?P<ident>[A-HJ-MO-Za-hj-mo-z_]{_REF_WORD_CHAR}*)
      | (?P<word>{_REF_WORD_CHAR}+)
      | \Z)
"""


def _ref_is_number(word):
    try:
        float(word)
    except ValueError:
        return False
    return True


def _ref_tokenize(text):
    tokens = []
    line, line_start, last = 1, 0, 0
    next_newline = text.find("\n") % (len(text) + 1)
    for m in re.finditer(_REF_TOKEN, text, re.VERBOSE | re.DOTALL):
        kind = m.lastgroup
        if kind is None:
            break
        start = m.start(kind)
        if start > next_newline:
            line += text.count("\n", last, start)
            line_start = text.rfind("\n", last, start) + 1
            next_newline = text.find("\n", start) % (len(text) + 1)
        last = start
        if kind == "open":
            raise BifParseError("unterminated block comment", line, start - line_start + 1)
        word = m[kind]
        if kind == "word":
            kind = "number" if _ref_is_number(word) else "ident"
        tokens.append((kind, word, line, start - line_start + 1))
    return tokens


class _RefCursor:
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
        while True:
            kind, text, _, _ = self.take()
            if kind == "punct" and text == ";":
                return


def _ref_parse_variable(cur, declared):
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


def _ref_parse_probability(cur, declared, parent_map, block_pos):
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
            cur.take()
            while not cur.match_punct(")"):
                cur.take()
        else:
            raise BifParseError(f"unknown keyword {word!r} in probability block",
                                wline, wcol)
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


def _ref_parse_bif(text):
    cur = _RefCursor(_ref_tokenize(text))
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
    declared = {}
    parent_map = {}
    block_pos = {}
    while not cur.done:
        kind, word, wline, wcol = cur.peek()
        if word == "variable":
            cur.take()
            _ref_parse_variable(cur, declared)
        elif word == "probability":
            cur.take()
            _ref_parse_probability(cur, declared, parent_map, block_pos)
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


def outcome(parse, text):
    """The network with its parent map's order, or the error's text and place."""
    try:
        net = parse(text)
    except BifParseError as err:
        return str(err), err.line, err.column
    return net, list(net.parent_map.items())


def assert_matches_reference(text):
    assert outcome(parse_bif, text) == outcome(_ref_parse_bif, text)


SOURCES = {
    **{name: (FIXTURES / name).read_text()
       for name in ("chain.bif", "diamond.bif", "torture.bif")},
    **{name: resources.files("causalbandit").joinpath("data", f"{name}.bif").read_text()
       for name in ("alarm", "water")},
    "MINIMAL": MINIMAL,
}
# spans that are one token or a comment mark, for the edits to cut and copy
_SPAN = re.compile(r"//|/\*|\*/|[{}()\[\]|,;]|(?:[^ \t\r\n{}()\[\]|,;/]|/(?![/*]))+")
_SWAPS = ("0.5", "7", "1e-3", "-2", "+.5e-3", "inf", "NaN", "1_0", "x1", "A", "table",
          "property", "variable", "probability", "type", "discrete", "network",
          "{", "}", "(", ")", "[", "]", "|", ",", ";", "//", "/*", "*/")


@st.composite
def edited(draw):
    """One source with one to three edits, each deleting, doubling or swapping
    out one span."""
    text = SOURCES[draw(st.sampled_from(sorted(SOURCES)))]
    for _ in range(draw(st.integers(1, 3))):
        spans = [m.span() for m in _SPAN.finditer(text)]
        if not spans:
            break
        lo, hi = spans[draw(st.integers(0, len(spans) - 1))]
        op = draw(st.sampled_from(("delete", "double", "swap")))
        new = {"delete": "", "double": text[lo:hi] + " " + text[lo:hi],
               "swap": draw(st.sampled_from(_SWAPS))}[op]
        text = text[:lo] + new + text[hi:]
    return text


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_sources_parse_as_before(name):
    assert_matches_reference(SOURCES[name])
    assert not isinstance(outcome(parse_bif, SOURCES[name])[0], str)


@settings(max_examples=250, deadline=None)
@given(edited())
def test_edited_sources_parse_or_fail_as_before(text):
    assert_matches_reference(text)


def minimal_with(old, new):
    assert old in MINIMAL
    return MINIMAL.replace(old, new)


@pytest.mark.parametrize("entry", ["inf", "NaN", "1_0", "+.5e-3", "-infinity", "x1",
                                   "1e5x", "1..2", "0.5//c\n", "0.5/*c*/", "/*c*/0.5"])
def test_entry_spellings(entry):
    assert_matches_reference(minimal_with("table 0.5, 0.5;", f"table 0.5, {entry};"))


ROW_CASES = {
    "empty-row": ("table 0.5, 0.5;", "table ;"),
    "commas-only": ("table 0.5, 0.5;", "table , ,;"),
    "name-between-entries": ("(no) 0.2, 0.8;", "(no) 0.2 x1 0.8;"),
    "odd-labels": ("(no) 0.2, 0.8;", "(no x1) 0.2, 0.8; (a ; b) 1;"),
    "property-between-rows": ("(no) 0.2, 0.8;", "(no) 0.2, 0.8; property p ; table 1;"),
    "name-after-rows": ("(no) 0.2, 0.8;", "(no) 0.2, 0.8; x1"),
    "table-prefix-word": ("(yes) 0.9, 0.1;", "table 0.9 0.1 ; tablex 1;"),
}


@pytest.mark.parametrize("edit", ROW_CASES.values(), ids=ROW_CASES)
def test_row_edge_cases(edit):
    assert_matches_reference(minimal_with(*edit))


END_CASES = {
    "empty": "",
    "comment-only": "  // only a comment",
    "header-open": "network x {",
    "block-open": MINIMAL.rstrip()[:-1],
    "row-open": minimal_with("(no) 0.2, 0.8;\n}", "(no) 0.2, 0.8"),
    "label-open": minimal_with("(no) 0.2, 0.8;\n}", "(no"),
}


@pytest.mark.parametrize("text", END_CASES.values(), ids=END_CASES)
def test_end_of_input(text):
    assert_matches_reference(text)
    assert "end of input" in outcome(parse_bif, text)[0]


def test_unterminated_comment_is_reported_before_an_earlier_grammar_error():
    text = "network x {\n}\nfoo bar /* open"
    assert_matches_reference(text)
    with pytest.raises(BifParseError) as err:
        parse_bif(text)
    assert str(err.value) == "unterminated block comment (line 3, column 9)"
    bad_row = minimal_with("(no) 0.2, 0.8;", "(no) 0.2, x1;") + "/* runs off"
    assert_matches_reference(bad_row)
    assert "block comment" in outcome(parse_bif, bad_row)[0]
