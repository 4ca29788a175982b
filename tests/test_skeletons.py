"""A literal text whose token skeleton is known is not parsed
(``repro.sql.facts.parse_text``). Whatever it is served must be what
parsing it gives: an equal statement, sharing no node and no list with any
other statement, whose facts normalise and fingerprint as the parsed
statement's do."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import ast as A
from repro.sql import facts, parse

INTS = st.integers(min_value=-(2 ** 70), max_value=2 ** 70).map(str)
FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
STRINGS = TEXT.map(lambda s: "'" + s.replace("'", "''") + "'")
ESCAPED = TEXT.map(lambda s: "E'" + s.replace("\\", "\\\\").replace("'", "\\'")
                   .replace("\n", "\\n") + "'")
WORDS = st.sampled_from(["NULL", "TRUE", "false"])
VALUES = st.one_of(INTS, FLOATS, STRINGS, ESCAPED, WORDS)
COUNTS = st.integers(min_value=0, max_value=2 ** 60).map(str)

#: name -> (template, a strategy per slot); keywords and identifiers are
#: written in lower case and drawn in either.
TEMPLATES = {
    "equal": ("select a, b from t where a = {}", (VALUES,)),
    "in": ("select a from t where a in ({})",
           (st.lists(VALUES, min_size=1, max_size=4).map(", ".join),)),
    "limit_offset": ("select a from t where b = {} limit {} offset {}",
                     (VALUES, COUNTS, COUNTS)),
    "offset_limit": ("select a from t where b = {} offset {} limit {}",
                     (VALUES, COUNTS, COUNTS)),
    "order_by_1": ("select a, b from t where c = {} order by 1", (VALUES,)),
    "group_by_2": ("select b, count(*) from t where c = {} group by 2", (VALUES,)),
    "typed": ("select date {}, {}::int from t where a = {}",
              (STRINGS, STRINGS, INTS)),
    "update": ("update t set b = {} where a = {}", (VALUES, INTS)),
    "insert": ("insert into t (a, b) values ({}, {})", (INTS, VALUES)),
    "delete": ("delete from t where a = {} and b <> {}", (INTS, VALUES)),
    "between": ("select a from t where a between {} and {} order by a desc"
                " limit {}", (VALUES, VALUES, COUNTS)),
}
COMMENTS = st.sampled_from(["", " /* c */", " -- x\n", "/**/"])


@st.composite
def texts(draw):
    """Several texts of one template: the same skeleton, unless the values
    drawn differ in token type or sign."""
    template, slots = TEMPLATES[draw(st.sampled_from(sorted(TEMPLATES)))]
    out = []
    for _ in range(draw(st.integers(min_value=3, max_value=5))):
        text = template.upper() if draw(st.booleans()) else template
        out.append(text.format(*(draw(slot) for slot in slots))
                   + draw(COMMENTS))
    return out


def parts(stmt) -> set:
    """The ids of every node and every list of a statement."""
    found = set()

    def visit(value):
        if isinstance(value, A.Node):
            found.add(id(value))
            for name, _ in A.node_fields(type(value)):
                visit(getattr(value, name))
        elif isinstance(value, (list, tuple)):
            if isinstance(value, list):
                found.add(id(value))
            for item in value:
                visit(item)

    visit(stmt)
    return found


@settings(max_examples=400, deadline=None)
@given(texts())
def test_a_served_statement_is_the_parsed_one(sqls):
    served = []
    for sql in sqls:
        (stmt,) = facts.parse_text(sql)
        (parsed,) = parse(sql)
        assert stmt == parsed, sql
        known = facts.statement_facts(stmt)
        fresh = facts.StatementFacts(parsed)
        assert facts.statement_norm(known) == facts.statement_norm(fresh), sql
        assert (facts.statement_fingerprint(known)
                == facts.statement_fingerprint(fresh)), sql
        assert set(known.tables) == set(fresh.tables), sql
        norm = facts.statement_norm(known)
        served.append((parts(stmt), parts(norm[0]) if norm is not None else set()))
    # A statement may share subtrees with its own template (normalising a
    # parsed statement keeps what has no literal), with nothing else.
    for i, (stmt, _template) in enumerate(served):
        for j, (other, template) in enumerate(served):
            if i != j:
                assert not stmt & other and not stmt & template


def test_a_known_skeleton_is_served_and_an_unservable_one_parsed(monkeypatch):
    calls = []
    real = facts.parse

    def counted(sql, tokens=None):
        calls.append(sql)
        return real(sql, tokens)

    monkeypatch.setattr(facts, "parse", counted)
    for k in range(4):  # parsed and learned, then served
        facts.parse_text(f"SELECT b FROM served_t WHERE a = {k + 1000}")
    assert len(calls) == 1
    for k in range(4):  # -5 is two tokens and one literal: always parsed
        facts.parse_text(f"SELECT b FROM served_t WHERE a = -{k + 1000}")
    for k in range(4):  # ORDER BY 1 stays verbatim: always parsed
        facts.parse_text(f"SELECT b FROM served_t ORDER BY {k % 2 + 1}")
    assert len(calls) == 9
