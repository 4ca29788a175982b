"""What a statement's AST alone determines, derived once per AST — and for
a text whose token skeleton is known, without parsing the text at all.

:class:`StatementFacts` holds, per statement object, its table set, its
*normalisation* — the template with every literal outside
:data:`_VERBATIM_FIELDS` replaced by a synthetic ``__cN`` parameter, the
statement's constants, and the template's fingerprint — and its identity
on the telemetry surfaces (that fingerprint and its short digest). A
planner hook keeps its own memos on the same object (see the slots).

:func:`parse_text` is the parser behind the engine's statement cache. A
text's *skeleton* is its token stream with every NUMBER and STRING value
masked (its type kept). The first text of a skeleton is parsed; when each
of its literal tokens became exactly one :class:`~.ast.Literal` with that
token's value and type, outside the verbatim fields, the skeleton learns a
generated builder. A later text of the skeleton then gets a *fresh* tree —
equal to what :func:`~.parser.parse` returns, sharing no node with any
other statement — together with its facts, which share the skeleton's
template, fingerprint and table set. A fresh tree per text, because
executors memoise per node identity (a scan shape, ILIKE needle included,
is keyed on its ``TableRef``). Every other skeleton is always parsed:
``-5`` (one literal made of two tokens), ``ORDER BY 1`` (a literal kept
verbatim), ``numeric(10, 2)`` (a number that is not a literal), a script of
several statements.
"""

from __future__ import annotations

import hashlib

from ..engine.lru import LRUCache
from ..errors import ReproError
from . import ast as A
from .lexer import NUMBER, STRING, Token, tokenize
from .parser import Parser, parse

#: Fields whose literal contents are planner-structural (positional group /
#: sort references) and therefore stay verbatim in template + fingerprint.
_VERBATIM_FIELDS = {"group_by", "order_by", "partition_by", "distinct_on"}

_UNSET = object()


def collect_table_names(stmt) -> set[str]:
    """Every table name appearing anywhere in the statement."""
    names = set()
    for node in A.walk(stmt):
        if isinstance(node, A.TableRef):
            names.add(node.name)
        elif isinstance(node, (A.Insert, A.Update, A.Delete, A.Copy)):
            names.add(node.table)
    return names


# ------------------------------------------------------- normalization

def _normalize_value(value, consts: dict):
    if isinstance(value, A.Literal):
        name = f"__c{len(consts)}"
        consts[name] = value.value
        return A.Param(name=name)
    if isinstance(value, A.Node):
        changed = False
        kwargs = {}
        for name, may_hold_nodes in A.node_fields(type(value)):
            old = kwargs[name] = getattr(value, name)
            if may_hold_nodes and name not in _VERBATIM_FIELDS:
                new = kwargs[name] = _normalize_value(old, consts)
                if new is not old:
                    changed = True
        return type(value)(**kwargs) if changed else value
    if isinstance(value, list):
        new = [_normalize_value(v, consts) for v in value]
        if any(a is not b for a, b in zip(new, value)):
            return new
        return value
    if isinstance(value, tuple):
        new = tuple(_normalize_value(v, consts) for v in value)
        if any(a is not b for a, b in zip(new, value)):
            return new
        return value
    return value


def _fingerprint(value, parts: list) -> None:
    """Serialize the normalized template into a stable shape key."""
    if value is None:
        parts.append("~")
    elif isinstance(value, A.Param):
        parts.append(f"$({value.index},{value.name})")
    elif isinstance(value, A.Node):
        parts.append(type(value).__name__)
        parts.append("(")
        for name, _ in A.node_fields(type(value)):
            _fingerprint(getattr(value, name), parts)
        parts.append(")")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for v in value:
            _fingerprint(v, parts)
        parts.append("]")
    else:
        parts.append(repr(value))


def _eligible(stmt) -> bool:
    if isinstance(stmt, (A.Select, A.Update, A.Delete)):
        return True
    if isinstance(stmt, A.Insert):
        # Only the fast-path insert has a shape; multi-row and positional
        # inserts evaluate their rows on the coordinator every time.
        return stmt.select is None and len(stmt.rows) == 1 and bool(stmt.columns)
    return False


def _normalize(stmt):
    """``(template, consts, fingerprint)``, or None when ineligible."""
    if not _eligible(stmt):
        return None
    consts: dict = {}
    template = _normalize_value(stmt, consts)
    parts: list = []
    _fingerprint(template, parts)
    return template, consts, "\x00".join(parts)


def _identity(stmt, norm) -> tuple[str, str]:
    if norm is None:
        shape = f"{type(stmt).__name__}:{getattr(stmt, 'table', '')}"
        return shape, shape
    # The template is NUL-separated and long; views show a digest.
    return norm[2], hashlib.md5(norm[2].encode()).hexdigest()[:16]


# ---------------------------------------------------------------- facts

class StatementFacts:
    """What is derived from one statement object, computed once per object
    instead of once per execution: the table set, the normalisation
    (:func:`statement_norm`) and the telemetry identity
    (:func:`statement_fingerprint`) from the AST alone; and the memos a
    planner hook keeps — the verdict that the statement mentions none of
    its tables, the tenant filter, the shard routes of a statement
    planned every time — each beside the metadata object it is valid for,
    which the hook replaces on every metadata change."""

    __slots__ = ("stmt", "tables", "norm", "fingerprint", "local_in",
                 "tenant_in", "tenant_filter", "routes_in", "routes")

    def __init__(self, stmt, tables=None, norm=_UNSET, fingerprint=None):
        self.stmt = stmt
        self.tables = (tuple(collect_table_names(stmt)) if tables is None
                       else tables)
        self.norm = norm  # filled by statement_norm
        self.fingerprint = fingerprint  # filled by statement_fingerprint
        self.local_in = None  # metadata holding none of ``tables``
        self.tenant_in = None  # metadata ``tenant_filter`` is valid for
        self.tenant_filter = None
        self.routes_in = None  # metadata ``routes`` are valid for
        self.routes = None


# Keyed by statement identity: the statement cache returns the same AST
# object for repeated SQL text, and cached distributed plans ship the same
# shard-statement objects. Each entry references its statement, so the
# id() cannot be recycled underneath it.
_FACTS = LRUCache(2048)


def statement_facts(stmt) -> StatementFacts:
    key = id(stmt)
    facts = _FACTS.get(key)
    if facts is None or facts.stmt is not stmt:
        facts = StatementFacts(stmt)
        _FACTS.put(key, facts)
    return facts


def statement_norm(facts: StatementFacts):
    """The statement's ``(template, consts, fingerprint)``, or None when it
    is not eligible for the plan cache."""
    if facts.norm is _UNSET:
        facts.norm = _normalize(facts.stmt)
    return facts.norm


def statement_fingerprint(facts: StatementFacts) -> tuple[str, str]:
    """The statement's identity on the telemetry surfaces, as ``(template,
    digest)``: the normalization template ``citus_stat_statements`` and the
    plan-search ring key on, and the short stable digest of it
    (pg_stat_statements' queryid, in spirit) that the activity view and ASH
    show. Plan-cache-ineligible shapes (multi-row INSERT, INSERT..SELECT,
    utility statements) are keyed by shape + table."""
    if facts.fingerprint is None:
        facts.fingerprint = _identity(facts.stmt, statement_norm(facts))
    return facts.fingerprint


# ------------------------------------------------------------ skeletons

class _NotServable(Exception):
    pass


#: A stand-in for the ``i``-th literal token, per value type: a value no
#: statement's text is likely to hold, so the probe parse shows where each
#: token's value lands.
_SENTINEL = {
    int: lambda i: -7_919_000_000_000_000 - i,
    float: lambda i: -7.919e15 - i,
    str: lambda i: f"\x00literal {i}\x00",
}

#: Skeleton -> its :class:`_Skeleton`, or :data:`_UNSERVED`.
_SKELETONS = LRUCache(8192)
_UNSERVED = object()


class _Skeleton:
    """A learned skeleton: ``build(values)`` makes ``(statement, consts)``
    for one text's literal values; the rest is shared by every text."""

    __slots__ = ("build", "tables", "template", "fingerprint")

    def __init__(self, build, tables, template, fingerprint):
        self.build, self.tables = build, tables
        self.template, self.fingerprint = template, fingerprint

    def serve(self, values: list) -> A.Statement:
        stmt, consts = self.build(values)
        template, fingerprint = self.template, self.fingerprint
        facts = StatementFacts(
            stmt, self.tables,
            None if template is None else (template, consts, fingerprint[0]),
            fingerprint)
        _FACTS.put(id(stmt), facts)
        return stmt


def parse_text(sql: str) -> list:
    """``parse(sql)``: served from the text's skeleton when it is known."""
    tokens = tokenize(sql)
    key, values = [], []
    for tok in tokens:
        kind = tok.kind
        if kind == NUMBER or kind == STRING:
            value = tok.value
            key.append(type(value))
            values.append(value)
        else:
            key += (kind, tok.value)
    key = tuple(key)
    skeleton = _SKELETONS.get(key)
    if skeleton is not None and skeleton is not _UNSERVED:
        return [skeleton.serve(values)]
    stmts = parse(sql, tokens)
    if skeleton is None:
        _SKELETONS.put(key, _learn(tokens, values, stmts))
    return stmts


def _learn(tokens: list, values: list, stmts: list):
    """The skeleton of ``tokens`` (whose parse is ``stmts``), or
    :data:`_UNSERVED` when it cannot be served."""
    if len(stmts) != 1:
        return _UNSERVED
    sentinels: dict = {}  # (type, sentinel) -> literal token number
    probe = []
    for tok in tokens:
        if tok.kind == NUMBER or tok.kind == STRING:
            value = _SENTINEL[type(tok.value)](len(sentinels))
            sentinels[(type(value), value)] = len(sentinels)
            tok = Token(tok.kind, value, tok.pos)
        probe.append(tok)
    try:
        (shape,) = Parser(probe).parse_statements()
        norm = _normalize(shape)
        build = _builder(shape, sentinels, None if norm is None else norm[1])
    except (ReproError, RecursionError, _NotServable):
        return _UNSERVED
    skeleton = _Skeleton(build, tuple(collect_table_names(shape)),
                         None if norm is None else norm[0],
                         _identity(shape, norm))
    # The first text checks the builder against its own parse.
    stmt, consts = build(values)
    if stmt != stmts[0] or (norm is not None and _normalize(stmts[0])[1:]
                            != (consts, skeleton.fingerprint[0])):
        return _UNSERVED
    return skeleton


def _builder(shape, sentinels: dict, consts: dict | None):
    """``build(v)``: a fresh copy of ``shape`` whose ``i``-th sentinel
    literal holds ``v[i]``, and its normalisation's ``consts`` (None when
    it has none) with each sentinel's value from ``v`` in the same way."""
    found = []
    env: dict = {"Literal": A.Literal}
    names: dict = {}  # id of a class -> its name in ``env``

    def bind(value) -> str:
        name = names.get(id(value))
        if name is None:
            name = names[id(value)] = f"k{len(env)}"
            env[name] = value
        return name

    def constant(value) -> str:
        """A scalar the source may hold, or :class:`_NotServable`."""
        if value is None or type(value) in (bool, int, str):
            return repr(value)
        if type(value) is not float:
            raise _NotServable  # a mutable or unknown value
        name = f"k{len(env)}"
        env[name] = value
        return name

    def emit(value, verbatim: bool) -> str:
        kind = type(value)
        if kind is A.Literal:
            i = sentinels.get((type(value.value), value.value))
            if i is not None:
                if verbatim:
                    raise _NotServable
                found.append(i)
                return f"Literal(v[{i}])"
        if isinstance(value, A.Node):
            args = [emit(getattr(value, name),
                         verbatim or name in _VERBATIM_FIELDS)
                    for name, _ in A.node_fields(kind)]
            return f"{bind(kind)}({', '.join(args)})"
        if kind is list:
            return f"[{', '.join(emit(item, verbatim) for item in value)}]"
        if kind is tuple:
            return f"({''.join(emit(item, verbatim) + ', ' for item in value)})"
        return constant(value)

    source = emit(shape, False)
    if sorted(found) != list(range(len(sentinels))):
        raise _NotServable  # a token's value is not one literal
    if consts is not None:
        pairs = []
        for name, value in consts.items():
            i = sentinels.get((type(value), value))
            pairs.append(f"{name!r}: {f'v[{i}]' if i is not None else constant(value)}")
        consts = f"{{{', '.join(pairs)}}}"
    try:
        exec(f"def build(v):\n return {source}, {consts}\n", env)  # noqa: S102
    except (SyntaxError, RecursionError, MemoryError):
        raise _NotServable from None  # a tree too deep for one expression
    return env["build"]
