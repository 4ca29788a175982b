"""Recursive-descent SQL parser producing :mod:`repro.sql.ast` trees.

The accepted dialect is the PostgreSQL subset the paper's workloads use —
TPC-C/TPC-H/YCSB/pgbench-style queries, jsonb path operators, DDL, COPY,
two-phase-commit transaction control, and the ``SELECT udf(...)`` idiom
through which Citus exposes ``create_distributed_table`` and friends.
"""

from __future__ import annotations

from ..errors import SyntaxErrorSQL
from . import ast as A
from .lexer import EOF, NUMBER, OP, PARAM, STRING, WORD, Token, tokenize

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_JSON_OPS = {"->", "->>", "#>", "#>>", "@>", "<@"}
_ADDITIVE_OPS = {"+", "-", "||"} | _JSON_OPS
_TYPED_LITERAL_TYPES = {"date", "timestamp", "timestamptz", "numeric", "jsonb", "uuid", "text"}

# Words that terminate an expression/target list when seen as a bare keyword.
_RESERVED_STOP = {
    "from", "where", "group", "having", "order", "limit", "offset", "union",
    "intersect", "except", "on", "using", "join", "inner", "left", "right",
    "full", "cross", "as", "asc", "desc", "nulls", "and", "or", "not", "when",
    "then", "else", "end", "returning", "set", "values", "for", "into",
}


def parse(sql: str, tokens: list[Token] | None = None) -> list[A.Statement]:
    """Parse a semicolon-separated SQL script into a list of statements
    (``tokens``: the text's, when the caller has already made them)."""
    return Parser(tokenize(sql) if tokens is None else tokens).parse_statements()


def parse_one(sql: str) -> A.Statement:
    """Parse exactly one statement (trailing semicolon allowed)."""
    stmts = parse(sql)
    if len(stmts) != 1:
        raise SyntaxErrorSQL(f"expected a single statement, got {len(stmts)}")
    return stmts[0]


def parse_expression(text: str) -> A.Expr:
    """Parse a standalone scalar expression (used by custom rebalancer
    policies and index expressions supplied through the API)."""
    parser = Parser(tokenize(text))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # ---------------------------------------------------------------- utils

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == WORD and tok.value in words

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == OP and tok.value in ops

    def accept_word(self, *words: str) -> bool:
        if self.at_word(*words):
            self.next()
            return True
        return False

    def accept_op(self, *ops: str) -> bool:
        if self.at_op(*ops):
            self.next()
            return True
        return False

    def expect_word(self, word: str) -> None:
        if not self.accept_word(word):
            raise SyntaxErrorSQL(f"expected {word.upper()!r}, got {self.peek()!r}")

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise SyntaxErrorSQL(f"expected {op!r}, got {self.peek()!r}")

    def expect_name(self) -> str:
        tok = self.next()
        if tok.kind != WORD:
            raise SyntaxErrorSQL(f"expected identifier, got {tok!r}")
        return tok.value

    def expect_eof(self) -> None:
        if self.peek().kind != EOF:
            raise SyntaxErrorSQL(f"unexpected trailing input: {self.peek()!r}")

    # ----------------------------------------------------------- statements

    def parse_statements(self) -> list[A.Statement]:
        stmts = []
        while self.peek().kind != EOF:
            if self.accept_op(";"):
                continue
            stmts.append(self.parse_statement())
            if self.peek().kind != EOF:
                self.expect_op(";")
        return stmts

    def parse_statement(self) -> A.Statement:
        tok = self.peek()
        if tok.kind != WORD and not self.at_op("("):
            raise SyntaxErrorSQL(f"unexpected token {tok!r}")
        word = tok.value if tok.kind == WORD else "("
        if word in ("select", "with", "("):
            return self.parse_select()
        handler = {
            "insert": self.parse_insert,
            "update": self.parse_update,
            "delete": self.parse_delete,
            "create": self.parse_create,
            "drop": self.parse_drop,
            "alter": self.parse_alter,
            "truncate": self.parse_truncate,
            "begin": self.parse_begin,
            "start": self.parse_begin,
            "commit": self.parse_commit,
            "end": self.parse_commit,
            "rollback": self.parse_rollback,
            "abort": self.parse_rollback,
            "prepare": self.parse_prepare_transaction,
            "copy": self.parse_copy,
            "vacuum": self.parse_vacuum,
            "explain": self.parse_explain,
            "set": self.parse_set,
            "show": self.parse_show,
            "call": self.parse_call,
        }.get(word)
        if handler is None:
            raise SyntaxErrorSQL(f"unsupported statement starting with {word.upper()!r}")
        return handler()

    # ----------------------------------------------------------- SELECT

    def parse_select(self) -> A.Select:
        ctes = []
        if self.accept_word("with"):
            self.accept_word("recursive")
            while True:
                name = self.expect_name()
                col_names = []
                if self.accept_op("("):
                    col_names = self._parse_name_list()
                    self.expect_op(")")
                self.expect_word("as")
                self.expect_op("(")
                query = self.parse_select()
                self.expect_op(")")
                ctes.append(A.CommonTableExpr(name, query, col_names))
                if not self.accept_op(","):
                    break
        select = self._parse_select_core()
        if self.at_word("union", "intersect", "except", "order", "limit",
                        "offset") and (select.order_by or select.ctes
                                       or select.limit is not None
                                       or select.offset is not None):
            # A parenthesised SELECT keeps its own ORDER BY / LIMIT: the
            # ones after it (or after a set operation's last arm) are not.
            select = _subquery(select)
        grouped = len(select.set_ops)  # a parenthesised first arm's own
        while self.at_word("union", "intersect", "except"):
            op = self.next().value
            if self.accept_word("all"):
                op += " all"
            else:
                self.accept_word("distinct")
            rhs = self._parse_select_core()
            if op.startswith("intersect") and _compound(select):
                # INTERSECT binds tighter than UNION / EXCEPT: it takes the
                # arm before it, parsed here, as one nested arm; a
                # parenthesised set operation before it stays whole.
                if len(select.set_ops) == grouped:
                    select, grouped = _subquery(select), 0
                else:
                    prev_op, prev = select.set_ops[-1]
                    if _compound(prev) or prev.order_by or prev.ctes \
                            or prev.limit is not None or prev.offset is not None:
                        prev = _subquery(prev)
                    prev.set_ops.append((op, rhs))
                    select.set_ops[-1] = (prev_op, prev)
                    continue
            select.set_ops.append((op, rhs))
        select.ctes = ctes
        if self.accept_word("order"):
            self.expect_word("by")
            select.order_by = self._parse_sort_list()
        while self.at_word("limit", "offset"):  # in either order
            if self.next().value == "offset":
                select.offset = self.parse_expr()
            elif not self.accept_word("all"):
                select.limit = self.parse_expr()
        if self.accept_word("for"):
            self.expect_word("update")
            select.for_update = True
        return select

    def _parse_select_core(self) -> A.Select:
        if self.accept_op("("):
            inner = self.parse_select()
            self.expect_op(")")
            return inner
        self.expect_word("select")
        select = A.Select()
        if self.accept_word("distinct"):
            select.distinct = True
            if self.accept_word("on"):
                self.expect_op("(")
                select.distinct_on = self._parse_expr_list()
                self.expect_op(")")
        self.accept_word("all")
        select.targets = self._parse_target_list()
        if self.accept_word("from"):
            select.from_items = self._parse_from_list()
        if self.accept_word("where"):
            select.where = self.parse_expr()
        if self.accept_word("group"):
            self.expect_word("by")
            select.group_by = self._parse_expr_list()
        if self.accept_word("having"):
            select.having = self.parse_expr()
        return select

    def _parse_target_list(self) -> list:
        targets = []
        while True:
            if self.at_op("*"):
                self.next()
                targets.append(A.TargetEntry(A.Star()))
            else:
                expr = self.parse_expr()
                alias = None
                if self.accept_word("as"):
                    alias = self.expect_name()
                elif self.peek().kind == WORD and self.peek().value not in _RESERVED_STOP:
                    alias = self.next().value
                if isinstance(expr, A.ColumnRef) and expr.name == "*":
                    targets.append(A.TargetEntry(A.Star(table=expr.table)))
                else:
                    targets.append(A.TargetEntry(expr, alias))
            if not self.accept_op(","):
                return targets

    def _parse_sort_list(self) -> list:
        keys = []
        while True:
            expr = self.parse_expr()
            ascending = True
            if self.accept_word("asc"):
                pass
            elif self.accept_word("desc"):
                ascending = False
            nulls_first = None
            if self.accept_word("nulls"):
                if self.accept_word("first"):
                    nulls_first = True
                else:
                    self.expect_word("last")
                    nulls_first = False
            keys.append(A.SortKey(expr, ascending, nulls_first))
            if not self.accept_op(","):
                return keys

    # ----------------------------------------------------------- FROM

    def _parse_from_list(self) -> list:
        items = [self._parse_join_tree()]
        while self.accept_op(","):
            items.append(self._parse_join_tree())
        return items

    def _parse_join_tree(self) -> A.FromItem:
        left = self._parse_from_primary()
        while True:
            join_type = None
            if self.accept_word("join") or self.accept_word("inner"):
                if self.peek(-1).value == "inner":
                    self.expect_word("join")
                join_type = "inner"
            elif self.at_word("left", "right", "full"):
                join_type = self.next().value
                self.accept_word("outer")
                self.expect_word("join")
            elif self.accept_word("cross"):
                self.expect_word("join")
                join_type = "cross"
            if join_type is None:
                return left
            right = self._parse_from_primary()
            condition, using = None, []
            if join_type != "cross":
                if self.accept_word("on"):
                    condition = self.parse_expr()
                elif self.accept_word("using"):
                    self.expect_op("(")
                    using = self._parse_name_list()
                    self.expect_op(")")
            left = A.JoinExpr(left, right, join_type, condition, using)

    def _parse_from_primary(self) -> A.FromItem:
        if self.accept_op("("):
            # Either a subquery or a parenthesized join tree.
            if self.at_word("select", "with"):
                query = self.parse_select()
                self.expect_op(")")
                self.accept_word("as")
                alias = self.expect_name()
                if self.accept_op("("):
                    # column alias list — record as renames via query targets
                    names = self._parse_name_list()
                    self.expect_op(")")
                    _apply_column_aliases(query, names)
                return A.SubqueryRef(query, alias)
            tree = self._parse_join_tree()
            self.expect_op(")")
            return tree
        name = self.expect_name()
        if self.at_op("("):
            # set-returning function in FROM
            self.pos -= 1
            func = self.parse_expr()
            alias = name
            col_names = []
            if self.accept_word("as"):
                alias = self.expect_name()
            elif self.peek().kind == WORD and self.peek().value not in _RESERVED_STOP:
                alias = self.next().value
            if self.accept_op("("):
                col_names = self._parse_name_list()
                self.expect_op(")")
            if not isinstance(func, A.FuncCall):
                raise SyntaxErrorSQL("expected function call in FROM")
            return A.FunctionRef(func, alias, col_names)
        alias = None
        if self.accept_word("as"):
            alias = self.expect_name()
        elif self.peek().kind == WORD and self.peek().value not in _RESERVED_STOP:
            alias = self.next().value
        return A.TableRef(name, alias)

    def _parse_name_list(self) -> list[str]:
        names = [self.expect_name()]
        while self.accept_op(","):
            names.append(self.expect_name())
        return names

    def _parse_expr_list(self) -> list[A.Expr]:
        exprs = [self.parse_expr()]
        while self.accept_op(","):
            exprs.append(self.parse_expr())
        return exprs

    # ----------------------------------------------------------- DML

    def parse_insert(self) -> A.Insert:
        self.expect_word("insert")
        self.expect_word("into")
        table = self._parse_qualified_name()
        columns = []
        if self.at_op("(") and not self._paren_starts_select():
            self.expect_op("(")
            columns = self._parse_name_list()
            self.expect_op(")")
        stmt = A.Insert(table, columns)
        if self.accept_word("values"):
            while True:
                self.expect_op("(")
                stmt.rows.append(self._parse_expr_list())
                self.expect_op(")")
                if not self.accept_op(","):
                    break
        elif self.at_word("select", "with") or self.at_op("("):
            stmt.select = self.parse_select()
        else:
            self.expect_word("default")
            self.expect_word("values")
        if self.accept_word("on"):
            self.expect_word("conflict")
            conflict = A.OnConflict()
            if self.accept_op("("):
                conflict.columns = self._parse_name_list()
                self.expect_op(")")
            self.expect_word("do")
            if self.accept_word("nothing"):
                conflict.action = "nothing"
            else:
                self.expect_word("update")
                self.expect_word("set")
                conflict.action = "update"
                conflict.updates = self._parse_assignment_list()
            stmt.on_conflict = conflict
        if self.accept_word("returning"):
            stmt.returning = self._parse_target_list()
        return stmt

    def _paren_starts_select(self) -> bool:
        return self.at_op("(") and self.peek(1).kind == WORD and self.peek(1).value in (
            "select",
            "with",
        )

    def _parse_assignment_list(self) -> list:
        assignments = []
        while True:
            col = self.expect_name()
            self.expect_op("=")
            assignments.append((col, self.parse_expr()))
            if not self.accept_op(","):
                return assignments

    def parse_update(self) -> A.Update:
        self.expect_word("update")
        table = self._parse_qualified_name()
        alias = None
        if self.accept_word("as"):
            alias = self.expect_name()
        elif self.peek().kind == WORD and self.peek().value != "set":
            alias = self.next().value
        self.expect_word("set")
        stmt = A.Update(table, alias, self._parse_assignment_list())
        if self.accept_word("where"):
            stmt.where = self.parse_expr()
        if self.accept_word("returning"):
            stmt.returning = self._parse_target_list()
        return stmt

    def parse_delete(self) -> A.Delete:
        self.expect_word("delete")
        self.expect_word("from")
        table = self._parse_qualified_name()
        alias = None
        if self.accept_word("as"):
            alias = self.expect_name()
        elif self.peek().kind == WORD and self.peek().value not in _RESERVED_STOP:
            alias = self.next().value
        stmt = A.Delete(table, alias)
        if self.accept_word("where"):
            stmt.where = self.parse_expr()
        if self.accept_word("returning"):
            stmt.returning = self._parse_target_list()
        return stmt

    def _parse_qualified_name(self) -> str:
        name = self.expect_name()
        while self.accept_op("."):
            name = name + "." + self.expect_name()
        return name

    # ----------------------------------------------------------- DDL

    def parse_create(self) -> A.Statement:
        self.expect_word("create")
        if self.accept_word("unique"):
            self.expect_word("index")
            return self._parse_create_index(unique=True)
        if self.accept_word("index"):
            return self._parse_create_index(unique=False)
        self.accept_word("temporary")
        self.accept_word("temp")
        self.expect_word("table")
        if_not_exists = False
        if self.accept_word("if"):
            self.expect_word("not")
            self.expect_word("exists")
            if_not_exists = True
        name = self._parse_qualified_name()
        stmt = A.CreateTable(name, if_not_exists=if_not_exists)
        self.expect_op("(")
        while True:
            if self.at_word("primary"):
                self.next()
                self.expect_word("key")
                self.expect_op("(")
                stmt.primary_key = self._parse_name_list()
                self.expect_op(")")
            elif self.at_word("unique") and self.peek(1).kind == OP:
                self.next()
                self.expect_op("(")
                stmt.unique_constraints.append(self._parse_name_list())
                self.expect_op(")")
            elif self.at_word("foreign"):
                self.next()
                self.expect_word("key")
                stmt.foreign_keys.append(self._parse_fk_body())
            elif self.at_word("constraint"):
                self.next()
                cname = self.expect_name()
                if self.accept_word("primary"):
                    self.expect_word("key")
                    self.expect_op("(")
                    stmt.primary_key = self._parse_name_list()
                    self.expect_op(")")
                elif self.accept_word("unique"):
                    self.expect_op("(")
                    stmt.unique_constraints.append(self._parse_name_list())
                    self.expect_op(")")
                else:
                    self.expect_word("foreign")
                    self.expect_word("key")
                    fk = self._parse_fk_body()
                    fk.name = cname
                    stmt.foreign_keys.append(fk)
            else:
                stmt.columns.append(self._parse_column_def())
            if not self.accept_op(","):
                break
        self.expect_op(")")
        if self.accept_word("using"):
            stmt.using = self.expect_name()
        return stmt

    def _parse_fk_body(self) -> A.ForeignKeyDef:
        self.expect_op("(")
        columns = self._parse_name_list()
        self.expect_op(")")
        self.expect_word("references")
        ref_table = self._parse_qualified_name()
        ref_columns = []
        if self.accept_op("("):
            ref_columns = self._parse_name_list()
            self.expect_op(")")
        # ON DELETE / ON UPDATE actions are accepted and ignored.
        while self.accept_word("on"):
            self.next()  # delete | update
            self.next()  # cascade | restrict | set (null/default handled below)
            self.accept_word("null")
            self.accept_word("default")
        return A.ForeignKeyDef(columns, ref_table, ref_columns)

    def _parse_column_def(self) -> A.ColumnDef:
        name = self.expect_name()
        type_name = self._parse_type_name()
        col = A.ColumnDef(name, type_name)
        while True:
            if self.accept_word("not"):
                self.expect_word("null")
                col.not_null = True
            elif self.accept_word("null"):
                pass
            elif self.accept_word("primary"):
                self.expect_word("key")
                col.primary_key = True
            elif self.accept_word("unique"):
                col.unique = True
            elif self.accept_word("default"):
                col.default = self.parse_expr()
            elif self.accept_word("references"):
                ref_table = self._parse_qualified_name()
                ref_col = None
                if self.accept_op("("):
                    ref_col = self.expect_name()
                    self.expect_op(")")
                col.references = (ref_table, ref_col)
                while self.accept_word("on"):
                    self.next()
                    self.next()
                    self.accept_word("null")
                    self.accept_word("default")
            elif self.accept_word("collate"):
                self.next()
            elif self.accept_word("check"):
                self.expect_op("(")
                depth = 1
                while depth:
                    tok = self.next()
                    if tok.kind == OP and tok.value == "(":
                        depth += 1
                    elif tok.kind == OP and tok.value == ")":
                        depth -= 1
            else:
                return col

    def _parse_type_name(self) -> str:
        parts = [self.expect_name()]
        # multi-word types: double precision, timestamp with time zone, ...
        while self.at_word("precision", "varying", "with", "without", "time", "zone"):
            parts.append(self.next().value)
        name = " ".join(parts)
        if self.accept_op("("):
            while not self.accept_op(")"):
                self.next()
        while self.at_op("["):
            self.next()
            self.expect_op("]")
            name += "[]"
        return name

    def _parse_create_index(self, unique: bool) -> A.CreateIndex:
        if_not_exists = False
        if self.accept_word("if"):
            self.expect_word("not")
            self.expect_word("exists")
            if_not_exists = True
        name = None
        if not self.at_word("on"):
            name = self.expect_name()
        self.expect_word("on")
        table = self._parse_qualified_name()
        using = "btree"
        if self.accept_word("using"):
            using = self.expect_name()
        self.expect_op("(")
        exprs = []
        while True:
            if self.accept_op("("):
                expr = self.parse_expr()
                self.expect_op(")")
            else:
                expr = self.parse_expr()
            # opclass name (e.g. gin_trgm_ops) and sort direction are skipped
            while self.peek().kind == WORD and self.peek().value not in ("asc", "desc"):
                if self.peek(1).kind == OP and self.peek(1).value in (",", ")"):
                    self.next()
                else:
                    break
            self.accept_word("asc") or self.accept_word("desc")
            exprs.append(expr)
            if not self.accept_op(","):
                break
        self.expect_op(")")
        # partial index WHERE clause accepted (stored? keep simple: ignore)
        if self.accept_word("where"):
            self.parse_expr()
        if name is None:
            name = f"{table}_idx_{id(exprs) % 10_000}"
        return A.CreateIndex(name, table, exprs, unique, using, if_not_exists)

    def parse_drop(self) -> A.Statement:
        self.expect_word("drop")
        if self.accept_word("index"):
            if_exists = False
            if self.accept_word("if"):
                self.expect_word("exists")
                if_exists = True
            return A.DropIndex(self.expect_name(), if_exists)
        self.expect_word("table")
        if_exists = False
        if self.accept_word("if"):
            self.expect_word("exists")
            if_exists = True
        names = [self._parse_qualified_name()]
        while self.accept_op(","):
            names.append(self._parse_qualified_name())
        cascade = self.accept_word("cascade")
        self.accept_word("restrict")
        return A.DropTable(names, if_exists, cascade)

    def parse_alter(self) -> A.AlterTable:
        self.expect_word("alter")
        self.expect_word("table")
        self.accept_word("only")
        table = self._parse_qualified_name()
        if self.accept_word("add"):
            if self.accept_word("column"):
                return A.AlterTable(table, "add_column", column=self._parse_column_def())
            if self.accept_word("constraint"):
                cname = self.expect_name()
                self.expect_word("foreign")
                self.expect_word("key")
                fk = self._parse_fk_body()
                fk.name = cname
                return A.AlterTable(table, "add_foreign_key", foreign_key=fk)
            if self.accept_word("foreign"):
                self.expect_word("key")
                return A.AlterTable(table, "add_foreign_key", foreign_key=self._parse_fk_body())
            return A.AlterTable(table, "add_column", column=self._parse_column_def())
        if self.accept_word("drop"):
            self.accept_word("column")
            return A.AlterTable(table, "drop_column", column_name=self.expect_name())
        raise SyntaxErrorSQL("unsupported ALTER TABLE action")

    def parse_truncate(self) -> A.TruncateTable:
        self.expect_word("truncate")
        self.accept_word("table")
        names = [self._parse_qualified_name()]
        while self.accept_op(","):
            names.append(self._parse_qualified_name())
        return A.TruncateTable(names)

    # ------------------------------------------------- transaction control

    def parse_begin(self) -> A.Begin:
        self.next()  # begin | start
        self.accept_word("transaction") or self.accept_word("work")
        while self.at_word("isolation", "read"):
            # ISOLATION LEVEL ... / READ ONLY|WRITE accepted and ignored
            self.next()
            while self.peek().kind == WORD and not self.at_op(";"):
                if self.at_word("isolation", "read"):
                    break
                self.next()
        return A.Begin()

    def parse_commit(self) -> A.Statement:
        self.next()
        self.accept_word("transaction") or self.accept_word("work")
        if self.accept_word("prepared"):
            return A.CommitPrepared(self._gid())
        return A.Commit()

    def parse_rollback(self) -> A.Statement:
        self.next()
        self.accept_word("transaction") or self.accept_word("work")
        if self.accept_word("prepared"):
            return A.RollbackPrepared(self._gid())
        return A.Rollback()

    def parse_prepare_transaction(self) -> A.PrepareTransaction:
        self.expect_word("prepare")
        self.expect_word("transaction")
        return A.PrepareTransaction(self._gid())

    def _gid(self) -> str:
        tok = self.next()
        if tok.kind != STRING:
            raise SyntaxErrorSQL("expected transaction gid string")
        return tok.value

    # ------------------------------------------------------------ utility

    def parse_copy(self) -> A.Copy:
        self.expect_word("copy")
        table = self._parse_qualified_name()
        columns = []
        if self.accept_op("("):
            columns = self._parse_name_list()
            self.expect_op(")")
        direction = "from" if self.accept_word("from") else ("to" if self.accept_word("to") else None)
        if direction is None:
            raise SyntaxErrorSQL("expected FROM or TO in COPY")
        # source/target: STDIN | STDOUT | 'filename'
        if not (self.accept_word("stdin") or self.accept_word("stdout")):
            if self.peek().kind == STRING:
                self.next()
        options = {}
        if self.accept_word("with"):
            if self.accept_op("("):
                while not self.accept_op(")"):
                    key = self.expect_name()
                    if self.peek().kind in (WORD, STRING, NUMBER):
                        options[key] = self.next().value
                    else:
                        options[key] = True
                    self.accept_op(",")
            else:
                while self.peek().kind == WORD:
                    options[self.next().value] = True
        elif self.at_word("csv", "format"):
            options[self.next().value] = True
        return A.Copy(table, columns, direction, options)

    def parse_vacuum(self) -> A.Vacuum:
        self.expect_word("vacuum")
        full = self.accept_word("full")
        analyze = self.accept_word("analyze")
        table = None
        if self.peek().kind == WORD:
            table = self._parse_qualified_name()
        return A.Vacuum(table, full, analyze)

    def parse_explain(self) -> A.Explain:
        self.expect_word("explain")
        analyze = self.accept_word("analyze")
        self.accept_word("verbose")
        return A.Explain(self.parse_statement(), analyze)

    def parse_set(self) -> A.SetVar:
        self.expect_word("set")
        is_local = self.accept_word("local")
        self.accept_word("session")
        name = self._parse_qualified_name()
        if not (self.accept_word("to") or self.accept_op("=")):
            raise SyntaxErrorSQL("expected TO or = in SET")
        tok = self.next()
        value = tok.value
        if tok.kind == WORD:
            value = {"true": True, "false": False, "on": True, "off": False}.get(value, value)
        return A.SetVar(name, value, is_local)

    def parse_show(self) -> A.ShowVar:
        self.expect_word("show")
        return A.ShowVar(self._parse_qualified_name())

    def parse_call(self) -> A.CallProcedure:
        self.expect_word("call")
        name = self._parse_qualified_name()
        self.expect_op("(")
        args = []
        if not self.at_op(")"):
            args = self._parse_expr_list()
        self.expect_op(")")
        return A.CallProcedure(name, args)

    # --------------------------------------------------------- expressions

    def parse_expr(self) -> A.Expr:
        return self._parse_or()

    def _parse_or(self) -> A.Expr:
        left = self._parse_and()
        while self.accept_word("or"):
            left = A.BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> A.Expr:
        left = self._parse_not()
        while self.accept_word("and"):
            left = A.BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> A.Expr:
        if self.accept_word("not"):
            return A.UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> A.Expr:
        left = self._parse_additive_chain()
        while True:
            if self.peek().kind == OP and self.peek().value in _COMPARISON_OPS:
                op = self.next().value
                if op == "!=":
                    op = "<>"
                if self.at_word("any", "all") and self.peek(1).kind == OP:
                    kind = self.next().value
                    self.expect_op("(")
                    if self.at_word("select", "with"):
                        sub = self.parse_select()
                        self.expect_op(")")
                        left = A.SubqueryExpr(sub, kind, left, op)
                    else:
                        arr = self.parse_expr()
                        self.expect_op(")")
                        left = A.FuncCall("_any_all", [left, A.Literal(op), A.Literal(kind), arr])
                    continue
                left = A.BinaryOp(op, left, self._parse_additive_chain())
                continue
            if self.at_word("is"):
                self.next()
                negated = self.accept_word("not")
                if self.accept_word("null"):
                    left = A.IsNull(left, negated)
                elif self.accept_word("distinct"):
                    self.expect_word("from")
                    right = self._parse_additive_chain()
                    not_distinct = A.FuncCall("_not_distinct", [left, right])
                    left = not_distinct if negated else A.UnaryOp("not", not_distinct)
                else:
                    val = self.next().value  # true | false
                    test = A.BinaryOp("is", left, A.Literal(val == "true"))
                    left = A.UnaryOp("not", test) if negated else test
                continue
            negated = False
            save = self.pos
            if self.accept_word("not"):
                negated = True
            if self.accept_word("between"):
                low = self._parse_additive_chain()
                self.expect_word("and")
                high = self._parse_additive_chain()
                left = A.BetweenExpr(left, low, high, negated)
                continue
            if self.accept_word("in"):
                self.expect_op("(")
                if self.at_word("select", "with"):
                    sub = self.parse_select()
                    self.expect_op(")")
                    left = A.SubqueryExpr(sub, "in", left, negated=negated)
                else:
                    items = self._parse_expr_list()
                    self.expect_op(")")
                    left = A.InList(left, items, negated)
                continue
            if self.at_word("like", "ilike"):
                op = self.next().value
                right = self._parse_additive_chain()
                node = A.BinaryOp(op, left, right)
                left = A.UnaryOp("not", node) if negated else node
                continue
            if negated:
                self.pos = save
                return left
            if self.peek().kind == OP and self.peek().value in ("~", "~*", "!~"):
                op = self.next().value
                left = A.BinaryOp(op, left, self._parse_additive_chain())
                continue
            return left

    def _parse_additive_chain(self) -> A.Expr:
        left = self._parse_multiplicative()
        while True:
            if self.peek().kind == OP and self.peek().value in _ADDITIVE_OPS:
                op = self.next().value
                left = A.BinaryOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> A.Expr:
        left = self._parse_unary()
        while self.peek().kind == OP and self.peek().value in ("*", "/", "%"):
            op = self.next().value
            left = A.BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> A.Expr:
        if self.accept_op("-"):
            operand = self._parse_unary()
            if isinstance(operand, A.Literal) and isinstance(operand.value, (int, float)):
                return A.Literal(-operand.value)
            return A.UnaryOp("-", operand)
        if self.accept_op("+"):
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            if self.accept_op("::"):
                expr = A.Cast(expr, self._parse_type_name())
            elif self.at_op("["):
                self.next()
                index = self.parse_expr()
                self.expect_op("]")
                expr = A.FuncCall("_subscript", [expr, index])
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self.peek()
        if tok.kind == NUMBER:
            self.next()
            return A.Literal(tok.value)
        if tok.kind == STRING:
            self.next()
            return A.Literal(tok.value)
        if tok.kind == PARAM:
            self.next()
            if isinstance(tok.value, int):
                return A.Param(index=tok.value)
            return A.Param(name=tok.value)
        if tok.kind == OP and tok.value == "(":
            self.next()
            if self.at_word("select", "with"):
                sub = self.parse_select()
                self.expect_op(")")
                return A.SubqueryExpr(sub, "scalar")
            expr = self.parse_expr()
            if self.accept_op(","):
                # Row constructor — represent as array expression.
                elements = [expr] + self._parse_expr_list()
                self.expect_op(")")
                return A.ArrayExpr(elements)
            self.expect_op(")")
            return expr
        if tok.kind != WORD:
            raise SyntaxErrorSQL(f"unexpected token {tok!r} in expression")
        word = tok.value
        if word == "null":
            self.next()
            return A.Literal(None)
        if word == "true":
            self.next()
            return A.Literal(True)
        if word == "false":
            self.next()
            return A.Literal(False)
        if word == "case":
            return self._parse_case()
        if word == "exists":
            self.next()
            self.expect_op("(")
            sub = self.parse_select()
            self.expect_op(")")
            return A.SubqueryExpr(sub, "exists")
        if word == "array":
            self.next()
            if self.accept_op("["):
                elements = [] if self.at_op("]") else self._parse_expr_list()
                self.expect_op("]")
                return A.ArrayExpr(elements)
            self.expect_op("(")
            sub = self.parse_select()
            self.expect_op(")")
            return A.SubqueryExpr(sub, "array")
        if word == "interval":
            self.next()
            val = self.next()
            return A.FuncCall("interval", [A.Literal(val.value)])
        if word in ("cast",):
            self.next()
            self.expect_op("(")
            operand = self.parse_expr()
            self.expect_word("as")
            type_name = self._parse_type_name()
            self.expect_op(")")
            return A.Cast(operand, type_name)
        if word == "extract":
            self.next()
            self.expect_op("(")
            if self.peek().kind == STRING:
                fld = self.next().value
            else:
                fld = self.expect_name()
            self.expect_word("from")
            src = self.parse_expr()
            self.expect_op(")")
            return A.FuncCall("extract", [A.Literal(fld), src])
        if word in ("current_date", "current_timestamp", "now", "current_time", "localtimestamp"):
            self.next()
            if self.accept_op("("):
                self.expect_op(")")
            return A.FuncCall("now" if word != "current_date" else "current_date", [])
        if word in _TYPED_LITERAL_TYPES and self.peek(1).kind == STRING:
            # typed literal: date '1998-12-01', timestamp '...', etc.
            self.next()
            value = self.next().value
            return A.Cast(A.Literal(value), word)
        # identifier: column ref, qualified ref, or function call
        name = self.expect_name()
        if self.at_op("("):
            return self._parse_func_call(name)
        if self.accept_op("."):
            if self.at_op("*"):
                self.next()
                return A.ColumnRef("*", table=name)
            col = self.expect_name()
            if self.at_op("("):
                return self._parse_func_call(f"{name}.{col}")
            return A.ColumnRef(col, table=name)
        return A.ColumnRef(name)

    def _parse_func_call(self, name: str) -> A.Expr:
        self.expect_op("(")
        func = A.FuncCall(name)
        if self.at_op("*"):
            self.next()
            func.args.append(A.Star())
        elif not self.at_op(")"):
            if self.accept_word("distinct"):
                func.distinct = True
            func.args.append(self._parse_func_arg())
            while self.accept_op(","):
                func.args.append(self._parse_func_arg())
            if self.accept_word("order"):
                self.expect_word("by")
                func.order_by = self._parse_sort_list()
        self.expect_op(")")
        if self.accept_word("filter"):
            self.expect_op("(")
            self.expect_word("where")
            func.filter = self.parse_expr()
            self.expect_op(")")
        if self.accept_word("over"):
            self.expect_op("(")
            window = A.WindowDef()
            if self.accept_word("partition"):
                self.expect_word("by")
                window.partition_by = self._parse_expr_list()
            if self.accept_word("order"):
                self.expect_word("by")
                window.order_by = self._parse_sort_list()
            self.expect_op(")")
            func.over = window
        return func

    def _parse_func_arg(self) -> A.Expr:
        # named argument: name := value  (Citus UDF convention)
        if (
            self.peek().kind == WORD
            and self.peek(1).kind == OP
            and self.peek(1).value == ":="
        ):
            name = self.expect_name()
            self.expect_op(":=")
            value = self.parse_expr()
            return A.FuncCall("_named_arg", [A.Literal(name), value])
        return self.parse_expr()

    def _parse_case(self) -> A.CaseExpr:
        self.expect_word("case")
        case = A.CaseExpr()
        if not self.at_word("when"):
            case.operand = self.parse_expr()
        while self.accept_word("when"):
            cond = self.parse_expr()
            self.expect_word("then")
            case.whens.append((cond, self.parse_expr()))
        if self.accept_word("else"):
            case.else_result = self.parse_expr()
        self.expect_word("end")
        return case


def _apply_column_aliases(query: A.Select, names: list[str]) -> None:
    for i, name in enumerate(names):
        if i < len(query.targets) and isinstance(query.targets[i], A.TargetEntry):
            query.targets[i].alias = name


def _subquery(select: A.Select) -> A.Select:
    """``SELECT * FROM (select)``: a parenthesised SELECT kept whole."""
    return A.Select([A.TargetEntry(A.Star())],
                    [A.SubqueryRef(select, "unnamed_subquery")])


def _compound(select: A.Select) -> bool:
    """Whether ``select``'s set operation has a UNION or EXCEPT, which an
    INTERSECT after it must not join."""
    return any(not op.startswith("intersect") for op, _rhs in select.set_ops)
