"""The front end against its character-loop reference.

:func:`repro.frontend.tokenize` is one master regex and the parser's
binary expressions are precedence climbing.  This module keeps the
scanner they replaced — one loop iteration per character, built on the
``str`` predicates — and the one-recursive-frame-per-level expression
parser as references, and checks that both new pieces agree with them
token for token and node for node (``line`` fields included), or fail
with the same exception type, over every checked-in program, the
benchmark-shaped units, the fuzzer's specs and generated text.

It also pins on-demand lowering: the compile path lowers a function
only when it compiles it, and a front-end error still surfaces with its
type from every path.
"""

import pathlib
import runpy
import threading

import pytest
from hypothesis import given, strategies as st

from repro import compile as compile_module
from repro.compile import compile_program, reset_result_caches
from repro.frontend import (
    LexError, LowerError, ParseError, Parser, Tok, TokKind, cast, parse,
    tokenize,
)
from repro.frontend.lower import FunctionLowerer
from repro.fuzz.driver import spec_for_case
from repro.ir.types import MachineType
from repro.server import CompileClient, CompileServer
from repro.workloads import ALL_PROGRAMS, generate_workload

ROOT = pathlib.Path(__file__).resolve().parents[2]


# ----------------------------------------------------- reference lexer
_KEYWORDS = {
    "char", "short", "int", "long", "unsigned", "float", "double", "void",
    "register", "if", "else", "while", "for", "do", "return", "goto",
    "break", "continue",
}
_OPERATORS = [
    "<<=", ">>=",
    "&&", "||", "==", "!=", "<=", ">=", "<<", ">>", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "[", "]", "{", "}", ",", ";", "?", ":",
]
_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39}


def _reference_char_value(body, line):
    if body.startswith("\\"):
        try:
            return _ESCAPES[body[1]]
        except (KeyError, IndexError):
            raise LexError(f"line {line}: bad escape {body!r}") from None
    if len(body) != 1:
        raise LexError(f"line {line}: bad character constant {body!r}")
    return ord(body)


def reference_tokenize(source):
    """The character-at-a-time scanner the master regex replaced."""
    tokens = []
    line = 1
    position = 0
    length = len(source)
    while position < length:
        ch = source[position]
        if ch == "\n":
            line += 1
            position += 1
            continue
        if ch.isspace():
            position += 1
            continue
        if source.startswith("/*", position):
            end = source.find("*/", position + 2)
            if end < 0:
                raise LexError(f"line {line}: unterminated comment")
            line += source.count("\n", position, end)
            position = end + 2
            continue
        if source.startswith("//", position):
            end = source.find("\n", position)
            position = length if end < 0 else end
            continue
        if ch.isalpha() or ch == "_":
            start = position
            while position < length and (
                source[position].isalnum() or source[position] == "_"
            ):
                position += 1
            word = source[start:position]
            kind = TokKind.KEYWORD if word in _KEYWORDS else TokKind.IDENT
            tokens.append(Tok(kind, word, line=line))
            continue
        if ch.isdigit() or (
            ch == "." and position + 1 < length
            and source[position + 1].isdigit()
        ):
            start = position
            is_float = False
            if source.startswith(("0x", "0X"), position):
                position += 2
                while (position < length
                       and source[position] in "0123456789abcdefABCDEF"):
                    position += 1
                tokens.append(Tok(TokKind.INT, source[start:position],
                                  value=int(source[start:position], 16),
                                  line=line))
                continue
            while position < length and source[position].isdigit():
                position += 1
            if position < length and source[position] == ".":
                is_float = True
                position += 1
                while position < length and source[position].isdigit():
                    position += 1
            if position < length and source[position] in "eE":
                is_float = True
                position += 1
                if position < length and source[position] in "+-":
                    position += 1
                while position < length and source[position].isdigit():
                    position += 1
            text = source[start:position]
            if is_float:
                tokens.append(Tok(TokKind.FLOAT, text, value=float(text),
                                  line=line))
            else:
                tokens.append(Tok(TokKind.INT, text, value=int(text),
                                  line=line))
            continue
        if ch == "'":
            end = position + 1
            if end < length and source[end] == "\\":
                end += 1
            end += 1
            if end >= length or source[end] != "'":
                raise LexError(f"line {line}: bad character constant")
            body = source[position + 1:end]
            tokens.append(Tok(TokKind.CHAR, source[position:end + 1],
                              value=_reference_char_value(body, line),
                              line=line))
            position = end + 1
            continue
        for operator in _OPERATORS:
            if source.startswith(operator, position):
                tokens.append(Tok(TokKind.OP, operator, line=line))
                position += len(operator)
                break
        else:
            raise LexError(f"line {line}: unexpected character {ch!r}")
    tokens.append(Tok(TokKind.EOF, "", line=line))
    return tokens


# ---------------------------------------------------- reference parser
class ReferenceParser(Parser):
    """The parser with the expression methods precedence climbing
    replaced: one recursive ``_binary`` frame per precedence level, and
    every token test through ``tok``/``is_op``."""

    def __init__(self, source):
        self.tokens = reference_tokenize(source)
        self.position = 0

    def _expression(self):
        return self._assignment()

    def _assignment(self):
        left = self._ternary()
        if self.tok.kind is TokKind.OP and self.tok.text in {
            "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=",
            ">>=",
        }:
            op = self.advance().text
            value = self._assignment()
            return cast.Assign(line=self.tok.line, op=op, target=left,
                               value=value)
        return left

    def _ternary(self):
        cond = self._binary(0)
        if self.tok.is_op("?"):
            self.advance()
            then = self._expression()
            self.expect_op(":")
            other = self._ternary()
            return cast.Ternary(line=self.tok.line, cond=cond, then=then,
                                other=other)
        return cond

    def _binary(self, level):
        if level >= len(self._PRECEDENCE):
            return self._unary()
        ops = self._PRECEDENCE[level]
        left = self._binary(level + 1)
        while self.tok.is_op(*ops):
            op = self.advance().text
            right = self._binary(level + 1)
            left = cast.Binary(line=self.tok.line, op=op, left=left,
                               right=right)
        return left

    def _unary(self):
        token = self.tok
        if token.is_op("-", "~", "!", "&", "*"):
            self.advance()
            return cast.Unary(line=token.line, op=token.text,
                              operand=self._unary())
        if token.is_op("+"):
            self.advance()
            return self._unary()
        if token.is_op("++", "--"):
            self.advance()
            return cast.Unary(line=token.line, op=token.text + "pre",
                              operand=self._unary())
        if token.is_op("(") and self._is_cast():
            self.advance()
            base = self._base_type()
            pointer = 0
            while self.tok.is_op("*"):
                pointer += 1
                self.advance()
            self.expect_op(")")
            return cast.Cast(line=token.line,
                             ty=cast.CType(base.base, pointer),
                             operand=self._unary())
        return self._postfix()

    def _is_cast(self):
        return self.peek().is_kw(
            "char", "short", "int", "long", "float", "double", "unsigned",
            "void",
        )

    def _postfix(self):
        expr = self._primary()
        while True:
            if self.tok.is_op("["):
                self.advance()
                index = self._expression()
                self.expect_op("]")
                expr = cast.Index(line=self.tok.line, base=expr, index=index)
            elif self.tok.is_op("(") and isinstance(expr, cast.Ident):
                self.advance()
                args = []
                if not self.tok.is_op(")"):
                    while True:
                        args.append(self._assignment())
                        if not self.tok.is_op(","):
                            break
                        self.advance()
                self.expect_op(")")
                expr = cast.CallExpr(line=self.tok.line, callee=expr.name,
                                     args=args)
            elif self.tok.is_op("++", "--"):
                op = self.advance().text
                expr = cast.Postfix(line=self.tok.line, op=op, operand=expr)
            else:
                return expr

    def _primary(self):
        token = self.tok
        if token.kind is TokKind.IDENT:
            self.advance()
            return cast.Ident(line=token.line, name=token.text)
        if token.kind is TokKind.INT:
            self.advance()
            return cast.IntLit(line=token.line, value=int(token.value))
        if token.kind is TokKind.CHAR:
            self.advance()
            return cast.IntLit(line=token.line, value=int(token.value),
                               ty=MachineType.BYTE)
        if token.kind is TokKind.FLOAT:
            self.advance()
            return cast.FloatLit(line=token.line, value=float(token.value))
        if token.is_op("("):
            self.advance()
            expr = self._expression()
            self.expect_op(")")
            return expr
        raise ParseError(token, "expected an expression")


def reference_parse(source):
    return ReferenceParser(source).parse_program()


# -------------------------------------------------------------- helpers
def token_rows(tokens):
    return [(t.kind, t.text, type(t.value), t.value, t.line) for t in tokens]


def lexed(lexer, source):
    """The token rows *lexer* gives *source*, or the type it raises."""
    try:
        return token_rows(lexer(source))
    except Exception as exc:  # the type is what must agree
        return type(exc)


def parsed(parser, source):
    try:
        return parser(source)
    except Exception as exc:
        return type(exc)


# --------------------------------------------------------------- corpora
def example_sources():
    sources = []
    for name in ("quickstart.py", "idioms_tour.py"):
        namespace = runpy.run_path(str(ROOT / "examples" / name))
        if "SOURCE" in namespace:
            sources.append(namespace["SOURCE"])
        sources.extend(text for _, text in namespace.get("SNIPPETS", ()))
    return sources


def corpus_sources():
    return [path.read_text()
            for path in sorted((ROOT / "fuzz" / "corpus").glob("*/repro.c"))]


SMALL_SOURCES = (
    [program.source for program in ALL_PROGRAMS]
    + example_sources() + corpus_sources()
)


@pytest.fixture(scope="module")
def spec_sources():
    """The fuzzer's programs for seed 0, cases 0-99."""
    return [generate_workload(spec_for_case(0, case)) for case in range(100)]


#: The end-to-end benchmark's unit shape (``benchmarks/e2e/inputs.py``).
UNIT_SHAPE = dict(functions=24, statements_per_function=20, scale=4)


@pytest.fixture(scope="module", params=[1, 7, 1982])
def unit_source(request):
    return generate_workload(seed=request.param, **UNIT_SHAPE)


# ---------------------------------------------------------------- tokens
def test_the_corpora_are_not_empty(spec_sources):
    assert len(ALL_PROGRAMS) >= 10 and len(spec_sources) == 100
    assert len(example_sources()) >= 10
    assert corpus_sources(), "fuzz/corpus holds no reproducer"


@pytest.mark.parametrize("index", range(len(SMALL_SOURCES)))
def test_tokens_match_on_checked_in_programs(index):
    source = SMALL_SOURCES[index]
    assert lexed(tokenize, source) == lexed(reference_tokenize, source)


def test_tokens_match_on_fuzz_specs(spec_sources):
    for source in spec_sources:
        assert lexed(tokenize, source) == lexed(reference_tokenize, source)


def test_tokens_match_on_benchmark_units(unit_source):
    new = tokenize(unit_source)
    assert token_rows(new) == token_rows(reference_tokenize(unit_source))
    assert Parser(unit_source).tokens == new


#: Fragments that sit on the lexer's edges: comments, every literal
#: form, escapes, line breaks, and non-ASCII letters, digits and blanks
#: that ``str.isalpha``/``isdigit``/``isspace`` accept.
FRAGMENTS = [
    "/*", "*/", "//", "\n", "\r\n", "\t", " ", "\x0b", "\x0c", "\u00a0",
    "\u2028", "\x85", "'", "\\", "'a'", "'\\n'", "'\\q'", "''", "0x",
    "0X1f", "0x1.5", "1e", "1e+", "1E-3", "1.", ".5", "..", "1.2.3",
    "007", "else", "int", "x1", "_y",
    # letters and non-letter numerals; decimal and non-decimal digits
    "é", "ß", "Ω", "ж", "中", "Ⅻ", "〇",
    "٣", "١.٥", "²", "½", "₃", "①",
    "e\u0301", "$", "@", "#",
    "<<=", ">>=", "&&", "||", "++", "--", "->", "?:",
]

texts = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.characters()), max_size=24,
).map("".join)


@given(texts)
def test_tokens_match_on_generated_text(source):
    assert lexed(tokenize, source) == lexed(reference_tokenize, source)


def test_token_equality_and_hash():
    a, b = tokenize("x x")[:2]
    assert a == b and hash(a) == hash(b) and a is not b
    first, second = tokenize("x\nx")[:2]
    assert first != second and first.text == second.text
    assert a == Tok(TokKind.IDENT, "x", None, 1)
    assert a != Tok(TokKind.KEYWORD, "x", None, 1)
    assert len({a, b, first, second}) == 2
    assert not a.is_op() and Tok(TokKind.OP, "+", None, 1).is_op("-", "+")
    assert tokenize("while")[0].is_kw("while", "for")


# ------------------------------------------------------------------ ASTs
@pytest.mark.parametrize("index", range(len(SMALL_SOURCES)))
def test_ast_matches_on_checked_in_programs(index):
    source = SMALL_SOURCES[index]
    assert parsed(parse, source) == parsed(reference_parse, source)


def test_ast_matches_on_fuzz_specs(spec_sources):
    for source in spec_sources:
        assert parse(source) == reference_parse(source)


def test_ast_matches_on_benchmark_units(unit_source):
    assert parse(unit_source) == reference_parse(unit_source)


BINARY = ["||", "&&", "|", "^", "&", "==", "!=", "<", "<=", ">", ">=",
          "<<", ">>", "+", "-", "*", "/", "%"]
ASSIGN = ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="]
PREFIX = ["-", "~", "!", "&", "*", "+", "++", "--"]
CASTS = ["(char)", "(unsigned)", "(int *)", "(double)", "(unsigned short **)"]
#: Blanks between tokens: a line break moves every later node's line.
SEPARATORS = st.sampled_from([" ", "", "\n", "\n\n"])
ATOMS = st.sampled_from(["x", "y", "p", "0", "7", "0x1f", "'c'", "1.5",
                         "f()", "a[2]"])


def _compound(inner):
    return st.one_of(
        st.tuples(inner, SEPARATORS, st.sampled_from(BINARY + ASSIGN),
                  SEPARATORS, inner).map("".join),
        st.tuples(st.sampled_from(PREFIX), SEPARATORS, inner).map("".join),
        st.tuples(st.just("("), inner, SEPARATORS, st.just(")")).map(
            "".join),
        st.tuples(inner, SEPARATORS, st.just("?"), inner, st.just(":"),
                  SEPARATORS, inner).map("".join),
        st.tuples(inner, st.just("["), inner, SEPARATORS, st.just("]")).map(
            "".join),
        st.lists(inner, max_size=3).map(lambda args: f"g({', '.join(args)})"),
        st.tuples(inner, SEPARATORS, st.sampled_from(["++", "--"])).map(
            "".join),
        st.tuples(st.sampled_from(CASTS), SEPARATORS, inner).map("".join),
    )


expressions = st.recursive(ATOMS, _compound, max_leaves=16)


@given(expressions)
def test_ast_matches_on_generated_expressions(expression):
    source = f"int f() {{\n{expression};\n}}\n"
    assert parsed(parse, source) == parsed(reference_parse, source)


def test_an_operand_costs_one_binary_frame(monkeypatch):
    """Precedence climbing: parsing ``x`` enters ``_binary`` once, not
    once per precedence level (eleven frames in the per-level parser)."""
    calls = {"new": 0, "reference": 0}

    def counting(cls, key):
        original = cls._binary

        def counted(self, *args):
            calls[key] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, "_binary", counted)

    counting(ReferenceParser, "reference")
    counting(Parser, "new")
    source = "int f(int x) { return x; }"
    assert parse(source) == reference_parse(source)
    assert calls == {"new": 1, "reference": 11}


# ------------------------------------------------------ on-demand lowering

EDIT_UNIT = generate_workload(functions=6, statements_per_function=6, seed=3)

#: Three functions; the third reads a name nobody declared.
UNDECLARED = """
int g;
int one(int a) { return a + 1; }
int two(int a) { g = a; return g * 2; }
int three(int a) { return a + missing; }
"""


@pytest.fixture()
def lowered_names(monkeypatch):
    """The name of every function lowered in this process, in order."""
    names = []
    lower = FunctionLowerer.lower

    def counted(self):
        names.append(self.func.name)
        return lower(self)

    monkeypatch.setattr(FunctionLowerer, "lower", counted)
    return names


def test_a_clean_compile_lowers_each_function_once(gg, lowered_names):
    reset_result_caches()
    out = compile_program(EDIT_UNIT, generator=gg)
    assert lowered_names == list(out.source_program.order)


def test_a_one_function_edit_lowers_one_function(gg, lowered_names, tmp_path):
    reset_result_caches()
    compile_program(EDIT_UNIT, generator=gg, result_cache_dir=str(tmp_path))
    header = EDIT_UNIT.index("int f2(")
    at = EDIT_UNIT.index("return x + y + z;", header)
    edited = EDIT_UNIT[:at] + "return x + y + z + 1;" + EDIT_UNIT[at + 17:]
    del lowered_names[:]
    reset_result_caches()
    out = compile_program(edited, generator=gg,
                          result_cache_dir=str(tmp_path))
    assert (out.cache_hits, out.cache_misses) == (5, 1)
    assert lowered_names == ["f2"]
    assert out.text == compile_program(edited, generator=gg,
                                       incremental=False).text


@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_lower_error_surfaces_from_every_compile_path(
    gg, jobs, incremental, fresh_pool
):
    """The error keeps its type, and on the worker path it neither kills
    a worker nor retires the keep-alive: the next compile reuses it."""
    reset_result_caches()
    expected = compile_program(EDIT_UNIT, generator=gg, jobs=jobs).text
    workers = compile_module._KEEPALIVE
    assert (workers is not None) == (jobs > 1)
    with pytest.raises(LowerError, match="missing"):
        compile_program(UNDECLARED, generator=gg, jobs=jobs,
                        incremental=incremental)
    assert compile_module._KEEPALIVE is workers
    assert workers is None or workers.supervisor.crashes == 0
    out = compile_program(EDIT_UNIT, generator=gg, jobs=jobs)
    assert out.text == expected and compile_module._KEEPALIVE is workers


@pytest.mark.parametrize("workers", [0, 1], ids=["in-process", "supervised"])
def test_a_lower_error_surfaces_from_both_service_backends(
    gg, tmp_path, workers
):
    path = str(tmp_path / "lower.sock")
    server = CompileServer(path=path, generator=gg, workers=workers)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with CompileClient(path=path, connect_timeout=30) as client:
            failed = client.request({"op": "compile", "source": UNDECLARED})
            healthy = client.request({"op": "compile", "source": EDIT_UNIT})
            client.shutdown()
    finally:
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert not failed["ok"] and failed["error"]["type"] == "LowerError"
    assert healthy["ok"]
    assert healthy["assembly"] == compile_program(EDIT_UNIT, generator=gg).text
