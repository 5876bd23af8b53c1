"""Recursive-descent parser for the C subset.

Statements and declarations descend one method per construct; binary
expressions are parsed by precedence climbing over one table of
operator levels (:attr:`Parser._PRECEDENCE`), so an operand costs one
``_binary`` frame however many levels sit above it.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir.types import MachineType
from . import cast
from .cast import CType, VOID
from .lexer import Tok, TokKind, tokenize

_BASE_TYPES = {
    "char": MachineType.BYTE,
    "short": MachineType.WORD,
    "int": MachineType.LONG,
    "long": MachineType.LONG,
    "float": MachineType.FLOAT,
    "double": MachineType.DOUBLE,
}

_UNSIGNED = {
    MachineType.BYTE: MachineType.UBYTE,
    MachineType.WORD: MachineType.UWORD,
    MachineType.LONG: MachineType.ULONG,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
_PREFIX_OPS = {"-", "~", "!", "&", "*"}
_TYPE_WORDS = {*_BASE_TYPES, "unsigned", "void"}

_IDENT, _INT, _CHAR, _FLOAT = (
    TokKind.IDENT, TokKind.INT, TokKind.CHAR, TokKind.FLOAT,
)


class ParseError(SyntaxError):
    def __init__(self, token: Tok, message: str) -> None:
        super().__init__(f"line {token.line}: {message} (at {token.text!r})")


class Parser:
    """A parser over one source text.

    The constructor lexes: ``tokens`` is the whole token list, EOF last.
    :meth:`parse_program` then drops each top-level declaration's tokens
    once it is parsed (the list keeps its length; the entries become
    ``None``), so a unit's whole token list and its whole AST are never
    live at once.
    """

    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.position = 0

    # ------------------------------------------------------------ cursor
    @property
    def tok(self) -> Tok:
        return self.tokens[self.position]

    def peek(self, ahead: int = 1) -> Tok:
        index = min(self.position + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Tok:
        token = self.tok
        if token.kind is not TokKind.EOF:
            self.position += 1
        return token

    def expect_op(self, op: str) -> Tok:
        if not self.tok.is_op(op):
            raise ParseError(self.tok, f"expected {op!r}")
        return self.advance()

    def expect_ident(self) -> str:
        if self.tok.kind is not TokKind.IDENT:
            raise ParseError(self.tok, "expected identifier")
        return self.advance().text

    # ----------------------------------------------------------- program
    def parse_program(self) -> cast.Program:
        program = cast.Program()
        tokens = self.tokens
        while self.tok.kind is not TokKind.EOF:
            start = self.position
            base = self._base_type()
            pointer, name = self._declarator_head()
            if self.tok.is_op("("):
                program.functions.append(self._function(base, pointer, name))
            else:
                program.globals.extend(self._finish_var_decls(base, pointer, name))
            tokens[start:self.position] = [None] * (self.position - start)
        return program

    def _at_type(self) -> bool:
        return self.tok.is_kw(*_TYPE_WORDS)

    def _base_type(self) -> CType:
        if self.tok.is_kw("void"):
            self.advance()
            return VOID
        unsigned = False
        if self.tok.is_kw("unsigned"):
            unsigned = True
            self.advance()
        if self.tok.is_kw(*(_BASE_TYPES.keys())):
            word = self.advance().text
            base = _BASE_TYPES[word]
            # "unsigned long" etc.; a bare "unsigned" means unsigned int
        elif unsigned:
            base = MachineType.LONG
        else:
            raise ParseError(self.tok, "expected a type")
        if unsigned:
            base = _UNSIGNED.get(base, base)
        return CType(base)

    def _declarator_head(self):
        pointer = 0
        while self.tok.is_op("*"):
            pointer += 1
            self.advance()
        name = self.expect_ident()
        return pointer, name

    def _array_suffix(self) -> Optional[int]:
        if not self.tok.is_op("["):
            return None
        self.advance()
        if self.tok.kind is not TokKind.INT:
            raise ParseError(self.tok, "array size must be an integer constant")
        size = int(self.advance().value)  # type: ignore[arg-type]
        self.expect_op("]")
        return size

    def _finish_var_decls(self, base: CType, pointer: int, name: str,
                          register: bool = False) -> List[cast.VarDecl]:
        decls = []
        array = self._array_suffix()
        decls.append(cast.VarDecl(
            name, CType(base.base, pointer, array), register, self.tok.line
        ))
        while self.tok.is_op(","):
            self.advance()
            pointer, name = self._declarator_head()
            array = self._array_suffix()
            decls.append(cast.VarDecl(
                name, CType(base.base, pointer, array), register, self.tok.line
            ))
        self.expect_op(";")
        return decls

    # ---------------------------------------------------------- function
    def _function(self, base: CType, pointer: int, name: str) -> cast.FuncDef:
        line = self.tok.line
        self.expect_op("(")
        params: List[cast.Param] = []
        if not self.tok.is_op(")"):
            if self.tok.is_kw("void") and self.peek().is_op(")"):
                self.advance()
            else:
                while True:
                    p_base = self._base_type()
                    p_pointer, p_name = self._declarator_head()
                    params.append(cast.Param(p_name, CType(p_base.base, p_pointer)))
                    if not self.tok.is_op(","):
                        break
                    self.advance()
        self.expect_op(")")
        body = self._block()
        return_type = VOID if base.is_void else CType(base.base, pointer)
        return cast.FuncDef(name, return_type, params, body, line)

    # --------------------------------------------------------- statements
    def _block(self) -> cast.Block:
        self.expect_op("{")
        block = cast.Block()
        # declarations first, C-style
        while True:
            register = False
            if self.tok.is_kw("register"):
                register = True
                self.advance()
            if self._at_type():
                base = self._base_type()
                pointer, name = self._declarator_head()
                block.decls.extend(
                    self._finish_var_decls(base, pointer, name, register)
                )
            elif register:
                raise ParseError(self.tok, "expected a type after 'register'")
            else:
                break
        while not self.tok.is_op("}"):
            block.stmts.append(self._statement())
        self.expect_op("}")
        return block

    def _statement(self) -> cast.Stmt:
        token = self.tok
        if token.is_op("{"):
            return self._block()
        if token.is_op(";"):
            self.advance()
            return cast.ExprStmt(line=token.line)
        if token.is_kw("if"):
            self.advance()
            self.expect_op("(")
            cond = self._expression()
            self.expect_op(")")
            then = self._statement()
            other = None
            if self.tok.is_kw("else"):
                self.advance()
                other = self._statement()
            return cast.If(line=token.line, cond=cond, then=then, other=other)
        if token.is_kw("while"):
            self.advance()
            self.expect_op("(")
            cond = self._expression()
            self.expect_op(")")
            return cast.While(line=token.line, cond=cond, body=self._statement())
        if token.is_kw("do"):
            self.advance()
            body = self._statement()
            if not self.tok.is_kw("while"):
                raise ParseError(self.tok, "expected 'while' after do body")
            self.advance()
            self.expect_op("(")
            cond = self._expression()
            self.expect_op(")")
            self.expect_op(";")
            return cast.DoWhile(line=token.line, body=body, cond=cond)
        if token.is_kw("for"):
            self.advance()
            self.expect_op("(")
            init = None if self.tok.is_op(";") else self._expression()
            self.expect_op(";")
            cond = None if self.tok.is_op(";") else self._expression()
            self.expect_op(";")
            step = None if self.tok.is_op(")") else self._expression()
            self.expect_op(")")
            return cast.For(line=token.line, init=init, cond=cond, step=step,
                            body=self._statement())
        if token.is_kw("return"):
            self.advance()
            value = None if self.tok.is_op(";") else self._expression()
            self.expect_op(";")
            return cast.Return(line=token.line, value=value)
        if token.is_kw("goto"):
            self.advance()
            label = self.expect_ident()
            self.expect_op(";")
            return cast.Goto(line=token.line, label=label)
        if token.is_kw("break"):
            self.advance()
            self.expect_op(";")
            return cast.Break(line=token.line)
        if token.is_kw("continue"):
            self.advance()
            self.expect_op(";")
            return cast.Continue(line=token.line)
        if token.kind is TokKind.IDENT and self.peek().is_op(":"):
            label = self.advance().text
            self.advance()  # ':'
            return cast.Labeled(line=token.line, label=label,
                                stmt=self._statement())
        expr = self._expression()
        self.expect_op(";")
        return cast.ExprStmt(line=token.line, expr=expr)

    # -------------------------------------------------------- expressions
    # The expression methods index ``self.tokens`` directly: they run
    # once per operand, and an operator, punctuator or type-keyword text
    # only ever comes from a token of that kind, so the text alone
    # decides what a token is.
    def _expression(self) -> cast.Expr:
        return self._assignment()

    def _assignment(self) -> cast.Expr:
        left = self._ternary()
        token = self.tokens[self.position]
        if token.text in _ASSIGN_OPS:
            self.position += 1
            value = self._assignment()
            return cast.Assign(line=self.tokens[self.position].line,
                               op=token.text, target=left, value=value)
        return left

    def _ternary(self) -> cast.Expr:
        cond = self._binary(0)
        if self.tokens[self.position].text == "?":
            self.position += 1
            then = self._expression()
            self.expect_op(":")
            other = self._ternary()
            return cast.Ternary(line=self.tokens[self.position].line,
                                cond=cond, then=then, other=other)
        return cond

    #: Binary operators, loosest first: each tuple is one level.
    _PRECEDENCE = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]
    _LEVELS = {op: level for level, ops in enumerate(_PRECEDENCE)
               for op in ops}

    def _binary(self, floor: int) -> cast.Expr:
        """Precedence climbing: an operand, then every operator of level
        *floor* or tighter, each left-associative and each taking as its
        right operand everything that binds tighter than itself.  A
        ``Binary`` carries the line of the token after its right
        operand."""
        tokens = self.tokens
        levels = self._LEVELS
        left = self._unary()
        while True:
            token = tokens[self.position]
            level = levels.get(token.text)
            if level is None or level < floor:
                return left
            self.position += 1
            right = self._binary(level + 1)
            left = cast.Binary(line=tokens[self.position].line,
                               op=token.text, left=left, right=right)

    def _unary(self) -> cast.Expr:
        token = self.tokens[self.position]
        text = token.text
        if text in _PREFIX_OPS:
            self.position += 1
            return cast.Unary(line=token.line, op=text,
                              operand=self._unary())
        if text == "+":
            self.position += 1
            return self._unary()
        if text == "++" or text == "--":
            self.position += 1
            return cast.Unary(line=token.line, op=text + "pre",
                              operand=self._unary())
        if text == "(" and self._is_cast():
            self.position += 1
            base = self._base_type()
            pointer = 0
            while self.tokens[self.position].text == "*":
                pointer += 1
                self.position += 1
            self.expect_op(")")
            return cast.Cast(line=token.line,
                             ty=CType(base.base, pointer),
                             operand=self._unary())
        return self._postfix()

    def _is_cast(self) -> bool:
        return self.peek().text in _TYPE_WORDS

    def _postfix(self) -> cast.Expr:
        tokens = self.tokens
        expr = self._primary()
        while True:
            text = tokens[self.position].text
            if text == "[":
                self.position += 1
                index = self._expression()
                self.expect_op("]")
                expr = cast.Index(line=tokens[self.position].line,
                                  base=expr, index=index)
            elif text == "(" and isinstance(expr, cast.Ident):
                self.position += 1
                args: List[cast.Expr] = []
                if tokens[self.position].text != ")":
                    while True:
                        args.append(self._assignment())
                        if tokens[self.position].text != ",":
                            break
                        self.position += 1
                self.expect_op(")")
                expr = cast.CallExpr(line=tokens[self.position].line,
                                     callee=expr.name, args=args)
            elif text == "++" or text == "--":
                self.position += 1
                expr = cast.Postfix(line=tokens[self.position].line,
                                    op=text, operand=expr)
            else:
                return expr

    def _primary(self) -> cast.Expr:
        token = self.tokens[self.position]
        kind = token.kind
        if kind is _IDENT:
            self.position += 1
            return cast.Ident(line=token.line, name=token.text)
        if kind is _INT:
            self.position += 1
            return cast.IntLit(line=token.line, value=int(token.value))  # type: ignore[arg-type]
        if kind is _CHAR:
            self.position += 1
            return cast.IntLit(line=token.line, value=int(token.value),  # type: ignore[arg-type]
                               ty=MachineType.BYTE)
        if kind is _FLOAT:
            self.position += 1
            return cast.FloatLit(line=token.line, value=float(token.value))  # type: ignore[arg-type]
        if token.text == "(":
            self.position += 1
            expr = self._expression()
            self.expect_op(")")
            return expr
        raise ParseError(token, "expected an expression")


def parse(source: str) -> cast.Program:
    """Parse C-subset source text into an AST."""
    return Parser(source).parse_program()
