"""Toy imperative pointer language used as the analysis substrate.

The paper ("Applying an Abstract Data Structure Description Approach to
Parallelizing Scientific Pointer Programs", Hummel/Nicolau/Hendren 1992)
describes its analyses over a C-like imperative language with recursive
record types, pointer fields, ``NULL``, dynamic allocation, ``while`` loops
and recursive functions.  This subpackage provides that substrate:

* :mod:`repro.lang.tokens` / :mod:`repro.lang.lexer` — tokenizer,
* :mod:`repro.lang.ast_nodes` — the abstract syntax tree,
* :mod:`repro.lang.parser` — a recursive-descent parser (including the ADDS
  extensions to type declarations),
* :mod:`repro.lang.split` — cuts a source into its top-level declarations
  without parsing it (the incremental driver parses only what changed),
* :mod:`repro.lang.callgraph` — call edges, the bottom-up SCC order the
  type checker, the summaries and the driver share, and its grouping into
  the waves of the schedule each report shows,
* :mod:`repro.lang.types` — the type system (records, pointers, scalars),
* :mod:`repro.lang.cfg` — per-function control flow graphs,
* :mod:`repro.lang.heap` / :mod:`repro.lang.interpreter` — a reference
  interpreter with an explicit heap, used to check that the parallelizing
  transformations are semantics preserving,
* :mod:`repro.lang.pretty` — an unparser.
"""

from repro.lang.errors import (
    InterpreterLimitError,
    LangError,
    LexError,
    ParseError,
    TypeCheckError,
    RuntimeLangError,
)
from repro.lang.ast_nodes import (
    Program,
    TypeDecl,
    FieldDecl,
    FunctionDecl,
    Param,
    VarDecl,
    Block,
    Assign,
    FieldAssign,
    If,
    While,
    For,
    ParallelFor,
    Return,
    ExprStmt,
    Call,
    Name,
    FieldAccess,
    IndexAccess,
    NullLit,
    IntLit,
    FloatLit,
    BoolLit,
    StringLit,
    BinOp,
    UnaryOp,
    New,
    ArrayLit,
)
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, parse_program
from repro.lang.types import (
    Type,
    IntType,
    FloatType,
    BoolType,
    VoidType,
    StringType,
    PointerType,
    RecordType,
    ArrayType,
    INT,
    FLOAT,
    BOOL,
    VOID,
    STRING,
)
from repro.lang.typecheck import TypeChecker, check_program
from repro.lang.cfg import CFG, BasicBlock, build_cfg
from repro.lang.heap import Heap, HeapCell, NULL_REF
from repro.lang.interpreter import Interpreter, run_program
from repro.lang.pretty import PrettyPrinter, unparse

__all__ = [
    "InterpreterLimitError",
    "LangError",
    "LexError",
    "ParseError",
    "TypeCheckError",
    "RuntimeLangError",
    "Program",
    "TypeDecl",
    "FieldDecl",
    "FunctionDecl",
    "Param",
    "VarDecl",
    "Block",
    "Assign",
    "FieldAssign",
    "If",
    "While",
    "For",
    "ParallelFor",
    "Return",
    "ExprStmt",
    "Call",
    "Name",
    "FieldAccess",
    "IndexAccess",
    "NullLit",
    "IntLit",
    "FloatLit",
    "BoolLit",
    "StringLit",
    "BinOp",
    "UnaryOp",
    "New",
    "ArrayLit",
    "tokenize",
    "Parser",
    "parse_program",
    "Type",
    "IntType",
    "FloatType",
    "BoolType",
    "VoidType",
    "StringType",
    "PointerType",
    "RecordType",
    "ArrayType",
    "INT",
    "FLOAT",
    "BOOL",
    "VOID",
    "STRING",
    "TypeChecker",
    "check_program",
    "CFG",
    "BasicBlock",
    "build_cfg",
    "Heap",
    "HeapCell",
    "NULL_REF",
    "Interpreter",
    "run_program",
    "PrettyPrinter",
    "unparse",
]
