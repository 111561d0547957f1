"""The analyzer IR: a function-granular statement tree both frontends
lower to, and the only shape the checks ever see.

The IR is deliberately small — it models exactly what the IR checks
need: statement structure (blocks / branches / loops / returns), the
calls each statement makes (callee name, receiver text, argument texts),
and local declarations with their spelled type. The clang frontend
(frontend_clang.py) fills it from real AST cursors; the lite frontend
(frontend_lite.py) from a structural scan. Checks must therefore treat
fields as best-effort spellings, not resolved semantics — with one
exception: `Call.returns_status`, which the clang frontend resolves from
the callee's real result type and the lite frontend from the repo-wide
signature index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# Statement kinds.
EXPR = "expr"
DECL = "decl"
RETURN = "return"
IF = "if"
LOOP = "loop"
SWITCH = "switch"
BLOCK = "block"
BREAK = "break"
CONTINUE = "continue"


@dataclass
class Call:
    """One call expression inside a statement."""

    name: str  # unqualified callee spelling, e.g. "Acquire"
    recv: str  # receiver text before ./->, "" for free calls
    args: list[str]  # raw argument texts (top-level comma split)
    line: int
    # Resolved by the frontend where possible: does the callee return
    # Status / Result<T>? None = unknown.
    returns_status: Optional[bool] = None

    @property
    def full(self) -> str:
        return f"{self.recv}.{self.name}" if self.recv else self.name


@dataclass
class Stmt:
    """One statement. `children` nesting by kind:
    IF      -> [then-block, else-block?]
    LOOP    -> [body-block]
    SWITCH  -> [body-block]
    BLOCK   -> statements
    others  -> []
    `lambdas` holds the bodies of lambda literals that appeared textually
    inside this statement; their calls are NOT in `calls` (a lambda's body
    runs when invoked, not where it is written).
    """

    kind: str
    line: int
    text: str = ""  # statement text with lambda bodies blanked
    cond: str = ""  # if/loop/switch controlling expression text
    calls: list[Call] = field(default_factory=list)
    children: list["Stmt"] = field(default_factory=list)
    lambdas: list["FunctionIR"] = field(default_factory=list)
    # DECL extras
    decl_type: str = ""
    decl_name: str = ""
    init: str = ""

    def walk(self):
        yield self
        for ch in self.children:
            yield from ch.walk()


@dataclass
class FunctionIR:
    """A function (or lambda) body."""

    name: str  # unqualified name; lambdas get "<lambda>"
    qual_name: str  # as-spelled qualified name (Cls::Fn) when known
    file: str  # repo-relative path
    line: int
    body: Stmt  # kind == BLOCK
    return_type: str = ""
    is_lambda: bool = False
    # Name of the variable a lambda was bound to (`auto f = [..]{..}`),
    # "" for unbound lambdas. Lets checks model calls through the local.
    bound_to: str = ""

    def all_stmts(self):
        yield from self.body.walk()

    def all_lambdas(self):
        for st in self.all_stmts():
            for lam in st.lambdas:
                yield lam
                yield from lam.all_lambdas()


@dataclass
class FileIR:
    path: str  # repo-relative
    functions: list[FunctionIR] = field(default_factory=list)


@dataclass
class ProjectIR:
    files: list[FileIR] = field(default_factory=list)
    # function name -> "status" | "result" for every function the project
    # declares with a Status / Result<T> return type (lite-frontend
    # fallback for Call.returns_status).
    signature_index: dict = field(default_factory=dict)
    frontend: str = "lite"

    def functions(self):
        for f in self.files:
            for fn in f.functions:
                yield fn
                for lam in fn.all_lambdas():
                    yield lam
