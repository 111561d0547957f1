"""The eight aiacc-analyzer checks.

Each check is a function `(project, ctx) -> list[Finding]`. `ctx` carries
repo paths and the parsed tag-layout environment. Checks must be
frontend-agnostic: the IR checks see only ir.py shapes and treat
type/receiver fields as spellings; the text checks (banned-token,
guarded-member) read each file through lexer.strip_comments_and_strings.
"""

from __future__ import annotations

import os
import re

from findings import Finding
from ir import DECL, EXPR, IF, LOOP, RETURN, SWITCH, BLOCK, FunctionIR, Stmt
from lexer import match_delim, strip_comments_and_strings


class Context:
    def __init__(self, repo: str):
        self.repo = repo
        self.tag_env = parse_tag_env(repo)


def word_in(word: str, text: str) -> bool:
    return re.search(r"\b" + re.escape(word) + r"\b", text) is not None


def _all_text(st: Stmt) -> str:
    return " ".join(filter(None, (st.text, st.cond, st.init)))


def _read_text(repo: str, rel: str) -> str:
    try:
        with open(os.path.join(repo, rel), encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _in_scope(path: str, prefixes: tuple, fixture_stem: str) -> bool:
    """Is `path` under one of `prefixes`? A check's own fixtures
    (tests/analyzer_fixtures/<stem>_*.cc) are in every scope it has."""
    norm = path.replace("\\", "/")
    return norm.startswith(prefixes) or \
        os.path.basename(norm).startswith(fixture_stem)


# ==========================================================================
# Check 1: dropped-Status
# ==========================================================================

_TOP_CALL = re.compile(r"^\s*(?:\(void\)\s*)?(?:[\w:]+(?:\.|->))*"
                       r"(?:\w+\s*::\s*)*([A-Za-z_]\w*)\s*[(<]")
_ASSIGN_HEAD = re.compile(r"^\s*(?:[\w:]+(?:\.|->))*([A-Za-z_]\w*)\s*=[^=]")

# How a held Status/Result variable counts as "inspected".
_INSPECT_METHODS = ("ok", "code", "message", "status", "value", "value_or",
                    "has_value", "Update")


def _is_inspection(st: Stmt, var: str) -> bool:
    """Does `st` look at `var` in any way (condition, method call, return,
    passed to another call / macro, moved)?"""
    if st.cond and word_in(var, st.cond):
        return True
    text = _all_text(st)
    if not word_in(var, text):
        return False
    if st.kind == RETURN:
        return True
    # Any mention besides a plain overwrite counts: method access, being
    # an argument (AIACC_CHECK(st.ok(), ...)), std::move, streaming, ...
    overwrite = re.match(r"^\s*" + re.escape(var) + r"\s*=[^=]", st.text or "")
    if overwrite:
        # `v = v.status()` style self-uses still inspect.
        rhs = (st.text or "").split("=", 1)[1]
        return word_in(var, rhs)
    return True


def check_dropped_status(project, ctx) -> list[Finding]:
    out: list[Finding] = []
    for fn in project.functions():
        out.extend(_dropped_in_block(fn.body, fn))
    return out


def _whole_text_call(text: str):
    """Callee name when `text` (an expression/initializer) is exactly one
    call — nothing before it but a receiver chain, nothing after its
    closing paren. Returns '' otherwise."""
    text = (text or "").strip().rstrip(";").rstrip()
    m = _TOP_CALL.match(text)
    if m is None:
        return ""
    op = text.find("(", m.end() - 1)
    if op == -1:
        return ""
    close = match_delim(text, op)
    if close >= len(text) or text[close + 1 :].strip():
        return ""
    return m.group(1)


def _status_call_of(st: Stmt):
    """The Status/Result-returning call a statement's value comes from,
    when the whole statement RHS / decl init IS that call."""
    text = st.init if st.kind == DECL else st.text
    if st.kind == EXPR and text:
        m = _ASSIGN_HEAD.match(text)
        if m is None:
            return None
        text = text.split("=", 1)[1]
    name = _whole_text_call(text)
    if not name:
        return None
    for call in st.calls:
        if call.name == name and call.returns_status:
            return call
    return None


def _dropped_in_block(block: Stmt, fn: FunctionIR) -> list[Finding]:
    out: list[Finding] = []
    # Pass 1: expression-statements that are a bare Status-returning call.
    for st in fn.all_stmts():
        if st.kind != EXPR or not st.text:
            continue
        if _ASSIGN_HEAD.match(st.text):
            continue
        if re.match(r"^\s*\(\s*void\s*\)", st.text):
            continue  # explicit discard — visible intent, compiler-blessed
        name = _whole_text_call(st.text)
        if not name:
            continue
        for call in st.calls:
            if call.name == name and call.returns_status and \
                    call.line == st.line:
                out.append(Finding(
                    check="dropped-status", file=fn.file, line=st.line,
                    symbol=fn.qual_name,
                    message=f"result of Status/Result-returning call "
                            f"'{call.full}' is discarded"))
                break
    # Pass 2: overwritten-before-inspection, per straight-line block.
    def scan(block: Stmt) -> None:
        held: dict[str, int] = {}  # var -> line of the uninspected store
        for st in block.children:
            call = _status_call_of(st)
            target = ""
            if st.kind == DECL and call is not None:
                target = st.decl_name
            elif st.kind == EXPR and call is not None:
                m = _ASSIGN_HEAD.match(st.text or "")
                target = m.group(1) if m else ""
            # Inspections clear held vars.
            for var in list(held):
                if var != target and _is_inspection(st, var):
                    del held[var]
            if target:
                if target in held:
                    out.append(Finding(
                        check="dropped-status", file=fn.file, line=st.line,
                        symbol=fn.qual_name,
                        message=f"'{target}' holds an unchecked Status from "
                                f"line {held[target]} and is overwritten "
                                f"before inspection"))
                held[target] = st.line
            # Control flow: conditions inspect; bodies may inspect — be
            # conservative and clear anything the subtree mentions.
            if st.kind in (IF, LOOP, SWITCH, BLOCK):
                for var in list(held):
                    if any(word_in(var, _all_text(s)) for s in st.walk()):
                        del held[var]
                for ch in st.children:
                    scan(ch)
            # Lambda bodies are separate FunctionIRs yielded by
            # project.functions() — not rescanned here.
        # Held-at-block-end is NOT flagged: destructors of Status are
        # benign; only overwrite loses the error.
    scan(block)
    return out


# ==========================================================================
# Check 2: pool-leak
# ==========================================================================

HELD, CONSUMED, MAYBE = "held", "consumed", "maybe"

_ACQUIRE_NAMES = ("Acquire",)


def _acquire_lambda_names(fn: FunctionIR) -> set[str]:
    """Local lambdas that wrap pool Acquire and hand the buffer out
    (threaded.cpp's `acquire`): calls through them count as acquires."""
    names = set()
    for lam in fn.all_lambdas():
        if not lam.bound_to:
            continue
        has_acquire = any(
            c.name in _ACQUIRE_NAMES for s in lam.all_stmts() for c in s.calls)
        releases = any(
            c.name in ("Release", "ReleasePayload")
            for s in lam.all_stmts() for c in s.calls)
        if has_acquire and not releases:
            names.add(lam.bound_to)
    return names


def check_pool_leak(project, ctx) -> list[Finding]:
    out: list[Finding] = []
    for fn in project.functions():
        if fn.is_lambda:
            continue  # scanned from within their parent (capture-aware)
        acquire_fns = set(_ACQUIRE_NAMES) | _acquire_lambda_names(fn)
        _pool_scan_block(fn.body, {}, fn, acquire_fns, out, top=True)
    return out


def _acquires_in(st: Stmt, acquire_fns: set[str]) -> bool:
    return any(c.name in acquire_fns for c in st.calls)


def _consumes(st: Stmt, var: str) -> bool:
    text = _all_text(st)
    if re.search(r"std\s*::\s*move\s*\(\s*" + re.escape(var) + r"\s*\)", text):
        return True
    if st.kind == RETURN and word_in(var, text):
        return True
    if re.search(r"\bswap\s*\([^()]*\b" + re.escape(var) + r"\b", text):
        return True
    return False


def _release_use(st: Stmt, var: str) -> bool:
    """A second release/move of an already-consumed var."""
    text = _all_text(st)
    if re.search(r"std\s*::\s*move\s*\(\s*" + re.escape(var) + r"\s*\)", text):
        return True
    for c in st.calls:
        if c.name in ("Release", "ReleasePayload") and any(
                word_in(var, a) for a in c.args):
            return True
    return False


def _merge(a: dict, b: dict) -> dict:
    merged = {}
    for var in set(a) | set(b):
        sa, sb = a.get(var), b.get(var)
        merged[var] = sa if sa == sb else MAYBE
        if merged[var] is None:
            del merged[var]
    return merged


def _pool_scan_block(block: Stmt, state: dict, fn: FunctionIR,
                     acquire_fns: set[str], out: list[Finding],
                     top: bool = False, lines: dict | None = None) -> dict:
    """Abstract-interpret one block; returns the post-state. `state` maps
    var -> HELD/CONSUMED/MAYBE for pooled buffers in scope; `lines` maps
    var -> acquire line so leak reports anchor where the buffer was
    taken (and an ANALYZER-OK there can silence them)."""
    if lines is None:
        lines = {}
    declared_here: list[str] = []
    for st in block.children:
        # Lambdas: their bodies run elsewhere; a lambda capturing a
        # tracked var by reference may release it -> demote to MAYBE.
        for lam in st.lambdas:
            for var in state:
                if any(word_in(var, _all_text(s)) for s in lam.all_stmts()):
                    state[var] = MAYBE
            _pool_scan_block(lam.body, {}, fn, acquire_fns, out, lines=lines)

        if st.kind == DECL and _acquires_in(st, acquire_fns):
            state[st.decl_name] = HELD
            lines[st.decl_name] = st.line
            declared_here.append(st.decl_name)
            continue
        if st.kind == EXPR and _acquires_in(st, acquire_fns):
            m = _ASSIGN_HEAD.match(st.text or "")
            if m:
                state[m.group(1)] = HELD
                lines[m.group(1)] = st.line
                continue
        # Consumption / double-release, in evaluation order.
        for var in list(state):
            if state[var] == CONSUMED and _release_use(st, var):
                out.append(Finding(
                    check="pool-leak", file=fn.file, line=st.line,
                    symbol=fn.qual_name,
                    message=f"pooled buffer '{var}' is released/moved again "
                            f"after already being moved out"))
                state[var] = MAYBE
            elif state[var] in (HELD, MAYBE) and _consumes(st, var):
                state[var] = CONSUMED
            elif st.kind in (EXPR, DECL) and re.match(
                    r"^\s*" + re.escape(var) + r"\s*=[^=]", st.text or ""):
                # Overwritten by a non-acquire value: stop tracking (the
                # repo reuses moved-from vectors as plain locals).
                if state[var] == HELD:
                    out.append(Finding(
                        check="pool-leak", file=fn.file, line=st.line,
                        symbol=fn.qual_name,
                        message=f"pooled buffer '{var}' is overwritten while "
                                f"still held — the pooled storage leaks"))
                del state[var]

        if st.kind == RETURN:
            for var, s in state.items():
                if s == HELD and not word_in(var, _all_text(st)):
                    out.append(Finding(
                        check="pool-leak", file=fn.file, line=st.line,
                        symbol=fn.qual_name,
                        message=f"return while pooled buffer '{var}' is "
                                f"still held — release or move it first"))
                    state[var] = MAYBE  # report once per path
        elif st.kind == IF:
            then_state = _pool_scan_block(
                st.children[0], dict(state), fn, acquire_fns, out,
                lines=lines)
            if len(st.children) > 1:
                else_state = _pool_scan_block(
                    st.children[1], dict(state), fn, acquire_fns, out,
                    lines=lines)
            else:
                else_state = dict(state)
            state = _merge(then_state, else_state)
        elif st.kind in (LOOP, SWITCH):
            body_state = _pool_scan_block(
                st.children[0], dict(state), fn, acquire_fns, out,
                lines=lines)
            state = _merge(state, body_state)
        elif st.kind == BLOCK:
            state = _pool_scan_block(st, dict(state), fn, acquire_fns, out,
                                     lines=lines)

    for var in declared_here:
        if state.get(var) == HELD:
            out.append(Finding(
                check="pool-leak", file=fn.file,
                line=lines.get(var, block.line), symbol=fn.qual_name,
                message=f"pooled buffer '{var}' acquired in this scope is "
                        f"never released or moved out on some path"))
        state.pop(var, None)
    return state


# ==========================================================================
# Check 3: blocking-under-lock
# ==========================================================================

BLOCKING_CALLS = frozenset(("Recv", "RecvFor", "Send", "Barrier"))
WAIT_CALLS = frozenset(("Wait", "WaitFor", "WaitUntil"))
_GUARD_TYPE = re.compile(r"\bMutexLock\b")


def _fn_blocks(fn: FunctionIR) -> bool:
    """Does this function directly make a blocking transport call
    (outside its lambdas)?"""
    return any(c.name in BLOCKING_CALLS
               for s in fn.all_stmts() for c in s.calls)


def _blocking_closure(file_fns: list[FunctionIR]) -> set[str]:
    """TU-local fixpoint: names of same-file functions that (transitively)
    make a blocking transport call."""
    blocking = {fn.name for fn in file_fns if not fn.is_lambda
                and _fn_blocks(fn)}
    defined = {fn.name for fn in file_fns if not fn.is_lambda}
    changed = True
    while changed:
        changed = False
        for fn in file_fns:
            if fn.is_lambda or fn.name in blocking:
                continue
            for s in fn.all_stmts():
                for c in s.calls:
                    if c.name in blocking and c.name in defined and not c.recv:
                        blocking.add(fn.name)
                        changed = True
                        break
    return blocking


def check_blocking_under_lock(project, ctx) -> list[Finding]:
    out: list[Finding] = []
    for fir in project.files:
        blocking_fns = _blocking_closure(fir.functions)
        for fn in fir.functions:
            _lock_scan(fn.body, [], fn, blocking_fns, out)
            for lam in fn.all_lambdas():
                _lock_scan(lam.body, [], lam, blocking_fns, out)
    return out


def _first_ident(text: str) -> str:
    m = re.search(r"[A-Za-z_]\w*", text or "")
    return m.group(0) if m else ""


def _lock_scan(block: Stmt, guards: list[str], fn: FunctionIR,
               blocking_fns: set[str], out: list[Finding]) -> None:
    guards = list(guards)  # guards opened here die at block end (RAII)
    for st in block.children:
        # Calls evaluated in this statement (conditions included; lambda
        # bodies excluded — they run elsewhere and are scanned separately).
        for c in st.calls:
            if guards and c.name in BLOCKING_CALLS:
                out.append(Finding(
                    check="blocking-under-lock", file=fn.file, line=c.line,
                    symbol=fn.qual_name,
                    message=f"blocking transport call '{c.full}' while "
                            f"mutex guard '{guards[-1]}' is held"))
            elif guards and c.name in WAIT_CALLS and c.recv:
                lock_arg = _first_ident(c.args[0]) if c.args else ""
                others = [g for g in guards if g != lock_arg]
                if others:
                    out.append(Finding(
                        check="blocking-under-lock", file=fn.file,
                        line=c.line, symbol=fn.qual_name,
                        message=f"'{c.full}' can sleep while unrelated "
                                f"guard '{others[-1]}' stays held"))
            elif guards and c.name in blocking_fns and not c.recv:
                out.append(Finding(
                    check="blocking-under-lock", file=fn.file, line=c.line,
                    symbol=fn.qual_name,
                    message=f"'{c.name}' reaches a blocking transport call "
                            f"while mutex guard '{guards[-1]}' is held"))
            elif c.name == "Unlock" and c.recv in guards:
                guards.remove(c.recv)

        if st.kind == DECL and _GUARD_TYPE.search(st.decl_type or ""):
            guards.append(st.decl_name)
        elif st.kind == BLOCK:
            _lock_scan(st, guards, fn, blocking_fns, out)
        elif st.kind in (IF, LOOP, SWITCH):
            for ch in st.children:
                _lock_scan(ch, guards, fn, blocking_fns, out)


# ==========================================================================
# Check 4: tag-collision
# ==========================================================================

_TAG_CONST = re.compile(r"constexpr\s+int\s+(k\w+)\s*=\s*([^;]+);")


def parse_tag_env(repo: str) -> dict[str, int]:
    path = os.path.join(repo, "src", "collective", "tags.h")
    try:
        text = strip_comments_and_strings(open(path, encoding="utf-8").read())
    except OSError:
        return {}
    env: dict[str, int] = {}
    for m in _TAG_CONST.finditer(text):
        val = _eval_const(m.group(2), env)
        if val is not None:
            env[m.group(1)] = val
    return env


_EXPR_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|<<|>>|[()+\-*/%])")


def _eval_const(expr: str, env: dict[str, int]):
    """Evaluate an integer constant expression over +,-,*,/,%,<<,>>,()
    and names in `env`. None when anything is unknown."""
    tokens = []
    i = 0
    expr = expr.strip()
    while i < len(expr):
        m = _EXPR_TOKEN.match(expr, i)
        if m is None:
            return None
        tokens.append(m.group(1))
        i = m.end()

    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def parse_primary():
        nonlocal pos
        t = peek()
        if t is None:
            return None
        if t == "(":
            pos += 1
            v = parse_shift()
            if peek() != ")":
                return None
            pos += 1
            return v
        if t == "-":
            pos += 1
            v = parse_primary()
            return None if v is None else -v
        pos += 1
        if t.isdigit():
            return int(t)
        return env.get(t)

    def parse_mul():
        nonlocal pos
        v = parse_primary()
        while v is not None and peek() in ("*", "/", "%"):
            op = peek()
            pos += 1
            rhs = parse_primary()
            if rhs is None or (op in ("/", "%") and rhs == 0):
                return None
            v = v * rhs if op == "*" else (v // rhs if op == "/" else v % rhs)
        return v

    def parse_add():
        nonlocal pos
        v = parse_mul()
        while v is not None and peek() in ("+", "-"):
            op = peek()
            pos += 1
            rhs = parse_mul()
            if rhs is None:
                return None
            v = v + rhs if op == "+" else v - rhs
        return v

    def parse_shift():
        nonlocal pos
        v = parse_add()
        while v is not None and peek() in ("<<", ">>"):
            op = peek()
            pos += 1
            rhs = parse_add()
            if rhs is None:
                return None
            v = v << rhs if op == "<<" else v >> rhs
        return v

    v = parse_shift()
    return v if pos == len(tokens) else None


_TAG_ARITH = re.compile(r"\btag_base\s*\+\s*")

_TAGS_REL = os.path.join("src", "collective", "tags.h")

# Lane-layout constants live next to the framing code, not in tags.h:
# the reliable layer's header lanes (frame kind in lane 0) and the
# tracing layer's stamp trailer (magic in its lane 0). Both identify
# themselves by an in-band lane value, so the values must be disjoint.
_RELIABLE_REL = os.path.join("src", "transport", "reliable.cpp")
_STAMP_REL = os.path.join("src", "telemetry", "trace_context.h")

_LANE_CONST = re.compile(r"constexpr\s+(?:std::)?\w+\s+(k\w+)\s*=\s*([^;]+);")


def _parse_lane_consts(repo: str, rel: str):
    """Integer-valued lane constants from `rel`: plain ints, hex magics
    (0xA1ACC), and whole-valued float kind lanes (1.0f). None when the
    file is absent (that layer is not built in this tree)."""
    path = os.path.join(repo, rel)
    try:
        text = strip_comments_and_strings(open(path, encoding="utf-8").read())
    except OSError:
        return None
    env: dict[str, int] = {}
    for m in _LANE_CONST.finditer(text):
        raw = m.group(2).strip().rstrip("fF")
        try:
            val = int(raw, 0)
        except ValueError:
            try:
                fval = float(raw)
            except ValueError:
                continue
            if fval != int(fval):
                continue
            val = int(fval)
        env[m.group(1)] = val
    return env


def _header_lane_audit(repo: str) -> list[Finding]:
    """The tracing stamp is a float-lane trailer whose first lane holds
    kStampMagic; a reliable frame is float lanes whose first lane holds a
    kind (kKindData/kKindAck). If the magic ever equaled a kind value, a
    stamp misread as a header — layers stripped in the wrong order, a
    truncated frame — would silently parse as a valid reliable frame
    instead of being rejected. Cross-check the two layouts whenever the
    tracing layer exists."""
    out: list[Finding] = []
    stamp = _parse_lane_consts(repo, _STAMP_REL)
    if stamp is None:  # no tracing layer in this tree: nothing to collide
        return out
    missing = [n for n in ("kStampLanes", "kStampMagic") if n not in stamp]
    if missing:
        out.append(Finding(
            check="tag-collision", file=_STAMP_REL, line=1,
            symbol="trace_context.h",
            message="could not parse lane constants: " + ", ".join(missing)))
        return out
    magic = stamp["kStampMagic"]
    if magic >= (1 << 24):
        out.append(Finding(
            check="tag-collision", file=_STAMP_REL, line=1,
            symbol="kStampMagic",
            message=f"kStampMagic ({magic:#x}) is not exactly "
                    f"float-representable (>= 2^24) — the magic lane would "
                    f"quantize on the wire and stamps would never verify"))
    reliable = _parse_lane_consts(repo, _RELIABLE_REL)
    if reliable is None:
        return out
    for kind_name in ("kKindData", "kKindAck"):
        kind = reliable.get(kind_name)
        if kind is not None and kind == magic:
            out.append(Finding(
                check="tag-collision", file=_STAMP_REL, line=1,
                symbol="kStampMagic",
                message=f"kStampMagic ({magic}) equals the reliable layer's "
                        f"{kind_name} ({kind}) — a trace-stamp trailer "
                        f"could masquerade as a reliable frame header"))
    return out


def check_tag_collision(project, ctx) -> list[Finding]:
    out: list[Finding] = _header_lane_audit(ctx.repo)
    env = ctx.tag_env
    required = ("kHeartbeatTag", "kSyncTag", "kTagsPerCollective",
                "kChannelTagStride", "kUnitTagBase", "kUnitTagStride")
    missing = [n for n in required if n not in env]
    if missing:
        out.append(Finding(
            check="tag-collision", file=_TAGS_REL, line=1, symbol="tags.h",
            message="could not parse constants: " + ", ".join(missing)))
        return out

    # Layout relations: the namespace carve-up must nest without overlap.
    def relation(cond: bool, msg: str) -> None:
        if not cond:
            out.append(Finding(check="tag-collision", file=_TAGS_REL, line=1,
                               symbol="tags.h",
                               message="tag layout violated: " + msg))

    c = env
    relation(c["kChannelTagStride"] > c["kTagsPerCollective"],
             "kChannelTagStride must exceed kTagsPerCollective or "
             "per-channel collectives share tags")
    relation(c["kUnitTagStride"] > c["kTagsPerCollective"],
             "kUnitTagStride must exceed kTagsPerCollective or unit "
             "collectives share tags")
    relation(c["kSyncTag"] > c["kHeartbeatTag"],
             "sync rounds must not reuse the heartbeat tag")
    relation(c["kUnitTagBase"] > c["kSyncTag"] + c["kTagsPerCollective"],
             "unit channels must start above the sync collective's block")
    if "kUnitRetryTagBase" in c:
        relation(c["kUnitRetryTagBase"] > c["kUnitTagBase"],
                 "unit retry epochs must sit above the unit namespace")
    if "kChannelRetryTagBase" in c and "kUnitRetryTagBase" in c:
        relation(c["kChannelRetryTagBase"] > c["kUnitRetryTagBase"],
                 "channel retry rings must sit above unit retries")
    if "kChannelEpochTagBase" in c and "kChannelRetryTagBase" in c:
        relation(c["kChannelEpochTagBase"] > c["kChannelRetryTagBase"],
                 "channel epoch homes must sit above the retry rings")

    # Symbolic audit of every `tag_base + <expr>` offset: the expression,
    # folded over the tags.h environment, must stay < kTagsPerCollective
    # or the call aliases the next channel's tags.
    limit = env["kTagsPerCollective"]
    seen: set[tuple] = set()
    for fn in project.functions():
        for st in fn.all_stmts():
            # A DECL's text contains its init — scan only the init there,
            # or every offset would be reported twice.
            texts = (st.init, st.cond) if st.kind == "decl" \
                else (st.text, st.cond)
            for text in texts:
                if not text or "tag_base" not in text:
                    continue
                for m in _TAG_ARITH.finditer(text):
                    expr = _addend_after(text, m.end())
                    val = _eval_const(expr, env)
                    if val is None:
                        continue  # runtime-dependent offset: out of scope
                    if val >= limit:
                        key = (fn.file, st.line, expr.strip())
                        if key in seen:
                            continue
                        seen.add(key)
                        out.append(Finding(
                            check="tag-collision", file=fn.file, line=st.line,
                            symbol=fn.qual_name,
                            message=f"tag offset 'tag_base + {expr.strip()}'"
                                    f" = {val} >= kTagsPerCollective "
                                    f"({limit}) — collides with the next "
                                    f"channel's namespace"))
    return out


def _addend_after(text: str, i: int) -> str:
    """The addend expression starting at i: up to a top-level ',', ')',
    ';', comparison, or end."""
    depth = 0
    j = i
    while j < len(text):
        ch = text[j]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and ch in ",;<>?:&|=":
            break
        j += 1
    return text[i:j]


# ==========================================================================
# Check 5: codec-record-validation
# ==========================================================================

_DECODE_NAME = re.compile(r"Decode")


def _codec_scope(path: str) -> bool:
    norm = path.replace("\\", "/")
    return norm.startswith("src/compress/") or "codec" in os.path.basename(norm)


def check_codec_record_validation(project, ctx) -> list[Finding]:
    out: list[Finding] = []
    for fir in project.files:
        if not _codec_scope(fir.path):
            continue
        for fn in fir.functions:
            _codec_scan(fn.body, fn, out)
            for lam in fn.all_lambdas():
                _codec_scan(lam.body, lam, out)
    return out


def _codec_scan(block: Stmt, fn: FunctionIR, out: list[Finding]) -> None:
    # pending: status-var -> (line, dst-ident) for decode results whose
    # Status has not been inspected yet.
    pending: dict[str, tuple[int, str]] = {}
    for st in block.children:
        decode_call = None
        for c in st.calls:
            if _DECODE_NAME.search(c.name) and c.returns_status:
                decode_call = c
                break
        # Inspection / violation bookkeeping first (statement may both
        # inspect an old status and produce a new one).
        for var in list(pending):
            line, dst = pending[var]
            if _is_inspection(st, var) or (st.cond and word_in(var, st.cond)):
                del pending[var]
                continue
            if dst and word_in(dst, _all_text(st)) and st is not None and \
                    decode_call is None:
                out.append(Finding(
                    check="codec-record-validation", file=fn.file,
                    line=st.line, symbol=fn.qual_name,
                    message=f"decoded payload '{dst}' is used before the "
                            f"validation Status '{var}' from line {line} "
                            f"is checked"))
                del pending[var]

        if decode_call is not None:
            status_var = ""
            if st.kind == DECL:
                status_var = st.decl_name
            else:
                m = _ASSIGN_HEAD.match(st.text or "")
                status_var = m.group(1) if m else ""
            text = _all_text(st)
            inline_checked = (
                st.kind in (IF, LOOP, RETURN)
                or (st.cond and word_in(decode_call.name, st.cond))
                or re.search(r"\bAIACC_(RETURN_IF_ERROR|CHECK)\b",
                             text or "")
                # The call's Status inspected in the same expression:
                # `Decode(...).ok()`, usually under EXPECT_/ASSERT_TRUE.
                or re.search(r"\)\s*\.\s*(?:ok|code)\s*\(", text or ""))
            if not status_var and not inline_checked:
                out.append(Finding(
                    check="codec-record-validation", file=fn.file,
                    line=st.line, symbol=fn.qual_name,
                    message=f"validation Status of '{decode_call.full}' is "
                            f"dropped — malformed records would be "
                            f"accumulated"))
            elif status_var and not inline_checked:
                dst = _first_ident(decode_call.args[-1]) if decode_call.args \
                    else ""
                pending[status_var] = (st.line, dst)

        # Descend. Loop conditions mentioning the status var count as
        # inspection (handled above via st.cond); clear pending vars the
        # subtree inspects before recursing to avoid double reports.
        if st.kind in (IF, LOOP, SWITCH, BLOCK):
            for ch in st.children:
                _codec_scan(ch, fn, out)
            for var in list(pending):
                if any(word_in(var, _all_text(s)) for s in st.walk()):
                    del pending[var]


# ==========================================================================
# Check 6: priority-ordering
# ==========================================================================

# A declaration whose type is a queue of AllReduceUnit: the shape the old
# FIFO engine used before core/scheduler.h. Template arguments never
# contain ; { } ( ) in the repo's spellings, so the bracket body can be
# matched non-greedily without a real parser.
_UNIT_QUEUE_DECL = re.compile(
    r"\bBlockingQueue\s*<[^;{}()]*\bAllReduceUnit\b[^;{}()]*>\s*[*&]?\s*"
    r"([A-Za-z_]\w*)")

# Dispatch operations that must only happen inside the scheduler: pushing
# a unit into / popping one out of a raw queue.
_QUEUE_OPS = frozenset(("Push", "Pop", "PopFor", "TryPop", "Emplace"))

# The scheduler implementation itself legitimately owns the underlying
# containers; everything else in the engine layer must go through its API.
_SCHEDULER_FILES = frozenset(("scheduler.h", "scheduler.cpp"))


def _priority_scope(path: str) -> bool:
    return os.path.basename(path) not in _SCHEDULER_FILES and \
        _in_scope(path, ("src/core/",), "priority_ordering")


def _recv_tail(recv: str) -> str:
    """Last identifier of a receiver chain: `state.unit_queue` -> unit_queue."""
    m = re.search(r"([A-Za-z_]\w*)\s*$", recv or "")
    return m.group(1) if m else ""


def check_priority_ordering(project, ctx) -> list[Finding]:
    """Ready-set dispatch must go through ReadySetScheduler::Push/PopFor
    (core/scheduler.h). A raw BlockingQueue<AllReduceUnit> — or Push/Pop
    straight on one — resurrects the old FIFO unit_queue: units dispatch
    in arrival order, the priority/aging/preemption machinery and the
    SchedulerStats counters are silently bypassed, and the bench A/B
    measures FIFO twice."""
    out: list[Finding] = []
    for fir in project.files:
        if not _priority_scope(fir.path):
            continue
        # The canonical name always counts: `unit_queue->Push(...)` through
        # a pointer/reference parameter is a bypass even when the queue's
        # declaration lives in another TU.
        queue_vars = {"unit_queue", "unit_queue_"}
        # Raw-text pass for declarations: class members never appear in the
        # function IR, so the IR alone cannot see the queue come into
        # existence.
        text = strip_comments_and_strings(_read_text(ctx.repo, fir.path))
        for lineno, line in enumerate(text.splitlines(), 1):
            m = _UNIT_QUEUE_DECL.search(line)
            if m is None:
                continue
            queue_vars.add(m.group(1))
            out.append(Finding(
                check="priority-ordering", file=fir.path, line=lineno,
                symbol=m.group(1),
                message=f"raw BlockingQueue<AllReduceUnit> '{m.group(1)}' "
                        f"bypasses the ready-set scheduler — route dispatch "
                        f"through ReadySetScheduler::Push/PopFor "
                        f"(core/scheduler.h)"))
        # IR pass for operations on a known unit queue.
        for fn in fir.functions:
            for scope_fn in [fn, *fn.all_lambdas()]:
                for st in scope_fn.all_stmts():
                    for c in st.calls:
                        if c.name not in _QUEUE_OPS:
                            continue
                        if _recv_tail(c.recv) not in queue_vars:
                            continue
                        out.append(Finding(
                            check="priority-ordering", file=fir.path,
                            line=c.line, symbol=scope_fn.qual_name,
                            message=f"direct '{c.full}' dispatches a unit "
                                    f"outside the scheduler API — priority "
                                    f"order, aging, and preemption are "
                                    f"bypassed"))
    return out


# ==========================================================================
# Check 7: banned-token
# ==========================================================================

_SYNC_HEADER = "src/common/sync.h"

# (token regex, path scope, exempt files, message). `{tok}` in the message
# is the matched token. A deliberate exception carries
# `// ANALYZER-OK(banned-token: reason)`.
_BANNED_TOKENS = (
    # Every lock goes through the annotated wrappers, so the lock-order
    # detector and Clang thread-safety analysis see every lock.
    (re.compile(r"\bstd::(?:recursive_|shared_)?mutex|"
                r"\bstd::condition_variable|notify_(?:one|all)\("),
     ("src/", "tests/", "bench/", "examples/"), (_SYNC_HEADER,),
     "raw '{tok}' outside " + _SYNC_HEADER +
     "; use common::Mutex / common::CondVar"),
    # The telemetry metrics registry replaced the HotPathCounters
    # side-channel.
    (re.compile(r"\b(?:Global)?HotPathCounters\b"),
     ("src/", "tests/", "bench/"), (),
     "HotPathCounters was replaced by the telemetry metrics registry; "
     "use MetricsRegistry handles (src/telemetry/metrics.h)"),
    # Payload and codec scratch buffers come from common::BufferPool, so
    # the reliability layer and the codecs stay allocation-free in steady
    # state (the zero-alloc chaos and codec tests depend on it).
    (re.compile(r"\bnew\b|\b(?:malloc|calloc|realloc)\s*\("),
     ("src/transport/", "src/compress/"), (),
     "raw '{tok}' on the transport/codec hot path; buffers must come from "
     "common::BufferPool (steady-state zero-alloc invariant)"),
)


def check_banned_token(project, ctx) -> list[Finding]:
    out: list[Finding] = []
    for fir in project.files:
        rows = [(rx, msg) for rx, scope, exempt, msg in _BANNED_TOKENS
                if _in_scope(fir.path, scope, "banned_token")
                and fir.path.replace("\\", "/") not in exempt]
        if not rows:
            continue
        code = strip_comments_and_strings(_read_text(ctx.repo, fir.path))
        for lineno, line in enumerate(code.splitlines(), 1):
            for rx, msg in rows:
                m = rx.search(line)
                if m is None:
                    continue
                tok = m.group(0).rstrip("(").strip()
                out.append(Finding(
                    check="banned-token", file=fir.path, line=lineno,
                    symbol=tok, message=msg.format(tok=tok)))
    return out


# ==========================================================================
# Check 8: guarded-member
# ==========================================================================

# Lines at a class body's top level that are not data members.
_MEMBER_SKIP = re.compile(
    r"^\s*(?:"
    r"static\b|using\b|typedef\b|friend\b|public:|private:|protected:|"
    r"template\b|enum\b|struct\b|class\b|return\b|if\b|for\b|while\b|"
    r"switch\b|case\b|#"
    r")")
_FUNCTION_DECL = re.compile(
    r"\)\s*(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?"
    r"(?:=\s*(?:default|delete|0)\s*)?;")

# A member needs no lock when its type is a synchronization primitive, an
# atomic, or const (immutable after construction).
_EXEMPT_TYPE = re.compile(
    r"^\s*(?:mutable\s+)?(?:"
    r"(?:common::|aiacc::common::)?(?:Mutex|CondVar|MutexLock)\b|"
    r"std::atomic\b|"
    r"const\b|"
    r"(?:[\w:<>,\s*&]+\s)?const\s+[\w:]+\s*(?:\*\s*)?const\b"
    r")")

_MEMBER_DECL = re.compile(
    r"^\s*(?:mutable\s+)?[\w:<>,\s*&\[\]~]+?[\s*&]"
    r"(\w+)\s*(?:\{[^;]*\}|=[^;]*)?;")

_CLASS_OPEN = re.compile(r"^\s*(?:class|struct)\s+\w+[^;{]*\{")
_NOLOCK = re.compile(r"NOLOCK\([^)]+\)")


def _mutex_class_bodies(code: str):
    """Top-level member lines [(index, line)] of every class/struct body in
    `code` (comments and strings stripped) that declares a Mutex member.
    Top level means brace depth exactly one inside the class and no open
    parenthesis at line start, so method bodies, nested structs and
    wrapped parameter lists are excluded. Brace counting suffices for the
    repo's clang-format style."""
    stack = []  # [depth_at_open, member_lines]
    depth = parens = 0
    for idx, line in enumerate(code.splitlines()):
        if _CLASS_OPEN.match(line) and "}" not in line and parens == 0:
            stack.append([depth, []])
        else:
            for open_depth, members in stack:
                if depth == open_depth + 1 and parens == 0:
                    members.append((idx, line))
        depth += line.count("{") - line.count("}")
        parens += line.count("(") - line.count(")")
        while stack and depth <= stack[-1][0]:
            _, members = stack.pop()
            if re.search(r"\b(?:common::)?Mutex\s+\w+",
                         "\n".join(l for _, l in members)):
                yield members


def check_guarded_member(project, ctx) -> list[Finding]:
    """Any class in src/ that owns a common::Mutex annotates each mutable
    data member with GUARDED_BY(...) or marks its line NOLOCK(reason).
    Catches "added a field, forgot the lock" drift that GCC builds (no
    thread-safety analysis) never see."""
    out: list[Finding] = []
    for fir in project.files:
        if not _in_scope(fir.path, ("src/",), "guarded_member") or \
                fir.path.replace("\\", "/") == _SYNC_HEADER:
            continue
        raw = _read_text(ctx.repo, fir.path)
        code = strip_comments_and_strings(raw)
        if "Mutex" not in code:
            continue
        raw_lines = raw.splitlines()
        for body in _mutex_class_bodies(code):
            for idx, line in body:
                if _MEMBER_SKIP.match(line) or "operator" in line or \
                        _FUNCTION_DECL.search(line):
                    continue
                m = _MEMBER_DECL.match(line)
                if m is None or _EXEMPT_TYPE.match(line) or \
                        "GUARDED_BY" in line:
                    continue
                if _NOLOCK.search(raw_lines[idx]):
                    continue
                out.append(Finding(
                    check="guarded-member", file=fir.path, line=idx + 1,
                    symbol=m.group(1),
                    message=f"member '{m.group(1)}' in a Mutex-owning "
                            f"class lacks GUARDED_BY(...); annotate it or "
                            f"mark the line NOLOCK(reason)"))
    return out


# ==========================================================================

ALL_CHECKS = {
    "dropped-status": check_dropped_status,
    "pool-leak": check_pool_leak,
    "blocking-under-lock": check_blocking_under_lock,
    "tag-collision": check_tag_collision,
    "codec-record-validation": check_codec_record_validation,
    "priority-ordering": check_priority_ordering,
    "banned-token": check_banned_token,
    "guarded-member": check_guarded_member,
}


def run_checks(project, ctx, only=None) -> list[Finding]:
    findings: list[Finding] = []
    for name, fn in ALL_CHECKS.items():
        if only and name not in only:
            continue
        findings.extend(fn(project, ctx))
    findings.sort(key=lambda f: (f.file, f.line, f.check, f.message))
    return findings
